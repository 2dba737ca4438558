import io
import json
import subprocess
import sys

import pytest

from extcalc import harness
from extcalc.algebra import Metric, max_abs_diff, random_multivector
from extcalc.errors import ConfigurationError
from extcalc.extensor import Extensor
from extcalc.harness import (
    CATALOG,
    HarnessConfig,
    IdentityCheck,
    catalog,
    emit_report,
    multivector_from_map,
    multivector_to_map,
    parse_metric,
    report_dict,
    run_suite,
)

FAST = dict(trials=4, seed=11)


# -- configuration -----------------------------------------------------------


def test_metric_string_parsing():
    assert parse_metric(3, "euclidean").diag == (1.0, 1.0, 1.0)
    assert parse_metric(3, "diag:+,+,-").diag == (1.0, 1.0, -1.0)
    assert parse_metric(2, "diag:2,0.5").diag == (2.0, 0.5)
    with pytest.raises(ConfigurationError):
        parse_metric(3, "diag:+,+")
    with pytest.raises(ConfigurationError):
        parse_metric(3, "diag:+,+,zero")
    with pytest.raises(ConfigurationError):
        parse_metric(3, "minkowski")
    with pytest.raises(ConfigurationError):
        parse_metric(2, "diag:1,0")


def test_config_validation():
    HarnessConfig()  # defaults are valid
    with pytest.raises(ConfigurationError):
        HarnessConfig(dim=1)
    with pytest.raises(ConfigurationError):
        HarnessConfig(dim=9)
    with pytest.raises(ConfigurationError):
        HarnessConfig(trials=0)
    with pytest.raises(ConfigurationError):
        HarnessConfig(tol_exact=0.0)
    with pytest.raises(ConfigurationError):
        HarnessConfig(suite="everything")
    with pytest.raises(ConfigurationError):
        HarnessConfig(metric="diag:+")


def test_catalog_structure():
    ids = [c.id for c in CATALOG]
    assert len(ids) == len(set(ids))  # unique
    assert set(c.suite for c in CATALOG) == {"closed-form", "properties", "bridge"}
    assert [c.id for c in catalog("all")] == ids
    closed = catalog("closed-form")
    assert all(c.suite == "closed-form" for c in closed)
    with pytest.raises(ConfigurationError):
        catalog("nope")


def test_harness_dims_span_the_algebra():
    # dims 2..8, the algebra's whole range; 9 is rejected in test_config_validation
    config = HarnessConfig(dim=8, metric="diag:+,-,+,-,+,-,+,-", trials=1, suite="properties")
    results = run_suite(config)
    assert results and all(r.passed for r in results)


# -- run_suite -----------------------------------------------------------------


def test_default_config_all_identities_pass():
    results = run_suite(HarnessConfig(**FAST))
    assert len(results) == len(CATALOG)
    assert all(r.passed for r in results)
    assert all(r.witness is None for r in results)
    assert [r.identity for r in results] == [c.id for c in CATALOG]


def test_each_identity_appears_once_per_suite():
    for suite in ("closed-form", "properties", "bridge"):
        results = run_suite(HarnessConfig(suite=suite, **FAST))
        assert [r.identity for r in results] == [c.id for c in catalog(suite)]


@pytest.mark.parametrize("metric", ["diag:+,-,+", "diag:2,1,-1"])
def test_non_euclidean_signatures_pass(metric):
    results = run_suite(HarnessConfig(metric=metric, **FAST))
    assert all(r.passed for r in results)


def test_dim_two_includes_sign_sensitive_adjoint_case():
    results = run_suite(HarnessConfig(dim=2, suite="closed-form", **FAST))
    by_id = {r.identity: r for r in results}
    star = by_id["adjoint-image-star"]
    assert star.passed  # includes the vanishing gradient at n = 2
    assert by_id["det-directional"].passed


def test_impossible_tolerance_reports_failures_with_witnesses():
    results = run_suite(HarnessConfig(tol_exact=1e-30, suite="closed-form", **FAST))
    failed = [r for r in results if not r.passed]
    assert failed  # rounding noise exceeds 1e-30
    for r in failed:
        assert r.witness is not None
        assert r.witness["n"] == 3
        assert r.witness["metric"] == [1.0, 1.0, 1.0]
        assert "matrix" in r.witness


def test_blade_image_fd_witness_has_anchors():
    results = run_suite(HarnessConfig(tol_fd=1e-30, suite="closed-form", **FAST))
    (result,) = [r for r in results if r.identity == "blade-image-directional-fd"]
    assert not result.passed
    assert "direction" in result.witness
    assert len(result.witness["anchors"]) >= 1


def test_chain_rule_deviation_is_relative(monkeypatch):
    # exp of a large functional value makes the derivative ~1e9 here; an
    # absolute comparison failed at 9.5e-7 against 1e-8
    (check,) = [c for c in CATALOG if c.id == "chain-rule"]
    monkeypatch.setattr(harness, "CATALOG", (check,))
    (result,) = run_suite(HarnessConfig(dim=5, trials=64, seed=0, suite="properties"))
    assert result.identity == "chain-rule"
    assert result.passed, result.max_deviation


def test_witness_is_reproducible_input():
    # the serialized map and direction reproduce the reported deviation scale
    results = run_suite(HarnessConfig(tol_exact=1e-30, trials=2, seed=3, suite="closed-form"))
    failing = next(r for r in results if not r.passed and "direction" in (r.witness or {}))
    w = failing.witness
    metric = Metric(w["n"], tuple(w["metric"]))
    h = Extensor.from_dict({k: w[k] for k in ("n", "p", "q", "metric", "matrix")})
    direction = multivector_from_map(metric, w["direction"])
    assert h.metric == metric
    assert direction.is_homogeneous(1)


def _scripted_check(devs):
    """A check whose trial k returns devs[k], with the trial index as witness."""
    trials = iter(enumerate(devs))

    def trial(ctx, rng):
        k, dev = next(trials)
        return dev, {"trial": k}

    return IdentityCheck("scripted", "closed-form", trial)


def _reject_constant(name):
    raise ValueError(f"invalid JSON constant {name}")


@pytest.mark.parametrize(
    "devs, bad_trial, written",
    [
        ([float("nan"), 1e-12, 1e-11], 0, "nan"),
        ([1e-12, float("nan"), 1e-11, float("inf")], 1, "nan"),
        ([1e-12, float("-inf"), float("nan")], 1, "-inf"),
    ],
)
def test_non_finite_deviation_fails_with_first_witness(monkeypatch, devs, bad_trial, written):
    monkeypatch.setattr(harness, "CATALOG", (_scripted_check(devs),))
    config = HarnessConfig(trials=len(devs), suite="closed-form")
    (result,) = run_suite(config)
    assert not result.passed
    assert result.witness == {"trial": bad_trial}
    out = io.StringIO()
    emit_report(config, [result], fmt="json", out=out)
    parsed = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert parsed["results"][0]["max_dev"] == written
    assert parsed["results"][0]["witness"] == {"trial": bad_trial}
    assert parsed["summary"] == {"passed": 0, "failed": 1}


def test_determinism_same_seed_same_report():
    config = HarnessConfig(trials=3, seed=99)
    a = json.dumps(report_dict(config, run_suite(config)), sort_keys=True)
    b = json.dumps(report_dict(config, run_suite(config)), sort_keys=True)
    assert a == b


def test_different_seeds_change_deviations():
    r1 = run_suite(HarnessConfig(trials=3, seed=1, suite="closed-form"))
    r2 = run_suite(HarnessConfig(trials=3, seed=2, suite="closed-form"))
    assert any(
        a.max_deviation != b.max_deviation for a, b in zip(r1, r2)
    )


# -- serialization helpers --------------------------------------------------------


def test_readme_catalog_matches_run_suite_output():
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Identity catalog")[1].split("## Library example")[0]
    listed = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            listed.update(re.findall(r"`([a-z0-9-]+)`", line.split("|")[1]))
    ids = {c.id for c in CATALOG}
    assert listed == ids
    ran = {r.identity for r in run_suite(HarnessConfig(trials=1, suite="all"))}
    assert listed == ran


def test_multivector_map_round_trip():
    metric = Metric.euclidean(3)
    mv = random_multivector(metric, 2, 5) + random_multivector(metric, 0, 6)
    mapping = multivector_to_map(mv)
    assert all(isinstance(k, str) for k in mapping)
    back = multivector_from_map(metric, mapping)
    assert max_abs_diff(back, mv) == 0.0
    with pytest.raises(ValueError):
        multivector_from_map(metric, {"e9": 1.0})


# -- reports -------------------------------------------------------------------------


def test_report_dict_schema():
    config = HarnessConfig(**FAST)
    results = run_suite(config)
    payload = report_dict(config, results)
    assert set(payload) == {"config", "results", "summary"}
    assert payload["config"]["dim"] == 3
    assert payload["summary"] == {"passed": len(results), "failed": 0}
    for entry in payload["results"]:
        assert set(entry) == {"id", "trials", "max_dev", "pass"}


def test_json_report_round_trip(tmp_path):
    config = HarnessConfig(**FAST)
    results = run_suite(config)
    out = tmp_path / "report.json"
    emit_report(config, results, fmt="json", out=str(out))
    parsed = json.loads(out.read_text())
    assert [e["id"] for e in parsed["results"]] == [r.identity for r in results]
    assert [e["max_dev"] for e in parsed["results"]] == [r.max_deviation for r in results]


def test_text_report_summary_line(tmp_path):
    config = HarnessConfig(**FAST)
    results = run_suite(config)
    out = tmp_path / "report.txt"
    emit_report(config, results, fmt="text", out=str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[-1] == f"SUMMARY: {len(results)} passed, 0 failed"
    assert all("PASS" in line for line in lines[1:-1])


def test_emit_report_rejects_empty_results():
    with pytest.raises(ValueError):
        emit_report(HarnessConfig(**FAST), [], fmt="text")


def test_emit_report_unwritable_path_raises_oserror(tmp_path):
    config = HarnessConfig(**FAST)
    results = run_suite(config)
    with pytest.raises(OSError):
        emit_report(config, results, fmt="json", out=str(tmp_path / "missing" / "x.json"))


# -- CLI ----------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "extcalc", *args], capture_output=True, text=True
    )


def test_cli_all_pass_exits_zero():
    proc = run_cli("--trials", "2", "--seed", "5", "--suite", "properties")
    assert proc.returncode == 0, proc.stderr
    assert "SUMMARY" in proc.stdout
    assert "0 failed" in proc.stdout


def test_cli_failure_exits_one():
    proc = run_cli("--trials", "2", "--tol-exact", "1e-30", "--suite", "closed-form")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_cli_bad_metric_exits_nonzero_before_running():
    proc = run_cli("--metric", "diag:+,+")
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()
    assert proc.stdout == ""


def test_cli_json_report_byte_identical_across_runs(tmp_path):
    args = ("--trials", "2", "--seed", "123", "--format", "json", "--suite", "bridge")
    first = run_cli(*args, "--out", str(tmp_path / "a.json"))
    second = run_cli(*args, "--out", str(tmp_path / "b.json"))
    assert first.returncode == 0 and second.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cli_json_to_stdout_parses():
    proc = run_cli("--trials", "2", "--suite", "bridge", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["summary"]["failed"] == 0
