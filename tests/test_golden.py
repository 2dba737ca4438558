"""The verdict of every tier1.yml step against its golden report
(tests/golden, written by tests/golden/regenerate.py).

Exact: the identities and their order, pass, trials, tolerance, the config
block, the summary, the witness keys and the exit code.  Within 1e-4 times
the identity's tolerance: max_dev and every number of a witness."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ARGVS = golden.verdict_argvs()
BAND = 1e-4  # times the tolerance


def _close(got, want, band, where):
    """got equals want in structure and keys, its numbers within band."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _close(got[key], want[key], band, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, band, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool) and math.isfinite(want):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= band, (where, got, want)
    else:  # a name, a bool, or a non-finite deviation written as a string
        assert got == want, (where, got, want)


def test_every_verdict_step_has_one_golden_report():
    names = [golden.file_name(argv) for argv in ARGVS]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(p.name for p in golden.GOLDEN.glob("*.json"))


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) for a in ARGVS])
def test_verdict_matches_its_golden_report(argv):
    want = json.loads((golden.GOLDEN / golden.file_name(argv)).read_text())
    got = golden.run(argv)
    assert got["argv"] == want["argv"]
    assert got["exit_code"] == want["exit_code"]
    assert got["tolerances"] == want["tolerances"]
    g, w = got["report"], want["report"]
    assert g["config"] == w["config"]
    assert g["summary"] == w["summary"]
    assert [r["id"] for r in g["results"]] == [r["id"] for r in w["results"]]
    for rg, rw, tol in zip(g["results"], w["results"], want["tolerances"]):
        where = rw["id"]
        assert rg["pass"] == rw["pass"], where
        assert rg["trials"] == rw["trials"], where
        assert ("witness" in rg) == ("witness" in rw), where
        _close(rg["max_dev"], rw["max_dev"], BAND * tol, where)
        if "witness" in rw:
            _close(rg["witness"], rw["witness"], BAND * tol, where + ".witness")
