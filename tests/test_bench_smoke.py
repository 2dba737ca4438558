"""Smoke tests of the benchmark.

The tracer in bench/spans.py tells float products from tangent-carrying ones
by the types in Multivector.coeffs and counts every product on
Multivector._product; the traced run fails if either stops holding.  The
harness workloads wrap IdentityCheck.trial with its (ctx, rng) signature and
check every verdict; their runs fail if the harness contract and the
benchmark part ways.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from extcalc.algebra import PRODUCT_KINDS

ROOT = Path(__file__).resolve().parent.parent


def test_traced_algebra_d8_run_reports_every_per_layer_metric():
    cmd = [sys.executable, "bench/run.py", "--workload", "algebra-d8", "--seed", "0",
           "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    value = {name: m["value"] for name, m in result["metrics"].items()}
    # the traced batch: each of the four products once on floats, once lifted
    assert value["algebra.product_calls"] == 8
    assert all(value[f"algebra.product_calls.{kind}"] == 2 for kind in PRODUCT_KINDS)
    assert value["algebra.product_us.float"] > 0.0
    assert value["algebra.product_us.tangent"] > 0.0


@pytest.mark.parametrize("workload", ["harness-d3", "harness-d6"])
def test_harness_workloads_give_correct_verdicts(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0
