"""Self-test of the benchmark; prints every metric by name with its unit.

    python3 bench/selftest.py [--seed 0] [--second-seed 1] [--seconds 10]

For each workload this runs bench/run.py untraced at --seed and at
--second-seed, and traced twice at --seed.  It prints every end-to-end and
per-layer metric with its unit, and checks that

  * every run exits 0 and reports correct: true with failed == 0, so the
    correctness gates of run.py hold on both seeds;
  * the metric names and units are exactly those of BENCHMARK.json;
  * every *_calls count is identical across the two traced runs;
  * every per-layer metric fires (is non-zero) on each workload that
    FIRES_ON names for it, the workloads whose end-to-end figures README.md
    predicts it moves.

It exits 1 if any check fails.  A full pass takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

ALL = ("harness-d3", "harness-d6", "algebra-d8")
HARNESS = ("harness-d3", "harness-d6")

# Per-layer metric name prefix -> workloads it must fire on; the longest
# matching prefix applies.  Every per-layer metric must match one.
FIRES_ON = {
    "algebra.product_": ("algebra-d8", "harness-d6"),
    "algebra.linear_": ("harness-d3",),
    "algebra.lift_": ("harness-d3", "algebra-d8"),
    "algebra.frame_": HARNESS,
    "algebra.self_s": ALL,
    "extensor.": HARNESS,
    "calculus.": ("harness-d6",),
    "functional.": ("harness-d6",),
    # harness-d6 runs the closed-form suite only
    "functional.derivative_via_frame_calls": ("harness-d3",),
    "harness.": ("harness-d3",),
    "harness.suite_s.closed-form": HARNESS,
    "harness.self_s": HARNESS,
    "cli.report_s": ("harness-d3",),
    "trace.overhead_s": ALL,
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--second-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in expected[1]:
        check(any(name.startswith(p) for p in FIRES_ON), f"{name} has a FIRES_ON entry")

    for workload in ALL:
        results = {
            "seed": run(workload, args.seed, args.seconds, 0),
            "second seed": run(workload, args.second_seed, args.seconds, 0),
            "traced": run(workload, args.seed, args.seconds, 1),
            "traced again": run(workload, args.seed, args.seconds, 1),
        }
        for label, res in results.items():
            trace = int(label.startswith("traced"))
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{workload} {label}: correct, {res['failed']}/{res['attempted']} failed")
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            check(units == expected[trace], f"{workload} {label}: metrics match BENCHMARK.json")
        for label in ("seed", "traced"):
            for name, m in results[label]["metrics"].items():
                print(f"     {workload:<11} {name:<52} {m['value']:>16.6g} {m['unit']}")

        first, again = results["traced"]["metrics"], results["traced again"]["metrics"]
        differ = [k for k in first if "_calls" in k and first[k]["value"] != again[k]["value"]]
        check(not differ, f"{workload}: *_calls repeat across traced runs {differ or ''}")
        silent = []
        for name, m in first.items():
            prefix = max((p for p in FIRES_ON if name.startswith(p)), key=len, default=None)
            if prefix and workload in FIRES_ON[prefix] and m["value"] == 0:
                silent.append(name)
        check(not silent, f"{workload}: predicted spans fire {silent or ''}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
