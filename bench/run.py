"""extcalc benchmark: harness time-to-verdict and the dense product kernel.

    python3 bench/run.py --workload harness-d3 --seed 0 --seconds 35 --trace 0

Workloads (README.md says why each is here):

  harness-d3  one in-process `extcalc --dim 3 --trials 64 --format json` verdict
  harness-d6  one verdict at --dim 6 --metric diag:+,+,+,-,-,+
              --suite closed-form --trials 4
  algebra-d8  the four products on dense n=8 multivectors, each once with
              float operands and once with with_tangent operands

With --trace 0 the benchmark times set-up in fresh interpreters, warms the
caches with a small untimed unit, then times whole units of work for about
--seconds seconds and reports the end-to-end metrics.  With --trace 1 it runs
one warm-up, one untraced unit and one traced unit, and reports the per-layer
counts and self times of the traced unit (spans.py) and the tracing overhead.
It does that fixed amount of work whatever --seconds says, so that the
counts repeat exactly.

A shared host can run 1.2x to 2x slower for stretches of seconds to
minutes, whatever runs on it.  So set-up and wall times are reported scaled
to a quiet host: HostClock cuts each unit into slices of about
SLICE_S, runs a fixed calibration loop between slices, and scales each slice
by how much slower than CALIBRATION_REF_S that loop ran around it.  The
calibration time is not counted.  The raw wall and thread CPU times of every
unit are kept in the details line.

Every unit is checked.  A harness verdict must exit 0, pass every identity of
the catalog, and produce a JSON report byte-identical to the first one of the
run, traced or not.  Every product of algebra-d8 is compared with
coefficients the benchmark computes itself (reference.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is a JSON object of
details: per-unit raw wall, scaled wall and thread CPU time and GC
collections, the set-up samples, the report sha256, machine facts and the
start-time load average.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"  # scratch space inside the checkout

sys.path.insert(0, str(BENCH_DIR))
import reference  # noqa: E402
import spans  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
SETUP_SAMPLES = 7
SLICE_S = 0.25
CALIBRATION_STEPS = 5_000
CALIBRATION_REF_S = 0.003  # calibrate() on an uncontended 2-vCPU Xeon VM core


def import_extcalc():
    """Import extcalc from this checkout's src/, and from nowhere else."""
    if not (SRC / "extcalc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no extcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import extcalc
    import extcalc.cli

    if Path(extcalc.__file__).resolve().parent != (SRC / "extcalc").resolve():
        raise SystemExit(f"bench: extcalc imported from {extcalc.__file__}, not {SRC}")
    return extcalc


# -- host calibration -----------------------------------------------------------


class _Dual:
    __slots__ = ("v", "t")

    def __init__(self, v, t):
        self.v = v
        self.t = t

    def __add__(self, o):
        return _Dual(self.v + o.v, self.t + o.t)

    def __mul__(self, o):
        return _Dual(self.v * o.v, self.v * o.t + self.t * o.v)


def calibrate() -> float:
    """Seconds for a fixed loop of small-object float arithmetic, the kind of
    interpreter work extcalc's hot loops do; best of three.  It does not
    touch extcalc, so its time tracks the host alone."""
    xs = [_Dual(1.0 + k * 1e-3, 0.5) for k in range(64)]
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = _Dual(0.0, 0.0)
        for i in range(CALIBRATION_STEPS):
            acc = acc + xs[i & 63] * xs[(i * 7) & 63]
        best = min(best, perf_counter() - t0)
    return best


class HostClock:
    """Wall and thread CPU time of a stretch of work, and its wall time
    scaled to a host where calibrate() takes CALIBRATION_REF_S.

    reset() starts a stretch.  The work calls tick() at natural boundaries;
    once the open slice is SLICE_S long, tick() closes it, calibrates, and
    scales the slice by the mean of the calibrations on either side.
    tick(force=True) closes the last slice.
    """

    def __init__(self):
        self.calibration = calibrate()
        self.reset()

    def reset(self) -> None:
        self.wall_s = self.cpu_s = self.scaled_s = 0.0
        self._t0, self._c0 = perf_counter(), thread_time()

    def tick(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and now - self._t0 < SLICE_S:
            return
        self.wall_s += now - self._t0
        self.cpu_s += thread_time() - self._c0
        after = calibrate()
        self.scaled_s += (now - self._t0) * CALIBRATION_REF_S * 2 / (self.calibration + after)
        self.calibration = after
        self._t0, self._c0 = perf_counter(), thread_time()


# -- workloads ------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    """What one unit of work left behind, for checking after its timing."""

    value: object = None
    error: str | None = None


class HarnessRun:
    """One `extcalc` CLI verdict per unit, called in process."""

    min_units = 3

    def __init__(self, ec, dim: int, metric: str, suite: str, trials: int, seed: int,
                 workdir: Path):
        self.ec = ec
        self.out = workdir / "report.json"
        self.base = ["--dim", str(dim), "--metric", metric, "--suite", suite,
                     "--seed", str(seed), "--format", "json", "--out", str(self.out)]
        self.trials = trials
        self.ids = [i for i, s in spans.IDENTITIES.items() if suite in ("all", s)]
        self.setup_code = (  # import, metric, frame and the first product
            "import extcalc.cli\n"
            "from extcalc.algebra import Frame\n"
            "from extcalc.harness import parse_metric\n"
            f"e = Frame.orthonormal(parse_metric({dim}, {metric!r})).vectors[0]\n"
            "e.geometric(e)\n"
        )
        self.first_report: bytes | None = None
        self.problems: list[str] = []

    def warm_up(self) -> None:
        self.ec.cli.main(self.base + ["--trials", "1"])

    @contextlib.contextmanager
    def boundaries(self, tick):
        """Call tick() after every trial, so a verdict is timed in slices."""
        harness = self.ec.harness
        catalog = harness.CATALOG

        def ticking(trial):
            def run_trial(ctx, rng):
                try:
                    return trial(ctx, rng)
                finally:
                    tick()

            return run_trial

        harness.CATALOG = tuple(
            dataclasses.replace(check, trial=ticking(check.trial)) for check in catalog
        )
        try:
            yield
        finally:
            harness.CATALOG = catalog

    def unit(self):
        rc = self.ec.cli.main(self.base + ["--trials", str(self.trials)])
        return rc, self.out.read_bytes()

    def check(self, outcome: Outcome) -> tuple[int, int]:
        """(identities attempted, identities failed) for one verdict."""
        ids = self.ids
        if outcome.error is not None:
            self.problems.append(outcome.error)
            return len(ids), len(ids)
        rc, report = outcome.value
        if self.first_report is None:
            self.first_report = report
        problem = None
        if rc != 0:
            problem = f"exit code {rc}"
        elif report != self.first_report:
            problem = "JSON report differs from the first report of this run"
        else:
            results = json.loads(report)["results"]
            if [r["id"] for r in results] != ids:
                problem = "report identities differ from the catalog"
        if problem is not None:
            self.problems.append(problem)
            return len(ids), len(ids)
        return len(ids), sum(not r["pass"] for r in results)

    def details(self) -> dict:
        sha = hashlib.sha256(self.first_report).hexdigest() if self.first_report else None
        return {"report_sha256": sha, "problems": self.problems[:10]}


class AlgebraRun:
    """The four products on dense n=8 operands, float and lifted, per unit."""

    min_units = 5
    dim = 8
    diag = (1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0)

    def __init__(self, ec, seed: int):
        self.ec = ec
        self.metric = ec.algebra.Metric(self.dim, self.diag)
        rng = np.random.default_rng(seed)
        size = 1 << self.dim
        # per kind: operands a, b and tangent seeds da, db, all dense
        self.inputs = [
            (kind, *(tuple(rng.uniform(-1.0, 1.0, size).tolist()) for _ in range(4)))
            for kind in spans.PRODUCT_KINDS
        ]
        tables = reference.tables(self.diag)
        self.expected = []  # (kind, value, tangent or None) in unit() order
        for kind, a, b, da, db in self.inputs:
            value = reference.product(tables, kind, a, b)
            tangent = reference.tangent_product(tables, kind, a, b, da, db)
            self.expected += [(kind, value, None), (kind, value, tangent)]
        self.setup_code = (  # import, metric and the first product (n=8 tables)
            "from extcalc.algebra import Metric, Multivector\n"
            f"m = Metric({self.dim}, {self.diag!r})\n"
            "e = Multivector.from_blade(m, 1)\n"
            "e.geometric(e)\n"
        )
        self.problems: list[str] = []

    def warm_up(self) -> None:
        self.unit()

    def boundaries(self, tick):
        """A batch is one slice."""
        return contextlib.nullcontext()

    def unit(self):
        mv, product = self.ec.algebra.Multivector, self.ec.algebra.product
        m = self.metric
        out = []
        for kind, a, b, da, db in self.inputs:
            out.append(product(kind, mv(m, a), mv(m, b)))
            lifted_a = mv(m, a).with_tangent(mv(m, da))
            lifted_b = mv(m, b).with_tangent(mv(m, db))
            out.append(product(kind, lifted_a, lifted_b))
        return out

    def check(self, outcome: Outcome) -> tuple[int, int]:
        """(products attempted, products failed) for one batch."""
        n = len(self.expected)
        if outcome.error is not None or len(outcome.value) != n:
            self.problems.append(outcome.error or "batch returned a wrong number of products")
            return n, n
        failed = 0
        for got, (kind, value, tangent) in zip(outcome.value, self.expected):
            ok = reference.matches(got.value_part().values(), value)
            if tangent is not None:
                ok = ok and reference.matches(got.tangent_part().values(), tangent)
            if not ok:
                failed += 1
                self.problems.append(f"{kind} product disagrees with the reference")
        return n, failed

    def details(self) -> dict:
        return {"problems": self.problems[:10]}


# name -> (dim, metric, suite, trials)
HARNESS = {
    "harness-d3": (3, "euclidean", "all", 64),
    "harness-d6": (6, "diag:+,+,+,-,-,+", "closed-form", 4),
}
WORKLOADS = (*HARNESS, "algebra-d8")


def open_workload(ec, name: str, seed: int, workdir: Path):
    if name in HARNESS:
        return HarnessRun(ec, *HARNESS[name], seed, workdir)
    return AlgebraRun(ec, seed)


# -- measurement -------------------------------------------------------------------


@dataclasses.dataclass
class Rep:
    wall_s: float
    cpu_s: float
    scaled_s: float
    gc_collections: int
    attempted: int = 0
    failed: int = 0


def _gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def timed(run, clock: HostClock) -> tuple[Rep, Outcome]:
    """Run one unit; check its outcome with checked(), outside the timing."""
    g0 = _gc_collections()
    clock.reset()
    try:
        outcome = Outcome(run.unit())
    except Exception:
        outcome = Outcome(error=traceback.format_exc(limit=3))
    clock.tick(force=True)
    return Rep(clock.wall_s, clock.cpu_s, clock.scaled_s, _gc_collections() - g0), outcome


def checked(run, rep: Rep, outcome: Outcome) -> Rep:
    """Score the unit and let its outcome go, so memory does not grow with
    the number of units."""
    rep.attempted, rep.failed = run.check(outcome)
    return rep


def setup_times(setup_code: str, clock: HostClock) -> list[tuple[float, float]]:
    """(wall, scaled) time of fresh interpreters that import extcalc and do
    the workload's first product; the first, which may compile bytecode, is
    dropped."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + setup_code
    cmd = [sys.executable, "-c", code]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        clock.reset()
        subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, check=True, timeout=60)
        clock.tick(force=True)
        if i:
            samples.append((clock.wall_s, clock.scaled_s))
    return samples


def measure(run, seconds: float) -> tuple[dict, list[Rep], dict]:
    clock = HostClock()
    setup = setup_times(run.setup_code, clock)
    run.warm_up()
    reps: list[Rep] = []
    start = perf_counter()
    with run.boundaries(clock.tick):
        while True:
            reps.append(checked(run, *timed(run, clock)))
            if len(reps) >= run.min_units and (
                perf_counter() - start + statistics.median(r.wall_s for r in reps) > seconds
            ):
                break
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "wall_s": statistics.median(r.scaled_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "raw_setup_s": statistics.median(wall for wall, _ in setup),
        "raw_wall_s": statistics.median(r.wall_s for r in reps),
        "setup_samples": [{"wall_s": w, "scaled_s": s} for w, s in setup],
    }
    return metrics, reps, extra


def measure_traced(ec, run) -> tuple[dict, list[Rep], dict]:
    clock = HostClock()
    run.warm_up()
    plain = checked(run, *timed(run, clock))
    tracer = spans.install(ec)
    try:
        traced, outcome = timed(run, clock)
    finally:
        tracer.restore()
    checked(run, traced, outcome)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return metrics, [plain, traced], {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    ec = import_extcalc()
    load = os.getloadavg()
    # One CPU for the benchmark and its set-up interpreters, so that the
    # calibration runs where the work runs.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        run = open_workload(ec, args.workload, args.seed, Path(workdir))
        if args.trace:
            metrics, reps, extra = measure_traced(ec, run)
            units = spans.PER_LAYER
        else:
            metrics, reps, extra = measure(run, args.seconds)
            units = END_TO_END
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "units": [
            {"wall_s": r.wall_s, "scaled_s": r.scaled_s, "cpu_s": r.cpu_s,
             "gc": r.gc_collections}
            for r in reps
        ],
        **extra,
        **run.details(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": load,
    }
    print(json.dumps({"details": details}))
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
