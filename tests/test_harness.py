import collections
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from extcalc import cli, harness
from extcalc.algebra import Frame, Metric, Multivector, max_abs_diff, random_multivector
from extcalc.errors import ConfigurationError, DegenerateFrameError, TrialError
from extcalc.extensor import Extensor, Outermorphism, _invertible_matrices
from extcalc.functional import InducedFunctional
from extcalc.harness import (
    CATALOG,
    WITNESS_FIELDS,
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


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_values(value):
    # an infinite tolerance would pass every finite deviation
    for name in ("tol_exact", "tol_fd", "fd_step"):
        with pytest.raises(ConfigurationError):
            HarnessConfig(**{name: value})
    with pytest.raises(ConfigurationError):
        parse_metric(3, f"diag:{value},1,1")


@pytest.mark.parametrize(
    "name, value", [("trials", 2.5), ("seed", 1.5), ("trials", "4"), ("seed", None), ("dim", 3.0),
                    ("trials", True), ("dim", True), ("seed", False)]
)
def test_config_rejects_non_integer_counts(name, value):
    # a float trial count or seed used to pass here and raise TypeError in
    # run_suite; a bool, an int subclass, passed too: trials=True ran one
    # trial and wrote "trials": true
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        HarnessConfig(**{name: value})


@pytest.mark.parametrize("name, value, what", [
    ("tol_exact", True, "a real number"), ("tol_fd", False, "a real number"),
    ("fd_step", True, "a real number"), ("tol_exact", "1e-9", "a real number"),
    ("tol_fd", "1e-5", "a real number"), ("fd_step", None, "a real number"),
    ("tol_fd", 1e-5j, "a real number"), ("metric", 3, "a string"),
    ("metric", b"euclidean", "a string"), ("suite", None, "a string"),
    ("suite", ("closed-form",), "a string"),
])
def test_config_rejects_non_real_tolerances_and_non_string_names(name, value, what):
    # tol_exact=True ran with tolerance 1.0 and wrote "tol_exact": true, a
    # silently loosened verdict; metric=3 raised AttributeError and
    # tol_fd="1e-5" TypeError
    with pytest.raises(ConfigurationError, match=f"{name} must be {what}"):
        HarnessConfig(**{name: value})


def test_config_takes_int_and_float_tolerances():
    config = HarnessConfig(tol_exact=1, tol_fd=np.float64(1e-4), fd_step=2e-5)
    assert (config.tol_exact, config.tol_fd, config.fd_step) == (1, 1e-4, 2e-5)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, -(2**64)])
def test_config_rejects_seeds_outside_64_bits(seed):
    # such a seed was masked to 64 bits: 2**64 gave seed 0's results under
    # its own name
    with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
        HarnessConfig(seed=seed)
    assert HarnessConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_cli_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args([])
    defaults = HarnessConfig().to_dict()
    assert {name: getattr(args, name) for name in defaults} == defaults


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
    """A check whose trials return devs, with each trial's index as witness."""

    def trial(ctx, rng):
        assert ctx.config.trials == len(devs)
        return list(devs), lambda k: {"trial": k}

    return IdentityCheck("scripted", "closed-form", trial)


def _trial_side(side, i):
    """Trial i's row of a side of a trial stack: a multivector's value (a
    constant side, unstacked, is every trial's) or a component array."""
    if isinstance(side, Multivector):
        assert side._tangents is None
        return side._values[i, 0] if side._values.ndim == 3 else side._values
    return side[i]


def _assert_group_is_each_trials_own(check, ctx, drawn, rows) -> list:
    """The sides of the trial stack of the drawn trials `rows`, all of one
    cell, give, row by row, each trial's own sides, those of its stack of
    one, bit for bit; returns each trial's own deviation."""
    t = check.trial
    stacked = t.sides(t.inputs(ctx, drawn, np.array(rows)))
    devs = []
    for i, r in enumerate(rows):
        single = t.sides(t.inputs(ctx, drawn, np.array([r])))
        assert len(single) == len(stacked), check.id
        for stacked_pair, pair in zip(stacked, single):
            for side, one in zip(stacked_pair, pair):
                row = _trial_side(side, i)
                assert row.tobytes() == _trial_side(one, 0).tobytes(), (check.id, i)
        (dev,) = harness._deviation(single, t.relative)
        devs.append(float(dev))
    return devs


def _cell_groups(drawn: dict) -> list:
    """The trials of each drawn cell, in order of first appearance."""
    groups = {}
    for r, cell in enumerate(drawn["cell"].tolist()):
        groups.setdefault(cell, []).append(r)
    return list(groups.values())


def _mixed_names(x) -> set:
    """The names of the made name fields of a trial stack whose trials drew
    different names."""
    return {name for name, v in vars(x).items()
            if isinstance(v, tuple) and isinstance(v[0], str) and len(set(v)) > 1}


def _assert_groups_are_each_trials_own(dim, metric, trials, checks) -> tuple[int, set]:
    """Every check's groups of trials of one cell, stacked, give each
    trial's own sides and deviation, those of its stack of one, bit for bit;
    returns how many trials sat in groups of more than one and the (check
    id, field) of every drawn name that differs between the trials of some
    tested group."""
    config = HarnessConfig(dim=dim, metric=metric, trials=trials, seed=0)
    ortho = Frame.orthonormal(parse_metric(dim, metric))
    ctx = harness._Context(ortho.metric, config, ortho)
    grouped, mixed = 0, set()
    for check in checks:
        t = check.trial
        drawn = t.draw(ctx, harness._derive_rng(config.seed, check.id))
        devs, _ = t(ctx, harness._derive_rng(config.seed, check.id))
        for rows in _cell_groups(drawn):
            own = _assert_group_is_each_trials_own(check, ctx, drawn, rows)
            grouped += len(rows) if len(rows) > 1 else 0
            assert [devs[r] for r in rows] == own, check.id
            mixed |= {(check.id, name) for name in _mixed_names(t.inputs(ctx, drawn, rows))}
    return grouped, mixed


@pytest.mark.parametrize("dim, metric, trials", [
    (2, "euclidean", 4),
    (3, "euclidean", 5),
    (4, "diag:2,-1,0.5,-3", 3),
    (6, "diag:+,+,+,-,-,+", 3),
    (8, "diag:+,-,+,-,+,-,+,-", 2),
])
def test_closed_form_trial_stacks_are_each_trials_own_sides(dim, metric, trials):
    # a closed-form check is one group, structure (): all its trials are
    # stacked and its sides evaluated once; row r of each side is, bit for
    # bit, the side that trial r's own stack of one gives, and so is trial
    # r's deviation
    checks = catalog("closed-form")
    assert len(checks) == 25
    assert _assert_groups_are_each_trials_own(dim, metric, trials, checks)[0] == 25 * trials


# the drawn names of the properties and bridge checks, by their field: the
# function option, the second function's option, the smooth map and the
# bridge functional's name
_NAME_FIELDS = {
    **{c.id: {"option"} for c in catalog("properties")},
    "additivity-rule": {"option", "other"},
    "leibniz-rule": {"option", "other"},
    "chain-rule": {"option", "smooth"},
    **{c.id: {"functional"} for c in catalog("bridge")},
}


@pytest.mark.parametrize("dim, metric, trials", [
    (3, "euclidean", 16),
    (4, "diag:2,-1,0.5,-3", 10),
    (6, "diag:+,+,+,-,-,+", 9),
    (8, "diag:+,-,+,-,+,-,+,-", 9),
])
def test_grouped_trial_stacks_are_each_trials_own_sides(dim, metric, trials):
    # the properties and bridge checks (the closed-form ones are above) group
    # their trials by cell and stack each group; each trial's grouped sides
    # and deviation are, bit for bit, those of its own stack of one, and
    # some groups hold several trials in both suites (a rule's 8 cells share
    # more than 8 trials)
    mixed = set()
    for suite in ("properties", "bridge"):
        grouped, names = _assert_groups_are_each_trials_own(dim, metric, trials, catalog(suite))
        assert grouped > 0
        mixed |= names
    assert len(catalog("properties") + catalog("bridge")) == 36 - 25
    # groups mix function options, second options, smooth maps and bridge
    # names, so the rows that each option selects are checked too: the one
    # bridge group always, and at dim 3 every drawn name of every check
    everywhere = {(i, name) for i, names in _NAME_FIELDS.items() for name in names}
    assert {(c.id, "functional") for c in catalog("bridge")} <= mixed <= everywhere
    assert mixed == everywhere or dim != 3


def test_each_check_has_one_route(monkeypatch):
    # every check draws all its trials, groups them by their drawn cell (a
    # rule's grades and arity) and evaluates its sides once per group, on
    # the group's trial stack, a group of one included; a closed-form check
    # is one group
    config = HarnessConfig(trials=12, seed=0)
    ortho = Frame.orthonormal(parse_metric(config.dim, config.metric))
    ctx = harness._Context(ortho.metric, config, ortho)
    cells = []

    def draw(self, ctx, rng, draw=harness._Trials.draw):
        drawn = draw(self, ctx, rng)
        cells[:] = drawn["cell"].tolist()
        return drawn

    monkeypatch.setattr(harness._Trials, "draw", draw)
    alone = 0
    for check in CATALOG:
        assert type(check.trial) is harness._Trials, check.id
        stacks = []

        def sides(x, sides=check.trial.sides):
            stacks.append(len(x.h.matrix) if x.h.matrix.ndim == 3 else None)
            return sides(x)

        trial = dataclasses.replace(check.trial, sides=sides)
        devs, _ = trial(ctx, harness._derive_rng(config.seed, check.id))
        assert len(devs) == config.trials
        sizes = list(collections.Counter(cells).values())  # in first-drawn order
        assert stacks == sizes, check.id
        alone += sizes.count(1)
        if check.suite != "properties":
            assert sizes == [config.trials], check.id
    assert alone > 0  # groups of one trial are drawn here, and stacked too


def _recorded_cells(check, ctx, seed) -> list:
    """The (p, q, k) of each group check evaluates, in order, and its size,
    each group's map, anchors and function made for its own cell; the sides
    are not evaluated."""
    groups = []

    def sides(x):
        assert (x.h.p, x.h.q, len(x.anchors), x.phi.arity) == (x.p, x.q, x.k, x.k), check.id
        groups.append(((x.p, x.q, x.k), len(x.h.matrix)))
        zeros = np.zeros((len(x.h.matrix), 1))
        return [(zeros, zeros)]

    rng = harness._derive_rng(seed, check.id)
    dataclasses.replace(check.trial, sides=sides)(ctx, rng)
    return groups


@pytest.mark.parametrize("dim", range(2, 9))
def test_rule_trials_are_stratified_over_the_cells(dim):
    # a rule's trials take the C = 8 cells of its structure (p, q, k) in
    # turn from a drawn offset: at T >= C every cell is checked, one group
    # each, the groups' sizes differing by at most one; at T < C the groups
    # are T distinct cells, consecutive in the cells' fixed order
    order = [(c["p"], c["q"], c["k"]) for c in harness._RULE_CELLS]
    assert sorted(order) == [(p, q, k) for p in (1, 2) for q in (1, 2) for k in (1, 2)]
    ortho = Frame.orthonormal(Metric.euclidean(dim))
    for seed in range(5):
        offsets = set()
        for trials in (3, 8, 13, 64):
            ctx = harness._Context(ortho.metric, HarnessConfig(dim=dim, trials=trials), ortho)
            for check in catalog("properties"):
                groups = _recorded_cells(check, ctx, seed)
                cells, sizes = [cell for cell, _ in groups], [size for _, size in groups]
                assert len(set(cells)) == len(cells) == min(trials, 8), check.id
                assert sum(sizes) == trials and max(sizes) - min(sizes) <= 1, check.id
                start = order.index(cells[0])
                assert cells == [order[(start + r) % 8] for r in range(len(cells))], check.id
                offsets.add(start)
        assert len(offsets) > 1  # the offset is drawn, per check


def test_stacked_names_are_per_trial_values():
    ortho = Frame.orthonormal(Metric.euclidean(3))
    ctx = harness._Context(ortho.metric, HarnessConfig(), ortho)
    # a column of drawn indices makes the tuple of per-trial names (a
    # one-letter string iterates to itself, so it must not be taken for a
    # tuple)
    smooth = harness._name(("square", "exp", "sin"))
    assert smooth.make(ctx, np.array([1, 2]), {}) == ("exp", "sin")
    assert harness._name(("x", "x^c")).make(ctx, np.array([0, 1]), {}) == ("x", "x^c")
    # names that depend on the cell are drawn below the least common
    # multiple of their counts, in one call, and taken modulo the cell's
    by_arity = harness._name(lambda ctx, cell: ("a", "b", "c")[:cell["k"] + 1])
    cells = ({"k": 1}, {"k": 2})
    rng, reference = np.random.default_rng(0), np.random.default_rng(0)
    drawn = by_arity.draw(ctx, rng, (12,), cells)
    assert drawn.tobytes() == reference.integers(6, size=12).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert by_arity.make(ctx, np.array([0, 1, 2, 3, 5]), {"k": 1}) == ("a", "b", "a", "b", "b")
    assert by_arity.make(ctx, np.array([0, 1, 2, 3, 5]), {"k": 2}) == ("a", "b", "c", "a", "c")
    # fields go by name; the cell's ints are the group's own structure
    column = {"cell": np.array([0, 0]), "smooth": np.array([1, 2])}
    t = harness._Trials((("smooth", smooth),), None, cells=({"p": 2},))
    x = t.inputs(ctx, column, np.array([0, 1]))
    assert {k: v for k, v in vars(x).items() if k != "ctx"} == {"p": 2, "smooth": ("exp", "sin")}


# every kind, the cells it is drawn over and a cell whose rows it makes
_KINDS = [
    *[(f"mv-{g}", harness._mv(g), ({},), {}) for g in (0, 1, 2, None)],
    ("mv-p", harness._mv("p"), harness._RULE_CELLS, {"p": 1}),
    ("mv-q", harness._mv("q"), harness._RULE_CELLS, {"q": 2}),
    ("anchors", harness._repeat(harness._mv("p"), lambda n, cell: cell["k"]), harness._RULE_CELLS,
     {"p": 2, "k": 2}),
    ("vectors", harness._repeat(harness._mv(1), lambda n, cell: n * (n + 1) // 2), ({},), {}),
    ("map-12", harness._MAP, harness._RULE_CELLS, {"p": 1, "q": 2}),
    ("map-21", harness._MAP, harness._RULE_CELLS, {"p": 2, "q": 1}),
    ("invertible", harness._INVERTIBLE, ({},), {}),
    ("frame", harness._frame(False), ({},), {}),
    ("frame-maybe", harness._frame(True), ({},), {}),
    ("float", harness._float(-2.0, 2.0), ({},), {}),
    ("name", harness._name(("square", "exp", "sin")), ({},), {}),
]


def _made_rows(made) -> list:
    """The per-trial bytes of a made field: each array a kind makes, its
    trials along the first axis."""
    if isinstance(made, Multivector):
        return [made._values.tobytes()] if len(made._values) == 1 else [
            v.tobytes() for v in made._values]
    if isinstance(made, Extensor):
        return [m.tobytes() for m in made.matrix]
    if isinstance(made, Frame):
        return [c.tobytes() + r.tobytes() for c, r in zip(made.coords, made.recip)]
    if isinstance(made, np.ndarray):
        return [v.tobytes() for v in made]
    if isinstance(made[0], str):
        return list(made)
    return [b"".join(rows) for rows in zip(*map(_made_rows, made))]


@pytest.mark.parametrize("n", range(2, 9))
def test_a_row_made_alone_is_its_row_of_the_group(n):
    # every kind draws all trials at once and makes a group's rows, cut to
    # its cell; made alone, as a stack of one, row r is bit for bit row r
    # of the group's stack, as witness_of(r) needs
    metric = Metric(n, tuple((2.0, -1.0, 0.5, -3.0)[k % 4] for k in range(n)))
    ortho = Frame.orthonormal(metric)
    ctx = harness._Context(ortho.metric, HarnessConfig(dim=n), ortho)
    rows = np.array([0, 2, 3, 6])
    for seed, (label, kind, cells, cell) in enumerate(_KINDS):
        drawn = kind.draw(ctx, np.random.default_rng(seed), (7,), cells)
        assert len(drawn) == 7, label
        group = _made_rows(kind.make(ctx, drawn[rows], cell))
        assert len(group) == len(rows), label
        for i, r in enumerate(rows):
            assert _made_rows(kind.make(ctx, drawn[[r]], cell)) == [group[i]], (label, r)


# a seed per dim whose first random_invertible candidate has |det| < 0.1
_REDRAWN_FIRST = {2: 3439, 3: 562, 4: 70, 5: 4, 6: 15, 7: 8, 8: 12}


@pytest.mark.parametrize("n", range(2, 9))
def test_batched_invertible_draw_of_one_is_random_invertible(n):
    # the batched draw of one map is Extensor.random_invertible's matrix,
    # bit for bit, and leaves the generator where it does, also where the
    # first candidate is redrawn
    metric = Metric(n, tuple((2.0, -1.0, 0.5, -3.0)[k % 4] for k in range(n)))
    seed = _REDRAWN_FIRST[n]
    first = np.random.default_rng(seed).random((n, n)) + np.eye(n) - 0.5
    assert abs(np.linalg.det(first)) < 0.1  # the seed's first candidate is redrawn
    for s in (seed, 0, 1):
        rng, reference = np.random.default_rng(s), np.random.default_rng(s)
        got = _invertible_matrices(n, rng, 1)
        assert got.shape == (1, n, n)
        assert got[0].tobytes() == Extensor.random_invertible(metric, reference).matrix.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state
    # a batch keeps each first candidate whose |det| >= 0.1 and redraws the rest
    firsts = np.random.default_rng(seed).random((16, n, n)) + (np.eye(n) - 0.5)
    kept = np.abs(np.linalg.det(firsts)) >= 0.1
    got = _invertible_matrices(n, np.random.default_rng(seed), 16)
    assert not kept[0] and got[kept].tobytes() == firsts[kept].tobytes()
    assert (np.abs(np.linalg.det(got)) >= 0.1).all()
    assert not (got[~kept] == firsts[~kept]).any()


# 64-bit words each check draws, and the generator's buffered 32-bit
# half-word: whether it holds one (a rule's single rng.integers for its
# offset leaves one) and its last value, at dim 3, 8 trials and dim 6,
# diag:+,+,+,-,-,+, 2 trials, seed 0; PCG64's state is integer arithmetic,
# the same on every platform
_DRAWN_WORDS = {
    3: {
        "dot-pair-directional": (144, 0, 0), "dot-pair-directional-fd": (144, 0, 0),
        "wedge-pair-directional": (144, 0, 0), "wedge-pair-directional-fd": (144, 0, 0),
        "vector-image-directional": (120, 0, 0), "vector-image-directional-fd": (120, 0, 0),
        "vector-image-star": (96, 0, 0), "adjoint-image-directional": (196, 0, 3792013828),
        "adjoint-image-directional-fd": (196, 0, 2575971878),
        "adjoint-image-star": (172, 0, 2638782616), "trace-directional": (181, 0, 3008056686),
        "trace-directional-fd": (172, 0, 1182034066), "trace-star": (148, 0, 1044471214),
        "bivector-directional": (172, 0, 3965714614),
        "bivector-directional-fd": (172, 0, 744299542), "bivector-star": (148, 0, 3990660776),
        "pseudoscalar-image-directional": (184, 0, 216704175),
        "pseudoscalar-image-directional-fd": (184, 0, 4110589862),
        "det-directional": (172, 0, 959337737), "det-directional-fd": (172, 0, 3463700122),
        "det-star": (148, 0, 402080775), "blade-image-directional": (240, 0, 0),
        "blade-image-directional-fd": (240, 0, 0),
        "inverse-bivector-frame-sum": (148, 0, 3153477081), "star-fd-coherence": (96, 0, 0),
        "direction-linearity": (237, 1, 2168391260), "scaling-rule": (205, 1, 2353092644),
        "right-constant-rule": (261, 1, 1567073142), "additivity-rule": (249, 1, 2134051873),
        "leibniz-rule": (225, 1, 1002038586), "chain-rule": (177, 1, 3858081308),
        "frame-independence": (245, 1, 1054768843), "intrinsic-equivalence": (245, 1, 2371030999),
        "component-partials-fd": (200, 0, 3276415200),
        "component-bridge-directional": (224, 0, 2226223153),
        "component-bridge-star": (200, 0, 531512120),
    },
    6: {
        "dot-pair-directional": (108, 0, 0), "dot-pair-directional-fd": (108, 0, 0),
        "wedge-pair-directional": (108, 0, 0), "wedge-pair-directional-fd": (108, 0, 0),
        "vector-image-directional": (96, 0, 0), "vector-image-directional-fd": (96, 0, 0),
        "vector-image-star": (84, 0, 0), "adjoint-image-directional": (169, 0, 1403491608),
        "adjoint-image-directional-fd": (169, 0, 1849069674),
        "adjoint-image-star": (157, 0, 4165668982), "trace-directional": (157, 0, 3836805234),
        "trace-directional-fd": (157, 0, 1312740985), "trace-star": (145, 0, 3779412463),
        "bivector-directional": (157, 0, 833797312),
        "bivector-directional-fd": (157, 0, 628393157), "bivector-star": (145, 0, 2410971930),
        "pseudoscalar-image-directional": (160, 0, 1646853180),
        "pseudoscalar-image-directional-fd": (160, 0, 1417057660),
        "det-directional": (157, 0, 3786888882), "det-directional-fd": (157, 0, 2324493169),
        "det-star": (145, 0, 1911799733), "blade-image-directional": (336, 0, 0),
        "blade-image-directional-fd": (336, 0, 0),
        "inverse-bivector-frame-sum": (145, 0, 609055974), "star-fd-coherence": (84, 0, 0),
        "direction-linearity": (618, 1, 2454620108), "scaling-rule": (586, 1, 501608643),
        "right-constant-rule": (712, 1, 2532285298), "additivity-rule": (627, 1, 2534784286),
        "leibniz-rule": (615, 1, 3810601583), "chain-rule": (573, 1, 2826243444),
        "frame-independence": (626, 1, 3161714216), "intrinsic-equivalence": (626, 1, 3728276670),
        "component-partials-fd": (170, 0, 1265645231),
        "component-bridge-directional": (218, 0, 1523845714),
        "component-bridge-star": (170, 0, 12833106),
    },
}


@pytest.mark.parametrize("config", [
    HarnessConfig(dim=3, trials=8, seed=0),
    HarnessConfig(dim=6, metric="diag:+,+,+,-,-,+", trials=2, seed=0),
])
def test_every_check_draws_the_same_words(config):
    # the draws keep their RNG calls, in order and with their sizes: after
    # check.trial, each check's generator is where it is pinned here
    ortho = Frame.orthonormal(parse_metric(config.dim, config.metric))
    ctx = harness._Context(ortho.metric, config, ortho)
    assert set(_DRAWN_WORDS[config.dim]) == {c.id for c in CATALOG}
    for check in CATALOG:
        words, has_half_word, half_word = _DRAWN_WORDS[config.dim][check.id]
        rng = harness._derive_rng(config.seed, check.id)
        check.trial(ctx, rng)
        expected = harness._derive_rng(config.seed, check.id).bit_generator
        expected.advance(words)
        state = rng.bit_generator.state
        assert state["state"] == expected.state["state"], check.id
        assert (state["has_uint32"], state["uinteger"]) == (has_half_word, half_word), check.id


@pytest.mark.parametrize("dim", range(2, 9))
def test_each_trial_draws_its_table_and_its_ints_are_its_structure(dim):
    # a check's field names are unique, its draw holds exactly those columns
    # in table order after each trial's cell, one row per trial, and its
    # cells are a rule's grades and arity, or the one empty cell
    config = HarnessConfig(dim=dim, trials=4)
    ortho = Frame.orthonormal(parse_metric(dim, config.metric))
    ctx = harness._Context(ortho.metric, config, ortho)
    for check in CATALOG:
        names = [name for name, _ in check.trial.fields]
        assert len(set(names)) == len(names) and "cell" not in names, check.id
        rule = check.suite == "properties"
        assert check.trial.cells == (harness._RULE_CELLS if rule else ({},)), check.id
        drawn = check.trial.draw(ctx, harness._derive_rng(config.seed, check.id))
        assert list(drawn) == ["cell"] + names, check.id
        assert all(len(column) == config.trials for column in drawn.values()), check.id
        x = check.trial.inputs(ctx, drawn, np.array([0]))
        structure = [name for name, v in vars(x).items() if type(v) is int]
        assert structure == (["p", "q", "k"] if rule else []), check.id


def _columns(ctx, draws: list) -> dict:
    """The drawn columns of a list of one-trial draws, all of cell 0: each
    field's values stacked, a vector kept as the uniforms (v + 1) / 2 of its
    coefficients v, which give v back exactly here."""
    vectors = harness._tables(ctx.metric).blades[1]
    columns = {"cell": np.zeros(len(draws), int)}
    for name, value in draws[0].items():
        if isinstance(value, Multivector):
            column = [(d[name]._values[vectors] + 1.0) / 2.0 for d in draws]
        elif isinstance(value, tuple):  # the anchors
            column = [[(a._values[vectors] + 1.0) / 2.0 for a in d[name]] for d in draws]
        else:
            column = [d[name] for d in draws]
        columns[name] = np.array(column)
    return columns


_NAMES = {"smooth": ("square", "exp", "sin"), "functional": ("linear", "square", "exp")}


def _huge_value_columns(check, ctx, names) -> dict:
    """Draws of check over the identity map of a dim-3 Euclidean ctx, one
    per name: an exp trial has functional value 0.5, every other one 1000,
    which math.exp cannot take."""
    m = ctx.metric
    e1, e2 = Multivector.from_blade(m, 1), Multivector.from_blade(m, 2)
    draws = []
    key = "functional" if check.suite == "bridge" else "smooth"
    for name in names:
        c = (0.5 if name == "exp" else 1000.0) * e1
        draw = {"c": c, key: _NAMES[key].index(name)}
        if check.suite == "bridge":
            draw.update(anchor=e1, h=np.eye(m.dim), frame=np.eye(m.dim))
            if "directional" in check.id:
                draw["direction"] = e2
        else:  # the chain rule's cell (1, 1, 1) over x.c of one grade-1 anchor
            draw.update(anchors=(e1,), h=(np.eye(m.dim) + 1.0) / 2.0, option=1,
                        direction=e1 + e2)  # h a (1, 1) map's uniforms, its matrix 2u - 1
        draws.append(draw)
    columns = _columns(ctx, draws)
    if key == "smooth":
        columns["cell"][:] = harness._RULE_CELLS.index({"p": 1, "q": 1, "k": 1})
    x = check.trial.inputs(ctx, columns, np.arange(len(names)))
    assert getattr(x, key) == tuple(names)
    assert x.h.matrix.tobytes() == np.broadcast_to(np.eye(m.dim), x.h.matrix.shape).tobytes()
    assert check.suite == "bridge" or (x.option[0], x.anchors[0]._values[0, 0, 1]) == ("x.c", 1.0)
    return columns


@pytest.mark.parametrize("identity, names", [
    ("chain-rule", ("exp", "square", "sin")),
    ("chain-rule", ("sin", "exp", "square", "exp")),
    ("component-partials-fd", ("exp", "square", "linear")),
    ("component-bridge-directional", ("exp", "linear", "square")),
    ("component-bridge-star", ("exp", "square", "linear", "exp")),
])
def test_no_option_sees_another_options_rows(identity, names):
    # an exp trial beside square, sin or linear trials whose functional
    # value overflows math.exp (and warns in np.exp): evaluating the group
    # raises and warns nothing, and each row is its trial's own sides
    (check,) = [c for c in CATALOG if c.id == identity]
    ortho = Frame.orthonormal(Metric.euclidean(3))
    ctx = harness._Context(ortho.metric, HarnessConfig(), ortho)
    columns = _huge_value_columns(check, ctx, names)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        devs = _assert_group_is_each_trials_own(check, ctx, columns, list(range(len(names))))
        assert all(np.isfinite(devs)), devs
        # what exp would meet on another option's row
        key = "functional" if check.suite == "bridge" else "smooth"
        r = next(r for r, name in enumerate(names) if name != "exp")
        columns[key][r] = _NAMES[key].index("exp")
        with pytest.raises((OverflowError, RuntimeWarning)):
            check.trial.sides(check.trial.inputs(ctx, columns, np.array([r])))


# the directional rules: each group's sides come from one values_and_derivatives call
_DIRECTIONAL_RULES = {"direction-linearity": 3, "scaling-rule": 1, "right-constant-rule": 1,
                      "additivity-rule": 1, "leibniz-rule": 1, "chain-rule": 1}


@pytest.mark.parametrize("identity", sorted(_DIRECTIONAL_RULES))
def test_each_directional_rule_group_makes_one_seeded_pass(identity):
    # every cell group evaluates F (and G) once, seeded with one band of
    # C(n, q) tangent rows per direction, and never plainly: the Leibniz and
    # chain rules read phi(t) and g(t) from that pass.  Its deviations are
    # bit for bit those of the unlogged functions
    (check,) = [c for c in CATALOG if c.id == identity]
    config = HarnessConfig(dim=4, metric="diag:2,-1,0.5,-3", trials=16)
    ortho = Frame.orthonormal(parse_metric(config.dim, config.metric))
    ctx = harness._Context(ortho.metric, config, ortho)
    drawn = check.trial.draw(ctx, harness._derive_rng(config.seed, identity))
    groups = harness._rows_by(drawn["cell"].tolist()).values()
    assert len(groups) == len(harness._RULE_CELLS)
    for rows in groups:
        x = check.trial.inputs(ctx, drawn, rows)
        want = harness._deviation(check.trial.sides(check.trial.inputs(ctx, drawn, rows)),
                                  check.trial.relative)
        log = []

        def logged(phi, name):
            func = phi.func

            def evaluator(*xs):
                block = xs[0]._tangents
                log.append((name, None if block is None else block.shape[-2]))
                return func.evaluator(*xs)

            return InducedFunctional(dataclasses.replace(func, evaluator=evaluator),
                                     phi.anchors, phi.source_grade)

        x.phi = logged(x.phi, "F")
        names = ["F"]
        if getattr(x, "g", None) is not None:
            x.g = logged(x.g, "G")
            names.append("G")
        got = harness._deviation(check.trial.sides(x), check.trial.relative)
        tangent_rows = _DIRECTIONAL_RULES[identity] * math.comb(ctx.metric.dim, x.q)
        assert sorted(log) == [(name, tangent_rows) for name in names], (identity, x.q)
        assert got.tobytes() == want.tobytes()


def test_passing_verdict_builds_no_witness(monkeypatch, tmp_path):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(harness, "multivector_to_map", counted(multivector_to_map))
    monkeypatch.setattr(Extensor, "to_dict", counted(Extensor.to_dict))
    out = tmp_path / "report.json"
    rc = cli.main(["--dim", "3", "--trials", "2", "--format", "json", "--out", str(out)])
    assert rc == 0
    assert calls == []


def test_failing_witness_is_the_worst_trials_inputs(monkeypatch):
    # each trial's witness, serialised as soon as the trial returns, against
    # the one run_suite builds after all trials of the identity have run
    snapshots = {}

    def recording(check):
        def trial(ctx, rng):
            devs, witness_of = check.trial(ctx, rng)
            assert len(devs) == ctx.config.trials
            snapshots[check.id] = [(dev, json.dumps(witness_of(r))) for r, dev in enumerate(devs)]
            return devs, witness_of

        return IdentityCheck(check.id, check.suite, trial, check.tol_key, check.tol_factor)

    monkeypatch.setattr(harness, "CATALOG", tuple(map(recording, CATALOG)))
    results = run_suite(HarnessConfig(trials=3, seed=5, tol_exact=1e-30, tol_fd=1e-30))
    failed = [r for r in results if not r.passed]
    # at this seed four identities come out exact on every trial (max_dev
    # 0.0), additivity-rule among them: its two sides round alike there;
    # every other identity fails
    assert [r.identity for r in failed] == [r.identity for r in results if r.max_deviation > 0.0]
    assert len(failed) >= 29
    for r in failed:
        devs = [dev for dev, _ in snapshots[r.identity]]
        worst = devs.index(max(devs))  # all finite here: the first maximum
        assert r.max_deviation == devs[worst]
        assert r.witness == json.loads(snapshots[r.identity][worst][1])


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


# the keys every trial's witness writes after the map's own record, by
# identity: a witness writes a field if and only if its name is in
# WITNESS_FIELDS, so a renamed field changes this table
_DIRECTIONAL = {"anchors", "direction"}
_WITNESS_KEYS = {
    "dot-pair-directional": _DIRECTIONAL,
    "dot-pair-directional-fd": _DIRECTIONAL,
    "wedge-pair-directional": _DIRECTIONAL,
    "wedge-pair-directional-fd": _DIRECTIONAL,
    "vector-image-directional": _DIRECTIONAL,
    "vector-image-directional-fd": _DIRECTIONAL,
    "vector-image-star": {"anchors"},
    "adjoint-image-directional": _DIRECTIONAL,
    "adjoint-image-directional-fd": _DIRECTIONAL,
    "adjoint-image-star": {"anchors"},
    "trace-directional": _DIRECTIONAL,
    "trace-directional-fd": _DIRECTIONAL,
    "trace-star": {"anchors"},
    "bivector-directional": _DIRECTIONAL,
    "bivector-directional-fd": _DIRECTIONAL,
    "bivector-star": {"anchors"},
    "pseudoscalar-image-directional": _DIRECTIONAL,
    "pseudoscalar-image-directional-fd": _DIRECTIONAL,
    "det-directional": _DIRECTIONAL,
    "det-directional-fd": _DIRECTIONAL,
    "det-star": {"anchors"},
    "blade-image-directional": _DIRECTIONAL,
    "blade-image-directional-fd": _DIRECTIONAL,
    "inverse-bivector-frame-sum": set(),
    "star-fd-coherence": {"anchors"},
    "direction-linearity": {"anchors", "direction", "alpha", "beta"},
    "scaling-rule": {"anchors", "direction", "scale"},
    "right-constant-rule": {"anchors", "direction", "constant"},
    "additivity-rule": _DIRECTIONAL,
    "leibniz-rule": _DIRECTIONAL,
    "chain-rule": {"anchors", "direction", "smooth"},
    "frame-independence": {"anchors"},
    "intrinsic-equivalence": {"anchors"},
    "component-partials-fd": {"anchors", "functional"},
    "component-bridge-directional": {"anchors", "direction", "functional"},
    "component-bridge-star": {"anchors", "functional"},
}


@pytest.mark.parametrize("dim, metric", [(3, "euclidean"), (5, "diag:+,-,+,-,+")])
def test_every_trial_witnesses_its_fields_by_name(dim, metric):
    config = HarnessConfig(dim=dim, metric=metric, trials=4, seed=0)
    ortho = Frame.orthonormal(parse_metric(dim, metric))
    ctx = harness._Context(ortho.metric, config, ortho)
    map_keys = set(Extensor.identity(ortho.metric).to_dict())
    assert set(_WITNESS_KEYS) == {c.id for c in CATALOG}
    for check in CATALOG:
        _, witness_of = check.trial(ctx, harness._derive_rng(config.seed, check.id))
        for r in range(config.trials):
            assert set(witness_of(r)) == map_keys | _WITNESS_KEYS[check.id], (check.id, r)


def test_deviation_keeps_the_first_nan():
    m = Metric.euclidean(3)
    nan = float("nan")

    def stack(*values):  # a trial stack of scalars, one per trial
        return Multivector.stack([Multivector.from_scalar(m, v) for v in values])

    # trial 0: 1 then 9, over 2 then 10 relatively (9 / 10 > 1 / 2); trials
    # 1-3 a NaN in the first pair's rhs, the second pair's lhs, both sides
    first = (stack(1.0, 1.0, 1.0, 1.0), stack(2.0, nan, 10.0, 10.0))
    second = (stack(1.0, 1.0, nan, nan), stack(10.0, 10.0, 1.0, nan))
    for relative, worst in ((False, 9.0), (True, 0.9)):
        dev = harness._deviation([first, second], relative)
        assert dev[0] == worst and np.isnan(dev[1:]).all()
    # each trial of the bridge's component arrays is reduced alone
    partials = np.zeros((2, 2, 2)), np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, nan], [0.0, 0.0]]])
    dev = harness._deviation([partials])
    assert dev[0] == 1.0 and np.isnan(dev[1])


def _nan_like(mv):
    return Multivector._raw(mv.metric, np.full_like(mv._values, np.nan))


def _nan_wedge_entry(self, kwargs, table):
    return {**table, "wedge": _nan_like(table["wedge"])} if "wedge" in table else table


def _nan_image(self, kwargs, image):
    return _nan_like(image)


def _nan_fd_route_at_two_slots(self, kwargs, derivative):
    # the grade-2 blade image's FD route, one grade of blade-image-directional-fd
    return _nan_like(derivative) if kwargs.get("step") and self.arity == 2 else derivative


STAR_IDS = [
    f"{name}-star" for name in ("vector-image", "adjoint-image", "trace", "bivector", "det")
]


@pytest.mark.parametrize(
    "owner, name, poison, exposed",
    [
        (InducedFunctional, "derivative_table", _nan_wedge_entry,
         STAR_IDS + ["star-fd-coherence", "intrinsic-equivalence", "component-bridge-star"]),
        (InducedFunctional, "derivative_via_frame", _nan_wedge_entry,
         ["frame-independence", "intrinsic-equivalence"]),
        (Outermorphism, "apply", _nan_image, ["blade-image-directional"]),
        (InducedFunctional, "directional_derivative", _nan_fd_route_at_two_slots,
         ["blade-image-directional-fd"]),
    ],
    ids=["derivative-table", "derivative-via-frame", "outermorphism", "fd-route"],
)
def test_nan_in_one_product_kind_or_grade_fails(
    monkeypatch, tmp_path, owner, name, poison, exposed
):
    # each of these identities once took the max of its kinds or grades with
    # max() or >=, which drops a NaN, and so passed with the NaN unseen
    method = getattr(owner, name)

    def patched(self, *args, **kwargs):
        return poison(self, kwargs, method(self, *args, **kwargs))

    monkeypatch.setattr(owner, name, patched)
    if owner is Outermorphism:
        monkeypatch.setattr(Outermorphism, "__call__", patched)
    out = tmp_path / "report.json"
    argv = ["--dim", "3", "--trials", "2", "--seed", "0", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 1
    by_id = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    for identity in exposed:
        assert by_id[identity]["max_dev"] == "nan", identity
        assert not by_id[identity]["pass"] and "witness" in by_id[identity]


def test_blade_image_witness_lists_every_grades_anchors():
    config = HarnessConfig(dim=4, trials=2, seed=0, tol_exact=1e-30, suite="closed-form")
    (result,) = [r for r in run_suite(config) if r.identity == "blade-image-directional"]
    metric = Metric.euclidean(4)
    anchors = [multivector_from_map(metric, a) for a in result.witness["anchors"]]
    assert len(anchors) == 1 + 2 + 3 + 4  # grade k's k vectors, k = 1..4
    assert all(a.is_homogeneous(1) for a in anchors)


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


def test_readme_lists_every_witness_key(monkeypatch):
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Witness keys")[1].split("\n#")[0]
    listed = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            listed.update(re.findall(r"`([a-z_]+)`", line.split("|")[1]))
    map_keys = set(Extensor.identity(Metric.euclidean(3)).to_dict())
    assert listed == map_keys | set(WITNESS_FIELDS)
    # every trial's witness, since some identities (chain-rule) never fail
    written = set()

    def recording(check):
        def trial(ctx, rng):
            devs, witness_of = check.trial(ctx, rng)
            for r in range(len(devs)):
                written.update(witness_of(r))
            return devs, witness_of

        return IdentityCheck(check.id, check.suite, trial, check.tol_key, check.tol_factor)

    monkeypatch.setattr(harness, "CATALOG", tuple(map(recording, CATALOG)))
    run_suite(HarnessConfig(trials=2, seed=0))
    assert written == listed


def test_multivector_map_round_trip():
    metric = Metric.euclidean(3)
    mv = random_multivector(metric, 2, 5) + random_multivector(metric, 0, 6)
    mapping = multivector_to_map(mv)
    assert all(isinstance(k, str) for k in mapping)
    back = multivector_from_map(metric, mapping)
    assert max_abs_diff(back, mv) == 0.0
    with pytest.raises(ValueError):
        multivector_from_map(metric, {"e9": 1.0})


@pytest.mark.parametrize("coeff", ["x", "1.5", None, [1.0], 1j])
def test_a_map_coefficient_that_is_not_a_real_number_names_its_blade(coeff):
    with pytest.raises(ValueError, match=r"coefficient of blade 'e13' must be a real number, got ") as err:
        multivector_from_map(Metric.euclidean(3), {"e1": 1.0, "e13": coeff})
    assert repr(coeff) in str(err.value)


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


def test_emit_report_rejects_an_unknown_format():
    config = HarnessConfig(**FAST)
    with pytest.raises(ConfigurationError, match="unknown report format 'xml'"):
        emit_report(config, run_suite(config), fmt="xml")


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


def test_a_raising_trial_is_a_trial_error_not_a_failure():
    # metric entries 1e13 apart make a drawn frame degenerate: run_suite
    # raises a TrialError naming the identity, its cause the exception, and
    # the CLI prints one error line and exits 3, not a failure's 1
    config = HarnessConfig(dim=3, metric="diag:1e-13,1,1", trials=2)
    with pytest.raises(TrialError) as raised:
        run_suite(config)
    assert raised.value.args == ("adjoint-image-directional",)
    assert isinstance(raised.value.__cause__, DegenerateFrameError)
    proc = run_cli("--dim", "3", "--metric", "diag:1e-13,1,1", "--trials", "2")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ("error: adjoint-image-directional raised DegenerateFrameError: "
                           "frame vectors are (numerically) dependent\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("dim", ["1", "9"])
def test_cli_dim_out_of_range_exits_two_before_running(dim):
    proc = run_cli("--dim", dim)
    assert proc.returncode == 2, proc.stderr
    assert "dim must be" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_seed_outside_64_bits_exits_two_before_running(seed):
    proc = run_cli("--seed", seed, "--trials", "1")
    assert proc.returncode == 2, proc.stderr
    assert "seed must be in [0, 2**64)" in proc.stderr
    assert proc.stdout == ""
    assert "[0, 2**64)" in " ".join(cli.build_parser().format_help().split())


@pytest.mark.parametrize("args", [
    ("--metric", "diag:nan,1,1"),
    ("--metric", "diag:inf,1,1"),
    ("--tol-exact", "inf"),
    ("--tol-fd", "nan"),
    ("--fd-step", "inf"),
])
def test_cli_non_finite_input_exits_two_before_running(args):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
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


# the harness-d3 and harness-d6 bench workloads, as CLI flags
_BENCH_VERDICTS = {
    "harness-d3": ("--dim", "3", "--trials", "64", "--seed", "0"),
    "harness-d6": ("--dim", "6", "--metric", "diag:+,+,+,-,-,+", "--suite", "closed-form",
                   "--trials", "4", "--seed", "0"),
}


@pytest.mark.parametrize("name", sorted(_BENCH_VERDICTS))
def test_a_verdict_repeats_in_one_process_and_in_a_fresh_one(name):
    # the reuse points outlive a run_suite call, each holding its last entry:
    # a second verdict in the same interpreter must still give the bytes of
    # the first and of a fresh process
    argv = _BENCH_VERDICTS[name]
    config = cli.build_parser().parse_args(argv)
    config = HarnessConfig(**{f.name: getattr(config, f.name)
                              for f in dataclasses.fields(HarnessConfig)})
    reports = []
    for _ in range(2):
        out = io.StringIO()
        emit_report(config, run_suite(config), fmt="json", out=out)
        reports.append(out.getvalue())
    fresh = run_cli(*argv, "--format", "json")
    assert fresh.returncode == 0, fresh.stderr
    assert reports[0] == reports[1] == fresh.stdout
