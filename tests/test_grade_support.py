"""Carried grade support: a multivector the library builds knows the grades
its rows may be nonzero on (Multivector._bits), and that set must cover a
fresh scan of its rows, NaN included, or a product drops terms."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from extcalc import cli
from extcalc.algebra import (
    Frame,
    Metric,
    Multivector,
    _grade_bits,
    _jet_parts,
    _merged,
    _select,
    basis_vectors,
    product,
    random_multivector,
)
from extcalc.calculus import DEFAULT_FD_STEP, MvFunction, dir_deriv
from extcalc.dual import exp
from extcalc.errors import DegenerateFrameError
from extcalc.extensor import Extensor, Outermorphism, _invertible_matrices
from extcalc.functional import InducedFunctional
from extcalc.harness import HarnessConfig, _Context, _frame

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

M5 = Metric(5, (1.0, -1.0, 2.0, 0.5, -3.0))


def scanned(x: Multivector) -> int:
    """The grades x's value, batch, trial and tangent rows are nonzero on."""
    return sum(1 << g for g in x.grades())


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the golden verdicts carry exactly what they hold --------------------------------


VERDICTS = golden.verdict_argvs()


@pytest.mark.parametrize("argv", VERDICTS, ids=[" ".join(a) for a in VERDICTS])
def test_carried_grades_equal_a_fresh_scan_on_the_golden_verdicts(monkeypatch, tmp_path, argv):
    # every carried set an operand brings to a product or a homogeneity check
    # equals a scan of its rows: a smaller one drops terms, a larger one grows
    # the term list unseen
    product_, homogeneous = Multivector._product, Multivector.is_homogeneous
    carried, wrong = [], []

    def check(*xs):
        for x in xs:
            if x._bits is not None:
                carried.append(x._bits)
                if x._bits != scanned(x):
                    wrong.append((x._bits, scanned(x)))

    def checked_product(self, kind, other):
        check(self, other)
        return product_(self, kind, other)

    def checked_homogeneous(self, grade):
        check(self)
        return homogeneous(self, grade)

    monkeypatch.setattr(Multivector, "_product", checked_product)
    monkeypatch.setattr(Multivector, "is_homogeneous", checked_homogeneous)
    out = tmp_path / "report.json"
    rc = cli.main(argv + ["--format", "json", "--out", str(out)])
    want = json.loads((golden.GOLDEN / golden.file_name(argv)).read_text())
    assert rc == want["exit_code"]
    assert not wrong, wrong[:5]
    assert carried  # the check saw the library's own values


# -- unit cases -----------------------------------------------------------------------


def test_the_zero_element_carries_no_grade():
    rng = np.random.default_rng(0)
    zero, v = Multivector.zero(M5), random_multivector(M5, 1, rng)
    assert zero._bits == 0 and all(zero.is_homogeneous(g) for g in range(-1, 7))
    for kind in ("geometric", "wedge", "lcontract"):
        out = product(kind, zero, v)
        assert out._bits == 0 and out.norm_inf() == 0.0
    assert (zero + v)._bits == 1 << 1
    built = Multivector(M5, np.zeros(M5.size))  # public: unknown until scanned, once
    assert built._bits is None and _grade_bits(built) == 0 and built._bits == 0
    assert all(built.is_homogeneous(g) for g in range(6))


def test_a_nan_row_is_carried_and_spreads_only_where_terms_reach():
    rng = np.random.default_rng(1)
    values = np.zeros(M5.size)
    values[0b11] = np.nan  # grade 2
    x = Multivector(M5, values)
    assert _grade_bits(x) == 1 << 2 and not x.is_homogeneous(1) and x.is_homogeneous(2)
    batch = Multivector(M5, np.stack([np.zeros(M5.size), values]))
    assert _grade_bits(batch) == 1 << 2 and not batch.is_homogeneous(0)
    w = random_multivector(M5, 1, rng)
    for kind, left, right in (("geometric", x, w), ("wedge", x, w), ("lcontract", w, x),
                              ("geometric", batch, w), ("wedge", w, batch)):
        out = product(kind, left, right)
        assert np.isnan(out._values).any() and out._bits == scanned(out), kind
    # an output without terms is zero beside NaN too, as its carried grades say
    for kind, left, right in (("lcontract", x, w), ("wedge", x, x ^ x ^ w)):
        out = product(kind, left, right)
        assert out._bits == scanned(out) == 0 and not out._values.any(), kind
    for factor in (np.nan, np.inf, np.array([1.0, np.nan])):
        with np.errstate(invalid="ignore"):  # inf * 0
            scaled = (batch if isinstance(factor, np.ndarray) else w) * factor
        assert scaled._bits is None  # NaN or inf times a zero coefficient is NaN
        assert _grade_bits(scaled) == scanned(scaled)
    assert (2.0 * w)._bits == 1 << 1 and (w / 4.0)._bits == 1 << 1


def test_a_sum_of_two_grades_carries_both():
    rng = np.random.default_rng(2)
    a, b = random_multivector(M5, 1, rng), random_multivector(M5, 2, rng)
    s = a + b
    assert s._bits == scanned(s) == 0b110
    assert not s.is_homogeneous(1) and not s.is_homogeneous(2)
    for t in (-s, s.reverse(), 3.0 * s, s - 1.0):
        assert t._bits | scanned(t) == t._bits
    assert s.grade_project(2)._bits == scanned(s.grade_project(2)) == 0b100
    assert s.grade_project(3)._bits == 0
    assert (s - a)._bits == 0b110 and scanned(s - a) == 0b100  # a superset covers


def test_a_merged_stack_of_mixed_grades_carries_the_union():
    rng = np.random.default_rng(3)
    vectors = Multivector.stack([random_multivector(M5, 1, rng) for _ in range(2)])
    trivectors = Multivector.stack([random_multivector(M5, 3, rng)])
    assert vectors._bits == 1 << 1 and trivectors._bits == 1 << 3
    merged = _merged([(np.array([0, 2]), vectors), (np.array([1]), trivectors)])
    assert merged._bits == scanned(merged) == 0b1010
    one = _select(merged, np.array([1]))
    assert one._bits == 0b1010 and scanned(one) == 0b1000  # a superset covers
    lifted = Multivector.stack(
        [random_multivector(M5, 3, rng).with_tangents([random_multivector(M5, 2, rng)])])
    assert lifted._bits is None and _grade_bits(lifted) == 0b1100  # scanned once, kept
    mixed = _merged([(np.array([0, 2]), vectors), (np.array([1]), lifted)])
    assert mixed._bits == scanned(mixed) == 0b1110


def test_jets_carry_grade_zero():
    rng = np.random.default_rng(4)
    x = random_multivector(M5, 2, rng).with_tangents(
        [random_multivector(M5, 2, rng), random_multivector(M5, 1, rng)])
    assert _grade_bits(x) == scanned(x) == 0b110
    for mask in (0b11, 0b1):  # a grade-2 value, and a zero value with tangents
        jet = x.coeff(mask)
        assert jet._bits == scanned(jet) == 1 and _jet_parts(jet)[1] is not None
        assert exp(jet)._bits == scanned(exp(jet)) == 1
        out = jet * x
        assert out._bits == 0b110 and out._bits | scanned(out) == out._bits
    stack = Multivector.stack([x, x])
    assert stack.coeff(0b11)._bits == 1


@pytest.mark.parametrize("step", [None, DEFAULT_FD_STEP])
def test_seeded_and_moved_slots_carry_their_arguments_and_the_directions_grades(step):
    rng = np.random.default_rng(5)
    c = random_multivector(M5, 1, rng)
    seen = []
    func = MvFunction(1, 2, 3, lambda x: seen.append(x) or x.wedge(c))
    arg, direction = random_multivector(M5, 2, rng), random_multivector(M5, 2, rng)
    dir_deriv(func, (arg,), 0, direction, step)
    (slot,) = seen
    assert slot._bits == scanned(slot) == 1 << 2
    mixed = arg + random_multivector(M5, 0, rng)
    seen.clear()
    dir_deriv(func, (mixed,), 0, direction, step)
    assert seen[0]._bits == scanned(seen[0]) == 0b101


def test_map_images_carry_the_target_grade():
    rng = np.random.default_rng(6)
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 3)):
        t = Extensor.random(M5, rng, p, q)
        image = t(random_multivector(M5, p, rng))
        assert image._bits == scanned(image) == 1 << q, (p, q)
        phi = InducedFunctional(MvFunction(1, q, q, lambda x: x),
                                (random_multivector(M5, p, rng),), p)
        (arg,) = phi.arguments(t)
        assert arg._bits == 1 << q and phi.arguments(t)[0] is arg  # mapped once per map
    outer = Outermorphism(Extensor.random_invertible(M5, rng))
    for k in range(6):
        image = outer(random_multivector(M5, k, rng))
        assert image._bits == scanned(image) == 1 << k


# -- drawn frames from their carrier matrix --------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_a_frame_from_its_carrier_matrix_is_from_vectors_bit_for_bit(n):
    metric = Metric(n, tuple((2.0, -1.0, 0.5, -3.0)[k % 4] for k in range(n)))
    rng = np.random.default_rng(40 + n)
    carriers = [Extensor.random_invertible(metric, rng) for _ in range(3)]
    for carrier in (*carriers, Extensor(metric, [c.matrix for c in carriers])):
        want = Frame.from_vectors([carrier(e) for e in basis_vectors(metric)])
        got = Frame._of_coords(metric, np.ascontiguousarray(np.swapaxes(carrier.matrix, -1, -2)))
        for g, w in zip(got.vectors + got.reciprocal, want.vectors + want.reciprocal):
            assert same_bits(g._values, w._values)
            assert g._bits == scanned(g) == 1 << 1
        for grade in range(n + 1):
            for g, w in zip(got.blades(grade), want.blades(grade)):
                assert same_bits(g, w), grade
    with pytest.raises(DegenerateFrameError):
        Frame._of_coords(metric, np.ones((n, n)))


def test_a_stack_of_drawn_frames_is_each_trials_frame_bit_for_bit():
    # trial r of a stack of drawn frames is, bit for bit, the orthonormal
    # frame where its coin is 0, else Frame.from_vectors of the images of
    # the orthonormal basis under its carrier; the carriers are one batch of
    # random invertible maps and the coins one draw after them
    ortho = Frame.orthonormal(M5)
    ctx = _Context(ortho.metric, HarnessConfig(dim=5), ortho)
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    column = _frame(True).draw(ctx, rng, (6,), ({},))
    carriers = _invertible_matrices(5, reference, 6)
    coins = reference.integers(2, size=6)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert 0 < coins.sum() < 6
    stacked = _frame(True).make(ctx, column, {})
    for r, coin in enumerate(coins):
        carrier = Extensor(M5, carriers[r]) if coin else None
        assert same_bits(column[r], np.eye(5) if carrier is None else carrier.matrix)
        alone = ortho if carrier is None else Frame.from_vectors(
            [carrier(v) for v in ortho.vectors])
        for s, a in zip(stacked.vectors + stacked.reciprocal, alone.vectors + alone.reciprocal):
            assert same_bits(s._values[r, 0], a._values)
    assert all(v._bits == 1 << 1 for v in stacked.vectors + stacked.reciprocal)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["euclidean", "alternating", "signed"])
def test_an_identity_carrier_makes_the_orthonormal_frame_bit_for_bit(n, kind):
    # an orthonormal draw is the frame of the identity carrier: its
    # reciprocal comes from the inverse Gram matrix, which must give exactly
    # e_k / g_k, signed zeros included, in a column mixed with random carriers
    diag = {"euclidean": (1.0,) * n,
            "alternating": tuple((1.0, -1.0)[k % 2] for k in range(n)),
            "signed": tuple((2.0, -1.0, 0.5, -3.0)[k % 4] for k in range(n))}[kind]
    metric = Metric(n, diag)
    ortho = Frame.orthonormal(metric)
    for k, r in enumerate(ortho.reciprocal):
        want = np.zeros(metric.size)
        want[1 << k] = 1.0 / diag[k]
        assert same_bits(r._values, want)
    ctx = _Context(metric, HarnessConfig(dim=n), ortho)
    rng = np.random.default_rng(60 + n)
    identity = np.eye(n)
    column = np.array([Extensor.random_invertible(metric, rng).matrix, identity,
                       Extensor.random_invertible(metric, rng).matrix, identity])
    stacked = _frame(True).make(ctx, column, {})
    for r in (1, 3):
        assert same_bits(stacked.coords[r], ortho.coords)
        assert same_bits(stacked.recip[r], ortho.recip)
        for s, o in zip(stacked.vectors + stacked.reciprocal, ortho.vectors + ortho.reciprocal):
            assert same_bits(s._values[r, 0], o._values)
        for grade in range(n + 1):
            for s, o in zip(stacked.blades(grade), ortho.blades(grade)):
                assert same_bits(s[r], o), grade
