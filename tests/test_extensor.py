import re
from math import comb

import numpy as np
import pytest

from extcalc.algebra import (
    Frame,
    Metric,
    Multivector,
    basis_vectors,
    max_abs_diff,
    random_multivector,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from extcalc import algebra
from extcalc.algebra import _as_stack, _compound
from extcalc.errors import ConfigurationError, DegenerateFrameError, SingularExtensorError
from extcalc.extensor import _SHIFTS, INVERTIBLE_MIN_DET, Extensor, Outermorphism, _det

E2 = Metric.euclidean(2)
E3 = Metric.euclidean(3)


def signed_metric(n):
    """Signed, non-unit diagonal metric of dim n."""
    return Metric(n, tuple((2.0, -1.0, 0.5, -3.0)[k % 4] for k in range(n)))


def random_frame(metric, rng):
    carrier = Extensor.random_invertible(metric, rng)
    return Frame.from_vectors([carrier(e) for e in basis_vectors(metric)])


# -- apply --------------------------------------------------------------------


def test_identity_and_zero_maps():
    e1, _, _ = basis_vectors(E3)
    ident = Extensor.identity(E3)
    assert max_abs_diff(ident(e1), e1) == 0.0
    zero = Extensor.zero(E3)
    assert zero(e1).norm_inf() == 0.0


def test_apply_matches_matrix_action():
    e1, e2 = basis_vectors(E2)
    h = Extensor.from_vector_images(E2, [e2, Multivector.zero(E2)])
    assert max_abs_diff(h(e1), e2) == 0.0
    assert h(e2).norm_inf() == 0.0


def test_apply_is_linear():
    rng = np.random.default_rng(0)
    t = Extensor.random(E3, rng, 1, 2)
    x = random_multivector(E3, 1, rng)
    y = random_multivector(E3, 1, rng)
    lhs = t(2.0 * x - 0.5 * y)
    rhs = 2.0 * t(x) - 0.5 * t(y)
    assert max_abs_diff(lhs, rhs) < 1e-14
    assert t(x).is_homogeneous(2)


def test_from_vector_images_takes_fixed_vectors_over_its_metric():
    # a tangent-carrying image had its tangents dropped silently
    e1, e2, e3 = basis_vectors(E3)
    for image in (e1.with_tangent(e2), e1 ^ e2, Multivector(E3, np.eye(8)[[1, 2]])):
        with pytest.raises(ValueError):
            Extensor.from_vector_images(E3, [e1, e2, image])
    with pytest.raises(ConfigurationError):
        Extensor.from_vector_images(E3, basis_vectors(Metric(3, (1.0, -1.0, 2.0))))
    assert np.array_equal(Extensor.from_vector_images(E3, [e1, e2, e3]).matrix, np.eye(3))


def test_apply_validates_grade_and_metric():
    e1, e2, _ = basis_vectors(E3)
    t = Extensor.identity(E3)
    with pytest.raises(ValueError):
        t(e1 ^ e2)
    with pytest.raises(ConfigurationError):
        t(basis_vectors(E2)[0])


# -- random maps -------------------------------------------------------------------


def _uniform_invertible(n, rng):
    """random_invertible as it was first written: the identity plus half a
    uniform(-1, 1) draw, redrawn while |det| is small; and its draw count."""
    draws = 0
    while True:
        draws += 1
        matrix = np.eye(n) + 0.5 * rng.uniform(-1.0, 1.0, (n, n))
        if abs(np.linalg.det(matrix)) >= INVERTIBLE_MIN_DET:
            return matrix, draws


@pytest.mark.parametrize("n, seeds", [
    (3, (562, 871, 0, 1)), (4, (70, 73, 2)), (5, (4, 53, 3)), (8, (12, 32, 4)),
])
def test_random_invertible_is_the_uniform_formula_bit_for_bit(n, seeds):
    # u + (I - 1/2) is I + (2u - 1) / 2 exactly; the first seeds of each n
    # redraw at least once, so the redraw decisions agree too, and the
    # generator ends where the formula leaves it
    redrawn = 0
    for seed in seeds:
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        expected, draws = _uniform_invertible(n, reference)
        redrawn += draws > 1
        got = Extensor.random_invertible(Metric.euclidean(n), rng)
        assert got.matrix.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state
    assert redrawn >= 2


@pytest.mark.parametrize("n", range(2, 9))
def test_redraw_determinant_is_linalg_det_bit_for_bit(n):
    # 300 draws per n, each the first formula's matrix, some redrawn (n = 2
    # redraws about once in 6,000 draws); and each candidate's determinant is
    # np.linalg.det's to the bit, also on candidates scaled to |det| within a
    # few ulps of INVERTIBLE_MIN_DET, so every decision is the same
    rng, reference = np.random.default_rng(100 + n), np.random.default_rng(100 + n)
    redrawn = 0
    for _ in range(300):
        expected, draws = _uniform_invertible(n, reference)
        redrawn += draws > 1
        got = Extensor.random_invertible(Metric.euclidean(n), rng)
        assert got.matrix.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert redrawn or n == 2
    candidates = np.random.default_rng(n).random((300, n, n)) + _SHIFTS[n]
    dets = np.linalg.det(candidates)
    near = candidates * (INVERTIBLE_MIN_DET / np.abs(dets))[:, None, None] ** (1.0 / n)
    for m in (*candidates, *near):
        assert _det(m).tobytes() == np.linalg.det(m).tobytes()
    assert np.ptp(np.abs(np.linalg.det(near)) - INVERTIBLE_MIN_DET) < 1e-14


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1), (0, 3), (3, 2)])
def test_random_map_is_numpys_uniform_bit_for_bit(p, q):
    rng, reference = np.random.default_rng(p + 7 * q), np.random.default_rng(p + 7 * q)
    got = Extensor.random(E3, rng, p, q)
    expected = reference.uniform(-1.0, 1.0, (comb(3, q), comb(3, p)))
    assert got.matrix.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("p, q, named", [
    (1, -1, "grade -1"), (4, 1, "grade 4"), (True, 1, "True"), (1, False, "False"),
    (1.0, 1, "1.0"), (1, "2", "'2'"),
])
def test_map_grades_are_checked_before_any_draw(p, q, named):
    # -1 used to fail inside math.comb and True to make Extensor(p=True);
    # the error names the grade, and a rejected draw draws nothing
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(named)):
        Extensor.random(E3, rng, p, q)
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError, match=re.escape(named)):
        Extensor(E3, np.zeros((3, 3)), p, q)


def test_library_made_matrices_are_read_only():
    rng = np.random.default_rng(10)
    made = [Extensor.random(E3, rng, 1, 2), Extensor.random_invertible(E3, rng)]
    made.append(Extensor(E3, [made[1].matrix, Extensor.random_invertible(E3, rng).matrix]))
    for t in made:
        with pytest.raises(ValueError, match="read-only"):
            t.matrix[0, 0] = 1.0
    assert sorted(_SHIFTS) == list(range(2, 9))  # every dim a metric can have
    for n, shift in _SHIFTS.items():
        with pytest.raises(ValueError, match="read-only"):
            shift[0, 0] = 1.0
        assert shift.tobytes() == (np.eye(n) - 0.5).tobytes()


# -- adjoint ---------------------------------------------------------------------


def test_adjoint_examples():
    assert np.allclose(Extensor.identity(E3).adjoint().matrix, np.eye(3))
    e1, e2 = basis_vectors(E2)
    h = Extensor.from_vector_images(E2, [e2, Multivector.zero(E2)])
    adj = h.adjoint()
    assert max_abs_diff(adj(e2), e1) == 0.0
    assert adj(e1).norm_inf() == 0.0
    # Euclidean orthonormal basis: adjoint is the matrix transpose
    rng = np.random.default_rng(1)
    t = Extensor.random(E3, rng)
    assert np.allclose(t.adjoint().matrix, t.matrix.T)


@pytest.mark.parametrize(
    "metric,p,q",
    [(E3, 1, 1), (E3, 1, 2), (Metric(3, (2.0, 1.0, -1.0)), 2, 1), (Metric(4, (1.0, -1.0, 1.0, 1.0)), 2, 3)],
)
def test_adjoint_defining_property_random(metric, p, q):
    rng = np.random.default_rng(2)
    t = Extensor.random(metric, rng, p, q)
    for _ in range(8):
        x = random_multivector(metric, p, rng)
        y = random_multivector(metric, q, rng)
        assert abs(scalar_value(t.adjoint()(y), x) - scalar_value(y, t(x))) < 1e-10


def test_adjoint_is_involutive():
    rng = np.random.default_rng(3)
    t = Extensor.random(Metric(3, (2.0, -1.0, 1.0)), rng, 1, 2)
    assert np.allclose(t.adjoint().adjoint().matrix, t.matrix)


# -- outermorphism ------------------------------------------------------------------


def _layouts(metric, grade, rng):
    """(values, tangents) of grade-`grade` rows in every operand layout:
    unstacked, with and without a 2-row tangent block; point batches of 4 and
    of one; trial stacks of 3 with P = 1, with and without 2-row tangent
    blocks; and a trial stack of 3 batches of 4."""

    def rows(*shape):
        count = int(np.prod(shape))
        flat = np.array([random_multivector(metric, grade, rng).values() for _ in range(count)])
        return flat.reshape(shape + (metric.size,))

    return [(rows(), None), (rows(), rows(2)), (rows(4), None), (rows(1), None),
            (rows(3, 1), None), (rows(3, 1), rows(3, 2)), (rows(3, 4), None)]


def _assert_rows_in_layout(apply, singles, stacked, metric, grade, rng, atol):
    """apply(f, x) for x in every operand layout: one map, singles[0], keeps
    x's layout, and `stacked`, the trial stack of the maps `singles`, makes
    a trial stack of them, an unstacked x's rows in every trial.  Each value
    and tangent row is its map's image of that row alone."""
    for values, tangents in _layouts(metric, grade, rng):
        x = Multivector._raw(metric, values, tangents)
        for f, trials in ((singles[0], 0), (stacked, len(singles))):
            got = apply(f, x)
            for rows, out in ((values, got._values), (tangents, got._tangents)):
                if rows is None:
                    assert out is None
                    continue
                shape = (trials,) + _as_stack(rows).shape[1:] if trials else rows.shape
                assert out.shape == shape, (values.shape, trials)
                rows = _as_stack(rows)
                out = out.reshape((max(trials, len(rows)),) + rows.shape[1:])
                for r, k in np.ndindex(out.shape[:2]):
                    one = apply(singles[r] if trials else f, Multivector(metric, rows[r % len(rows), k]))
                    assert np.allclose(out[r, k], one.values(), rtol=0.0, atol=atol), (r, k)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (0, 3)])
def test_apply_maps_a_batch_row_by_row(p, q):
    rng = np.random.default_rng(30 + p + q)
    maps = [Extensor.random(E3, rng, p, q) for _ in range(3)]
    stacked = Extensor(E3, [t.matrix for t in maps], p, q)
    _assert_rows_in_layout(Extensor.apply, maps, stacked, E3, p, rng, 1e-15)


def test_outermorphism_maps_a_batch_row_by_row():
    rng = np.random.default_rng(34)
    metric = Metric(4, (2.0, 1.0, -1.0, 1.0))
    bases = [Extensor.random(metric, rng) for _ in range(3)]
    oms = [Outermorphism(h) for h in bases]
    stacked = Outermorphism(Extensor(metric, [h.matrix for h in bases]))
    _assert_rows_in_layout(Outermorphism.apply, oms, stacked, metric, 2, rng, 1e-14)


def test_outermorphism_examples():
    e1, e2 = basis_vectors(E2)
    h = Extensor.scaling(E2, [2.0, 3.0])
    om = Outermorphism(h)
    assert max_abs_diff(om(e1 ^ e2), 6.0 * (e1 ^ e2)) == 0.0
    assert max_abs_diff(om(Multivector.from_scalar(E2, 5.0)), Multivector.from_scalar(E2, 5.0)) == 0.0
    ident = Extensor.identity(E3)
    x = random_multivector(E3, 2, 4)
    assert max_abs_diff(Outermorphism(ident)(x), x) == 0.0


def test_outermorphism_agrees_with_base_on_vectors():
    rng = np.random.default_rng(5)
    h = Extensor.random(E3, rng)
    x = random_multivector(E3, 1, rng)
    assert max_abs_diff(Outermorphism(h)(x), h(x)) < 1e-15


@pytest.mark.parametrize("metric", [E3, Metric(4, (2.0, 1.0, -1.0, 1.0))])
def test_outermorphism_multiplicativity(metric):
    rng = np.random.default_rng(6)
    h = Extensor.random(metric, rng)
    om = Outermorphism(h)
    for _ in range(8):
        r = int(rng.integers(0, metric.dim))
        x = random_multivector(metric, r, rng)
        y = random_multivector(metric, 1, rng)
        assert max_abs_diff(om(x.wedge(y)), om(x).wedge(om(y))) < 1e-10


def wedge_loop_extension(h, x):
    """sum_J c_J * wedge_all(h(e_j) for j in J): the outermorphism as a loop
    of wedges over the generator images, for an unbatched float x."""
    metric = h.metric
    images = [h(e) for e in basis_vectors(metric)]
    total = Multivector.zero(metric)
    for mask, c in x.nonzero_items():
        factors = [images[k] for k in range(metric.dim) if mask >> k & 1]
        total = total + c * wedge_all(metric, factors)
    return total.values()


@pytest.mark.parametrize("n", range(2, 9))
def test_outermorphism_matches_wedge_loop_reference(n):
    # every grade, a tangent block of two rows and a batch of three rows
    metric = signed_metric(n)
    rng = np.random.default_rng(40 + n)
    h = Extensor.random(metric, rng)
    om = Outermorphism(h)

    def close(got, x):
        ref = wedge_loop_extension(h, x)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    for k in range(n + 1):
        x, d1, d2, *rows = (random_multivector(metric, k, rng) for _ in range(6))
        image = om(x.with_tangents([d1, d2]))
        assert image.is_homogeneous(k)
        close(image.values(), x)
        close(image.tangent_part(0).values(), d1)
        close(image.tangent_part(1).values(), d2)
        batch = om(Multivector(metric, np.stack([r.values() for r in rows])))
        for got, r in zip(batch.values(), rows):
            close(got, r)


@pytest.mark.parametrize("n", range(2, 9))
def test_outermorphism_applies_the_compound_directly(n):
    # bit for bit what an Extensor of the compound gives, without building one
    metric = signed_metric(n)
    rng = np.random.default_rng(90 + n)
    h = Extensor.random(metric, rng)
    om = Outermorphism(h)
    for k in range(n + 1):
        x, d = random_multivector(metric, k, rng), random_multivector(metric, k, rng)
        batch = Multivector(metric, np.stack([x.values(), d.values()]))
        reference = Extensor(metric, _compound(h.matrix, k), k, k)
        for arg in (x, x.with_tangents([d, x]), batch):
            got, ref = om(arg), reference.apply(arg)
            assert np.array_equal(got._values, ref._values), k
            assert (got._tangents is None) == (ref._tangents is None)
            if ref._tangents is not None:
                assert np.array_equal(got._tangents, ref._tangents), k
    zero = Multivector.zero(metric)
    image, ref = om(zero), Extensor(metric, _compound(h.matrix, 0), 0, 0)(zero)
    assert np.array_equal(image.values(), ref.values()) and image.norm_inf() == 0.0


@pytest.mark.parametrize("n", range(2, 9))
def test_outermorphism_builds_each_compound_once(monkeypatch, n):
    # the blade images of grades 1..n of one map: n - 1 Laplace steps in all
    # (the cascade's), not one cascade from grade 2 per image
    metric = signed_metric(n)
    rng = np.random.default_rng(110 + n)
    h = Extensor.random(metric, rng)
    om = Outermorphism(h)
    xs = [random_multivector(metric, k, rng) for k in range(n + 1)]
    references = [Extensor(metric, _compound(h.matrix, k), k, k)(x) for k, x in enumerate(xs)]
    steps, step = [], algebra._laplace_step
    monkeypatch.setattr(algebra, "_laplace_step",
                        lambda matrix, smaller, k: steps.append(k) or step(matrix, smaller, k))
    for k, (x, reference) in enumerate(zip(xs, references)):
        assert om(x)._values.tobytes() == reference._values.tobytes(), k
        assert om(x)._values.tobytes() == reference._values.tobytes(), k
    assert steps == list(range(2, n + 1))


def test_outermorphism_requires_homogeneous_input():
    h = Extensor.identity(E3)
    e1, e2, _ = basis_vectors(E3)
    with pytest.raises(ValueError):
        Outermorphism(h)(e1 + (e1 ^ e2))
    with pytest.raises(ValueError):
        Outermorphism(Extensor.random(E3, 7, 1, 2))


# -- trace and bivector ------------------------------------------------------------


@pytest.mark.parametrize("what", ["trace", "det", "bivector", "inverse", "to_components"])
def test_vector_map_operations_reject_other_grades(what):
    args = (Frame.orthonormal(E3),) if what == "to_components" else ()
    with pytest.raises(ValueError, match=re.escape(f"{what} is defined for (1,1) maps only")):
        getattr(Extensor.random(E3, 7, 1, 2), what)(*args)


def test_trace_examples():
    assert Extensor.identity(E3).trace() == pytest.approx(3.0)
    assert Extensor.scaling(E2, [2.0, 3.0]).trace() == pytest.approx(5.0)
    assert Extensor.zero(E2).trace() == 0.0


def test_bivector_examples():
    e1, e2 = basis_vectors(E2)
    assert Extensor.identity(E2).bivector().norm_inf() == 0.0
    h = Extensor.from_vector_images(E2, [e2, Multivector.zero(E2)])
    assert max_abs_diff(h.bivector(), -1.0 * (e1 ^ e2)) == 0.0
    assert Extensor.scaling(E3, [2.0, 5.0, -1.0]).bivector().norm_inf() == 0.0


def test_bivector_of_symmetric_map_vanishes():
    rng = np.random.default_rng(8)
    m = rng.uniform(-1, 1, (3, 3))
    sym = Extensor(E3, m + m.T)
    assert sym.bivector().norm_inf() < 1e-14


def frame_sums(t, frame):
    """sum_j t(f^j) . f_j and sum_j t(f^j) ^ f_j: the trace and the bivector
    by their definitions, as loops over a frame."""
    pairs = list(zip(frame.vectors, frame.reciprocal))
    trace = sum(scalar_value(t(r), v) for v, r in pairs)
    bivector = Multivector.zero(t.metric)
    for v, r in pairs:
        bivector = bivector + t(r).wedge(v)
    return trace, bivector


@pytest.mark.parametrize("metric", [E3, Metric(3, (2.0, 1.0, -1.0))])
def test_trace_and_bivector_are_frame_independent(metric):
    rng = np.random.default_rng(9)
    t = Extensor.random(metric, rng)
    ref_trace, ref_bivector = frame_sums(t, random_frame(metric, rng))
    assert abs(t.trace() - ref_trace) < 1e-9
    assert max_abs_diff(t.bivector(), ref_bivector) < 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_trace_and_bivector_match_frame_sums(n):
    # the closed forms against the frame sums over orthonormal and random frames
    rng = np.random.default_rng(9 + n)
    for metric in (Metric.euclidean(n), signed_metric(n)):
        t = Extensor.random(metric, rng)
        trace, bivector = t.trace(), t.bivector()
        assert isinstance(trace, float) and bivector.is_homogeneous(2)
        for frame, bound in ((Frame.orthonormal(metric), 1e-13), (random_frame(metric, rng), 1e-9)):
            ref_trace, ref_bivector = frame_sums(t, frame)
            assert abs(trace - ref_trace) < bound
            assert max_abs_diff(bivector, ref_bivector) < bound


# -- determinant ----------------------------------------------------------------------


def test_det_examples():
    assert Extensor.identity(E3).det() == pytest.approx(1.0)
    assert Extensor.scaling(E2, [2.0, 3.0]).det() == pytest.approx(6.0)
    e1, e2, e3 = basis_vectors(E3)
    singular = Extensor.from_vector_images(E3, [e1, e2, e1 + e2])
    assert singular.det() == pytest.approx(0.0)


@pytest.mark.parametrize("metric", [E3, Metric(4, (2.0, 1.0, -1.0, 1.0))])
def test_det_matches_matrix_determinant_and_is_multiplicative(metric):
    rng = np.random.default_rng(10)
    g = Extensor.random_invertible(metric, rng)
    h = Extensor.random_invertible(metric, rng)
    assert g.det() == pytest.approx(np.linalg.det(g.matrix), rel=1e-12)
    assert (g @ h).det() == pytest.approx(g.det() * h.det(), rel=1e-9)
    assert g.adjoint().det() == pytest.approx(g.det(), abs=1e-10)


def test_det_is_pseudoscalar_independent():
    # rescaling the pseudoscalar rescales its image by the same factor
    rng = np.random.default_rng(11)
    for metric in [E3] + [signed_metric(n) for n in range(2, 9)]:
        h = Extensor.random_invertible(metric, rng)
        om = Outermorphism(h)
        pss = unit_pseudoscalar(metric)
        for lam in (1.0, -2.5, 0.3):
            image = om(lam * pss)
            top = image.values()[-1]
            assert top / lam == pytest.approx(h.det(), rel=1e-12)


# -- inverse ------------------------------------------------------------------------


def test_inverse_examples():
    assert np.allclose(Extensor.identity(E3).inverse().matrix, np.eye(3))
    hinv = Extensor.scaling(E2, [2.0, 3.0]).inverse()
    assert np.allclose(hinv.matrix, np.diag([0.5, 1.0 / 3.0]))
    e1, e2 = basis_vectors(E2)
    swap = Extensor.from_vector_images(E2, [e2, e1])
    assert np.allclose(swap.inverse().matrix, swap.matrix)


def pseudoscalar_formula_inverse(h):
    """det^-1 * adjoint_extension(e_k I) I^-1 for each generator e_k, as a matrix."""
    metric = h.metric
    pss = unit_pseudoscalar(metric)
    pss_inv = pss.reverse() / scalar_value(pss, pss)
    adj_ext = Outermorphism(h.adjoint())
    images = [adj_ext(e.geometric(pss)).geometric(pss_inv) / h.det() for e in basis_vectors(metric)]
    return Extensor.from_vector_images(metric, images).matrix


@pytest.mark.parametrize(
    "metric", [Metric.euclidean(n) for n in range(2, 9)] + [signed_metric(n) for n in range(2, 9)]
)
def test_inverse_formula_agrees_with_matrix_inverse(metric):
    rng = np.random.default_rng(12)
    eye = np.eye(metric.dim)
    for _ in range(4):
        h = Extensor.random_invertible(metric, rng)
        hinv = h.inverse()
        formula = pseudoscalar_formula_inverse(h)
        assert np.linalg.norm(formula - hinv.matrix, 2) <= 1e-12 * np.linalg.norm(hinv.matrix, 2)
        assert np.allclose((h @ hinv).matrix, eye, atol=1e-9)
        assert np.allclose((hinv @ h).matrix, eye, atol=1e-9)


def test_adjoint_and_inverse_commute():
    rng = np.random.default_rng(13)
    h = Extensor.random_invertible(E3, rng)
    a = h.adjoint().inverse()
    b = h.inverse().adjoint()
    assert np.allclose(a.matrix, b.matrix, atol=1e-9)


def test_singular_map_raises():
    e1, e2, _ = basis_vectors(E3)
    singular = Extensor.from_vector_images(E3, [e1, e2, e1 + e2])
    with pytest.raises(SingularExtensorError):
        singular.inverse()
    with pytest.raises(SingularExtensorError):
        Extensor.zero(E3).inverse()


def test_a_non_finite_map_is_singular():
    # a NaN or inf entry reached the SVD, which raised LinAlgError, not a ValueError
    for bad in (np.nan, np.inf):
        matrix = np.eye(3)
        matrix[0, 1] = bad
        for h in (Extensor(E3, matrix), Extensor(E3, [np.eye(3), matrix])):
            with pytest.raises(SingularExtensorError, match="NaN or inf"):
                h.inverse()


def test_ill_conditioned_map_inverts():
    # condition number 1e6 at n = 5 puts |det| near 1e-15, which a guard on
    # the size of the determinant took for singularity
    metric = Metric.euclidean(5)
    rng = np.random.default_rng(29)
    grading = np.diag(np.logspace(0, -6, 5))
    graded = grading @ (np.eye(5) + 0.3 * rng.uniform(-1.0, 1.0, (5, 5)))
    for matrix in (grading, graded):
        assert 1e5 < np.linalg.cond(matrix) < 1e7
        h = Extensor(metric, matrix)
        hinv = h.inverse()
        assert np.allclose((h @ hinv).matrix, np.eye(5), atol=1e-9)
        assert np.allclose((hinv @ h).matrix, np.eye(5), atol=1e-9)
    # rotated maps U diag(logspace) V^T: the pseudoscalar formula's error grows
    # like cond^2 on these; a matrix inverse leaves a residual near cond * eps
    for n, cond in ((5, 1e6), (6, 1e8), (8, 1e8)):
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        rotated = u @ np.diag(np.logspace(0, -np.log10(cond), n)) @ v.T
        h = Extensor(signed_metric(n), rotated)
        assert np.linalg.norm((h.inverse() @ h).matrix - np.eye(n), 2) <= 1e-6


# -- the conditioning guard: a Frobenius-norm certificate before any SVD ---------------


def _counting_svd(monkeypatch) -> list:
    """Record the shape of every np.linalg.svd argument."""
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _svd_frame_recip(metric, coords):
    """The reciprocals of the frame of `coords` by the SVD test alone, as
    Frame._of_coords made them before the certificate, or None when that
    test finds the frame dependent."""
    tables = algebra._tables(metric)
    shift = np.frexp(np.abs(coords).max(axis=(-2, -1), keepdims=True))[1]
    unit = np.ldexp(coords, -shift)
    gram = (unit * tables.weight[tables.blades[1]]) @ np.swapaxes(unit, -1, -2)
    sv = np.linalg.svd(gram, compute_uv=False)
    if not np.all(sv[..., -1] > 1e-12 * sv[..., 0]):
        return None
    return np.ldexp(np.linalg.inv(gram) @ unit, -shift)


def test_well_conditioned_frame_and_map_stacks_take_no_svd(monkeypatch):
    metric = signed_metric(3)
    rng = np.random.default_rng(80)
    matrices = np.stack([Extensor.random_invertible(metric, rng).matrix for _ in range(64)])
    want_recip = _svd_frame_recip(metric, matrices)
    calls = _counting_svd(monkeypatch)
    frame = Frame._of_coords(metric, matrices)
    inverse = Extensor(metric, matrices).inverse()
    assert calls == []
    assert frame.recip.tobytes() == want_recip.tobytes()
    assert inverse.matrix.tobytes() == np.linalg.inv(matrices).tobytes()


def test_a_frame_or_map_near_the_threshold_takes_the_svd_and_keeps_its_result(monkeypatch):
    # condition numbers between the certificate's bound and the threshold:
    # the Frobenius product is past 1 / (10 * threshold), the singular values
    # pass, and the reciprocals and inverse are those of the SVD route
    metric = Metric.euclidean(3)
    rng = np.random.default_rng(81)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    coords = u @ np.diag([1.0, 0.5, 1.5e-6]) @ v.T  # Gram condition near 4.4e11
    matrix = u @ np.diag([1.0, 0.5, 4e-9]) @ v.T  # condition 2.5e8
    want_recip = _svd_frame_recip(metric, coords)
    assert want_recip is not None
    calls = _counting_svd(monkeypatch)
    frame = Frame._of_coords(metric, coords)
    assert calls == [(3, 3)]
    assert frame.recip.tobytes() == want_recip.tobytes()
    stack = np.stack([np.eye(3), matrix])
    assert Extensor(metric, stack).inverse().matrix.tobytes() == np.linalg.inv(stack).tobytes()
    assert calls == [(3, 3), (2, 3, 3)]


def test_dependent_frames_and_singular_maps_keep_their_errors(monkeypatch):
    e1, e2, _ = basis_vectors(E3)
    calls = _counting_svd(monkeypatch)
    near = np.diag([1.0, 1.0, 1e-7])  # Gram condition 1e14, past the threshold
    for coords in (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]), near,
                   np.stack([np.eye(3), near])):
        with pytest.raises(DegenerateFrameError,
                           match=re.escape("frame vectors are (numerically) dependent")):
            Frame._of_coords(E3, coords)
    with pytest.raises(DegenerateFrameError, match="dependent"):
        Frame.from_vectors([e1, e2, e1 + e2])
    assert len(calls) == 4
    singular = Extensor.from_vector_images(E3, [e1, e2, e1 + e2]).matrix
    for matrix in (singular, np.zeros((3, 3)), np.diag([1.0, 1.0, 1e-10]),
                   np.stack([np.eye(3), np.diag([2.0, 1.0, 1e-10]), singular])):
        sv = np.linalg.svd(matrix, compute_uv=False).reshape(-1, 3)
        low, high = sv[np.flatnonzero(~(sv[:, -1] > 1e-9 * sv[:, 0]))[0]][[-1, 0]]
        with pytest.raises(SingularExtensorError,
                           match=re.escape(f"singular values {low:g} .. {high:g}: singular")):
            Extensor(E3, matrix).inverse()


# -- composition -----------------------------------------------------------------------


def test_compose_examples():
    rng = np.random.default_rng(14)
    t = Extensor.random(E3, rng, 1, 2)
    assert np.allclose(Extensor.identity(E3, 2).compose(t).matrix, t.matrix)
    a = Extensor.scaling(E2, [2.0, 3.0])
    b = Extensor.scaling(E2, [5.0, 7.0])
    assert np.allclose((a @ b).matrix, np.diag([10.0, 21.0]))


def test_compose_applies_outer_after_inner():
    rng = np.random.default_rng(15)
    inner = Extensor.random(E3, rng, 1, 2)
    outer = Extensor.random(E3, rng, 2, 3)
    x = random_multivector(E3, 1, rng)
    assert max_abs_diff((outer @ inner)(x), outer(inner(x))) < 1e-13


def test_compose_rejects_grade_mismatch():
    rng = np.random.default_rng(16)
    t = Extensor.random(E3, rng, 1, 2)
    with pytest.raises(ValueError):
        t.compose(t)


# -- components over a frame --------------------------------------------------------------


def test_matrix_shapes_are_checked():
    for matrix in (np.zeros((3, 2)), np.zeros((1, 1, 3, 3))):
        with pytest.raises(ValueError, match=re.escape("expected matrix shape (3, 3)")):
            Extensor(E3, matrix)
    with pytest.raises(ValueError, match=re.escape("expected shape (3, 3), got (2, 2)")):
        Extensor.from_components(E3, np.eye(2), Frame.orthonormal(E3))


def test_components_examples():
    ortho = Frame.orthonormal(E2)
    assert np.allclose(Extensor.identity(E2).to_components(ortho), np.eye(2))
    e1, e2 = basis_vectors(E2)
    h = Extensor.from_vector_images(E2, [e2, Multivector.zero(E2)])
    assert np.allclose(h.to_components(ortho), [[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("metric", [E2, E3, Metric(3, (2.0, 1.0, -1.0))])
def test_components_round_trip(metric):
    rng = np.random.default_rng(17)
    t = Extensor.random(metric, rng)
    for frame in (Frame.orthonormal(metric), random_frame(metric, rng)):
        comps = t.to_components(frame)
        back = Extensor.from_components(metric, comps, frame)
        assert np.allclose(back.matrix, t.matrix, atol=1e-10)
        assert np.allclose(back.to_components(frame), comps, atol=1e-10)


def test_from_components_rejects_a_frame_over_a_foreign_metric():
    # the reciprocal of diag(1, -1, 2)'s coordinate frame made eye(3) diag(1, -1, 0.5)
    foreign = Frame.orthonormal(Metric(3, (1.0, -1.0, 2.0)))
    with pytest.raises(ConfigurationError):
        Extensor.from_components(E3, np.eye(3), foreign)
    own = Extensor.from_components(E3, np.eye(3), Frame.orthonormal(E3))
    assert np.array_equal(own.matrix, np.eye(3))


def test_to_components_rejects_a_frame_over_a_foreign_metric():
    foreign = Frame.orthonormal(Metric(3, (1.0, -1.0, 2.0)))
    with pytest.raises(ConfigurationError):
        Extensor.identity(E3).to_components(foreign)


def test_component_entries_match_definition():
    rng = np.random.default_rng(18)
    t = Extensor.random(E3, rng)
    frame = random_frame(E3, rng)
    comps = t.to_components(frame)
    for i in range(3):
        for j in range(3):
            assert comps[i, j] == pytest.approx(
                scalar_value(t(frame.vectors[i]), frame.vectors[j]), abs=1e-12
            )


# -- serialization ---------------------------------------------------------------------------


def test_dict_round_trip():
    rng = np.random.default_rng(19)
    t = Extensor.random(Metric(3, (2.0, 1.0, -1.0)), rng, 1, 2)
    payload = t.to_dict()
    assert payload["n"] == 3 and payload["p"] == 1 and payload["q"] == 2
    assert payload["metric"] == [2.0, 1.0, -1.0]
    assert len(payload["matrix"]) == 3 * 3  # C(3,2) x C(3,1), row-major
    back = Extensor.from_dict(payload)
    assert back.metric == t.metric and back.p == t.p and back.q == t.q
    assert np.allclose(back.matrix, t.matrix)


@pytest.mark.parametrize("key", ["n", "p", "q", "metric", "matrix"])
def test_a_record_without_a_key_names_it(key):
    # a witness reloads through from_dict; a record that lost a key is a
    # ValueError naming it, not a bare KeyError
    payload = Extensor.identity(E3).to_dict()
    del payload[key]
    with pytest.raises(ValueError, match=f"map record lacks {key}$"):
        Extensor.from_dict(payload)


@pytest.mark.parametrize("p, q", [(5, 1), (1, 4)])
def test_a_record_with_a_grade_out_of_range_names_it(p, q):
    # grade 5 at n = 3 failed in numpy: "cannot reshape array of size 2 into shape (3,0)"
    payload = {"n": 3, "p": p, "q": q, "metric": [1, 1, 1], "matrix": [1, 2]}
    with pytest.raises(ValueError, match=f"grade {max(p, q)} out of range for dim 3"):
        Extensor.from_dict(payload)


@pytest.mark.parametrize("entry", ["a", None, [1.0]], ids=["string", "none", "list"])
def test_a_record_with_a_bad_metric_entry_is_a_configuration_error(entry):
    # Metric's bare float(entry) raised a TypeError or ValueError naming no metric
    payload = Extensor.identity(E3).to_dict()
    payload["metric"] = [1.0, entry, 1.0]
    with pytest.raises(ConfigurationError, match="metric entries for dim 3 must be real numbers"):
        Extensor.from_dict(payload)


@pytest.mark.parametrize("metric", [5, "111"], ids=["not-iterable", "string"])
def test_a_record_whose_metric_is_no_list_is_a_configuration_error(metric):
    # tuple(5) raised a bare "'int' object is not iterable" here
    payload = dict(Extensor.identity(E3).to_dict(), metric=metric)
    with pytest.raises(ConfigurationError, match="metric entries for dim 3 must be real numbers"):
        Extensor.from_dict(payload)


def test_matrices_are_read_only():
    t = Extensor.identity(E3)
    with pytest.raises(ValueError):
        t.matrix[0, 0] = 5.0
    for value, name in ((t, "matrix"), (Outermorphism(t), "base"),
                        (basis_vectors(E3)[0], "metric")):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)


def test_from_vector_images_needs_one_image_per_generator():
    # no images failed inside numpy ("need at least one array to stack"), and
    # n - 1 images with a message about the matrix shape
    e1, e2, _ = basis_vectors(E3)
    for images in ([], [e1, e2]):
        with pytest.raises(ValueError, match=f"expected 3 images, one per generator, got "
                                             f"{len(images)}"):
            Extensor.from_vector_images(E3, images)
