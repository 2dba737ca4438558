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
)
from extcalc.errors import ConfigurationError, SingularExtensorError
from extcalc.extensor import Extensor, Outermorphism

E2 = Metric.euclidean(2)
E3 = Metric.euclidean(3)


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


def test_apply_validates_grade_and_metric():
    e1, e2, _ = basis_vectors(E3)
    t = Extensor.identity(E3)
    with pytest.raises(ValueError):
        t(e1 ^ e2)
    with pytest.raises(ConfigurationError):
        t(basis_vectors(E2)[0])


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


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (0, 3)])
def test_apply_maps_a_batch_row_by_row(p, q):
    rng = np.random.default_rng(30 + p + q)
    t = Extensor.random(E3, rng, p, q)
    rows = [random_multivector(E3, p, rng) for _ in range(4)]
    batch = t(Multivector(E3, np.stack([x.values() for x in rows])))
    for r, x in enumerate(rows):
        assert np.allclose(batch.values()[r], t(x).values(), rtol=0.0, atol=1e-15)


def test_outermorphism_maps_a_batch_row_by_row():
    rng = np.random.default_rng(34)
    metric = Metric(4, (2.0, 1.0, -1.0, 1.0))
    om = Outermorphism(Extensor.random(metric, rng))
    rows = [random_multivector(metric, 2, rng) for _ in range(3)]
    batch = om(Multivector(metric, np.stack([x.values() for x in rows])))
    for r, x in enumerate(rows):
        assert np.allclose(batch.values()[r], om(x).values(), rtol=0.0, atol=1e-14)


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


def test_outermorphism_requires_homogeneous_input():
    h = Extensor.identity(E3)
    e1, e2, _ = basis_vectors(E3)
    with pytest.raises(ValueError):
        Outermorphism(h)(e1 + (e1 ^ e2))
    with pytest.raises(ValueError):
        Outermorphism(Extensor.random(E3, 7, 1, 2))


# -- trace and bivector ------------------------------------------------------------


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


@pytest.mark.parametrize("metric", [E3, Metric(3, (2.0, 1.0, -1.0))])
def test_trace_and_bivector_are_frame_independent(metric):
    rng = np.random.default_rng(9)
    t = Extensor.random(metric, rng)
    frame = random_frame(metric, rng)
    assert abs(t.trace() - t.trace(frame)) < 1e-9
    assert max_abs_diff(t.bivector(), t.bivector(frame)) < 1e-9


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
    h = Extensor.random_invertible(E3, rng)
    om = Outermorphism(h)
    pss = unit_pseudoscalar(E3)
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


@pytest.mark.parametrize("metric", [E3, Metric(3, (2.0, 1.0, -1.0)), Metric(4, (1.0, -1.0, 1.0, 1.0))])
def test_inverse_formula_agrees_with_matrix_inverse(metric):
    rng = np.random.default_rng(12)
    for _ in range(4):
        h = Extensor.random_invertible(metric, rng)
        hinv = h.inverse()
        assert np.allclose(hinv.matrix, np.linalg.inv(h.matrix), atol=1e-9)
        assert np.allclose((h @ hinv).matrix, np.eye(metric.dim), atol=1e-9)
        assert np.allclose((hinv @ h).matrix, np.eye(metric.dim), atol=1e-9)


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


def test_matrices_are_read_only():
    t = Extensor.identity(E3)
    with pytest.raises(ValueError):
        t.matrix[0, 0] = 5.0
