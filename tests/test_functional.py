import numpy as np
import pytest

from extcalc.algebra import (
    PRODUCT_KINDS,
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
from extcalc.calculus import DEFAULT_FD_STEP, MvFunction, grad_star
from extcalc.catalog import (
    adjoint_image_functional,
    apply_functional,
    bivector_functional,
    blade_image_functional,
    det_functional,
    pair_product_functional,
    pseudoscalar_image_functional,
    trace_functional,
)
from extcalc.dual import exp, value_of
from extcalc.extensor import Extensor, Outermorphism
from extcalc.functional import (
    InducedFunctional,
    component_partials,
    component_partials_fd,
    directional_from_partials,
    star_from_partials,
)

E2 = Metric.euclidean(2)
E3 = Metric.euclidean(3)


def scalar_mv(metric, s):
    return Multivector.from_scalar(metric, s)


def dot_functional(anchor, c):
    return InducedFunctional(
        MvFunction(1, 1, 0, lambda x: x.scalar_product(c)), (anchor,), 1
    )


def random_frame(metric, rng):
    carrier = Extensor.random_invertible(metric, rng)
    return Frame.from_vectors([carrier(e) for e in basis_vectors(metric)])


# -- evaluation ---------------------------------------------------------------


def test_evaluate_identity_instantiation():
    e1, e2, _ = basis_vectors(E3)
    b, c = e1 + 2.0 * e2, e2
    phi = dot_functional(b, c)
    out = phi.evaluate(Extensor.identity(E3))
    assert max_abs_diff(out, scalar_mv(E3, scalar_value(b, c))) == 0.0


def test_evaluate_wedge_pair_through_map():
    rng = np.random.default_rng(0)
    h = Extensor.random(E3, rng)
    b = random_multivector(E3, 1, rng)
    c = random_multivector(E3, 1, rng)
    phi = pair_product_functional("wedge", b, c)
    assert max_abs_diff(phi.evaluate(h), h(b).wedge(h(c))) < 1e-15


def test_evaluate_zero_map_on_multilinear_function():
    b, c = basis_vectors(E2)
    phi = pair_product_functional("scalar", b, c)
    assert phi.evaluate(Extensor.zero(E2)).norm_inf() == 0.0


def test_evaluate_validates_signature():
    rng = np.random.default_rng(1)
    phi = dot_functional(random_multivector(E3, 1, rng), random_multivector(E3, 1, rng))
    with pytest.raises(ValueError):
        phi.evaluate(Extensor.random(E3, rng, 1, 2))
    with pytest.raises(ValueError):
        phi.evaluate(Extensor.identity(E2))


def test_anchor_validation():
    e1, e2, _ = basis_vectors(E3)
    with pytest.raises(ValueError):
        InducedFunctional(MvFunction(1, 1, 0, lambda x: x), (e1 ^ e2,), 1)
    with pytest.raises(ValueError):
        InducedFunctional(MvFunction(2, 1, 0, lambda x, y: x), (e1,), 1)


# -- directional derivative: worked instances ----------------------------------


def test_dot_pair_directional_unit_instance():
    # anchors b = e1, c = e2; at the identity with a = e1 the value is e2
    e1, e2, _ = basis_vectors(E3)
    phi = pair_product_functional("scalar", e1, e2)
    out = phi.directional_derivative(Extensor.identity(E3), e1)
    assert max_abs_diff(out, e2) < 1e-14


def test_vector_image_directional_is_dim_times_dot():
    rng = np.random.default_rng(2)
    for metric in (E2, E3, Metric(3, (2.0, 1.0, -1.0))):
        h = Extensor.random_invertible(metric, rng)
        a = random_multivector(metric, 1, rng)
        b = random_multivector(metric, 1, rng)
        out = apply_functional(b).directional_derivative(h, a)
        assert max_abs_diff(out, scalar_mv(metric, metric.dim * scalar_value(a, b))) < 1e-13


def test_adjoint_image_directional_is_geometric_product():
    rng = np.random.default_rng(3)
    h = Extensor.random_invertible(E3, rng)
    a = random_multivector(E3, 1, rng)
    b = random_multivector(E3, 1, rng)
    out = adjoint_image_functional(b).directional_derivative(h, a)
    # full multivector: scalar plus bivector parts of b a
    assert max_abs_diff(out, b.geometric(a)) < 1e-13


def test_trace_and_bivector_directionals():
    rng = np.random.default_rng(4)
    t = Extensor.random(E3, rng)
    a = random_multivector(E3, 1, rng)
    assert max_abs_diff(trace_functional(E3).directional_derivative(t, a), a) < 1e-14
    assert max_abs_diff(
        bivector_functional(E3).directional_derivative(t, a), 2.0 * a
    ) < 1e-14


def test_det_directional_at_identity_is_direction():
    # det gradient at the identity: det = 1 and star(a) = a
    a = random_multivector(E3, 1, 5)
    out = det_functional(E3).directional_derivative(Extensor.identity(E3), a)
    assert max_abs_diff(out, a) < 1e-13


def test_pseudoscalar_image_directional_shorthand():
    # the contracted form h(a _| I) with the grade extension of h
    rng = np.random.default_rng(6)
    h = Extensor.random_invertible(E3, rng)
    a = random_multivector(E3, 1, rng)
    pss = -1.3 * unit_pseudoscalar(E3)
    out = pseudoscalar_image_functional(pss).directional_derivative(h, a)
    assert max_abs_diff(out, Outermorphism(h)(a.lcontract(pss))) < 1e-13


def test_blade_image_directional_all_orders():
    rng = np.random.default_rng(7)
    n = E3.dim
    h = Extensor.random_invertible(E3, rng)
    a = random_multivector(E3, 1, rng)
    om = Outermorphism(h)
    for k in range(1, n + 1):
        vectors = [random_multivector(E3, 1, rng) for _ in range(k)]
        phi = blade_image_functional(vectors)
        rhs = (n - k + 1) * om(a.lcontract(wedge_all(E3, vectors)))
        assert max_abs_diff(phi.directional_derivative(h, a), rhs) < 1e-13


def test_repeated_anchors_are_allowed():
    # the slot sum runs over variables, not distinct anchor values
    rng = np.random.default_rng(22)
    h = Extensor.random_invertible(E3, rng)
    a = random_multivector(E3, 1, rng)
    b = random_multivector(E3, 1, rng)
    phi = pair_product_functional("scalar", b, b)
    out = phi.directional_derivative(h, a)
    assert max_abs_diff(out, 2.0 * scalar_value(a, b) * h(b)) < 1e-13
    # the wedge pair with equal arguments is identically zero
    wedge = pair_product_functional("wedge", b, b)
    assert wedge.directional_derivative(h, a).norm_inf() < 1e-14


def test_zero_direction_short_circuits():
    calls = []
    func = MvFunction(1, 1, 0, lambda x: calls.append(1) or x.scalar_product(x))
    phi = InducedFunctional(func, (basis_vectors(E3)[0],), 1)
    out = phi.directional_derivative(Extensor.identity(E3), Multivector.zero(E3))
    assert out.norm_inf() == 0.0
    assert not calls  # linearity forces zero without evaluating


def test_directional_derivative_validates_direction_grade():
    e1, e2, _ = basis_vectors(E3)
    phi = dot_functional(e1, e2)
    with pytest.raises(ValueError):
        phi.directional_derivative(Extensor.identity(E3), e1 ^ e2)


# -- star derivatives: worked instances ---------------------------------------------


def test_vector_image_star_table():
    rng = np.random.default_rng(8)
    for metric in (E2, E3):
        n = metric.dim
        h = Extensor.random_invertible(metric, rng)
        b = random_multivector(metric, 1, rng)
        table = apply_functional(b).derivative_table(h, PRODUCT_KINDS)
        assert max_abs_diff(table["wedge"], n * b) < 1e-13
        assert max_abs_diff(table["geometric"], n * b) < 1e-13
        assert table["scalar"].norm_inf() < 1e-13
        assert table["lcontract"].norm_inf() < 1e-13


def test_adjoint_image_star_table_with_sign_sensitive_dim_two():
    rng = np.random.default_rng(9)
    for metric in (E2, E3, Metric.euclidean(4)):
        n = metric.dim
        h = Extensor.random_invertible(metric, rng)
        b = random_multivector(metric, 1, rng)
        table = adjoint_image_functional(b).derivative_table(h, PRODUCT_KINDS)
        assert max_abs_diff(table["wedge"], b) < 1e-13
        assert table["scalar"].norm_inf() < 1e-13
        assert max_abs_diff(table["lcontract"], (1 - n) * b) < 1e-13
        # at n = 2 the gradient is exactly zero
        assert max_abs_diff(table["geometric"], (2 - n) * b) < 1e-13


def test_trace_star_table():
    rng = np.random.default_rng(10)
    t = Extensor.random(E3, rng)
    table = trace_functional(E3).derivative_table(t, PRODUCT_KINDS)
    assert table["wedge"].norm_inf() < 1e-14
    for kind in ("scalar", "lcontract", "geometric"):
        assert max_abs_diff(table[kind], scalar_mv(E3, 3.0)) < 1e-14


def test_bivector_star_table():
    rng = np.random.default_rng(11)
    t = Extensor.random(E3, rng)
    table = bivector_functional(E3).derivative_table(t, PRODUCT_KINDS)
    assert table["wedge"].norm_inf() < 1e-14
    for kind in ("scalar", "lcontract", "geometric"):
        assert max_abs_diff(table[kind], scalar_mv(E3, 6.0)) < 1e-14


def test_det_star_table():
    rng = np.random.default_rng(12)
    h = Extensor.random_invertible(E3, rng)
    hinv = h.inverse()
    d = h.det()
    table = det_functional(E3).derivative_table(h, PRODUCT_KINDS)
    assert max_abs_diff(table["wedge"], d * hinv.bivector()) < 1e-12
    assert max_abs_diff(table["scalar"], scalar_mv(E3, d * hinv.trace())) < 1e-12
    assert max_abs_diff(table["lcontract"], scalar_mv(E3, d * hinv.trace())) < 1e-12
    assert max_abs_diff(
        table["geometric"], scalar_mv(E3, d * hinv.trace()) + d * hinv.bivector()
    ) < 1e-12


def test_star_intrinsic_equals_frame_sum():
    rng = np.random.default_rng(13)
    h = Extensor.random_invertible(E3, rng)
    b = random_multivector(E3, 1, rng)
    phi = adjoint_image_functional(b)
    ortho = Frame.orthonormal(E3)
    skew = random_frame(E3, rng)
    for kind in PRODUCT_KINDS:
        intrinsic = phi.derivative(h, kind)
        assert max_abs_diff(intrinsic, phi.derivative_via_frame(h, kind, ortho)) < 1e-12
        assert max_abs_diff(intrinsic, phi.derivative_via_frame(h, kind, skew)) < 1e-12


def test_functional_realizations_are_frame_independent():
    # trace / bivector / adjoint / det expanded over a random frame still
    # satisfy the closed forms
    rng = np.random.default_rng(14)
    h = Extensor.random_invertible(E3, rng)
    a = random_multivector(E3, 1, rng)
    b = random_multivector(E3, 1, rng)
    frame = random_frame(E3, rng)
    assert max_abs_diff(trace_functional(E3, frame).directional_derivative(h, a), a) < 1e-12
    assert max_abs_diff(
        adjoint_image_functional(b, frame).directional_derivative(h, a), b.geometric(a)
    ) < 1e-12
    assert value_of(
        det_functional(E3, frame).evaluate(h).scalar_part()
    ) == pytest.approx(h.det(), rel=1e-10)


# -- combinators ------------------------------------------------------------------------


def test_scaled_and_plus_and_times_constant():
    rng = np.random.default_rng(15)
    c = random_multivector(E3, 1, rng)
    anchor = random_multivector(E3, 1, rng)
    t = Extensor.random(E3, rng)
    a = random_multivector(E3, 1, rng)
    phi = dot_functional(anchor, c)
    psi = InducedFunctional(MvFunction(1, 1, 0, lambda x: x.scalar_product(x)), (anchor,), 1)
    assert max_abs_diff(
        phi.scaled(2.5).directional_derivative(t, a),
        2.5 * phi.directional_derivative(t, a),
    ) < 1e-14
    assert max_abs_diff(
        (phi + psi).directional_derivative(t, a),
        phi.directional_derivative(t, a) + psi.directional_derivative(t, a),
    ) < 1e-14
    m = random_multivector(E3, 2, rng) + random_multivector(E3, 0, rng)
    assert max_abs_diff(
        phi.times_constant(m).directional_derivative(t, a),
        phi.directional_derivative(t, a).geometric(m),
    ) < 1e-14


def test_plus_requires_shared_anchors():
    rng = np.random.default_rng(16)
    a1 = random_multivector(E3, 1, rng)
    a2 = random_multivector(E3, 1, rng)
    c = random_multivector(E3, 1, rng)
    with pytest.raises(ValueError):
        dot_functional(a1, c) + dot_functional(a2, c)


def test_leibniz_through_times_functional():
    rng = np.random.default_rng(17)
    anchor = random_multivector(E3, 1, rng)
    c = random_multivector(E3, 1, rng)
    phi = dot_functional(anchor, c)
    g = InducedFunctional(MvFunction(1, 1, 1, lambda x: x), (anchor,), 1)
    t = Extensor.random(E3, rng)
    a = random_multivector(E3, 1, rng)
    lhs = phi.times_functional(g).directional_derivative(t, a)
    rhs = phi.directional_derivative(t, a).geometric(g.evaluate(t)) + value_of(
        phi.evaluate(t).scalar_part()
    ) * g.directional_derivative(t, a)
    assert max_abs_diff(lhs, rhs) < 1e-12


def test_chain_rule_through_map_scalar():
    rng = np.random.default_rng(18)
    anchor = random_multivector(E3, 1, rng)
    c = random_multivector(E3, 1, rng)
    phi = dot_functional(anchor, c)
    t = Extensor.random(E3, rng)
    a = random_multivector(E3, 1, rng)
    lhs = phi.map_scalar(exp).directional_derivative(t, a)
    rhs = float(np.exp(value_of(phi.evaluate(t).scalar_part()))) * phi.directional_derivative(t, a)
    assert max_abs_diff(lhs, rhs) < 1e-12


def test_float_offsets_compose_on_both_routes():
    rng = np.random.default_rng(23)
    anchor = random_multivector(E3, 1, rng)
    phi = dot_functional(anchor, random_multivector(E3, 1, rng))
    t = Extensor.random(E3, rng)
    a = random_multivector(E3, 1, rng)
    offset = phi.map_scalar(lambda s: (1.0 + s) * (3.0 - s) - 0.5)  # derivative 2 - 2s
    v = value_of(phi.evaluate(t).scalar_part())
    rhs = (2.0 - 2.0 * v) * phi.directional_derivative(t, a)
    assert max_abs_diff(offset.directional_derivative(t, a), rhs) < 1e-12
    fd = offset.directional_derivative(t, a, step=DEFAULT_FD_STEP)
    assert max_abs_diff(fd, rhs) < 1e-6


# -- finite-difference routes ---------------------------------------------------------------


def test_fd_routes_agree_with_exact():
    rng = np.random.default_rng(19)
    h = Extensor.random_invertible(E3, rng)
    a = random_multivector(E3, 1, rng)
    phi = det_functional(E3)
    assert max_abs_diff(
        phi.directional_derivative(h, a),
        phi.directional_derivative(h, a, step=DEFAULT_FD_STEP),
    ) < 1e-6
    for kind in PRODUCT_KINDS:
        assert max_abs_diff(
            phi.derivative(h, kind), phi.derivative(h, kind, step=DEFAULT_FD_STEP)
        ) < 1e-6


def test_fd_routes_never_seed_tangents(monkeypatch):
    # the finite-difference reference must not share the exact machinery
    rng = np.random.default_rng(20)
    h = Extensor.random_invertible(E3, rng)
    a = random_multivector(E3, 1, rng)
    x = random_multivector(E3, 1, rng)
    c = random_multivector(E3, 1, rng)
    func = MvFunction(1, 1, 0, lambda v: v.scalar_product(c).geometric(v.scalar_product(v)))
    phi = det_functional(E3)
    exact_grad = grad_star(func, (x,), 0)
    exact_dir = phi.directional_derivative(h, a)
    exact_table = phi.derivative_table(h, PRODUCT_KINDS)

    def forbidden(*args):
        raise AssertionError("a tangent was seeded")

    monkeypatch.setattr(Multivector, "with_tangent", forbidden)
    monkeypatch.setattr(Multivector, "with_tangents", forbidden)
    assert max_abs_diff(grad_star(func, (x,), 0, step=DEFAULT_FD_STEP), exact_grad) < 1e-6
    fd_dir = phi.directional_derivative(h, a, step=DEFAULT_FD_STEP)
    assert max_abs_diff(fd_dir, exact_dir) < 1e-6
    fd_table = phi.derivative_table(h, PRODUCT_KINDS, step=DEFAULT_FD_STEP)
    for kind in PRODUCT_KINDS:
        assert max_abs_diff(fd_table[kind], exact_table[kind]) < 1e-6
    with pytest.raises(AssertionError):
        phi.directional_derivative(h, a)  # the exact route does seed


def test_fd_directional_derivative_rejects_mixed_grade_direction():
    rng = np.random.default_rng(21)
    h = Extensor.random_invertible(E3, rng)
    mixed = random_multivector(E3, 1, rng) + Multivector.from_scalar(E3, 1.0)
    with pytest.raises(ValueError):
        det_functional(E3).directional_derivative(h, mixed, step=DEFAULT_FD_STEP)


# -- bridge to matrix components ----------------------------------------------------------------


def test_component_partials_linear_example():
    # anchor e1, constant e2: the only nonzero partial is (1, 2)
    e1, e2 = basis_vectors(E2)
    phi = dot_functional(e1, e2)
    parts = component_partials(phi, Extensor.identity(E2), Frame.orthonormal(E2))
    assert np.allclose(parts, [[0.0, 1.0], [0.0, 0.0]])


def test_component_partials_constant_functional_is_zero():
    e1, _ = basis_vectors(E2)
    const = InducedFunctional(
        MvFunction(1, 1, 0, lambda x: Multivector.from_scalar(E2, 4.0) + 0.0 * x.scalar_product(x)),
        (e1,),
        1,
    )
    parts = component_partials(const, Extensor.identity(E2), Frame.orthonormal(E2))
    assert np.allclose(parts, 0.0)


def test_component_partials_chain_example():
    # (t(e1).e1)^2 at the identity: entry (1,1) is 2
    e1, _ = basis_vectors(E2)
    phi = dot_functional(e1, e1).map_scalar(lambda s: s * s)
    parts = component_partials(phi, Extensor.identity(E2), Frame.orthonormal(E2))
    assert np.allclose(parts, [[2.0, 0.0], [0.0, 0.0]])


def test_component_partials_match_lifted_finite_differences():
    rng = np.random.default_rng(20)
    for metric in (E2, Metric(3, (2.0, 1.0, -1.0))):
        anchor = random_multivector(metric, 1, rng)
        c = random_multivector(metric, 1, rng)
        t = Extensor.random_invertible(metric, rng)
        frame = random_frame(metric, rng)
        base = dot_functional(anchor, c)
        for phi in (base, base.map_scalar(lambda s: s * s), base.map_scalar(exp)):
            exact = component_partials(phi, t, frame)
            approx = component_partials_fd(phi, t, frame)
            assert np.max(np.abs(exact - approx)) < 1e-5


def _lifted_fd_loop(phi, t, frame, step):
    """Central differences of the lifted function, one entry and one pair of
    evaluations at a time."""
    n = phi.metric.dim
    a = [scalar_value(phi.anchors[0], r) for r in frame.reciprocal]

    def lifted(m):
        x = Multivector.zero(phi.metric)
        for j in range(n):
            x = x + sum(m[i, j] * a[i] for i in range(n)) * frame.reciprocal[j]
        return value_of(phi.func(x).scalar_part())

    comps = t.to_components(frame)
    out = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            plus, minus = comps.copy(), comps.copy()
            plus[p, q] += step
            minus[p, q] -= step
            out[p, q] = (lifted(plus) - lifted(minus)) / (2.0 * step)
    return out


def test_component_partials_fd_is_one_batched_evaluation():
    rng = np.random.default_rng(23)
    for metric in (E2, Metric(4, (2.0, 1.0, -1.0, 1.0))):
        n = metric.dim
        c = random_multivector(metric, 1, rng)
        shapes = []

        def evaluator(x):
            shapes.append(x.values().shape)
            return x.scalar_product(c)

        base = InducedFunctional(
            MvFunction(1, 1, 0, evaluator), (random_multivector(metric, 1, rng),), 1
        )
        t = Extensor.random_invertible(metric, rng)
        frame = random_frame(metric, rng)
        for phi in (base, base.map_scalar(lambda s: s * s), base.map_scalar(exp)):
            shapes.clear()
            got = component_partials_fd(phi, t, frame)
            assert shapes == [(2 * n * n, metric.size)]
            expected = _lifted_fd_loop(phi, t, frame, DEFAULT_FD_STEP)
            assert np.max(np.abs(got - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))


def test_bridge_reassembles_directional_derivative():
    # frozen instance: partials [[0,1],[0,0]] contract with a = e1 to e2
    e1, e2 = basis_vectors(E2)
    frame = Frame.orthonormal(E2)
    out = directional_from_partials(np.array([[0.0, 1.0], [0.0, 0.0]]), e1, frame)
    assert max_abs_diff(out, e2) == 0.0
    assert directional_from_partials(np.zeros((2, 2)), e1, frame).norm_inf() == 0.0
    assert directional_from_partials(
        np.array([[0.0, 1.0], [0.0, 0.0]]), Multivector.zero(E2), frame
    ).norm_inf() == 0.0


def test_bridge_star_frozen_instance():
    e1, e2 = basis_vectors(E2)
    frame = Frame.orthonormal(E2)
    out = star_from_partials(np.array([[0.0, 1.0], [0.0, 0.0]]), "geometric", frame)
    assert max_abs_diff(out, e1 ^ e2) == 0.0
    for kind in PRODUCT_KINDS:
        assert star_from_partials(np.zeros((2, 2)), kind, frame).norm_inf() == 0.0


def test_bridge_agrees_with_derivative_operators():
    rng = np.random.default_rng(21)
    anchor = random_multivector(E3, 1, rng)
    c = random_multivector(E3, 1, rng)
    phi = dot_functional(anchor, c).map_scalar(lambda s: s * s)
    t = Extensor.random_invertible(E3, rng)
    for frame in (Frame.orthonormal(E3), random_frame(E3, rng)):
        parts = component_partials(phi, t, frame)
        a = random_multivector(E3, 1, rng)
        assert max_abs_diff(
            directional_from_partials(parts, a, frame),
            phi.directional_derivative(t, a),
        ) < 1e-11
        for kind in PRODUCT_KINDS:
            assert max_abs_diff(
                star_from_partials(parts, kind, frame), phi.derivative(t, kind)
            ) < 1e-11


def test_bridge_validates_shapes():
    e1, e2, _ = basis_vectors(E3)
    phi = pair_product_functional("scalar", e1, e2)  # two anchors: not bridge-shaped
    with pytest.raises(ValueError):
        component_partials(phi, Extensor.identity(E3), Frame.orthonormal(E3))
    vec = InducedFunctional(MvFunction(1, 1, 1, lambda x: x), (e1,), 1)  # not scalar-valued
    with pytest.raises(ValueError):
        component_partials(vec, Extensor.identity(E3), Frame.orthonormal(E3))
    with pytest.raises(ValueError):
        directional_from_partials(np.zeros((2, 3)), e1, Frame.orthonormal(E3))
