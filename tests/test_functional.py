import numpy as np
import pytest

from extcalc.algebra import (
    PRODUCT_KINDS,
    Frame,
    Metric,
    Multivector,
    basis_vectors,
    max_abs_diff,
    product,
    random_multivector,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from extcalc.calculus import DEFAULT_FD_STEP, MvFunction, dir_deriv, grad_star
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
from extcalc.errors import ConfigurationError
from extcalc.extensor import Extensor, Outermorphism
from extcalc.functional import (
    InducedFunctional,
    component_partials,
    directional_from_partials,
    star_from_partials,
    values_and_derivatives,
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
    with pytest.raises(ValueError, match="need at least one anchor"):
        InducedFunctional(MvFunction(0, 1, 0, lambda: e1), (), 1)
    # a tangent-carrying anchor was accepted; its fd star derivative then
    # failed inside a product of a batch with a tangent block
    dot = MvFunction(2, 1, 0, lambda x, y: x.scalar_product(y))
    with pytest.raises(ValueError, match="no tangent block"):
        InducedFunctional(dot, (e1.with_tangent(e2), e2), 1)


def test_anchors_must_be_unbatched():
    # a batch of two anchors was accepted; directional_derivative then failed in numpy
    with pytest.raises(ValueError, match="unbatched"):
        apply_functional(Multivector(E3, np.eye(8)[[1, 2]]))


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


def test_directional_derivative_rejects_batched_and_foreign_directions():
    e1, e2, _ = basis_vectors(E3)
    phi = dot_functional(e1, e2)
    batch = Multivector(E3, np.stack([e1.values(), e2.values()]))
    foreign = basis_vectors(Metric(3, (1.0, -1.0, 1.0)))[0]
    # a tangent-carrying direction had its tangents dropped silently
    for direction in (batch, foreign, e1.with_tangent(e2)):
        with pytest.raises(ValueError):
            phi.directional_derivative(Extensor.identity(E3), direction)


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
    via_ortho = phi.derivative_via_frame(h, PRODUCT_KINDS, ortho)
    via_skew = phi.derivative_via_frame(h, PRODUCT_KINDS, skew)
    for kind in PRODUCT_KINDS:
        intrinsic = phi.derivative(h, kind)
        assert max_abs_diff(intrinsic, via_ortho[kind]) < 1e-12
        assert max_abs_diff(intrinsic, via_skew[kind]) < 1e-12


@pytest.mark.parametrize("metric", [E3, Metric(4, (2.0, -1.0, 0.5, 1.0))])
def test_frame_derivatives_of_all_kinds_equal_one_kind_calls(metric):
    rng = np.random.default_rng(21)
    h = Extensor.random_invertible(metric, rng)
    b = random_multivector(metric, 1, rng)
    for phi in (adjoint_image_functional(b), det_functional(metric)):
        for frame in (Frame.orthonormal(metric), random_frame(metric, rng)):
            table = phi.derivative_via_frame(h, PRODUCT_KINDS, frame)
            assert list(table) == list(PRODUCT_KINDS)
            for kind in PRODUCT_KINDS:
                (alone,) = phi.derivative_via_frame(h, (kind,), frame).values()
                assert np.array_equal(table[kind].values(), alone.values())


def test_frame_over_a_foreign_metric_is_rejected():
    # the blades of a frame over diag(1, -1, 2) weighed in E3 gave 0.5
    phi = trace_functional(E3)
    h = Extensor.identity(E3)
    foreign = Frame.orthonormal(Metric(3, (1.0, -1.0, 2.0)))
    with pytest.raises(ConfigurationError):
        phi.derivative_via_frame(h, ("scalar",), foreign)
    own = phi.derivative_via_frame(h, ("scalar",), Frame.orthonormal(E3))["scalar"]
    assert max_abs_diff(own, Multivector.from_scalar(E3, 3.0)) < 1e-12
    assert max_abs_diff(own, phi.derivative(h, "scalar")) < 1e-12
    square = MvFunction(1, 1, 0, lambda x: x.scalar_product(x))
    bridge = InducedFunctional(square, (basis_vectors(E3)[0],), 1)
    for step in (None, DEFAULT_FD_STEP):
        with pytest.raises(ConfigurationError):
            component_partials(bridge, h, foreign, step)


@pytest.mark.parametrize("factory", [
    trace_functional,
    bivector_functional,
    lambda metric, frame: adjoint_image_functional(basis_vectors(metric)[0], frame),
    lambda metric, frame: pseudoscalar_image_functional(unit_pseudoscalar(metric), frame),
    det_functional,
], ids=["trace", "bivector", "adjoint-image", "pseudoscalar-image", "det"])
def test_catalog_factory_rejects_a_frame_over_a_foreign_metric(factory):
    # the functional was built over the frame's metric and failed only at
    # evaluate, with "map lives over a different metric"
    foreign = Frame.orthonormal(Metric(3, (1.0, -1.0, 2.0)))
    with pytest.raises(ConfigurationError):
        factory(E3, foreign)
    assert factory(E3, Frame.orthonormal(E3)).metric == E3


def test_catalog_factories_reject_batched_and_tangent_operands():
    # a tangent-carrying b gave an evaluate with tangents, and every derivative
    # then failed on mismatched tangent blocks; a tangent-carrying
    # pseudoscalar had its tangents dropped silently
    e1, e2, e3 = basis_vectors(E3)
    batch = Multivector(E3, np.eye(8)[[1, 2]])
    for b in (batch, e1.with_tangent(e2), e1 ^ e2):
        with pytest.raises(ValueError):
            adjoint_image_functional(b)
        with pytest.raises(ValueError):
            apply_functional(b)
        with pytest.raises(ValueError):
            pair_product_functional("scalar", e3, b)
    for pss in (unit_pseudoscalar(E3).with_tangent(e1), e1 ^ e2):
        with pytest.raises(ValueError):
            pseudoscalar_image_functional(pss)
    with pytest.raises(ValueError, match="need at least one vector"):
        blade_image_functional([])


def test_functionals_over_equal_anchors_built_apart_combine():
    # the anchor tuples were compared by identity, so two equal anchors built
    # apart raised "functionals must share their anchor tuple"
    e1, e2, _ = basis_vectors(E3)
    phi, psi = apply_functional(Multivector.from_blade(E3, 1)), apply_functional(e1)
    h = Extensor.random_invertible(E3, 5)
    assert max_abs_diff((phi + psi).evaluate(h), 2.0 * h(e1)) == 0.0
    square = InducedFunctional(MvFunction(1, 1, 0, lambda x: x.scalar_product(x)),
                               (Multivector.from_blade(E3, 1),), 1)
    weighted = square.times_functional(psi)
    assert max_abs_diff(weighted.evaluate(h), scalar_value(h(e1), h(e1)) * h(e1)) < 1e-15
    # trial stacks compare their values too; a stack is not its first trial
    stacked = apply_functional(Multivector.stack([e1, e2]))
    stacked + apply_functional(Multivector.stack([e1, e2]))
    for other in (apply_functional(e2), apply_functional(Multivector.stack([e1, e1])),
                  apply_functional(Multivector.stack([e1]))):
        with pytest.raises(ValueError, match="share their anchor tuple"):
            stacked + other
    with pytest.raises(ValueError, match="share their anchor tuple"):
        phi + apply_functional(e2)


def test_kinds_must_be_a_sequence_not_a_string():
    phi = trace_functional(E3)
    h = Extensor.identity(E3)
    with pytest.raises(ValueError, match="sequence of product kinds"):
        phi.derivative_table(h, "scalar")
    with pytest.raises(ValueError, match="sequence of product kinds"):
        phi.derivative_via_frame(h, "scalar", Frame.orthonormal(E3))
    listed = phi.derivative_table(h, ["scalar"])["scalar"]
    assert max_abs_diff(listed, Multivector.from_scalar(E3, 3.0)) < 1e-12


@pytest.mark.parametrize("step", [float("inf"), float("-inf"), float("nan"), 0.0, -1.0])
def test_every_derivative_rejects_a_step_that_is_not_positive_and_finite(step):
    # an infinite step made NaN coefficients, and a direction whose weights
    # are all zero returned 0 before the step was read
    e1, e2, _ = basis_vectors(E3)
    h = Extensor.random_invertible(E3, np.random.default_rng(3))
    det, moved, unmoved = det_functional(E3), apply_functional(e1), apply_functional(e2)
    calls = [
        lambda: dir_deriv(moved.func, (h(e1),), 0, e2, step),
        lambda: grad_star(moved.func, (h(e1),), 0, step=step),
        lambda: det.directional_derivative(h, e1, step),
        lambda: unmoved.directional_derivative(h, e1, step),
        lambda: det.derivative_table(h, PRODUCT_KINDS, step),
        lambda: det.partial_gradients(h, step),
        lambda: component_partials(dot_functional(e1, e2), h, Frame.orthonormal(E3), step),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="step must be positive and finite"):
            call()


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


def test_two_functionals_combine_only_over_the_same_variables():
    # times_functional took a factor over grade-2 variables, fed it the grade-1
    # images and returned a vector where g declares grade 2
    a = basis_vectors(E3)[0]
    f = InducedFunctional(MvFunction(1, 1, 0, lambda x: x.scalar_product(x)), (a,), 1)
    g = InducedFunctional(MvFunction(1, 2, 2, lambda x: x), (a,), 1)
    with pytest.raises(ValueError, match="^functions take different variables$"):
        f + g
    with pytest.raises(ValueError, match="^functions take different variables$"):
        f.times_functional(g)


def test_scalar_combinators_reject_a_functional_of_other_values():
    e1 = basis_vectors(E3)[0]
    vector, scalar = apply_functional(e1), dot_functional(e1, e1)
    with pytest.raises(ValueError, match="left factor must be scalar-valued"):
        vector.times_functional(scalar)
    with pytest.raises(ValueError, match="only scalar functionals compose with scalar maps"):
        vector.map_scalar(exp)


def test_a_sum_keeps_a_grade_only_when_both_terms_have_it():
    # x.x + x declared the left term's grade 0, so map_scalar took exp of the
    # scalar part alone and dropped the vector
    e1 = basis_vectors(E3)[0]
    f = InducedFunctional(MvFunction(1, 1, 0, lambda x: x.scalar_product(x)), (e1,), 1)
    g = InducedFunctional(MvFunction(1, 1, 1, lambda x: x), (e1,), 1)
    assert (f + g).func.output_grade is None
    with pytest.raises(ValueError, match="only scalar functionals compose with scalar maps"):
        (f + g).map_scalar(exp)
    with pytest.raises(ValueError, match="left factor must be scalar-valued"):
        (f + g).times_functional(g)
    assert (f + f).func.output_grade == 0


def test_a_value_off_its_declared_output_grade_is_an_error():
    e1 = basis_vectors(E3)[0]
    h = Extensor.random_invertible(E3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="not of the declared output grade 2"):
        InducedFunctional(MvFunction(1, 1, 2, lambda x: x), (e1,), 1).evaluate(h)
    for grade in (1, None):  # the grade that holds, and mixed grades
        InducedFunctional(MvFunction(1, 1, grade, lambda x: x), (e1,), 1).evaluate(h)


def test_pair_product_rejects_an_unknown_kind():
    # the output-grade table raised KeyError: 'bogus'
    e1, e2, _ = basis_vectors(E3)
    with pytest.raises(ValueError, match="unknown product kind 'bogus'"):
        pair_product_functional("bogus", e1, e2)


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

    raw = Multivector._raw

    def without_tangents(metric, values, tangents=None, bits=None):
        if tangents is not None:
            raise AssertionError("a tangent block was made")
        return raw(metric, values, bits=bits)

    # every multivector with a tangent block, seeded or derived, is made by _raw
    monkeypatch.setattr(Multivector, "_raw", staticmethod(without_tangents))
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


# -- one weighted pass per directional derivative ----------------------------------------------

NON_UNIT4 = Metric(4, (2.0, -1.0, 0.5, -3.0))


def _slot_mixing(metric, k, rng):
    """k grade-1 variables coupled through the geometric and wedge products."""
    c = random_multivector(metric, 1, rng)

    def evaluator(*xs):
        total = xs[0].scalar_product(xs[0]).geometric(c)
        for x, y in zip(xs, xs[1:] + xs[:1]):
            total = total + x.geometric(y.wedge(c))
        return total

    return MvFunction(k, 1, None, evaluator)


def _weighted_case(metric, k, seed):
    rng = np.random.default_rng(seed)
    anchors = tuple(random_multivector(metric, 1, rng) for _ in range(k))
    phi = InducedFunctional(_slot_mixing(metric, k, rng), anchors, 1)
    return phi, Extensor.random_invertible(metric, rng), random_multivector(metric, 1, rng)


def _slot_sum(phi, t, direction):
    """sum_i (direction . A^i) dF/dX^i from the per-slot gradients, and its scale."""
    weights = [scalar_value(direction, a) for a in phi.anchors]
    grads = phi.partial_gradients(t)
    total = sum((w * g for w, g in zip(weights, grads)), Multivector.zero(phi.metric))
    scale = sum(abs(w) * g.norm_inf() for w, g in zip(weights, grads))
    return total, scale


@pytest.mark.parametrize("metric", [E3, NON_UNIT4])
def test_weighted_pass_equals_the_weighted_slot_gradients(metric):
    for k in (1, 2, metric.dim):
        phi, t, direction = _weighted_case(metric, k, 30 + k)
        expected, scale = _slot_sum(phi, t, direction)
        exact = phi.directional_derivative(t, direction)
        assert max_abs_diff(exact, expected) <= 1e-13 * scale, k
        fd = phi.directional_derivative(t, direction, step=DEFAULT_FD_STEP)
        assert max_abs_diff(fd, exact) <= 1e-5, k


@pytest.mark.parametrize("metric", [E3, NON_UNIT4])
def test_weighted_pass_evaluates_the_function_once(metric):
    # exactly, C(n, 1) = n tangent rows in every slot; by differences, one batch
    # of the 2n points in every slot; each a trial stack of one
    n = metric.dim
    for k in (1, 2, n):
        phi, t, direction = _weighted_case(metric, k, 40 + k)
        seen = []
        func = phi.func

        def evaluator(*xs):
            seen.append(tuple(x._values.shape if x._tangents is None else x._tangents.shape
                              for x in xs))
            return func(*xs)

        counted = phi._derived(None, evaluator)
        counted.directional_derivative(t, direction)
        assert seen == [((1, n, metric.size),) * k]
        seen.clear()
        counted.directional_derivative(t, direction, step=DEFAULT_FD_STEP)
        assert seen == [((1, 2 * n, metric.size),) * k]


@pytest.mark.parametrize("metric", [E3, NON_UNIT4])
def test_weighted_pass_with_a_zero_weight_or_an_ignored_slot(metric):
    rng = np.random.default_rng(50)
    e1, e2 = basis_vectors(metric)[:2]
    t = Extensor.random_invertible(metric, rng)
    # the direction e1 is orthogonal to the second anchor: that slot has weight 0
    phi = InducedFunctional(_slot_mixing(metric, 2, rng), (e1, e2), 1)
    expected, scale = _slot_sum(phi, t, e1)
    for step in (None, DEFAULT_FD_STEP):
        got = phi.directional_derivative(t, e1, step=step)
        assert max_abs_diff(got, expected) <= (1e-13 * scale if step is None else 1e-5)
    # F ignores its second variable: a move in that slot alone changes nothing
    ignoring = InducedFunctional(MvFunction(2, 1, None, lambda x, y: x.geometric(x)), (e1, e2), 1)
    expected, scale = _slot_sum(ignoring, t, e1 + e2)
    for step in (None, DEFAULT_FD_STEP):
        assert ignoring.directional_derivative(t, e2, step=step).norm_inf() == 0.0
        got = ignoring.directional_derivative(t, e1 + e2, step=step)
        assert max_abs_diff(got, expected) <= (1e-13 * scale if step is None else 1e-5)


@pytest.mark.parametrize("metric", [E3, NON_UNIT4])
def test_arguments_are_bit_equal_to_applying_the_map(metric):
    rng = np.random.default_rng(51)
    for p, q in ((1, 1), (2, 1), (2, 2)):
        anchors = tuple(random_multivector(metric, p, rng) for _ in range(3))
        func = MvFunction(3, q, None, lambda *xs: xs[0])
        phi = InducedFunctional(func, anchors, p)
        t = Extensor.random(metric, rng, p, q)
        for got, a in zip(phi.arguments(t), anchors):
            assert np.array_equal(got._values, t.apply(a)._values) and got._tangents is None


def _rule_functions(metric, rng):
    """A scalar-valued F and a mixed-grade G of two vector variables."""
    c, d = (random_multivector(metric, 1, rng) for _ in range(2))
    f = MvFunction(2, 1, 0, lambda x, y: x.scalar_product(y) + x.scalar_product(c))
    g = MvFunction(2, 1, None, lambda x, y: x.geometric(y).geometric(d) + y.wedge(c))
    return f, g


def _logged(func, log, name):
    """func as a new MvFunction object that logs (name, seeded) per evaluation."""

    def evaluator(*xs):
        log.append((name, xs[0]._tangents is not None))
        return func.evaluator(*xs)

    return MvFunction(func.arity, func.input_grade, func.output_grade, evaluator)


def _copied(x: Multivector) -> Multivector:
    return Multivector._raw(x.metric, x._values.copy())


@pytest.mark.parametrize("trials", [None, 3])
def test_rule_groups_evaluate_each_function_once_per_seeded_pass(trials):
    # the functionals over one anchor tuple share its images at one map, one
    # seeded pass along one direction, and each function's value there, as
    # the harness's additivity and Leibniz groups meet them: each function
    # is evaluated once per seeded pass (and once at the images), bit for
    # bit what fresh objects give
    metric = NON_UNIT4
    rng = np.random.default_rng(60)
    f, g = _rule_functions(metric, rng)
    if trials is None:
        anchors = tuple(random_multivector(metric, 1, rng) for _ in range(2))
        t = Extensor.random_invertible(metric, rng)
    else:
        anchors = tuple(Multivector.stack([random_multivector(metric, 1, rng)
                                           for _ in range(trials)]) for _ in range(2))
        t = Extensor(metric, [Extensor.random_invertible(metric, rng).matrix
                              for _ in range(trials)])
    direction = random_multivector(metric, 1, rng)
    log = []

    def group():
        return tuple(InducedFunctional(_logged(fn, log, name), anchors, 1)
                     for fn, name in ((f, "F"), (g, "G")))

    phi, gam = group()
    got = {"sum": (phi + gam).directional_derivative(t, direction),
           "phi": phi.directional_derivative(t, direction),
           "g": gam.directional_derivative(t, direction)}
    assert log == [("F", True), ("G", True)]
    log.clear()
    phi, gam = group()
    got["phi value"] = phi.evaluate(t)
    got["phi again"] = phi.directional_derivative(t, direction)
    got["g value"] = gam.evaluate(t)
    got["g again"] = gam.directional_derivative(t, direction)
    got["product"] = phi.times_functional(gam).directional_derivative(t, direction)
    assert log == [("F", False), ("F", True), ("G", False), ("G", True)]

    def fresh(fn):
        """fn's functional where nothing can be reused: a new function object
        over copied anchors."""
        func = MvFunction(fn.arity, fn.input_grade, fn.output_grade, fn.evaluator)
        return InducedFunctional(func, tuple(map(_copied, anchors)), 1)

    def derivative(phi):
        return phi.directional_derivative(Extensor(metric, t.matrix), _copied(direction))

    want = {"sum": derivative(fresh(f) + fresh(g)), "phi": derivative(fresh(f)),
            "g": derivative(fresh(g)), "phi value": fresh(f).evaluate(Extensor(metric, t.matrix)),
            "g value": fresh(g).evaluate(Extensor(metric, t.matrix)),
            "product": derivative(fresh(f).times_functional(fresh(g)))}
    want["phi again"], want["g again"] = want["phi"], want["g"]
    for key, value in got.items():
        assert value._values.tobytes() == want[key]._values.tobytes(), key
    # the same map and direction evaluate nothing more; another direction at
    # the same map, or a new map of an equal matrix, evaluates F again
    phi.directional_derivative(t, direction)
    log.clear()
    assert phi.directional_derivative(t, direction)._values.tobytes() == (
        got["phi"]._values.tobytes())
    assert log == []
    other = phi.directional_derivative(t, random_multivector(metric, 1, rng))
    assert log == [("F", True)]
    same_matrix = phi.directional_derivative(Extensor(metric, t.matrix), direction)
    assert log == [("F", True), ("F", True)]
    assert same_matrix._values.tobytes() == got["phi"]._values.tobytes()
    assert other._values.tobytes() != got["phi"]._values.tobytes()


def test_a_function_returns_its_last_value_to_the_same_arguments_only():
    rng = np.random.default_rng(61)
    x, y = (random_multivector(E3, 1, rng) for _ in range(2))
    log = []
    func = _logged(MvFunction(1, 1, 2, lambda v: v.wedge(y)), log, "F")
    first = func(x)
    assert func(x) is first
    assert func(_copied(x)) is not first  # an equal copy is another argument
    assert func(x) is not first  # one entry: the copy took its place
    assert len(log) == 3


def _group_functions(metric, k, rng):
    """A scalar-valued F and a multivector-valued G of k vector variables."""
    if k == 2:
        return _rule_functions(metric, rng)
    c, d = (random_multivector(metric, 1, rng) for _ in range(2))
    f = MvFunction(1, 1, 0, lambda x: x.scalar_product(x) + x.scalar_product(c))
    g = MvFunction(1, 1, None, lambda x: x.geometric(d) + x.wedge(c))
    return f, g


@pytest.mark.parametrize("step", [None, DEFAULT_FD_STEP])
@pytest.mark.parametrize("trials", [None, 3])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("metric", [E3, NON_UNIT4], ids=["E3", "diag:2,-1,0.5,-3"])
def test_values_and_derivatives_equal_separate_calls(metric, k, trials, step):
    # the values and every derivative of a rule group, from one call, are bit
    # for bit what evaluate and directional_derivative give on fresh objects;
    # one direction moves no slot in some trials (all, when unstacked).  A
    # value whose F scales by a coefficient it reads (times_functional) or
    # lifts one (map_scalar) is a jet's there: equal, but a zero may take
    # the other sign, and math's exp may differ from numpy's in the last bit
    rng = np.random.default_rng(70 + k)
    f, g = _group_functions(metric, k, rng)
    zero = Multivector.zero(metric)
    if trials is None:
        anchors = tuple(random_multivector(metric, 1, rng) for _ in range(k))
        t = Extensor.random_invertible(metric, rng)
        directions = (random_multivector(metric, 1, rng), zero, random_multivector(metric, 1, rng))
    else:
        anchors = tuple(Multivector.stack([random_multivector(metric, 1, rng)
                                           for _ in range(trials)]) for _ in range(k))
        t = Extensor(metric, [Extensor.random_invertible(metric, rng).matrix
                              for _ in range(trials)])
        directions = (Multivector.stack([random_multivector(metric, 1, rng)
                                         for _ in range(trials)]),
                      Multivector.stack([zero, random_multivector(metric, 1, rng), zero]),
                      random_multivector(metric, 1, rng))
    log = []

    def group(f, g, anchors):
        phi, gam = (InducedFunctional(fn, anchors, 1) for fn in (f, g))
        return (phi + gam, phi, gam, phi.times_functional(gam), phi.map_scalar(exp))

    values, derivatives = values_and_derivatives(
        group(_logged(f, log, "F"), _logged(g, log, "G"), anchors), t, directions, step)
    if step is None:  # one seeded pass of each function, and no plain evaluation
        assert sorted(log) == [("F", True), ("G", True)]

    def fresh(fn):
        return MvFunction(fn.arity, fn.input_grade, fn.output_grade, fn.evaluator)

    def fresh_group():
        return group(fresh(f), fresh(g), tuple(map(_copied, anchors)))

    assert len(values) == len(derivatives) == 5
    for i, (value, row) in enumerate(zip(values, derivatives)):
        want = fresh_group()[i].evaluate(Extensor(metric, t.matrix))
        assert value._values.shape == want._values.shape, i
        if i < 3 or step is not None:
            assert value._values.tobytes() == want._values.tobytes(), i
        else:
            assert np.allclose(value._values, want._values, rtol=1e-15, atol=0.0), i
        assert len(row) == len(directions)
        for j, (got, direction) in enumerate(zip(row, directions)):
            want = fresh_group()[i].directional_derivative(
                Extensor(metric, t.matrix), _copied(direction), step)
            assert got._values.shape == want._values.shape, (i, j)
            assert got._values.tobytes() == want._values.tobytes(), (i, j)


def test_values_and_derivatives_check_their_inputs():
    rng = np.random.default_rng(75)
    f, g = _rule_functions(E3, rng)
    anchors = tuple(random_multivector(E3, 1, rng) for _ in range(2))
    t, direction = Extensor.random_invertible(E3, rng), random_multivector(E3, 1, rng)
    phi = InducedFunctional(f, anchors, 1)
    other = InducedFunctional(g, anchors[::-1], 1)
    with pytest.raises(ValueError, match="share their anchor tuple"):
        values_and_derivatives((phi, other), t, (direction,))
    with pytest.raises(ValueError, match="direction"):
        values_and_derivatives((phi,), t, (direction, direction ^ anchors[0]))
    for functionals, directions in (((), (direction,)), ((phi,), ())):
        with pytest.raises(ValueError, match="at least one functional and one direction"):
            values_and_derivatives(functionals, t, directions)


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
            approx = component_partials(phi, t, frame, step=DEFAULT_FD_STEP)
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
            got = component_partials(phi, t, frame, step=DEFAULT_FD_STEP)
            assert shapes == [(2 * n * n, metric.size)]
            expected = _lifted_fd_loop(phi, t, frame, DEFAULT_FD_STEP)
            assert np.max(np.abs(got - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))


def test_exact_component_partials_are_one_forward_pass():
    # reference: the gradient by grad_star and 2n scalar products
    rng = np.random.default_rng(24)
    for metric in (E2, Metric(4, (2.0, 1.0, -1.0, -0.5))):
        n = metric.dim
        c = random_multivector(metric, 1, rng)
        blocks = []

        def evaluator(x):
            blocks.append(None if x._tangents is None else x._tangents.shape)
            return x.scalar_product(c)

        base = InducedFunctional(
            MvFunction(1, 1, 0, evaluator), (random_multivector(metric, 1, rng),), 1
        )
        t = Extensor.random_invertible(metric, rng)
        frame = random_frame(metric, rng)
        for phi in (base, base.map_scalar(lambda s: s * s), base.map_scalar(exp)):
            blocks.clear()
            got = component_partials(phi, t, frame)
            assert blocks == [(1, n, metric.size)]  # one pass, one row per f^q
            grad = grad_star(phi.func, phi.arguments(t), 0)
            a = [scalar_value(phi.anchors[0], r) for r in frame.reciprocal]
            g = [scalar_value(r, grad) for r in frame.reciprocal]
            expected = np.outer(a, g)
            assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_bridge_reassembly_matches_loop_reference():
    # the sums over p and q one term at a time, as the reference
    rng = np.random.default_rng(25)
    for metric in (E3, Metric(4, (2.0, -1.0, 0.5, -3.0))):
        n = metric.dim
        for frame in (Frame.orthonormal(metric), random_frame(metric, rng)):
            partials = rng.uniform(-1.0, 1.0, (n, n))
            a = random_multivector(metric, 1, rng)
            expected = Multivector.zero(metric)
            for p in range(n):
                w = scalar_value(a, frame.vectors[p])
                for q in range(n):
                    expected = expected + (w * partials[p, q]) * frame.vectors[q]
            got = directional_from_partials(partials, a, frame)
            assert max_abs_diff(got, expected) <= 1e-13 * max(1.0, expected.norm_inf())
            for kind in PRODUCT_KINDS:
                expected = Multivector.zero(metric)
                for p in range(n):
                    for q in range(n):
                        expected = expected + product(
                            kind, frame.vectors[p], partials[p, q] * frame.vectors[q]
                        )
                got = star_from_partials(partials, kind, frame)
                assert max_abs_diff(got, expected) <= 1e-13 * max(1.0, expected.norm_inf()), kind


def _loop_bound(metric, lefts, rights):
    """Rounding bound of sum_i lefts[i] * rights[i] against the product loop;
    the metric factor is the largest blade weight."""
    scale = sum(np.abs(x).sum() * np.abs(y).max() for x, y in zip(lefts, rights))
    return 4 * (2 * len(lefts)) * np.finfo(float).eps * scale * np.maximum(1.0, np.abs(metric.diag)).prod()


@pytest.mark.parametrize("n", range(2, 9))
def test_star_sums_match_product_loops(n):
    # derivative_table and star_from_partials against their sums of one product per term
    rng = np.random.default_rng(200 + n)
    diag = (1.0,) * n, tuple(rng.choice((1.0, -1.0, 2.0, -0.5), n))
    for metric in (Metric(n, diag[0]), Metric(n, diag[1])):
        unit = all(abs(g) == 1.0 for g in metric.diag)
        for p in (1, 2):
            anchors = tuple(random_multivector(metric, p, rng) for _ in range(2))
            func = MvFunction(2, 1, None, lambda x, y: x.geometric(y) + x)
            phi = InducedFunctional(func, anchors, p)
            t = Extensor.random(metric, rng, p, 1)
            grads = phi.partial_gradients(t)
            table = phi.derivative_table(t, PRODUCT_KINDS)
            for kind in PRODUCT_KINDS:
                expected = Multivector.zero(metric)
                for anchor, grad in zip(anchors, grads):
                    expected = expected + product(kind, anchor, grad)
                bound = _loop_bound(metric, [a.values() for a in anchors],
                                    [g.values() for g in grads])
                assert max_abs_diff(table[kind], expected) <= bound, (p, kind)
        for frame in (Frame.orthonormal(metric), random_frame(metric, rng)):
            partials = rng.uniform(-1.0, 1.0, (n, n))
            rows = partials @ frame.blades(1)[0]
            for kind in PRODUCT_KINDS:
                expected = Multivector.zero(metric)
                for f, row in zip(frame.vectors, rows):
                    expected = expected + product(kind, f, Multivector(metric, row))
                got = star_from_partials(partials, kind, frame)
                bound = _loop_bound(metric, [f.values() for f in frame.vectors], rows)
                assert max_abs_diff(got, expected) <= bound, kind
                if unit and frame is Frame.orthonormal(metric):
                    # one nonzero coefficient per frame vector: the same bits as the loop
                    assert np.array_equal(got.values(), expected.values()), kind


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


def test_bridge_directional_rejects_a_direction_over_a_foreign_metric():
    partials = np.eye(3)
    foreign = basis_vectors(Metric(3, (1.0, -1.0, 2.0)))[0]
    with pytest.raises(ConfigurationError):
        directional_from_partials(partials, foreign, Frame.orthonormal(E3))


def test_bridge_directional_rejects_a_direction_that_is_not_one_vector():
    # a bivector missed every frame vector and gave 0; a batch of two vectors
    # failed inside numpy's matmul; a tangent-carrying vector lost its tangents
    e1, e2, _ = basis_vectors(E3)
    for direction in (e1 ^ e2, Multivector(E3, np.eye(8)[[1, 2]]), e1.with_tangent(e2)):
        with pytest.raises(ValueError, match="one unbatched vector"):
            directional_from_partials(np.eye(3), direction, Frame.orthonormal(E3))


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
