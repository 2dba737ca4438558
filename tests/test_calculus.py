import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extcalc.algebra import (
    PRODUCT_KINDS,
    Frame,
    Metric,
    Multivector,
    basis_vectors,
    max_abs_diff,
    product,
    random_multivector,
)
from extcalc.calculus import (
    DEFAULT_FD_STEP,
    MvFunction,
    _slot_gradients,
    dir_deriv,
    grad_star,
)
from extcalc.dual import exp, value_of
from extcalc.errors import ConfigurationError
from extcalc.extensor import Extensor, Outermorphism
from extcalc.functional import InducedFunctional

E3 = Metric.euclidean(3)


def dot_with(c):
    return MvFunction(1, 1, 0, lambda x: x.scalar_product(c))


def wedge_with(c):
    return MvFunction(1, 1, 2, lambda x: x.wedge(c))


IDENTITY = MvFunction(1, 1, 1, lambda x: x)


def blade_pairs(frame, grade):
    """(primal, reciprocal) blades of a grade as multivectors, from Frame.blades."""
    return [(Multivector(frame.metric, p), Multivector(frame.metric, r))
            for p, r in zip(*frame.blades(grade))]


# -- directional derivatives -------------------------------------------------


def test_dir_deriv_of_dot_is_direction_dot_constant():
    # F(x) = x.y gives derivative (B.y) along B
    e1, e2, _ = basis_vectors(E3)
    out = dir_deriv(dot_with(e1), (e2,), 0, e1)
    assert max_abs_diff(out, Multivector.from_scalar(E3, 1.0)) == 0.0


def test_dir_deriv_of_square_is_twice_dot():
    e1, _, _ = basis_vectors(E3)
    square = MvFunction(1, 1, 0, lambda x: x.scalar_product(x))
    out = dir_deriv(square, (e1,), 0, e1)
    assert max_abs_diff(out, Multivector.from_scalar(E3, 2.0)) == 0.0


def test_dir_deriv_along_zero_is_zero():
    rng = np.random.default_rng(1)
    x = random_multivector(E3, 1, rng)
    out = dir_deriv(dot_with(x), (x,), 0, Multivector.zero(E3))
    assert out.norm_inf() == 0.0


def test_dir_deriv_is_linear_in_direction():
    rng = np.random.default_rng(2)
    c = random_multivector(E3, 1, rng)
    func = MvFunction(1, 1, 0, lambda x: x.scalar_product(c).geometric(x.scalar_product(x)))
    x = random_multivector(E3, 1, rng)
    a = random_multivector(E3, 1, rng)
    b = random_multivector(E3, 1, rng)
    combo = dir_deriv(func, (x,), 0, 2.0 * a - 3.0 * b)
    split = 2.0 * dir_deriv(func, (x,), 0, a) - 3.0 * dir_deriv(func, (x,), 0, b)
    assert max_abs_diff(combo, split) < 1e-12


def test_dir_deriv_validates_slot_and_grade():
    e1, e2, _ = basis_vectors(E3)
    with pytest.raises(ValueError):
        dir_deriv(dot_with(e1), (e2,), 1, e1)
    with pytest.raises(ValueError):
        dir_deriv(dot_with(e1), (e2,), 0, e1 ^ e2)
    with pytest.raises(ValueError):
        dir_deriv(dot_with(e1), (e2, e2), 0, e1)
    with pytest.raises(ValueError, match="expected 1 arguments, got 2"):
        dot_with(e1)(e2, e2)
    batch = Multivector(E3, np.stack([e1.values(), e2.values()]))
    other = basis_vectors(Metric(3, (1.0, 1.0, -1.0)))[0]
    for step in (None, DEFAULT_FD_STEP):
        # a tangent-carrying direction had its tangents dropped silently
        for direction in (batch, e1.with_tangent(e2)):
            with pytest.raises(ValueError):
                dir_deriv(dot_with(e1), (e2,), 0, direction, step=step)
        with pytest.raises(ConfigurationError):
            dir_deriv(dot_with(e1), (e2,), 0, other, step=step)


# -- gradients ------------------------------------------------------------------


def test_grad_star_rejects_a_frame_over_a_foreign_metric():
    # the blades of diag(1, -1, 2)'s frame weighed in E3 gave 2e1 - 4e2 + 3e3
    e1, e2, e3 = basis_vectors(E3)
    x = e1 + 2.0 * e2 + 3.0 * e3
    square = MvFunction(1, 1, 0, lambda v: v.scalar_product(v))
    foreign = Frame.orthonormal(Metric(3, (1.0, -1.0, 2.0)))
    for step in (None, DEFAULT_FD_STEP):
        with pytest.raises(ConfigurationError):
            grad_star(square, (x,), 0, frame=foreign, step=step)
    own = grad_star(square, (x,), 0, frame=Frame.orthonormal(E3))
    assert max_abs_diff(own, 2.0 * x) < 1e-14


def test_gradient_of_identity_is_dimension():
    # the standard derivative of x |-> x is the scalar n
    rng = np.random.default_rng(3)
    x = random_multivector(E3, 1, rng)
    out = grad_star(IDENTITY, (x,), 0, "geometric")
    assert max_abs_diff(out, Multivector.from_scalar(E3, 3.0)) < 1e-14


def test_gradient_of_dot_with_constant_is_the_constant():
    rng = np.random.default_rng(4)
    y = random_multivector(E3, 1, rng)
    x = random_multivector(E3, 1, rng)
    assert max_abs_diff(grad_star(dot_with(y), (x,), 0), y) < 1e-14


def test_gradient_of_wedge_with_constant():
    # grad of x |-> x ^ y is (n-1) y
    rng = np.random.default_rng(5)
    y = random_multivector(E3, 1, rng)
    x = random_multivector(E3, 1, rng)
    out = grad_star(wedge_with(y), (x,), 0, "geometric")
    assert max_abs_diff(out, 2.0 * y) < 1e-14


def test_gradient_in_curved_metric_and_dim():
    for metric in (Metric.euclidean(2), Metric(4, (2.0, 1.0, -1.0, 1.0))):
        rng = np.random.default_rng(6)
        x = random_multivector(metric, 1, rng)
        out = grad_star(IDENTITY, (x,), 0, "geometric")
        assert max_abs_diff(out, Multivector.from_scalar(metric, metric.dim)) < 1e-13


def test_gradient_is_frame_independent():
    rng = np.random.default_rng(7)
    carrier = Extensor.random_invertible(E3, rng)
    frame = Frame.from_vectors([carrier(e) for e in basis_vectors(E3)])
    c = random_multivector(E3, 1, rng)
    func = MvFunction(1, 1, 0, lambda x: x.scalar_product(c).geometric(x.scalar_product(x)))
    x = random_multivector(E3, 1, rng)
    for kind in ("geometric", "wedge", "scalar", "lcontract"):
        a = grad_star(func, (x,), 0, kind)
        b = grad_star(func, (x,), 0, kind, frame)
        assert max_abs_diff(a, b) < 1e-8


def test_gradient_of_two_slot_function():
    # grad in the second slot of (x, y) |-> x.y is x
    rng = np.random.default_rng(8)
    dot = MvFunction(2, 1, 0, lambda x, y: x.scalar_product(y))
    x = random_multivector(E3, 1, rng)
    y = random_multivector(E3, 1, rng)
    assert max_abs_diff(grad_star(dot, (x, y), 1), x) < 1e-14


def _vector_mode_cases(metric, rng):
    """(name, function, args) for grad_star against one-direction passes."""
    c = random_multivector(metric, 1, rng)
    b = random_multivector(metric, 2, rng)
    t = Extensor.random(metric, rng, 2, 1)
    dot = InducedFunctional(MvFunction(1, 2, 0, lambda x: x.scalar_product(b)), (c,), 1)
    return [
        ("ignores its variable", MvFunction(1, 1, 0, lambda x: c.scalar_product(c)),
         (random_multivector(metric, 1, rng),)),
        ("map_scalar(exp)", dot.map_scalar(exp).func, (random_multivector(metric, 2, rng),)),
        ("Extensor.apply on a jet",
         MvFunction(2, 2, None, lambda x, y: t(x).geometric(y).wedge(c)),
         (random_multivector(metric, 2, rng), random_multivector(metric, 2, rng))),
    ]


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_vector_mode_grad_star_matches_one_direction_passes(dim):
    metric = Metric(dim, tuple(1.0 if k % 3 else -2.0 for k in range(dim)))
    rng = np.random.default_rng(dim)
    carrier = Extensor.random_invertible(metric, rng)
    frames = (Frame.orthonormal(metric),
              Frame.from_vectors([carrier(e) for e in basis_vectors(metric)]))
    for name, func, args in _vector_mode_cases(metric, rng):
        for slot in range(func.arity):
            for frame in frames:
                for kind in PRODUCT_KINDS:
                    got = grad_star(func, args, slot, kind, frame)
                    expected = Multivector.zero(metric)
                    for primal, recip in blade_pairs(frame, func.input_grade):
                        expected = expected + product(
                            kind, recip, dir_deriv(func, args, slot, primal)
                        )
                    scale = max(1.0, expected.norm_inf())
                    assert max_abs_diff(got, expected) <= 1e-12 * scale, (name, slot, kind)
                    if name == "ignores its variable":
                        assert got.norm_inf() == 0.0


# -- finite differences -----------------------------------------------------------


def test_fd_matches_exact_for_affine_function():
    e1, e2, _ = basis_vectors(E3)
    out = dir_deriv(dot_with(e1), (e2,), 0, e1, step=1e-5)
    assert abs(out.values()[0] - 1.0) < 1e-9


def test_fd_matches_exact_for_quadratic():
    e1, _, _ = basis_vectors(E3)
    square = MvFunction(1, 1, 0, lambda x: x.scalar_product(x))
    out = dir_deriv(square, (e1,), 0, e1, step=1e-5)
    assert abs(out.values()[0] - 2.0) < 1e-8


def test_fd_zero_direction_is_exactly_zero():
    e1, _, _ = basis_vectors(E3)
    square = MvFunction(1, 1, 0, lambda x: x.scalar_product(x))
    out = dir_deriv(square, (e1,), 0, Multivector.zero(E3), step=DEFAULT_FD_STEP)
    assert out.norm_inf() == 0.0


def test_fd_requires_positive_step():
    e1, e2, _ = basis_vectors(E3)
    with pytest.raises(ValueError):
        dir_deriv(dot_with(e1), (e2,), 0, e1, step=0.0)


def test_oracle_agreement_on_random_polynomials():
    # cubic-ish compositions of the four products against central differences
    rng = np.random.default_rng(9)
    c1 = random_multivector(E3, 1, rng)
    c2 = random_multivector(E3, 2, rng)
    funcs = [
        MvFunction(1, 1, 0, lambda x: x.scalar_product(c1)),
        MvFunction(1, 1, 0, lambda x: x.scalar_product(x).geometric(x.scalar_product(c1))),
        MvFunction(1, 1, 2, lambda x: x.wedge(c1)),
        MvFunction(1, 1, 1, lambda x: x.lcontract(c2)),
        MvFunction(2, 1, 0, lambda x, y: x.scalar_product(y)),
    ]
    for func in funcs:
        args = tuple(random_multivector(E3, 1, rng) for _ in range(func.arity))
        for slot in range(func.arity):
            direction = random_multivector(E3, 1, rng)
            exact = dir_deriv(func, args, slot, direction)
            approx = dir_deriv(func, args, slot, direction, step=1e-5)
            assert max_abs_diff(exact, approx) < 1e-5


def test_fd_gradient_matches_exact_gradient():
    rng = np.random.default_rng(10)
    c = random_multivector(E3, 1, rng)
    func = MvFunction(1, 1, 0, lambda x: x.scalar_product(c).geometric(x.scalar_product(x)))
    x = random_multivector(E3, 1, rng)
    for kind in ("geometric", "wedge", "scalar", "lcontract"):
        assert max_abs_diff(
            grad_star(func, (x,), 0, kind), grad_star(func, (x,), 0, kind, step=DEFAULT_FD_STEP)
        ) < 1e-6


# -- the batched finite-difference oracle -------------------------------------------


def _fd_cases(metric, q, rng):
    """(name, function) pairs over grade-q variables: scalar-, vector- and
    mixed-valued, several with both operands of a product on the slot."""
    c = random_multivector(metric, q, rng)
    v = random_multivector(metric, 1, rng)
    return [
        ("x.c", MvFunction(1, q, 0, lambda x: x.scalar_product(c))),
        ("x.x", MvFunction(1, q, 0, lambda x: x.scalar_product(x))),
        ("exp(x.x)", MvFunction(
            1, q, 0, lambda x: Multivector.from_scalar(metric, exp(x.scalar_product(x).scalar_part()))
        )),
        ("v (x.c)(x.x)", MvFunction(
            1, q, 1, lambda x: v.geometric(x.scalar_product(c)).geometric(x.scalar_product(x))
        )),
        ("x x", MvFunction(1, q, None, lambda x: x.geometric(x))),
        ("x _| (x v) + x ^ v", MvFunction(
            1, q, None, lambda x: x.lcontract(x.geometric(v)) + x.wedge(v)
        )),
        ("(x y) _| x", MvFunction(2, q, None, lambda x, y: x.geometric(y).lcontract(x))),
        ("x (y.c)", MvFunction(2, q, q, lambda x, y: x * y.scalar_product(c).scalar_part())),
    ]


def _per_blade_fd(func, args, slot, kind, frame, step):
    """The frame sum over (F(X + h d) - F(X - h d)) * 0.5/h, one blade at a time."""
    total = Multivector.zero(args[slot].metric)
    for primal, recip in blade_pairs(frame, func.input_grade):
        plus, minus = list(args), list(args)
        plus[slot] = args[slot] + step * primal
        minus[slot] = args[slot] - step * primal
        total = total + product(kind, recip, (func(*plus) - func(*minus)) * (0.5 / step))
    return total


@st.composite
def _fd_case(draw):
    n = draw(st.integers(2, 6))
    diag = tuple(draw(st.lists(st.sampled_from((1.0, -1.0, 2.0, -0.5)), min_size=n, max_size=n)))
    return (
        diag,
        draw(st.sampled_from((1, 2))),
        draw(st.sampled_from(PRODUCT_KINDS)),
        draw(st.integers(0, 7)),
        draw(st.booleans()),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(_fd_case())
def test_batched_fd_gradient_matches_per_blade_reference(case):
    diag, q, kind, which, random_frame, seed = case
    metric = Metric(len(diag), diag)
    rng = np.random.default_rng(seed)
    name, func = _fd_cases(metric, q, rng)[which]
    args = tuple(random_multivector(metric, q, rng) for _ in range(func.arity))
    slot = int(rng.integers(func.arity))
    frame = Frame.orthonormal(metric)
    if random_frame:
        carrier = Extensor.random_invertible(metric, rng)
        frame = Frame.from_vectors([carrier(e) for e in basis_vectors(metric)])
    got = grad_star(func, args, slot, kind, frame, step=DEFAULT_FD_STEP)
    expected = _per_blade_fd(func, args, slot, kind, frame, DEFAULT_FD_STEP)
    # summation order moves F's value at rounding level; the frame sum
    # carries that, over the step, into the result through the reciprocals
    recip = max(r.norm_inf() for _, r in blade_pairs(frame, q))
    scale = max(1.0, expected.norm_inf(), func(*args).norm_inf() * recip)
    assert max_abs_diff(got, expected) <= 1e-9 * scale, name


def test_fd_gradient_evaluates_the_function_once():
    metric = Metric(5, (1.0, -1.0, 2.0, 1.0, -0.5))
    rng = np.random.default_rng(40)
    c = random_multivector(metric, 1, rng)
    shapes = []

    def evaluator(x, y):
        shapes.append((x.values().shape, y.values().shape))
        return x.geometric(y).wedge(c)

    func = MvFunction(2, 2, None, evaluator)
    args = (random_multivector(metric, 2, rng), random_multivector(metric, 2, rng))
    grad_star(func, args, 1, "wedge", step=DEFAULT_FD_STEP)
    # 2 * C(5, 2) points in one call, the moved slot a trial stack of one batch
    assert shapes == [((32,), (1, 20, 32))]
    shapes.clear()
    dir_deriv(func, args, 0, random_multivector(metric, 2, rng), step=DEFAULT_FD_STEP)
    assert shapes == [((1, 2, 32), (32,))]


def test_fd_gradient_of_a_function_ignoring_its_slot_is_zero():
    rng = np.random.default_rng(41)
    c = random_multivector(E3, 1, rng)
    args = (random_multivector(E3, 1, rng), random_multivector(E3, 1, rng))
    funcs = (
        MvFunction(2, 1, 0, lambda x, y: y.scalar_product(y)),  # unbatched value
        MvFunction(2, 1, 1, lambda x, y: c),  # a constant
    )
    for func in funcs:
        for kind in PRODUCT_KINDS:
            out = grad_star(func, args, 0, kind, step=DEFAULT_FD_STEP)
            assert out.norm_inf() == 0.0 and out.values().shape == (E3.size,)
        assert dir_deriv(func, args, 0, c, step=DEFAULT_FD_STEP).norm_inf() == 0.0


def test_fd_gradient_through_outermorphism_matches_exact():
    metric = Metric(4, (1.0, -1.0, 1.0, 2.0))
    rng = np.random.default_rng(42)
    om = Outermorphism(Extensor.random(metric, rng))
    c = random_multivector(metric, 1, rng)
    funcs = (
        MvFunction(1, 1, 2, lambda x: om(x.wedge(c))),
        MvFunction(1, 1, 0, lambda x: om(x.wedge(c)).scalar_product(om(x).wedge(x))),
        MvFunction(1, 2, None, lambda x: om(x).geometric(x)),
    )
    for func in funcs:
        args = (random_multivector(metric, func.input_grade, rng),)
        for kind in PRODUCT_KINDS:
            exact = grad_star(func, args, 0, kind)
            fd = grad_star(func, args, 0, kind, step=DEFAULT_FD_STEP)
            assert max_abs_diff(exact, fd) < 1e-7 * max(1.0, exact.norm_inf())


# -- every slot in one pass ------------------------------------------------------------


def _slot_cases(metric, q, rng):
    """(name, function) pairs of one to three grade-q variables, one of which
    ignores its middle slot."""
    c = random_multivector(metric, q, rng)
    return [
        ("x.c", MvFunction(1, q, 0, lambda x: x.scalar_product(c))),
        ("(x y) _| x", MvFunction(2, q, None, lambda x, y: x.geometric(y).lcontract(x))),
        ("x (y.c)", MvFunction(2, q, q, lambda x, y: x * y.scalar_product(c).scalar_part())),
        ("x y z", MvFunction(3, q, None, lambda x, y, z: x.geometric(y).geometric(z))),
        ("exp(x.y) z + z _| x", MvFunction(3, q, None, lambda x, y, z: (
            z * exp(x.scalar_product(y).scalar_part()) + z.lcontract(x)
        ))),
        ("x ^ z, y ignored", MvFunction(3, q, None, lambda x, y, z: x.wedge(z) + x)),
    ]


@st.composite
def _slots_case(draw):
    n = draw(st.integers(2, 6))
    diag = tuple(draw(st.lists(st.sampled_from((1.0, -1.0, 2.0, -0.5)), min_size=n, max_size=n)))
    which = draw(st.integers(0, 5))
    arity = (1, 2, 2, 3, 3, 3)[which]
    slots = draw(st.permutations(range(arity)))[: draw(st.integers(1, arity))]
    return (
        diag,
        draw(st.sampled_from((1, 2))),
        draw(st.sampled_from(PRODUCT_KINDS)),
        which,
        tuple(slots),
        draw(st.booleans()),
        draw(st.sampled_from((None, DEFAULT_FD_STEP))),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=80, deadline=None)
@given(_slots_case())
def test_slot_gradients_match_per_slot_grad_star(case):
    diag, q, kind, which, slots, random_frame, step, seed = case
    metric = Metric(len(diag), diag)
    rng = np.random.default_rng(seed)
    name, func = _slot_cases(metric, q, rng)[which]
    args = tuple(random_multivector(metric, q, rng) for _ in range(func.arity))
    frame = Frame.orthonormal(metric)
    if random_frame:
        carrier = Extensor.random_invertible(metric, rng)
        frame = Frame.from_vectors([carrier(e) for e in basis_vectors(metric)])
    got = _slot_gradients((func,), args, slots, kind, frame, step)[1][0]
    assert got.shape == (len(slots), metric.size)
    recip = max(r.norm_inf() for _, r in blade_pairs(frame, q))
    for slot, grad in zip(slots, got):
        alone = grad_star(func, args, slot, kind, frame, step)
        if step is None:
            # independent of the shared block: one pass per blade and a product loop
            reference = Multivector.zero(metric)
            for primal, r in blade_pairs(frame, q):
                reference = reference + product(kind, r, dir_deriv(func, args, slot, primal))
            scale = max(1.0, reference.norm_inf()) * recip
            assert np.abs(grad - reference.values()).max() <= 1e-12 * scale, (name, slot)
            assert np.abs(grad - alone.values()).max() <= 1e-12 * scale, (name, slot)
        else:
            # each slot is its own batched evaluation: the same bits as alone
            assert np.array_equal(grad, alone.values()), (name, slot)


def _recording(func, calls):
    """func, recording per call each argument's value shape and tangent rows."""

    def evaluator(*xs):
        calls.append(tuple(
            (x.values().shape, None if x._tangents is None else x._tangents.shape[-2])
            for x in xs
        ))
        return func(*xs)

    return MvFunction(func.arity, func.input_grade, func.output_grade, evaluator)


def test_exact_partial_gradients_evaluate_the_function_once():
    metric = Metric(4, (1.0, -1.0, 2.0, 1.0))
    rng = np.random.default_rng(43)
    calls = []
    func = _recording(_slot_cases(metric, 1, rng)[4][1], calls)
    anchors = tuple(random_multivector(metric, 1, rng) for _ in range(3))
    phi = InducedFunctional(func, anchors, 1)
    t = Extensor.random_invertible(metric, rng)
    grads = phi.partial_gradients(t)
    # 3 slots * C(4, 1) rows in one pass, each seeded slot a trial stack of one
    assert calls == [(((1, 1, 16), 12),) * 3]
    for i, grad in enumerate(grads):
        assert max_abs_diff(grad, grad_star(func, phi.arguments(t), i)) < 1e-13
    calls.clear()
    grads = _slot_gradients((func,), phi.arguments(t), (0, 2))[1][0]
    assert calls == [(((1, 1, 16), 8), ((16,), None), ((1, 1, 16), 8))]
    assert grads.shape == (2, metric.size)


def test_fd_partial_gradients_evaluate_the_function_once_per_slot():
    metric = Metric(4, (1.0, -1.0, 2.0, 1.0))
    rng = np.random.default_rng(44)
    calls = []
    func = _recording(_slot_cases(metric, 1, rng)[4][1], calls)
    anchors = tuple(random_multivector(metric, 1, rng) for _ in range(3))
    phi = InducedFunctional(func, anchors, 1)
    t = Extensor.random_invertible(metric, rng)
    _slot_gradients((func,), phi.arguments(t), (0, 2), step=DEFAULT_FD_STEP)
    # 2 * C(4, 1) points per slot, the moved slot a trial stack of one batch
    point, batch = ((16,), None), ((1, 8, 16), None)
    assert calls == [(batch, point, point), (point, point, batch)]
    calls.clear()
    phi.partial_gradients(t, step=DEFAULT_FD_STEP)
    assert calls == [(batch, point, point), (point, batch, point), (point, point, batch)]


def test_partial_gradients_and_the_star_table_share_one_gradient_pass():
    # at one map and step the pair evaluates F as often as one of them alone:
    # once exactly, once per slot by finite differences, in either order.
    # Each functional records through its own MvFunction object, and `want`
    # through the unrecorded one: an MvFunction returns its last value to a
    # repeated call, so a shared recorded object would count no pass at all
    metric = Metric(4, (1.0, -1.0, 2.0, 1.0))
    rng = np.random.default_rng(46)
    calls = []
    plain = _slot_cases(metric, 1, rng)[4][1]
    anchors = tuple(random_multivector(metric, 1, rng) for _ in range(3))
    t = Extensor.random_invertible(metric, rng)
    for step, passes in ((None, 1), (DEFAULT_FD_STEP, 3)):
        args = InducedFunctional(plain, anchors, 1).arguments(t)
        want = _slot_gradients((plain,), args, range(3), step=step)[1][0]
        for first in ("partials", "table"):
            phi = InducedFunctional(_recording(plain, calls), anchors, 1)
            calls.clear()
            if first == "table":
                phi.derivative_table(t, PRODUCT_KINDS, step)
            grads = phi.partial_gradients(t, step)
            phi.derivative_table(t, PRODUCT_KINDS, step)
            assert len(calls) == passes, (step, first)
            for i, grad in enumerate(grads):
                assert np.array_equal(grad.values(), want[i])


def test_slot_the_function_ignores_gets_an_exact_zero():
    metric = Metric(3, (1.0, -1.0, 2.0))
    rng = np.random.default_rng(45)
    c = random_multivector(metric, 1, rng)
    args = tuple(random_multivector(metric, 1, rng) for _ in range(3))
    funcs = (
        MvFunction(3, 1, None, lambda x, y, z: x.wedge(z) + x),  # ignores y
        MvFunction(3, 1, 1, lambda x, y, z: c),  # ignores all: no tangent block
    )
    for func in funcs:
        for step in (None, DEFAULT_FD_STEP):
            for kind in PRODUCT_KINDS:
                grads = _slot_gradients((func,), args, (2, 1, 0), kind, step=step)[1][0]
                assert grads.shape == (3, metric.size)
                assert not grads[1].any()
    for kind in PRODUCT_KINDS:
        assert not _slot_gradients(funcs[1:], args, (0, 1, 2), kind)[1].any()


# -- product rule sanity ------------------------------------------------------------


def test_product_rule_for_scalar_valued_functions():
    rng = np.random.default_rng(12)
    c1 = random_multivector(E3, 1, rng)
    c2 = random_multivector(E3, 1, rng)
    phi = MvFunction(1, 1, 0, lambda x: x.scalar_product(c1))
    psi = MvFunction(1, 1, 0, lambda x: x.scalar_product(c2))
    both = MvFunction(1, 1, 0, lambda x: phi(x).geometric(psi(x)))
    x = random_multivector(E3, 1, rng)
    b = random_multivector(E3, 1, rng)
    lhs = dir_deriv(both, (x,), 0, b)
    rhs = dir_deriv(phi, (x,), 0, b) * value_of(psi(x).scalar_part()) + dir_deriv(
        psi, (x,), 0, b
    ) * value_of(phi(x).scalar_part())
    assert max_abs_diff(lhs, rhs) < 1e-10


def test_evaluator_agrees_between_plain_and_lifted_scalars():
    # zero-tangent grade-0 jet coefficients change nothing
    rng = np.random.default_rng(13)
    c = random_multivector(E3, 1, rng)
    func = MvFunction(1, 1, 0, lambda x: x.scalar_product(c).geometric(x.scalar_product(x)))
    x = random_multivector(E3, 1, rng)
    lifted = func(x.with_tangent(Multivector.zero(E3)))
    assert max_abs_diff(lifted.value_part(), func(x)) == 0.0
    assert lifted.tangent_part().norm_inf() == 0.0
