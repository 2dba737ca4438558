"""Trial stacks: T multivectors, maps, frames or functionals evaluated in one
pass, trial r bit for bit what trial r gives unstacked."""

import tracemalloc

import numpy as np
import pytest

from extcalc.algebra import (
    PRODUCT_KINDS,
    Frame,
    Metric,
    Multivector,
    product,
    random_multivector,
    reciprocal_frame,
    scalar_value,
    wedge_all,
)
from extcalc.algebra import _compound, _tables, _terms
from extcalc.calculus import MvFunction, dir_deriv, grad_star
from extcalc.catalog import (
    adjoint_image_functional,
    apply_functional,
    det_functional,
    pair_product_functional,
    pseudoscalar_image_functional,
)
from extcalc.dual import cos, exp, sin, sqrt, value_of
from extcalc.extensor import Extensor, Outermorphism
from extcalc.functional import (
    InducedFunctional,
    component_partials,
    directional_from_partials,
    star_from_partials,
)

E3 = Metric.euclidean(3)
SIGNED6 = Metric(6, (1.0, 1.0, 1.0, -1.0, -1.0, 1.0))
SIGNED8 = Metric(8, (2.0, -1.0, 0.5, -1.0, 1.25, -2.0, 1.0, -0.5))


def bits(x):
    """The exact bytes of a multivector's values and tangents, or of an array."""
    if isinstance(x, Multivector):
        t = x._tangents
        return bits(x._values) + (b"" if t is None else b"|" + bits(t))
    return np.ascontiguousarray(x).tobytes()


def trial(stacked, r):
    """Trial r of a stacked multivector as an unstacked one (P = 1 drops its axis)."""
    values = stacked._values[r]
    t = stacked._tangents
    return Multivector._raw(stacked.metric, values[0] if len(values) == 1 else values,
                            None if t is None else t[r])


def stack_frames(frames):
    """The trial stack of frames: their coordinate matrices stacked."""
    return Frame(frames[0].metric, *(np.stack([getattr(f, side) for f in frames])
                                     for side in ("coords", "recip")))


def stack_maps(maps):
    """The trial stack of maps of one grade pair: their matrices as one."""
    return Extensor(maps[0].metric, [t.matrix for t in maps], maps[0].p, maps[0].q)


def random_frames(metric, rng, count):
    ortho = Frame.orthonormal(metric).vectors
    return [Frame.from_vectors([Extensor.random_invertible(metric, rng)(e) for e in ortho])
            for _ in range(count)]


def draws(metric, grade, count, seed, tangents=0):
    rng = np.random.default_rng(seed)
    xs = [random_multivector(metric, grade, rng) for _ in range(count)]
    if tangents:
        xs = [x.with_tangents([random_multivector(metric, grade, rng) for _ in range(tangents)])
              for x in xs]
    return xs


# -- algebra ------------------------------------------------------------------------


@pytest.mark.parametrize("metric, trials", [(E3, 9), (SIGNED6, 5), (SIGNED8, 2)])
def test_stacked_products_are_each_trials_unstacked_product(metric, trials):
    # values, tangents on either or both sides, and an unstacked side broadcast
    for kind in PRODUCT_KINDS:
        for ma, mb in ((0, 0), (2, 0), (0, 3), (2, 2)):
            xs, ys = draws(metric, 1, trials, 1, ma), draws(metric, 2, trials, 2, mb)
            got = product(kind, Multivector.stack(xs), Multivector.stack(ys))
            for r in range(trials):
                assert bits(trial(got, r)) == bits(product(kind, xs[r], ys[r])), (kind, r)
            got = product(kind, Multivector.stack(xs), ys[0])
            for r in range(trials):
                assert bits(trial(got, r)) == bits(product(kind, xs[r], ys[0])), (kind, r)


@pytest.mark.parametrize("metric, trials", [(E3, 7), (SIGNED6, 5)])
def test_stacked_point_batches_are_each_trials_batch(metric, trials):
    # a stack of point batches (T, B, 2^n) against plain stacks and each other
    rng = np.random.default_rng(3)
    points = [Multivector(metric, rng.uniform(-1, 1, (4, metric.size))) for _ in range(trials)]
    batches = Multivector._raw(metric, np.stack([p._values for p in points]))
    plain = draws(metric, 1, trials, 4)
    for kind in PRODUCT_KINDS:
        for got, expect in (
            (product(kind, batches, Multivector.stack(plain)),
             lambda r: product(kind, points[r], plain[r])),
            (product(kind, Multivector.stack(plain), batches),
             lambda r: product(kind, plain[r], points[r])),
            (product(kind, batches, batches), lambda r: product(kind, points[r], points[r])),
        ):
            for r in range(trials):
                assert bits(got._values[r]) == bits(expect(r)), (kind, r)


def _on_grades(metric, grades, rng, lead=()):
    """Values uniform on the masks of `grades` and zero elsewhere, (*lead, 2^n)."""
    keep = np.isin(_tables(metric).grades, grades)
    return rng.uniform(-1.0, 1.0, lead + (metric.size,)) * keep


@pytest.mark.parametrize("metric", [Metric(3, (2.0, -1.0, 0.5)), SIGNED6, SIGNED8],
                         ids=["n3", "n6", "n8"])
def test_mixed_grade_trials_are_each_trials_product_bit_for_bit(metric):
    # trials of different grade supports in one stack: the stack's term list
    # covers every trial's grades, so a trial meets terms of value zero that
    # it does not meet alone, among and after its own, some of them -0.0;
    # each trial of every layout is still its product alone, byte for byte,
    # signed zeros included
    n, rng = metric.dim, np.random.default_rng(60 + metric.dim)
    # nine trials: at n = 3 they outnumber the blades, the kernel's other layout
    lefts = [(1,), (1, 2), (2, 3), (0,), (n - 1,), (), (1, n), (3,), (2,)]
    rights = [(1,), (2,), (1, 3), (2,), (1,), (3,), (0, 2), (3,), (1, 2)]
    trials = len(lefts)

    def side(grade_sets, rows):
        values = [_on_grades(metric, g, rng) for g in grade_sets]
        if not rows:
            return [Multivector._raw(metric, v) for v in values]
        return [Multivector._raw(metric, v, _on_grades(metric, g, rng, (rows,)))
                for v, g in zip(values, grade_sets)]

    def batches(grade_sets):
        return [Multivector._raw(metric, _on_grades(metric, g, rng, (3,))) for g in grade_sets]

    def stacked(xs):
        if xs[0]._values.ndim == 2:  # point batches: a stack of batches
            return Multivector._raw(metric, np.stack([x._values for x in xs]))
        return Multivector.stack(xs)

    cases = [(side(lefts, ma), side(rights, mb)) for ma, mb in ((0, 0), (2, 0), (0, 2), (2, 2))]
    cases += [(batches(lefts), side(rights, 0)), (side(lefts, 0), batches(rights)),
              (batches(lefts), batches(rights))]
    for kind in PRODUCT_KINDS:
        for xs, ys in cases:
            got = product(kind, stacked(xs), stacked(ys))
            for r in range(trials):
                alone = product(kind, xs[r], ys[r])
                assert bits(got._values[r][0] if alone._values.ndim == 1 else got._values[r]) \
                    == bits(alone._values), (kind, r)
                if alone._tangents is not None:
                    assert bits(got._tangents[r]) == bits(alone._tangents), (kind, r)
            got = product(kind, stacked(xs), ys[1])  # one side of one trial, broadcast
            for r in range(trials):
                alone = product(kind, xs[r], ys[1])
                assert bits(got._values[r][0] if alone._values.ndim == 1 else got._values[r]) \
                    == bits(alone._values), (kind, r)


def test_stacked_products_build_no_operator_per_trial():
    # n = 6: four trials of vectors meet through their term lists; the peak
    # stays below one dense 2^n x 2^n operator
    xs, ys = draws(SIGNED6, 1, 4, 5), draws(SIGNED6, 1, 4, 6)
    a, b = Multivector.stack(xs), Multivector.stack(ys)
    for kind in PRODUCT_KINDS:
        product(kind, a, b)  # the term list is built once, outside the peak
        tracemalloc.start()
        try:
            product(kind, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * SIGNED6.size**2, (kind, peak)


@pytest.mark.parametrize("metric", [E3, SIGNED6])
def test_term_lists_are_built_once_per_key(metric):
    # a term list is built on the first product of its (kind, grades) and
    # serves every later one, in every layout: values, tangent rows on
    # either side, stacks and unstacked operands; building the tables
    # builds none
    _terms.cache_clear()
    _tables(metric)
    assert _terms.cache_info().currsize == 0
    for kind in ("geometric", "wedge", "lcontract"):
        built = []
        for ma, mb in ((0, 0), (2, 0), (0, 2), (2, 2)):
            xs, ys = draws(metric, 1, 7, 24, ma), draws(metric, 2, 7, 25, mb)
            for a, b in ((Multivector.stack(xs), Multivector.stack(ys)), (xs[0], ys[0])):
                before = _terms.cache_info().misses
                product(kind, a, b)
                built.append(_terms.cache_info().misses - before)
        assert built == [1] + [0] * (len(built) - 1), (kind, built)


def test_trial_stack_coefficients_and_linear_maps():
    xs = draws(E3, 1, 4, 7, tangents=2)
    stacked = Multivector.stack(xs)
    value = Multivector.stack([x.value_part() for x in xs]).coeff(1)
    assert value.shape == (4, 1)
    jet = stacked.coeff(1)
    assert jet._values.shape == (4, 1, 8) and jet._tangents.shape == (4, 2, 8)
    for r, x in enumerate(xs):
        assert bits(trial(jet, r)) == bits(x.coeff(1))
        assert bits(trial(stacked.grade_project(1) + 2.0 * stacked.reverse() - stacked, r)) == \
            bits(x.grade_project(1) + 2.0 * x.reverse() - x)
        assert bits(trial(stacked.tangent_part(1), r)) == bits(x.tangent_part(1))
    # a (T, 1) array scales and builds stacks trial by trial
    scaled = value * stacked
    built = Multivector.from_scalar(E3, value)
    for r, x in enumerate(xs):
        assert bits(trial(scaled, r)) == bits(float(value[r, 0]) * x)
        assert bits(trial(built, r)) == bits(Multivector.from_scalar(E3, float(value[r, 0])))
    assert stacked.grades() == frozenset({1})
    assert stacked.is_homogeneous(1) and not stacked.is_homogeneous(2)


def test_trial_stack_is_no_point_batch():
    e1, e2, e3 = (Multivector.from_blade(E3, 1 << k) for k in range(3))
    stacked = Multivector.stack([e1, e2])
    assert stacked._values.shape == (2, 1, 8)
    # a stack takes a block per trial; a stack of point batches takes none
    Multivector._raw(E3, stacked._values, np.zeros((2, 3, 8)))
    for values, block in (
        (np.zeros((2, 2, 8)), np.zeros((2, 1, 8))),  # a stack of 2-point batches
        (stacked._values, np.zeros((3, 1, 8))),  # another trial count
        (stacked._values, np.zeros((1, 8))),  # an unstacked block
    ):
        with pytest.raises(ValueError, match="cannot carry or meet a tangent block"):
            Multivector._raw(E3, values, block)
    # only unbatched multivectors stack, all with a block of one shape or none
    with pytest.raises(ValueError, match="only unbatched"):
        Multivector.stack([Multivector(E3, np.eye(8)[[1, 2]])])
    with pytest.raises(ValueError, match="tangent blocks of one shape"):
        Multivector.stack([e1, e2.with_tangent(e1)])
    with pytest.raises(ValueError, match="tangent blocks of one shape"):
        Multivector.stack([e1.with_tangent(e2), e2.with_tangents([e1, e3])])
    # a trial stack is a fixed operand; a stack of point batches is not
    apply_functional(stacked)
    with pytest.raises(ValueError, match="unbatched"):
        apply_functional(Multivector._raw(E3, np.zeros((2, 2, 8))))
    with pytest.raises(ValueError, match="unbatched"):
        apply_functional(Multivector.stack([e1.with_tangent(e2), e2.with_tangent(e1)]))


@pytest.mark.parametrize("metric, trials", [(E3, 4), (SIGNED6, 3)])
def test_a_lifted_trial_stack_is_each_trials_lift(metric, trials):
    # with_tangents stacked its directions' values as one (m, 2^n) block, so
    # a trial stack could not be lifted; an unstacked direction now seeds
    # every trial, and a stacked one each trial its own row
    e1, e2, e3 = Frame.orthonormal(metric).vectors[:3]
    got = Multivector.stack([e1, e2]).with_tangent(e3)
    for kind in PRODUCT_KINDS:
        for r, x in enumerate((e1, e2)):
            assert bits(trial(product(kind, got, got), r)) == \
                bits(product(kind, x.with_tangent(e3), x.with_tangent(e3))), (kind, r)
    xs, ys, ds = (draws(metric, g, trials, seed) for g, seed in ((1, 30), (2, 31), (1, 32)))
    d = random_multivector(metric, 2, np.random.default_rng(33))
    lifted = Multivector.stack(xs).with_tangents([d, Multivector.stack(ds)])
    assert lifted._tangents.shape == (trials, 2, metric.size)
    for kind in PRODUCT_KINDS:
        stacked = product(kind, lifted, Multivector.stack(ys))
        for r in range(trials):
            want = product(kind, xs[r].with_tangents([d, ds[r]]), ys[r])
            assert bits(trial(stacked, r)) == bits(want), (kind, r)
    # a point batch is still no direction, even one as long as the stack
    batch = Multivector(metric, np.stack([e1.values(), e2.values()]))
    with pytest.raises(ValueError, match="cannot carry or meet a tangent block"):
        Multivector.stack([e1, e2]).with_tangent(batch)


def test_a_stacked_direction_names_the_trial_counts_it_cannot_lift():
    # a stacked direction on an unstacked value, or on a stack of another
    # trial count, was refused as "a batched multivector", though neither
    # side is a batch
    e1, e2, e3 = Frame.orthonormal(E3).vectors
    with pytest.raises(ValueError, match="directions of 2 trials cannot lift an unstacked "
                                         "multivector"):
        e1.with_tangent(Multivector.stack([e2, e3]))
    with pytest.raises(ValueError, match="directions of 2 trials cannot lift a stack of 3 trials"):
        Multivector.stack([e1, e2, e3]).with_tangents([e1, Multivector.stack([e2, e3])])


# what every entry point raises where stacks of 2 and of 3 trials meet
_MISMATCH = "trial stacks of 2 and 3 trials do not combine"


def _mismatched_case():
    """A dot functional over 2 stacked anchors, and 3-trial stacks of maps,
    vectors and frames to meet it."""
    rng = np.random.default_rng(70)
    c = random_multivector(E3, 1, rng)
    phi = InducedFunctional(MvFunction(1, 1, 0, lambda x: x.scalar_product(c)),
                            (Multivector.stack(draws(E3, 1, 2, 71)),), 1)
    maps = stack_maps([Extensor.random_invertible(E3, rng) for _ in range(3)])
    return phi, maps, Multivector.stack(draws(E3, 1, 3, 72)), stack_frames(
        random_frames(E3, rng, 3))


@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_products_of_two_trial_counts_name_both(kind):
    two, three = (Multivector.stack(draws(E3, 1, count, count)) for count in (2, 3))
    with pytest.raises(ValueError, match=_MISMATCH):
        product(kind, two, three)
    with pytest.raises(ValueError, match=_MISMATCH):
        product(kind, three.with_tangent(three), two)


def test_sums_of_two_trial_counts_name_both():
    two, three = (Multivector.stack(draws(E3, 1, count, count)) for count in (2, 3))
    for lhs, rhs in ((two, three), (three, two), (two.with_tangent(two), three)):
        with pytest.raises(ValueError, match=_MISMATCH):
            lhs + rhs
    with pytest.raises(ValueError, match=_MISMATCH):
        three - two


def test_scalar_products_of_two_trial_counts_name_both():
    two, three = (Multivector.stack(draws(E3, 1, count, count)) for count in (2, 3))
    with pytest.raises(ValueError, match=_MISMATCH):
        two.scalar_product(three)
    with pytest.raises(ValueError, match=_MISMATCH):
        scalar_value(three, two)


def test_a_stack_of_maps_applied_to_another_count_names_both():
    _, maps, vectors, _ = _mismatched_case()
    two = Multivector.stack(draws(E3, 1, 2, 73))
    with pytest.raises(ValueError, match=_MISMATCH):
        maps(two)
    with pytest.raises(ValueError, match=_MISMATCH):
        maps(two.with_tangent(two))
    assert maps(vectors)._values.shape[0] == 3  # one count combines


def test_directional_derivative_of_two_trial_counts_names_both():
    phi, maps, vectors, _ = _mismatched_case()
    e1 = Frame.orthonormal(E3).vectors[0]
    one = Extensor.random_invertible(E3, np.random.default_rng(74))
    unstacked = InducedFunctional(phi.func, (e1,), 1)
    two = Multivector.stack(draws(E3, 1, 2, 76))
    for step in (None, 1e-5):
        with pytest.raises(ValueError, match=_MISMATCH):  # anchors and map
            phi.directional_derivative(maps, e1, step)
        with pytest.raises(ValueError, match=_MISMATCH):  # anchors and direction
            phi.directional_derivative(one, vectors, step)
        with pytest.raises(ValueError, match=_MISMATCH):  # map and direction
            unstacked.directional_derivative(maps, two, step)


def test_derivative_table_of_two_trial_counts_names_both():
    phi, maps, _, _ = _mismatched_case()
    for step in (None, 1e-5):
        with pytest.raises(ValueError, match=_MISMATCH):
            phi.derivative_table(maps, PRODUCT_KINDS, step)


def test_evaluate_of_two_trial_counts_names_both():
    phi, maps, _, _ = _mismatched_case()
    with pytest.raises(ValueError, match=_MISMATCH):
        phi.evaluate(maps)


def test_derivative_via_frame_of_two_trial_counts_names_both():
    phi, maps, _, frames = _mismatched_case()
    one = Extensor.random_invertible(E3, np.random.default_rng(75))
    with pytest.raises(ValueError, match=_MISMATCH):  # anchors and frame
        phi.derivative_via_frame(one, PRODUCT_KINDS, frames)
    with pytest.raises(ValueError, match=_MISMATCH):  # anchors and map
        phi.derivative_via_frame(maps, PRODUCT_KINDS, Frame.orthonormal(E3))


@pytest.mark.parametrize("metric, trials", [(E3, 6), (SIGNED8, 2)])
def test_stacked_frames_are_each_trials_frame(metric, trials):
    rng = np.random.default_rng(8)
    carriers = [Extensor.random_invertible(metric, rng) for _ in range(trials)]
    basis = Frame.orthonormal(metric).vectors
    stacked = Frame.from_vectors([stack_maps(carriers)(e) for e in basis])
    for r, carrier in enumerate(carriers):
        frame = Frame.from_vectors([carrier(e) for e in basis])
        for v, w in zip(stacked.reciprocal, frame.reciprocal):
            assert bits(trial(v, r)) == bits(w)
        for grade in range(metric.dim + 1):
            for got, expect in zip(stacked.blades(grade), frame.blades(grade)):
                assert bits(got[r]) == bits(expect), (r, grade)
    recip = reciprocal_frame(stacked.vectors)
    assert all(bits(a) == bits(b) for a, b in zip(recip, stacked.reciprocal))


@pytest.mark.parametrize("metric, trials", [(E3, 4), (SIGNED6, 2)])
def test_stacked_and_unstacked_vectors_mix(metric, trials):
    # one stacked vector beside unstacked ones: the unstacked rows broadcast
    # over the trial axis, in a frame and in a functional's anchors
    rng = np.random.default_rng(24)
    basis = Frame.orthonormal(metric).vectors
    firsts = [Extensor.random_invertible(metric, rng)(basis[0]) for _ in range(trials)]
    stacked = Frame.from_vectors([Multivector.stack(firsts), *basis[1:]])
    bs, c = draws(metric, 1, trials, 25), random_multivector(metric, 1, rng)
    phi = pair_product_functional("geometric", Multivector.stack(bs), c)
    h, a = Extensor.random_invertible(metric, rng), random_multivector(metric, 1, rng)
    value = phi.evaluate(h)
    derivatives = {step: (phi.directional_derivative(h, a, step),
                          phi.derivative_table(h, PRODUCT_KINDS, step)) for step in (None, 1e-5)}
    for r in range(trials):
        frame = Frame.from_vectors([firsts[r], *basis[1:]])
        assert bits(stacked.coords[r]) == bits(frame.coords)
        assert bits(stacked.recip[r]) == bits(frame.recip)
        for grade in range(metric.dim + 1):
            for got, expect in zip(stacked.blades(grade), frame.blades(grade)):
                assert bits(got[r]) == bits(expect), (r, grade)
        one = pair_product_functional("geometric", bs[r], c)
        assert bits(trial(value, r)) == bits(one.evaluate(h))
        for step, (directional, table) in derivatives.items():
            assert bits(trial(directional, r)) == bits(one.directional_derivative(h, a, step))
            expect = one.derivative_table(h, PRODUCT_KINDS, step)
            for kind in PRODUCT_KINDS:
                assert bits(trial(table[kind], r)) == bits(expect[kind]), (r, step, kind)


# -- extensor ------------------------------------------------------------------------


@pytest.mark.parametrize("metric, trials", [(E3, 6), (SIGNED6, 4), (SIGNED8, 2)])
def test_stacked_maps_are_each_trials_map(metric, trials):
    rng = np.random.default_rng(9)
    maps = [Extensor.random_invertible(metric, rng) for _ in range(trials)]
    h = stack_maps(maps)
    assert h.matrix.shape == (trials, metric.dim, metric.dim)
    xs = draws(metric, 1, trials, 10, tangents=2)
    bivs = draws(metric, 2, trials, 11)
    x, biv = Multivector.stack(xs), Multivector.stack(bivs)
    det, trace = h.det(), h.trace()
    assert det.shape == trace.shape == (trials, 1)
    for r, t in enumerate(maps):
        assert det[r, 0] == t.det() and trace[r, 0] == t.trace()
        for got, expect in (
            (h(x), t(xs[r])),
            (h(xs[0]), t(xs[0])),
            (h.adjoint()(x), t.adjoint()(xs[r])),
            (h.inverse()(x), t.inverse()(xs[r])),
            (h.adjoint().inverse()(x), t.adjoint().inverse()(xs[r])),
            (h.bivector(), t.bivector()),
            (Outermorphism(h)(biv), Outermorphism(t)(bivs[r])),
            (Outermorphism(h)(wedge_all(metric, [biv, x])),
             Outermorphism(t)(wedge_all(metric, [bivs[r], xs[r]]))),
        ):
            assert bits(trial(got, r)) == bits(expect), r
        assert bits((h @ h).matrix[r]) == bits((t @ t).matrix)
        assert bits(_compound(h.matrix, metric.dim)[r]) == bits(_compound(t.matrix, metric.dim))
    with pytest.raises(ValueError, match="no single record"):
        h.to_dict()


def test_stacked_inverse_names_a_singular_trial():
    h = stack_maps([Extensor.identity(E3), Extensor.zero(E3)])
    with pytest.raises(ValueError, match="singular"):
        h.inverse()


# -- calculus, functionals, catalog and jets -------------------------------------------


@pytest.mark.parametrize("metric, trials", [(E3, 5), (SIGNED6, 3)])
def test_stacked_functionals_are_each_trials_functional(metric, trials):
    rng = np.random.default_rng(12)
    maps = [Extensor.random_invertible(metric, rng) for _ in range(trials)]
    bs, cs, dirs = (draws(metric, 1, trials, seed) for seed in (13, 14, 15))
    frames = random_frames(metric, rng, trials)
    carriers = stack_frames(frames)
    h, b, c, a = stack_maps(maps), *map(Multivector.stack, (bs, cs, dirs))
    pss = 1.5 * Multivector.stack([Multivector.from_blade(metric, metric.size - 1)] * trials)
    functionals = (
        (pair_product_functional("wedge", b, c), lambda r: pair_product_functional(
            "wedge", bs[r], cs[r])),
        (adjoint_image_functional(b, carriers), lambda r: adjoint_image_functional(
            bs[r], frames[r])),
        (pseudoscalar_image_functional(pss, carriers), lambda r: pseudoscalar_image_functional(
            1.5 * Multivector.from_blade(metric, metric.size - 1), frames[r])),
        (det_functional(metric), lambda r: det_functional(metric)),
    )
    for phi, phi_of in functionals:
        for step in (None, 1e-5):
            got = phi.directional_derivative(h, a, step)
            table = phi.derivative_table(h, PRODUCT_KINDS, step)
            for r in range(trials):
                one = phi_of(r)
                assert bits(trial(got, r)) == bits(one.directional_derivative(
                    maps[r], dirs[r], step)), (r, step)
                expect = one.derivative_table(maps[r], PRODUCT_KINDS, step)
                for kind in PRODUCT_KINDS:
                    assert bits(trial(table[kind], r)) == bits(expect[kind]), (r, step, kind)
        value = phi.evaluate(h)
        for r in range(trials):
            assert bits(trial(value, r)) == bits(phi_of(r).evaluate(maps[r]))


def test_zero_stacked_direction_keeps_the_trial_axis():
    # every trial's anchor weights zero: a trial stack of zeros, F unevaluated,
    # the shape one nonzero trial gives; an unstacked call stays unstacked
    rng = np.random.default_rng(21)
    bs, dirs = draws(E3, 1, 3, 22), draws(E3, 1, 3, 23)
    maps = [Extensor.random_invertible(E3, rng) for _ in range(3)]
    h, zero = stack_maps(maps), Multivector.zero(E3)
    calls = []
    base = apply_functional(Multivector.stack(bs))
    phi = base._derived(1, lambda x: calls.append(1) or base.func(x))
    one_moved = Multivector.stack([zero, dirs[1], zero])
    for step in (None, 1e-5):
        shape = phi.directional_derivative(h, one_moved, step)._values.shape
        assert shape == (3, 1, E3.size)
        calls.clear()
        for functional, t, direction in (
            (phi, h, Multivector.stack([zero] * 3)),  # all stacked
            (phi, maps[0], Multivector.stack([zero] * 3)),  # stacked anchors and direction
            (apply_functional(bs[0]), h, zero),  # a stacked map only
        ):
            got = functional.directional_derivative(t, direction, step)
            assert got._values.shape == shape and got._tangents is None
            assert not got._values.any()
        assert not calls
        got = apply_functional(bs[0]).directional_derivative(maps[0], zero, step)
        assert got._values.shape == (E3.size,) and not got._values.any()


def test_stacked_calculus_kernel_is_each_trials_kernel():
    xs, ds = draws(E3, 1, 4, 16), draws(E3, 1, 4, 17)
    func = MvFunction(1, 1, 0,
                      lambda x: exp(x.scalar_product(x).scalar_part()) * x.scalar_product(x))
    x, d = Multivector.stack(xs), Multivector.stack(ds)
    for step in (None, 1e-5):
        along = dir_deriv(func, (x,), 0, d, step)
        grad = grad_star(func, (x,), 0, "geometric", step=step)
        for r in range(4):
            assert bits(trial(along, r)) == bits(dir_deriv(func, (xs[r],), 0, ds[r], step))
            assert bits(trial(grad, r)) == bits(grad_star(func, (xs[r],), 0, step=step))


def test_stacked_jets_are_each_trials_jet():
    xs = draws(E3, 0, 5, 18, tangents=2)
    jet = Multivector.stack([x + 2.0 for x in xs]).scalar_part()
    for f in (exp, sin, cos, sqrt):
        got = f(jet)
        for r, x in enumerate(xs):
            assert bits(trial(got, r)) == bits(f((x + 2.0).scalar_part())), f.__name__
    assert value_of(jet).shape == (5, 1)
    assert bits(value_of(jet)[:, 0]) == bits(np.array([value_of((x + 2.0).scalar_part())
                                                       for x in xs]))


def test_stacked_scalar_value_is_each_trials_dot():
    xs, ys = draws(E3, 1, 6, 19), draws(E3, 1, 6, 20)
    got = scalar_value(Multivector.stack(xs), Multivector.stack(ys))
    assert bits(got[:, 0]) == bits(np.array([scalar_value(x, y) for x, y in zip(xs, ys)]))


def _bridge_functional(anchor, c, name):
    base = InducedFunctional(MvFunction(1, 1, 0, lambda x: x.scalar_product(c)), (anchor,), 1)
    return {"linear": base, "square": base.map_scalar(lambda s: s * s),
            "exp": base.map_scalar(exp)}[name]


@pytest.mark.parametrize("metric, trials", [(E3, 5), (SIGNED6, 3), (SIGNED8, 2)])
@pytest.mark.parametrize("name", ["linear", "square", "exp"])
def test_stacked_bridge_is_each_trials_bridge(metric, trials, name):
    # the bridge's trial axis: stacked functionals, maps, frames and
    # directions give (T, n, n) partials and the trial stack of rebuilt
    # derivatives, each trial bit for bit its unstacked call
    rng = np.random.default_rng(21)
    maps = [Extensor.random_invertible(metric, rng) for _ in range(trials)]
    anchors, cs, dirs = (draws(metric, 1, trials, seed) for seed in (22, 23, 24))
    frames = random_frames(metric, rng, trials)
    phi = _bridge_functional(Multivector.stack(anchors), Multivector.stack(cs), name)
    h, a, frame = stack_maps(maps), Multivector.stack(dirs), stack_frames(frames)
    ortho = Frame.orthonormal(metric)
    for step in (None, 1e-5):
        for stacked_frame, frame_of in ((frame, frames.__getitem__), (ortho, lambda r: ortho)):
            parts = component_partials(phi, h, stacked_frame, step)
            assert parts.shape == (trials, metric.dim, metric.dim)
            for r in range(trials):
                one = _bridge_functional(anchors[r], cs[r], name)
                assert bits(parts[r]) == bits(component_partials(one, maps[r], frame_of(r), step))
    parts = component_partials(phi, h, frame)
    along = directional_from_partials(parts, a, frame)
    stars = {kind: star_from_partials(parts, kind, frame) for kind in PRODUCT_KINDS}
    # stacked partials over one unstacked frame, and one direction for every trial
    over_ortho = directional_from_partials(parts, dirs[0], ortho)
    for r in range(trials):
        assert bits(trial(along, r)) == bits(directional_from_partials(parts[r], dirs[r],
                                                                       frames[r]))
        assert bits(trial(over_ortho, r)) == bits(directional_from_partials(parts[r], dirs[0],
                                                                            ortho))
        for kind in PRODUCT_KINDS:
            assert bits(trial(stars[kind], r)) == bits(star_from_partials(parts[r], kind,
                                                                          frames[r]))


@pytest.mark.parametrize("shape", [(3, 2), (3,), (2, 2, 3, 3), (4, 4)])
def test_bridge_rejects_partials_of_another_shape(shape):
    frame, e1 = Frame.orthonormal(E3), Multivector.from_blade(E3, 1)
    message = r"expected shape \(3, 3\), or \(T, 3, 3\) for a trial stack"
    with pytest.raises(ValueError, match=message):
        directional_from_partials(np.zeros(shape), e1, frame)
    with pytest.raises(ValueError, match=message):
        star_from_partials(np.zeros(shape), "geometric", frame)
