import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extcalc.algebra import (
    PRODUCT_KINDS,
    BasisBlade,
    Frame,
    Metric,
    Multivector,
    basis_vectors,
    blade_basis,
    blade_name,
    max_abs_diff,
    product,
    random_multivector,
    reciprocal_frame,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from extcalc.algebra import _Scatter, _tables
from extcalc.calculus import MvFunction, grad_star
from extcalc.errors import ConfigurationError, DegenerateFrameError
from extcalc.extensor import Extensor

E3 = Metric.euclidean(3)
_SIGNED_DIAG = (2.0, -1.0, 0.5, -1.0, 1.25, -2.0, 1.0, -0.5)  # n = 8; a prefix below


def vecs(metric):
    return basis_vectors(metric)


# -- metric ----------------------------------------------------------------


def test_metric_defaults_to_euclidean():
    assert E3.diag == (1.0, 1.0, 1.0)
    assert E3.size == 8


@pytest.mark.parametrize("dim", [0, 1, 9])
def test_metric_dim_bounds(dim):
    with pytest.raises(ConfigurationError):
        Metric(dim)


def test_metric_rejects_zero_entries():
    with pytest.raises(ConfigurationError):
        Metric(2, (1.0, 0.0))
    with pytest.raises(ConfigurationError):
        Metric(3, (1.0, 1.0))  # wrong arity


def test_metric_mismatch_is_configuration_error():
    a = basis_vectors(E3)[0]
    b = basis_vectors(Metric.euclidean(2))[0]
    with pytest.raises(ConfigurationError):
        a.geometric(b)


# -- products: frozen examples ------------------------------------------------


def test_generator_squares_to_metric_entry():
    e1, _, _ = vecs(E3)
    assert max_abs_diff(e1 * e1, Multivector.from_scalar(E3, 1.0)) == 0.0
    weighted = Metric(2, (2.0, -3.0))
    f1, f2 = vecs(weighted)
    assert (f1 * f1).values()[0] == 2.0
    assert (f2 * f2).values()[0] == -3.0


def test_wedge_of_vector_with_itself_vanishes():
    e1, _, _ = vecs(E3)
    assert (e1 ^ e1).norm_inf() == 0.0


def test_bilinear_expansion_example():
    # (e1+e2)(e1-e2) = e1e1 - e1e2 + e2e1 - e2e2 = -2 e12
    e1, e2, _ = vecs(E3)
    expected = -2.0 * (e1 ^ e2)
    assert max_abs_diff((e1 + e2) * (e1 - e2), expected) == 0.0


def test_scalar_product_of_bivector_with_itself():
    # <(~e12) e12>_0 = <(-e12)(e12)>_0 = 1 in a Euclidean metric
    e1, e2, _ = vecs(E3)
    e12 = e1 ^ e2
    assert scalar_value(e12, e12) == 1.0


def test_vector_contraction_into_bivector():
    # a _| (b ^ c) = (a.b) c - (a.c) b; on generators e1 _| e12 = e2
    e1, e2, _ = vecs(E3)
    assert max_abs_diff(e1.lcontract(e1 ^ e2), e2) == 0.0


def test_product_kind_dispatch_and_validation():
    e1, e2, _ = vecs(E3)
    assert max_abs_diff(product("wedge", e1, e2), e1 ^ e2) == 0.0
    with pytest.raises(ValueError):
        product("cross", e1, e2)


# -- grade projection and reversion ----------------------------------------


def test_grade_project_examples():
    e1, e2, _ = vecs(E3)
    a = Multivector.from_scalar(E3, 3.0) + 2.0 * e1 + (e1 ^ e2)
    assert max_abs_diff(a.grade_project(1), 2.0 * e1) == 0.0
    assert max_abs_diff(a.grade_project(0), Multivector.from_scalar(E3, 3.0)) == 0.0
    # homogeneous input is a fixed point
    assert max_abs_diff((e1 ^ e2).grade_project(2), e1 ^ e2) == 0.0
    # projection to an absent grade is zero
    assert unit_pseudoscalar(E3).grade_project(2).norm_inf() == 0.0


def test_grade_project_is_idempotent_and_complete():
    rng = np.random.default_rng(11)
    a = Multivector(E3, rng.uniform(-1, 1, E3.size))
    recomposed = Multivector.zero(E3)
    for r in range(E3.dim + 1):
        part = a.grade_project(r)
        assert max_abs_diff(part.grade_project(r), part) == 0.0
        recomposed = recomposed + part
    assert max_abs_diff(recomposed, a) == 0.0
    with pytest.raises(ValueError):
        a.grade_project(4)
    with pytest.raises(ValueError):
        a.grade_project(-1)


def test_reverse_signs_by_grade():
    e1, e2, e3 = vecs(E3)
    assert max_abs_diff(e1.reverse(), e1) == 0.0
    assert max_abs_diff((e1 ^ e2).reverse(), -(e1 ^ e2)) == 0.0
    e123 = e1 ^ e2 ^ e3
    assert max_abs_diff(e123.reverse(), -e123) == 0.0


def test_reverse_is_involution_and_antihomomorphism():
    rng = np.random.default_rng(5)
    a = Multivector(E3, rng.uniform(-1, 1, E3.size))
    b = Multivector(E3, rng.uniform(-1, 1, E3.size))
    assert max_abs_diff(a.reverse().reverse(), a) == 0.0
    assert max_abs_diff((a * b).reverse(), b.reverse() * a.reverse()) < 1e-12


# -- algebraic invariants on random inputs -----------------------------------


@pytest.mark.parametrize("metric", [E3, Metric(3, (1.0, 1.0, -1.0)), Metric(4, (2.0, 1.0, -1.0, 1.0))])
def test_wedge_anticommutation_by_grades(metric):
    rng = np.random.default_rng(17)
    for _ in range(8):
        r = int(rng.integers(0, metric.dim + 1))
        s = int(rng.integers(0, metric.dim + 1))
        a = random_multivector(metric, r, rng)
        b = random_multivector(metric, s, rng)
        sign = -1.0 if (r * s) % 2 else 1.0
        assert max_abs_diff(a ^ b, sign * (b ^ a)) < 1e-12


def test_scalar_product_symmetry_on_same_grade():
    rng = np.random.default_rng(23)
    for grade in range(E3.dim + 1):
        a = random_multivector(E3, grade, rng)
        b = random_multivector(E3, grade, rng)
        assert abs(scalar_value(a, b) - scalar_value(b, a)) < 1e-14


def test_scalar_product_vanishes_across_grades():
    rng = np.random.default_rng(29)
    a = random_multivector(E3, 1, rng)
    b = random_multivector(E3, 2, rng)
    assert abs(scalar_value(a, b)) == 0.0


@pytest.mark.parametrize("metric", [E3, Metric(4, (1.0, -1.0, 1.0, 2.0))])
def test_geometric_product_associativity(metric):
    rng = np.random.default_rng(31)
    for _ in range(8):
        a = Multivector(metric, rng.uniform(-1, 1, metric.size))
        b = Multivector(metric, rng.uniform(-1, 1, metric.size))
        c = Multivector(metric, rng.uniform(-1, 1, metric.size))
        lhs = (a * b) * c
        rhs = a * (b * c)
        scale = max(1.0, lhs.norm_inf(), rhs.norm_inf())
        assert max_abs_diff(lhs, rhs) / scale < 1e-12


def test_wedge_associativity_and_grade_additivity():
    rng = np.random.default_rng(37)
    a = random_multivector(E3, 1, rng)
    b = random_multivector(E3, 1, rng)
    c = random_multivector(E3, 1, rng)
    assert max_abs_diff((a ^ b) ^ c, a ^ (b ^ c)) < 1e-13
    assert (a ^ b).is_homogeneous(2)
    assert ((a ^ b) ^ c).is_homogeneous(3)


@pytest.mark.parametrize("metric", [E3, Metric(3, (2.0, 1.0, -1.0))])
def test_contraction_expansion_identity(metric):
    # a _| (b ^ c) = (a.b) c - (a.c) b for vectors
    rng = np.random.default_rng(41)
    for _ in range(8):
        a = random_multivector(metric, 1, rng)
        b = random_multivector(metric, 1, rng)
        c = random_multivector(metric, 1, rng)
        lhs = a.lcontract(b ^ c)
        rhs = scalar_value(a, b) * c - scalar_value(a, c) * b
        assert max_abs_diff(lhs, rhs) < 1e-13


def test_contraction_grade_rules():
    e1, e2, _ = vecs(E3)
    # higher grade onto lower vanishes
    assert (e1 ^ e2).lcontract(e1).norm_inf() == 0.0
    # equal grades reduce to the scalar product
    b = e1 ^ e2
    assert max_abs_diff(b.lcontract(b), b.scalar_product(b)) == 0.0


# -- frames -------------------------------------------------------------------


def test_reciprocal_frame_examples():
    m2 = Metric.euclidean(2)
    e1, e2 = vecs(m2)
    # orthonormal Euclidean frames are self-reciprocal
    rec = reciprocal_frame([e1, e2])
    assert max_abs_diff(rec[0], e1) == 0.0
    assert max_abs_diff(rec[1], e2) == 0.0
    # {e1, e1+e2} -> {e1-e2, e2}, from solving the 2x2 Gram system
    rec = reciprocal_frame([e1, e1 + e2])
    assert max_abs_diff(rec[0], e1 - e2) < 1e-14
    assert max_abs_diff(rec[1], e2) < 1e-14
    # orthogonal but not normalized: f^k = e_k / g_kk
    weighted = Metric(2, (2.0, 1.0))
    f1, f2 = vecs(weighted)
    rec = reciprocal_frame([f1, f2])
    assert max_abs_diff(rec[0], 0.5 * f1) == 0.0
    assert max_abs_diff(rec[1], f2) == 0.0


def test_reciprocal_frame_biorthogonality_random():
    rng = np.random.default_rng(43)
    metric = Metric(3, (1.0, -1.0, 2.0))
    vectors = [random_multivector(metric, 1, rng) for _ in range(3)]
    rec = reciprocal_frame(vectors)
    for i in range(3):
        for j in range(3):
            assert abs(scalar_value(rec[i], vectors[j]) - (i == j)) < 1e-12


def test_reciprocal_frame_is_involutive():
    rng = np.random.default_rng(47)
    vectors = [random_multivector(E3, 1, rng) for _ in range(3)]
    back = reciprocal_frame(reciprocal_frame(vectors))
    for v, w in zip(vectors, back):
        assert max_abs_diff(v, w) < 1e-10


def test_degenerate_frame_raises():
    e1, e2, _ = vecs(E3)
    with pytest.raises(DegenerateFrameError):
        reciprocal_frame([e1, e2, e1 + e2])
    with pytest.raises(DegenerateFrameError):
        reciprocal_frame([e1, e2])  # wrong count
    with pytest.raises(DegenerateFrameError):
        reciprocal_frame([e1, e2, e1 ^ e2])  # wrong grade


def test_reciprocal_frame_of_values_at_every_dim():
    # the Gram system under a signed non-unit metric, n = 2..8
    rng = np.random.default_rng(61)
    for n in range(2, 9):
        metric = Metric(n, _SIGNED_DIAG[:n])
        vectors = [random_multivector(metric, 1, rng) for _ in range(n)]
        rec = reciprocal_frame(vectors)
        assert all(r.is_homogeneous(1) for r in rec)
        for i in range(n):
            for j in range(n):
                assert abs(scalar_value(rec[i], vectors[j]) - (i == j)) < 1e-11
        # a tangent block does not change the frame: it is the values' frame
        lifted = reciprocal_frame([v.with_tangent(vectors[0]) for v in vectors])
        for r, s in zip(rec, lifted):
            assert np.array_equal(r.values(), s.values())
            assert s.tangent_part().norm_inf() == 0.0


def test_reciprocal_frame_rejects_batches_and_mixed_metrics():
    e1, e2, e3 = vecs(E3)
    batch = Multivector(E3, np.stack([e1.values(), 2.0 * e1.values()]))
    with pytest.raises(DegenerateFrameError):
        reciprocal_frame([batch, e2, e3])
    other = basis_vectors(Metric(3, (1.0, 1.0, -1.0)))
    with pytest.raises(ConfigurationError):
        reciprocal_frame([e1, e2, other[2]])


def test_small_scale_frame_is_accepted():
    # |det G| = 1e-36 here, which a det-size guard took for degeneracy
    basis = vecs(Metric.euclidean(6))
    rec = reciprocal_frame([1e-3 * e for e in basis])
    for r, e in zip(rec, basis):
        assert max_abs_diff(r, 1e3 * e) < 1e-9


@st.composite
def _frame_and_scale(draw):
    """Small-integer frames (often exactly dependent) and a scale factor."""
    n = draw(st.integers(2, 6))
    diag = tuple(draw(st.sampled_from((1.0, -1.0, 2.0, -0.5))) for _ in range(n))
    metric = Metric(n, diag)
    vectors = []
    for _ in range(n):
        coeffs = [0.0] * metric.size
        for k in range(n):
            coeffs[1 << k] = float(draw(st.integers(-2, 2)))
        vectors.append(Multivector(metric, coeffs))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))  # s in [1e-4, 1e4], log-uniform
    return vectors, scale


def _accepted(vectors):
    try:
        reciprocal_frame(vectors)
    except DegenerateFrameError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(_frame_and_scale())
def test_frame_acceptance_is_scale_invariant(case):
    vectors, scale = case
    assert _accepted(vectors) == _accepted([scale * v for v in vectors])


def test_frame_sum_of_reciprocal_products_is_dimension():
    # sum_j f^j f_j = n for any frame and its reciprocal
    rng = np.random.default_rng(53)
    for metric in (E3, Metric(4, (1.0, 1.0, -1.0, 2.0))):
        vectors = [random_multivector(metric, 1, rng) for _ in range(metric.dim)]
        frame = Frame.from_vectors(vectors)
        total = Multivector.zero(metric)
        for v, r in zip(frame.vectors, frame.reciprocal):
            total = total + r * v
        assert max_abs_diff(total, Multivector.from_scalar(metric, metric.dim)) < 1e-12


def test_frame_blades_are_biorthogonal():
    rng = np.random.default_rng(59)
    vectors = [random_multivector(E3, 1, rng) for _ in range(3)]
    frame = Frame.from_vectors(vectors)
    for grade in range(E3.dim + 1):
        pairs = frame.blade_pairs(grade)
        for i, (_, recip) in enumerate(pairs):
            for j, (primal, _) in enumerate(pairs):
                assert abs(scalar_value(recip, primal) - (i == j)) < 1e-11


# -- blade bookkeeping ----------------------------------------------------------


def test_blade_basis_orders_and_counts():
    names = [b.name for b in blade_basis(E3, 2)]
    assert names == ["e12", "e13", "e23"]
    assert [b.name for b in blade_basis(E3, 0)] == ["1"]
    assert len(blade_basis(Metric.euclidean(4), 2)) == 6
    masks = [b.mask for b in blade_basis(Metric.euclidean(4), 2)]
    assert masks == sorted(masks)
    with pytest.raises(ValueError):
        blade_basis(E3, 4)


def test_blade_grade_and_name():
    blade = BasisBlade(0b101)
    assert blade.grade == 2
    assert blade.name == "e13"
    assert blade_name(0) == "1"


# -- random generation -----------------------------------------------------------


def test_random_multivector_is_deterministic_per_seed():
    a = random_multivector(E3, 1, 99)
    b = random_multivector(E3, 1, 99)
    assert max_abs_diff(a, b) == 0.0


def test_random_multivector_is_homogeneous():
    for grade in range(E3.dim + 1):
        mv = random_multivector(E3, grade, 7)
        assert mv.is_homogeneous(grade)
        assert max_abs_diff(mv.grade_project(grade), mv) == 0.0
    assert random_multivector(E3, 0, 3).grades() <= {0}


# -- the table-driven kernel against a pure-Python loop reference -----------------


def _reorder_sign(a: int, b: int) -> float:
    """Sign from reordering the concatenated generators of blades a, b."""
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1.0 if swaps & 1 else 1.0


def _reverse_sign(grade: int) -> float:
    return -1.0 if (grade * (grade - 1) // 2) & 1 else 1.0


@lru_cache(maxsize=None)
def _loop_signs(diag: tuple) -> dict:
    """kind -> size x size sign-and-weight rows, by the definitions, one pair at a time."""
    size = 1 << len(diag)
    weight = []
    for m in range(size):
        w = 1.0
        for k, g in enumerate(diag):
            if m >> k & 1:
                w *= g
        weight.append(w)
    tables = {kind: [[0.0] * size for _ in range(size)] for kind in PRODUCT_KINDS}
    for i in range(size):
        rev_i = _reverse_sign(i.bit_count())
        for j in range(size):
            s = _reorder_sign(i, j) * weight[i & j]
            tables["geometric"][i][j] = s
            if not i & j:
                tables["wedge"][i][j] = s
            if i & j == i:
                tables["lcontract"][i][j] = rev_i * s
        tables["scalar"][i][i] = weight[i]
    return tables


def _loop_product(diag: tuple, kind: str, a, b):
    """out[i ^ j] += s_ij a_i b_j over all blade pairs, plus the per-output
    sum of term magnitudes."""
    signs = _loop_signs(diag)[kind]
    out = [0.0] * len(a)
    mag = [0.0] * len(a)
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        row = signs[i]
        for j, bj in enumerate(b):
            s = row[j]
            if s and bj:
                term = s * ai * bj
                out[i ^ j] += term
                mag[i ^ j] += abs(term)
    return np.array(out), np.array(mag)


def _close(got, expected, mag):
    return bool(np.all(np.abs(got - expected) <= 64 * np.finfo(float).eps * mag))


@st.composite
def _product_case(draw):
    n = draw(st.integers(2, 8))
    diag = tuple(draw(st.lists(
        st.sampled_from((1.0, -1.0, 2.0, -0.5, 3.0, -1.25)), min_size=n, max_size=n
    )))
    kind = draw(st.sampled_from(PRODUCT_KINDS))
    rows = draw(st.sampled_from((1, 3)))
    sides = draw(st.sampled_from(("none", "left", "right", "both")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.2, 1.0)))

    def block(shape):
        return rng.uniform(-1.0, 1.0, shape) * (rng.random(shape) < density)

    size = 1 << n
    a, b = block(size), block(size)
    ta = block((rows, size)) if sides in ("left", "both") else None
    tb = block((rows, size)) if sides in ("right", "both") else None
    return diag, kind, a, b, ta, tb


def _lift(metric, values, tangents):
    x = Multivector(metric, values)
    if tangents is None:
        return x
    return x.with_tangents([Multivector(metric, row) for row in tangents])


@settings(max_examples=40, deadline=None)
@given(_product_case())
def test_product_kernel_matches_loop_reference(case):
    diag, kind, a, b, ta, tb = case
    metric = Metric(len(diag), diag)
    got = product(kind, _lift(metric, a, ta), _lift(metric, b, tb))
    value, mag = _loop_product(diag, kind, a, b)
    assert _close(got.values(), value, mag)
    rows = 0 if ta is None and tb is None else len(ta if ta is not None else tb)
    zero = np.zeros(metric.size)
    for r in range(rows):
        left, left_mag = _loop_product(diag, kind, ta[r], b) if ta is not None else (zero, zero)
        right, right_mag = _loop_product(diag, kind, a, tb[r]) if tb is not None else (zero, zero)
        assert _close(got.tangent_part(r).values(), left + right, left_mag + right_mag)
    if rows == 0:
        assert got.tangent_part().norm_inf() == 0.0


# -- batches: a leading axis of B multivectors, never with tangents ---------------


@st.composite
def _batched_case(draw):
    n = draw(st.integers(2, 6))
    diag = tuple(draw(st.lists(st.sampled_from((1.0, -1.0, 2.0, -0.5)), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(PRODUCT_KINDS))
    sides = draw(st.sampled_from(("left", "right", "both")))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << n
    a = rng.uniform(-1.0, 1.0, (rows, size) if sides in ("left", "both") else size)
    b = rng.uniform(-1.0, 1.0, (rows, size) if sides in ("right", "both") else size)
    return diag, kind, a, b, rows


@settings(max_examples=40, deadline=None)
@given(_batched_case())
def test_batched_product_rows_match_loop_reference(case):
    diag, kind, a, b, rows = case
    metric = Metric(len(diag), diag)
    got = product(kind, Multivector(metric, a), Multivector(metric, b))
    assert got.values().shape == (rows, metric.size)
    for r in range(rows):
        value, mag = _loop_product(diag, kind, a[r] if a.ndim == 2 else a,
                                   b[r] if b.ndim == 2 else b)
        assert _close(got.values()[r], value, mag)


def _batch(metric, rows):
    rng = np.random.default_rng(rows)
    return Multivector(metric, rng.uniform(-1.0, 1.0, (rows, metric.size)))


def test_batched_coefficients_are_arrays():
    x = _batch(E3, 4)
    assert x.coeff(3).shape == (4,)
    assert np.array_equal(x.scalar_part(), x.values()[:, 0])
    assert len(x.coeffs) == E3.size and x.coeffs[5].shape == (4,)
    s = np.array([1.0, -2.0, 0.0])
    b = Multivector.from_blade(E3, 0b011, s)
    assert b.values().shape == (3, E3.size)
    assert np.array_equal(b.coeff(0b011), s)
    assert b.grades() == {2} and b.is_homogeneous(2)
    assert np.array_equal(Multivector.from_scalar(E3, s).scalar_part(), s)



def test_coeff_rejects_out_of_range_masks():
    x = Multivector(E3, range(8))
    assert x.coeff(7) == 7.0
    for y in (x, x.with_tangent(x), _batch(E3, 2)):
        for mask in (-1, 8):
            with pytest.raises(ValueError):
                y.coeff(mask)


def test_from_blade_takes_only_unbatched_grade0_jets():
    e1, e2, _ = vecs(E3)
    jet = (3.0 * e1).with_tangents([e1, 2.0 * e2, -e1]).coeff(1)
    b = Multivector.from_blade(E3, 0b011, jet)
    assert b.coeff(0b011).values()[0] == 3.0
    assert [b.tangent_part(r).coeff(0b011) for r in range(3)] == [1.0, 0.0, -1.0]
    assert b.grades() == {2}
    assert max_abs_diff(Multivector.from_blade(E3, 1, Multivector.from_scalar(E3, 2.0)), 2.0 * e1) == 0.0
    scalar = Multivector.from_scalar(E3, 1.0)
    for bad in (e1, e1.with_tangent(e2), scalar.with_tangent(e1), _batch(E3, 2).grade_project(0)):
        with pytest.raises(ValueError):
            Multivector.from_blade(E3, 1, bad)


def test_floats_add_to_the_scalar_part():
    e1, e2, _ = vecs(E3)
    x = 2.0 * e1 + e2
    for y in (x, x.with_tangent(e2), _batch(E3, 2)):
        one = Multivector.from_scalar(E3, 1.0)
        for got, want in ((y + 1, y + one), (1.5 + y, one * 1.5 + y),
                          (y - 2.0, y - 2.0 * one), (2.0 - y, 2.0 * one - y)):
            assert np.array_equal(got.values(), want.values())
            assert max_abs_diff(got.tangent_part(), want.tangent_part()) == 0.0
    for bad in ("1", np.array([1.0, 2.0]), None):
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            bad - x


def test_array_factor_scales_rows_from_either_side():
    e1, e2, _ = vecs(E3)
    s = np.array([2.0, -1.0])
    for scaled in (s * e1, e1 * s):
        assert np.array_equal(scaled.values()[:, 1], s)
    doubled = s * (e1 + e2).geometric(_batch(E3, 2))
    plain = (e1 + e2).geometric(_batch(E3, 2))
    assert np.array_equal(doubled.values(), s[:, None] * plain.values())


def test_batch_support_spans_all_rows():
    e1, e2, e3 = vecs(E3)
    rows = np.stack([e1.values(), (e2 ^ e3).values()])
    x = Multivector(E3, rows)
    assert x.grades() == {1, 2}
    assert not x.is_homogeneous(1)
    vectors = x.grade_project(1).values()
    assert np.array_equal(vectors[0], e1.values()) and not vectors[1].any()


def test_batch_refuses_tangent_operands():
    e1, e2, _ = vecs(E3)
    jet = e1.with_tangent(e2)
    x = _batch(E3, 3)
    for kind in PRODUCT_KINDS:
        with pytest.raises(ValueError):
            product(kind, x, jet)
        with pytest.raises(ValueError):
            product(kind, jet, x)
    with pytest.raises(ValueError):
        x * jet.coeff(1)  # a grade-0 jet read off a tangent-carrying vector
    with pytest.raises(ValueError):
        jet * np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        x.with_tangents([e1])
    with pytest.raises(ValueError):
        e1.with_tangents([x])
    with pytest.raises(ValueError):
        x + jet


def test_batch_constructor_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        Multivector(E3, np.zeros((2, 7)))
    with pytest.raises(ValueError):
        Multivector(E3, np.zeros((2, 2, 8)))


def test_two_batched_product_rows_are_the_unbatched_kernel():
    # 19 rows at n = 8 cross several row chunks, the last one partial
    rng = np.random.default_rng(6)
    metric = Metric(8, (1.0, -1.0, 2.0, 1.0, -0.5, 1.0, 1.0, -1.0))
    for kind in PRODUCT_KINDS:
        for rows_a, rows_b in ((19, 19), (1, 19), (19, 1)):
            a = rng.uniform(-1.0, 1.0, (rows_a, metric.size))
            b = rng.uniform(-1.0, 1.0, (rows_b, metric.size))
            got = product(kind, Multivector(metric, a), Multivector(metric, b)).values()
            a, b = np.broadcast_arrays(a, b)
            expected = np.stack([
                product(kind, Multivector(metric, x), Multivector(metric, y)).values()
                for x, y in zip(a, b)
            ])
            assert np.array_equal(got, expected), (kind, rows_a, rows_b)


def test_two_batched_product_memory_is_bounded():
    metric = Metric(8)
    x = random_multivector(metric, 4, np.random.default_rng(7))
    square = MvFunction(1, 4, 0, lambda v: v.scalar_product(v))
    tracemalloc.start()
    try:
        # 140 perturbed points, each squared: x . x with both sides batched
        grad = grad_star(square, (x,), 0, step=1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # a whole-batch gather would take ~150 MB
    assert max_abs_diff(grad, 2.0 * x) < 1e-8


def test_two_batched_scalar_product_is_one_dot_per_row():
    # the same 140-point FD gradient of x . x as above, with no operator stack:
    # a few (140, 256) arrays, where a chunked gather peaked at 12-17 MB
    metric = Metric(8)
    x = random_multivector(metric, 4, np.random.default_rng(7))
    square = MvFunction(1, 4, 0, lambda v: v.scalar_product(v))
    _tables(metric)  # built once per metric, not part of the product's peak
    tracemalloc.start()
    try:
        grad = grad_star(square, (x,), 0, step=1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert max_abs_diff(grad, 2.0 * x) < 1e-8


# -- every route of the kernel at a fixed seed, n = 2..8 --------------------------

_TERMS = {"geometric": 4, "wedge": 3, "scalar": 2, "lcontract": 3}  # terms = base^n


@pytest.mark.parametrize("n", range(2, 9))
def test_each_kind_touches_only_its_nonzero_terms(n):
    tables = _tables(Metric(n, _SIGNED_DIAG[:n]))
    for kind, base in _TERMS.items():
        assert np.count_nonzero(tables.right[kind]) == base**n, kind
    assert "scalar" not in tables.kernels  # a weighted dot, no operator at all
    for kind, kernel in tables.kernels.items():
        # writing the terms pays once they are at most a quarter of the 4^n
        assert isinstance(kernel, _Scatter) == (kind != "geometric" and n >= 5), kind
        if isinstance(kernel, _Scatter):
            assert len(kernel.signs) == _TERMS[kind] ** n
            assert np.count_nonzero(kernel.signs) == len(kernel.signs)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_product_route_matches_loop_reference(n):
    """Each kind, under a signed non-unit metric, on one dense and one 20%-dense
    draw: float operands; a tangent block on the left, the right or both sides
    with 1 and 12 rows; a 12-row batch on the left, the right or both sides,
    which at n = 8 spans two row chunks of the two-batched route."""
    diag = _SIGNED_DIAG[:n]
    metric = Metric(n, diag)
    size = metric.size
    rng = np.random.default_rng(900 + n)
    for density in (1.0, 0.2):
        def draw(shape):
            return rng.uniform(-1.0, 1.0, shape) * (rng.random(shape) < density)

        a, b, ta, tb = draw(size), draw(size), draw((12, size)), draw((12, size))
        for kind in PRODUCT_KINDS:
            value = _loop_product(diag, kind, a, b)
            left = [_loop_product(diag, kind, row, b) for row in ta]
            right = [_loop_product(diag, kind, a, row) for row in tb]
            pairs = [_loop_product(diag, kind, x, y) for x, y in zip(ta, tb)]
            where = (n, density, kind)

            got = product(kind, Multivector(metric, a), Multivector(metric, b))
            assert _close(got.values(), *value), where
            assert got.tangent_part().norm_inf() == 0.0, where
            for m in (1, 12):
                for sides in ("left", "right", "both"):
                    x = _lift(metric, a, None if sides == "right" else ta[:m])
                    y = _lift(metric, b, None if sides == "left" else tb[:m])
                    got = product(kind, x, y)
                    assert _close(got.values(), *value), (*where, m, sides)
                    for r in range(m):
                        terms = [left[r]] * (sides != "right") + [right[r]] * (sides != "left")
                        expected = sum(t[0] for t in terms)
                        mag = sum(t[1] for t in terms)
                        assert _close(got.tangent_part(r).values(), expected, mag), (
                            *where, m, sides, r)
            for sides, x, y, rows in (("left", ta, b, left), ("right", a, tb, right),
                                      ("both", ta, tb, pairs)):
                got = product(kind, Multivector(metric, x), Multivector(metric, y)).values()
                assert got.shape == (12, size), (*where, sides)
                for r, (expected, mag) in enumerate(rows):
                    assert _close(got[r], expected, mag), (*where, sides, r)


def test_n8_products_hold_one_operator_at_a_time():
    # Two (256, 256) operators freed together can leave the allocator a free
    # top past its trim threshold, so that every later operator faults its
    # pages in afresh: about 85 minor page faults a product, seen at n = 8.
    metric = Metric(8, _SIGNED_DIAG)
    rng = np.random.default_rng(8)
    x, y, dx, dy = (Multivector(metric, rng.uniform(-1.0, 1.0, metric.size)) for _ in range(4))
    operator_bytes = metric.size * metric.size * 8
    for kind in PRODUCT_KINDS:
        for a, b in ((x, y), (x.with_tangent(dx), y.with_tangent(dy))):
            product(kind, a, b)  # the tables are built once, outside the peak
            tracemalloc.start()
            try:
                product(kind, a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * operator_bytes, (kind, peak / operator_bytes)


def test_products_reject_mismatched_tangent_blocks():
    # 1 and 2 rows would broadcast into a wrong (2,) tangent column of a dot
    e1, e2, e3 = vecs(E3)
    one, two = e1.with_tangents([e2]), e2.with_tangents([e1, e3])
    for kind in PRODUCT_KINDS:
        for x, y in ((one, two), (two, one)):
            with pytest.raises(ValueError):
                product(kind, x, y)


# -- the blade frame sum as one contraction ------------------------------------------


def _frames(metric, rng):
    vectors = [Extensor.random_invertible(metric, rng)(e) for e in basis_vectors(metric)]
    return {"orthonormal": Frame.orthonormal(metric), "random": Frame.from_vectors(vectors)}


@pytest.mark.parametrize("n,grade", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 3), (7, 1),
                                     (8, 4)])
def test_blade_sum_matches_product_loop(n, grade):
    rng = np.random.default_rng(100 + n)
    for diag in ((1.0,) * n, tuple(rng.choice((1.0, -1.0, 2.0, -0.5), n))):
        metric = Metric(n, diag)
        unit = all(abs(g) == 1.0 for g in diag)
        for name, frame in _frames(metric, rng).items():
            pairs = frame.blade_pairs(grade)
            rows = rng.uniform(-1.0, 1.0, (2, len(pairs), metric.size))
            weights = _tables(metric).weight
            for kind in PRODUCT_KINDS:
                got = frame.blade_sum(grade, kind, rows)
                assert got.shape == (2, metric.size)
                for b in range(2):
                    expected = Multivector.zero(metric)
                    scale = 0.0
                    for (_, recip), row in zip(pairs, rows[b]):
                        expected = expected + product(kind, recip, Multivector(metric, row))
                        scale += np.abs(recip.values()).sum() * np.abs(row).max()
                    scale *= np.abs(weights).max()
                    bound = 4 * (2 * len(pairs)) * np.finfo(float).eps * scale
                    assert np.abs(got[b] - expected.values()).max() <= bound, (name, kind)
                    if name == "orthonormal" and unit:
                        # one nonzero reciprocal coefficient per blade: same terms,
                        # same order, so the same bits as the loop
                        assert np.array_equal(got[b], expected.values()), kind
                assert np.array_equal(frame.blade_sum(grade, kind, rows[0]), got[0])


def test_blade_sum_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Frame.orthonormal(E3).blade_sum(1, "cross", np.zeros((3, E3.size)))


# -- wedge_all --------------------------------------------------------------------


def test_wedge_all_costs_one_product_fewer_than_its_factors(monkeypatch):
    calls = []
    kernel = Multivector._product

    def counting(self, kind, other):
        calls.append(kind)
        return kernel(self, kind, other)

    monkeypatch.setattr(Multivector, "_product", counting)
    rng = np.random.default_rng(5)
    metric = Metric(5, (1.0, -1.0, 2.0, 1.0, -0.5))
    factors = [random_multivector(metric, 1, rng) for _ in range(5)]
    for k in range(6):
        calls.clear()
        got = wedge_all(metric, factors[:k])
        assert len(calls) == max(k - 1, 0)
        # the old fold from the scalar 1 gives the same coefficients, bit for bit
        expected = Multivector.from_scalar(metric, 1.0)
        for f in factors[:k]:
            expected = kernel(expected, "wedge", f)
        assert np.array_equal(got.values(), expected.values())
