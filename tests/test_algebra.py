import itertools
import re
import tracemalloc
import warnings
from functools import lru_cache
from math import comb

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
from extcalc import algebra
from extcalc.algebra import (_compound, _sum_rows, _tables, _terms, _uniform,
                             product_sum)
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


def test_equal_metrics_hash_equal_and_share_one_table_entry():
    a = Metric(5, (2, -1, 0.5, -3, 1))
    b = Metric(5, (2.0, -1.0, 0.5, -3.0, 1.0))
    assert a == b and a is not b and hash(a) == hash(b)
    tables = _tables(a)
    before = _tables.cache_info()
    assert _tables(b) is tables
    after = _tables.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert after.currsize == before.currsize
    assert Metric(5) != a and _tables(Metric(5)) is not tables


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf")])
def test_metric_rejects_non_finite_entries(entry):
    with pytest.raises(ConfigurationError):
        Metric(3, (entry, 1.0, 1.0))


@pytest.mark.parametrize("diag", [("a", 1, 1), (None, 1, 1), ([1.0], 1, 1), 5, "121", b"121"],
                         ids=["string", "none", "list", "not-iterable", "digits", "bytes"])
def test_metric_entries_that_are_no_numbers_name_the_metric(diag):
    # float("a") raised its bare "could not convert string to float" here,
    # and the string "121" was taken as the metric (1, 2, 1)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"metric entries for dim 3 must be real numbers, got {diag!r}")):
        Metric(3, diag)


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


def test_or_is_the_scalar_product_and_coeffs_are_floats():
    e1, e2, _ = vecs(E3)
    x, y = 2.0 * e1 + e2, e1 - 3.0 * e2
    assert max_abs_diff(x | y, x.scalar_product(y)) == 0.0
    assert scalar_value(x, y) == -1.0
    assert x.coeffs == (0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert all(type(c) is float for c in x.coeffs)


def test_repr_of_values_batches_stacks_and_maps():
    e1, e2, e3 = vecs(E3)
    assert repr(Multivector.from_scalar(E3, 1.5) + 2.0 * e1 - 0.25 * (e1 ^ e2)) == (
        "1.5 + 2*e1 + -0.25*e12")
    assert repr(Multivector.zero(E3)) == "0"
    assert repr(Multivector(E3, 0.5 * np.eye(8)[[1, 2]])) == "[0.5*e1, 0.5*e2]"
    assert repr(Multivector.stack([e1, 3.0 * e2])) == "{1*e1; 3*e2}"
    batches = Multivector._raw(E3, np.stack([np.eye(8)[[1, 2]], np.eye(8)[[2, 4]]]))
    assert repr(batches) == "{[1*e1, 1*e2]; [1*e2, 1*e3]}"
    assert repr(Extensor.identity(E3, 2)) == "Extensor(p=2, q=2, dim=3)"


def test_empty_frames_and_stacks_are_rejected():
    with pytest.raises(DegenerateFrameError, match="empty frame"):
        Frame.from_vectors([])
    with pytest.raises(ValueError, match="need at least one multivector to stack"):
        Multivector.stack([])


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


def test_a_non_finite_frame_is_degenerate():
    # a NaN or inf coordinate reached the SVD, which raised LinAlgError, not a ValueError
    e1, e2, e3 = vecs(E3)
    for bad in (np.nan, np.inf):
        v = Multivector.from_blade(E3, 0b001, bad)
        for vectors in ([v, e2, e3], [Multivector.stack([e1, v]), e2, e3]):
            with pytest.raises(DegenerateFrameError, match="must be finite"):
                Frame.from_vectors(vectors)


def test_frame_coordinates_are_two_n_by_n_matrices_of_one_shape():
    # Frame(E3, eye(2), eye(2)) was built, and its vectors failed inside numpy
    for coords, recip in ((np.eye(2), np.eye(2)), (np.eye(3), np.ones((2, 3, 3))),
                          (np.ones(3), np.ones(3)), (np.ones((1, 2, 3, 3)),) * 2):
        with pytest.raises(DegenerateFrameError, match=re.escape("(3, 3) or (T, 3, 3)")):
            Frame(E3, coords, recip)
    stacked = np.stack([np.eye(3), 2.0 * np.eye(3)])
    assert Frame(E3, stacked, stacked).vectors[0].coeff(0b001).tolist() == [[1.0], [2.0]]


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


def test_a_frame_is_its_read_only_coordinate_matrices():
    # from_vectors keeps the vectors' grade-1 coordinates only: its vectors,
    # like its reciprocals, are value-only and carry grade 1, and the
    # coordinate matrices it stores are read-only copies
    metric = Metric(4, _SIGNED_DIAG[:4])
    rng = np.random.default_rng(62)
    vectors = [random_multivector(metric, 1, rng) for _ in range(4)]
    frame = Frame.from_vectors([v.with_tangent(vectors[0]) for v in vectors])
    for got, v in zip(frame.vectors, vectors):
        assert np.array_equal(got.values(), v.values())
    assert all(v._tangents is None and v._bits == 1 << 1
               for v in frame.vectors + frame.reciprocal)
    masks = [1 << k for k in range(4)]
    assert np.array_equal(frame.coords, np.stack([v.values()[masks] for v in vectors]))
    assert np.array_equal(frame.recip, np.stack([r.values()[masks] for r in frame.reciprocal]))
    for rows in (frame.coords, frame.recip):
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
    with pytest.raises(AttributeError):
        frame.coords = np.eye(4)
    given = np.eye(4)
    made = Frame(metric, given, given)
    given[0, 0] = 2.0
    assert made.coords[0, 0] == made.recip[0, 0] == 1.0


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


def test_a_frame_is_accepted_at_any_uniform_scale():
    # the Gram matrix of 1e200 e_k overflowed in matmul, an error under
    # -W error, and that of 1e-200 e_k underflowed to a "dependent" frame;
    # a power-of-two scale now scales the reciprocals back bit for bit
    metric = Metric(3, _SIGNED_DIAG[:3])
    rng = np.random.default_rng(63)
    vectors = [random_multivector(metric, 1, rng) for _ in range(3)]
    base = Frame.from_vectors(vectors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (665, -665):  # 2^665 is about 1.1e200
            frame = Frame.from_vectors([np.ldexp(1.0, k) * v for v in vectors])
            assert frame.recip.tobytes() == np.ldexp(base.recip, -k).tobytes()
        for scale in (1e200, 1e-200):
            frame = Frame.from_vectors([scale * e for e in vecs(E3)])
            assert np.allclose(scale * frame.recip, np.eye(3), rtol=1e-15, atol=0.0)
        # one vector 1e200 times the others is dependent to working precision
        e1, e2, e3 = vecs(E3)
        with pytest.raises(DegenerateFrameError, match="dependent"):
            Frame.from_vectors([1e200 * e1, e2, e3])
        # a subnormal frame's reciprocals are past the largest float
        with pytest.raises(DegenerateFrameError, match="overflows"):
            Frame.from_vectors([1e-310 * e for e in (e1, e2, e3)])


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
        primals, recips = frame.blades(grade)
        for i, recip in enumerate(recips):
            for j, primal in enumerate(primals):
                assert abs(scalar_value(Multivector(E3, recip), Multivector(E3, primal)) - (i == j)) < 1e-11


def _wedge_loop_blade(frame, vectors, mask):
    """The frame blade of a mask as a wedge loop over the chosen vectors."""
    n = frame.metric.dim
    return wedge_all(frame.metric, [vectors[k] for k in range(n) if mask >> k & 1]).values()


@pytest.mark.parametrize("n", range(2, 9))
def test_frame_blades_match_wedge_loop_reference(n):
    # every grade, primal and reciprocal, orthonormal and random frames,
    # under a signed non-unit metric whose reciprocals are not powers of two
    metric = Metric(n, (2.0, -3.0, 0.5, -1.0, 1.25, -0.7, 3.0, -0.5)[:n])
    rng = np.random.default_rng(70 + n)
    for name, frame in _frames(metric, rng).items():
        for grade in range(n + 1):
            blades = frame.blades(grade)
            masks = [m for m in range(metric.size) if m.bit_count() == grade]
            for arr, vectors in zip(blades, (frame.vectors, frame.reciprocal)):
                assert arr.shape == (len(masks), metric.size) and not arr.flags.writeable
                for row, mask in zip(arr, masks):
                    ref = _wedge_loop_blade(frame, vectors, mask)
                    assert np.abs(row - ref).max() <= 1e-13 * np.abs(ref).max(), (name, grade)
                    if name == "orthonormal":
                        # one nonzero minor, the pivots' product: the loop's bits
                        assert np.array_equal(row, ref), (grade, mask)
            assert frame.blades(grade) is blades  # cached per grade
    with pytest.raises(ValueError):
        frame.blades(n + 1)


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
    assert blade_name(np.int64(6)) == "e23"
    assert BasisBlade(np.int64(6)) == BasisBlade(6)


@pytest.mark.parametrize("mask", [-1, -6, True, False, 1.0, "1", None])
def test_a_blade_mask_is_a_non_negative_integer(mask):
    # -1 read as e1 and True as e1 before; 1.0 raised a bare AttributeError
    with pytest.raises(ValueError, match="non-negative integer"):
        blade_name(mask)
    with pytest.raises(ValueError, match="non-negative integer"):
        BasisBlade(mask)
    # True indexed every coefficient: a dense multivector carrying grade 1
    with pytest.raises(ValueError, match="non-negative integer"):
        Multivector.from_blade(E3, mask)
    with pytest.raises(ValueError, match="non-negative integer"):
        random_multivector(E3, 1, 0).coeff(mask)


# -- random generation -----------------------------------------------------------


def test_random_multivector_is_deterministic_per_seed():
    a = random_multivector(E3, 1, 99)
    b = random_multivector(E3, 1, 99)
    assert max_abs_diff(a, b) == 0.0


def test_compounds_of_grade_zero_and_one_are_exact():
    m = np.random.default_rng(4).uniform(-1.0, 1.0, (4, 4))
    m[0, 1] = -0.0
    assert np.array_equal(_compound(m, 0), [[1.0]])
    one = _compound(m, 1)
    assert np.array_equal(one, m) and np.signbit(one[0, 1]) and one is not m
    for grade in (-1, 5):
        with pytest.raises(ValueError):
            _compound(m, grade)


def _minor_compound(m, grade):
    """The compound by one np.linalg.det per minor: the reference."""
    n = len(m)
    sets = [[j for j in range(n) if mask >> j & 1] for mask in range(1 << n)
            if mask.bit_count() == grade]
    return np.array([[np.linalg.det(m[np.ix_(rows, cols)]) if grade else 1.0 for cols in sets]
                     for rows in sets])


@pytest.mark.parametrize("n", range(2, 9))
def test_compound_matches_determinants_of_minors(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(2):
        m = np.eye(n) + 0.5 * rng.uniform(-1.0, 1.0, (n, n))
        for grade in range(n + 1):
            got, ref = _compound(m, grade), _minor_compound(m, grade)
            assert got.shape == ref.shape == (comb(n, grade),) * 2
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), grade


@pytest.mark.parametrize("n", range(2, 9))
def test_compound_is_multiplicative(n):
    # Cauchy-Binet: the compound of a product is the product of the compounds
    rng = np.random.default_rng(80 + n)
    a, b = (np.eye(n) + 0.5 * rng.uniform(-1.0, 1.0, (n, n)) for _ in range(2))
    for grade in range(n + 1):
        left = _compound(a @ b, grade)
        right = _compound(a, grade) @ _compound(b, grade)
        scale = (np.abs(_compound(a, grade)) @ np.abs(_compound(b, grade))).max()
        assert np.abs(left - right).max() <= 1e-13 * scale, grade


def _counting_laplace_steps(monkeypatch) -> list:
    """The grade of every Laplace step taken from now on, in order."""
    steps, step = [], algebra._laplace_step
    monkeypatch.setattr(algebra, "_laplace_step",
                        lambda matrix, smaller, k: steps.append(k) or step(matrix, smaller, k))
    return steps


@pytest.mark.parametrize("n", range(2, 9))
def test_a_compound_after_a_lower_one_takes_only_the_missing_steps(monkeypatch, n):
    # a cascade keeps the compounds it has built: grade n after grade k is
    # n - k more Laplace steps, each compound bit for bit _compound's own
    rng = np.random.default_rng(70 + n)
    for matrix in (rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, (3, n, n))):
        fresh = [_compound(matrix, grade) for grade in range(n + 1)]
        steps = _counting_laplace_steps(monkeypatch)
        for k in range(1, n + 1):
            cascade = [np.array(matrix)]
            _compound(matrix, k, cascade)
            steps.clear()
            got = _compound(matrix, n, cascade)
            assert steps == list(range(k + 1, n + 1)), k
            assert got.tobytes() == fresh[n].tobytes()
            for grade, compound in enumerate(cascade, 1):
                assert compound.tobytes() == fresh[grade].tobytes(), (k, grade)
        monkeypatch.undo()


@pytest.mark.parametrize("n", range(2, 9))
def test_frame_blades_build_each_grade_from_the_one_below(monkeypatch, n):
    # after grade k, grade n takes n - k steps on each side, primal and
    # reciprocal, and gives what a frame asked for grade n first gives
    metric = Metric(n, _SIGNED_DIAG[:n])
    carrier = Extensor.random_invertible(metric, np.random.default_rng(60 + n))
    vectors = [carrier(e) for e in basis_vectors(metric)]
    for k in range(1, n + 1):
        want = Frame.from_vectors(vectors).blades(n)
        frame = Frame.from_vectors(vectors)
        frame.blades(k)
        steps = _counting_laplace_steps(monkeypatch)
        got = frame.blades(n)
        monkeypatch.undo()
        assert steps == 2 * list(range(k + 1, n + 1)), k
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("n", range(2, 9))
def test_coordinate_frame_blades_are_exact_signs(n):
    # the identity's compounds, and so the coordinate frame's blades, are 0 and 1
    metric = Metric(n, _SIGNED_DIAG[:n])
    masks = _tables(metric).blades
    for grade in range(n + 1):
        assert np.array_equal(_compound(np.eye(n), grade), np.eye(comb(n, grade)))
        primal = Frame.orthonormal(metric).blades(grade)[0]
        expected = np.zeros((comb(n, grade), metric.size))
        expected[np.arange(comb(n, grade)), masks[grade]] = 1.0
        assert np.array_equal(primal, expected), grade
    flip = np.eye(n)[::-1]  # a permutation: every minor 0 or +-1
    for grade in range(n + 1):
        assert set(np.unique(_compound(flip, grade))) <= {-1.0, 0.0, 1.0}
    for grade in (-1, n + 1, n + 2):
        with pytest.raises(ValueError):
            _compound(np.eye(n), grade)


def test_random_multivector_is_homogeneous():
    for grade in range(E3.dim + 1):
        mv = random_multivector(E3, grade, 7)
        assert mv.is_homogeneous(grade)
        assert max_abs_diff(mv.grade_project(grade), mv) == 0.0
    assert random_multivector(E3, 0, 3).grades() <= {0}


def test_random_multivector_draws_like_one_uniform_per_mask():
    # one vectorised draw: the same values, and the generator left in the same state
    metric = Metric(5, (2.0, -1.0, 0.5, -3.0, 1.0))
    for grade in range(metric.dim + 1):
        rng, reference = np.random.default_rng(17), np.random.default_rng(17)
        got = random_multivector(metric, grade, rng)
        expected = np.zeros(metric.size)
        for mask in range(metric.size):
            if mask.bit_count() == grade:
                expected[mask] = float(reference.uniform(-1.0, 1.0))
        assert np.array_equal(got.values(), expected)
        assert rng.uniform() == reference.uniform()


@pytest.mark.parametrize("grade", [-1, 4])
def test_random_multivector_rejects_grade_out_of_range(grade):
    with pytest.raises(ValueError):
        random_multivector(E3, grade, 0)


@pytest.mark.parametrize("grade", [True, False, 1.0, np.float64(2.0), "1", None])
def test_grades_are_integers_and_a_rejected_draw_draws_nothing(grade):
    # True used to draw grade 1 silently and 1.0 to fail on a tuple index;
    # the grade is named, and the generator is left where it was
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(f"grade must be an integer, got {grade!r}")):
        random_multivector(E3, grade, rng)
    assert rng.bit_generator.state == before
    for reject in (lambda: Multivector.from_scalar(E3, 1.0).grade_project(grade),
                   lambda: product_sum(E3, ("wedge",), grade, np.zeros((3, 8)), np.zeros((3, 8))),
                   lambda: _compound(np.eye(3), grade)):
        with pytest.raises(ValueError, match="grade must be an integer"):
            reject()


def test_numpy_integer_grades_are_grades():
    rng, reference = np.random.default_rng(8), np.random.default_rng(8)
    got = random_multivector(E3, np.int64(2), rng)
    assert got.values().tobytes() == random_multivector(E3, 2, reference).values().tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_uniform_is_numpys_uniform_bit_for_bit(n):
    # 2u - 1 of u = rng.random(shape) is rng.uniform(-1.0, 1.0, shape): the
    # same doubles, and the generator left in the same state, at every size
    # a draw of this library takes, C(n, k) and 2^n, and at a matrix shape
    sizes = sorted({comb(n, k) for k in range(n + 1)} | {2**n})
    for seed in range(40):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for shape in sizes + [(n, n), (comb(n, 2), n)]:
            got = _uniform(rng.random(shape))
            assert got.tobytes() == reference.uniform(-1.0, 1.0, shape).tobytes()
            assert rng.bit_generator.state == reference.bit_generator.state


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
    with pytest.raises(TypeError, match="expected a Multivector, got float"):
        e1.geometric(2.0)


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


def _homogeneity_cases():
    e1, e2, e3 = vecs(E3)
    nan_vector = np.zeros(8)
    nan_vector[[1, 2]] = [np.nan, 1.0]
    nan_bivector = np.zeros(8)
    nan_bivector[[1, 3]] = [1.0, np.nan]
    return {
        "zero": Multivector.zero(E3),
        "scalar": Multivector.from_scalar(E3, 2.0),
        "vector": e1 + 2.0 * e2,
        "mixed": e1 + (e2 ^ e3),
        "batch": Multivector(E3, np.stack([e1.values(), (e2 ^ e3).values()])),
        "vector-batch": Multivector(E3, np.stack([e1.values(), e3.values()])),
        "vector-tangent": e1.with_tangents([e2, e3]),
        "bivector-tangent": e1.with_tangent(e2 ^ e3),
        "zero-tangent": Multivector.zero(E3).with_tangent(e2),
        "nan-vector": Multivector(E3, nan_vector),
        "nan-off-grade": Multivector(E3, nan_bivector),
    }


@pytest.mark.parametrize("case", sorted(_homogeneity_cases()))
def test_is_homogeneous_matches_the_support(case):
    x = _homogeneity_cases()[case]
    support = x.values() != 0.0
    if support.ndim == 2:
        support = support.any(axis=0)
    if x._tangents is not None:
        support |= (x._tangents != 0.0).any(axis=0)
    grades = _tables(E3).grades
    for grade in (-1, 0, 1, 2, 3, 4, 1.0, 0.5):
        expected = not support[grades != grade].any()
        assert x.is_homogeneous(grade) == expected, grade


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


def test_raw_constructor_keeps_batches_and_tangent_blocks_apart():
    # the one place the rule is raised: a batch with any block, or a block not 2-d
    e1, e2, _ = vecs(E3)
    for values, block in (
        (_batch(E3, 3)._values, e1._values[None]),
        (e1._values, np.stack([_batch(E3, 2)._values])),
        (e1._values, e2._values),
    ):
        with pytest.raises(ValueError, match="cannot carry or meet a tangent block"):
            Multivector._raw(E3, values, block)


def test_batch_constructor_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        Multivector(E3, np.zeros((2, 7)))
    with pytest.raises(ValueError):
        Multivector(E3, np.zeros((2, 2, 8)))


def test_two_batched_product_rows_are_the_unbatched_kernel():
    # 19 rows at n = 8, and a batch of one broadcast against 19 on either side
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
    # a few (140, 256) arrays, where a stack of row operators peaked at 12-17 MB
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


def _term_columns(terms, size):
    """Each column of a term list's blocks, side by side as the kernel sums
    them: its terms (i, j, s) before the padding, j read back from the
    y, -y, 0 y encoding of signs that are all 1 or -1."""
    columns = []
    for block_i, block_j, block_s in terms.groups:
        block_i = np.broadcast_to(block_i, block_j.shape)
        for c in range(block_j.shape[1]):
            real = block_s[:, c] != 0.0
            k = int(real.sum())
            assert real[:k].all()  # the padding comes last
            j = block_j[:k, c]
            if terms.signed:  # j reads y, -y or, for the padding, 0 y
                assert np.array_equal(j // size, block_s[:k, c] < 0.0)
                assert np.all(block_j[k:, c] == 2 * size)
                j = j % size
            columns.append(list(zip(block_i[:k, c].tolist(), j.tolist(),
                                    block_s[:k, c].tolist())))
    return columns


@pytest.mark.parametrize("n", range(2, 9))
def test_each_kind_touches_only_its_nonzero_terms(n):
    # the term list of every (kind, p, q) holds exactly the table's nonzero
    # pairs of those grades, signs bit for bit; output o reads the column of
    # its terms in increasing i, and an output without terms a column of
    # padding alone; the lists of all (p, q) hold base^n terms
    diag = _SIGNED_DIAG[:n]
    metric, size, signs = Metric(n, diag), 1 << n, _loop_signs(diag)
    masks = [[m for m in range(size) if m.bit_count() == g] for g in range(n + 1)]
    for kind, base in _TERMS.items():
        if kind == "scalar":  # a weighted dot per row, no term list
            continue
        total = 0
        for p, q in np.ndindex(n + 1, n + 1):
            terms = _terms(metric, kind, 1 << p, 1 << q)
            columns = _term_columns(terms, size)
            by_output = [[] for _ in range(size)]
            for i in masks[p]:  # in increasing i
                for j in masks[q]:
                    if signs[kind][i][j]:
                        by_output[i ^ j].append((i, j, signs[kind][i][j]))
            gather = range(size) if terms.gather is None else terms.gather
            assert [columns[c] for c in gather] == by_output, (kind, p, q)
            total += sum(map(len, by_output))
        assert total == base**n, kind


@pytest.mark.parametrize("n", range(2, 9))
def test_gather_left_signs_are_the_left_tables(n):
    # the factor a term gathers for the left operand's coefficient a_i is
    # s b_j with s = S[i, j], the left table L[j, i ^ j] of the pair, bit for
    # bit: multiplied by s, or read from b, -b or 0 b when every sign is 1 or
    # -1 (the wedge's, and every sign under a metric of +-1s)
    rng = np.random.default_rng(40 + n)
    size = 1 << n
    b = rng.uniform(-1.0, 1.0, size)
    signed_b = (b[None, :] * np.array([1.0, -1.0, 0.0])[:, None]).ravel()
    for diag in (_SIGNED_DIAG[:n], tuple(np.sign(_SIGNED_DIAG[:n]))):
        metric, signs = Metric(n, diag), _loop_signs(diag)
        left = {kind: np.array([[signs[kind][j ^ k][j] for k in range(size)]
                                for j in range(size)])
                for kind in ("geometric", "wedge", "lcontract")}
        unit = all(abs(g) == 1.0 for g in diag)
        for kind in left:
            terms = _terms(metric, kind, (1 << n + 1) - 1, (1 << n + 1) - 1)
            long = sum(block_j.size for _, block_j, _ in terms.groups) >= 4096
            assert terms.signed == (long and (unit or kind == "wedge")), (kind, diag)
            for block_i, block_j, block_s in terms.groups:
                real = block_s != 0.0
                if terms.signed:  # a zero term's sign of zero is free
                    j = block_j % size
                    got = signed_b[block_j]
                    assert got[real].tobytes() == (b[j] * block_s)[real].tobytes(), kind
                    assert not got[~real].any(), kind
                    block_j = j
                i = np.broadcast_to(block_i, block_j.shape)
                table = left[kind][block_j[real], (i ^ block_j)[real]]
                assert table.tobytes() == block_s[real].tobytes(), kind


def _route_cases():
    """(left, right) operands of every layout, each side (values, tangents)
    indices into a pool of rows: 0 is a, 1 is b, 2..13 the rows ta and
    14..25 the rows tb.  Values are () unstacked, (B,) a point batch and
    (T, P) a trial stack; tangents (m,) or (T, m), or None.  Every product
    of two pool rows they take is a, b, ta[r] or tb[r] against a, b or the
    same r of the other block."""
    a, b, ta, tb = np.array(0), np.array(1), np.arange(2, 14), np.arange(14, 26)
    three_a, three_b = np.zeros((3, 1), dtype=int), np.ones((3, 1), dtype=int)
    nine_a, nine_b = np.zeros((9, 1), dtype=int), np.ones((9, 1), dtype=int)
    cases = [((a, None), (b, None))]
    for m in (1, 12):  # unstacked tangent blocks on the left, the right or both sides
        cases += [((a, ta[:m]), (b, None)), ((a, None), (b, tb[:m])),
                  ((a, ta[:m]), (b, tb[:m]))]
    return cases + [
        # point batches of 12 or of one, on either side or both (row pairs, a
        # batch of one broadcast)
        ((ta, None), (b, None)), ((a, None), (tb, None)), ((ta, None), (tb, None)),
        ((a[None], None), (b, None)), ((a, None), (b[None], None)),
        ((a[None], None), (tb, None)), ((ta, None), (b[None], None)),
        ((a[None], None), (b[None], None)),
        # trial stacks of 3 with P = 1, against an unstacked side or each other
        ((ta[:3, None], None), (b, None)), ((a, None), (tb[:3, None], None)),
        ((ta[:3, None], None), (tb[:3, None], None)),
        # ... with 2-row tangent blocks on either side or both, and an
        # unstacked block broadcast over the trials
        ((ta[:3, None], ta[3:9].reshape(3, 2)), (b, None)),
        ((a, None), (tb[:3, None], tb[3:9].reshape(3, 2))),
        ((three_a, ta[:6].reshape(3, 2)), (three_b, tb[:6].reshape(3, 2))),
        ((three_a, ta[:6].reshape(3, 2)), (b, tb[:2])),
        # trial stacks of 9, more trials than the 2^2 and 2^3 blades, against
        # an unstacked side or each other, with one-row tangent blocks
        ((ta[:9, None], ta[3:, None]), (b, None)), ((a, None), (tb[:9, None], tb[3:, None])),
        ((ta[:9, None], None), (tb[:9, None], None)),
        ((nine_a, ta[:9, None]), (nine_b, tb[:9, None])),
        # trial stacks of 3 batches of 4
        ((ta.reshape(3, 4), None), (b, None)), ((ta.reshape(3, 4), None), (three_b, None)),
        ((a, None), (tb.reshape(3, 4), None)), ((ta.reshape(3, 4), None), (tb.reshape(3, 4), None)),
    ]


def _as_trials(index):
    """Pool indices as (T, P) or (T, m): an unstacked side is one trial."""
    return index.reshape((1,) * (2 - index.ndim) + index.shape)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_product_route_matches_loop_reference(n):
    """Each kind, under a signed non-unit metric, on one dense and one 20%-dense
    draw, in every operand layout of _route_cases: each result has the
    operands' layout (a trial stack if either side is one, else a point batch
    if either is one), its tangent block the layout's, and each value row and
    tangent row matches the loop reference."""
    diag = _SIGNED_DIAG[:n]
    metric = Metric(n, diag)
    size = metric.size
    rng = np.random.default_rng(900 + n)
    for density in (1.0, 0.2):
        def draw(shape):
            return rng.uniform(-1.0, 1.0, shape) * (rng.random(shape) < density)

        pool = np.vstack([draw(size), draw(size), draw((12, size)), draw((12, size))])
        for kind in PRODUCT_KINDS:
            loops = {}

            def loop(i, j):
                if (i, j) not in loops:
                    loops[i, j] = _loop_product(diag, kind, pool[i], pool[j])
                return loops[i, j]

            for case, sides in enumerate(_route_cases()):
                where = (n, density, kind, case)
                x, y = (Multivector._raw(metric, pool[v], None if t is None else pool[t])
                        for v, t in sides)
                got = product(kind, x, y)
                (va, ta), (vb, tb) = sides
                va2, vb2 = np.broadcast_arrays(_as_trials(va), _as_trials(vb))
                lead = va2.shape[2 - max(va.ndim, vb.ndim):]  # the operands' layout
                assert got._values.shape == lead + (size,), where
                values = got._values.reshape(va2.shape + (size,))
                for t, p in np.ndindex(va2.shape):
                    assert _close(values[t, p], *loop(va2[t, p], vb2[t, p])), (*where, t, p)
                if ta is None and tb is None:
                    assert got._tangents is None, where
                    continue
                ta2, tb2 = (None if block is None else _as_trials(block) for block in (ta, tb))
                blocks = [block for block in (ta2, tb2) if block is not None]
                trials, m = max(len(block) for block in blocks), blocks[0].shape[1]
                stacked = max(va.ndim, vb.ndim) == 2
                assert got._tangents.shape == (trials,) * stacked + (m, size), where
                tangents = got._tangents.reshape(trials, m, size)
                for t, r in np.ndindex(trials, m):  # a block of one trial broadcasts
                    terms = []
                    if ta2 is not None:
                        terms.append(loop(ta2[t % len(ta2), r], vb2[t, 0]))
                    if tb2 is not None:
                        terms.append(loop(va2[t, 0], tb2[t % len(tb2), r]))
                    expected, mag = sum(v for v, _ in terms), sum(g for _, g in terms)
                    assert _close(tangents[t, r], expected, mag), (*where, t, r)


def test_n8_products_hold_one_gathered_block_at_a_time():
    # a dense n = 8 product gathers at most one (4^n) block of the right
    # side's terms at a time, for its values or for its tangent rows
    metric = Metric(8, _SIGNED_DIAG)
    rng = np.random.default_rng(8)
    x, y, dx, dy = (Multivector(metric, rng.uniform(-1.0, 1.0, metric.size)) for _ in range(4))
    block_bytes = metric.size * metric.size * 8
    for kind in PRODUCT_KINDS:
        for a, b in ((x, y), (x.with_tangent(dx), y.with_tangent(dy))):
            product(kind, a, b)  # the term list is built once, outside the peak
            tracemalloc.start()
            try:
                product(kind, a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * block_bytes, (kind, peak / block_bytes)


def test_products_reject_mismatched_tangent_blocks():
    # 1 and 2 rows would broadcast into a wrong (2,) tangent column of a dot
    e1, e2, e3 = vecs(E3)
    one, two = e1.with_tangents([e2]), e2.with_tangents([e1, e3])
    for kind in PRODUCT_KINDS:
        for x, y in ((one, two), (two, one)):
            with pytest.raises(ValueError):
                product(kind, x, y)


# -- a grade-0 operand scales ---------------------------------------------------------

# (values, tangents) leading shapes of a side: unstacked, with and without a
# 2-row tangent block; a point batch of 4; trial stacks of 6 (more trials
# than blades at n = 2), with and without 2-row blocks; 6 batches of 4
_SCALING_LAYOUTS = [((), None), ((), (2,)), ((4,), None), ((6, 1), None), ((6, 1), (6, 2)),
                    ((6, 4), None)]


def _scaling_pairs():
    """(scalar layout, other layout) pairs that combine: a tangent block
    meets no point batch."""
    for s, y in itertools.product(_SCALING_LAYOUTS, repeat=2):
        batched = any(len(lead) == 1 or lead[1:] == (4,) for lead, _ in (s, y))
        if not (batched and (s[1] or y[1])):
            yield s, y


def _scaling_sides(metric, rng, bits, s_layout, y_layout, special=False):
    """A grade-0 multivector carrying bits 1 and one carrying `bits`, in the
    layouts given, with signed zeros among their entries; `special` puts an
    inf and a NaN among the other one's."""
    size, grades = metric.size, _tables(metric).grade_bits

    def rows(lead, on):
        values = rng.uniform(-2.0, 2.0, lead + (size,)) * on
        values[rng.random(values.shape) < 0.2] = -0.0
        return np.where(on, values, rng.choice([0.0, -0.0], values.shape))
    (sv, st), (yv, yt) = s_layout, y_layout
    scalar, other = grades == 1, (grades & bits) != 0
    y_values = rows(yv, other)
    if special:
        y_values.reshape(-1, size)[0, np.flatnonzero(other)[[0, -1]]] = (np.inf, np.nan)
    s = Multivector._raw(metric, rows(sv, scalar), None if st is None else rows(st, scalar), 1)
    y = Multivector._raw(metric, y_values, None if yt is None else rows(yt, other), bits)
    return s, y


@pytest.mark.parametrize("n", range(2, 9))
def test_a_grade0_operand_scales_as_its_term_list_bit_for_bit(n):
    # a geometric product with an operand carrying grade 0 alone, on either
    # side, in every layout, tangents on either side or both: its values and
    # tangents are _term_product's over the grade-0 term list, bit for bit,
    # signed zeros, inf and NaN included, and it carries exactly the other
    # operand's grades
    metric = Metric(n, _SIGNED_DIAG[:n])
    rng = np.random.default_rng(700 + n)
    reference = algebra._term_product
    for case, (s_layout, y_layout) in enumerate(_scaling_pairs()):
        bits = int(rng.integers(2, 1 << (n + 1)))  # some grade besides 0
        s, y = _scaling_sides(metric, rng, bits, s_layout, y_layout, special=case % 3 == 0)
        for left in (True, False):
            x, z = (s, y) if left else (y, s)
            got = product("geometric", x, z)
            terms = _terms(metric, "geometric", *((1, bits) if left else (bits, 1)))
            want = reference(terms, x._values, z._values, x._tangents, z._tangents)
            where = (n, s_layout, y_layout, left)
            assert got._bits == bits, where
            for g, w in zip((got._values, got._tangents), want):
                assert (g is None) == (w is None), where
                if w is not None:
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), where


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("part", ["value", "tangent"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_scalar_takes_the_term_route(n, part, bad):
    # a NaN or inf scalar value or tangent would be NaN on every grade as a
    # scaling (inf 0); the term route keeps it off the grades no term
    # reaches: every output off the other operand's grades is 0
    metric = Metric(n, _SIGNED_DIAG[:n])
    rng = np.random.default_rng(800 + n)
    bits = 1 << 1 | 1 << n
    s, y = _scaling_sides(metric, rng, bits, ((6, 1), (6, 2)), ((6, 1), (6, 2)))
    block = s._values if part == "value" else s._tangents
    block[3, -1, 0] = bad
    off = (_tables(metric).grade_bits & bits) == 0
    for left in (True, False):
        x, z = (s, y) if left else (y, s)
        terms = _terms(metric, "geometric", *((1, bits) if left else (bits, 1)))
        want = algebra._term_product(terms, x._values, z._values, x._tangents, z._tangents)
        got = product("geometric", x, z)
        assert got._bits == terms.bits
        assert got._values.tobytes() == want[0].tobytes()
        assert got._tangents.tobytes() == want[1].tobytes()
        assert not np.isfinite(got._tangents[3]).all()
        assert not np.any(got._values[..., off]) and not np.any(got._tangents[..., off])


# -- the blade frame sum as one contraction ------------------------------------------


def _frames(metric, rng):
    vectors = [Extensor.random_invertible(metric, rng)(e) for e in basis_vectors(metric)]
    return {"orthonormal": Frame.orthonormal(metric), "random": Frame.from_vectors(vectors)}


def _product_loop(metric, kind, lefts, rows):
    """sum_i lefts[i] * rows[i] by one product call per term: the reference."""
    total = Multivector.zero(metric)
    for left, row in zip(lefts, rows):
        total = total + product(kind, Multivector(metric, left), Multivector(metric, row))
    return total.values()


@pytest.mark.parametrize("n,grade", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 3), (7, 1),
                                     (8, 4)])
def test_blade_sum_matches_product_loop(n, grade):
    rng = np.random.default_rng(100 + n)
    anchor_rng = np.random.default_rng(200 + n)  # leaves the frames' draws as they were
    for diag in ((1.0,) * n, tuple(rng.choice((1.0, -1.0, 2.0, -0.5), n))):
        metric = Metric(n, diag)
        unit = all(abs(g) == 1.0 for g in diag)
        lefts = {name: frame.blades(grade)[1] for name, frame in _frames(metric, rng).items()}
        # grade-`grade` anchors, dense in their grade, as the anchor-sum star forms use
        lefts["anchors"] = np.stack([random_multivector(metric, grade, anchor_rng).values()
                                     for _ in range(3)])
        for name, left in lefts.items():
            draw = anchor_rng if name == "anchors" else rng
            rows = draw.uniform(-1.0, 1.0, (2, len(left), metric.size))
            weights = _tables(metric).weight
            for kind in PRODUCT_KINDS:
                (got,) = product_sum(metric, (kind,), grade, left, rows)
                assert got.shape == (2, metric.size)
                for b in range(2):
                    expected = _product_loop(metric, kind, left, rows[b])
                    scale = sum(np.abs(x).sum() * np.abs(row).max() for x, row in zip(left, rows[b]))
                    scale *= np.abs(weights).max()
                    bound = 4 * (2 * len(left)) * np.finfo(float).eps * scale
                    assert np.abs(got[b] - expected).max() <= bound, (name, kind)
                    if name == "orthonormal" and unit:
                        # one nonzero reciprocal coefficient per blade: same terms,
                        # same order, so the same bits as the loop
                        assert np.array_equal(got[b], expected), kind
                assert np.array_equal(product_sum(metric, (kind,), grade, left, rows[0])[0], got[0])


@pytest.mark.parametrize("metric", [E3, Metric(4, (2.0, -1.0, 0.5, -3.0))])
def test_product_sum_over_kinds_is_bit_equal_to_one_kind_calls(metric):
    rng = np.random.default_rng(11)
    for grade in range(metric.dim + 1):
        lefts = np.stack([random_multivector(metric, grade, rng).values() for _ in range(3)])
        rights = rng.uniform(-1.0, 1.0, (2, 3, metric.size))
        sums = product_sum(metric, PRODUCT_KINDS, grade, lefts, rights)
        assert isinstance(sums, tuple) and len(sums) == len(PRODUCT_KINDS)
        for kind, got in zip(PRODUCT_KINDS, sums):
            (alone,) = product_sum(metric, (kind,), grade, lefts, rights)
            assert np.array_equal(got, alone), kind
        pair = product_sum(metric, ("lcontract", "wedge"), grade, lefts, rights[0])
        for kind, got in zip(("lcontract", "wedge"), pair):
            assert np.array_equal(got, product_sum(metric, (kind,), grade, lefts, rights[0])[0])
    assert product_sum(metric, (), 1, lefts, rights) == ()
    with pytest.raises(ValueError):
        product_sum(metric, ("wedge", "cross"), 1, lefts, rights)


def test_blade_sum_rejects_unknown_kind():
    with pytest.raises(ValueError):
        product_sum(E3, ("cross",), 1, np.zeros((3, E3.size)), np.zeros((3, E3.size)))
    for grade in (-1, 4):  # a negative grade would wrap around the blade tables
        with pytest.raises(ValueError):
            product_sum(E3, ("wedge",), grade, np.zeros((3, E3.size)), np.zeros((3, E3.size)))


def test_blade_sum_rejects_a_bare_string_of_kinds():
    # a string is a sequence of one-letter "kinds"; every caller meets this rule
    vectors = Frame.orthonormal(E3).blades(1)[0]
    with pytest.raises(ValueError, match=r"sequence of product kinds, such as \('scalar',\)"):
        product_sum(E3, "scalar", 1, vectors, vectors)


def test_frames_over_one_metric_share_the_sum_rows():
    # the gather index and sign rows belong to (metric, grade, kind), not to a frame
    metric = Metric(4, (2.0, -1.0, 0.5, -3.0))
    rng = np.random.default_rng(5)
    one, two = (_frames(metric, rng)["random"] for _ in range(2))
    rows = rng.uniform(-1.0, 1.0, (6, metric.size))
    product_sum(metric, ("lcontract",), 2, one.blades(2)[1], rows)
    before = _sum_rows.cache_info()
    product_sum(metric, ("lcontract",), 2, two.blades(2)[1], rows)
    after = _sum_rows.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert _sum_rows(metric, 2, "lcontract") is _sum_rows(Metric(4, metric.diag), 2, "lcontract")
    assert set(one._cache) == set(two._cache) == {2}  # a frame caches its blades only


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
