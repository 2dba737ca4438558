import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extcalc.algebra import Metric, Multivector
from extcalc.dual import cos, exp, sin, sqrt, value_of

E3 = Metric.euclidean(3)
finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def jet(value, *tangent):
    """The grade-0 jet with this value and one tangent row per entry."""
    seed = [Multivector.from_scalar(E3, t) for t in tangent]
    return Multivector.from_scalar(E3, value).with_tangents(seed).scalar_part()


def parts(x, rows=1):
    """(value, tangent) of a grade-0 jet: a float for one tangent row, else
    the list of the rows' tangents."""
    assert x.is_homogeneous(0)
    tangent = [x.tangent_part(r).coeff(0) for r in range(rows)]
    return float(x.values()[0]), tangent[0] if rows == 1 else tangent


pairs = st.builds(jet, finite, finite)


def test_coefficients_of_tangent_carrying_values_are_grade0_jets():
    e1, e2, _ = (Multivector.from_blade(E3, 1 << k) for k in range(3))
    x = (2.0 * e1 + 5.0 * e2).with_tangents([e2, 3.0 * e1])
    c = x.coeff(0b10)
    assert isinstance(c, Multivector) and c.is_homogeneous(0)
    assert parts(c, 2) == (5.0, [1.0, 0.0])
    assert parts(x.coeffs[1], 2) == (2.0, [0.0, 3.0])
    assert parts(x.scalar_part())[0] == 0.0
    assert type(x.value_part().coeff(1)) is float


@given(pairs, pairs)
def test_addition_componentwise(a, b):
    (va, ta), (vb, tb) = parts(a), parts(b)
    assert parts(a + b) == (va + vb, ta + tb)


@given(pairs, pairs)
def test_product_rule(a, b):
    # the geometric product of two jets
    (va, ta), (vb, tb) = parts(a), parts(b)
    v, t = parts(a * b)
    assert v == va * vb
    assert t == va * tb + ta * vb


@given(pairs, finite)
def test_floats_are_constants(a, c):
    va, ta = parts(a)
    assert parts(a + c) == (va + c, ta)
    assert parts(c + a) == (c + va, ta)
    assert parts(a - c) == (va - c, ta)
    assert parts(c - a) == (c - va, -ta)
    assert parts(a * c) == (va * c, ta * c)
    assert parts(c * a) == (va * c, ta * c)


@given(pairs, pairs)
def test_negation_and_subtraction(a, b):
    (va, ta), (vb, tb) = parts(a), parts(b)
    assert parts(-a) == (-va, -ta)
    assert parts(a - a) == (0.0, 0.0)
    assert parts(a - b) == (va - vb, ta - tb)


@given(st.floats(min_value=-10, max_value=10), finite)
def test_smooth_lifts_match_classical_derivatives(x, t):
    d = jet(x, t)
    assert parts(exp(d)) == (math.exp(x), math.exp(x) * t)
    assert parts(sin(d)) == (math.sin(x), math.cos(x) * t)
    assert parts(cos(d)) == (math.cos(x), -math.sin(x) * t)


@given(st.floats(min_value=0.01, max_value=100), finite)
def test_sqrt_lift(x, t):
    v, tangent = parts(sqrt(jet(x, t)))
    assert v == math.sqrt(x)
    assert abs(tangent - 0.5 * t / math.sqrt(x)) < 1e-12 * max(1.0, abs(t))


def test_lifts_carry_every_tangent_row():
    v = math.exp(0.5)
    assert parts(exp(jet(0.5, 1.0, -2.0, 0.0)), 3) == (v, [v, -2.0 * v, 0.0])
    plain = exp(Multivector.from_scalar(E3, 0.5))
    assert plain.values()[0] == math.exp(0.5) and plain.tangent_part().norm_inf() == 0.0


def test_plain_number_passthrough():
    assert value_of(2.5) == 2.5
    assert value_of(jet(1.0, 3.0)) == 1.0
    assert type(value_of(jet(1.0, 3.0))) is float
    assert exp(0.0) == 1.0
    assert sin(0.0) == 0.0


def test_arrays_pass_through_numpy():
    # batched coefficients are (B,) arrays; floats keep math
    x = np.array([-1.0, 0.0, 0.5, 4.0])
    assert value_of(x) is x
    for lifted, ref in ((exp, np.exp), (sin, np.sin), (cos, np.cos), (sqrt, np.sqrt)):
        assert np.array_equal(lifted(np.abs(x)), ref(np.abs(x)))
    assert type(exp(1.0)) is float


def test_lifts_reject_non_scalar_multivectors():
    e1 = Multivector.from_blade(E3, 1)
    batch = Multivector(E3, np.zeros((2, E3.size)))
    not_scalar = (e1, e1.with_tangent(e1), Multivector.from_scalar(E3, 1.0).with_tangent(e1), batch)
    for x in not_scalar:
        for lifted in (exp, sin, cos, sqrt, value_of):
            with pytest.raises(ValueError):
                lifted(x)


# -- bit identity with the scalar-jet formula that grade-0 jets replaced ----------


@st.composite
def _coefficient_case(draw):
    n = draw(st.integers(2, 6))
    diag = tuple(draw(st.lists(
        st.sampled_from((2.0, -0.5, 3.0, -1.25)), min_size=n, max_size=n
    )))
    rows = draw(st.sampled_from((1, 3)))
    y_has_tangent = draw(st.booleans())
    metric = Metric(n, diag)
    mask = draw(st.integers(0, metric.size - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries():  # about a quarter of them exactly zero
        u = rng.uniform(-1.0, 1.0, metric.size)
        return np.where(rng.random(metric.size) < 0.25, 0.0, u)

    def lifted(tangent):
        mv = Multivector(metric, entries())
        if not tangent:
            return mv
        return mv.with_tangents([Multivector(metric, entries()) for _ in range(rows)])

    return mask, rows, lifted(True), lifted(y_has_tangent), y_has_tangent


def _block(mv, rows):
    return np.stack([mv.tangent_part(r).values() for r in range(rows)])


def _bits(a):
    """The bytes of `a` with -0.0 read as 0.0: a matmul sums a signed zero
    with +0.0 terms, so only the sign of a zero may differ from the formula."""
    return (a + 0.0).tobytes()


@settings(max_examples=60, deadline=None)
@given(_coefficient_case())
def test_scaling_by_a_coefficient_jet_is_bit_identical_to_the_scalar_formula(case):
    mask, rows, x, y, y_has_tangent = case
    # reference: a scalar jet (s, t_s) times y is s*y with tangents s*t_y + outer(t_s, y)
    s, t_s = float(x.values()[mask]), _block(x, rows)[:, mask]
    seed = np.multiply.outer(t_s, y.values())
    want_values = s * y.values()
    want_tangents = s * _block(y, rows) + seed if y_has_tangent else seed
    for got in (y * x.coeff(mask), x.coeff(mask) * y):
        assert _bits(got.values()) == _bits(want_values)
        assert _bits(_block(got, rows)) == _bits(want_tangents)
    placed = Multivector.from_blade(x.metric, mask, x.coeff(mask))
    assert placed.values()[mask] == s and placed.is_homogeneous(mask.bit_count())
    assert _block(placed, rows)[:, mask].tobytes() == t_s.tobytes()
