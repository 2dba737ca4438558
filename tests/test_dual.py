import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from extcalc.dual import DiffScalar, cos, exp, sin, sqrt, tangent_of, value_of

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
pairs = st.builds(DiffScalar, finite, finite)


@given(pairs, pairs)
def test_addition_componentwise(a, b):
    s = a + b
    assert s.value == a.value + b.value
    assert s.tangent == a.tangent + b.tangent


@given(pairs, pairs)
def test_product_rule(a, b):
    p = a * b
    assert p.value == a.value * b.value
    assert p.tangent == a.value * b.tangent + a.tangent * b.value


@given(pairs, finite)
def test_floats_are_constants(a, c):
    assert (a + c).tangent == a.tangent
    assert (c + a).tangent == a.tangent
    assert (a * c).tangent == a.tangent * c
    assert (c * a).tangent == a.tangent * c
    assert (c - a).tangent == -a.tangent


@given(pairs)
def test_negation_and_subtraction(a):
    assert (-a).value == -a.value
    assert (a - a).value == 0.0
    assert (a - a).tangent == 0.0


@given(st.floats(min_value=-10, max_value=10), finite)
def test_smooth_lifts_match_classical_derivatives(x, t):
    d = DiffScalar(x, t)
    assert exp(d).value == math.exp(x)
    assert exp(d).tangent == math.exp(x) * t
    assert sin(d).tangent == math.cos(x) * t
    assert cos(d).tangent == -math.sin(x) * t


@given(st.floats(min_value=0.01, max_value=100), finite)
def test_sqrt_lift(x, t):
    d = sqrt(DiffScalar(x, t))
    assert d.value == math.sqrt(x)
    assert abs(d.tangent - 0.5 * t / math.sqrt(x)) < 1e-12 * max(1.0, abs(t))


@given(pairs)
def test_division_inverts_multiplication(a):
    if abs(a.value) < 1e-3:
        return
    q = (a * a) / a
    assert abs(q.value - a.value) < 1e-9 * max(1.0, abs(a.value))
    assert abs(q.tangent - a.tangent) < 1e-9 * max(1.0, abs(a.tangent))


def test_plain_number_passthrough():
    assert value_of(2.5) == 2.5
    assert tangent_of(2.5) == 0.0
    assert value_of(DiffScalar(1.0, 3.0)) == 1.0
    assert tangent_of(DiffScalar(1.0, 3.0)) == 3.0
    assert exp(0.0) == 1.0
    assert sin(0.0) == 0.0


def test_arrays_pass_through_numpy():
    # batched coefficients are (B,) arrays; floats keep math
    x = np.array([-1.0, 0.0, 0.5, 4.0])
    assert value_of(x) is x
    for lifted, ref in ((exp, np.exp), (sin, np.sin), (cos, np.cos), (sqrt, np.sqrt)):
        assert np.array_equal(lifted(np.abs(x)), ref(np.abs(x)))
    assert type(exp(1.0)) is float


def test_integer_power():
    d = DiffScalar(3.0, 1.0)
    cube = d**3
    assert cube.value == 27.0
    assert cube.tangent == 27.0  # 3 x^2 at x = 3
