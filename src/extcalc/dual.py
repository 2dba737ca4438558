"""Smooth scalar maps lifted to first-order forward-mode jets.

A coefficient of a multivector with a tangent block is a grade-0 jet (see
extcalc.algebra): a multivector whose slot 0 holds the value and whose
tangent column 0 holds its derivatives along the m seeded directions.  Jets
combine through the multivector products, which are exact forward-mode rules,
and floats add to and scale them as constants.  The maps below lift exp, sin,
cos and sqrt to jets: value f(v) and tangent column f'(v) * t.  So any
function built from the products and these maps propagates exact directional
derivatives alongside its value.

A batched multivector (extcalc.algebra) has (B,) array coefficients and no
tangents, so the maps below and value_of pass numpy arrays through numpy,
elementwise; floats keep math.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import Multivector, _blade, _jet_parts


def value_of(x) -> float:
    """Value of a float or a grade-0 jet; a numpy array passes through."""
    if isinstance(x, Multivector):
        return _jet_parts(x)[0]
    return x if isinstance(x, np.ndarray) else float(x)


def _lift(x, f, array_f, tangent):
    """f over a float, array_f over a (B,) array; over a grade-0 jet with
    value v and tangent column t, the jet f(v) with column tangent(v, f(v), t)."""
    if not isinstance(x, Multivector):
        return array_f(x) if isinstance(x, np.ndarray) else f(x)
    v, t = _jet_parts(x)
    fv = f(v)
    return _blade(x.metric, 0, fv, None if t is None else tangent(v, fv, t))


def exp(x):
    return _lift(x, math.exp, np.exp, lambda v, fv, t: fv * t)


def sin(x):
    return _lift(x, math.sin, np.sin, lambda v, fv, t: math.cos(v) * t)


def cos(x):
    return _lift(x, math.cos, np.cos, lambda v, fv, t: -math.sin(v) * t)


def sqrt(x):
    return _lift(x, math.sqrt, np.sqrt, lambda v, fv, t: 0.5 * t / fv)
