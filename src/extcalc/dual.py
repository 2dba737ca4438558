"""First-order forward-mode scalars.

A DiffScalar carries a (value, tangent) pair through arithmetic, so any
function built from +, -, *, / and the lifted smooth maps below propagates an
exact directional derivative alongside its value.  The tangent is a float for
one direction or an (m,) numpy array for m directions at once.  Plain floats
interoperate freely and are treated as constants (zero tangent).

A batched multivector (extcalc.algebra) has (B,) array coefficients and no
tangents, so the smooth maps below and value_of pass numpy arrays through
numpy, elementwise; floats keep math.  A DiffScalar never holds a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NUMBER = (int, float)


@dataclass(frozen=True, slots=True)
class DiffScalar:
    value: float
    tangent: float = 0.0  # or an (m,) array

    def __add__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(self.value + other.value, self.tangent + other.tangent)
        if isinstance(other, _NUMBER):
            return DiffScalar(self.value + other, self.tangent)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(self.value - other.value, self.tangent - other.tangent)
        if isinstance(other, _NUMBER):
            return DiffScalar(self.value - other, self.tangent)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return DiffScalar(other - self.value, -self.tangent)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(
                self.value * other.value,
                self.value * other.tangent + self.tangent * other.value,
            )
        if isinstance(other, _NUMBER):
            return DiffScalar(self.value * other, self.tangent * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(
                self.value / other.value,
                (self.tangent * other.value - self.value * other.tangent)
                / (other.value * other.value),
            )
        if isinstance(other, _NUMBER):
            return DiffScalar(self.value / other, self.tangent / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return DiffScalar(
                other / self.value, -other * self.tangent / (self.value * self.value)
            )
        return NotImplemented

    def __pow__(self, exponent):
        if isinstance(exponent, int) and exponent >= 0:
            out = DiffScalar(1.0, 0.0)
            for _ in range(exponent):
                out = out * self
            return out
        return NotImplemented

    def __neg__(self):
        return DiffScalar(-self.value, -self.tangent)

    def __pos__(self):
        return self

    def __repr__(self):
        return f"DiffScalar({self.value!r}, {self.tangent!r})"


def value_of(x) -> float:
    """Value part of a float or DiffScalar; a numpy array passes through."""
    if isinstance(x, DiffScalar):
        return x.value
    return x if isinstance(x, np.ndarray) else float(x)


def tangent_of(x) -> float:
    """Tangent part; plain numbers are constants."""
    return x.tangent if isinstance(x, DiffScalar) else 0.0


def exp(x):
    if isinstance(x, DiffScalar):
        v = math.exp(x.value)
        return DiffScalar(v, v * x.tangent)
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def sin(x):
    if isinstance(x, DiffScalar):
        return DiffScalar(math.sin(x.value), math.cos(x.value) * x.tangent)
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    if isinstance(x, DiffScalar):
        return DiffScalar(math.cos(x.value), -math.sin(x.value) * x.tangent)
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def sqrt(x):
    if isinstance(x, DiffScalar):
        v = math.sqrt(x.value)
        return DiffScalar(v, 0.5 * x.tangent / v)
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)
