"""Reference blade products, computed independently of extcalc.

The sign tables follow the definitions in extcalc.algebra's docstring, but
are derived another way: the reordering sign of e_I e_J counts, for each
generator of J, the generators of I above it (extcalc shifts I instead), and
the scalar and left-contraction tables are read off the geometric table by
reversion and grade selection.  Products are evaluated with numpy as one
scatter-add over all blade pairs, so summation order differs from extcalc's
double loop; coefficients are compared with a relative tolerance.
"""

from __future__ import annotations

import numpy as np

# Each output coefficient is a sum of at most 2^8 products of terms; double
# rounding over that sum stays below 2^8 * eps of the sum of magnitudes.
RTOL = 1e-11


def tables(diag) -> dict:
    """kind -> (size x size) sign-and-weight matrix; result blade is i ^ j."""
    n = len(diag)
    size = 1 << n
    i = np.arange(size)[:, None]
    j = np.arange(size)[None, :]
    swaps = np.zeros((size, size), dtype=np.int64)
    weight = np.ones((size, size))
    for k in range(n):
        j_has_k = (j >> k) & 1
        swaps += j_has_k * np.bitwise_count(i >> (k + 1)).astype(np.int64)
        weight *= np.where(((i & j) >> k) & 1, diag[k], 1.0)
    geometric = np.where(swaps & 1, -1.0, 1.0) * weight
    grade = np.bitwise_count(i).astype(np.int64)
    reversed_geometric = np.where((grade * (grade - 1) // 2) & 1, -1.0, 1.0) * geometric
    return {
        "xor": (i ^ j).ravel(),
        "geometric": geometric,
        "wedge": np.where((i & j) == 0, geometric, 0.0),
        "scalar": np.where(i == j, reversed_geometric, 0.0),
        "lcontract": np.where((i & j) == i, reversed_geometric, 0.0),
    }


def product(t: dict, kind: str, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, per-coefficient sum of term magnitudes)."""
    terms = (t[kind] * np.outer(a, b)).ravel()
    size = len(a)
    return (
        np.bincount(t["xor"], weights=terms, minlength=size),
        np.bincount(t["xor"], weights=np.abs(terms), minlength=size),
    )


def tangent_product(t: dict, kind: str, a, b, da, db) -> tuple[np.ndarray, np.ndarray]:
    """Directional derivative of the product along (da, db), by bilinearity."""
    left, left_mag = product(t, kind, da, b)
    right, right_mag = product(t, kind, a, db)
    return left + right, left_mag + right_mag


def matches(got, expected) -> bool:
    value, magnitude = expected
    got = np.asarray(got, dtype=float)
    return got.shape == value.shape and bool(
        np.all(np.abs(got - value) <= RTOL * magnitude)
    )
