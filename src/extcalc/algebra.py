"""Dense multivector arithmetic over R^n with a diagonal nondegenerate metric.

Basis blades are indexed by bitmasks: bit k set means generator e_{k+1} is a
factor, so mask 0b101 is e1^e3 and the grade of a blade is the popcount of its
mask.  A multivector stores a float64 value array with one coefficient per
mask (2^n in total) and, optionally, a tangent block of shape (m, 2^n): row r
holds the derivative of every coefficient along the r-th of m seeded
directions (vector-mode forward differentiation).

Product conventions, for homogeneous A of grade r and B of grade s:

    geometric  AB        full Clifford product
    wedge      A ^ B     <AB>_{r+s}
    scalar     A . B     <(~A) B>_0 if r == s, else 0
    lcontract  A _| B    <(~A) B>_{s-r} if r <= s, else 0

all extended bilinearly.  The reversion normalisation makes blade.blade the
product of its metric entries (so >= 0 in a Euclidean metric) and makes the
reciprocal of a frame blade the same-index blade of the reciprocal frame.

The products are computed from tables built once per metric.  With
e_i * e_j = S[i, j] e_(i^j) for a product's sign-and-weight matrix S, the
right operator of b is M_b[i, i ^ j] = S[i, j] b_j and the left operator of a
is L_a[j, i ^ j] = S[i, j] a_i, so that

    value    c  = a @ M_b
    tangent  tc = ta @ M_b + tb @ L_a

and every product doubles as an exact forward-mode derivative rule.  Each
kind builds its operators from the structurally nonzero entries of S only.
The geometric product has all 4^n of them, and its operators are one dense
gather (perm[i, k] = i ^ k, b[perm] * S[i, i ^ k]).  The wedge and the left
contraction have 3^n (e_i ^ e_j needs i & j == 0; e_i _| e_j needs i a subset
of j), so from n = 5 on their operators are written term by term into zeroed
matrices; below that the dense gather is cheaper and is used instead.  The
scalar product has 2^n terms, all landing in slot 0, and is no matrix at
all: c_0 = a @ (b * w) for the blade weights w, and its tangents are
ta @ (b * w) + tb @ (a * w).  A single coefficient of a multivector with a
tangent block is a grade-0 jet: a multivector whose slot 0 holds the
coefficient and whose tangent column 0 holds that coefficient's tangents.  A
jet scales a multivector through the geometric product, which applies the
product rule, so the smooth scalar maps of extcalc.dual, lifted to jets,
compose with the products.

Instead of a tangent block, the value array may carry a leading batch axis,
shape (B, 2^n): B multivectors evaluated side by side, as the finite-difference
oracle does with all its perturbed points at once.  A batched coefficient is a
(B,) array, and (B,) arrays scale batches row by row.  Batches meet unbatched
operands by broadcasting; a product with one batched side is one (B, 2^n) @
(2^n, 2^n) matmul against the unbatched side's operator (b @ L_a when the
left side is the unbatched one).  Two batched sides multiply row by row,
each row the unbatched kernel's matmul, a chunk of rows at a time so that the
(rows, 2^n, 2^n) operator stack stays near 2^19 floats; a scalar product of
two batches is one weighted dot per row.  A batch never carries a tangent
block: every operation that would combine the two raises ValueError rather
than drop the tangents.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateFrameError

MAX_DIM = 8
PRODUCT_KINDS = ("geometric", "wedge", "scalar", "lcontract")


@dataclass(frozen=True)
class Metric:
    """Diagonal metric: dimension and one nonzero entry per generator."""

    dim: int
    diag: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.dim, int) or not 2 <= self.dim <= MAX_DIM:
            raise ConfigurationError(f"dim must be an integer in [2, {MAX_DIM}], got {self.dim!r}")
        diag = self.diag
        if diag is None:
            diag = (1.0,) * self.dim
        diag = tuple(float(g) for g in diag)
        if len(diag) != self.dim:
            raise ConfigurationError(f"metric has {len(diag)} entries for dim {self.dim}")
        if any(g == 0.0 for g in diag):
            raise ConfigurationError("metric entries must be nonzero")
        object.__setattr__(self, "diag", diag)

    @classmethod
    def euclidean(cls, dim: int) -> "Metric":
        return cls(dim)

    @property
    def size(self) -> int:
        """Number of basis blades, 2^dim."""
        return 1 << self.dim


@dataclass(frozen=True)
class BasisBlade:
    """A basis blade identified by its generator bitmask."""

    mask: int

    @property
    def grade(self) -> int:
        return self.mask.bit_count()

    @property
    def name(self) -> str:
        return blade_name(self.mask)


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(k + 1) for k in range(mask.bit_length()) if mask >> k & 1)


@dataclass(frozen=True, eq=False)
class _Tables:
    grades: np.ndarray  # grade of each mask
    blades: tuple  # grade -> masks of that grade, increasing
    weight: np.ndarray  # blade "squared norm": product of touched metric entries
    reverse_signs: np.ndarray
    perm: np.ndarray  # perm[i, k] = i ^ k
    right: dict  # kind -> R with R[i, k] = S[i, i ^ k]
    kernels: dict  # kind -> _Gather or _Scatter, for every kind but "scalar"


class _Gather:
    """Operators of a dense table: every blade pair is gathered and weighted."""

    def __init__(self, perm, right, left):
        self.perm, self.right_signs, self.left_signs = perm, right, left

    def right(self, b: np.ndarray) -> np.ndarray:
        """M_b, with a @ M_b the product of a and b; one per row of a 2-d b."""
        # np.take keeps the rows C-ordered, so each matmul is the 1-d one
        gathered = b[self.perm] if b.ndim == 1 else np.take(b, self.perm, axis=1)
        gathered *= self.right_signs
        return gathered

    def left(self, a: np.ndarray) -> np.ndarray:
        """L_a, with b @ L_a the product of a and b."""
        gathered = a[self.perm]
        gathered *= self.left_signs
        return gathered


class _Scatter:
    """Operators of a sparse table, written from its nonzero terms
    e_i * e_j = s e_(i^j) alone into zeroed matrices."""

    def __init__(self, right):
        size = len(right)
        i, k = np.nonzero(right)
        j = i ^ k
        self.size, self.i, self.j, self.signs = size, i, j, right[i, k]
        self.right_index = i * size + k  # M_b[i, k] = s b_j
        self.left_index = j * size + k  # L_a[j, k] = s a_i
        for arr in (i, j, self.signs, self.right_index, self.left_index):
            arr.flags.writeable = False

    def right(self, b: np.ndarray) -> np.ndarray:
        return self._operator(b, self.right_index, self.j)

    def left(self, a: np.ndarray) -> np.ndarray:
        return self._operator(a, self.left_index, self.i)

    def _operator(self, x, index, factor):
        n2 = self.size * self.size
        if x.ndim == 1:  # the common case, kept free of a row axis
            op = np.zeros(n2)
            op[index] = x[factor] * self.signs
            return op.reshape(self.size, self.size)
        op = np.zeros((len(x), n2))
        op[:, index] = x[:, factor] * self.signs
        return op.reshape(len(x), self.size, self.size)


def _kernel(perm: np.ndarray, right: np.ndarray, left: np.ndarray):
    """The cheaper operator builder for a table: writing its nonzero terms
    beats the dense gather once they are at most a quarter of the table."""
    if 4 * np.count_nonzero(right) <= right.size:
        return _Scatter(right)
    return _Gather(perm, right, left)


def _signs(dim: int, weight, reverse_signs, x, y) -> dict:
    """kind -> S[x, y] elementwise, where e_x * e_y = S[x, y] e_(x^y)."""
    # reordering e_x e_y: each generator of x passes the generators of y below it
    parity = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.uint8)
    for shift in range(1, dim):
        parity ^= np.bitwise_count((x >> shift) & y)
    common = x & y
    geometric = np.where(parity & 1, -1.0, 1.0) * weight[common]
    return {
        "geometric": geometric,
        "wedge": np.where(common == 0, geometric, 0.0),
        "scalar": np.where(x == y, weight[x], 0.0),
        "lcontract": np.where(common == x, reverse_signs[x] * geometric, 0.0),
    }


@lru_cache(maxsize=None)
def _tables(metric: Metric) -> _Tables:
    masks = np.arange(metric.size)
    grades = np.bitwise_count(masks).astype(np.intp)
    weight = np.ones(metric.size)
    for k, g in enumerate(metric.diag):
        weight[(masks >> k) & 1 == 1] *= g
    reverse_signs = np.where((grades * (grades - 1) // 2) & 1, -1.0, 1.0)
    i = masks[:, None]
    perm = i ^ masks[None, :]
    blades = tuple(np.flatnonzero(grades == g) for g in range(metric.dim + 1))
    right = _signs(metric.dim, weight, reverse_signs, i, perm)
    left = _signs(metric.dim, weight, reverse_signs, perm, i)
    for arr in (grades, *blades, weight, reverse_signs, perm, *right.values(),
                *left.values()):
        arr.flags.writeable = False
    return _Tables(
        grades=grades,
        blades=blades,
        weight=weight,
        reverse_signs=reverse_signs,
        perm=perm,
        right=right,
        kernels={
            kind: _kernel(perm, right[kind], left[kind])
            for kind in PRODUCT_KINDS if kind != "scalar"
        },
    )


_GATHER_FLOATS = 1 << 19  # bound on the operator stack of a two-batched product
_BATCH_WITH_TANGENTS = "a batched multivector cannot carry or meet a tangent block"
_FACTORS = (int, float, np.number, np.ndarray)  # what scales a Multivector


def _sum_tangents(ta, tb):
    """Sum of two tangent blocks, either of which may be absent."""
    if ta is None:
        return tb
    if tb is None:
        return ta
    if ta.shape != tb.shape:
        raise ValueError(f"tangent blocks of shapes {ta.shape} and {tb.shape} do not match")
    return ta + tb


class Multivector:
    """Immutable element of the full algebra: a value array with one
    coefficient per basis blade, plus an optional (m, 2^n) tangent block;
    or a batch of B elements, a (B, 2^n) value array without tangents."""

    __slots__ = ("metric", "_values", "_tangents")
    __array_ufunc__ = None  # ndarray * Multivector defers to __rmul__

    def __init__(self, metric: Metric, coeffs: Iterable[float]):
        """coeffs: 2^n coefficients, or a (B, 2^n) array for a batch."""
        if not isinstance(coeffs, (np.ndarray, list, tuple)):
            coeffs = list(coeffs)
        values = np.array(coeffs, dtype=float)
        if values.shape[-1:] != (metric.size,) or values.ndim not in (1, 2):
            raise ValueError(f"expected {metric.size} coefficients, got shape {values.shape}")
        _set_metric(self, metric)
        _set_values(self, values)
        _set_tangents(self, None)

    @classmethod
    def _raw(cls, metric: Metric, values: np.ndarray, tangents=None) -> "Multivector":
        """Internal constructor for arrays this module owns and never mutates."""
        if tangents is not None and values.ndim != 1:
            raise ValueError(_BATCH_WITH_TANGENTS)
        out = object.__new__(cls)
        _set_metric(out, metric)
        _set_values(out, values)
        _set_tangents(out, tangents)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, metric: Metric) -> "Multivector":
        return cls._raw(metric, np.zeros(metric.size))

    @classmethod
    def from_scalar(cls, metric: Metric, s) -> "Multivector":
        return cls.from_blade(metric, 0, s)

    @classmethod
    def from_blade(cls, metric: Metric, mask: int, coeff=1.0) -> "Multivector":
        """coeff * blade; a (B,) array coefficient makes a batch of B, and a
        grade-0 jet puts its value and tangent column at `mask`."""
        _check_mask(metric, mask)
        column = None
        if isinstance(coeff, Multivector):
            coeff, column = _jet_parts(coeff)
        return _blade(metric, mask, coeff, column)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """One coefficient per mask, as coeff returns it."""
        if self._values.ndim == 2:
            return tuple(self._values.T.copy())
        if self._tangents is None:
            return tuple(self._values.tolist())
        return tuple(map(self.coeff, range(self.metric.size)))

    def coeff(self, mask: int):
        """Coefficient of one blade: a float; a grade-0 jet when a tangent
        block is present, its tangent column the coefficient's tangents; or
        a (B,) array for a batch."""
        _check_mask(self.metric, mask)
        if self._values.ndim == 2:
            return self._values[:, mask].copy()
        value = float(self._values[mask])
        t = self._tangents
        if t is None:
            return value
        return _blade(self.metric, 0, value, t[:, mask])

    def scalar_part(self):
        """Grade-0 coefficient (as coeff(0))."""
        return self.coeff(0)

    def values(self) -> np.ndarray:
        return self._values.copy()

    def value_part(self) -> "Multivector":
        return Multivector._raw(self.metric, self._values)

    def tangent_part(self, row: int = 0) -> "Multivector":
        """Row `row` of the tangent block; zero when there is no block."""
        if self._tangents is None:
            return Multivector.zero(self.metric)
        return Multivector._raw(self.metric, self._tangents[row])

    def with_tangent(self, direction: "Multivector") -> "Multivector":
        """Lift to a one-row tangent block seeded from `direction`."""
        return self.with_tangents((direction,))

    def with_tangents(self, directions: Sequence["Multivector"]) -> "Multivector":
        """Lift to a tangent block whose row r is the value of directions[r]."""
        for d in directions:
            self._check_metric(d)
        block = np.stack([d._values for d in directions])
        if block.ndim != 2:
            raise ValueError(_BATCH_WITH_TANGENTS)
        return Multivector._raw(self.metric, self._values, block)

    def _support(self) -> np.ndarray:
        """Masks nonzero anywhere: in the value, a tangent row or a batch row."""
        support = self._values != 0.0
        if support.ndim == 2:
            return support.any(axis=0)
        if self._tangents is not None:
            support |= (self._tangents != 0.0).any(axis=0)
        return support

    def nonzero_items(self):
        return [(m, self.coeff(m)) for m in np.flatnonzero(self._support()).tolist()]

    def grades(self) -> frozenset:
        grades = _tables(self.metric).grades
        return frozenset(grades[self._support()].tolist())

    def is_homogeneous(self, grade: int) -> bool:
        """True when supported on grade `grade` only (the zero element counts)."""
        off_grade = _tables(self.metric).grades != grade
        return np.count_nonzero(self._support()[off_grade]) == 0

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self._values)))

    # -- linear operations -------------------------------------------------

    def _check_metric(self, other: "Multivector"):
        if self.metric is not other.metric and self.metric != other.metric:
            raise ConfigurationError("operands live over different metrics")

    def __add__(self, other):
        if isinstance(other, (int, float)):  # a constant scalar
            other = Multivector.from_scalar(self.metric, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_metric(other)
        return Multivector._raw(
            self.metric,
            self._values + other._values,
            _sum_tangents(self._tangents, other._tangents),
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Multivector, int, float)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        return -self + other

    def __neg__(self):
        t = self._tangents
        return Multivector._raw(self.metric, -self._values, None if t is None else -t)

    def _scaled(self, factor):
        t = self._tangents
        if isinstance(factor, np.ndarray) and factor.ndim == 1:  # one per batch row
            if t is not None:
                raise ValueError(_BATCH_WITH_TANGENTS)
            return Multivector._raw(self.metric, factor[:, None] * self._values)
        factor = float(factor)
        return Multivector._raw(
            self.metric, factor * self._values, None if t is None else factor * t
        )

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return self.geometric(other)
        if isinstance(other, _FACTORS):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _FACTORS):
            return self._scaled(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self._scaled(1.0 / other)
        return NotImplemented

    def __xor__(self, other):
        return self.wedge(other)

    def __or__(self, other):
        return self.scalar_product(other)

    def grade_project(self, grade: int) -> "Multivector":
        if not 0 <= grade <= self.metric.dim:
            raise ValueError(f"grade {grade} out of range for dim {self.metric.dim}")
        keep = _tables(self.metric).grades == grade
        t = self._tangents
        return Multivector._raw(
            self.metric,
            np.where(keep, self._values, 0.0),
            None if t is None else np.where(keep, t, 0.0),
        )

    def reverse(self) -> "Multivector":
        signs = _tables(self.metric).reverse_signs
        t = self._tangents
        return Multivector._raw(
            self.metric, signs * self._values, None if t is None else signs * t
        )

    # -- products ----------------------------------------------------------

    def _product(self, kind: str, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            raise TypeError(f"expected a Multivector, got {type(other).__name__}")
        self._check_metric(other)
        tables = _tables(self.metric)
        a, b = self._values, other._values
        ta, tb = self._tangents, other._tangents
        batched = a.ndim == 2 or b.ndim == 2
        if batched and (ta is not None or tb is not None):
            raise ValueError(_BATCH_WITH_TANGENTS)
        if kind == "scalar":
            return _scalar_product(self.metric, tables.weight, a, b, ta, tb)
        kernel = tables.kernels[kind]
        if batched:
            if b.ndim == 1:
                values = a @ kernel.right(b)
            elif a.ndim == 1:
                values = b @ kernel.left(a)
            else:
                values = _two_batched(a, b, kernel.right)
            return Multivector._raw(self.metric, values)
        right = kernel.right(b)
        values, tangents = a @ right, None if ta is None else ta @ right
        # one (2^n, 2^n) operator alive at a time: two freed together can push
        # the heap past malloc's trim threshold, and every later operator then
        # faults its pages in afresh
        del right
        if tb is not None:
            tangents = _sum_tangents(tangents, tb @ kernel.left(a))
        return Multivector._raw(self.metric, values, tangents)

    def geometric(self, other: "Multivector") -> "Multivector":
        return self._product("geometric", other)

    def wedge(self, other: "Multivector") -> "Multivector":
        return self._product("wedge", other)

    def scalar_product(self, other: "Multivector") -> "Multivector":
        return self._product("scalar", other)

    def lcontract(self, other: "Multivector") -> "Multivector":
        return self._product("lcontract", other)

    def __repr__(self):
        if self._values.ndim == 2:
            rows = (Multivector._raw(self.metric, row) for row in self._values)
            return "[" + ", ".join(map(repr, rows)) + "]"
        values = self._values
        terms = [
            f"{values[m]:g}*{blade_name(m)}" if m else f"{values[m]:g}"
            for m in np.flatnonzero(self._support()).tolist()
        ]
        return " + ".join(terms) if terms else "0"


def _scalar_product(metric: Metric, weight, a, b, ta, tb) -> Multivector:
    """<~a b>_0 as one weighted dot, its tangents one more per tangent side;
    two batched sides, or one, give one dot per row."""
    bw = b * weight
    if a.ndim == 2 or b.ndim == 2:
        return _blade(metric, 0, np.vecdot(a, bw))
    values = np.zeros(len(a))
    values[0] = np.dot(a, bw)
    if ta is None and tb is None:
        return Multivector._raw(metric, values)
    column = None if ta is None else np.dot(ta, bw)
    if tb is not None:
        column = _sum_tangents(column, np.dot(tb, a * weight))
    tangents = np.zeros((len(column), len(a)))
    tangents[:, 0] = column
    return Multivector._raw(metric, values, tangents)


def _two_batched(a: np.ndarray, b: np.ndarray, right):
    """Row r of a times row r of b, a chunk of rows at a time, so the
    (rows, 2^n, 2^n) stack of right operators stays near _GATHER_FLOATS."""
    size = a.shape[-1]
    a, b = np.broadcast_arrays(a, b)  # a batch of one meets a batch of B
    out = np.empty(a.shape)
    chunk = max(1, _GATHER_FLOATS // (size * size))
    for lo in range(0, len(a), chunk):
        hi = lo + chunk
        # (c, 1, N) @ (c, N, N): each row is the unbatched kernel's matmul
        out[lo:hi] = (a[lo:hi, None, :] @ right(b[lo:hi]))[:, 0]
    return out


# slot setters that bypass Multivector.__setattr__, which refuses all writes
_set_metric = Multivector.metric.__set__
_set_values = Multivector._values.__set__
_set_tangents = Multivector._tangents.__set__


def _check_mask(metric: Metric, mask: int):
    if not 0 <= mask < metric.size:
        raise ValueError(f"blade mask {mask} out of range for dim {metric.dim}")


def _blade(metric: Metric, mask: int, coeff, column=None) -> Multivector:
    """coeff * blade, with tangent column `column` ((m,) or None) at `mask`."""
    batch = coeff.shape if isinstance(coeff, np.ndarray) else ()
    values = np.zeros(batch + (metric.size,))
    values[..., mask] = coeff
    tangents = None
    if column is not None:
        tangents = np.zeros((len(column), metric.size))
        tangents[:, mask] = column
    return Multivector._raw(metric, values, tangents)


def _jet_parts(jet: Multivector) -> tuple:
    """(value, tangent column or None) of an unbatched grade-0 multivector."""
    if jet._values.ndim != 1 or not jet.is_homogeneous(0):
        raise ValueError("expected an unbatched grade-0 multivector as a scalar")
    t = jet._tangents
    return float(jet._values[0]), None if t is None else t[:, 0]


def product(kind: str, a: Multivector, b: Multivector) -> Multivector:
    """One of the four bilinear products; kind in PRODUCT_KINDS."""
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    return a._product(kind, b)


def grade_masks(dim: int, grade: int) -> list[int]:
    """Masks of the grade-`grade` blades, in increasing mask order."""
    if not 0 <= grade <= dim:
        raise ValueError(f"grade {grade} out of range for dim {dim}")
    return [m for m in range(1 << dim) if m.bit_count() == grade]


def blade_basis(metric: Metric, grade: int) -> list[BasisBlade]:
    """The C(dim, grade) basis blades of a grade, in increasing mask order."""
    return [BasisBlade(m) for m in grade_masks(metric.dim, grade)]


def basis_vectors(metric: Metric) -> list[Multivector]:
    return [Multivector.from_blade(metric, 1 << k) for k in range(metric.dim)]


def unit_pseudoscalar(metric: Metric) -> Multivector:
    return Multivector.from_blade(metric, metric.size - 1)


def wedge_all(metric: Metric, factors: Sequence[Multivector]) -> Multivector:
    """Wedge of the factors in order; the empty product is the scalar 1."""
    if not factors:
        return Multivector.from_scalar(metric, 1.0)
    return reduce(lambda a, b: a.wedge(b), factors)


def scalar_value(a: Multivector, b: Multivector) -> float:
    """Value part of the scalar product, as a plain float."""
    return a.scalar_product(b).value_part().scalar_part()


def max_abs_diff(a: Multivector, b: Multivector) -> float:
    return float(np.max(np.abs(a._values - b._values)))


def reciprocal_frame(vectors: Sequence[Multivector]) -> list[Multivector]:
    """Vectors f^i with f^i . f_j = delta_ij under the ambient metric: the
    inverse Gram matrix applied to the frame's values (tangents are dropped)."""
    vectors = list(vectors)
    if not vectors:
        raise DegenerateFrameError("empty frame")
    metric = vectors[0].metric
    n = metric.dim
    if len(vectors) != n:
        raise DegenerateFrameError(f"need {n} vectors, got {len(vectors)}")
    for v in vectors:
        vectors[0]._check_metric(v)
        if v._values.ndim != 1 or not v.is_homogeneous(1):
            raise DegenerateFrameError("frame vectors must be unbatched and grade 1")
    tables = _tables(metric)
    grade1 = tables.blades[1]
    coords = np.stack([v._values for v in vectors])[:, grade1]
    gram = (coords * tables.weight[grade1]) @ coords.T
    # conditioning, not det size, so that a frame and its scaled copies agree
    sv = np.linalg.svd(gram, compute_uv=False)
    if not sv[-1] > 1e-12 * sv[0]:
        raise DegenerateFrameError("frame vectors are (numerically) dependent")
    recip = np.zeros((n, metric.size))
    recip[:, grade1] = np.linalg.inv(gram) @ coords
    return [Multivector._raw(metric, row) for row in recip]


@dataclass(frozen=True)
class Frame:
    """A basis of grade-1 vectors together with its reciprocal basis."""

    vectors: tuple[Multivector, ...]
    reciprocal: tuple[Multivector, ...]

    def __post_init__(self):
        object.__setattr__(self, "_pair_cache", {})

    @classmethod
    def from_vectors(cls, vectors: Sequence[Multivector]) -> "Frame":
        return cls(tuple(vectors), tuple(reciprocal_frame(vectors)))

    @classmethod
    def orthonormal(cls, metric: Metric) -> "Frame":
        """The coordinate frame; reciprocals are e_k / g_kk."""
        return _orthonormal_frame(metric)

    @property
    def metric(self) -> Metric:
        return self.vectors[0].metric

    def blade(self, mask: int) -> Multivector:
        factors = [self.vectors[k] for k in range(self.metric.dim) if mask >> k & 1]
        return wedge_all(self.metric, factors)

    def reciprocal_blade(self, mask: int) -> Multivector:
        factors = [self.reciprocal[k] for k in range(self.metric.dim) if mask >> k & 1]
        return wedge_all(self.metric, factors)

    def blade_pairs(self, grade: int) -> list[tuple[Multivector, Multivector]]:
        """(primal, reciprocal) blade pairs of a grade, increasing mask order."""
        cache = self._pair_cache
        if grade not in cache:
            cache[grade] = [
                (self.blade(m), self.reciprocal_blade(m))
                for m in grade_masks(self.metric.dim, grade)
            ]
        return cache[grade]

    def blade_sum(self, grade: int, kind: str, rows: np.ndarray) -> np.ndarray:
        """sum_J  f^J * rows[..., J, :]  under the `kind` product, one array
        contraction over the grade's blades in blade_pairs order.

        rows has shape (..., C(n, grade), 2^n) and the result (..., 2^n).
        Over the reciprocal blades' support S (the grade's masks),
        product(kind, f^J, d)[k] = sum_a f^J[S_a] d[S_a ^ k] R[S_a, k], so
        the J sum comes first as one matmul, cross = recip.T @ rows, and the
        a sum is a gather of cross at (a, S_a ^ k) weighted by R[S_a, k].
        The index and sign rows are cached per (grade, kind): O(C(n, grade)
        * 2^n) each, never a dense (C(n, grade) * 2^n, 2^n) operator.
        """
        if kind not in PRODUCT_KINDS:
            raise ValueError(f"unknown product kind {kind!r}")
        cache = self._pair_cache
        key = (grade, kind)
        if key not in cache:
            recip = np.stack([r._values for _, r in self.blade_pairs(grade)])
            support = np.flatnonzero(recip.any(axis=0))
            tables = _tables(self.metric)
            size = self.metric.size
            index = np.arange(len(support))[:, None] * size + tables.perm[support]
            cache[key] = (
                np.ascontiguousarray(recip[:, support].T),
                index,
                tables.right[kind][support],
            )
        recip_t, index, signs = cache[key]
        cross = recip_t @ rows
        gathered = cross.reshape(cross.shape[:-2] + (-1,))[..., index]
        return (gathered * signs).sum(axis=-2)


@lru_cache(maxsize=None)
def _orthonormal_frame(metric: Metric) -> Frame:
    basis = basis_vectors(metric)
    recip = [(1.0 / metric.diag[k]) * basis[k] for k in range(metric.dim)]
    return Frame(tuple(basis), tuple(recip))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_multivector(metric: Metric, grade: int, rng) -> Multivector:
    """Homogeneous multivector with coefficients uniform in [-1, 1)."""
    rng = _as_rng(rng)
    coeffs = [0.0] * metric.size
    for m in grade_masks(metric.dim, grade):
        coeffs[m] = float(rng.uniform(-1.0, 1.0))
    return Multivector(metric, coeffs)
