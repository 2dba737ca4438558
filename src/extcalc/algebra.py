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
(B,) array, and (B,) arrays scale batches row by row.  The linear maps act on
a batch row as on a tangent row.  A point batch never carries a tangent
block: the internal constructor every result goes through, and a product of
a batch with a tangent-carrying operand, raise ValueError rather than drop
the tangents.

A trial stack (Multivector.stack) is T independent multivectors, the T
random trials of a harness check, evaluated in one pass (vector forward mode
over a batch; Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008,
ch. 3).  Its values are (T, P, 2^n), P = 1 or, for a stack of point
batches, the batch size B; its tangent block, when it has one, is
(T, m, 2^n), and only a stack with P = 1 carries one.  So a trial stack is
never a point batch: every rule that rejects a batch still rejects one, and
a stack with P = 1 is accepted wherever one unbatched operand is.  A stack's
coefficient is a (T, P) array, or a stacked grade-0 jet when it carries
tangents, and a (T, P) array scales and builds stacks row by row; the
scalars of a stack of maps (Extensor.det, Extensor.trace) are (T, 1) arrays
too.

Each product has one route, whatever the layout of its operands.  Every
operand enters it as a trial stack: an unstacked value with its (m, 2^n)
tangent block is a stack of one with P = 1, a point batch a stack of one
with P = B.  The result leaves in the operands' own layout: a trial stack if
either side is one, else a point batch if either side is one.  Each trial
has its own operator, built once per chunk of trials and applied to the
value rows and to the tangent rows alike: a value row meets it as one gemv
per trial, a tangent block as one gemm.  A point batch meets the other
side's operator as a tangent block does (a @ M_b, or b @ L_a when only b is
a batch).  Two point batches multiply one row pair at a time, each row one
gemv per trial; a side is a batch by its own layout, so a batch of one
against a batch of B is still a product of two batches.  The scalar product
is one weighted dot per row.  Operator stacks are cut into chunks below
glibc's 128 KB mmap threshold, so freeing one never raises that threshold,
and one chunk's operators are alive at a time: two freed together can push
the heap past malloc's trim threshold, and every later operator then faults
its pages in afresh.  Extensor application (extcalc.extensor) takes the same
single route.

All values are immutable after construction and every operation is pure.
Every layer checks its inputs with the same two rules: _check_metric (one
metric for all operands, maps and frames) and _check_operand (a fixed operand
is one unbatched homogeneous multivector without a tangent block, or a trial
stack of them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, isfinite
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
        if not all(isfinite(g) and g != 0.0 for g in diag):
            raise ConfigurationError(f"metric entries must be finite and nonzero, got {diag}")
        object.__setattr__(self, "diag", diag)
        # every table cache is keyed by the metric: hash it once, not per lookup
        object.__setattr__(self, "_hash", hash((self.dim, diag)))

    def __hash__(self) -> int:
        return self._hash

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
    off_grade: dict  # grade -> masks of every other grade, increasing
    weight: np.ndarray  # blade "squared norm": product of touched metric entries
    reverse_signs: np.ndarray
    perm: np.ndarray  # perm[i, k] = i ^ k
    right: dict  # kind -> R with R[i, k] = S[i, i ^ k]
    kernels: dict  # kind -> _Gather or _Scatter, for every kind but "scalar"


class _Gather:
    """Operators of a dense table: every blade pair is gathered and weighted."""

    def __init__(self, perm, right):
        self.right_signs = right
        self.index = np.array(perm)  # writeable: np.take copies a read-only index per call
        # L[j, k] = S[j ^ k, j] = R[j ^ k, k]: the left table is the right one permuted
        self.left_signs = right[perm, np.arange(len(right))]
        self.left_signs.flags.writeable = False

    def right(self, b: np.ndarray) -> np.ndarray:
        """M_b, with a @ M_b the product of a and b; one per trial of a
        (T, 2^n) stack."""
        gathered = np.take(b, self.index, axis=-1)
        gathered *= self.right_signs
        return gathered

    def left(self, a: np.ndarray) -> np.ndarray:
        """L_a, with b @ L_a the product of a and b; one per trial."""
        gathered = np.take(a, self.index, axis=-1)
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
        """One operator per trial of a (T, 2^n) stack, written row by row:
        a 1-d scatter per trial is cheaper than one 2-d scatter for all."""
        op = np.zeros((len(x), self.size * self.size))
        for row, values in zip(op, x):
            row[index] = values[factor] * self.signs
        return op.reshape(len(x), self.size, self.size)


def _kernel(perm: np.ndarray, right: np.ndarray):
    """The cheaper operator builder for a table: writing its nonzero terms
    beats the dense gather once they are at most a quarter of the table."""
    if 4 * np.count_nonzero(right) <= right.size:
        return _Scatter(right)
    return _Gather(perm, right)


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
    off_grade = {g: np.flatnonzero(grades != g) for g in range(metric.dim + 1)}
    right = _signs(metric.dim, weight, reverse_signs, i, perm)
    for arr in (grades, *blades, *off_grade.values(), weight, reverse_signs, perm, *right.values()):
        arr.flags.writeable = False
    return _Tables(
        grades=grades,
        blades=blades,
        off_grade=off_grade,
        weight=weight,
        reverse_signs=reverse_signs,
        perm=perm,
        right=right,
        kernels={
            kind: _kernel(perm, right[kind])
            for kind in PRODUCT_KINDS if kind != "scalar"
        },
    )


_BATCH_WITH_TANGENTS = "a batched multivector cannot carry or meet a tangent block"
_FACTORS = (int, float, np.number, np.ndarray)  # what scales a Multivector
_MMAP_THRESHOLD = 128 * 1024  # glibc's default: larger blocks are mmapped


def _sum_tangents(ta, tb):
    """Sum of two tangent blocks, either of which may be absent; an unstacked
    block adds to each trial of a stacked one."""
    if ta is None:
        return tb
    if tb is None:
        return ta
    if ta.shape[-2:] != tb.shape[-2:]:
        raise ValueError(f"tangent blocks of shapes {ta.shape} and {tb.shape} do not match")
    return ta + tb


def _chunks(count: int, size: int) -> list:
    """Slices of a trial axis of `count` whose (size, size) operator stacks
    stay below the mmap threshold; one trial per slice if one is larger."""
    step = max(1, (_MMAP_THRESHOLD - 1) // (8 * size * size))
    return [slice(i, i + step) for i in range(0, count, step)]


def _as_stack(values: np.ndarray) -> np.ndarray:
    """Values as (T, P, 2^n), or a tangent block as (T, m, 2^n): an unstacked
    value, point batch or block is a stack of one."""
    return values.reshape((1,) * (3 - values.ndim) + values.shape)


class Multivector:
    """Immutable element of the full algebra: a value array with one
    coefficient per basis blade, plus an optional (m, 2^n) tangent block;
    or a batch of B elements, a (B, 2^n) value array without tangents; or a
    trial stack of T of either, (T, P, 2^n) values (see the module notes)."""

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
        """Internal constructor for arrays this module owns and never mutates;
        the one place that keeps a batch and a tangent block apart.  A
        (T, 1, 2^n) trial stack takes a (T, m, 2^n) block."""
        if tangents is not None and not (
            (values.ndim == 1 and tangents.ndim == 2)
            or (values.ndim == tangents.ndim == 3 and values.shape[1] == 1
                and len(values) == len(tangents))
        ):
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

    @classmethod
    def stack(cls, rows: Sequence["Multivector"]) -> "Multivector":
        """The trial stack of unbatched multivectors over one metric: trial r
        is rows[r], its values and its tangent block (all rows carry one of
        one shape, or none does)."""
        rows = list(rows)
        if not rows:
            raise ValueError("need at least one multivector to stack")
        metric = rows[0].metric
        for x in rows:
            _check_metric(metric, x.metric)
            if x._values.ndim != 1:
                raise ValueError("only unbatched multivectors stack")
        values = np.stack([x._values for x in rows])[:, None, :]
        blocks = [x._tangents for x in rows]
        if all(t is None for t in blocks):
            return cls._raw(metric, values)
        if any(t is None or t.shape != blocks[0].shape for t in blocks):
            raise ValueError("stacked rows must all carry tangent blocks of one shape, or none")
        return cls._raw(metric, values, np.stack(blocks))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """One coefficient per mask, as coeff returns it."""
        if self._values.ndim == 2:
            return tuple(self._values.T.copy())
        if self._tangents is None and self._values.ndim == 1:
            return tuple(self._values.tolist())
        return tuple(map(self.coeff, range(self.metric.size)))

    def coeff(self, mask: int):
        """Coefficient of one blade: a float; a grade-0 jet when a tangent
        block is present, its tangent column the coefficient's tangents; a
        (B,) array for a batch; a (T, P) array for a trial stack."""
        _check_mask(self.metric, mask)
        values, t = self._values, self._tangents
        if values.ndim == 1:
            value = float(values[mask])
            if t is None:
                return value
            return _blade(self.metric, 0, value, t[:, mask])
        if t is None:
            return values[..., mask].copy()
        return _blade(self.metric, 0, values[..., mask], t[..., mask])

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
        if self._tangents.ndim == 3:
            return Multivector._raw(self.metric, self._tangents[:, row, None])
        return Multivector._raw(self.metric, self._tangents[row])

    def with_tangent(self, direction: "Multivector") -> "Multivector":
        """Lift to a one-row tangent block seeded from `direction`."""
        return self.with_tangents((direction,))

    def with_tangents(self, directions: Sequence["Multivector"]) -> "Multivector":
        """Lift to a tangent block whose row r is the value of directions[r]."""
        for d in directions:
            _check_metric(self.metric, d.metric)
        block = np.stack([d._values for d in directions])
        return Multivector._raw(self.metric, self._values, block)

    def _support(self) -> np.ndarray:
        """Masks nonzero anywhere: in the value, a tangent row, a batch row or
        a trial."""
        size = self.metric.size
        support = self._values != 0.0
        if support.ndim > 1:
            support = support.reshape(-1, size).any(axis=0)
        if self._tangents is not None:
            support |= (self._tangents != 0.0).reshape(-1, size).any(axis=0)
        return support

    def nonzero_items(self):
        return [(m, self.coeff(m)) for m in np.flatnonzero(self._support()).tolist()]

    def grades(self) -> frozenset:
        grades = _tables(self.metric).grades
        return frozenset(grades[self._support()].tolist())

    def is_homogeneous(self, grade: int) -> bool:
        """True when supported on grade `grade` only (the zero element counts):
        no value, batch row or tangent row is nonzero (NaN included) on a mask
        of another grade.  A grade out of range leaves every mask off-grade."""
        off = _tables(self.metric).off_grade.get(grade, slice(None))
        if np.count_nonzero(self._values[..., off]):
            return False
        return self._tangents is None or not np.count_nonzero(self._tangents[..., off])

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self._values)))

    # -- linear operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):  # a constant scalar
            other = Multivector.from_scalar(self.metric, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        _check_metric(self.metric, other.metric)
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

    def _map_rows(self, f) -> "Multivector":
        """f applied alike to the value rows and to the tangent rows: a map
        of (..., 2^n) arrays that acts on each row on its own."""
        t = self._tangents
        return Multivector._raw(self.metric, f(self._values), None if t is None else f(t))

    def __neg__(self):
        return self._map_rows(np.negative)

    def _scaled(self, factor):
        # an array holds one factor per batch row, (B,), or per trial, (T, P)
        factor = factor[..., None] if isinstance(factor, np.ndarray) else float(factor)
        return self._map_rows(lambda rows: factor * rows)

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
        _check_grade(self.metric.dim, grade)
        keep = _tables(self.metric).grades == grade
        return self._map_rows(lambda rows: np.where(keep, rows, 0.0))

    def reverse(self) -> "Multivector":
        signs = _tables(self.metric).reverse_signs
        return self._map_rows(lambda rows: signs * rows)

    # -- products ----------------------------------------------------------

    def _product(self, kind: str, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            raise TypeError(f"expected a Multivector, got {type(other).__name__}")
        _check_metric(self.metric, other.metric)
        tables = _tables(self.metric)
        a, b = _as_stack(self._values), _as_stack(other._values)
        ta = None if self._tangents is None else _as_stack(self._tangents)
        tb = None if other._tangents is None else _as_stack(other._tangents)
        if kind == "scalar":
            values, tangents = _scalar_product(tables.weight, a, b, ta, tb)
        else:  # a point batch by its own layout: (1, 2^n) against (B, 2^n) is two batches
            values, tangents = _stacked_product(
                tables.kernels[kind], a, b, ta, tb, _is_batch(self), _is_batch(other))
        ndim = max(self._values.ndim, other._values.ndim)
        if ndim < 3:  # back to the operands' own layout: one value, or a point batch
            values = values.reshape(values.shape[3 - ndim:])
            tangents = None if tangents is None else tangents[0]
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
        if self._values.ndim == 3:  # a trial stack, one trial per entry
            trials = (Multivector._raw(self.metric, v[0] if len(v) == 1 else v)
                      for v in self._values)
            return "{" + "; ".join(map(repr, trials)) + "}"
        if self._values.ndim == 2:
            rows = (Multivector._raw(self.metric, row) for row in self._values)
            return "[" + ", ".join(map(repr, rows)) + "]"
        values = self._values
        terms = [
            f"{values[m]:g}*{blade_name(m)}" if m else f"{values[m]:g}"
            for m in np.flatnonzero(self._support()).tolist()
        ]
        return " + ".join(terms) if terms else "0"


def _stacked_product(kernel, a, b, ta, tb, batch_a, batch_b) -> tuple:
    """(values, tangents) of a product of (T, P, 2^n) stacks, with
    (T, m, 2^n) tangent blocks or None, an operand of one trial meeting
    every trial of the other.  Each trial's operator is its own, so every
    trial makes the BLAS call one multivector makes alone.  A point batch
    meets the other side's operator as a tangent block does, one gemm per
    trial; two point batches multiply one row pair at a time."""
    if (batch_a or batch_b) and (ta is not None or tb is not None):
        raise ValueError(_BATCH_WITH_TANGENTS)
    if batch_a and batch_b:  # one row pair at a time, each row one gemv per trial
        a, b = np.broadcast_arrays(a, b)
        pairs = [_by_chunks(b[:, j, None], kernel.right, a[:, j, None])[0]
                 for j in range(a.shape[1])]
        return np.concatenate(pairs, axis=1), None
    if batch_b:  # b's rows meet a as tangent rows do
        return _by_chunks(a, kernel.left, b)[0], None
    values, tangents = _by_chunks(b, kernel.right, a, ta)
    if tb is not None:
        tangents = _sum_tangents(tangents, _by_chunks(a, kernel.left, tb)[0])
    return values, tangents


def _by_chunks(x, operator, *rows) -> list:
    """[r @ operator(x) for r in rows], None for a None r: one operator per
    trial of the (T, 1, 2^n) x, each built once per chunk of trials for all
    the (T or 1, r, 2^n) rows and freed before the next is built."""
    if len(x) == 1:  # one operator for every trial
        op = operator(x[:, 0])
        return [None if r is None else r @ op for r in rows]
    parts = []
    for sl in _chunks(len(x), x.shape[-1]):
        op = operator(x[sl, 0])  # rows of one trial meet every trial's operator
        parts.append([None if r is None else (r if len(r) == 1 else r[sl]) @ op for r in rows])
        del op  # one chunk's operators alive at a time (see the module notes)
    return [None if r is None else np.concatenate(column) for r, column in zip(rows, zip(*parts))]


def _scalar_product(weight, a, b, ta, tb) -> tuple:
    """(values, tangents) of <~a b>_0 for (T, P, 2^n) stacks: one weighted
    dot per row, its tangents one gemv per trial and tangent side."""
    bw = b * weight
    dots = np.vecdot(a, bw)
    values = np.zeros(dots.shape + (len(weight),))
    values[..., 0] = dots
    if ta is None and tb is None:
        return values, None
    column = None if ta is None else _matvec(ta, bw)
    if tb is not None:
        column = _sum_tangents(column, _matvec(tb, a * weight))
    tangents = np.zeros(column.shape + (len(weight),))
    tangents[..., 0] = column
    return values, tangents


def _matvec(block, v) -> np.ndarray:
    """block @ v per trial, (T, m) from a (T, m, 2^n) block and a
    (T, 1, 2^n) vector."""
    return (block @ v[:, 0, :, None])[..., 0]


# slot setters that bypass Multivector.__setattr__, which refuses all writes
_set_metric = Multivector.metric.__set__
_set_values = Multivector._values.__set__
_set_tangents = Multivector._tangents.__set__


def _check_metric(metric: Metric, other: Metric):
    """Operands, maps and frames combine only over one metric: a mix of two
    weighs blades and reciprocals in the wrong one, silently."""
    if metric is not other and metric != other:
        raise ConfigurationError(f"operands live over different metrics: {metric} and {other}")


def _check_operand(x: Multivector, metric: Metric, grade: int, what: str):
    """The rule for a fixed operand -- an anchor, a direction, a map's image,
    a factory's constant: one unbatched grade-`grade` multivector over
    `metric`, or a trial stack of them, with no tangent block (it is a
    constant, not a variable)."""
    _check_metric(metric, x.metric)
    if _is_batch(x) or x._tangents is not None or not x.is_homogeneous(grade):
        noun = "vector" if grade == 1 else f"grade-{grade} multivector"
        raise ValueError(f"{what} must be one unbatched {noun} with no tangent block")


def _is_batch(x: Multivector) -> bool:
    """True for a point batch or a stack of them; a trial stack is no batch."""
    values = x._values
    return values.ndim == 2 or (values.ndim == 3 and values.shape[1] != 1)


def _rows(x: Multivector) -> np.ndarray:
    """The (2^n,) value of an unbatched x, or the (T, 2^n) values of a trial stack."""
    values = x._values
    return values[:, 0] if values.ndim == 3 else values


def _trial_rows(metric: Metric, rows: np.ndarray) -> Multivector:
    """The multivector of one (2^n,) value, or the trial stack of (T, 2^n) values."""
    return Multivector._raw(metric, rows[:, None] if rows.ndim == 2 else rows)


def _check_mask(metric: Metric, mask: int):
    if not 0 <= mask < metric.size:
        raise ValueError(f"blade mask {mask} out of range for dim {metric.dim}")


def _check_grade(dim: int, *grades):
    """A grade is an integer in [0, dim]; a bool (True is 1) is none."""
    for grade in grades:
        if isinstance(grade, bool) or not isinstance(grade, (int, np.integer)):
            raise ValueError(f"grade must be an integer, got {grade!r}")
        if not 0 <= grade <= dim:  # a negative index would wrap around
            raise ValueError(f"grade {grade} out of range for dim {dim}")


def _blade(metric: Metric, mask: int, coeff, column=None) -> Multivector:
    """coeff * blade, with tangent column `column` ((m,), (T, m) for a trial
    stack, or None) at `mask`; a (B,) coeff makes a batch, a (T, P) one a
    trial stack."""
    batch = coeff.shape if isinstance(coeff, np.ndarray) else ()
    values = np.zeros(batch + (metric.size,))
    values[..., mask] = coeff
    tangents = None
    if column is not None:
        tangents = np.zeros(column.shape + (metric.size,))
        tangents[..., mask] = column
    return Multivector._raw(metric, values, tangents)


def _jet_parts(jet: Multivector) -> tuple:
    """(value, tangent column or None) of an unbatched grade-0 multivector:
    a float and an (m,) column, or, for a trial stack, (T, 1) and (T, m)."""
    if _is_batch(jet) or not jet.is_homogeneous(0):
        raise ValueError("expected an unbatched grade-0 multivector as a scalar")
    t = jet._tangents
    if jet._values.ndim == 3:
        return jet._values[..., 0], None if t is None else t[..., 0]
    return float(jet._values[0]), None if t is None else t[:, 0]


def product(kind: str, a: Multivector, b: Multivector) -> Multivector:
    """One of the four bilinear products; kind in PRODUCT_KINDS."""
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    return a._product(kind, b)


@lru_cache(maxsize=None)
def _sum_rows(metric: Metric, grade: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather index a * 2^n + (S_a ^ m) and signs R[S_a, m] of
    product_sum, each (C(n, grade), 2^n), over the grade's masks S."""
    tables = _tables(metric)
    support = tables.blades[grade]
    index = np.arange(len(support))[:, None] * metric.size + tables.perm[support]
    signs = tables.right[kind][support]
    index.flags.writeable = signs.flags.writeable = False
    return index, signs


def product_sum(metric: Metric, kinds, grade: int, lefts, rights):
    """sum_i  lefts[i] * rights[..., i, :]  under each product of `kinds`.

    lefts is a (..., k, 2^n) array of grade-`grade` values (other
    coefficients are ignored), rights (..., k, 2^n), each result (..., 2^n);
    the leading axes (bands, a trial stack's trials) broadcast.  Over the
    grade's masks S, product(kind, x, d)[m] = sum_a x[S_a] d[S_a ^ m]
    R[S_a, m], so the i sum comes first as one matmul, cross =
    lefts[:, S].T @ rights, and the a sum is a gather of cross at
    (a, S_a ^ m) weighted by R[S_a, m].  The index and sign rows are cached
    per (metric, grade, kind): O(C(n, grade) * 2^n) each, never a dense
    (C(n, grade) * 2^n, 2^n) operator.  The index does not depend on the
    kind, so a sequence of kinds shares one matmul and one gather and gives
    a tuple of results, each bit for bit its kind's own; one kind (a
    string) gives one result.
    """
    single = isinstance(kinds, str)
    kinds = (kinds,) if single else tuple(kinds)
    if not kinds:
        return ()
    for kind in kinds:
        if kind not in PRODUCT_KINDS:
            raise ValueError(f"unknown product kind {kind!r}")
    _check_grade(metric.dim, grade)
    rows = [_sum_rows(metric, grade, kind) for kind in kinds]
    support = lefts[..., _tables(metric).blades[grade]]
    cross = np.ascontiguousarray(np.swapaxes(support, -1, -2)) @ rights
    gathered = cross.reshape(cross.shape[:-2] + (-1,))[..., rows[0][0]]
    sums = tuple((gathered * signs).sum(axis=-2) for _, signs in rows)
    return sums[0] if single else sums


def grade_masks(dim: int, grade: int) -> list[int]:
    """Masks of the grade-`grade` blades, in increasing mask order."""
    _check_grade(dim, grade)
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


@lru_cache(maxsize=None)
def _laplace_index(dim: int, grade: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gathers of the Laplace step from the (grade-1)-th compound to the
    grade-th, expanding each minor along its last column: flat indices, each
    (C, grade, C), into the n x n matrix (row i_r of blade I, last column of
    blade J) and into the smaller compound (I without i_r, J without its last
    column), and the cofactor signs (-1)^(r + grade - 1), shape (grade, 1)."""
    masks, smaller = grade_masks(dim, grade), grade_masks(dim, grade - 1)
    position = {m: i for i, m in enumerate(smaller)}
    bits = [[j for j in range(dim) if m >> j & 1] for m in masks]
    rows = np.array(bits).reshape(len(masks), grade)
    sub_rows = np.array([[position[m ^ (1 << j)] for j in b] for b, m in zip(bits, masks)])
    sub_rows = sub_rows.reshape(len(masks), grade)
    last = rows[:, -1]
    sub_cols = np.array([position[m ^ (1 << j)] for m, j in zip(masks, last.tolist())])
    entries = rows[:, :, None] * dim + last[None, None, :]
    minors = sub_rows[:, :, None] * len(smaller) + sub_cols[None, None, :]
    signs = np.where(np.arange(grade) % 2 == (grade - 1) % 2, 1.0, -1.0)[:, None]
    for arr in (entries, minors, signs):
        arr.flags.writeable = False
    return entries, minors, signs


def _compound(matrix: np.ndarray, grade: int) -> np.ndarray:
    """The grade-th compound of an n x n matrix, or of each matrix of a
    (T, n, n) trial stack: entry (I, J) is its minor on the generator sets
    of the I-th and J-th grade-`grade` blades.  The k-th compound comes from
    the (k-1)-th by one Laplace step along each minor's last column, a
    gather, a multiply by the cofactor signs and a sum over the k rows, with
    no pivoting and no division; on a diagonal minor that is the diagonal's
    product in order, the wedge loop's bits.  Grade 0 is [[1.0]] and grade 1
    a copy of the matrix."""
    n = matrix.shape[-1]
    _check_grade(n, grade)
    lead = matrix.shape[:-2]  # a trial stack's compounds, one per trial
    if grade == 0:
        return np.ones(lead + (1, 1))
    compound = np.array(matrix, dtype=float)
    flat = matrix.reshape(lead + (-1,))
    for k in range(2, grade + 1):
        entries, minors, signs = _laplace_index(n, k)
        terms = np.take(flat, entries, axis=-1)
        terms *= np.take(compound.reshape(lead + (-1,)), minors, axis=-1)
        terms *= signs
        compound = terms.sum(axis=-2)
    return compound


def reciprocal_frame(vectors: Sequence[Multivector]) -> list[Multivector]:
    """Vectors f^i with f^i . f_j = delta_ij under the ambient metric: the
    inverse Gram matrix applied to the frame's values (tangents are dropped).
    Trial stacks of vectors give the trial stack of reciprocal frames."""
    vectors = list(vectors)
    if not vectors:
        raise DegenerateFrameError("empty frame")
    metric = vectors[0].metric
    n = metric.dim
    if len(vectors) != n:
        raise DegenerateFrameError(f"need {n} vectors, got {len(vectors)}")
    for v in vectors:
        _check_metric(metric, v.metric)
        if _is_batch(v) or not v.is_homogeneous(1):
            raise DegenerateFrameError("frame vectors must be unbatched and grade 1")
    tables = _tables(metric)
    grade1 = tables.blades[1]
    coords = _coordinate_rows(vectors, grade1)
    gram = (coords * tables.weight[grade1]) @ np.swapaxes(coords, -1, -2)
    # conditioning, not det size, so that a frame and its scaled copies agree
    sv = np.linalg.svd(gram, compute_uv=False)
    if not np.all(sv[..., -1] > 1e-12 * sv[..., 0]):
        raise DegenerateFrameError("frame vectors are (numerically) dependent")
    recip = np.zeros(coords.shape[:-1] + (metric.size,))
    recip[..., grade1] = np.linalg.inv(gram) @ coords
    return [_trial_rows(metric, recip[..., k, :]) for k in range(n)]


def _coordinate_rows(vectors: Sequence[Multivector], masks) -> np.ndarray:
    """(n, len(masks)) coefficients of the vectors on `masks`, row k from
    vectors[k]; (T, n, len(masks)) when any of them is a trial stack."""
    rows = [_rows(v) for v in vectors]
    if len({r.shape for r in rows}) > 1:
        rows = np.broadcast_arrays(*rows)
    return np.stack(rows, axis=-2)[..., masks]


@dataclass(frozen=True)
class Frame:
    """A basis of grade-1 vectors together with its reciprocal basis; or a
    trial stack of frames, each vector a trial stack."""

    vectors: tuple[Multivector, ...]
    reciprocal: tuple[Multivector, ...]

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

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

    def blades(self, grade: int) -> tuple[np.ndarray, np.ndarray]:
        """(primal, reciprocal) blades of a grade: read-only (C(n, grade), 2^n)
        value arrays, cached, whose row J in increasing mask order is the
        wedge f_J (f^J) of the vectors (reciprocal vectors) that mask J picks;
        (T, C(n, grade), 2^n) for a trial stack of frames.  A wedge of k
        vectors has the k x k minors of their coordinates as its
        coefficients, so each array is a compound of a coordinate matrix."""
        if grade not in self._cache:
            masks = _tables(self.metric).blades
            pair = []
            for vectors in (self.vectors, self.reciprocal):
                # _compound rejects a grade out of range before masks[grade] is read
                minors = _compound(_coordinate_rows(vectors, masks[1]), grade)
                blades = np.zeros(minors.shape[:-1] + (self.metric.size,))
                blades[..., masks[grade]] = minors
                blades.flags.writeable = False
                pair.append(blades)
            self._cache[grade] = tuple(pair)
        return self._cache[grade]


@lru_cache(maxsize=None)
def _orthonormal_frame(metric: Metric) -> Frame:
    basis = basis_vectors(metric)
    recip = [(1.0 / metric.diag[k]) * basis[k] for k in range(metric.dim)]
    return Frame(tuple(basis), tuple(recip))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _uniform(u: np.ndarray) -> np.ndarray:
    """rng.uniform(-1.0, 1.0, shape) bit for bit, from u = rng.random(shape):
    numpy forms -1 + 2u, and each u is k 2^-53, so 2u - 1 is exact."""
    return 2.0 * u - 1.0


def random_multivector(metric: Metric, grade: int, rng) -> Multivector:
    """Homogeneous multivector with coefficients uniform in [-1, 1)."""
    _check_grade(metric.dim, grade)
    values = np.zeros(metric.size)
    masks = _tables(metric).blades[grade]
    values[masks] = _uniform(_as_rng(rng).random(len(masks)))
    return Multivector._raw(metric, values)
