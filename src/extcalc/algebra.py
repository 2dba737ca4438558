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

The products are sums over term lists, the grade-specialised products of
Gaigen (Fontijne, Efficient Implementation of Geometric Algebra, 2007; Dorst,
Fontijne & Mann, Geometric Algebra for Computer Science, 2007, ch. 22).
With e_i * e_j = S[i, j] e_(i^j) for a product's sign-and-weight table S,
the term list of a kind and two grade supports holds every structurally
nonzero pair (i, j, s = S[i, j]) of those grades: a grade-k wedge with a
vector has C(n, k) (n - k).  The grades are known before the data is seen:
a multivector the library builds carries the grades its rows may be
nonzero on, NaN included (_grade_bits) -- a product those its term list
reaches, a map's image the target grade, a sum the union -- and one from
the public constructor is scanned once, when first asked.  A product reads
its operands' grades, builds the list on first use and sums over each
output o's terms

    value    c[o]  = sum a_i (s b_j)
    tangent  tc[o] = sum ta_i (s b_j) + sum a_i (s tb_j)

so every product doubles as an exact forward-mode derivative rule.  An
output without terms is zero, beside NaN or inf too, so the grades a
product carries hold.  The scalar product is one weighted dot per row,
c_0 = a . (b w) for the blade weights w.  A single coefficient of a
multivector with a tangent block is a grade-0 jet: a multivector whose slot
0 holds the coefficient and whose tangent column 0 holds that coefficient's
tangents.  A jet scales a multivector through the geometric product, which
applies the product rule, so the smooth scalar maps of extcalc.dual, lifted
to jets, compose with the products.  Every geometric, wedge and
left-contraction product sums its term list, one with a grade-0 operand
too: that list has one term per output, and a NaN or inf scalar stays off
the grades no term reaches.

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
too.  A blade is read as values[..., mask] in every layout, a float from
one unstacked value (_read).  _select and _merged, the trial-row select and
scatter, take a stack's trials apart and put them back; Multivector.stack
merges one row per trial.

Each product has one route, whatever the layout of its operands: their
leading axes broadcast, so a value row, a tangent block, a point batch, a
trial stack and two point batches, row pair by row pair, are the same code,
and the result leaves in the operands' own layout (a trial stack if either
side is one, else a point batch if either side is one).  Trial r of a stack
is bit for bit trial r alone.  A stack's term list covers the grades of all
its trials, so trial r meets terms of value zero that it does not meet
alone; but each output is one sequential sum from +0.0 of its terms in
increasing i, and such a sum does not change when terms of value zero join
it anywhere, signed zeros included.  Extensor application (extcalc.extensor)
likewise takes one route for every layout.

A Frame is its two coordinate matrices, (n, n) or (T, n, n) for a trial
stack: row k of coords holds f_k's grade-1 coordinates, row k of recip those
of the reciprocal vector f^k, the inverse Gram matrix times coords (Hestenes
& Sobczyk, Clifford Algebra to Geometric Calculus, 1984, ch. 1).  Its vectors
and its blades, compounds of the two matrices, are built from them.

All values are immutable after construction and every operation is pure.
Every layer checks its inputs with the same two rules: _check_metric (one
metric for all operands, maps and frames) and _check_operand (a fixed operand
is one unbatched homogeneous multivector without a tangent block, or a trial
stack of them); is_homogeneous answers from the carried grades when they
settle it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import comb, isfinite
from operator import or_
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateFrameError

MAX_DIM = 8
FRAME_CONDITION_SCALE = 1e-12  # a Gram matrix with sigma_min <= this * sigma_max is dependent
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
        try:
            if isinstance(diag, (str, bytes)):  # it would iterate to its characters
                raise TypeError(diag)
            diag = tuple(float(g) for g in diag)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"metric entries for dim {self.dim} must be real numbers, got {self.diag!r}"
            ) from None
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

    def __post_init__(self):
        object.__setattr__(self, "mask", _blade_mask(self.mask))

    @property
    def grade(self) -> int:
        return self.mask.bit_count()

    @property
    def name(self) -> str:
        return blade_name(self.mask)


def _blade_mask(mask) -> int:
    """A blade mask is a non-negative integer; a bool (True is 1) is none."""
    if isinstance(mask, bool) or not isinstance(mask, (int, np.integer)) or mask < 0:
        raise ValueError(f"a blade mask must be a non-negative integer, got {mask!r}")
    return int(mask)


def blade_name(mask: int) -> str:
    mask = _blade_mask(mask)
    if mask == 0:
        return "1"
    return "e" + "".join(str(k + 1) for k in range(mask.bit_length()) if mask >> k & 1)


@dataclass(frozen=True, eq=False)
class _Tables:
    grades: np.ndarray  # grade of each mask
    grade_bits: np.ndarray  # 1 << grade of each mask
    blades: tuple  # grade -> masks of that grade, increasing
    off_grade: dict  # grade -> masks of every other grade, increasing
    weight: np.ndarray  # blade "squared norm": product of touched metric entries
    reverse_signs: np.ndarray


def _signs(kind: str, tables: "_Tables", x, y) -> np.ndarray:
    """S[x, y] elementwise, where e_x * e_y = S[x, y] e_(x^y) under `kind`."""
    if kind == "scalar":
        return np.where(x == y, tables.weight[x], 0.0)
    # reordering e_x e_y: each generator of x passes the generators of y below it
    parity = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=np.uint8)
    for shift in range(1, len(tables.blades) - 1):
        parity ^= np.bitwise_count((x >> shift) & y)
    common = x & y
    signs = np.where(parity & 1, -1.0, 1.0) * tables.weight[common]
    if kind == "wedge":
        return np.where(common == 0, signs, 0.0)
    if kind == "lcontract":
        return np.where(common == x, tables.reverse_signs[x] * signs, 0.0)
    return signs


@lru_cache(maxsize=None)
def _tables(metric: Metric) -> _Tables:
    masks = np.arange(metric.size)
    grades = np.bitwise_count(masks).astype(np.intp)
    weight = np.ones(metric.size)
    for k, g in enumerate(metric.diag):
        weight[(masks >> k) & 1 == 1] *= g
    reverse_signs = np.where((grades * (grades - 1) // 2) & 1, -1.0, 1.0)
    blades = tuple(np.flatnonzero(grades == g) for g in range(metric.dim + 1))
    off_grade = {g: np.flatnonzero(grades != g) for g in range(metric.dim + 1)}
    grade_bits = 1 << grades
    for arr in (grades, grade_bits, *blades, *off_grade.values(), weight, reverse_signs):
        arr.flags.writeable = False
    return _Tables(grades, grade_bits, blades, off_grade, weight, reverse_signs)


class _Terms:
    """A term list: (k, m) blocks i, j and s per group of outputs with about
    as many terms, column c the terms of one output in increasing i, padded
    at its end to k with terms of sign 0.  The groups' column sums, side by
    side, hold every output at `gather` (None when they are all outputs in
    mask order), an output without terms at column `padding` (None when
    every output has terms), a column of padding alone, which the kernel
    sets to zero: a padding term is a zero only beside finite operands.  A
    lone output fills two columns: numpy sums a single column pairwise.  A
    block whose columns share their i (the geometric product with a dense
    right side) keeps one, (k, 1).  When every sign is 1 or -1 and the list
    is long, j is `signed`: it reads y, -y, or 0 y for the padding, so the
    signed terms take one gather.  Index arrays stay C-contiguous and
    writeable: np.take copies any other index per call.  `bits` sets the
    grades of the outputs with terms: the grades a product can reach."""

    __slots__ = ("groups", "gather", "padding", "signed", "bits")

    def __init__(self, i, j, s, grade_bits):
        """From (rows, 2^n) blocks whose column o holds output o's nonzero
        terms first, in increasing i, and terms of sign 0 below them, and
        the grade bit of each output."""
        counts = np.count_nonzero(s, axis=0)
        self.bits = int(np.bitwise_or.reduce(grade_bits, where=counts > 0, initial=0))
        size, groups = len(counts), _padded_groups(counts)
        absent = np.flatnonzero(counts == 0)
        if len(absent):  # one column of padding for every output without terms
            groups = groups[:-1] + [np.append(groups[-1], absent[0])] if groups else [absent[:1]]
        columns = [np.repeat(outs, 2) if len(outs) == 1 else outs for outs in groups]
        blocks = [[np.take(x[:max(counts[outs].max(), 1)], outs, axis=1) for x in (i, j, s)]
                  for outs in columns]
        self.signed = (sum(b.size for _, b, _ in blocks) >= 4096  # then y's copies cost less
                       and bool(np.all(np.abs(s[s != 0.0]) == 1.0)))
        for block in blocks:
            if (block[0] == block[0][:, :1]).all():
                block[0] = block[0][:, :1].copy()
            if self.signed:
                block[1] = np.where(block[2] == 0.0, 2 * size, block[1] + size * (block[2] < 0.0))
        self.groups = [tuple(block) for block in blocks]
        where = np.concatenate(columns)  # the output of each column
        self.padding = int(np.flatnonzero(where == absent[0])[0]) if len(absent) else None
        self.gather = None
        if len(where) != size or np.any(where != np.arange(size)):
            self.gather = np.empty(size, dtype=np.intp)
            self.gather[where[::-1]] = np.arange(len(where))[::-1]  # each output's first column
            self.gather[absent] = self.gather[absent[:1]]


def _padded_groups(counts: np.ndarray) -> list:
    """Outputs with terms, grouped by their term counts, in increasing count:
    a group takes the next count too while padding leaves it at most twice
    its terms, or at most 256 terms."""
    groups, terms = [], 0
    for k in sorted(set(counts[counts > 0].tolist())):
        more = np.flatnonzero(counts == k)
        if groups and k * (len(groups[-1]) + len(more)) <= max(2 * (terms + k * len(more)), 256):
            groups[-1], terms = np.concatenate((groups[-1], more)), terms + k * len(more)
        else:
            groups.append(more)
            terms = k * len(more)
    return [np.sort(outs) for outs in groups]


@lru_cache(maxsize=None)
def _terms(metric: Metric, kind: str, grades_a: int, grades_b: int) -> _Terms:
    """The term list of `kind` between the grades whose bits grades_a and
    grades_b set; built on first use of each key.  Row r of the blocks it
    starts from pairs the r-th mask of the left support with every output."""
    tables = _tables(metric)
    i = np.flatnonzero(tables.grade_bits & grades_a)[:, None]
    j = i ^ np.arange(metric.size)
    s = _signs(kind, tables, i, j)
    s[tables.grade_bits[j] & grades_b == 0] = 0.0
    order = np.argsort(s == 0.0, axis=0, kind="stable")  # each output's terms first
    j, s = np.take_along_axis(j, order, 0), np.take_along_axis(s, order, 0)
    return _Terms(i[order, 0], j, s, tables.grade_bits)


def _grade_bits(x: "Multivector") -> int:
    """Bit g set when a value, batch, trial or tangent row of x may be
    nonzero (NaN included) on a grade-g mask: the grades x carries, which
    the operation that made it knew, or else the grades of its support
    (Multivector._support), which x keeps (it is immutable)."""
    bits = x._bits
    if bits is None:
        bits = int(np.bitwise_or.reduce(_tables(x.metric).grade_bits[x._support()]))
        _set_bits(x, bits)
    return bits


def _union(*xs: "Multivector"):
    """The grades carried by any of the multivectors; None when one carries none."""
    bits = [x._bits for x in xs]
    return None if None in bits else reduce(or_, bits)


_BATCH_WITH_TANGENTS = "a batched multivector cannot carry or meet a tangent block"
_FACTORS = (int, float, np.number, np.ndarray)  # what scales a Multivector


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


def _trial_count(*arrays: np.ndarray) -> int | None:
    """The trial count T of the arrays among `arrays` that lead with a trial
    axis, the 3-d ones (a trial stack's values, a stack of maps' matrices or
    of frames' coordinates, stacked weights or directions), or None when
    none does.  A stack of one broadcasts, as an unstacked operand does; two
    other counts that differ are a ValueError naming both."""
    counts = {len(a) for a in arrays if a.ndim == 3}
    if len(counts) > 1 and len(counts - {1}) > 1:
        many = sorted(counts - {1})
        raise ValueError(f"trial stacks of {many[0]} and {many[1]} trials do not combine")
    return max(counts, default=None)


def _as_stack(values: np.ndarray) -> np.ndarray:
    """Values as (T, P, 2^n), or a tangent block as (T, m, 2^n): an unstacked
    value, point batch or block is a stack of one."""
    return values.reshape((1,) * (3 - values.ndim) + values.shape)


def _select(x, rows):
    """Trials `rows` of a trial stack, its values and tangent block, or of a
    (T, ...) array; None or an unstacked multivector is every trial's."""
    if isinstance(x, np.ndarray):
        return x[rows]
    if x is None or x._values.ndim != 3:
        return x
    t = x._tangents
    return Multivector._raw(x.metric, x._values[rows], None if t is None else t[rows], x._bits)


def _merged(parts: list):
    """The stack of arrays or multivectors whose trials `rows` are `part`'s,
    for each (rows, part) of a partition; a part without tangents has zeros."""
    trials = sum(len(rows) for rows, _ in parts)

    def scatter(arrays, fill=np.empty):
        out = fill((trials,) + max(a.shape[1:] for _, a in arrays))  # P = 1 broadcasts
        for rows, a in arrays:
            out[rows] = a
        return out

    first = parts[0][1]
    if not isinstance(first, Multivector):
        return scatter(parts)
    values = scatter([(r, _as_stack(x._values)) for r, x in parts])
    blocks = [(r, _as_stack(x._tangents)) for r, x in parts if x._tangents is not None]
    return Multivector._raw(first.metric, values, scatter(blocks, np.zeros) if blocks else None,
                            _union(*(x for _, x in parts)))


class Multivector:
    """Immutable element of the full algebra: a value array with one
    coefficient per basis blade, plus an optional (m, 2^n) tangent block;
    or a batch of B elements, a (B, 2^n) value array without tangents; or a
    trial stack of T of either, (T, P, 2^n) values (see the module notes).
    `_bits` holds the grades its rows may be nonzero on (_grade_bits), or
    None while they are unknown."""

    __slots__ = ("metric", "_values", "_tangents", "_bits")
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
        _set_bits(self, None)

    @classmethod
    def _raw(cls, metric: Metric, values: np.ndarray, tangents=None, bits=None) -> "Multivector":
        """Internal constructor for arrays this module owns and never mutates;
        the one place that keeps a batch and a tangent block apart.  A
        (T, 1, 2^n) trial stack takes a (T, m, 2^n) block.  `bits`, when
        the caller knows them, must set every grade on which any row may be
        nonzero or NaN: a missing grade drops a product's terms."""
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
        _set_bits(out, bits)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, metric: Metric) -> "Multivector":
        return cls._raw(metric, np.zeros(metric.size), bits=0)

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
        if len({None if x._tangents is None else x._tangents.shape for x in rows}) > 1:
            raise ValueError("stacked rows must all carry tangent blocks of one shape, or none")
        return _merged([(np.array([r]), x) for r, x in enumerate(rows)])

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """One coefficient per mask, as coeff returns it."""
        return tuple(map(self.coeff, range(self.metric.size)))

    def coeff(self, mask: int):
        """Coefficient of one blade: a float; a grade-0 jet when a tangent
        block is present, its tangent column the coefficient's tangents; a
        (B,) array for a batch; a (T, P) array for a trial stack."""
        _check_mask(self.metric, mask)
        value, t = _read(self._values, mask), self._tangents
        return value if t is None else _blade(self.metric, 0, value, t[..., mask])

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
        return _trial_rows(self.metric, self._tangents[..., row, :])

    def with_tangent(self, direction: "Multivector") -> "Multivector":
        """Lift to a one-row tangent block seeded from `direction`."""
        return self.with_tangents((direction,))

    def with_tangents(self, directions: Sequence["Multivector"]) -> "Multivector":
        """Lift to a tangent block whose row r is the value of directions[r];
        a trial stack takes unstacked directions as every trial's."""
        for d in directions:
            _check_metric(self.metric, d.metric)
            if _is_batch(d):
                raise ValueError(_BATCH_WITH_TANGENTS)
        block = _coordinate_rows(directions, slice(None))
        trials = len(self._values) if self._values.ndim == 3 else None
        if block.ndim == 3 and trials != len(block) and not _is_batch(self):
            held = "an unstacked multivector" if trials is None else f"a stack of {trials} trials"
            raise ValueError(f"directions of {len(block)} trials cannot lift {held}")
        if trials is not None and block.ndim == 2:
            block = np.broadcast_to(block, self._values.shape[:1] + block.shape)
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
        of another grade.  A grade out of range leaves every mask off-grade.
        Carried grades within {grade} answer without a scan (_support)."""
        off = _tables(self.metric).off_grade.get(grade)
        if off is None:
            off = slice(None)
        elif self._bits is not None and not self._bits & ~(1 << int(grade)):
            return True
        return not self._support()[off].any()

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self._values)))

    # -- linear operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):  # a constant scalar
            other = Multivector.from_scalar(self.metric, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        _check_metric(self.metric, other.metric)
        a, b = self._values, other._values
        if a.ndim == b.ndim == 3 and len(a) != len(b):
            _trial_count(a, b)  # fails unless one is a stack of one
        return Multivector._raw(
            self.metric,
            a + b,
            _sum_tangents(self._tangents, other._tangents),
            _union(self, other),
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

    def _map_rows(self, f, bits) -> "Multivector":
        """f applied alike to the value rows and to the tangent rows: a map
        of (..., 2^n) arrays that acts on each row on its own; the result
        carries `bits` (Multivector._raw)."""
        t = self._tangents
        return Multivector._raw(self.metric, f(self._values), None if t is None else f(t), bits)

    def __neg__(self):
        return self._map_rows(np.negative, self._bits)

    def _scaled(self, factor):
        # an array holds one factor per batch row, (B,), or per trial, (T, P)
        factor = factor[..., None] if isinstance(factor, np.ndarray) else float(factor)
        # inf or NaN times a zero coefficient is NaN: the grades are no longer known
        finite = np.isfinite(factor).all() if isinstance(factor, np.ndarray) else isfinite(factor)
        return self._map_rows(lambda rows: factor * rows, self._bits if finite else None)

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
        bits = None if self._bits is None else self._bits & 1 << int(grade)
        return self._map_rows(lambda rows: np.where(keep, rows, 0.0), bits)

    def reverse(self) -> "Multivector":
        signs = _tables(self.metric).reverse_signs
        return self._map_rows(lambda rows: signs * rows, self._bits)

    # -- products ----------------------------------------------------------

    def _product(self, kind: str, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            raise TypeError(f"expected a Multivector, got {type(other).__name__}")
        _check_metric(self.metric, other.metric)
        a, b, ta, tb = self._values, other._values, self._tangents, other._tangents
        if a.ndim == b.ndim == 3 and len(a) != len(b):
            _trial_count(a, b)  # fails unless one is a stack of one
        if (ta is not None or tb is not None) and (_is_batch(self) or _is_batch(other)):
            raise ValueError(_BATCH_WITH_TANGENTS)
        if kind == "scalar":
            values, tangents = _scalar_product(_tables(self.metric).weight, a, b, ta, tb)
            return Multivector._raw(self.metric, values, tangents, 1)
        terms = _terms(self.metric, kind, _grade_bits(self), _grade_bits(other))
        values, tangents = _term_product(terms, a, b, ta, tb)
        return Multivector._raw(self.metric, values, tangents, terms.bits)

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


def _term_product(terms: _Terms, a, b, ta, tb) -> tuple:
    """(values, tangents) of a product through its term list, for value
    arrays whose leading axes broadcast and their tangent blocks or None.
    Output o sums x[..., i] * (s * y[..., j]) over its terms, for x a's value
    row and tangent rows, and y b and then tb, which meets the value row
    alone.  einsum (numpy's own loops, no BLAS) adds one row of a group's
    block at a time from +0.0, over columns of at least two outputs: a
    sequential sum in increasing i."""
    ndim = max(a.ndim, b.ndim)
    a, b = _as_stack(a), _as_stack(b)
    x = a if ta is None else np.concatenate((a, _as_stack(ta)), axis=1)
    ys = (b,) if tb is None else (b, _as_stack(tb))
    if terms.signed:  # read y, -y or, for the padding, 0 y
        ys = [(y[:, :, None] * _UNIT_SIGNS).reshape(y.shape[:2] + (-1,)) for y in ys]
    sums = [[] for _ in ys]
    for i, j, s in terms.groups:
        x_i = x.take(i, axis=2)
        for n, y in enumerate(ys):
            y_j = y.take(j, axis=2)
            if not terms.signed:
                y_j *= s
            if n:  # tb meets the value row alone
                x_i = x_i[:, :1]
            sums[n].append(np.einsum("...kc,...kc->...c", x_i, y_j))
            del y_j  # one gathered block alive at a time
    outs = [parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2) for parts in sums]
    if terms.padding is not None:  # zero beside NaN or inf too, as the grades carried say
        for out in outs:
            out[..., terms.padding] = 0.0
    if terms.gather is not None:
        outs = [out.take(terms.gather, axis=2) for out in outs]
    values, tangents = outs[0], None
    if ta is not None:  # the value row first, then the tangent rows
        values, tangents = values[:, :1], values[:, 1:]
    if tb is not None:
        tangents = _sum_tangents(tangents, outs[1])
    if ndim < 3:  # back to the operands' own layout: one value, or a point batch
        values = values.reshape(values.shape[3 - ndim:])
        tangents = None if tangents is None else tangents[0]
    return values, tangents


_UNIT_SIGNS = np.array([1.0, -1.0, 0.0])[:, None]


def _scalar_product(weight, a, b, ta, tb) -> tuple:
    """(values, tangents) of <~a b>_0: one weighted dot per value row and
    per tangent row, for any layout whose leading axes broadcast."""
    bw = b * weight
    values = _at_scalar(np.vecdot(a, bw), len(weight))
    if ta is None and tb is None:
        return values, None
    column = None if ta is None else np.vecdot(ta, bw)
    if tb is not None:
        column = _sum_tangents(column, np.vecdot(tb, a * weight))
    return values, _at_scalar(column, len(weight))


def _at_scalar(column: np.ndarray, size: int) -> np.ndarray:
    """Rows of 2^n zeros holding `column` at mask 0."""
    rows = np.zeros(column.shape + (size,))
    rows[..., 0] = column
    return rows


# slot setters that bypass Multivector.__setattr__, which refuses all writes
_set_metric = Multivector.metric.__set__
_set_values = Multivector._values.__set__
_set_tangents = Multivector._tangents.__set__
_set_bits = Multivector._bits.__set__


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


def _trial_rows(metric: Metric, rows: np.ndarray, bits=None) -> Multivector:
    """The multivector of one (2^n,) value, or the trial stack of (T, 2^n)
    values, carrying `bits` (Multivector._raw)."""
    return Multivector._raw(metric, rows[:, None] if rows.ndim == 2 else rows, bits=bits)


def _read(values: np.ndarray, mask: int):
    """values[..., mask]: a float from one unstacked value, else a (B,) or (T, P) copy."""
    read = values[..., mask]
    return float(read) if read.ndim == 0 else read.copy()


def _check_mask(metric: Metric, mask: int):
    if _blade_mask(mask) >= metric.size:
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
    return Multivector._raw(metric, values, tangents, 1 << int(mask).bit_count())


def _jet_parts(jet: Multivector) -> tuple:
    """(value, tangent column or None) of an unbatched grade-0 multivector:
    a float and an (m,) column, or, for a trial stack, (T, 1) and (T, m)."""
    if _is_batch(jet) or not jet.is_homogeneous(0):
        raise ValueError("expected an unbatched grade-0 multivector as a scalar")
    return _read(jet._values, 0), None if jet._tangents is None else jet._tangents[..., 0]


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
    support = tables.blades[grade][:, None]
    partners = support ^ np.arange(metric.size)
    index = np.arange(len(support))[:, None] * metric.size + partners
    signs = _signs(kind, tables, support, partners)
    index.flags.writeable = signs.flags.writeable = False
    return index, signs


def product_sum(metric: Metric, kinds: Sequence[str], grade: int, lefts, rights) -> tuple:
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
    kind, so the kinds share one matmul and one gather and give a tuple of
    results, each bit for bit its kind's own.
    """
    if isinstance(kinds, str):  # a bare string is a sequence of one-letter "kinds"
        raise ValueError(f"kinds must be a sequence of product kinds, such as ({kinds!r},)")
    kinds = tuple(kinds)
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
    return tuple((gathered * signs).sum(axis=-2) for _, signs in rows)


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


def scalar_value(a: Multivector, b: Multivector) -> float | np.ndarray:
    """Value part of the scalar product: a float, a batch's (B,) or a stack's (T, P) array."""
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


def _compound(matrix: np.ndarray, grade: int, cascade: list | None = None) -> np.ndarray:
    """The grade-th compound of an n x n matrix, or of each matrix of a
    (T, n, n) trial stack: entry (I, J) is its minor on the generator sets
    of the I-th and J-th grade-`grade` blades.  The k-th compound comes from
    the (k-1)-th by one Laplace step along each minor's last column, a
    gather, a multiply by the cofactor signs and a sum over the k rows, with
    no pivoting and no division; on a diagonal minor that is the diagonal's
    product in order, the wedge loop's bits.  Grade 0 is [[1.0]] and grade 1
    a copy of the matrix.  `cascade`, a list of the matrix's compounds of
    grades 1, 2, ... built so far (grade 1 the matrix), is extended in place
    up to `grade`: each compound of a matrix is built once."""
    n = matrix.shape[-1]
    _check_grade(n, grade)
    lead = matrix.shape[:-2]  # a trial stack's compounds, one per trial
    if grade == 0:
        return np.ones(lead + (1, 1))
    if cascade is None:
        cascade = [np.array(matrix, dtype=float)]
    for k in range(len(cascade) + 1, grade + 1):
        cascade.append(_laplace_step(matrix, cascade[-1], k))
    return cascade[grade - 1]


def _laplace_step(matrix: np.ndarray, smaller: np.ndarray, k: int) -> np.ndarray:
    """The k-th compound of the matrix (of each matrix of a stack) from its
    (k-1)-th, `smaller`."""
    lead = matrix.shape[:-2]
    entries, minors, signs = _laplace_index(matrix.shape[-1], k)
    terms = np.take(matrix.reshape(lead + (-1,)), entries, axis=-1)
    terms *= np.take(smaller.reshape(lead + (-1,)), minors, axis=-1)
    terms *= signs
    return terms.sum(axis=-2)


def reciprocal_frame(vectors: Sequence[Multivector]) -> list[Multivector]:
    """Vectors f^i with f^i . f_j = delta_ij under the ambient metric: the
    inverse Gram matrix applied to the frame's values (tangents are dropped).
    Trial stacks of vectors give the trial stack of reciprocal frames."""
    return list(Frame.from_vectors(vectors).reciprocal)


def _coordinate_rows(vectors: Sequence[Multivector], masks) -> np.ndarray:
    """(k, len(masks)) coefficients of k unbatched multivectors on `masks`, row
    i from vectors[i]; (T, k, len(masks)) when any of them is a trial stack."""
    rows = [_rows(v) for v in vectors]
    if len({r.shape for r in rows}) > 1:
        _trial_count(*(v._values for v in vectors))
        rows = np.broadcast_arrays(*rows)
    # np.stack(rows, axis=-2) without its Python wrapper
    return np.concatenate([r[..., None, :] for r in rows], axis=-2)[..., masks]


@dataclass(frozen=True, eq=False)
class Frame:
    """A basis of grade-1 vectors together with its reciprocal basis, as
    their coordinate matrices: row k of `coords` (`recip`) holds the grade-1
    coordinates of f_k (f^k), shape (n, n), or (T, n, n) for a trial stack
    of frames, of one shape; both read-only.  Frame(metric, coords, recip)
    takes them as given; from_vectors and orthonormal build the reciprocals."""

    metric: Metric
    coords: np.ndarray
    recip: np.ndarray

    def __post_init__(self):
        for name in ("coords", "recip"):
            rows = np.array(getattr(self, name), dtype=float)
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)
        shape, n = self.coords.shape, self.metric.dim
        if shape != self.recip.shape or shape[-2:] != (n, n) or len(shape) > 3:
            raise DegenerateFrameError(f"coords, recip need one ({n}, {n}) or (T, {n}, {n}) shape")
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_cascades", ([self.coords], [self.recip]))  # _compound's

    @classmethod
    def from_vectors(cls, vectors: Sequence[Multivector]) -> "Frame":
        """The frame of n unbatched grade-1 vectors, or trial stacks of them,
        over one metric; their values only (tangents are dropped)."""
        vectors = list(vectors)
        if not vectors:
            raise DegenerateFrameError("empty frame")
        metric = vectors[0].metric
        if len(vectors) != metric.dim:
            raise DegenerateFrameError(f"need {metric.dim} vectors, got {len(vectors)}")
        for v in vectors:
            _check_metric(metric, v.metric)
            if _is_batch(v) or not v.is_homogeneous(1):
                raise DegenerateFrameError("frame vectors must be unbatched and grade 1")
        return cls._of_coords(metric, _coordinate_rows(vectors, _tables(metric).blades[1]))

    @classmethod
    def _of_coords(cls, metric: Metric, coords: np.ndarray) -> "Frame":
        """The frame whose vectors have the rows of `coords`, (n, n) or
        (T, n, n), as coordinates, its reciprocal the inverse Gram matrix
        times coords; DegenerateFrameError when a coordinate is not finite,
        the frame is (numerically) dependent or its reciprocals overflow."""
        if not np.isfinite(coords).all():
            raise DegenerateFrameError("frame vectors must be finite")
        tables = _tables(metric)
        # an exact power of two per trial brings the largest coordinate into
        # [0.5, 1), so a finite frame's Gram matrix neither overflows nor
        # underflows at any uniform scale; the reciprocals take it back
        shift = np.frexp(np.abs(coords).max(axis=(-2, -1), keepdims=True))[1]
        unit = np.ldexp(coords, -shift)
        gram = (unit * tables.weight[tables.blades[1]]) @ np.swapaxes(unit, -1, -2)
        # conditioning, not det size, so that a frame and its scaled copies agree
        inverse = _certified_inverse(gram, FRAME_CONDITION_SCALE)
        if inverse is None:
            sv = np.linalg.svd(gram, compute_uv=False)
            if not np.all(sv[..., -1] > FRAME_CONDITION_SCALE * sv[..., 0]):
                raise DegenerateFrameError("frame vectors are (numerically) dependent")
            inverse = np.linalg.inv(gram)
        with np.errstate(over="ignore"):
            recip = np.ldexp(inverse @ unit, -shift)
        if not np.isfinite(recip).all():
            raise DegenerateFrameError("the reciprocal frame overflows")
        return cls(metric, coords, recip)

    @classmethod
    @lru_cache(maxsize=None)
    def orthonormal(cls, metric: Metric) -> "Frame":
        """The coordinate frame; reciprocals are e_k / g_kk."""
        return cls(metric, np.eye(metric.dim), np.diag(1.0 / np.array(metric.diag)))

    @cached_property
    def vectors(self) -> tuple[Multivector, ...]:
        return self._vectors(0)

    @cached_property
    def reciprocal(self) -> tuple[Multivector, ...]:
        return self._vectors(1)

    def _vectors(self, side: int) -> tuple[Multivector, ...]:
        """The grade-1 vectors, or trial stacks, of the rows of blades(1)[side]."""
        rows = self.blades(1)[side]
        return tuple(_trial_rows(self.metric, rows[..., k, :], 2) for k in range(self.metric.dim))

    def blades(self, grade: int) -> tuple[np.ndarray, np.ndarray]:
        """(primal, reciprocal) blades of a grade: read-only (C(n, grade), 2^n)
        value arrays, cached, whose row J in increasing mask order is the
        wedge f_J (f^J) of the vectors (reciprocal vectors) that mask J picks;
        (T, C(n, grade), 2^n) for a trial stack of frames.  A wedge of k
        vectors has the k x k minors of their coordinates as its
        coefficients, so each array is a compound of coords (recip)."""
        if grade not in self._cache:
            self._cache[grade] = (self._blades(0, grade), self._blades(1, grade))
        return self._cache[grade]

    def _blades(self, side: int, grade: int) -> np.ndarray:
        """blades(grade)[side], the primal (0) or reciprocal (1) ones, from
        the side's compounds, each grade built once from the one below."""
        cascade = self._cascades[side]
        # _compound rejects a grade out of range before masks[grade] is read
        minors = _compound(cascade[0], grade, cascade)
        blades = np.zeros(minors.shape[:-1] + (self.metric.size,))
        blades[..., _tables(self.metric).blades[grade]] = minors
        blades.flags.writeable = False
        return blades


def _certified_inverse(matrices: np.ndarray, scale: float) -> np.ndarray | None:
    """np.linalg.inv(matrices), (n, n) or (T, n, n), when every matrix G
    has ||G||_F ||G^-1||_F <= 1 / (10 scale); else None, also for a singular
    one (LinAlgError).  The product bounds the condition number
    sigma_max / sigma_min from above, so a certified matrix passes the
    singular-value test sigma_min > scale * sigma_max with a margin of 10
    for the rounding in the computed inverse; a None sends the caller to
    that test, one SVD per matrix."""
    try:
        inverse = np.linalg.inv(matrices)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.linalg.norm(matrices, axis=(-2, -1)) * np.linalg.norm(inverse, axis=(-2, -1))
    return inverse if np.all(bound <= 0.1 / scale) else None


def _frame_over(metric: Metric, frame: Frame | None) -> Frame:
    """`frame`, checked to live over `metric`, or the orthonormal frame when None."""
    if frame is None:
        return Frame.orthonormal(metric)
    _check_metric(metric, frame.metric)
    return frame


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
    return Multivector._raw(metric, values, bits=1 << grade)
