"""Randomized verification harness for the derivative-identity catalog.

Every closed-form identity of the functional calculus (and the generic
derivation rules behind it) is an IdentityCheck whose trial(ctx, rng) runs
all config.trials trials and returns their deviations and witness_of(r),
the witness builder of trial r.  A check has one shape: its fields, a
((name, kind), ...) table in RNG order, each drawn for all trials before
any side is evaluated; make(x), what it derives from a group's made fields
(the functional phi, ...); sides(x), the identity's (lhs, rhs) pairs; and
_deviation(pairs), the largest absolute difference over the pairs, each
over max(1, |rhs|) where the identity is relative, the first NaN the result.

A rule's trials are stratified over the cells of its structure, its grades
and arity p, q, k (only they shape the arrays): trial r takes cell (offset +
r) mod C, the offset drawn once, so T >= C trials check every cell (Neyman,
J. R. Stat. Soc. 97, 1934).  A kind (_Kind) draws a field for all trials in
one RNG call, at its largest size over the cells, and cuts a group's rows
to their cell as it makes them one trial stack: _mv, a multivector kept as
its uniforms u (coefficients 2u - 1); _INVERTIBLE and _MAP, maps kept as a
matrix or as uniforms; _frame, a frame kept as its carrier's matrix;
_float; _name, a drawn choice, made the per-trial tuple; _repeat, a tuple.
_Trials makes every cell's group, one trial or several, a trial stack whose
sides, which read the fields by name, are evaluated once (extcalc.algebra;
vector forward mode over a batch, Griewank & Walther, Evaluating
Derivatives, 2nd ed., 2008, ch. 3); a directional derivation rule's sides
come from one values_and_derivatives call per group, the values at h and
the derivatives of its functionals along its directions from one seeded
pass (Inputs.along).  Trial r's deviation is bit for bit what trial r
gives alone.  run_suite checks each identity's worst trial,
the first non-finite deviation, else the first largest, against a
tolerance and, on failure, reports witness_of(r) of that trial, its row
made alone as a stack of one (Inputs.witness).  Checks with an -fd suffix
share their exact twin's draw and compare the exact tangent-propagation
route against the central-finite-difference oracle; the bridge suite ties
the derivative operators to ordinary partial derivatives in the matrix
components of the map.

Per-check RNG streams are derived from (seed, identity id), so results do not
depend on execution order and identical configs give identical reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    PRODUCT_KINDS,
    Frame,
    Metric,
    Multivector,
    _merged,
    _select,
    _tables,
    _uniform,
    blade_name,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from .calculus import DEFAULT_FD_STEP, MvFunction
from .catalog import (
    adjoint_image_functional,
    apply_functional,
    bivector_functional,
    blade_image_functional,
    det_functional,
    pair_product_functional,
    pseudoscalar_image_functional,
    trace_functional,
)
from .dual import exp as _exp
from .dual import sin as _sin
from .dual import value_of
from .errors import ConfigurationError, TrialError
from .extensor import Extensor, Outermorphism, _invertible_matrices
from .functional import (
    InducedFunctional,
    component_partials,
    directional_from_partials,
    star_from_partials,
    values_and_derivatives,
)

SUITES = ("closed-form", "properties", "bridge")


def parse_metric(dim: int, signature: str) -> Metric:
    """Metric from a signature string: "euclidean" or "diag:+,-,..." style
    (numeric entries such as "diag:2,1,-1" are accepted too)."""
    s = signature.strip().lower()
    if s == "euclidean":
        return Metric.euclidean(dim)
    if s.startswith("diag:"):
        entries = []
        for token in s[len("diag:"):].split(","):
            token = token.strip()
            if token == "+":
                entries.append(1.0)
            elif token == "-":
                entries.append(-1.0)
            else:
                try:
                    entries.append(float(token))
                except ValueError:
                    raise ConfigurationError(f"bad metric entry {token!r}") from None
        return Metric(dim, tuple(entries))
    raise ConfigurationError(f"unrecognized metric {signature!r}")


@dataclass(frozen=True)
class HarnessConfig:
    dim: int = 3
    metric: str = "euclidean"
    trials: int = 64
    seed: int = 0
    tol_exact: float = 1e-9
    tol_fd: float = 1e-5
    fd_step: float = DEFAULT_FD_STEP
    suite: str = "all"

    def __post_init__(self):
        # each field's accepted types, by its annotation
        kinds = {"int": (int, "an integer"), "float": ((int, float), "a real number"),
                 "str": (str, "a string")}
        for field in fields(self):
            value, (kind, what) = getattr(self, field.name), kinds[field.type]
            # bool is an int subclass: True would run one trial, or check
            # against a tolerance of 1.0
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ConfigurationError(f"{field.name} must be {what}, got {value!r}")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:  # 64-bit seeds, each its own stream
            raise ConfigurationError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ("tol_exact", "tol_fd", "fd_step"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        if self.suite not in SUITES + ("all",):
            raise ConfigurationError(f"suite must be one of {SUITES + ('all',)}")
        parse_metric(self.dim, self.metric)  # Metric checks dim and the entry count

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class IdentityResult:
    identity: str
    trials: int
    max_deviation: float
    tolerance: float
    passed: bool
    witness: dict | None = None


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    suite: str
    trial: Callable  # (ctx, rng) -> (deviations of all trials, witness_of(r) -> dict)
    tol_key: str = "exact"  # which config tolerance applies
    tol_factor: float = 1.0


@dataclass(frozen=True)
class _Context:
    metric: Metric
    config: HarnessConfig
    ortho: Frame


# -- one trial's inputs, its witness and its deviation ---------------------------


def multivector_to_map(mv: Multivector) -> dict:
    return {blade_name(mask): value_of(c) for mask, c in mv.nonzero_items()}


def multivector_from_map(metric: Metric, mapping: dict) -> Multivector:
    names = {blade_name(mask): mask for mask in range(metric.size)}
    out = Multivector.zero(metric)
    for name, coeff in mapping.items():
        if name not in names:
            raise ValueError(f"unknown blade {name!r} for dim {metric.dim}")
        try:
            if isinstance(coeff, (str, bytes)):  # float() would parse "1.5"
                raise TypeError(coeff)
            value = float(coeff)
        except (TypeError, ValueError):
            raise ValueError(
                f"coefficient of blade {name!r} must be a real number, got {coeff!r}"
            ) from None
        out = out + Multivector.from_blade(metric, names[name], value)
    return out


# the fields a witness writes after the map's own record, by name
WITNESS_FIELDS = (
    "anchors", "direction", "alpha", "beta", "scale", "constant", "smooth", "functional"
)


class Inputs(SimpleNamespace):
    """The trial stack of a group of trials of one cell: ctx, the made
    fields of their draws by name (the map h, the direction, ...; floats as
    (T, 1) arrays, names as per-trial tuples, the cell's ints) and what
    the check's make derives from them, the functional phi first."""

    phi = None  # a check without a functional
    d = None  # a scalar-valued random function draws no d (_function_fields)

    def derivative(self, phi=None, step=None) -> Multivector:
        """phi's (default: the drawn functional's) derivative along the
        direction at h, exact or with a finite-difference step."""
        phi = self.phi if phi is None else phi
        return phi.directional_derivative(self.h, self.direction, step=step)

    def along(self, phis, directions=None) -> tuple:
        """(values, derivatives) of the functionals phis, which share phi's
        anchors, at h, each along each of `directions` (default: the drawn
        direction alone): one seeded pass (values_and_derivatives)."""
        directions = (self.direction,) if directions is None else directions
        return values_and_derivatives(phis, self.h, directions)

    def witness(self) -> dict:
        """Trial 0's record: the map's, then each field named in WITNESS_FIELDS,
        the anchors defaulting to phi's.  run_suite calls it only for the
        trial it reports, made alone as a stack of one."""
        h = self.h
        w = Extensor._raw(h.metric, h.matrix[0], h.p, h.q).to_dict()
        named = vars(self) if self.phi is None else {"anchors": self.phi.anchors, **vars(self)}
        for key in WITNESS_FIELDS:
            if key in named:
                w[key] = _first_trial(named[key])
        return w


def _first_trial(value):
    """Trial 0 of a made field as a witness writes it: a multivector as its
    blade map, a float, a name, or a tuple of multivectors as a list."""
    if isinstance(value, Multivector):
        return multivector_to_map(Multivector._raw(value.metric, value._values[0, 0]))
    if isinstance(value, np.ndarray):
        return float(value[0, 0])
    if isinstance(value[0], str):
        return value[0]
    return [_first_trial(v) for v in value]


def _trial_max(a: np.ndarray) -> np.ndarray:
    """The largest entry per trial of a trial stack's (T, P, 2^n) values or
    (T, n, n) partials, (T,)."""
    return a.reshape(len(a), -1).max(axis=1)


def _deviation(pairs, relative: bool = False) -> np.ndarray:
    """Largest absolute difference over the (lhs, rhs) pairs of a trial
    stack, each divided by max(1, |rhs|) when relative: one per trial, (T,).
    The first NaN is the result, so no product kind or grade can hide one."""
    dev = np.zeros(())
    for lhs, rhs in pairs:
        if isinstance(lhs, Multivector):
            lhs, rhs = lhs._values, rhs._values
        d = _trial_max(np.abs(lhs - rhs))  # the bridge's sides are component arrays
        if relative:
            d = d / np.fmax(1.0, _trial_max(np.abs(rhs)))
        dev = np.where(np.isnan(dev) | ~(np.isnan(d) | (d > dev)), dev, d)
    return dev


def _rows_by(keys) -> dict:
    """{key: the indices of the trials with that key}, in order of first
    appearance: a check's cell groups, or each drawn option's trials."""
    rows: dict = {}
    for r, key in enumerate(keys):
        rows.setdefault(key, []).append(r)
    return {key: np.array(r) for key, r in rows.items()}


def _per_trial(rows: dict, table: dict) -> Callable:
    """The map that runs each table[name] once, on the `rows` (_rows_by) of its
    trials only, so exp never meets another entry's large value, and merges
    the results: trial r bit for bit what its entry gives on trial r alone."""
    if len(rows) == 1:
        return table[next(iter(rows))]
    return lambda *xs: _merged(
        [(r, table[name](*(_select(x, r) for x in xs))) for name, r in rows.items()])


# a rule's cells in their fixed order: grades p, q and arity k (every dim is >= 2)
_RULE_CELLS = tuple({"p": p, "q": q, "k": k} for p in (1, 2) for q in (1, 2) for k in (1, 2))


@dataclass(frozen=True)
class _Trials:
    """A check's trial callable: (ctx, rng) -> (the deviations of all
    ctx.config.trials trials, witness_of).  All trials are drawn first
    (draw); each cell's trials are made one trial stack, its sides evaluated
    once and each deviation put back.  witness_of(r) makes trial r alone."""

    fields: tuple
    sides: Callable
    make: Callable | None = None
    relative: bool = False
    cells: tuple = ({},)  # the check's cells of the structure; one, the empty one, by default

    def __call__(self, ctx, rng):
        drawn = self.draw(ctx, rng)
        groups = _rows_by(drawn["cell"].tolist())
        devs = _merged([(rows, _deviation(self.sides(self.inputs(ctx, drawn, rows)),
                                          self.relative)) for rows in groups.values()])
        return devs, lambda r: self.inputs(ctx, drawn, np.array([r])).witness()

    def draw(self, ctx, rng) -> dict:
        """All trials' {name: raw column}: "cell", trial r's cell (offset + r)
        mod C, the offset drawn once; then each field by its kind, in table
        order, in one RNG call (a frame's coin and a redraw aside)."""
        cells, trials = self.cells, ctx.config.trials
        return {"cell": (rng.integers(len(cells)) + np.arange(trials)) % len(cells),
                **{name: kind.draw(ctx, rng, (trials,), cells) for name, kind in self.fields}}

    def inputs(self, ctx, drawn: dict, rows: np.ndarray) -> Inputs:
        """The Inputs of the trial stack of trials `rows`, all of one cell: its
        ints, each field's rows made by its kind, then what make derives."""
        cell = self.cells[drawn["cell"][rows[0]]]
        x = Inputs(ctx=ctx, **cell, **{name: kind.make(ctx, drawn[name][rows], cell)
                                       for name, kind in self.fields})
        if self.make is not None:
            vars(x).update(self.make(x))
        return x


def _check(identity, suite, fields, sides, make=None, relative=False, cells=({},), **tolerance):
    """The check whose trials draw the (name, kind) table fields, are made
    Inputs with make and reduced to deviations by sides(inputs) (_Trials)."""
    return IdentityCheck(identity, suite, _Trials(fields, sides, make, relative, cells),
                         **tolerance)


# -- field kinds ------------------------------------------------------------------


class _Kind(NamedTuple):
    """How a field is drawn and made.  draw(ctx, rng, shape, cells) draws all
    trials' raw values, shape (T,) or a _repeat's (T, count), at the largest
    size over the cells; make(ctx, rows, cell) makes a group's rows one stack."""
    draw: Callable
    make: Callable


def _mv(grade) -> _Kind:
    """random_multivector's C(n, g) coefficients of grade `grade` (an int, a
    cell's "p" or "q"), or None: all 2^n in mask order, kept as their
    uniforms u (coefficients 2u - 1)."""

    def width(ctx, cell):
        g = cell.get(grade, grade)
        return ctx.metric.size if g is None else math.comb(ctx.metric.dim, g)

    def make(ctx, u, cell):
        g = cell.get(grade, grade)
        if g is None:
            return Multivector._raw(ctx.metric, _uniform(u[:, None]), bits=2 * ctx.metric.size - 1)
        values = np.zeros((len(u), 1, ctx.metric.size))
        values[:, 0, _tables(ctx.metric).blades[g]] = _uniform(u[:, :width(ctx, cell)])
        return Multivector._raw(ctx.metric, values, bits=1 << g)

    return _Kind(lambda ctx, rng, shape, cells: rng.random(
        shape + (max(width(ctx, cell) for cell in cells),)), make)


def _repeat(kind: _Kind, count: Callable) -> _Kind:
    """A tuple of count(n, cell) values of one kind, drawn in one call."""
    return _Kind(lambda ctx, rng, shape, cells: kind.draw(
        ctx, rng, shape + (max(count(ctx.metric.dim, cell) for cell in cells),), cells),
        lambda ctx, rows, cell: tuple(kind.make(ctx, rows[:, i], cell)
                                      for i in range(count(ctx.metric.dim, cell))))


def _float(lo: float, hi: float) -> _Kind:
    """A float uniform in [lo, hi); a group's are one (T, 1) array."""
    return _Kind(lambda ctx, rng, shape, cells: rng.uniform(lo, hi, shape),
                 lambda ctx, rows, cell: rows[:, None])


def _name(names) -> _Kind:
    """One of names, or of names(ctx, cell): an index drawn below the least
    common multiple of the cells' name counts, taken modulo the cell's, so
    uniform in every cell; a group's are the tuple of per-trial names."""

    options = names if callable(names) else lambda ctx, cell: names

    def make(ctx, rows, cell):
        chosen = options(ctx, cell)
        return tuple(chosen[i % len(chosen)] for i in rows.tolist())

    return _Kind(lambda ctx, rng, shape, cells: rng.integers(
        math.lcm(*(len(options(ctx, cell)) for cell in cells)), size=shape), make)


# Extensor.random_invertible's draw, kept as its matrix
_INVERTIBLE = _Kind(
    lambda ctx, rng, shape, cells: _invertible_matrices(ctx.metric.dim, rng, *shape),
    lambda ctx, rows, cell: Extensor._raw(ctx.metric, rows))


# Extensor.random's draw of a cell's (p, q) map, kept as its uniforms u (matrix 2u - 1)
_MAP = _Kind(lambda ctx, rng, shape, cells: rng.random(shape + tuple(
    max(math.comb(ctx.metric.dim, cell[g]) for cell in cells) for g in "qp")),
    lambda ctx, rows, cell: Extensor._raw(ctx.metric, _uniform(rows[:, :math.comb(
        ctx.metric.dim, cell["q"]), :math.comb(ctx.metric.dim, cell["p"])]), cell["p"], cell["q"]))


def _frame(maybe: bool) -> _Kind:
    """A frame kept as its carrier's matrix: a random invertible map's or,
    where maybe and a coin, drawn after the maps, picks the orthonormal
    frame, the identity.  A group's are made in one call: the carrier's
    columns are the frame's."""

    def draw(ctx, rng, shape, cells):
        carriers = _invertible_matrices(ctx.metric.dim, rng, *shape)
        if maybe:
            carriers[rng.integers(2, size=shape) == 0] = np.eye(ctx.metric.dim)
        return carriers

    # contiguous coordinates: a frame keeps its rows' memory layout
    return _Kind(draw, lambda ctx, rows, cell: Frame._of_coords(
        ctx.metric, np.ascontiguousarray(np.swapaxes(rows, -1, -2))))


def _option(name: str, q: int, c: Multivector, d: Multivector | None) -> tuple:
    """(arity, output grade, evaluator) of the random function option `name`
    of grade-q variables over its drawn constants c and d."""
    return {
        # scalar-valued, c of grade q
        "x.x": (1, 0, lambda x: x.scalar_product(x)),
        "x.c": (1, 0, lambda x: x.scalar_product(c)),
        "(x.c)(y.y)": (2, 0, lambda x, y: x.scalar_product(c).geometric(y.scalar_product(y))),
        "x.y": (2, 0, lambda x, y: x.scalar_product(y)),
        # multivector-valued, c a vector and d of grade q
        "x": (1, q, lambda x: x),
        "x^c": (1, q + 1, lambda x: x.wedge(c)),
        "c(x.d)": (1, 1, lambda x: c.geometric(x.scalar_product(d))),
        "c(x.y)": (2, 1, lambda x, y: c.geometric(x.scalar_product(y))),
        "x^y": (2, 2 * q, lambda x, y: x.wedge(y)),
        "x(y.d)": (2, q, lambda x, y: x * y.scalar_product(d).scalar_part()),
    }[name]


def _function(names, q: int, c: Multivector, d: Multivector | None) -> MvFunction:
    """The random function of grade-q variables over trial stacks of its
    drawn constants c and d (_function_fields): each trial's own option of
    the per-trial `names`, evaluated on that option's rows of the arguments
    and constants only (_per_trial).  Its output grade is the options'
    common one, else None."""
    rows = _rows_by(names)
    options = {name: _option(name, q, _select(c, r), _select(d, r)) for name, r in rows.items()}
    (arity, _, _), grades = next(iter(options.values())), {g for _, g, _ in options.values()}
    evaluator = _per_trial(rows, {name: f for name, (_, _, f) in options.items()})
    return MvFunction(arity, q, grades.pop() if len(grades) == 1 else None, evaluator)


def _function_fields(prefix: str, option: str, scalar_valued: bool) -> tuple:
    """The fields of a random function of k grade-q variables (_option): its
    constants, prefix + c (of grade q if scalar_valued, else a vector, then
    prefix + d of grade q), then its option's name, a wedge option only where
    its grade exists."""

    def names(ctx, cell):
        k, q = cell["k"], cell["q"]
        if scalar_valued:
            return ("x.x", "x.c") if k == 1 else ("(x.c)(y.y)", "x.y")
        names = ("x", "x^c", "c(x.d)") if k == 1 else ("c(x.y)", "x^y", "x(y.d)")
        return names if (q + 1 if k == 1 else 2 * q) <= ctx.metric.dim else names[::2]

    constants = (_mv("q"),) if scalar_valued else (_mv(1), _mv("q"))
    return (*zip((prefix + "c", prefix + "d"), constants), (option, _name(names)))


def _setup(x) -> dict:
    """The functional phi of a rule's setup (_rule)."""
    return {"phi": InducedFunctional(_function(x.option, x.q, x.c, x.d), x.anchors, x.p)}


# -- worked-example checks -------------------------------------------------------


def _pair(kind):
    """Fields and make of the pair-product functional of drawn vectors b and c."""
    return ((("b", _mv(1)), ("c", _mv(1))),
            lambda x: {"phi": pair_product_functional(kind, x.b, x.c)})


def _over_frame(make):
    """Fields and make of make(metric, frame), the frame random or orthonormal."""
    return (("frame", _frame(True)),), lambda x: {"phi": make(x.ctx.metric, x.frame)}


# the pseudoscalar's sign and weight, not a witnessed scale, and a frame
_PSEUDOSCALAR = (("sign", _name((-1.0, 1.0))), ("weight", _float(0.5, 2.0)),
                 ("frame", _frame(True)))


def _pseudoscalar_image(x):
    pss = (np.array(x.sign)[:, None] * x.weight) * unit_pseudoscalar(x.ctx.metric)
    return {"phi": pseudoscalar_image_functional(pss, x.frame), "pss": pss}


def _scalar_star(value):
    """Star table with no curl and value(n) for both divergences and the gradient."""

    def star(x):
        m = x.ctx.metric
        s = Multivector.from_scalar(m, value(m.dim))
        return {"wedge": Multivector.zero(m), "scalar": s, "lcontract": s, "geometric": s}

    return star


def _det_star(x):
    d = x.h.det()
    hinv = x.h.inverse()
    trace_term = Multivector.from_scalar(x.ctx.metric, d * hinv.trace())
    biv_term = d * hinv.bivector()
    return {
        "wedge": biv_term,
        "scalar": trace_term,
        "lcontract": trace_term,
        "geometric": trace_term + biv_term,
    }


def _fd_pair(x: Inputs, phi) -> tuple:
    """phi's exact derivative against its finite-difference route."""
    return x.derivative(phi), x.derivative(phi, x.ctx.config.fd_step)


def _example(name, functional, directional, star=None, relative=False) -> list[IdentityCheck]:
    """The closed-form checks of one worked functional.  functional is a
    pair: its fields, drawn after a random invertible map h and, for the
    directional checks, a vector `direction`; and make(x), phi and what else
    the closed forms read.  directional(x) is the closed-form derivative
    along x.direction and star(x) the {kind: closed form} table.  The -fd
    twin shares the fields and compares with the finite-difference route,
    always absolutely."""
    fields, make = functional
    directional_fields = (("h", _INVERTIBLE), ("direction", _mv(1)), *fields)

    def star_sides(x):
        expected = star(x)
        table = x.phi.derivative_table(x.h, tuple(expected))
        return [(table[kind], rhs) for kind, rhs in expected.items()]

    checks = [
        _check(f"{name}-directional", "closed-form", directional_fields,
               lambda x: [(x.derivative(), directional(x))], make, relative),
        _check(f"{name}-directional-fd", "closed-form", directional_fields,
               lambda x: [_fd_pair(x, x.phi)], make, tol_key="fd"),
    ]
    if star is not None:
        checks.append(_check(f"{name}-star", "closed-form", (("h", _INVERTIBLE), *fields),
                             star_sides, make, relative))
    return checks


# a map, a direction and the vectors of the blade-image functionals of every
# grade k = 1..n, grade k's k vectors after those of grades 1..k-1
_BLADE_IMAGES = (("h", _INVERTIBLE), ("direction", _mv(1)),
                 ("vectors", _repeat(_mv(1), lambda n, cell: n * (n + 1) // 2)))


def _blade_images(x):
    """The blade-image functionals, their anchors witnessed grade by grade."""
    n = x.ctx.metric.dim
    phis = tuple(blade_image_functional(x.vectors[k * (k - 1) // 2:k * (k + 1) // 2])
                 for k in range(1, n + 1))
    return {"phis": phis, "anchors": x.vectors}


def _blade_image_sides(x):
    """Each grade-k blade image against (n-k+1) h(a _| B), B its blade."""
    m, outer = x.ctx.metric, Outermorphism(x.h)
    blades = [wedge_all(m, phi.anchors) for phi in x.phis]
    return [
        (x.derivative(phi), (m.dim - k + 1) * outer(x.direction.lcontract(blade)))
        for k, (phi, blade) in enumerate(zip(x.phis, blades), 1)
    ]


def _inverse_bivector_sides(x):
    """sum_j star(f_j) ^ f^j against minus the bivector of the inverse, where
    star is the adjoint of the inverse."""
    hstar = x.h.adjoint().inverse()
    total = Multivector.zero(x.ctx.metric)
    for v, r in zip(x.frame.vectors, x.frame.reciprocal):
        total = total + hstar(v).wedge(r)
    return [(total, -1.0 * x.h.inverse().bivector())]


def _named(x):
    """The named functionals, b witnessed as their anchor."""
    m = x.ctx.metric
    phis = (apply_functional(x.b), adjoint_image_functional(x.b), trace_functional(m),
            bivector_functional(m), det_functional(m))
    return {"phis": phis, "anchors": (x.b,)}


def _coherence_sides(x):
    """Every star operator of every named functional against its FD route."""
    pairs = []
    for phi in x.phis:
        exact = phi.derivative_table(x.h, PRODUCT_KINDS)
        fd = phi.derivative_table(x.h, PRODUCT_KINDS, x.ctx.config.fd_step)
        pairs += [(exact[kind], fd[kind]) for kind in PRODUCT_KINDS]
    return pairs


# -- derivation-rule checks -------------------------------------------------------


def _rule(identity, fields, sides, make=_setup, scalar_valued=False, **options):
    """The properties check of a rule over a random setup: a cell of the
    structure, grades p and q and arity k (_RULE_CELLS), k grade-p anchors,
    a matching map h and a random function (_setup makes phi), then the
    rule's own fields."""
    setup = (("anchors", _repeat(_mv("p"), lambda n, cell: cell["k"])), ("h", _MAP),
             *_function_fields("", "option", scalar_valued))
    return _check(identity, "properties", setup + fields, sides, make, cells=_RULE_CELLS,
                  **options)


_DIRECTION = ("direction", _mv("p"))


def _linearity_sides(x):
    _, ((lhs, along_direction, along_b),) = x.along(
        (x.phi,), (x.alpha * x.direction + x.beta * x.b, x.direction, x.b))
    return [(lhs, x.alpha * along_direction + x.beta * along_b)]


def _scaling_sides(x):
    _, ((lhs,), (rhs,)) = x.along((x.phi.scaled(x.scale), x.phi))
    return [(lhs, x.scale * rhs)]


def _right_constant_sides(x):
    _, ((lhs,), (rhs,)) = x.along((x.phi.times_constant(x.constant), x.phi))
    return [(lhs, rhs.geometric(x.constant))]


# a second value function over the setup's grades, then a direction
_OTHER = (*_function_fields("other_", "other", False), _DIRECTION)


def _two_functionals(x):
    """phi and the value functional g of the second function over its anchors."""
    g = InducedFunctional(_function(x.other, x.q, x.other_c, x.other_d), x.anchors, x.p)
    return dict(_setup(x), g=g)


def _additivity_sides(x):
    _, ((lhs,), (along_phi,), (along_g,)) = x.along((x.phi + x.g, x.phi, x.g))
    return [(lhs, along_phi + along_g)]


def _leibniz_sides(x):
    (_, phi_t, g_t), ((lhs,), (along_phi,), (along_g,)) = x.along(
        (x.phi.times_functional(x.g), x.phi, x.g))
    return [(lhs, along_phi.geometric(g_t) + value_of(phi_t.scalar_part()) * along_g)]


# the chain rule's smooth maps, of a (T, P) array or a grade-0 jet, their
# derivatives, of a (T, 1) array, and the bridge's maps
_SMOOTH_MAPS = {"square": lambda s: s * s, "exp": _exp, "sin": _sin}
_SMOOTH_DERIVATIVES = {"square": lambda v: 2.0 * v, "exp": np.exp, "sin": np.cos}
_BRIDGE_MAPS = {"linear": lambda s: s, "square": _SMOOTH_MAPS["square"], "exp": _exp}


def _chain_sides(x):
    rows = _rows_by(x.smooth)
    (_, phi_t), ((lhs,), (along_phi,)) = x.along(
        (x.phi.map_scalar(_per_trial(rows, _SMOOTH_MAPS)), x.phi))
    dfn = _per_trial(rows, _SMOOTH_DERIVATIVES)
    return [(lhs, dfn(value_of(phi_t.scalar_part())) * along_phi)]


def _via_frames(x):
    """The frame-sum star tables over the orthonormal and the drawn frame."""
    return [x.phi.derivative_via_frame(x.h, PRODUCT_KINDS, f) for f in (x.ctx.ortho, x.frame)]


def _frame_independence_sides(x):
    via_ortho, via_frame = _via_frames(x)
    return [(via_ortho[kind], via_frame[kind]) for kind in PRODUCT_KINDS]


def _intrinsic_sides(x):
    table, vias = x.phi.derivative_table(x.h, PRODUCT_KINDS), _via_frames(x)
    return [(table[kind], via[kind]) for kind in PRODUCT_KINDS for via in vias]


# -- bridge checks ------------------------------------------------------------------


# an anchor, the constant c of phi = (. c) composed with the smooth map named
# functional, a map h and a frame
_BRIDGE = (("anchor", _mv(1)), ("c", _mv(1)), ("functional", _name(("linear", "square", "exp"))),
           ("h", _INVERTIBLE), ("frame", _frame(True)))


def _bridge(x):
    """phi, each trial's (. c) composed with its own smooth map (_per_trial)."""
    phi = InducedFunctional(MvFunction(1, 1, 0, lambda y: y.scalar_product(x.c)), (x.anchor,), 1)
    return {"phi": phi.map_scalar(_per_trial(_rows_by(x.functional), _BRIDGE_MAPS))}


def _partials(x, step=None):
    return component_partials(x.phi, x.h, x.frame, step)


def _bridge_star_sides(x):
    parts, table = _partials(x), x.phi.derivative_table(x.h, PRODUCT_KINDS)
    return [(star_from_partials(parts, kind, x.frame), table[kind]) for kind in PRODUCT_KINDS]


# -- the catalog ---------------------------------------------------------------------


CATALOG: tuple[IdentityCheck, ...] = (
    *_example(
        "dot-pair",
        _pair("scalar"),
        lambda x: x.h(scalar_value(x.direction, x.b) * x.c + scalar_value(x.direction, x.c) * x.b),
    ),
    *_example(
        "wedge-pair",
        _pair("wedge"),
        lambda x: (x.ctx.metric.dim - 1) * Outermorphism(x.h)(x.direction.lcontract(
            x.b.wedge(x.c))),
    ),
    *_example(
        "vector-image",
        ((("b", _mv(1)),), lambda x: {"phi": apply_functional(x.b)}),
        lambda x: Multivector.from_scalar(x.ctx.metric,
                                          x.ctx.metric.dim * scalar_value(x.direction, x.b)),
        lambda x: {
            "wedge": x.ctx.metric.dim * x.b,
            "geometric": x.ctx.metric.dim * x.b,
            "scalar": Multivector.zero(x.ctx.metric),
            "lcontract": Multivector.zero(x.ctx.metric),
        },
    ),
    *_example(
        "adjoint-image",
        ((("b", _mv(1)), ("frame", _frame(True))),
         lambda x: {"phi": adjoint_image_functional(x.b, x.frame)}),
        lambda x: x.b.geometric(x.direction),
        lambda x: {
            "wedge": x.b,
            "scalar": Multivector.zero(x.ctx.metric),
            "lcontract": (1 - x.ctx.metric.dim) * x.b,
            "geometric": (2 - x.ctx.metric.dim) * x.b,
        },
    ),
    *_example(
        "trace",
        _over_frame(trace_functional),
        lambda x: x.direction,
        _scalar_star(lambda n: n),
    ),
    *_example(
        "bivector",
        _over_frame(bivector_functional),
        lambda x: (x.ctx.metric.dim - 1) * x.direction,
        _scalar_star(lambda n: (n - 1) * n),
    ),
    *_example(
        "pseudoscalar-image",
        (_PSEUDOSCALAR, _pseudoscalar_image),
        lambda x: Outermorphism(x.h)(x.direction.lcontract(x.pss)),
    ),
    *_example(
        "det",
        _over_frame(det_functional),
        lambda x: x.h.det() * x.h.adjoint().inverse()(x.direction),
        _det_star,
        relative=True,
    ),
    _check("blade-image-directional", "closed-form", _BLADE_IMAGES, _blade_image_sides,
           _blade_images),
    _check("blade-image-directional-fd", "closed-form", _BLADE_IMAGES,
           lambda x: [_fd_pair(x, phi) for phi in x.phis], _blade_images, tol_key="fd"),
    _check("inverse-bivector-frame-sum", "closed-form",
           (("h", _INVERTIBLE), ("frame", _frame(True))), _inverse_bivector_sides, relative=True),
    _check("star-fd-coherence", "closed-form", (("h", _INVERTIBLE), ("b", _mv(1))),
           _coherence_sides, _named, tol_key="fd"),
    _rule("direction-linearity",
          (_DIRECTION, ("b", _mv("p")), ("alpha", _float(-2.0, 2.0)), ("beta", _float(-2.0, 2.0))),
          _linearity_sides),
    _rule("scaling-rule", (_DIRECTION, ("scale", _float(-2.0, 2.0))), _scaling_sides),
    _rule("right-constant-rule", (_DIRECTION, ("constant", _mv(None))), _right_constant_sides),
    _rule("additivity-rule", _OTHER, _additivity_sides, _two_functionals),
    _rule("leibniz-rule", _OTHER, _leibniz_sides, _two_functionals, scalar_valued=True),
    # relative: exp of a large functional value makes both sides large
    _rule("chain-rule", (("smooth", _name(("square", "exp", "sin"))), _DIRECTION), _chain_sides,
          scalar_valued=True, relative=True, tol_factor=10.0),
    _rule("frame-independence", (("frame", _frame(False)),), _frame_independence_sides,
          tol_factor=10.0),
    _rule("intrinsic-equivalence", (("frame", _frame(False)),), _intrinsic_sides),
    _check("component-partials-fd", "bridge", _BRIDGE,
           lambda x: [(_partials(x), _partials(x, x.ctx.config.fd_step))], _bridge,
           tol_key="fd"),
    _check("component-bridge-directional", "bridge", (*_BRIDGE, ("direction", _mv(1))),
           lambda x: [(directional_from_partials(_partials(x), x.direction, x.frame),
                       x.derivative())], _bridge, tol_factor=10.0),
    _check("component-bridge-star", "bridge", _BRIDGE, _bridge_star_sides, _bridge,
           tol_factor=10.0),
)


def catalog(suite: str = "all") -> list[IdentityCheck]:
    if suite == "all":
        return list(CATALOG)
    if suite not in SUITES:
        raise ConfigurationError(f"unknown suite {suite!r}")
    return [c for c in CATALOG if c.suite == suite]


def _derive_rng(seed: int, identity_id: str) -> np.random.Generator:
    digest = hashlib.sha256(identity_id.encode()).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:8], "big")])
    )


def run_suite(config: HarnessConfig) -> list[IdentityResult]:
    """Run every identity in the selected suite; deterministic given the seed.
    An exception inside a check's trials is raised as a TrialError naming
    the identity, the exception its cause."""
    ortho = Frame.orthonormal(parse_metric(config.dim, config.metric))
    # the cached frame keeps the first equal Metric a process made; sharing
    # that object lets every metric check take its identity fast path
    ctx = _Context(metric=ortho.metric, config=config, ortho=ortho)
    results = []
    for check in catalog(config.suite):
        rng = _derive_rng(config.seed, check.id)
        tol = (config.tol_exact if check.tol_key == "exact" else config.tol_fd) * check.tol_factor
        try:
            devs, witness_of = check.trial(ctx, rng)
        except Exception as exc:
            raise TrialError(check.id) from exc
        # the reported trial: the first non-finite deviation, else the first largest
        devs = np.asarray(devs, dtype=float)
        worst = int(np.argmax(np.where(np.isfinite(devs), devs, np.inf)))
        max_dev = float(devs[worst])
        passed = math.isfinite(max_dev) and max_dev <= tol
        results.append(
            IdentityResult(
                identity=check.id,
                trials=config.trials,
                max_deviation=max_dev,
                tolerance=tol,
                passed=passed,
                witness=None if passed else witness_of(worst),
            )
        )
    return results


def _json_float(x: float):
    """x itself when finite, else "nan", "inf" or "-inf" (JSON has no such numbers)."""
    return x if math.isfinite(x) else str(float(x))


def report_dict(config: HarnessConfig, results: list[IdentityResult]) -> dict:
    entries = []
    for r in results:
        entry = {
            "id": r.identity,
            "trials": r.trials,
            "max_dev": _json_float(r.max_deviation),
            "pass": r.passed,
        }
        if r.witness is not None:
            entry["witness"] = r.witness
        entries.append(entry)
    passed = sum(r.passed for r in results)
    return {
        "config": config.to_dict(),
        "results": entries,
        "summary": {"passed": passed, "failed": len(results) - passed},
    }


def _text_report(config: HarnessConfig, results: list[IdentityResult]) -> str:
    width = max(len(r.identity) for r in results) + 2
    lines = [
        f"{'identity':<{width}}{'trials':>7}{'max deviation':>16}{'tolerance':>12}  result"
    ]
    for r in results:
        lines.append(
            f"{r.identity:<{width}}{r.trials:>7}{r.max_deviation:>16.3e}"
            f"{r.tolerance:>12.1e}  {'PASS' if r.passed else 'FAIL'}"
        )
    passed = sum(r.passed for r in results)
    lines.append(f"SUMMARY: {passed} passed, {len(results) - passed} failed")
    return "\n".join(lines) + "\n"


def emit_report(
    config: HarnessConfig,
    results: list[IdentityResult],
    fmt: str = "text",
    out=None,
) -> None:
    """Write the report as text or json to a path, stream, or stdout."""
    if not results:
        raise ValueError("no results to report")
    if fmt == "json":
        payload = json.dumps(
            report_dict(config, results), indent=2, sort_keys=True, allow_nan=False
        ) + "\n"
    elif fmt == "text":
        payload = _text_report(config, results)
    else:
        raise ConfigurationError(f"unknown report format {fmt!r}")
    if out is None:
        sys.stdout.write(payload)
    elif hasattr(out, "write"):
        out.write(payload)
    else:
        with open(out, "w") as fh:
            fh.write(payload)
