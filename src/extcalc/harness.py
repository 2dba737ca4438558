"""Randomized verification harness for the derivative-identity catalog.

Every closed-form identity of the functional calculus (and the generic
derivation rules behind it) is an IdentityCheck whose trial(ctx, rng) runs
all config.trials trials and returns their deviations and witness_of(r),
the witness builder of trial r.  A check has one shape:

  draw(ctx, rng) -> fields     one trial's {name: drawn value}, in the
                               identity's RNG order; every trial is drawn,
                               in order, before any side is evaluated;
  make(x) -> fields            what the optional make derives from a
                               group's made fields: the functional phi, ...;
  sides(x) -> pairs            the (lhs, rhs) sides of the identity;
  _deviation(pairs)            the largest absolute difference over the
                               pairs, each over max(1, |rhs|) where the
                               identity is relative; the first NaN is the
                               result.

A draw's int fields, a rule's grades and arity (p, q, k), are its structure:
only they shape the arrays.  The other fields are maps, vectors, the
functions' constants, floats, drawn frames and the drawn names (the function
options, the smooth map, the bridge functional); a drawn multivector keeps
only its masks and raw uniforms u (coefficients 2u - 1), a drawn map its
matrix, or its uniforms u (matrix 2u - 1) and p, q, and a drawn frame its
carrier map, the identity for the orthonormal frame.  _Trials groups the
trials by structure and makes every group, one trial or several, a trial
stack (_made): names stack to per-trial tuples, each option run on its own
trials' rows only, and the sides, which read the fields by name, are
evaluated once per group (extcalc.algebra; vector forward mode over a batch,
Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008, ch. 3).  Trial r's
deviation is bit for bit what trial r gives alone.  run_suite keeps each
identity's worst trial against a tolerance and, on failure, reports
witness_of(r) of that trial, its draw made alone as a stack of one
(Inputs.witness).  Checks with an -fd suffix share their exact twin's draw
and compare the exact tangent-propagation route against the
central-finite-difference oracle; the bridge suite ties the derivative
operators to ordinary partial derivatives in the matrix components of the
map.

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
    _tables,
    _uniform,
    blade_name,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from .calculus import DEFAULT_FD_STEP, MvFunction, _option_rows, _per_trial, _select
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
from .errors import ConfigurationError
from .extensor import Extensor, Outermorphism, _invertible_matrix
from .functional import (
    InducedFunctional,
    component_partials,
    directional_from_partials,
    star_from_partials,
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
        out = out + Multivector.from_blade(metric, names[name], float(coeff))
    return out


# the fields a witness writes after the map's own record, by name
WITNESS_FIELDS = (
    "anchors", "direction", "alpha", "beta", "scale", "constant", "smooth", "functional"
)


class Inputs(SimpleNamespace):
    """The trial stack of a group of trials of one structure: ctx, the made
    fields of their draws by name (the map h, the direction, ...; floats as
    (T, 1) arrays, names as per-trial tuples, ints the group's own) and what
    the check's make derives from them, the functional phi first."""

    phi = None  # a check without a functional

    def derivative(self, phi=None, step=None) -> Multivector:
        """phi's (default: the drawn functional's) derivative along the
        direction at h, exact or with a finite-difference step."""
        phi = self.phi if phi is None else phi
        return phi.directional_derivative(self.h, self.direction, step=step)

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


@dataclass(frozen=True)
class _Trials:
    """A check's trial callable: (ctx, rng) -> (the deviations of all
    ctx.config.trials trials, witness_of).  Every trial is drawn first, in
    order: draw(ctx, rng) gives its {name: drawn value}, its int fields its
    structure.  Each group of trials of one structure, one trial or several,
    is made one trial stack (inputs), its sides evaluated once, and each
    deviation goes back to its trial.  witness_of(r) makes trial r alone, as
    a stack of one, and writes it."""

    draw: Callable
    sides: Callable
    make: Callable | None = None
    relative: bool = False

    def __call__(self, ctx, rng):
        drawn = [self.draw(ctx, rng) for _ in range(ctx.config.trials)]
        groups: dict = {}
        for r, trial in enumerate(drawn):
            structure = tuple([v for v in trial.values() if type(v) is int])
            groups.setdefault(structure, []).append(r)
        devs = np.empty(len(drawn))
        for trials in groups.values():
            x = self.inputs(ctx, [drawn[r] for r in trials])
            devs[trials] = _deviation(self.sides(x), self.relative)
        return devs.tolist(), lambda r: self.inputs(ctx, [drawn[r]]).witness()

    def inputs(self, ctx, group: list) -> Inputs:
        """The Inputs of the trial stack of a group of draws of one
        structure: the made fields, then what make derives from them."""
        x = Inputs(ctx=ctx, **_made(ctx, group))
        if self.make is not None:
            vars(x).update(self.make(x))
        return x


def _check(identity, suite, draw, sides, make=None, relative=False, **tolerance):
    """The check whose trials are drawn with draw(ctx, rng), made Inputs with
    make and reduced to deviations by sides(inputs) (_Trials)."""
    return IdentityCheck(identity, suite, _Trials(draw, sides, make, relative), **tolerance)


class _DrawnMap(NamedTuple):
    """A drawn map before it is made: a random invertible map's matrix, or,
    with no matrix, a random (p, q) map's uniforms u, its matrix 2u - 1."""
    matrix: np.ndarray | None
    u: np.ndarray | None = None
    p: int = 1
    q: int = 1


class _DrawnFrame(NamedTuple):
    """A drawn frame before it is made: the images of the orthonormal basis
    under its carrier map, the identity for the orthonormal frame, so the
    rows of the frame's coordinates are the columns of the carrier's matrix."""
    carrier: _DrawnMap


class _DrawnMultivector(NamedTuple):
    """A drawn multivector: its blades' masks and the uniforms u of their 2u - 1."""
    masks: np.ndarray
    u: np.ndarray


def _made(ctx: _Context, column):
    """The trial stack of a column of drawn values, one per trial of a group.
    Multivectors are made in one scatter, maps as one array and frames in
    one Frame._of_coords of their carriers' transposed matrices; dicts and
    tuples go entry by entry, names are per-trial tuples and floats a (T, 1)
    array.  An int is the group's own structure and passes through; any
    other value raises TypeError."""
    first = column[0]
    if isinstance(first, _DrawnMultivector):  # np.array: np.stack checks each row
        u = np.array([d.u for d in column])[:, None]
        values = np.zeros(u.shape[:-1] + (ctx.metric.size,))
        values[..., first.masks] = _uniform(u)  # one structure: every trial's masks
        bits = np.bitwise_or.reduce(_tables(ctx.metric).grade_bits[first.masks])
        return Multivector._raw(ctx.metric, values, bits=int(bits))
    if isinstance(first, _DrawnMap):  # one structure: every trial's p and q
        if first.matrix is not None:
            return Extensor._raw(ctx.metric, np.array([d.matrix for d in column]))
        u = np.array([d.u for d in column])
        return Extensor._raw(ctx.metric, _uniform(u), first.p, first.q)
    if isinstance(first, _DrawnFrame):  # one array of coordinates, row k of f_k's
        return Frame._of_coords(ctx.metric, np.array([f.carrier.matrix.T for f in column]))
    if isinstance(first, dict):
        return {key: _made(ctx, [d[key] for d in column]) for key in first}
    if isinstance(first, tuple):
        return tuple(_made(ctx, c) for c in zip(*column))
    if isinstance(first, str):
        return tuple(column)
    if isinstance(first, float):
        return np.array(column)[:, None]
    if type(first) is int:
        return first
    raise TypeError(f"cannot stack drawn values of type {type(first).__name__}")


# -- random input helpers -------------------------------------------------------


def _random_invertible(metric: Metric, rng) -> _DrawnMap:
    """Extensor.random_invertible's draw, kept as its matrix."""
    return _DrawnMap(_invertible_matrix(metric.dim, rng))


def _random_map(metric: Metric, rng, p: int, q: int) -> _DrawnMap:
    """Extensor.random's draw, kept as its uniforms."""
    n = metric.dim
    return _DrawnMap(None, rng.random((math.comb(n, q), math.comb(n, p))), p, q)


def _random_frame(ctx: _Context, rng) -> _DrawnFrame:
    return _DrawnFrame(_random_invertible(ctx.metric, rng))


def _maybe_random_frame(ctx: _Context, rng) -> _DrawnFrame:
    if rng.integers(2):
        return _random_frame(ctx, rng)
    return _DrawnFrame(_DrawnMap(np.eye(ctx.metric.dim)))


def _random_multivector(metric: Metric, grade: int, rng) -> _DrawnMultivector:
    """random_multivector's draw, kept as its uniforms."""
    masks = _tables(metric).blades[grade]
    return _DrawnMultivector(masks, rng.random(len(masks)))


def _random_mixed(metric: Metric, rng) -> _DrawnMultivector:
    """A multivector of every grade: each grade's doubles, in one draw."""
    return _DrawnMultivector(np.concatenate(_tables(metric).blades), rng.random(metric.size))


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


def _function(names, q: int, c: Multivector, d: Multivector | None = None) -> MvFunction:
    """The random function of grade-q variables over trial stacks of its
    drawn constants c and d (_draw_scalar_func, _draw_value_func): each
    trial's own option of the per-trial `names`, evaluated on that option's
    rows of the arguments and constants only (_per_trial).  Its output grade
    is the options' common one, else None."""
    rows = _option_rows(names)
    options = {name: _option(name, q, _select(c, r), _select(d, r)) for name, r in rows.items()}
    (arity, _, _), grades = next(iter(options.values())), {g for _, g, _ in options.values()}
    evaluator = _per_trial(names, {name: f for name, (_, _, f) in options.items()})
    return MvFunction(arity, q, grades.pop() if len(grades) == 1 else None, evaluator)


def _draw_scalar_func(metric: Metric, rng, k: int, q: int) -> tuple:
    """A random scalar function of k grade-q variables: (name, (c,))."""
    c = _random_multivector(metric, q, rng)
    names = ("x.x", "x.c") if k == 1 else ("(x.c)(y.y)", "x.y")
    return names[rng.integers(2)], (c,)


def _draw_value_func(metric: Metric, rng, k: int, q: int) -> tuple:
    """A random function of k grade-q variables: (name, (c, d)); the wedge
    options only where the grade exists."""
    c = _random_multivector(metric, 1, rng)
    d = _random_multivector(metric, q, rng)
    if k == 1:
        names = ("x", "x^c", "c(x.d)") if q + 1 <= metric.dim else ("x", "c(x.d)")
    else:
        names = ("c(x.y)", "x^y", "x(y.d)") if 2 * q <= metric.dim else ("c(x.y)", "x(y.d)")
    return names[rng.integers(len(names))], (c, d)


def _random_setup(ctx: _Context, rng, scalar_valued=False) -> dict:
    """Random grades p and q and arity k (the structure), k grade-p anchors,
    a matching map h and a function: its option's name and its constants.
    _setup makes the functional."""
    metric = ctx.metric
    top = min(2, metric.dim)
    p = int(rng.integers(1, top + 1))
    q = int(rng.integers(1, top + 1))
    k = int(rng.integers(1, 3))
    anchors = tuple(_random_multivector(metric, p, rng) for _ in range(k))
    h = _random_map(metric, rng, p, q)
    draw_func = _draw_scalar_func if scalar_valued else _draw_value_func
    option, consts = draw_func(metric, rng, k, q)
    return dict(p=p, q=q, k=k, anchors=anchors, h=h, option=option, consts=consts)


def _setup(x) -> dict:
    """The functional phi of a _random_setup draw."""
    return {"phi": InducedFunctional(_function(x.option, x.q, *x.consts), x.anchors, x.p)}


# -- worked-example checks -------------------------------------------------------


def _draw_b(ctx, rng):
    return {"b": _random_multivector(ctx.metric, 1, rng)}


def _pair(kind):
    """Draw and make of the pair-product functional of drawn vectors b and c."""
    return (lambda ctx, rng: dict(_draw_b(ctx, rng), c=_random_multivector(ctx.metric, 1, rng)),
            lambda x: {"phi": pair_product_functional(kind, x.b, x.c)})


def _draw_frame(ctx, rng):
    return {"frame": _maybe_random_frame(ctx, rng)}


def _over_frame(make):
    """Draw and make of make(metric, frame), the frame random or orthonormal."""
    return _draw_frame, lambda x: {"phi": make(x.ctx.metric, x.frame)}


def _draw_pseudoscalar(ctx, rng):
    """The pseudoscalar's signed weight, not a witnessed scale, and a frame."""
    sign = 1.0 if rng.integers(2) else -1.0
    return dict(weight=sign * float(rng.uniform(0.5, 2.0)), frame=_maybe_random_frame(ctx, rng))


def _pseudoscalar_image(x):
    pss = x.weight * unit_pseudoscalar(x.ctx.metric)
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


def _after_map(draw):
    """draw's fields, drawn after a random invertible map h."""
    return lambda ctx, rng: dict(h=_random_invertible(ctx.metric, rng), **draw(ctx, rng))


def _fd_pair(x: Inputs, phi) -> tuple:
    """phi's exact derivative against its finite-difference route."""
    return x.derivative(phi), x.derivative(phi, x.ctx.config.fd_step)


def _example(name, functional, directional, star=None, relative=False) -> list[IdentityCheck]:
    """The closed-form checks of one worked functional.  functional is a
    pair: draw(ctx, rng), the fields drawn after a random invertible map h
    and, for the directional checks, a vector `direction`; and make(x), phi
    and what else the closed forms read.  directional(x) is the closed-form
    derivative along x.direction and star(x) the {kind: closed form} table.
    The -fd twin shares the draw and compares with the finite-difference
    route, always absolutely."""
    draw, make = functional
    draw_directional = _after_map(
        lambda ctx, rng: dict(direction=_random_multivector(ctx.metric, 1, rng), **draw(ctx, rng)))

    def star_sides(x):
        expected = star(x)
        table = x.phi.derivative_table(x.h, tuple(expected))
        return [(table[kind], rhs) for kind, rhs in expected.items()]

    checks = [
        _check(f"{name}-directional", "closed-form", draw_directional,
               lambda x: [(x.derivative(), directional(x))], make, relative),
        _check(f"{name}-directional-fd", "closed-form", draw_directional,
               lambda x: [_fd_pair(x, x.phi)], make, tol_key="fd"),
    ]
    if star is not None:
        checks.append(_check(f"{name}-star", "closed-form", _after_map(draw), star_sides, make,
                             relative))
    return checks


def _draw_blade_images(ctx, rng):
    """A map, a direction and the vectors of the blade-image functionals of
    every grade k = 1..n, drawn in that order."""
    m = ctx.metric
    return dict(
        h=_random_invertible(m, rng),
        direction=_random_multivector(m, 1, rng),
        vectors=tuple(tuple(_random_multivector(m, 1, rng) for _ in range(k))
                      for k in range(1, m.dim + 1)),
    )


def _blade_images(x):
    """The blade-image functionals, their anchors witnessed grade by grade."""
    phis = tuple(map(blade_image_functional, x.vectors))
    return {"phis": phis, "anchors": sum((p.anchors for p in phis), ())}


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


def _rule(identity, draw_fields, sides, make=_setup, scalar_valued=False, **options):
    """The properties check of a rule over a random setup: draw_fields(ctx,
    rng, setup) draws the rule's own fields after it."""

    def draw(ctx, rng):
        setup = _random_setup(ctx, rng, scalar_valued)
        return dict(setup, **draw_fields(ctx, rng, setup))

    return _check(identity, "properties", draw, sides, make, **options)


def _direction(ctx, rng, setup):
    return {"direction": _random_multivector(ctx.metric, setup["p"], rng)}


def _linearity_fields(ctx, rng, setup):
    return dict(_direction(ctx, rng, setup), b=_random_multivector(ctx.metric, setup["p"], rng),
                alpha=float(rng.uniform(-2.0, 2.0)), beta=float(rng.uniform(-2.0, 2.0)))


def _linearity_sides(x):
    lhs = x.phi.directional_derivative(x.h, x.alpha * x.direction + x.beta * x.b)
    rhs = x.alpha * x.derivative() + x.beta * x.phi.directional_derivative(x.h, x.b)
    return [(lhs, rhs)]


def _other_fields(ctx, rng, setup):
    """A second value function over the setup's grades, then a direction."""
    other, other_consts = _draw_value_func(ctx.metric, rng, setup["k"], setup["q"])
    return dict(other=other, other_consts=other_consts, **_direction(ctx, rng, setup))


def _two_functionals(x):
    """phi and the value functional g of the second function over its anchors."""
    g = InducedFunctional(_function(x.other, x.q, *x.other_consts), x.anchors, x.p)
    return dict(_setup(x), g=g)


def _leibniz_sides(x):
    phi_val = value_of(x.phi.evaluate(x.h).scalar_part())
    rhs = x.derivative().geometric(x.g.evaluate(x.h)) + phi_val * x.derivative(x.g)
    return [(x.derivative(x.phi.times_functional(x.g)), rhs)]


# the chain rule's smooth maps, of a (T, P) array or a grade-0 jet, their
# derivatives, of a (T, 1) array, and the bridge's maps
_SMOOTH_MAPS = {"square": lambda s: s * s, "exp": _exp, "sin": _sin}
_SMOOTH_DERIVATIVES = {"square": lambda v: 2.0 * v, "exp": np.exp, "sin": np.cos}
_BRIDGE_MAPS = {"linear": lambda s: s, "square": _SMOOTH_MAPS["square"], "exp": _exp}


def _chain_fields(ctx, rng, setup):
    return dict(smooth=("square", "exp", "sin")[rng.integers(3)], **_direction(ctx, rng, setup))


def _chain_sides(x):
    dfn = _per_trial(x.smooth, _SMOOTH_DERIVATIVES)
    rhs = dfn(value_of(x.phi.evaluate(x.h).scalar_part())) * x.derivative()
    return [(x.derivative(x.phi.map_scalar(_per_trial(x.smooth, _SMOOTH_MAPS))), rhs)]


def _frame_fields(ctx, rng, setup):
    return {"frame": _random_frame(ctx, rng)}


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


def _draw_bridge(ctx, rng):
    """An anchor, the constant c of phi = (. c) composed with the smooth map
    named functional, a map h and a frame."""
    return dict(anchor=_random_multivector(ctx.metric, 1, rng),
                c=_random_multivector(ctx.metric, 1, rng),
                functional=("linear", "square", "exp")[rng.integers(3)],
                h=_random_invertible(ctx.metric, rng), frame=_maybe_random_frame(ctx, rng))


def _draw_bridge_directional(ctx, rng):
    return dict(_draw_bridge(ctx, rng), direction=_random_multivector(ctx.metric, 1, rng))


def _bridge(x):
    """phi, each trial's (. c) composed with its own smooth map (_per_trial)."""
    phi = InducedFunctional(MvFunction(1, 1, 0, lambda y: y.scalar_product(x.c)), (x.anchor,), 1)
    return {"phi": phi.map_scalar(_per_trial(x.functional, _BRIDGE_MAPS))}


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
        (_draw_b, lambda x: {"phi": apply_functional(x.b)}),
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
        (lambda ctx, rng: dict(_draw_b(ctx, rng), **_draw_frame(ctx, rng)),
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
        (_draw_pseudoscalar, _pseudoscalar_image),
        lambda x: Outermorphism(x.h)(x.direction.lcontract(x.pss)),
    ),
    *_example(
        "det",
        _over_frame(det_functional),
        lambda x: x.h.det() * x.h.adjoint().inverse()(x.direction),
        _det_star,
        relative=True,
    ),
    _check("blade-image-directional", "closed-form", _draw_blade_images, _blade_image_sides,
           _blade_images),
    _check("blade-image-directional-fd", "closed-form", _draw_blade_images,
           lambda x: [_fd_pair(x, phi) for phi in x.phis], _blade_images, tol_key="fd"),
    _check("inverse-bivector-frame-sum", "closed-form", _after_map(_draw_frame),
           _inverse_bivector_sides, relative=True),
    _check("star-fd-coherence", "closed-form", _after_map(_draw_b), _coherence_sides, _named,
           tol_key="fd"),
    _rule("direction-linearity", _linearity_fields, _linearity_sides),
    _rule("scaling-rule",
          lambda ctx, rng, s: dict(_direction(ctx, rng, s), scale=float(rng.uniform(-2.0, 2.0))),
          lambda x: [(x.derivative(x.phi.scaled(x.scale)), x.scale * x.derivative())]),
    _rule("right-constant-rule",
          lambda ctx, rng, s: dict(_direction(ctx, rng, s),
                                   constant=_random_mixed(ctx.metric, rng)),
          lambda x: [(x.derivative(x.phi.times_constant(x.constant)),
                      x.derivative().geometric(x.constant))]),
    _rule("additivity-rule", _other_fields,
          lambda x: [(x.derivative(x.phi + x.g), x.derivative() + x.derivative(x.g))],
          _two_functionals),
    _rule("leibniz-rule", _other_fields, _leibniz_sides, _two_functionals, scalar_valued=True),
    # relative: exp of a large functional value makes both sides large
    _rule("chain-rule", _chain_fields, _chain_sides, scalar_valued=True, relative=True,
          tol_factor=10.0),
    _rule("frame-independence", _frame_fields, _frame_independence_sides, tol_factor=10.0),
    _rule("intrinsic-equivalence", _frame_fields, _intrinsic_sides),
    _check("component-partials-fd", "bridge", _draw_bridge,
           lambda x: [(_partials(x), _partials(x, x.ctx.config.fd_step))], _bridge,
           tol_key="fd"),
    _check("component-bridge-directional", "bridge", _draw_bridge_directional,
           lambda x: [(directional_from_partials(_partials(x), x.direction, x.frame),
                       x.derivative())], _bridge, tol_factor=10.0),
    _check("component-bridge-star", "bridge", _draw_bridge, _bridge_star_sides, _bridge,
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
    """Run every identity in the selected suite; deterministic given the seed."""
    ortho = Frame.orthonormal(parse_metric(config.dim, config.metric))
    # the cached frame keeps the first equal Metric a process made; sharing
    # that object lets every metric check take its identity fast path
    ctx = _Context(metric=ortho.metric, config=config, ortho=ortho)
    results = []
    for check in catalog(config.suite):
        rng = _derive_rng(config.seed, check.id)
        tol = (config.tol_exact if check.tol_key == "exact" else config.tol_fd) * check.tol_factor
        devs, witness_of = check.trial(ctx, rng)
        max_dev = 0.0
        worst: int | None = None  # the reported trial
        for r, dev in enumerate(devs):
            # a non-finite deviation is the worst one; the first of them stays
            if worst is None or (
                math.isfinite(max_dev) and (dev > max_dev or not math.isfinite(dev))
            ):
                max_dev, worst = dev, r
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
