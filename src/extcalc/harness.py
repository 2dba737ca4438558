"""Randomized verification harness for the derivative-identity catalog.

Every closed-form identity of the functional calculus (and the generic
derivation rules behind it) is an IdentityCheck whose trial(ctx, rng) runs
all config.trials trials and returns their deviations and witness_of(r),
the witness builder of trial r.  A check has one shape:

  draw(ctx, rng)               one trial's (structure, values), in the
                               identity's RNG order; every trial is drawn,
                               in order, before any side is evaluated;
  build(ctx, *structure,       the Inputs of one trial's values or of a
        *values)               trial stack of them;
  sides(inputs) -> pairs       the (lhs, rhs) sides of the identity;
  _deviation(pairs)            the largest absolute difference over the
                               pairs, each over max(1, |rhs|) where the
                               identity is relative; the first NaN is the
                               result.

The structure holds only what shapes the arrays: a rule's grades and arity
(p, q, k), () for a closed-form or bridge check.  The values are the rest:
maps, vectors, the functions' constants, scalars, drawn frames, and the
drawn names (the function options, the smooth map, the bridge functional),
which stack to per-trial tuples; each name's option runs on its own trials'
rows only.  A drawn multivector keeps only its masks and raw uniforms u
(coefficients 2u - 1), made once per group (_made).  _Trials groups the
trials by structure and evaluates each group of several once, on its trial
stack (extcalc.algebra; vector forward mode over a batch, Griewank &
Walther, Evaluating Derivatives, 2nd ed., 2008, ch. 3), and a group of one
unstacked: trial r's deviation is bit for bit what trial r gives alone.
run_suite keeps each identity's worst trial against a tolerance and, on
failure, reports witness_of(r) of that trial, its Inputs.witness built from
its own, unstacked draw.  Checks with an -fd suffix share their exact
twin's draw and compare the exact tangent-propagation route against the
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
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    PRODUCT_KINDS,
    Frame,
    Metric,
    Multivector,
    _frame_rows,
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
from .extensor import Extensor, Outermorphism
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
        for name in ("dim", "trials", "seed"):
            value = getattr(self, name)
            # bool is an int subclass: True would run one trial
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
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


# the Inputs fields a witness writes after the map's own record
WITNESS_FIELDS = (
    "anchors", "direction", "alpha", "beta", "scale", "constant", "smooth", "functional"
)


@dataclass(frozen=True)
class Inputs:
    """One trial's drawn values, or a trial stack of the values of a group
    of trials of one structure: the map h, the functional phi, the
    direction, the frame and the drawn choices; in a stack, the scalars
    alpha, beta and scale are (T, 1) arrays and the names smooth and
    functional per-trial tuples.  The anchors default to phi's."""

    ctx: _Context
    h: Extensor
    phi: InducedFunctional | None = None
    aux: tuple = ()  # read by the sides, not written: drawn vectors or functionals
    direction: Multivector | None = None
    frame: Frame | None = None
    anchors: tuple | None = None
    alpha: float | np.ndarray | None = None
    beta: float | np.ndarray | None = None
    scale: float | np.ndarray | None = None
    constant: Multivector | None = None
    smooth: str | tuple | None = None  # the chain rule's scalar map
    functional: str | tuple | None = None  # the bridge functional's name

    def __post_init__(self):
        if self.anchors is None and self.phi is not None:
            object.__setattr__(self, "anchors", self.phi.anchors)

    def derivative(self, phi=None, step=None) -> Multivector:
        """phi's (default: the drawn functional's) derivative along the
        direction at h, exact or with a finite-difference step."""
        phi = self.phi if phi is None else phi
        return phi.directional_derivative(self.h, self.direction, step=step)

    def witness(self) -> dict:
        """The map's record plus every set WITNESS_FIELDS entry, multivectors
        as blade maps.  run_suite calls it only for the trial it reports."""
        w = self.h.to_dict()
        for key in WITNESS_FIELDS:
            value = getattr(self, key)
            if isinstance(value, Multivector):
                value = multivector_to_map(value)
            elif isinstance(value, tuple):
                value = [multivector_to_map(v) for v in value]
            if value is not None:
                w[key] = value
        return w


def _trial_max(a: np.ndarray):
    """The largest entry of a trial stack's (T, P, 2^n) values or (T, n, n)
    partials per trial, (T,); of any other array, all of it."""
    return a.reshape(len(a), -1).max(axis=1) if a.ndim == 3 else a.max()


def _deviation(pairs, relative: bool = False) -> np.ndarray:
    """Largest absolute difference over the (lhs, rhs) pairs, each divided by
    max(1, |rhs|) when relative: one per trial, (T,), when a side is a trial
    stack, else a 0-d value.  The first NaN is the result, so no product
    kind or grade can hide one."""
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
    order: draw(ctx, rng) gives its (structure, values), the structure a
    hashable tuple of what shapes the arrays (grades and arity) and the
    values the rest, drawn names included, which stack to per-trial tuples.
    The trials are grouped by structure; build(ctx, *structure, *values)
    makes a group's Inputs, one trial's own, unstacked, or the trial stack
    of several, whose sides are evaluated once, and each deviation goes
    back to its trial.
    witness_of(r) builds trial r's own Inputs from its draw."""

    draw: Callable
    build: Callable
    sides: Callable
    relative: bool = False

    def __call__(self, ctx, rng):
        drawn = [self.draw(ctx, rng) for _ in range(ctx.config.trials)]
        groups: dict = {}
        for r, (structure, _) in enumerate(drawn):
            groups.setdefault(structure, []).append(r)
        devs = np.empty(len(drawn))
        for trials in groups.values():
            x = self.inputs(ctx, [drawn[r] for r in trials])
            devs[trials] = _deviation(self.sides(x), self.relative)
        return devs.tolist(), lambda r: self.inputs(ctx, [drawn[r]]).witness()

    def inputs(self, ctx, group: list) -> "Inputs":
        """The Inputs of a group of draws of one structure: a single trial's
        own, unstacked, or the trial stack of several."""
        return self.build(ctx, *group[0][0], *_made(ctx, [v for _, v in group], len(group) > 1))


def _check(identity, suite, draw, build, sides, relative=False, tol_key="exact", tol_factor=1.0):
    """The check whose trials are drawn with draw(ctx, rng), made Inputs by
    build and reduced to deviations by sides(inputs) (_Trials)."""
    return IdentityCheck(identity, suite, _Trials(draw, build, sides, relative), tol_key,
                         tol_factor)


@dataclass(frozen=True)
class _DrawnFrame:
    """A drawn frame before it is built: the images of the orthonormal basis
    under a random invertible carrier map, or, with no carrier, the
    orthonormal frame.  The image h(e_k) is column k of the carrier's
    matrix, exactly, so the frame is built from the matrix, bit for bit
    Frame.from_vectors of the images."""

    carrier: Extensor | None

    def frame(self, ctx: _Context) -> Frame:
        if self.carrier is None:
            return ctx.ortho
        return Frame._of_rows(ctx.metric, *_frame_rows(ctx.metric, self.carrier.matrix))


class _DrawnMultivector(NamedTuple):
    """A drawn multivector: its blades' masks and the uniforms u of their 2u - 1."""
    masks: np.ndarray
    u: np.ndarray


def _made(ctx: _Context, column, stack: bool):
    """What Inputs takes of a column of drawn values: a lone trial's own, or
    the trial stack of all.  Multivectors are made (a stack in one scatter)
    and frames built (a stack in one call, _frames); tuples and dicts go entry
    by entry.  Stacked, maps stack, names are per-trial tuples, floats a
    (T, 1) array as a stack's scalars are; any other value raises TypeError."""
    first = column[0]
    if isinstance(first, _DrawnMultivector):  # np.array: np.stack checks each row
        u = np.array([d.u for d in column])[:, None] if stack else first.u
        values = np.zeros(u.shape[:-1] + (ctx.metric.size,))
        values[..., first.masks] = _uniform(u)  # one structure: every trial's masks
        bits = np.bitwise_or.reduce(_tables(ctx.metric).grade_bits[first.masks])
        return Multivector._raw(ctx.metric, values, bits=int(bits))
    if isinstance(first, _DrawnFrame):
        return _frames(ctx, [f.carrier for f in column]) if stack else first.frame(ctx)
    if isinstance(first, dict):
        return {key: _made(ctx, [d[key] for d in column], stack) for key in first}
    if isinstance(first, tuple):
        return tuple(_made(ctx, c, stack) for c in zip(*column))
    if not stack:
        return first
    if isinstance(first, Extensor):
        return Extensor.stack(column)
    if isinstance(first, str):
        return tuple(column)
    if isinstance(first, float):
        return np.array(column)[:, None]
    raise TypeError(f"cannot stack drawn values of type {type(first).__name__}")


def _frames(ctx: _Context, carriers) -> Frame:
    """The trial stack of drawn frames: the orthonormal frame in the trials
    without a carrier, and in the others the images of the orthonormal basis
    under the stacked carriers, the columns of their matrices, and their
    reciprocal frames, in one call."""
    metric, ortho = ctx.metric, ctx.ortho
    pair = [
        np.repeat(np.stack([v._values for v in vectors])[None], len(carriers), axis=0)
        for vectors in (ortho.vectors, ortho.reciprocal)
    ]
    drawn = [r for r, c in enumerate(carriers) if c is not None]
    if drawn:
        rows = _frame_rows(metric, np.array([carriers[r].matrix for r in drawn]))
        for values, drawn_rows in zip(pair, rows):
            values[drawn] = drawn_rows
    return Frame._of_rows(metric, *pair)


# -- random input helpers -------------------------------------------------------


def _random_frame(ctx: _Context, rng) -> _DrawnFrame:
    return _DrawnFrame(Extensor.random_invertible(ctx.metric, rng))


def _maybe_random_frame(ctx: _Context, rng) -> _DrawnFrame:
    return _random_frame(ctx, rng) if rng.integers(2) else _DrawnFrame(None)


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
    """The random function of grade-q variables over its drawn constants c
    and d (_draw_scalar_func, _draw_value_func): one trial's option `names`,
    or, over trial stacks of constants, each trial's own option of the
    per-trial `names`, evaluated on that option's rows of the arguments and
    constants only (_per_trial).  Its output grade is the options' common
    one, else None."""
    rows = {names: slice(None)} if isinstance(names, str) else _option_rows(names)
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


def _random_setup(ctx: _Context, rng, scalar_valued=False) -> tuple:
    """Random anchors, a matching map and a function: (structure, values),
    the structure (p, q, k) and the values (the function's name, anchors,
    map, the function's constants).  _setup builds them."""
    metric = ctx.metric
    top = min(2, metric.dim)
    p = int(rng.integers(1, top + 1))
    q = int(rng.integers(1, top + 1))
    k = int(rng.integers(1, 3))
    anchors = tuple(_random_multivector(metric, p, rng) for _ in range(k))
    t = Extensor.random(metric, rng, p, q)
    draw_func = _draw_scalar_func if scalar_valued else _draw_value_func
    name, consts = draw_func(metric, rng, k, q)
    return (p, q, k), (name, anchors, t, consts)


def _setup(structure: tuple, values: tuple) -> tuple[Extensor, InducedFunctional]:
    """The map and the functional of a _random_setup draw, or of a trial
    stack of draws of one structure."""
    (p, q, _), (name, anchors, t, consts) = structure, values
    return t, InducedFunctional(_function(name, q, *consts), anchors, p)


# -- worked-example checks -------------------------------------------------------


def _draw_two_vectors(ctx, rng):
    return _random_multivector(ctx.metric, 1, rng), _random_multivector(ctx.metric, 1, rng)


def _pair(kind):
    """Draw and make of the pair-product functional of two drawn vectors."""
    return _draw_two_vectors, lambda m, b, c: (pair_product_functional(kind, b, c), (b, c))


def _draw_vector(ctx, rng):
    return (_random_multivector(ctx.metric, 1, rng),)


def _draw_adjoint_image(ctx, rng):
    return _random_multivector(ctx.metric, 1, rng), _maybe_random_frame(ctx, rng)


def _over_frame(make):
    """Draw and make of make(metric, frame), the frame random or orthonormal."""
    return (lambda ctx, rng: (_maybe_random_frame(ctx, rng),),
            lambda m, frame: (make(m, frame), ()))


def _draw_pseudoscalar(ctx, rng):
    sign = 1.0 if rng.integers(2) else -1.0
    return sign * float(rng.uniform(0.5, 2.0)), _maybe_random_frame(ctx, rng)


def _scalar_star(value):
    """Star table with no curl and value(n) for both divergences and the gradient."""

    def star(m, h):
        s = Multivector.from_scalar(m, value(m.dim))
        return {"wedge": Multivector.zero(m), "scalar": s, "lcontract": s, "geometric": s}

    return star


def _det_star(m, h):
    d = h.det()
    hinv = h.inverse()
    trace_term = Multivector.from_scalar(m, d * hinv.trace())
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
    """The closed-form checks of one worked functional, each of one
    structure, ().  functional is a pair: draw(ctx, rng) -> its drawn
    values, drawn after a random invertible map and, for the directional
    checks, a vector a; and make(metric, *values) -> (phi, aux).
    directional(metric, h, a, *aux) is the closed-form a-derivative and
    star(metric, h, *aux) the {kind: closed form} table.  The -fd twin shares the draw and compares with the
    finite-difference route, always absolutely."""
    draw, make = functional

    def draw_directional(ctx, rng):
        h = Extensor.random_invertible(ctx.metric, rng)
        a = _random_multivector(ctx.metric, 1, rng)
        return (), (h, a, *draw(ctx, rng))

    def build_directional(ctx, h, a, *values):
        return Inputs(ctx, h, *make(ctx.metric, *values), direction=a)

    def exact_sides(x):
        return [(x.derivative(), directional(x.ctx.metric, x.h, x.direction, *x.aux))]

    def draw_star(ctx, rng):
        return (), (Extensor.random_invertible(ctx.metric, rng), *draw(ctx, rng))

    def build_star(ctx, h, *values):
        return Inputs(ctx, h, *make(ctx.metric, *values))

    def star_sides(x):
        expected = star(x.ctx.metric, x.h, *x.aux)
        table = x.phi.derivative_table(x.h, tuple(expected))
        return [(table[kind], rhs) for kind, rhs in expected.items()]

    checks = [
        _check(f"{name}-directional", "closed-form", draw_directional, build_directional,
               exact_sides, relative),
        _check(f"{name}-directional-fd", "closed-form", draw_directional, build_directional,
               lambda x: [_fd_pair(x, x.phi)], tol_key="fd"),
    ]
    if star is not None:
        checks.append(_check(f"{name}-star", "closed-form", draw_star, build_star, star_sides,
                             relative))
    return checks


def _draw_blade_images(ctx, rng):
    """A map, a direction and the vectors of the blade-image functionals of
    every grade k = 1..n, drawn in that order."""
    h = Extensor.random_invertible(ctx.metric, rng)
    a = _random_multivector(ctx.metric, 1, rng)
    vectors = tuple(
        tuple(_random_multivector(ctx.metric, 1, rng) for _ in range(k))
        for k in range(1, ctx.metric.dim + 1)
    )
    return (), (h, a, vectors)


def _build_blade_images(ctx, h, a, vectors):
    """The blade-image functionals, their anchors witnessed grade by grade."""
    phis = tuple(map(blade_image_functional, vectors))
    return Inputs(ctx, h, aux=phis, direction=a, anchors=sum((p.anchors for p in phis), ()))


def _blade_image_sides(x):
    """Each grade-k blade image against (n-k+1) h(a _| B), B its blade."""
    m, outer = x.ctx.metric, Outermorphism(x.h)
    blades = [wedge_all(m, phi.anchors) for phi in x.aux]
    return [
        (x.derivative(phi), (m.dim - k + 1) * outer(x.direction.lcontract(blade)))
        for k, (phi, blade) in enumerate(zip(x.aux, blades), 1)
    ]


def _draw_map_and_frame(ctx, rng):
    return (), (Extensor.random_invertible(ctx.metric, rng), _maybe_random_frame(ctx, rng))


def _inverse_bivector_sides(x):
    """sum_j star(f_j) ^ f^j against minus the bivector of the inverse, where
    star is the adjoint of the inverse."""
    hstar = x.h.adjoint().inverse()
    total = Multivector.zero(x.ctx.metric)
    for v, r in zip(x.frame.vectors, x.frame.reciprocal):
        total = total + hstar(v).wedge(r)
    return [(total, -1.0 * x.h.inverse().bivector())]


def _draw_named(ctx, rng):
    return (), (Extensor.random_invertible(ctx.metric, rng),
                _random_multivector(ctx.metric, 1, rng))


def _build_named(ctx, h, b):
    m = ctx.metric
    named = (apply_functional(b), adjoint_image_functional(b), trace_functional(m),
             bivector_functional(m), det_functional(m))
    return Inputs(ctx, h, aux=named, anchors=(b,))


def _coherence_sides(x):
    """Every star operator of every named functional against its FD route."""
    pairs = []
    for phi in x.aux:
        exact = phi.derivative_table(x.h, PRODUCT_KINDS)
        fd = phi.derivative_table(x.h, PRODUCT_KINDS, x.ctx.config.fd_step)
        pairs += [(exact[kind], fd[kind]) for kind in PRODUCT_KINDS]
    return pairs


# -- derivation-rule checks -------------------------------------------------------


def _draw_rule(fields):
    """Draw of a rule over a random setup of a value functional:
    fields(ctx, rng, p) draws the rule's Inputs fields after it, a dict."""

    def draw(ctx, rng):
        setup, values = _random_setup(ctx, rng)
        return (setup,), (values, fields(ctx, rng, setup[0]))

    return draw


def _build_rule(ctx, setup, values, fields):
    return Inputs(ctx, *_setup(setup, values), **fields)


def _linearity_fields(ctx, rng, p):
    a = _random_multivector(ctx.metric, p, rng)
    b = _random_multivector(ctx.metric, p, rng)
    return dict(aux=(b,), direction=a, alpha=float(rng.uniform(-2.0, 2.0)),
                beta=float(rng.uniform(-2.0, 2.0)))


def _scaling_fields(ctx, rng, p):
    return dict(direction=_random_multivector(ctx.metric, p, rng),
                scale=float(rng.uniform(-2.0, 2.0)))


def _right_constant_fields(ctx, rng, p):
    return dict(direction=_random_multivector(ctx.metric, p, rng),
                constant=_random_mixed(ctx.metric, rng))


def _linearity_sides(x):
    (b,) = x.aux
    lhs = x.phi.directional_derivative(x.h, x.alpha * x.direction + x.beta * b)
    rhs = x.alpha * x.derivative() + x.beta * x.phi.directional_derivative(x.h, b)
    return [(lhs, rhs)]


def _draw_two_functionals(scalar_valued):
    """Draw of a random functional, then a value functional over its anchors."""

    def draw(ctx, rng):
        setup, values = _random_setup(ctx, rng, scalar_valued)
        p, q, k = setup
        name, consts = _draw_value_func(ctx.metric, rng, k, q)
        return (setup,), (name, values, consts, _random_multivector(ctx.metric, p, rng))

    return draw


def _build_two_functionals(ctx, setup, name, values, consts, a):
    t, phi = _setup(setup, values)
    other = InducedFunctional(_function(name, phi.func.input_grade, *consts), phi.anchors,
                              phi.source_grade)
    return Inputs(ctx, t, phi, (other,), direction=a)


def _leibniz_sides(x):
    (g,) = x.aux
    phi_val = value_of(x.phi.evaluate(x.h).scalar_part())
    rhs = x.derivative().geometric(g.evaluate(x.h)) + phi_val * x.derivative(g)
    return [(x.derivative(x.phi.times_functional(g)), rhs)]


# the chain rule's smooth maps, of a float, a (T, P) array or a grade-0 jet,
# their derivatives, of a float or a (T, 1) array, and the bridge's maps
_SMOOTH_MAPS = {"square": lambda s: s * s, "exp": _exp, "sin": _sin}
_SMOOTH_DERIVATIVES = {"square": lambda v: 2.0 * v, "exp": np.exp, "sin": np.cos}
_BRIDGE_MAPS = {"linear": lambda s: s, "square": _SMOOTH_MAPS["square"], "exp": _exp}


def _draw_chain(ctx, rng):
    setup, values = _random_setup(ctx, rng, scalar_valued=True)
    name = ("square", "exp", "sin")[rng.integers(3)]
    return (setup,), (name, values, _random_multivector(ctx.metric, setup[0], rng))


def _build_chain(ctx, setup, name, values, a):
    return Inputs(ctx, *_setup(setup, values), direction=a, smooth=name)


def _chain_sides(x):
    dfn = _per_trial(x.smooth, _SMOOTH_DERIVATIVES)
    rhs = dfn(value_of(x.phi.evaluate(x.h).scalar_part())) * x.derivative()
    return [(x.derivative(x.phi.map_scalar(_per_trial(x.smooth, _SMOOTH_MAPS))), rhs)]


_draw_frame = _draw_rule(lambda ctx, rng, p: {"frame": _random_frame(ctx, rng)})


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
    """The name of a smooth map, an anchor, the constant c of phi = (. c)
    composed with the map, a map and a frame: structure ()."""
    anchor = _random_multivector(ctx.metric, 1, rng)
    c = _random_multivector(ctx.metric, 1, rng)
    name = ("linear", "square", "exp")[rng.integers(3)]
    t = Extensor.random_invertible(ctx.metric, rng)
    return (), (name, anchor, c, t, _maybe_random_frame(ctx, rng))


def _draw_bridge_directional(ctx, rng):
    structure, values = _draw_bridge(ctx, rng)
    return structure, (*values, _random_multivector(ctx.metric, 1, rng))


def _build_bridge(ctx, name, anchor, c, t, frame, direction=None):
    phi = InducedFunctional(MvFunction(1, 1, 0, lambda x: x.scalar_product(c)), (anchor,), 1)
    if name != "linear":  # one trial's name, or a trial stack's per-trial names
        phi = phi.map_scalar(_per_trial(name, _BRIDGE_MAPS))
    return Inputs(ctx, t, phi, direction=direction, frame=frame, functional=name)


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
        lambda m, h, a, b, c: h(scalar_value(a, b) * c + scalar_value(a, c) * b),
    ),
    *_example(
        "wedge-pair",
        _pair("wedge"),
        lambda m, h, a, b, c: (m.dim - 1) * Outermorphism(h)(a.lcontract(b.wedge(c))),
    ),
    *_example(
        "vector-image",
        (_draw_vector, lambda m, b: (apply_functional(b), (b,))),
        lambda m, h, a, b: Multivector.from_scalar(m, m.dim * scalar_value(a, b)),
        lambda m, h, b: {
            "wedge": m.dim * b,
            "geometric": m.dim * b,
            "scalar": Multivector.zero(m),
            "lcontract": Multivector.zero(m),
        },
    ),
    *_example(
        "adjoint-image",
        (_draw_adjoint_image, lambda m, b, frame: (adjoint_image_functional(b, frame), (b,))),
        lambda m, h, a, b: b.geometric(a),
        lambda m, h, b: {
            "wedge": b,
            "scalar": Multivector.zero(m),
            "lcontract": (1 - m.dim) * b,
            "geometric": (2 - m.dim) * b,
        },
    ),
    *_example(
        "trace",
        _over_frame(trace_functional),
        lambda m, h, a: a,
        _scalar_star(lambda n: n),
    ),
    *_example(
        "bivector",
        _over_frame(bivector_functional),
        lambda m, h, a: (m.dim - 1) * a,
        _scalar_star(lambda n: (n - 1) * n),
    ),
    *_example(
        "pseudoscalar-image",
        (_draw_pseudoscalar, lambda m, scale, frame: (pseudoscalar_image_functional(
            pss := scale * unit_pseudoscalar(m), frame), (pss,))),
        lambda m, h, a, pss: Outermorphism(h)(a.lcontract(pss)),
    ),
    *_example(
        "det",
        _over_frame(det_functional),
        lambda m, h, a: h.det() * h.adjoint().inverse()(a),
        _det_star,
        relative=True,
    ),
    _check("blade-image-directional", "closed-form", _draw_blade_images, _build_blade_images,
           _blade_image_sides),
    _check("blade-image-directional-fd", "closed-form", _draw_blade_images, _build_blade_images,
           lambda x: [_fd_pair(x, phi) for phi in x.aux], tol_key="fd"),
    _check("inverse-bivector-frame-sum", "closed-form", _draw_map_and_frame,
           lambda ctx, h, frame: Inputs(ctx, h, frame=frame), _inverse_bivector_sides,
           relative=True),
    _check("star-fd-coherence", "closed-form", _draw_named, _build_named, _coherence_sides,
           tol_key="fd"),
    _check("direction-linearity", "properties", _draw_rule(_linearity_fields), _build_rule,
           _linearity_sides),
    _check("scaling-rule", "properties", _draw_rule(_scaling_fields), _build_rule,
           lambda x: [(x.derivative(x.phi.scaled(x.scale)), x.scale * x.derivative())]),
    _check("right-constant-rule", "properties", _draw_rule(_right_constant_fields), _build_rule,
           lambda x: [(x.derivative(x.phi.times_constant(x.constant)),
                       x.derivative().geometric(x.constant))]),
    _check("additivity-rule", "properties", _draw_two_functionals(False), _build_two_functionals,
           lambda x: [(x.derivative(x.phi + x.aux[0]), x.derivative() + x.derivative(x.aux[0]))]),
    _check("leibniz-rule", "properties", _draw_two_functionals(True), _build_two_functionals,
           _leibniz_sides),
    # relative: exp of a large functional value makes both sides large
    _check("chain-rule", "properties", _draw_chain, _build_chain, _chain_sides, relative=True,
           tol_factor=10.0),
    _check("frame-independence", "properties", _draw_frame, _build_rule,
           _frame_independence_sides, tol_factor=10.0),
    _check("intrinsic-equivalence", "properties", _draw_frame, _build_rule, _intrinsic_sides),
    _check("component-partials-fd", "bridge", _draw_bridge, _build_bridge,
           lambda x: [(_partials(x), _partials(x, x.ctx.config.fd_step))], tol_key="fd"),
    _check("component-bridge-directional", "bridge", _draw_bridge_directional, _build_bridge,
           lambda x: [(directional_from_partials(_partials(x), x.direction, x.frame),
                       x.derivative())], tol_factor=10.0),
    _check("component-bridge-star", "bridge", _draw_bridge, _build_bridge, _bridge_star_sides,
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
