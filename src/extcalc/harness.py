"""Randomized verification harness for the derivative-identity catalog.

Every closed-form identity of the functional calculus (and the generic
derivation rules behind it) is packaged as an IdentityCheck that draws random
inputs, measures the worst deviation between the two sides, and reports
pass/fail against a tolerance.  Checks with an -fd suffix compare the exact
tangent-propagation route against the central-finite-difference oracle, and
the bridge suite ties the derivative operators to ordinary partial
derivatives in the matrix components of the map.

Per-check RNG streams are derived from (seed, identity id), so results do not
depend on execution order and identical configs give identical reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .algebra import (
    MAX_DIM,
    PRODUCT_KINDS,
    Frame,
    Metric,
    Multivector,
    blade_name,
    max_abs_diff,
    random_multivector,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from .calculus import MvFunction
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
HARNESS_MAX_DIM = MAX_DIM  # the harness covers the algebra's whole range


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
        if len(entries) != dim:
            raise ConfigurationError(f"metric has {len(entries)} entries for dim {dim}")
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
    fd_step: float = 1e-5
    suite: str = "all"

    def __post_init__(self):
        if not isinstance(self.dim, int) or not 2 <= self.dim <= HARNESS_MAX_DIM:
            raise ConfigurationError(f"dim must be in [2, {HARNESS_MAX_DIM}], got {self.dim!r}")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        for name in ("tol_exact", "tol_fd", "fd_step"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        if self.suite not in SUITES + ("all",):
            raise ConfigurationError(f"suite must be one of {SUITES + ('all',)}")
        parse_metric(self.dim, self.metric)

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
    trial: Callable  # (ctx, rng) -> (deviation, zero-argument witness dict builder)
    tol_key: str = "exact"  # which config tolerance applies
    tol_factor: float = 1.0


@dataclass(frozen=True)
class _Context:
    metric: Metric
    config: HarnessConfig
    ortho: Frame


# -- witness serialization ------------------------------------------------------


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


def _witness(
    ctx: _Context, t: Extensor | None = None, anchors=None, direction=None, **extra
) -> Callable[[], dict]:
    """Builder of one trial's witness dict.  The inputs are immutable, so
    run_suite calls it only for the trial it reports; an extra Multivector
    is written as a blade map."""

    def build() -> dict:
        w: dict = {"n": ctx.metric.dim, "metric": list(ctx.metric.diag)}
        if t is not None:
            w.update(t.to_dict())
        if anchors is not None:
            w["anchors"] = [multivector_to_map(a) for a in anchors]
        if direction is not None:
            w["direction"] = multivector_to_map(direction)
        for key, value in extra.items():
            w[key] = multivector_to_map(value) if isinstance(value, Multivector) else value
        return w

    return build


# -- random input helpers -------------------------------------------------------


def _random_frame(metric: Metric, rng) -> Frame:
    carrier = Extensor.random_invertible(metric, rng)
    basis = Frame.orthonormal(metric).vectors
    return Frame.from_vectors([carrier(e) for e in basis])


def _maybe_random_frame(ctx: _Context, rng) -> Frame:
    return _random_frame(ctx.metric, rng) if rng.integers(2) else ctx.ortho


def _random_mixed(metric: Metric, rng) -> Multivector:
    total = Multivector.zero(metric)
    for grade in range(metric.dim + 1):
        total = total + random_multivector(metric, grade, rng)
    return total


def _random_scalar_func(metric: Metric, rng, k: int, q: int) -> MvFunction:
    c = random_multivector(metric, q, rng)
    if k == 1:
        if rng.integers(2):
            return MvFunction(1, q, 0, lambda x: x.scalar_product(c))
        return MvFunction(1, q, 0, lambda x: x.scalar_product(x))
    if rng.integers(2):
        return MvFunction(2, q, 0, lambda x, y: x.scalar_product(y))
    return MvFunction(
        2, q, 0, lambda x, y: x.scalar_product(c).geometric(y.scalar_product(y))
    )


def _random_value_func(metric: Metric, rng, k: int, q: int) -> MvFunction:
    n = metric.dim
    c = random_multivector(metric, 1, rng)
    d = random_multivector(metric, q, rng)
    if k == 1:
        options = [MvFunction(1, q, q, lambda x: x)]
        if q + 1 <= n:
            options.append(MvFunction(1, q, q + 1, lambda x: x.wedge(c)))
        options.append(MvFunction(1, q, 1, lambda x: c.geometric(x.scalar_product(d))))
        return options[rng.integers(len(options))]
    options = [MvFunction(2, q, 1, lambda x, y: c.geometric(x.scalar_product(y)))]
    if 2 * q <= n:
        options.append(MvFunction(2, q, 2 * q, lambda x, y: x.wedge(y)))
    options.append(MvFunction(2, q, q, lambda x, y: x * y.scalar_product(d).scalar_part()))
    return options[rng.integers(len(options))]


def _random_setup(ctx: _Context, rng, source_grade=None, scalar_valued=False):
    """Random anchors, matching map, and function; returns (functional, map)."""
    metric = ctx.metric
    top = min(2, metric.dim)
    p = int(rng.integers(1, top + 1)) if source_grade is None else source_grade
    q = int(rng.integers(1, top + 1))
    k = int(rng.integers(1, 3))
    anchors = tuple(random_multivector(metric, p, rng) for _ in range(k))
    t = Extensor.random(metric, rng, p, q)
    func = (
        _random_scalar_func(metric, rng, k, q)
        if scalar_valued
        else _random_value_func(metric, rng, k, q)
    )
    return InducedFunctional(func, anchors, p), t


def _rel(dev: float, rhs: Multivector) -> float:
    return dev / max(1.0, rhs.norm_inf())


# -- worked-example checks -------------------------------------------------------


@dataclass(frozen=True)
class _WorkedExample:
    """One named functional with its closed-form derivative expectations."""

    name: str
    build: Callable  # (ctx, rng) -> (functional, aux dict)
    directional_rhs: Callable | None = None  # (ctx, h, a, aux) -> Multivector
    star_rhs: Callable | None = None  # (ctx, h, aux) -> {kind: Multivector}
    relative: bool = False


def _build_pair(kind):
    def build(ctx, rng):
        b = random_multivector(ctx.metric, 1, rng)
        c = random_multivector(ctx.metric, 1, rng)
        return pair_product_functional(kind, b, c), {"b": b, "c": c}

    return build


def _build_vector_image(ctx, rng):
    b = random_multivector(ctx.metric, 1, rng)
    return apply_functional(b), {"b": b}


def _build_adjoint_image(ctx, rng):
    b = random_multivector(ctx.metric, 1, rng)
    return adjoint_image_functional(b, _maybe_random_frame(ctx, rng)), {"b": b}


def _build_over_frame(make):
    """Builder of make(metric, frame), the frame random or orthonormal."""
    return lambda ctx, rng: (make(ctx.metric, _maybe_random_frame(ctx, rng)), {})


def _build_pseudoscalar_image(ctx, rng):
    sign = 1.0 if rng.integers(2) else -1.0
    pss = (sign * float(rng.uniform(0.5, 2.0))) * unit_pseudoscalar(ctx.metric)
    phi = pseudoscalar_image_functional(pss, _maybe_random_frame(ctx, rng))
    return phi, {"pss": pss}


def _det_star_rhs(ctx, h, aux):
    d = h.det()
    hinv = h.inverse()
    trace_term = Multivector.from_scalar(ctx.metric, d * hinv.trace())
    biv_term = d * hinv.bivector()
    return {
        "wedge": biv_term,
        "scalar": trace_term,
        "lcontract": trace_term,
        "geometric": trace_term + biv_term,
    }


_EXAMPLES = (
    _WorkedExample(
        "dot-pair",
        _build_pair("scalar"),
        directional_rhs=lambda ctx, h, a, aux: h(
            scalar_value(a, aux["b"]) * aux["c"] + scalar_value(a, aux["c"]) * aux["b"]
        ),
    ),
    _WorkedExample(
        "wedge-pair",
        _build_pair("wedge"),
        directional_rhs=lambda ctx, h, a, aux: (ctx.metric.dim - 1)
        * Outermorphism(h)(a.lcontract(aux["b"].wedge(aux["c"]))),
    ),
    _WorkedExample(
        "vector-image",
        _build_vector_image,
        directional_rhs=lambda ctx, h, a, aux: Multivector.from_scalar(
            ctx.metric, ctx.metric.dim * scalar_value(a, aux["b"])
        ),
        star_rhs=lambda ctx, h, aux: {
            "wedge": ctx.metric.dim * aux["b"],
            "geometric": ctx.metric.dim * aux["b"],
            "scalar": Multivector.zero(ctx.metric),
            "lcontract": Multivector.zero(ctx.metric),
        },
    ),
    _WorkedExample(
        "adjoint-image",
        _build_adjoint_image,
        directional_rhs=lambda ctx, h, a, aux: aux["b"].geometric(a),
        star_rhs=lambda ctx, h, aux: {
            "wedge": aux["b"],
            "scalar": Multivector.zero(ctx.metric),
            "lcontract": (1 - ctx.metric.dim) * aux["b"],
            "geometric": (2 - ctx.metric.dim) * aux["b"],
        },
    ),
    _WorkedExample(
        "trace",
        _build_over_frame(trace_functional),
        directional_rhs=lambda ctx, h, a, aux: a,
        star_rhs=lambda ctx, h, aux: {
            "wedge": Multivector.zero(ctx.metric),
            "scalar": Multivector.from_scalar(ctx.metric, ctx.metric.dim),
            "lcontract": Multivector.from_scalar(ctx.metric, ctx.metric.dim),
            "geometric": Multivector.from_scalar(ctx.metric, ctx.metric.dim),
        },
    ),
    _WorkedExample(
        "bivector",
        _build_over_frame(bivector_functional),
        directional_rhs=lambda ctx, h, a, aux: (ctx.metric.dim - 1) * a,
        star_rhs=lambda ctx, h, aux: {
            "wedge": Multivector.zero(ctx.metric),
            "scalar": Multivector.from_scalar(ctx.metric, (ctx.metric.dim - 1) * ctx.metric.dim),
            "lcontract": Multivector.from_scalar(ctx.metric, (ctx.metric.dim - 1) * ctx.metric.dim),
            "geometric": Multivector.from_scalar(ctx.metric, (ctx.metric.dim - 1) * ctx.metric.dim),
        },
    ),
    _WorkedExample(
        "pseudoscalar-image",
        _build_pseudoscalar_image,
        directional_rhs=lambda ctx, h, a, aux: Outermorphism(h)(a.lcontract(aux["pss"])),
    ),
    _WorkedExample(
        "det",
        _build_over_frame(det_functional),
        directional_rhs=lambda ctx, h, a, aux: h.det() * h.adjoint().inverse()(a),
        star_rhs=_det_star_rhs,
        relative=True,
    ),
)


def _directional_trial(ex: _WorkedExample, fd: bool = False):
    """Exact directional derivative against the closed form, or with fd=True
    against the finite-difference route (always an absolute comparison)."""

    def trial(ctx, rng):
        h = Extensor.random_invertible(ctx.metric, rng)
        a = random_multivector(ctx.metric, 1, rng)
        phi, aux = ex.build(ctx, rng)
        if fd:
            rhs = phi.directional_derivative(h, a, step=ctx.config.fd_step)
        else:
            rhs = ex.directional_rhs(ctx, h, a, aux)
        dev = max_abs_diff(phi.directional_derivative(h, a), rhs)
        if ex.relative and not fd:
            dev = _rel(dev, rhs)
        return dev, _witness(ctx, h, anchors=phi.anchors, direction=a)

    return trial


def _star_trial(ex: _WorkedExample):
    def trial(ctx, rng):
        h = Extensor.random_invertible(ctx.metric, rng)
        phi, aux = ex.build(ctx, rng)
        expected = ex.star_rhs(ctx, h, aux)
        table = phi.derivative_table(h, tuple(expected))
        dev = 0.0
        for kind, rhs in expected.items():
            d = max_abs_diff(table[kind], rhs)
            dev = max(dev, _rel(d, rhs) if ex.relative else d)
        return dev, _witness(ctx, h, anchors=phi.anchors)

    return trial


def _blade_image_trial(fd: bool = False):
    """Blade images of every grade k: exact directional derivative against
    (n-k+1) h(a _| B), or with fd=True against the finite-difference route.
    The witness keeps the anchors of the worst grade."""

    def trial(ctx, rng):
        h = Extensor.random_invertible(ctx.metric, rng)
        a = random_multivector(ctx.metric, 1, rng)
        n = ctx.metric.dim
        dev = 0.0
        worst_anchors = None
        for k in range(1, n + 1):
            vectors = [random_multivector(ctx.metric, 1, rng) for _ in range(k)]
            phi = blade_image_functional(vectors)
            if fd:
                rhs = phi.directional_derivative(h, a, step=ctx.config.fd_step)
            else:
                rhs = (n - k + 1) * Outermorphism(h)(a.lcontract(wedge_all(ctx.metric, vectors)))
            d = max_abs_diff(phi.directional_derivative(h, a), rhs)
            if d >= dev:
                dev, worst_anchors = d, vectors
        return dev, _witness(ctx, h, anchors=worst_anchors, direction=a)

    return trial


def _check_inverse_bivector_sum(ctx, rng):
    """sum_j star(f_j) ^ f^j against minus the bivector of the inverse, where
    star is the adjoint of the inverse."""
    h = Extensor.random_invertible(ctx.metric, rng)
    frame = _maybe_random_frame(ctx, rng)
    hstar = h.adjoint().inverse()
    total = Multivector.zero(ctx.metric)
    for v, r in zip(frame.vectors, frame.reciprocal):
        total = total + hstar(v).wedge(r)
    rhs = -1.0 * h.inverse().bivector()
    dev = _rel(max_abs_diff(total, rhs), rhs)
    return dev, _witness(ctx, h)


def _check_star_fd_coherence(ctx, rng):
    h = Extensor.random_invertible(ctx.metric, rng)
    b = random_multivector(ctx.metric, 1, rng)
    functionals = (
        apply_functional(b),
        adjoint_image_functional(b),
        trace_functional(ctx.metric),
        bivector_functional(ctx.metric),
        det_functional(ctx.metric),
    )
    dev = 0.0
    for phi in functionals:
        exact = phi.derivative_table(h, PRODUCT_KINDS)
        fd = phi.derivative_table(h, PRODUCT_KINDS, ctx.config.fd_step)
        for kind in PRODUCT_KINDS:
            dev = max(dev, max_abs_diff(exact[kind], fd[kind]))
    return dev, _witness(ctx, h, anchors=(b,))


# -- derivation-rule checks -------------------------------------------------------


def _check_direction_linearity(ctx, rng):
    phi, t = _random_setup(ctx, rng)
    p = phi.source_grade
    a = random_multivector(ctx.metric, p, rng)
    b = random_multivector(ctx.metric, p, rng)
    alpha = float(rng.uniform(-2.0, 2.0))
    beta = float(rng.uniform(-2.0, 2.0))
    lhs = phi.directional_derivative(t, alpha * a + beta * b)
    rhs = alpha * phi.directional_derivative(t, a) + beta * phi.directional_derivative(t, b)
    return max_abs_diff(lhs, rhs), _witness(
        ctx, t, anchors=phi.anchors, direction=a, alpha=alpha, beta=beta
    )


def _check_scaling_rule(ctx, rng):
    phi, t = _random_setup(ctx, rng)
    a = random_multivector(ctx.metric, phi.source_grade, rng)
    lam = float(rng.uniform(-2.0, 2.0))
    lhs = phi.scaled(lam).directional_derivative(t, a)
    rhs = lam * phi.directional_derivative(t, a)
    return max_abs_diff(lhs, rhs), _witness(ctx, t, anchors=phi.anchors, direction=a, scale=lam)


def _check_right_constant_rule(ctx, rng):
    phi, t = _random_setup(ctx, rng)
    a = random_multivector(ctx.metric, phi.source_grade, rng)
    m = _random_mixed(ctx.metric, rng)
    lhs = phi.times_constant(m).directional_derivative(t, a)
    rhs = phi.directional_derivative(t, a).geometric(m)
    return max_abs_diff(lhs, rhs), _witness(ctx, t, anchors=phi.anchors, direction=a, constant=m)


def _check_additivity_rule(ctx, rng):
    phi, t = _random_setup(ctx, rng)
    other = InducedFunctional(
        _random_value_func(ctx.metric, rng, phi.arity, phi.func.input_grade),
        phi.anchors,
        phi.source_grade,
    )
    a = random_multivector(ctx.metric, phi.source_grade, rng)
    lhs = (phi + other).directional_derivative(t, a)
    rhs = phi.directional_derivative(t, a) + other.directional_derivative(t, a)
    return max_abs_diff(lhs, rhs), _witness(ctx, t, anchors=phi.anchors, direction=a)


def _check_leibniz_rule(ctx, rng):
    phi, t = _random_setup(ctx, rng, scalar_valued=True)
    g = InducedFunctional(
        _random_value_func(ctx.metric, rng, phi.arity, phi.func.input_grade),
        phi.anchors,
        phi.source_grade,
    )
    a = random_multivector(ctx.metric, phi.source_grade, rng)
    lhs = phi.times_functional(g).directional_derivative(t, a)
    phi_val = value_of(phi.evaluate(t).scalar_part())
    rhs = phi.directional_derivative(t, a).geometric(g.evaluate(t)) + phi_val * g.directional_derivative(t, a)
    return max_abs_diff(lhs, rhs), _witness(ctx, t, anchors=phi.anchors, direction=a)


_SMOOTH_MAPS = {
    "square": (lambda s: s * s, lambda v: 2.0 * v),
    "exp": (_exp, lambda v: float(np.exp(v))),
    "sin": (_sin, lambda v: float(np.cos(v))),
}


def _check_chain_rule(ctx, rng):
    phi, t = _random_setup(ctx, rng, scalar_valued=True)
    name = ("square", "exp", "sin")[rng.integers(3)]
    fn, dfn = _SMOOTH_MAPS[name]
    a = random_multivector(ctx.metric, phi.source_grade, rng)
    lhs = phi.map_scalar(fn).directional_derivative(t, a)
    rhs = dfn(value_of(phi.evaluate(t).scalar_part())) * phi.directional_derivative(t, a)
    # relative: exp of a large functional value makes both sides large
    dev = _rel(max_abs_diff(lhs, rhs), rhs)
    return dev, _witness(ctx, t, anchors=phi.anchors, direction=a, smooth=name)


def _check_frame_independence(ctx, rng):
    phi, t = _random_setup(ctx, rng)
    frame = _random_frame(ctx.metric, rng)
    via_ortho = phi.derivative_via_frame(t, PRODUCT_KINDS, ctx.ortho)
    via_frame = phi.derivative_via_frame(t, PRODUCT_KINDS, frame)
    dev = 0.0
    for kind in PRODUCT_KINDS:
        dev = max(dev, max_abs_diff(via_ortho[kind], via_frame[kind]))
    return dev, _witness(ctx, t, anchors=phi.anchors)


def _check_intrinsic_equivalence(ctx, rng):
    phi, t = _random_setup(ctx, rng)
    frame = _random_frame(ctx.metric, rng)
    table = phi.derivative_table(t, PRODUCT_KINDS)
    via_ortho = phi.derivative_via_frame(t, PRODUCT_KINDS, ctx.ortho)
    via_frame = phi.derivative_via_frame(t, PRODUCT_KINDS, frame)
    dev = 0.0
    for kind in PRODUCT_KINDS:
        dev = max(dev, max_abs_diff(table[kind], via_ortho[kind]))
        dev = max(dev, max_abs_diff(table[kind], via_frame[kind]))
    return dev, _witness(ctx, t, anchors=phi.anchors)


# -- bridge checks ------------------------------------------------------------------


def _bridge_setup(ctx, rng):
    anchor = random_multivector(ctx.metric, 1, rng)
    c = random_multivector(ctx.metric, 1, rng)
    base = InducedFunctional(
        MvFunction(1, 1, 0, lambda x: x.scalar_product(c)), (anchor,), 1
    )
    name = ("linear", "square", "exp")[rng.integers(3)]
    if name == "square":
        phi = base.map_scalar(lambda s: s * s)
    elif name == "exp":
        phi = base.map_scalar(_exp)
    else:
        phi = base
    t = Extensor.random_invertible(ctx.metric, rng)
    frame = _maybe_random_frame(ctx, rng)
    return phi, t, frame, name


def _check_component_partials_fd(ctx, rng):
    phi, t, frame, name = _bridge_setup(ctx, rng)
    parts = component_partials(phi, t, frame)
    parts_fd = component_partials(phi, t, frame, ctx.config.fd_step)
    dev = float(np.max(np.abs(parts - parts_fd)))
    return dev, _witness(ctx, t, anchors=phi.anchors, functional=name)


def _check_bridge_directional(ctx, rng):
    phi, t, frame, name = _bridge_setup(ctx, rng)
    a = random_multivector(ctx.metric, 1, rng)
    parts = component_partials(phi, t, frame)
    dev = max_abs_diff(
        directional_from_partials(parts, a, frame), phi.directional_derivative(t, a)
    )
    return dev, _witness(ctx, t, anchors=phi.anchors, direction=a, functional=name)


def _check_bridge_star(ctx, rng):
    phi, t, frame, name = _bridge_setup(ctx, rng)
    parts = component_partials(phi, t, frame)
    table = phi.derivative_table(t, PRODUCT_KINDS)
    dev = 0.0
    for kind in PRODUCT_KINDS:
        dev = max(dev, max_abs_diff(star_from_partials(parts, kind, frame), table[kind]))
    return dev, _witness(ctx, t, anchors=phi.anchors, functional=name)


# -- the catalog ---------------------------------------------------------------------


def _example_checks():
    checks = []
    for ex in _EXAMPLES:
        if ex.directional_rhs is not None:
            checks.append(
                IdentityCheck(f"{ex.name}-directional", "closed-form", _directional_trial(ex))
            )
            checks.append(
                IdentityCheck(
                    f"{ex.name}-directional-fd",
                    "closed-form",
                    _directional_trial(ex, fd=True),
                    "fd",
                )
            )
        if ex.star_rhs is not None:
            checks.append(IdentityCheck(f"{ex.name}-star", "closed-form", _star_trial(ex)))
    return checks


CATALOG: tuple[IdentityCheck, ...] = tuple(
    _example_checks()
    + [
        IdentityCheck("blade-image-directional", "closed-form", _blade_image_trial()),
        IdentityCheck("blade-image-directional-fd", "closed-form", _blade_image_trial(fd=True), "fd"),
        IdentityCheck("inverse-bivector-frame-sum", "closed-form", _check_inverse_bivector_sum),
        IdentityCheck("star-fd-coherence", "closed-form", _check_star_fd_coherence, "fd"),
        IdentityCheck("direction-linearity", "properties", _check_direction_linearity),
        IdentityCheck("scaling-rule", "properties", _check_scaling_rule),
        IdentityCheck("right-constant-rule", "properties", _check_right_constant_rule),
        IdentityCheck("additivity-rule", "properties", _check_additivity_rule),
        IdentityCheck("leibniz-rule", "properties", _check_leibniz_rule),
        IdentityCheck("chain-rule", "properties", _check_chain_rule, "exact", 10.0),
        IdentityCheck("frame-independence", "properties", _check_frame_independence, "exact", 10.0),
        IdentityCheck("intrinsic-equivalence", "properties", _check_intrinsic_equivalence),
        IdentityCheck("component-partials-fd", "bridge", _check_component_partials_fd, "fd"),
        IdentityCheck("component-bridge-directional", "bridge", _check_bridge_directional, "exact", 10.0),
        IdentityCheck("component-bridge-star", "bridge", _check_bridge_star, "exact", 10.0),
    ]
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
        np.random.SeedSequence([seed & (2**64 - 1), int.from_bytes(digest[:8], "big")])
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
        max_dev = 0.0
        worst: Callable[[], dict] | None = None  # the reported trial's witness builder
        for _ in range(config.trials):
            dev, build = check.trial(ctx, rng)
            # a non-finite deviation is the worst one; the first of them stays
            if worst is None or (
                math.isfinite(max_dev) and (dev > max_dev or not math.isfinite(dev))
            ):
                max_dev, worst = dev, build
        passed = math.isfinite(max_dev) and max_dev <= tol
        results.append(
            IdentityResult(
                identity=check.id,
                trials=config.trials,
                max_deviation=max_dev,
                tolerance=tol,
                passed=passed,
                witness=None if passed else worst(),
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
