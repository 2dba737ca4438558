"""Functionals of extensors induced by multivector functions, and their
derivative operators.

An InducedFunctional pairs a function F of k grade-q variables with a fixed
tuple of grade-p anchor multivectors (A^1, ..., A^k); its value on a (p,q)
map t is F(t(A^1), ..., t(A^k)).  Derivatives come in two families:

  * the directional derivative along a grade-p direction A,

        sum_i  (A . A^i) * dF/dX^i   evaluated at (t(A^1), ..., t(A^k)),

    linear in A, with dF/dX^i the standard derivative of F in slot i;

  * the four star operators (curl for wedge, scalar divergence, left
    contracted divergence, gradient for the geometric product),

        sum_i  A^i * dF/dX^i,

    which also equal the grade-p blade frame sum

        sum_J  f^J * (directional derivative along f_J)

    for any frame -- both routes are implemented and their agreement is a
    test target, as is independence from the choice of frame.

Each derivative method takes `step`: None differentiates F exactly, a positive
step by central differences (the oracle choice of calculus.grad_star).  Every
method gets its slot gradients dF/dX^i from one partial_gradients call, which
computes only the slots it needs: exactly in one forward pass of F over all
of them, or by one batched finite difference per slot.  The frame route
derivative_via_frame forms the directional derivative along every frame blade
as one weight-matrix product and sums them with Frame.blade_sum.

The module also carries the bridge to classical matrix calculus: the partial
derivatives of the lifted real function of the n x n frame components of t,
and the reassembly of both derivative families from those partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    Frame,
    Metric,
    Multivector,
    product,
    scalar_value,
)
from .calculus import DEFAULT_FD_STEP, MvFunction, _slot_gradients, grad_star
from .dual import value_of
from .extensor import Extensor


@dataclass(frozen=True)
class InducedFunctional:
    """t -> F(t(A^1), ..., t(A^k)) for fixed grade-p anchors A^i."""

    func: MvFunction
    anchors: tuple[Multivector, ...]
    source_grade: int

    def __post_init__(self):
        object.__setattr__(self, "anchors", tuple(self.anchors))
        if len(self.anchors) != self.func.arity:
            raise ValueError(
                f"{self.func.arity} variables but {len(self.anchors)} anchors"
            )
        if not self.anchors:
            raise ValueError("need at least one anchor")
        for a in self.anchors:
            if not a.is_homogeneous(self.source_grade):
                raise ValueError(f"anchors must be homogeneous of grade {self.source_grade}")
            if a.metric != self.anchors[0].metric:
                raise ValueError("anchors live over different metrics")

    @property
    def metric(self) -> Metric:
        return self.anchors[0].metric

    @property
    def arity(self) -> int:
        return self.func.arity

    def _check_map(self, t: Extensor):
        if t.metric != self.metric:
            raise ValueError("map lives over a different metric")
        if t.p != self.source_grade or t.q != self.func.input_grade:
            raise ValueError(
                f"expected a ({self.source_grade},{self.func.input_grade}) map, "
                f"got ({t.p},{t.q})"
            )

    def arguments(self, t: Extensor) -> tuple[Multivector, ...]:
        self._check_map(t)
        return tuple(t.apply(a) for a in self.anchors)

    def evaluate(self, t: Extensor) -> Multivector:
        return self.func(*self.arguments(t))

    # -- derivatives ---------------------------------------------------------

    def partial_gradients(self, t: Extensor, slots=None, step: float | None = None) -> list:
        """Standard derivative of F in each slot, at (t(A^1), ..., t(A^k)).

        With `slots`, only the slots i with slots[i] true are computed; the
        others are None.  `step` selects the oracle as in grad_star; exactly,
        every computed slot comes from one forward pass of F.
        """
        wanted = [i for i in range(self.arity) if slots is None or slots[i]]
        grads = _slot_gradients(self.func, self.arguments(t), wanted, step=step)
        out = [None] * self.arity
        for i, grad in zip(wanted, grads):
            out[i] = grad
        return out

    def _weighted_sum(self, weights, grads) -> Multivector:
        """sum_i w_i * grads[i] over the nonzero weights."""
        total = Multivector.zero(self.metric)
        for w, grad in zip(weights, grads):
            if w != 0.0:
                total = total + w * grad
        return total

    def directional_derivative(
        self, t: Extensor, direction: Multivector, step: float | None = None
    ) -> Multivector:
        """Derivative along a grade-p direction; linear in the direction."""
        self._check_map(t)
        if not direction.is_homogeneous(self.source_grade):
            raise ValueError(f"direction must be homogeneous of grade {self.source_grade}")
        weights = [scalar_value(direction, a) for a in self.anchors]
        if all(w == 0.0 for w in weights):
            return Multivector.zero(self.metric)
        grads = self.partial_gradients(t, [w != 0.0 for w in weights], step)
        return self._weighted_sum(weights, grads)

    def derivative_table(
        self, t: Extensor, kinds: Sequence[str], step: float | None = None
    ) -> dict:
        """Star derivatives for several product kinds, sharing one gradient pass."""
        grads = self.partial_gradients(t, step=step)
        out = {}
        for kind in kinds:
            total = Multivector.zero(self.metric)
            for anchor, grad in zip(self.anchors, grads):
                total = total + product(kind, anchor, grad)
            out[kind] = total
        return out

    def derivative(
        self, t: Extensor, kind: str = "geometric", step: float | None = None
    ) -> Multivector:
        """Star derivative: curl (wedge), scalar or contracted divergence, or
        gradient (geometric product), in intrinsic anchor-sum form."""
        return self.derivative_table(t, (kind,), step)[kind]

    def derivative_via_frame(self, t: Extensor, kind: str, frame: Frame) -> Multivector:
        """Same operator through the grade-p blade frame sum; frame-independent."""
        self._check_map(t)
        pairs = frame.blade_pairs(self.source_grade)
        weights = np.array(
            [[scalar_value(primal, a) for a in self.anchors] for primal, _ in pairs]
        )
        # gradients once per call, only in the slots some blade weighs
        grads = self.partial_gradients(t, (weights != 0.0).any(axis=0))
        zero = np.zeros(self.metric.size)
        grads = np.stack([zero if g is None else g.values() for g in grads])
        # row J is the directional derivative along f_J
        return Multivector(self.metric, frame.blade_sum(self.source_grade, kind, weights @ grads))

    # -- combinators -----------------------------------------------------------

    def _with_func(self, func: MvFunction) -> "InducedFunctional":
        return InducedFunctional(func, self.anchors, self.source_grade)

    def scaled(self, factor: float) -> "InducedFunctional":
        f = self.func
        return self._with_func(
            MvFunction(f.arity, f.input_grade, f.output_grade,
                       lambda *xs: factor * f(*xs))
        )

    def times_constant(self, m: Multivector) -> "InducedFunctional":
        """Right geometric multiplication of the value by a fixed multivector."""
        f = self.func
        return self._with_func(
            MvFunction(f.arity, f.input_grade, None, lambda *xs: f(*xs).geometric(m))
        )

    def __add__(self, other: "InducedFunctional") -> "InducedFunctional":
        if self.anchors != other.anchors or self.source_grade != other.source_grade:
            raise ValueError("functionals must share their anchor tuple")
        f, g = self.func, other.func
        if (f.arity, f.input_grade) != (g.arity, g.input_grade):
            raise ValueError("functions take different variables")
        return self._with_func(
            MvFunction(f.arity, f.input_grade, f.output_grade,
                       lambda *xs: f(*xs) + g(*xs))
        )

    def times_functional(self, other: "InducedFunctional") -> "InducedFunctional":
        """Scalar functional times functional, over a shared anchor tuple."""
        if self.func.output_grade != 0:
            raise ValueError("left factor must be scalar-valued")
        if self.anchors != other.anchors or self.source_grade != other.source_grade:
            raise ValueError("functionals must share their anchor tuple")
        f, g = self.func, other.func
        return self._with_func(
            MvFunction(f.arity, f.input_grade, g.output_grade,
                       lambda *xs: g(*xs) * f(*xs).scalar_part())
        )

    def map_scalar(self, fn: Callable) -> "InducedFunctional":
        """Compose a scalar functional with a smooth map: one of extcalc.dual,
        or any fn built from products of its argument, a float, grade-0 jet
        or (B,) array, and floats."""
        if self.func.output_grade != 0:
            raise ValueError("only scalar functionals compose with scalar maps")
        f = self.func
        metric = self.metric
        return self._with_func(
            MvFunction(
                f.arity, f.input_grade, 0,
                lambda *xs: Multivector.from_scalar(metric, fn(f(*xs).scalar_part())),
            )
        )


# -- bridge to classical matrix calculus ---------------------------------------


def _check_bridge_shape(phi: InducedFunctional):
    if phi.arity != 1 or phi.source_grade != 1 or phi.func.input_grade != 1:
        raise ValueError("bridge needs a single grade-1 anchor and a (1,1) map")
    if phi.func.output_grade != 0:
        raise ValueError("bridge needs a scalar-valued functional")


def component_partials(phi: InducedFunctional, t: Extensor, frame: Frame) -> np.ndarray:
    """d(lifted Phi)/d m[p,q] where m are the frame components of t.

    Entry (p, q) is (anchor . f^p) * (f^q . grad Phi) with the gradient taken
    at t(anchor).
    """
    _check_bridge_shape(phi)
    phi._check_map(t)
    n = phi.metric.dim
    grad = grad_star(phi.func, phi.arguments(t), 0, "geometric")
    anchor = phi.anchors[0]
    a = [scalar_value(anchor, frame.reciprocal[i]) for i in range(n)]
    g = [scalar_value(frame.reciprocal[j], grad) for j in range(n)]
    return np.array([[a[i] * g[j] for j in range(n)] for i in range(n)])


def component_partials_fd(
    phi: InducedFunctional, t: Extensor, frame: Frame, step: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central differences of the lifted real function in the components of t.

    All 2n^2 perturbed component matrices map to one batched argument, so the
    function is evaluated once.
    """
    _check_bridge_shape(phi)
    phi._check_map(t)
    n = phi.metric.dim
    anchor = phi.anchors[0]
    a = np.array([scalar_value(anchor, frame.reciprocal[i]) for i in range(n)])
    recip = np.stack([r.values() for r in frame.reciprocal])
    bumps = step * np.eye(n * n).reshape(n * n, n, n)
    comps = t.to_components(frame)
    mats = np.concatenate([comps + bumps, comps - bumps])
    # row b of x is sum_j (sum_i m_b[i, j] a[i]) f^j
    x = Multivector(phi.metric, (a @ mats) @ recip)
    lifted = np.broadcast_to(value_of(phi.func(x).scalar_part()), (2 * n * n,))
    return ((lifted[: n * n] - lifted[n * n :]) / (2.0 * step)).reshape(n, n)


def directional_from_partials(
    partials: np.ndarray, direction: Multivector, frame: Frame
) -> Multivector:
    """sum_pq (direction . f_p) partials[p,q] f_q; rebuilds the directional
    derivative of the functional the partials came from."""
    partials = np.asarray(partials, dtype=float)
    n = frame.metric.dim
    if partials.shape != (n, n):
        raise ValueError(f"expected shape {(n, n)}, got {partials.shape}")
    total = Multivector.zero(frame.metric)
    for p in range(n):
        w = scalar_value(direction, frame.vectors[p])
        for q in range(n):
            total = total + (w * partials[p, q]) * frame.vectors[q]
    return total


def star_from_partials(partials: np.ndarray, kind: str, frame: Frame) -> Multivector:
    """sum_pq f_p * (partials[p,q] f_q); rebuilds the star derivative."""
    partials = np.asarray(partials, dtype=float)
    n = frame.metric.dim
    if partials.shape != (n, n):
        raise ValueError(f"expected shape {(n, n)}, got {partials.shape}")
    total = Multivector.zero(frame.metric)
    for p in range(n):
        for q in range(n):
            total = total + product(
                kind, frame.vectors[p], partials[p, q] * frame.vectors[q]
            )
    return total
