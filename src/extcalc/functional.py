"""Functionals of extensors induced by multivector functions, and their
derivative operators.

An InducedFunctional pairs a function F of k grade-q variables with a fixed
tuple of grade-p anchor multivectors (A^1, ..., A^k), each a constant of one
metric (unbatched, without tangents; algebra._check_operand); its value on a
(p,q) map t is F(t(A^1), ..., t(A^k)).  Derivatives come in two families:

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
finite step by central differences (the oracle choice of calculus.grad_star,
any other step a ValueError before F is evaluated).  The
directional derivative is linear in the weights w_i = A . A^i, so it is one
weighted pass of the calculus kernel: along each grade-q frame blade f_J,
slot i moves by w_i f_J, with C(n, q) tangent rows in all, or one batch of
2 C(n, q) points per slot and one evaluation of F; one geometric
product_sum against the reciprocal blades finishes it.
values_and_derivatives takes r functionals that share their anchors and
variables, the functionals of a derivation rule, and D directions: one band
per direction, one pass of each function and one product_sum give every
derivative, and the exact pass's value rows give the values at the map;
directional_derivative is its case of one functional and one direction.
The star operators get the slot gradients dF/dX^i as one (k, 2^n) array:
exactly from one forward pass of F, or by one batched finite difference per
slot.  Each star
form is one algebra.product_sum over the product kinds, of the anchors with
the gradients or, in derivative_via_frame, of the reciprocal frame blades
with the blade derivatives (blade . anchor weights times the gradients).
derivative_table and derivative_via_frame both take a sequence of kinds and
return a {kind: Multivector} dict from one gradient pass; a frame must live
over the functional's metric, since the blade weights are taken in it.

What is computed at a map is found again by identity (a map, like a
multivector, is immutable), one last entry per reuse point.  The anchor
images t(A^i) are mapped once per anchor objects and map object
(_anchor_images), and every functional over those anchor objects reads
them: a derived one, or one built separately over the same anchors.  So
separate calls of functionals over one anchor tuple at one map hand F the
same seeded arguments, and F returns its last value to them (calculus:
_seeded and MvFunction.__call__); in a harness verdict these are the star
tables of star-fd-coherence's named functionals, while every derivation
rule makes one values_and_derivatives call per group.  A functional also
keeps the slot gradients of each step at the last map it met, so the exact
and finite-difference routes at one map map the anchors once, and its star
tables over any frames share one gradient pass.  A derived functional
(scaled, times_constant, +, times_functional, map_scalar) keeps its
parent's anchors and variables, and two functionals combine only when they
share both.

The module also carries the bridge to classical matrix calculus: the partial
derivatives of the lifted real function of the n x n frame components of t,
and the reassembly of both derivative families from those partials, each one
matrix product over the frame vectors.  component_partials takes `step` too:
exactly, it reads the derivatives of F along the n reciprocal vectors from
one pass of the calculus kernel; with a step, it perturbs the components
themselves, an oracle that also checks the chain rule behind the bridge.

Anchors, maps and directions may be trial stacks (see extcalc.algebra): a
functional with stacked anchors, or one evaluated at a stacked map, gives
the trial stack of values and derivatives, trial r bit for bit what the
unstacked trial r gives.  The bridge takes the same trial axis: a stacked
functional, map or frame gives (T, n, n) partials, and (T, n, n) partials,
a stacked direction or frame give the trial stack of rebuilt derivatives,
each trial by the matrix products its unstacked call makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (Frame, Multivector, _check_metric, _check_operand, _coordinate_rows, _rows,
                      _tables, _trial_count, _trial_rows, product_sum)
from .calculus import MvFunction, _check_step, _derivative_rows, _same_objects, _slot_gradients
from .dual import value_of
from .extensor import Extensor, _apply_matrix


# the anchors, map and anchor images of the last _anchor_images call
_last_images = None


def _anchor_images(anchors: tuple, t: Extensor) -> tuple:
    """(t(A^1), ..., t(A^k)), each what t.apply gives, for anchors and a map
    already checked against each other; the last call's images again when
    the anchors and the map are its objects, so every functional over one
    anchor tuple hands its function the same arguments at one map."""
    global _last_images
    last = _last_images
    if last is None or last[1] is not t or not _same_objects(last[0], anchors):
        images = tuple(_apply_matrix(t.metric, t.matrix, t.p, t.q, a) for a in anchors)
        last = _last_images = (anchors, t, images)
    return last[2]


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
        metric = self.anchors[0].metric
        for a in self.anchors:
            _check_operand(a, metric, self.source_grade, "anchor")
        object.__setattr__(self, "metric", metric)  # an attribute: every map check reads it
        object.__setattr__(self, "_anchor_values", _coordinate_rows(self.anchors, slice(None)))
        object.__setattr__(self, "_last", (None, (), {}))  # see _mapped

    @property
    def arity(self) -> int:
        return self.func.arity

    def _check_map(self, t: Extensor):
        _check_metric(self.metric, t.metric)
        if t.p != self.source_grade or t.q != self.func.input_grade:
            raise ValueError(
                f"expected a ({self.source_grade},{self.func.input_grade}) map, "
                f"got ({t.p},{t.q})"
            )

    def arguments(self, t: Extensor) -> tuple[Multivector, ...]:
        """(t(A^1), ..., t(A^k)), each what t.apply gives; the anchors' grade
        and metric were checked once, in __post_init__ and _check_map."""
        return self._mapped(t)[0]

    def _mapped(self, t: Extensor) -> tuple:
        """(arguments, {step: star gradients}) of the last map this
        functional met, found again by identity: a map is immutable, so the
        same object has the same images, and one map's star tables, exact or
        by one step, share one gradient pass (_star_gradients)."""
        last = self._last
        if last[0] is not t:
            self._check_map(t)
            last = (t, _anchor_images(self.anchors, t), {})
            object.__setattr__(self, "_last", last)
        return last[1:]

    def _star_gradients(self, t: Extensor, step: float | None) -> np.ndarray:
        """The (k, 2^n) slot gradients dF/dX^i at t's images, read-only."""
        images, known = self._mapped(t)
        if step not in known:
            grads = _slot_gradients((self.func,), images, range(self.arity), step=step)[1]
            grads = grads[..., 0, :, :]
            grads.flags.writeable = False
            known[step] = grads
        return known[step]

    def evaluate(self, t: Extensor) -> Multivector:
        """F at t's anchor images; a ValueError off F's declared output grade."""
        return self._checked(self.func(*self.arguments(t)))

    def _checked(self, value: Multivector) -> Multivector:
        """value, a ValueError when it is off F's declared output grade."""
        grade = self.func.output_grade
        if grade is not None and not value.is_homogeneous(grade):
            raise ValueError(f"value is not of the declared output grade {grade}")
        return value

    # -- derivatives ---------------------------------------------------------

    def partial_gradients(self, t: Extensor, step: float | None = None) -> list[Multivector]:
        """Standard derivative of F in each slot, at (t(A^1), ..., t(A^k)).

        `step` selects the oracle as in grad_star; exactly, every slot comes
        from one forward pass of F, the one derivative_table at t and step
        reads (_star_gradients).
        """
        grads = self._star_gradients(t, step)
        return [_trial_rows(self.metric, grads[..., i, :]) for i in range(self.arity)]

    def _anchor_weights(self, directions: np.ndarray) -> np.ndarray:
        """Scalar products d . A^i, shape (..., D, k) for (..., D, 2^n)
        direction rows, a trial axis of either side broadcasting: one
        vecdot, each entry the BLAS dot scalar_value(d, A^i) makes (a matmul
        would reassociate the sums)."""
        weighted = self._anchor_values * _tables(self.metric).weight
        return np.vecdot(directions[..., :, None, :], weighted[..., None, :, :])

    def directional_derivative(
        self, t: Extensor, direction: Multivector, step: float | None = None
    ) -> Multivector:
        """Derivative along a grade-p direction; linear in the direction.
        The one-functional, one-direction case of values_and_derivatives."""
        return _trial_rows(self.metric, _along((self,), t, (direction,), step)[1][..., 0, 0, :])

    def derivative_table(
        self, t: Extensor, kinds: Sequence[str], step: float | None = None
    ) -> dict:
        """Star derivatives for several product kinds, sharing one gradient pass."""
        grads = self._star_gradients(t, step)
        sums = product_sum(self.metric, kinds, self.source_grade, self._anchor_values, grads)
        return {kind: _trial_rows(self.metric, s) for kind, s in zip(kinds, sums)}

    def derivative(
        self, t: Extensor, kind: str = "geometric", step: float | None = None
    ) -> Multivector:
        """Star derivative: curl (wedge), scalar or contracted divergence, or
        gradient (geometric product), in intrinsic anchor-sum form."""
        return self.derivative_table(t, (kind,), step)[kind]

    def derivative_via_frame(self, t: Extensor, kinds: Sequence[str], frame: Frame) -> dict:
        """The star derivatives of derivative_table through the grade-p blade
        frame sum over `frame`, which must live over the functional's metric;
        frame-independent.  One gradient pass serves every kind, and each
        kind's entry is bit for bit the one a call for that kind alone gives."""
        _check_metric(self.metric, frame.metric)
        _trial_count(self._anchor_values, t.matrix, frame.coords)
        primal, recip = frame.blades(self.source_grade)
        grads = self._star_gradients(t, None)
        rows = self._anchor_weights(primal) @ grads  # row J: the derivative along f_J
        sums = product_sum(self.metric, kinds, self.source_grade, recip, rows)
        return {kind: _trial_rows(self.metric, s) for kind, s in zip(kinds, sums)}

    # -- combinators -----------------------------------------------------------

    def _check_shared(self, other: "InducedFunctional"):
        """A ValueError unless `other` shares this functional's anchor tuple
        (equal anchor values over one metric and grade) and variables."""
        if not (self.metric == other.metric and self.source_grade == other.source_grade
                and np.array_equal(self._anchor_values, other._anchor_values)):
            raise ValueError("functionals must share their anchor tuple")
        if (self.arity, self.func.input_grade) != (other.arity, other.func.input_grade):
            raise ValueError("functions take different variables")

    def _derived(self, output_grade: int | None, value: Callable,
                 other: "InducedFunctional | None" = None) -> "InducedFunctional":
        """This functional's anchors and variables with F = value; `other`, if given,
        must share both (equal anchor values over one metric and grade, same variables)."""
        f = self.func
        if other is not None:
            self._check_shared(other)
        return InducedFunctional(MvFunction(f.arity, f.input_grade, output_grade, value),
                                 self.anchors, self.source_grade)

    def scaled(self, factor: float) -> "InducedFunctional":
        f = self.func
        return self._derived(f.output_grade, lambda *xs: factor * f(*xs))

    def times_constant(self, m: Multivector) -> "InducedFunctional":
        """Right geometric multiplication of the value by a fixed multivector."""
        f = self.func
        return self._derived(None, lambda *xs: f(*xs).geometric(m))

    def __add__(self, other: "InducedFunctional") -> "InducedFunctional":
        f, g = self.func, other.func
        grade = f.output_grade if f.output_grade == g.output_grade else None
        return self._derived(grade, lambda *xs: f(*xs) + g(*xs), other)

    def times_functional(self, other: "InducedFunctional") -> "InducedFunctional":
        """Scalar functional times functional, over a shared anchor tuple."""
        if self.func.output_grade != 0:
            raise ValueError("left factor must be scalar-valued")
        f, g = self.func, other.func
        return self._derived(g.output_grade, lambda *xs: g(*xs) * f(*xs).scalar_part(), other)

    def map_scalar(self, fn: Callable) -> "InducedFunctional":
        """Compose a scalar functional with a smooth map: one of extcalc.dual,
        or any fn built from products of its argument, a float, grade-0 jet
        or (B,) array, and floats."""
        if self.func.output_grade != 0:
            raise ValueError("only scalar functionals compose with scalar maps")
        f, metric = self.func, self.metric
        return self._derived(
            0, lambda *xs: Multivector.from_scalar(metric, fn(f(*xs).scalar_part())))


def values_and_derivatives(
    functionals: Sequence[InducedFunctional],
    t: Extensor,
    directions: Sequence[Multivector],
    step: float | None = None,
) -> tuple:
    """(values, derivatives) of r functionals that share their anchor tuple
    and variables (as the functionals of one derivation rule do): values[i]
    is functionals[i]'s value at t and derivatives[i][j] its
    directional_derivative along directions[j], bit for bit what that call
    gives alone.  Exactly, all of them come from one forward pass of each
    function, seeded along the frame blades in one band per direction, and
    one product_sum.  The values are that pass's value rows, checked
    against the declared output grade as evaluate checks: evaluate(t) bit
    for bit for a function built from the products, sums, maps and lifted
    maps of its arguments.  A coefficient the function reads (scalar_part)
    is a grade-0 jet in the pass, so scaling by it goes through the
    geometric product, where a zero may take the other sign, and a lifted
    map of it is math's on each trial where a plain trial stack's is
    numpy's.  By central differences, or when no direction moves any slot,
    the values are evaluate's."""
    outs, grads = _along(functionals, t, directions, step)
    derivatives = [[_trial_rows(t.metric, grads[..., i, j, :]) for j in range(len(directions))]
                   for i in range(len(functionals))]
    if outs is None:
        return [phi.evaluate(t) for phi in functionals], derivatives
    # the arguments' layout: an unstacked functional at an unstacked map
    # gives one value, though a stacked direction makes a stacked pass
    one = _trial_count(functionals[0]._anchor_values, t.matrix) is None
    # grades unknown: a value row may be zero where the tangent rows are not
    values = [Multivector._raw(t.metric, out._values[0, 0] if one and out._values.ndim == 3
                               else out._values) for out in outs]
    return [phi._checked(v) for phi, v in zip(functionals, values)], derivatives


def _along(functionals, t: Extensor, directions, step: float | None) -> tuple:
    """(outs, derivatives) of values_and_derivatives: outs, the function
    results of the exact pass, or None when there is none (a step, or no
    direction moving a slot in any trial: then F is unevaluated); the
    derivatives as one (r, D, 2^n) array, (T, r, D, 2^n) for a trial stack.
    Direction j's weights w_i = directions[j] . A^i make band j of the pass:
    slot i moves by w_i times each frame blade."""
    _check_step(step)
    if not functionals or not directions:
        raise ValueError("need at least one functional and one direction")
    first = functionals[0]
    first._check_map(t)
    for phi in functionals[1:]:
        first._check_shared(phi)
    for d in directions:
        _check_operand(d, first.metric, first.source_grade, "direction")
    trials = _trial_count(first._anchor_values, t.matrix, *(d._values for d in directions))
    weights = first._anchor_weights(_coordinate_rows(directions, slice(None)))
    moved = weights.any(axis=-1)  # (D,), or (T, D) for a trial stack
    outs = None
    if not moved.any():  # zero by linearity, F unevaluated; a stack stays one
        lead = () if trials is None else (trials,)
        grads = np.zeros(lead + (len(functionals), len(directions), first.metric.size))
    else:
        outs, grads = _slot_gradients([phi.func for phi in functionals], first.arguments(t),
                                      range(first.arity), step=step, weights=weights)
        if not moved.all():  # a trial with zero weights has zero derivative
            grads = np.where(moved[..., None, :, None], grads, 0.0)
    return outs, grads


# -- bridge to classical matrix calculus ---------------------------------------


def _check_bridge_shape(phi: InducedFunctional):
    if phi.arity != 1 or phi.source_grade != 1 or phi.func.input_grade != 1:
        raise ValueError("bridge needs a single grade-1 anchor and a (1,1) map")
    if phi.func.output_grade != 0:
        raise ValueError("bridge needs a scalar-valued functional")


def component_partials(
    phi: InducedFunctional, t: Extensor, frame: Frame, step: float | None = None
) -> np.ndarray:
    """d(lifted Phi)/d m[p,q] where m are the frame components of t.

    Entry (p, q) is (anchor . f^p) * (f^q . grad F), with the gradient taken
    at t(anchor); f^q . grad F is the derivative of F along f^q, and
    step=None reads all n of them from one exact forward pass.  A positive
    step instead takes central differences of the lifted real function in
    the components themselves, so it also checks the chain-rule
    factorisation above: all 2n^2 perturbed component matrices map to one
    batched argument, and F is evaluated once.  A trial stack of phi, t or
    the frame gives (T, n, n) partials, trial r bit for bit trial r's own.
    """
    _check_bridge_shape(phi)
    _check_step(step)
    phi._check_map(t)
    _check_metric(phi.metric, frame.metric)
    n = phi.metric.dim
    recip = frame.blades(1)[1]
    a = phi._anchor_weights(recip)[..., 0]  # anchor . f^p, (n,) or (T, n)
    if step is None:
        along = _derivative_rows((phi.func,), phi.arguments(t), (0,), recip)[1][..., 0, 0, :, 0]
        return a[..., :, None] * along[..., None, :]  # np.outer, trial by trial
    bumps = step * np.eye(n * n).reshape(n * n, n, n)
    comps = t.to_components(frame)[..., None, :, :]
    mats = np.concatenate([comps + bumps, comps - bumps], axis=-3)
    # row b of x is sum_j (sum_i m_b[i, j] a[i]) f^j
    rows = (a[..., None, None, :] @ mats)[..., 0, :] @ recip
    x = Multivector._raw(phi.metric, rows)  # a point batch, or a trial stack of them
    lifted = np.broadcast_to(value_of(phi.func(x).scalar_part()), rows.shape[:-1])
    return ((lifted[..., : n * n] - lifted[..., n * n :]) / (2.0 * step)).reshape(
        rows.shape[:-2] + (n, n))


def _check_partials(partials, frame: Frame) -> np.ndarray:
    partials = np.asarray(partials, dtype=float)
    n = frame.metric.dim
    if partials.shape[-2:] != (n, n) or partials.ndim not in (2, 3):
        raise ValueError(
            f"expected shape {(n, n)}, or (T, {n}, {n}) for a trial stack, got {partials.shape}")
    return partials


def directional_from_partials(
    partials: np.ndarray, direction: Multivector, frame: Frame
) -> Multivector:
    """sum_pq (direction . f_p) partials[p,q] f_q; rebuilds the directional
    derivative of the functional the partials came from.  The direction is
    one vector over the frame's metric.  (T, n, n) partials, a trial stack of
    directions or of frames give the trial stack of results."""
    partials = _check_partials(partials, frame)
    _check_operand(direction, frame.metric, 1, "direction")
    vectors = frame.blades(1)[0]
    weighted = _rows(direction) * _tables(frame.metric).weight
    weights = (vectors @ weighted[..., None])[..., None, :, 0]  # direction . f_p, as a row
    return _trial_rows(frame.metric, ((weights @ partials) @ vectors)[..., 0, :])


def star_from_partials(partials: np.ndarray, kind: str, frame: Frame) -> Multivector:
    """sum_pq f_p * (partials[p,q] f_q); rebuilds the star derivative, trial
    by trial for (T, n, n) partials or a trial stack of frames."""
    partials = _check_partials(partials, frame)
    vectors = frame.blades(1)[0]
    rows = partials @ vectors  # row p is sum_q partials[p,q] f_q
    return _trial_rows(frame.metric, product_sum(frame.metric, (kind,), 1, vectors, rows)[0])
