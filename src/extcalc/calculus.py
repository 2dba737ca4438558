"""Derivatives of multivector functions of multivector variables.

Functions of k grade-q variables are differentiated along grade-q
directions by one private kernel, _derivative_rows, which returns the
derivatives of r functions of the same variables along m directions as one
(r, bands, m, 2^n) array.  A band is one move of the arguments: the
(bands, k) `weights` move variable j by weights[c, j] times the direction
in band c.  The default identity weights give one band per
variable, the derivative in that variable alone; one row of weights w gives
the derivative along the combined move (w_1 d, ..., w_k d), which is
sum_j w_j times the derivative in variable j (vector forward mode seeds any
linear combination; Griewank & Walther, Evaluating Derivatives, 2nd ed.,
2008, ch. 3).  Its `step` argument picks the oracle.  step=None is exact: it
seeds every requested variable with its weighted copy of the m directions in
each band of one shared tangent block, evaluates each function once on those
seeded arguments and reads the tangent block of each result, so all bands
cost one forward pass of each function, exact for anything built from the
algebra products, Extensor application and the lifted smooth scalar maps;
the results' value rows are the functions' values, which
extcalc.functional.values_and_derivatives hands back beside the
derivatives.  A positive finite step (_check_step) takes
central finite differences, an independent reference that never seeds a
tangent: per band, it stacks all 2m perturbed points X + step*w*d_r and
X - step*w*d_r of each variable the band moves into one batched argument
(a point batch of 2m rows, see extcalc.algebra) and evaluates each
function once.  So the default bands evaluate it once per variable.

dir_deriv is the kernel's case of one variable and one direction.  The
gradient-style operators assemble the blade frame sum

    sum_J  f^J * (directional derivative along f_J)

over the increasing-mask grade-q blades of a frame (Frame.blades), the
orthonormal one by default (algebra._frame_over); with the geometric
product this is the standard derivative with respect to that variable.
_slot_gradients runs the kernel along the C(n, q) blades f_J in every
requested variable, or in the weighted bands, and contracts the rows with
algebra.product_sum, one array contraction for every function and band
together, into an (r, bands, 2^n) array; grad_star is its case of one
function and one slot.

Every array above may lead with a trial axis: arguments that are trial
stacks, (T, b, k) weights or (T, m, 2^n) directions give (T, r, bands, m,
2^n) rows, the trials of the harness evaluated in one pass.  The
finite-difference points follow the trial axis, (T, 2m, 2^n), so that each trial's batch is
one gemm.  A slot that any trial moves is moved in every trial; a trial
whose weight there is zero takes the unmoved point.  An unstacked call is a
trial stack of one: the function sees each seeded slot as a (1, 1, 2^n)
value with a (1, b*m, 2^n) tangent block, or each moved slot as a
(1, 2m, 2^n) stack of points, and the rows drop the trial axis again.

An MvFunction called again with the argument objects of its last call
returns its last value (MvFunction.__call__), so a derived function that
calls its parents on the seeded arguments, phi + g beside phi and g,
evaluates each of them once in a pass over all three.  This relies on the
evaluator being a pure function of its arguments.  One more reuse point
serves separate passes: the exact branch builds the seeded slots once per
argument objects, slots, direction-rows object, weights bytes and grade
(_seeded), holding its last entry only and comparing its inputs by
identity (a Multivector is immutable).  Its callers are the separate exact
passes of functionals over one anchor tuple at one map (extcalc.functional
shares their anchor images): in a harness verdict, the star tables of
star-fd-coherence's named functionals; every derivation rule makes one
pass per group.  The finite-difference branch builds new points per call,
so it reuses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (Frame, Multivector, _as_stack, _check_operand, _frame_over, _grade_bits,
                      _rows, _trial_count, _trial_rows, product_sum)

DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class MvFunction:
    """A function of `arity` grade-`input_grade` multivector variables.

    The evaluator must be generic over tangent blocks, batches and trial
    stacks: it may only combine its arguments through Multivector
    operations, Extensor application, Outermorphism and the lifted maps in
    extcalc.dual, so that tangents flow through unchanged and a batched or
    stacked argument gives a batch or stack of values, row r from row r of
    the argument.  A derivative pass hands it its seeded or moved slots as
    trial stacks, of one trial for an unstacked call.  A coefficient it
    reads with coeff or scalar_part is a float, a grade-0 jet (a
    multivector, when its argument carries tangents), a (B,) array (for a
    batch) or a (T, P) array (for a trial stack); it may scale
    multivectors by it with `*`, add or subtract floats, pass it to a lifted
    map or wrap it with Multivector.from_scalar.  float() does not take a
    jet; value_of reads its value.  An evaluator that ignores its batched
    argument may return an unbatched value.  Values are homogeneous of grade
    `output_grade`; None for mixed grades, such as a trial stack whose
    trials evaluate functions of different output grades.  The evaluator
    must be a pure function of its arguments, reading no state that
    changes between calls: a call with the argument objects of the last
    call returns the last value without evaluating again.
    """

    arity: int
    input_grade: int
    output_grade: int | None
    evaluator: Callable[..., Multivector]

    _last = None  # (arguments, value) of the last call, see __call__

    def __call__(self, *args: Multivector) -> Multivector:
        """The evaluator's value at args; its last value again when every
        argument is the object of the last call (a Multivector is
        immutable and the evaluator pure, so it would return equal bits)."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        last = self._last
        if last is None or not _same_objects(last[0], args):
            last = (args, self.evaluator(*args))
            object.__setattr__(self, "_last", last)
        return last[1]


def _same_objects(xs: Sequence, ys: Sequence) -> bool:
    """True when xs and ys hold the same objects, entry by entry."""
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def _check_slot(func: MvFunction, args: Sequence[Multivector], var_index: int):
    if len(args) != func.arity:
        raise ValueError(f"expected {func.arity} arguments, got {len(args)}")
    if not 0 <= var_index < func.arity:
        raise ValueError(f"variable index {var_index} out of range")


def _check_step(step: float | None):
    """A finite-difference step is positive and finite; None is exact."""
    if step is not None and not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")


def _derivative_rows(
    funcs: Sequence[MvFunction],
    args: Sequence[Multivector],
    slots: Sequence[int],
    directions: np.ndarray,
    step: float | None = None,
    weights: np.ndarray | None = None,
) -> tuple:
    """(outs, rows): the (r, b, m, 2^n) derivatives of the r functions
    `funcs` of one set of variables along the m rows of the (m, 2^n)
    `directions` value array, each of grade input_grade (the seeded and
    moved slots carry that grade and their argument's), one band per row of
    the (b, k) `weights`: band c moves every variable slots[j] by weights[c,
    j] times the direction.  The default identity weights give one band per
    slot, the derivative in that variable alone.  Exactly, it is one forward
    pass of each function, slot slots[j] seeded with weights[c, j] *
    directions in tangent rows c*m .. (c+1)*m of b*m, and `outs` holds
    each function's result there, its value rows the function's value at
    the arguments; by central differences, one batch of the 2m points x +
    step*w*d and x + -(step*w*d) per band, in the slots its weights move,
    and `outs` is None.  With trial stacks (arguments, (T, b, k) weights or
    (T, m, 2^n) directions) the rows are (T, r, b, m, 2^n); an unstacked
    call runs as a stack of one."""
    _check_step(step)
    metric = args[slots[0]].metric
    m, size = directions.shape[-2], metric.size
    if weights is None:
        weights = np.eye(len(slots))
    stacked = _trial_count(*(a._values for a in args), weights, directions)
    trials = 1 if stacked is None else stacked  # an unstacked call is a trial stack of one
    bands = weights.shape[-2]
    # the moved slots carry their argument's grades and the directions' one,
    # or every grade where a weight of inf or NaN makes NaN of the zeros
    grade = 1 << funcs[0].input_grade if np.isfinite(weights).all() else (2 << metric.dim) - 1
    if step is None:
        seeded = _seeded(args, tuple(slots), directions, weights, grade, trials)
        outs = [func(*seeded) for func in funcs]
        # a function that ignores every seeded slot has no tangent block
        blocks = [np.zeros((trials, bands * m, size)) if out._tangents is None
                  else out._tangents for out in outs]
        rows = blocks[0][:, None] if len(blocks) == 1 else np.stack(blocks, axis=1)
        rows = rows.reshape(trials, len(funcs), bands, m, size)
    else:
        outs, steps = None, step * directions
        rows = np.empty((trials, len(funcs), bands, m, size))
        for c in range(bands):
            batched = list(args)
            for j, i in enumerate(slots):
                w = weights[..., c, j]
                if w.any():
                    x, moves = _as_stack(args[i]._values), w[..., None, None] * steps
                    batched[i] = Multivector._raw(
                        metric, np.concatenate([x + moves, x + -moves], axis=-2),
                        bits=_grade_bits(args[i]) | grade)
            for r, func in enumerate(funcs):
                # an evaluator that ignores the moved slots returns one unbatched value
                out = _broadcast(func(*batched)._values, (trials, 2 * m, size))
                rows[:, r, c] = (out[..., :m, :] - out[..., m:, :]) / (2.0 * step)
    return outs, (rows if stacked is not None else rows[0])


# the last exact pass's seeded arguments and what they were built from, see _seeded
_last_seeded = None


def _seeded(args, slots: tuple, directions: np.ndarray, weights: np.ndarray, grade: int,
            trials: int) -> tuple:
    """The arguments of one exact pass: slot slots[j] seeded with weights[c, j]
    times the directions in tangent rows c*m .. (c+1)*m, the other arguments
    as they are.  The last call's tuple again when the arguments and the
    direction rows are its objects and the slots, the weights' bytes and the
    grade its own, so that functionals over one anchor tuple, differentiated
    at one map along one direction, hand their functions the same objects
    (MvFunction.__call__).  Argument values and direction rows are never
    written to: read-only, or owned by an immutable Multivector."""
    global _last_seeded
    key = (slots, weights.shape, weights.dtype, weights.tobytes(), grade)
    last = _last_seeded
    if last is not None and last[1] is directions and last[2] == key and _same_objects(
            last[0], args):
        return last[3]
    metric = args[slots[0]].metric
    seeded = list(args)
    for j, i in enumerate(slots):
        block = weights[..., j, None, None] * directions[..., None, :, :]
        block = _broadcast(block, (trials,) + block.shape[-3:])
        values = _as_stack(args[i]._values)  # a point batch fails in _raw
        values = _broadcast(values, (trials,) + values.shape[1:])
        block = block.reshape(trials, -1, metric.size)
        seeded[i] = Multivector._raw(metric, values, block, _grade_bits(args[i]) | grade)
    _last_seeded = (tuple(args), directions, key, tuple(seeded))
    return _last_seeded[3]


def _broadcast(x: np.ndarray, shape: tuple) -> np.ndarray:
    """np.broadcast_to(x, shape), which costs microseconds even when x has
    that shape already, and then is x itself."""
    return x if x.shape == shape else np.broadcast_to(x, shape)


def dir_deriv(
    func: MvFunction,
    args: Sequence[Multivector],
    var_index: int,
    direction: Multivector,
    step: float | None = None,
) -> Multivector:
    """Derivative of func at args along `direction` in variable `var_index`.

    Equals d/de func(..., X + e*direction, ...) at e = 0, linear in the
    direction: exact by tangent propagation for step=None, else a central
    difference of `step`.
    """
    _check_slot(func, args, var_index)
    _check_operand(direction, args[var_index].metric, func.input_grade, "direction")
    rows = _derivative_rows((func,), args, (var_index,), _rows(direction)[..., None, :], step)[1]
    return _trial_rows(direction.metric, rows[..., 0, 0, 0, :])


def _slot_gradients(
    funcs: Sequence[MvFunction],
    args: Sequence[Multivector],
    slots: Sequence[int],
    kind: str = "geometric",
    frame: Frame | None = None,
    step: float | None = None,
    weights: np.ndarray | None = None,
) -> tuple:
    """(outs, gradients): the (r, k, 2^n) array of grad_star of each of
    the r functions `funcs` in each of the k `slots`, the frame sums, one
    product_sum for all of them, of the derivatives along the C(n, q) frame
    blades, which come from one _derivative_rows call, and that call's
    function results (None by central differences).  With (b, k)
    `weights`, the b weighted sums sum_j weights[c, j] * grad_star in
    slots[j], (r, b, 2^n), each from one band of that call.  The caller has
    checked the slots."""
    metric = args[slots[0]].metric
    q = funcs[0].input_grade
    primal, recip = _frame_over(metric, frame).blades(q)
    outs, rows = _derivative_rows(funcs, args, slots, primal, step, weights)
    return outs, product_sum(metric, (kind,), q, recip[..., None, None, :, :], rows)[0]


def grad_star(
    func: MvFunction,
    args: Sequence[Multivector],
    var_index: int,
    kind: str = "geometric",
    frame: Frame | None = None,
    step: float | None = None,
) -> Multivector:
    """Blade frame sum of `kind`-products against directional derivatives.

    kind="geometric" gives the standard derivative in variable `var_index`;
    the result does not depend on the choice of frame.  The directional
    derivatives are exact for step=None, else central differences of `step`.
    This is the one-slot case of _slot_gradients.
    """
    _check_slot(func, args, var_index)
    grad = _slot_gradients((func,), args, (var_index,), kind, frame, step)[1][..., 0, 0, :]
    return _trial_rows(args[var_index].metric, grad)
