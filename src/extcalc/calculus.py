"""Derivatives of multivector functions of multivector variables.

A function of k grade-q variables is differentiated along a grade-q direction
by seeding a tangent block on the chosen variable and reading the tangent part
of the result: exact for anything built from the algebra products, Extensor
application and the lifted smooth scalar maps.  The gradient-style operators
assemble the blade frame sum

    sum_J  f^J * (directional derivative along f_J)

over the increasing-mask grade-q blades of a frame; with the geometric product
this is the standard derivative with respect to that variable.  A `step`
argument picks the per-blade oracle: step=None is exact and seeds all C(n, q)
blade directions in one forward pass, one tangent row each; a positive step
takes central finite differences, an independent reference that never seeds a
tangent.  The finite-difference oracle stacks all 2m perturbed points
X + step*d_r and X - step*d_r of its m directions into one batched argument
(a (2m, 2^n) value array, see extcalc.algebra) and evaluates the function
once; fd_dir_deriv is its m = 1 case.

_slot_gradients does the same for several variables at once, and grad_star
is its one-slot case.  Exactly, one forward pass seeds every requested slot
with its own band of C(n, q) rows in a shared tangent block (zero rows
elsewhere), so k slots cost one evaluation of the function instead of k.  By
finite differences each slot keeps its own batched evaluation: one batch over
all slots would make every product two-batched, the slow row-by-row kernel.
The frame sum over the C(n, q) derivative rows is one array contraction,
Frame.blade_sum, for every slot together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import Frame, Multivector

DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class MvFunction:
    """A function of `arity` grade-`input_grade` multivector variables.

    The evaluator must be generic over tangent blocks and over batches: it
    may only combine its arguments through Multivector operations, Extensor
    application, Outermorphism and the lifted maps in extcalc.dual, so that
    tangents flow through unchanged and a batched argument gives a batch of
    values, row r from row r of the argument.  A coefficient it reads with
    coeff or scalar_part is a float, a grade-0 jet (a multivector, when its
    argument carries tangents) or a (B,) array (for a batch); it may scale
    multivectors by it with `*`, add or subtract floats, pass it to a lifted
    map or wrap it with Multivector.from_scalar.  float() does not take a
    jet; value_of reads its value.  An evaluator that ignores its batched
    argument may return an unbatched value.  Values are homogeneous of grade
    `output_grade` (None for mixed grades).
    """

    arity: int
    input_grade: int
    output_grade: int | None
    evaluator: Callable[..., Multivector]

    def __call__(self, *args: Multivector) -> Multivector:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        return self.evaluator(*args)


def _check_slot(func: MvFunction, args: Sequence[Multivector], var_index: int):
    if len(args) != func.arity:
        raise ValueError(f"expected {func.arity} arguments, got {len(args)}")
    if not 0 <= var_index < func.arity:
        raise ValueError(f"variable index {var_index} out of range")


def _check_direction(func: MvFunction, direction: Multivector):
    if not direction.is_homogeneous(func.input_grade):
        raise ValueError(f"direction must be homogeneous of grade {func.input_grade}")


def dir_deriv(
    func: MvFunction,
    args: Sequence[Multivector],
    var_index: int,
    direction: Multivector,
) -> Multivector:
    """Derivative of func at args along `direction` in variable `var_index`.

    Equals d/de func(..., X + e*direction, ...) at e = 0, computed exactly by
    tangent propagation; linear in the direction.
    """
    _check_slot(func, args, var_index)
    _check_direction(func, direction)
    seeded = list(args)
    seeded[var_index] = args[var_index].with_tangent(direction)
    return func(*seeded).tangent_part()


def _fd_block(
    func: MvFunction,
    args: Sequence[Multivector],
    var_index: int,
    directions: Sequence[Multivector],
    step: float,
) -> np.ndarray:
    """(m, 2^n) central differences of func along m directions in one slot.

    The 2m points x + step*d and x + -(step*d) go through func as one batch.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    x = args[var_index]
    steps = step * np.stack([d.values() for d in directions])
    batched = list(args)
    batched[var_index] = Multivector(
        x.metric, np.concatenate([x.values() + steps, x.values() + -steps])
    )
    m = len(directions)
    # an evaluator that ignores the slot returns one unbatched value
    out = np.broadcast_to(func(*batched).values(), (2 * m, x.metric.size))
    return (out[:m] - out[m:]) * (0.5 / step)


def fd_dir_deriv(
    func: MvFunction,
    args: Sequence[Multivector],
    var_index: int,
    direction: Multivector,
    step: float = DEFAULT_FD_STEP,
) -> Multivector:
    """Central-difference counterpart of dir_deriv (independent oracle)."""
    _check_slot(func, args, var_index)
    _check_direction(func, direction)
    block = _fd_block(func, args, var_index, (direction,), step)
    return Multivector(args[var_index].metric, block[0])


def _slot_gradients(
    func: MvFunction,
    args: Sequence[Multivector],
    slots: Sequence[int],
    kind: str = "geometric",
    frame: Frame | None = None,
    step: float | None = None,
) -> list[Multivector]:
    """grad_star in each of `slots`, from one evaluation of func when exact.

    step=None seeds slot slots[j] with a block of len(slots) * m tangent
    rows, m = C(n, q): rows j*m .. (j+1)*m hold the blade directions f_J and
    the others are zero, so one forward pass carries every slot's
    directional derivatives.  A step takes one batched central difference
    per slot.  Either way the frame sum is one Frame.blade_sum contraction.
    """
    for i in slots:
        _check_slot(func, args, i)
    if not slots:
        return []
    metric = args[slots[0]].metric
    if frame is None:
        frame = Frame.orthonormal(metric)
    q = func.input_grade
    primals = [primal for primal, _ in frame.blade_pairs(q)]
    k, m = len(slots), len(primals)
    if step is None:
        zero = Multivector.zero(metric)
        seeded = list(args)
        for j, i in enumerate(slots):
            rows = [zero] * (j * m) + primals + [zero] * ((k - 1 - j) * m)
            seeded[i] = args[i].with_tangents(rows)
        block = func(*seeded)._tangents
        if block is None:  # func ignores every seeded slot
            block = np.zeros((k * m, metric.size))
        derivatives = block.reshape(k, m, metric.size)
    else:
        derivatives = np.stack([_fd_block(func, args, i, primals, step) for i in slots])
    return [Multivector(metric, g) for g in frame.blade_sum(q, kind, derivatives)]


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
    return _slot_gradients(func, args, (var_index,), kind, frame, step)[0]
