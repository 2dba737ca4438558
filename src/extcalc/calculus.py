"""Derivatives of multivector functions of multivector variables.

A function of k grade-q variables is differentiated along grade-q directions
by one private kernel, _derivative_rows, which returns the derivatives along
m directions in each of several variables as one (slots, m, 2^n) array.  Its
`step` argument picks the oracle.  step=None is exact: it seeds every
requested variable with its own band of m rows in one shared tangent block
(zero rows elsewhere) and reads the tangent block of the result, so all
slots cost one forward pass of the function, exact for anything built from
the algebra products, Extensor application and the lifted smooth scalar
maps.  A positive step takes central finite differences, an independent
reference that never seeds a tangent: per variable, it stacks all 2m
perturbed points X + step*d_r and X - step*d_r into one batched argument (a
(2m, 2^n) value array, see extcalc.algebra) and evaluates the function once.
One batch over all slots would make every product two-batched, the slow
row-by-row kernel.

dir_deriv is the kernel's case of one variable and one direction.  The
gradient-style operators assemble the blade frame sum

    sum_J  f^J * (directional derivative along f_J)

over the increasing-mask grade-q blades of a frame (Frame.blades); with the
geometric product this is the standard derivative with respect to that
variable.  _slot_gradients runs the kernel along the C(n, q) blades f_J in
every requested variable and contracts the rows with algebra.product_sum,
one array contraction for every slot together, into a (slots, 2^n) array;
grad_star is its one-slot case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import Frame, Multivector, product_sum

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


def _derivative_rows(
    func: MvFunction,
    args: Sequence[Multivector],
    slots: Sequence[int],
    directions: np.ndarray,
    step: float | None = None,
) -> np.ndarray:
    """(k, m, 2^n) derivatives of func along the m rows of the (m, 2^n)
    `directions` value array, in each of the k variables `slots`: exactly in
    one forward pass (slot slots[j] seeded with directions in tangent rows
    j*m .. (j+1)*m of k*m), or by a batch of the 2m points x + step*d and
    x + -(step*d) per slot."""
    metric = args[slots[0]].metric
    k, m = len(slots), len(directions)
    if step is None:
        seeded = list(args)
        for j, i in enumerate(slots):
            block = np.zeros((k * m, metric.size))
            block[j * m : (j + 1) * m] = directions
            seeded[i] = Multivector._raw(metric, args[i]._values, block)
        block = func(*seeded)._tangents
        if block is None:  # func ignores every seeded slot
            return np.zeros((k, m, metric.size))
        return block.reshape(k, m, metric.size)
    if not step > 0:
        raise ValueError("step must be positive")
    steps = step * directions
    rows = []
    for i in slots:
        x = args[i]._values
        batched = list(args)
        batched[i] = Multivector._raw(metric, np.concatenate([x + steps, x + -steps]))
        # an evaluator that ignores the slot returns one unbatched value
        out = np.broadcast_to(func(*batched)._values, (2 * m, metric.size))
        rows.append((out[:m] - out[m:]) * (0.5 / step))
    return np.stack(rows)


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
    args[var_index]._check_metric(direction)
    if direction._values.ndim != 1 or not direction.is_homogeneous(func.input_grade):
        raise ValueError(f"direction must be one multivector of grade {func.input_grade}")
    rows = _derivative_rows(func, args, (var_index,), direction._values[None], step)
    return Multivector._raw(direction.metric, rows[0, 0])


def _slot_gradients(
    func: MvFunction,
    args: Sequence[Multivector],
    slots: Sequence[int],
    kind: str = "geometric",
    frame: Frame | None = None,
    step: float | None = None,
) -> np.ndarray:
    """(k, 2^n) array of grad_star in each of the k `slots`: the frame sum,
    one product_sum, of the derivatives along the C(n, q) frame blades, which
    come from one _derivative_rows call."""
    for i in slots:
        _check_slot(func, args, i)
    metric = args[slots[0]].metric
    if frame is None:
        frame = Frame.orthonormal(metric)
    q = func.input_grade
    primal, recip = frame.blades(q)
    return product_sum(metric, kind, q, recip, _derivative_rows(func, args, slots, primal, step))


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
    grad = _slot_gradients(func, args, (var_index,), kind, frame, step)[0]
    return Multivector._raw(args[var_index].metric, grad)
