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
takes central finite differences (fd_dir_deriv), an independent reference
that never seeds a tangent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import Frame, Multivector, product

DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class MvFunction:
    """A function of `arity` grade-`input_grade` multivector variables.

    The evaluator must be generic over tangent blocks: it may only combine its
    arguments through Multivector operations, Extensor application and the
    lifted maps in extcalc.dual, so that tangents flow through unchanged.
    Values are homogeneous of grade `output_grade` (None for mixed grades).
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


def fd_dir_deriv(
    func: MvFunction,
    args: Sequence[Multivector],
    var_index: int,
    direction: Multivector,
    step: float = DEFAULT_FD_STEP,
) -> Multivector:
    """Central-difference counterpart of dir_deriv (independent oracle)."""
    if not step > 0:
        raise ValueError("step must be positive")
    _check_slot(func, args, var_index)
    _check_direction(func, direction)
    plus = list(args)
    minus = list(args)
    plus[var_index] = args[var_index] + step * direction
    minus[var_index] = args[var_index] - step * direction
    return (func(*plus) - func(*minus)) * (0.5 / step)


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
    """
    _check_slot(func, args, var_index)
    metric = args[var_index].metric
    if frame is None:
        frame = Frame.orthonormal(metric)
    pairs = frame.blade_pairs(func.input_grade)
    primals = [primal for primal, _ in pairs]
    if step is None:
        seeded = list(args)
        seeded[var_index] = args[var_index].with_tangents(primals)
        out = func(*seeded)
        derivatives = [out.tangent_part(row) for row in range(len(primals))]
    else:
        derivatives = [fd_dir_deriv(func, args, var_index, d, step) for d in primals]
    total = Multivector.zero(metric)
    for (_, recip), derivative in zip(pairs, derivatives):
        total = total + product(kind, recip, derivative)
    return total
