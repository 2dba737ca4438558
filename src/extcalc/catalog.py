"""Named induced functionals of (1,1) maps.

Each factory realizes a familiar quantity of a linear vector map h as an
InducedFunctional, so that the derivative operators apply to it:

    apply_functional(b)            h -> h(b)
    pair_product_functional        h -> h(b) * h(c)   (scalar or wedge product)
    blade_image_functional         h -> extension of h on a1 ^ ... ^ ak
    adjoint_image_functional(b)    h -> adjoint(h)(b)
    trace_functional               h -> trace of h
    bivector_functional            h -> bivector of h
    pseudoscalar_image_functional  h -> extension of h on a fixed pseudoscalar
    det_functional                 h -> det of h

The frame-based realizations (adjoint, trace, bivector, pseudoscalar, det)
expand the quantity over a frame and its reciprocal -- adjoint(h)(b) as
sum_j (b . h(f^j)) f_j, the trace as sum_j t(f^j) . f_j, and so on -- which
turns each into a functional with n grade-1 anchors.  Any frame over the
functional's metric works; the derivative identities the harness checks are
frame-independent.  A factory's vector or pseudoscalar is a fixed operand in
the sense of extcalc.algebra, as the anchors are.  Trial stacks of vectors,
pseudoscalars and frames give the trial stack of functionals, one per trial.
"""

from __future__ import annotations

from .algebra import (
    Frame,
    Metric,
    Multivector,
    _check_operand,
    _frame_over,
    _trial_rows,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from .calculus import MvFunction
from .functional import InducedFunctional


def apply_functional(b: Multivector) -> InducedFunctional:
    """h -> h(b) for a fixed vector b."""
    return InducedFunctional(MvFunction(1, 1, 1, lambda x: x), (b,), 1)


def pair_product_functional(kind: str, b: Multivector, c: Multivector) -> InducedFunctional:
    """h -> h(b) * h(c) under the given product kind."""
    grades = {"scalar": 0, "wedge": 2, "lcontract": 0, "geometric": None}
    if kind not in grades:
        raise ValueError(f"unknown product kind {kind!r}")
    return InducedFunctional(
        MvFunction(2, 1, grades[kind], lambda x, y: x._product(kind, y)), (b, c), 1
    )


def blade_image_functional(vectors) -> InducedFunctional:
    """h -> h(a1) ^ ... ^ h(ak) for fixed vectors a1, ..., ak."""
    vectors = tuple(vectors)
    if not vectors:
        raise ValueError("need at least one vector")
    metric = vectors[0].metric
    k = len(vectors)
    return InducedFunctional(
        MvFunction(k, 1, k, lambda *xs: wedge_all(metric, xs)), vectors, 1
    )


def _frame_sum(metric: Metric, frame: Frame | None, output_grade: int, term) -> InducedFunctional:
    """t -> sum_j term(t(f^j), f_j) over a frame (default orthonormal), the
    reciprocal vectors f^j its n anchors."""
    frame = _frame_over(metric, frame)
    vectors = frame.vectors

    def evaluator(*xs):
        total = Multivector.zero(metric)
        for x, f in zip(xs, vectors):
            total = total + term(x, f)
        return total

    return InducedFunctional(
        MvFunction(metric.dim, 1, output_grade, evaluator), frame.reciprocal, 1
    )


def adjoint_image_functional(b: Multivector, frame: Frame | None = None) -> InducedFunctional:
    """h -> adjoint(h)(b), expanded as sum_j (b . h(f^j)) f_j over a frame."""
    _check_operand(b, b.metric, 1, "b")
    return _frame_sum(b.metric, frame, 1, lambda x, f: f * b.scalar_product(x).scalar_part())


def trace_functional(metric: Metric, frame: Frame | None = None) -> InducedFunctional:
    """t -> sum_j t(f^j) . f_j."""
    return _frame_sum(metric, frame, 0, Multivector.scalar_product)


def bivector_functional(metric: Metric, frame: Frame | None = None) -> InducedFunctional:
    """t -> sum_j t(f^j) ^ f_j."""
    return _frame_sum(metric, frame, 2, Multivector.wedge)


def pseudoscalar_image_functional(
    pss: Multivector, frame: Frame | None = None
) -> InducedFunctional:
    """h -> extension of h applied to the fixed pseudoscalar `pss`.

    Expands pss over the reciprocal frame blade: with scale = pss . (f_1 ^
    ... ^ f_n) the value is scale * h(f^1) ^ ... ^ h(f^n).
    """
    metric = pss.metric
    _check_operand(pss, metric, metric.dim, "pss")
    frame = _frame_over(metric, frame)
    top = frame._blades(0, metric.dim)[..., 0, :]  # f_1 ^ ... ^ f_n, per trial
    scale = scalar_value(pss, _trial_rows(metric, top))
    return blade_image_functional(frame.reciprocal).scaled(scale)


def det_functional(metric: Metric, frame: Frame | None = None) -> InducedFunctional:
    """h -> det of h, as the top-blade coefficient of the image of the unit
    pseudoscalar."""
    shape = pseudoscalar_image_functional(unit_pseudoscalar(metric), frame)
    f, top = shape.func, metric.size - 1
    return shape._derived(0, lambda *xs: Multivector.from_scalar(metric, f(*xs).coeff(top)))
