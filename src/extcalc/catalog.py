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
turns each into a functional with n grade-1 anchors.  Any frame works; the
derivative identities the harness checks are frame-independent.
"""

from __future__ import annotations

from .algebra import (
    Frame,
    Metric,
    Multivector,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from .calculus import MvFunction
from .functional import InducedFunctional


def apply_functional(b: Multivector) -> InducedFunctional:
    """h -> h(b) for a fixed vector b."""
    if not b.is_homogeneous(1):
        raise ValueError("b must be a vector")
    return InducedFunctional(MvFunction(1, 1, 1, lambda x: x), (b,), 1)


def pair_product_functional(kind: str, b: Multivector, c: Multivector) -> InducedFunctional:
    """h -> h(b) * h(c) under the given product kind."""
    if not (b.is_homogeneous(1) and c.is_homogeneous(1)):
        raise ValueError("b and c must be vectors")
    out_grade = {"scalar": 0, "wedge": 2, "lcontract": 0, "geometric": None}[kind]
    return InducedFunctional(
        MvFunction(2, 1, out_grade, lambda x, y: x._product(kind, y)), (b, c), 1
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


def adjoint_image_functional(b: Multivector, frame: Frame | None = None) -> InducedFunctional:
    """h -> adjoint(h)(b), expanded as sum_j (b . h(f^j)) f_j over a frame."""
    if not b.is_homogeneous(1):
        raise ValueError("b must be a vector")
    metric = b.metric
    if frame is None:
        frame = Frame.orthonormal(metric)
    vectors = frame.vectors

    def evaluator(*xs):
        total = Multivector.zero(metric)
        for x, f in zip(xs, vectors):
            total = total + f * b.scalar_product(x).scalar_part()
        return total

    return InducedFunctional(
        MvFunction(metric.dim, 1, 1, evaluator), frame.reciprocal, 1
    )


def trace_functional(metric: Metric, frame: Frame | None = None) -> InducedFunctional:
    """t -> sum_j t(f^j) . f_j."""
    if frame is None:
        frame = Frame.orthonormal(metric)
    vectors = frame.vectors

    def evaluator(*xs):
        total = Multivector.zero(metric)
        for x, f in zip(xs, vectors):
            total = total + x.scalar_product(f)
        return total

    return InducedFunctional(
        MvFunction(metric.dim, 1, 0, evaluator), frame.reciprocal, 1
    )


def bivector_functional(metric: Metric, frame: Frame | None = None) -> InducedFunctional:
    """t -> sum_j t(f^j) ^ f_j."""
    if frame is None:
        frame = Frame.orthonormal(metric)
    vectors = frame.vectors

    def evaluator(*xs):
        total = Multivector.zero(metric)
        for x, f in zip(xs, vectors):
            total = total + x.wedge(f)
        return total

    return InducedFunctional(
        MvFunction(metric.dim, 1, 2, evaluator), frame.reciprocal, 1
    )


def pseudoscalar_image_functional(
    pss: Multivector, frame: Frame | None = None
) -> InducedFunctional:
    """h -> extension of h applied to the fixed pseudoscalar `pss`.

    Expands pss over the reciprocal frame blade: with scale = pss . (f_1 ^
    ... ^ f_n) the value is scale * h(f^1) ^ ... ^ h(f^n).
    """
    metric = pss.metric
    if not pss.is_homogeneous(metric.dim):
        raise ValueError("pss must be a pseudoscalar")
    if frame is None:
        frame = Frame.orthonormal(metric)
    scale = scalar_value(pss, frame.blade(metric.size - 1))
    return blade_image_functional(frame.reciprocal).scaled(scale)


def det_functional(metric: Metric, frame: Frame | None = None) -> InducedFunctional:
    """h -> det of h, as the top-blade coefficient of the image of the unit
    pseudoscalar."""
    if frame is None:
        frame = Frame.orthonormal(metric)
    shape = pseudoscalar_image_functional(unit_pseudoscalar(metric), frame)
    f = shape.func
    top = metric.size - 1

    def evaluator(*xs):
        return Multivector.from_scalar(metric, f(*xs).coeff(top))

    return InducedFunctional(
        MvFunction(f.arity, 1, 0, evaluator), shape.anchors, 1
    )
