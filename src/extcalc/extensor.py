"""Linear maps between grade spaces: application, adjoint, outermorphism,
trace, bivector, determinant, inverse and composition.

An Extensor(p, q) sends grade-p multivectors to grade-q multivectors and is
stored as a C(n,q) x C(n,p) matrix over the increasing-mask blade bases.  The
grade-preserving extension of a (1,1) map (scalars fixed, wedges of vectors to
wedges of images) is provided by Outermorphism: on grade k it is the k-th
compound matrix, the C(n,k) x C(n,k) matrix of the map's k x k minors, which
does not depend on the metric.  extcalc.algebra builds it from the lower
compounds by Laplace expansion, and builds the frame blades from the same
minors; Outermorphism applies it as it comes, without an Extensor around
it.  The determinant is the matrix determinant, and the
inverse is an LU solve behind a conditioning guard.  The trace and the
bivector are computed in closed form, not as the frame sums that define
them, so the harness identities they are right-hand sides of do not go
through the product kernel under test.  The paper's pseudoscalar identity

    inverse(a) = det^-1 * adjoint_extension(a I) I^-1

is checked by the tests, not used to compute.

A trial stack of T maps holds a (T, C(n,q), C(n,p)) matrix; it applies to
a trial stack trial by trial, or to one multivector in every trial, and its
adjoint, compounds, trace, bivector, determinant and inverse are taken trial
by trial, each with the BLAS or LAPACK call one map makes.  Its scalars, det
and trace, are (T, 1) arrays, as a trial stack's coefficients are.
Application has one route, as the products do (see extcalc.algebra): every
operand row enters it as a trial stack, and one map gives back the operand's
own layout.  The random maps are 2u - 1 and u + (I - 1/2) of
u = rng.random(shape), bit for bit the rng.uniform(-1, 1) formulas, and are
taken as made (Extensor._raw).  _invertible_matrices draws any number of
invertible matrices at once, redrawing only the rows below the determinant
bound; random_invertible is its draw of one, and the harness draws all its
trials' maps in one call and makes a group's rows one trial stack.
"""

from __future__ import annotations

from math import comb

import numpy as np
# np.linalg.det's own gufunc, without the wrapper's checks (about 3 us of 5 per
# small float matrix): the same LAPACK LU, so the same bits
from numpy.linalg._umath_linalg import det as _det

from .algebra import (MAX_DIM, Frame, Metric, Multivector, _as_rng, _as_stack, _certified_inverse,
                      _check_grade, _check_metric, _check_operand, _compound, _coordinate_rows,
                      _tables, _trial_count, _trial_rows, _uniform)
from .errors import SingularExtensorError

SINGULARITY_SCALE = 1e-9  # sigma_min <= SINGULARITY_SCALE * sigma_max means singular
INVERTIBLE_MIN_DET = 0.1  # random_invertible's least |det|
_SHIFTS = {n: np.eye(n) - 0.5 for n in range(2, MAX_DIM + 1)}  # its I - 1/2, read-only
for _shift in _SHIFTS.values():
    _shift.setflags(write=False)


class Extensor:
    """Immutable linear map from grade-p space to grade-q space, or a trial
    stack of them."""

    __slots__ = ("metric", "p", "q", "matrix")

    def __init__(self, metric: Metric, matrix, p: int = 1, q: int = 1):
        n = metric.dim
        _check_grade(n, p, q)
        matrix = np.array(matrix, dtype=float)
        shape = (comb(n, q), comb(n, p))
        if matrix.shape[-2:] != shape or matrix.ndim not in (2, 3):
            raise ValueError(f"expected matrix shape {shape}, got {matrix.shape}")
        _fill(self, metric, matrix, p, q)

    @classmethod
    def _raw(cls, metric: Metric, matrix: np.ndarray, p: int = 1, q: int = 1) -> "Extensor":
        """Internal constructor for a matrix this module made: no copy, no check."""
        return _fill(object.__new__(cls), metric, matrix, p, q)

    def __setattr__(self, name, value):
        raise AttributeError("Extensor is immutable")

    def __repr__(self):
        return f"Extensor(p={self.p}, q={self.q}, dim={self.metric.dim})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, metric: Metric, p: int = 1) -> "Extensor":
        return cls(metric, np.eye(comb(metric.dim, p)), p, p)

    @classmethod
    def zero(cls, metric: Metric, p: int = 1, q: int = 1) -> "Extensor":
        return cls(metric, np.zeros((comb(metric.dim, q), comb(metric.dim, p))), p, q)

    @classmethod
    def scaling(cls, metric: Metric, factors) -> "Extensor":
        """(1,1) map sending each generator e_k to factors[k] * e_k."""
        return cls(metric, np.diag(np.array(factors, dtype=float)))

    @classmethod
    def from_vector_images(cls, metric: Metric, images) -> "Extensor":
        """(1,1) map defined by the images of the generators, one image per
        generator (trial stacks of images give a trial stack of maps)."""
        images = list(images)
        if len(images) != metric.dim:
            raise ValueError(f"expected {metric.dim} images, one per generator, got {len(images)}")
        for v in images:
            _check_operand(v, metric, 1, "image")
        return cls(metric, np.swapaxes(_coordinate_rows(images, _tables(metric).blades[1]), -1, -2))

    @classmethod
    def random(cls, metric: Metric, rng, p: int = 1, q: int = 1) -> "Extensor":
        n = metric.dim
        _check_grade(n, p, q)  # before any draw: a rejected call draws nothing
        return cls._raw(metric, _uniform(_as_rng(rng).random((comb(n, q), comb(n, p)))), p, q)

    @classmethod
    def random_invertible(cls, metric: Metric, rng) -> "Extensor":
        """I + uniform(-1, 1) / 2, redrawn while |det| < INVERTIBLE_MIN_DET
        (_invertible_matrices of one map)."""
        return cls._raw(metric, _invertible_matrices(metric.dim, _as_rng(rng), 1)[0])

    # -- application and composition ----------------------------------------

    def apply(self, x: Multivector) -> Multivector:
        _check_metric(self.metric, x.metric)
        if not x.is_homogeneous(self.p):
            raise ValueError(f"argument must be homogeneous of grade {self.p}")
        return _apply_matrix(self.metric, self.matrix, self.p, self.q, x)

    __call__ = apply

    def compose(self, inner: "Extensor") -> "Extensor":
        """self after inner; inner's target grade must match self's source."""
        _check_metric(self.metric, inner.metric)
        if inner.q != self.p:
            raise ValueError(f"grade mismatch: inner maps to {inner.q}, self expects {self.p}")
        return Extensor(self.metric, self.matrix @ inner.matrix, inner.p, self.q)

    def __matmul__(self, inner):
        if not isinstance(inner, Extensor):
            return NotImplemented
        return self.compose(inner)

    # -- adjoint -------------------------------------------------------------

    def adjoint(self) -> "Extensor":
        """The (q,p) map with  adjoint(Y) . X  =  Y . self(X)."""
        tables = _tables(self.metric)
        wp = tables.weight[tables.blades[self.p]]
        wq = tables.weight[tables.blades[self.q]]
        # scalar products of basis blades are diagonal with these weights
        matrix = np.swapaxes(self.matrix * wq[:, None], -1, -2) / wp[:, None]
        return Extensor(self.metric, matrix, self.q, self.p)

    # -- (1,1)-only operations ------------------------------------------------

    def _require_vector_map(self, what: str):
        if self.p != 1 or self.q != 1:
            raise ValueError(f"{what} is defined for (1,1) maps only")

    def trace(self):
        """Sum of self(f^j) . f_j over any frame: the matrix trace."""
        self._require_vector_map("trace")
        return _map_scalar(np.trace(self.matrix, axis1=-2, axis2=-1))

    def bivector(self) -> Multivector:
        """Sum of self(f^j) ^ f_j over any frame; on the coordinate frame,
        f^j = e_j / g_j, that is sum_{a<b} (M_ab / g_b - M_ba / g_a) e_a ^ e_b."""
        self._require_vector_map("bivector")
        scaled = self.matrix / np.array(self.metric.diag)  # M_ab / g_b
        a, b = np.triu_indices(self.metric.dim, 1)
        values = np.zeros(scaled.shape[:-2] + (self.metric.size,))
        values[..., (1 << a) | (1 << b)] = scaled[..., a, b] - scaled[..., b, a]
        return _trial_rows(self.metric, values)

    def det(self):
        """Scale factor of the extension on the pseudoscalar: the matrix determinant."""
        self._require_vector_map("det")
        return _map_scalar(np.linalg.det(self.matrix))

    def inverse(self) -> "Extensor":
        """Matrix inverse (LU with partial pivoting) of a well-conditioned map."""
        self._require_vector_map("inverse")
        if not np.isfinite(self.matrix).all():
            raise SingularExtensorError("a map with a NaN or inf entry has no inverse")
        # conditioning, not det size: a scaled copy of an invertible map inverts too
        inverse = _certified_inverse(self.matrix, SINGULARITY_SCALE)
        if inverse is None:
            sv = np.linalg.svd(self.matrix, compute_uv=False).reshape(-1, self.metric.dim)
            singular = ~(sv[:, -1] > SINGULARITY_SCALE * sv[:, 0])
            if singular.any():  # the first singular trial of a stack
                low, high = sv[np.argmax(singular)][[-1, 0]]
                raise SingularExtensorError(f"singular values {low:g} .. {high:g}: singular")
            inverse = np.linalg.inv(self.matrix)
        return Extensor(self.metric, inverse)

    # -- matrix components over a frame ---------------------------------------

    def to_components(self, frame: Frame) -> np.ndarray:
        """Covariant components m[i, j] = self(f_i) . f_j, as (H P)^T diag(w) P;
        the frame must live over the map's metric."""
        self._require_vector_map("to_components")
        _check_metric(self.metric, frame.metric)
        tables = _tables(self.metric)
        primal = np.swapaxes(frame.coords, -1, -2)
        image = np.swapaxes(self.matrix @ primal, -1, -2)
        return image @ (primal * tables.weight[tables.blades[1]][:, None])

    @classmethod
    def from_components(cls, metric: Metric, components, frame: Frame) -> "Extensor":
        """Inverse of to_components: the map with self(f_i) = sum_j m[i,j] f^j,
        for a frame over `metric`."""
        _check_metric(metric, frame.metric)
        n = metric.dim
        components = np.array(components, dtype=float)
        if components.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {components.shape}")
        recip, primal = (np.swapaxes(rows, -1, -2) for rows in (frame.recip, frame.coords))
        matrix = recip @ components.T @ np.linalg.inv(primal)
        return cls(metric, matrix)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Self-describing record: (n, p, q, metric diag) header + row-major matrix."""
        if self.matrix.ndim != 2:
            raise ValueError("a trial stack of maps has no single record")
        return {
            "n": self.metric.dim,
            "p": self.p,
            "q": self.q,
            "metric": list(self.metric.diag),
            "matrix": [float(v) for v in self.matrix.ravel()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Extensor":
        """The map of a to_dict record; ValueError names a missing key."""
        missing = [key for key in ("n", "p", "q", "metric", "matrix") if key not in payload]
        if missing:
            raise ValueError(f"map record lacks {', '.join(missing)}")
        metric = Metric(int(payload["n"]), payload["metric"])  # Metric checks the entries
        p, q = int(payload["p"]), int(payload["q"])
        _check_grade(metric.dim, p, q)  # before the shape is read
        shape = (comb(metric.dim, q), comb(metric.dim, p))
        matrix = np.array(payload["matrix"], dtype=float).reshape(shape)
        return cls(metric, matrix, p, q)


# slot setters that bypass Extensor.__setattr__, which refuses all writes
_set_metric, _set_p, _set_q, _set_matrix = (getattr(Extensor, name).__set__
                                            for name in Extensor.__slots__)


def _map_scalar(s):
    """A map's scalar: a float, or a trial stack's (T,) as (T, 1), as its coefficients are."""
    return float(s) if s.ndim == 0 else s[:, None]


def _invertible_matrices(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """count of random_invertible's n x n matrices, (count, n, n): u + (I - 1/2)
    for u = rng.random, drawn in one call; the rows whose |det| <
    INVERTIBLE_MIN_DET are redrawn together, in one call per round, until
    none is left.  u - 1/2 is exact (algebra._uniform)."""
    shift = _SHIFTS[n]
    matrices = rng.random((count, n, n)) + shift
    redrawn = np.flatnonzero(np.abs(_det(matrices)) < INVERTIBLE_MIN_DET)
    while redrawn.size:
        matrices[redrawn] = rng.random((redrawn.size, n, n)) + shift
        redrawn = redrawn[np.abs(_det(matrices[redrawn])) < INVERTIBLE_MIN_DET]
    return matrices


def _fill(t: Extensor, metric: Metric, matrix: np.ndarray, p: int, q: int) -> Extensor:
    matrix.setflags(write=False)
    _set_metric(t, metric)
    _set_p(t, p)
    _set_q(t, q)
    _set_matrix(t, matrix)
    return t


def _apply_matrix(metric: Metric, matrix: np.ndarray, p: int, q: int, x: Multivector):
    """Image of a grade-p x under the C(n,q) x C(n,p) matrix, which the
    caller has checked x against: one formula for the value, each batch row
    and each tangent row, each a trial stack (of one, unstacked); a
    (T, C(n,q), C(n,p)) matrix or a trial stack x gives the trial stack of
    images, which carry grade q."""
    if matrix.ndim == x._values.ndim == 3 and len(matrix) != len(x._values):
        _trial_count(matrix, x._values)  # fails unless one is a stack of one
    tables = _tables(metric)
    src, dst = tables.blades[p], tables.blades[q]

    def image(rows):
        # rows[..., src] @ matrix.T per trial, the source coefficients taken
        # along the first axis of the transposed rows, as BLAS reads them
        lhs = np.swapaxes(np.take(np.swapaxes(_as_stack(rows), -1, -2), src, axis=-2), -1, -2)
        images = lhs @ np.swapaxes(matrix, -1, -2)
        out = np.zeros(images.shape[:-1] + (metric.size,))
        out[..., dst] = images
        # one map keeps the rows' own layout; a stack of maps makes a stack
        return out if matrix.ndim == 3 else out.reshape(rows.shape)

    return x._map_rows(image, 1 << q)


class Outermorphism:
    """Grade-preserving multiplicative extension of a (1,1) map.

    Scalars are fixed, grade 1 agrees with the base map, and a wedge of
    vectors goes to the wedge of their images; a trial stack of base maps
    extends trial by trial.  On grade k that is the k-th
    compound matrix: entry (I, J) is the minor of the base matrix on rows I
    and columns J, for I, J the generator sets of two grade-k blades.  It
    keeps the compounds it has built, so grade k after grade j < k costs
    k - j Laplace steps.
    """

    __slots__ = ("base", "_cascade")

    def __init__(self, base: Extensor):
        if base.p != 1 or base.q != 1:
            raise ValueError("outermorphism extends (1,1) maps only")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_cascade", [np.array(base.matrix, dtype=float)])

    def __setattr__(self, name, value):
        raise AttributeError("Outermorphism is immutable")

    def apply(self, x: Multivector) -> Multivector:
        metric = self.base.metric
        _check_metric(metric, x.metric)
        grades = x.grades()
        if len(grades) > 1:
            raise ValueError("argument must be homogeneous")
        k = min(grades, default=0)  # the zero element maps through any grade
        return _apply_matrix(metric, _compound(self.base.matrix, k, self._cascade), k, k, x)

    __call__ = apply
