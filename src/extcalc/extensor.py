"""Linear maps between grade spaces: application, adjoint, outermorphism,
trace, bivector, determinant, inverse and composition.

An Extensor(p, q) sends grade-p multivectors to grade-q multivectors and is
stored as a C(n,q) x C(n,p) matrix over the increasing-mask blade bases.  The
grade-preserving extension of a (1,1) map (scalars fixed, wedges of vectors to
wedges of images) is provided by Outermorphism; the determinant is read off
the image of the unit pseudoscalar, and the inverse is built from the
pseudoscalar identity

    inverse(a) = det^-1 * adjoint_extension(a I) I^-1

and cross-checked against a direct matrix inversion.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .algebra import (
    Frame,
    Metric,
    Multivector,
    _tables,
    grade_masks,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from .dual import value_of
from .errors import ConfigurationError, SingularExtensorError

SINGULARITY_SCALE = 1e-9  # sigma_min <= SINGULARITY_SCALE * sigma_max means singular


class Extensor:
    """Immutable linear map from grade-p space to grade-q space."""

    __slots__ = ("metric", "p", "q", "matrix")

    def __init__(self, metric: Metric, matrix, p: int = 1, q: int = 1):
        n = metric.dim
        if not (0 <= p <= n and 0 <= q <= n):
            raise ValueError(f"grades ({p}, {q}) out of range for dim {n}")
        matrix = np.array(matrix, dtype=float)
        shape = (comb(n, q), comb(n, p))
        if matrix.shape != shape:
            raise ValueError(f"expected matrix shape {shape}, got {matrix.shape}")
        matrix.flags.writeable = False
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "matrix", matrix)

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
        """(1,1) map defined by the images of the generators."""
        cols = []
        for v in images:
            if not v.is_homogeneous(1):
                raise ValueError("images must be grade-1 multivectors")
            cols.append([value_of(v.coeff(m)) for m in grade_masks(metric.dim, 1)])
        return cls(metric, np.array(cols).T)

    @classmethod
    def random(cls, metric: Metric, rng, p: int = 1, q: int = 1) -> "Extensor":
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        n = metric.dim
        return cls(metric, rng.uniform(-1.0, 1.0, (comb(n, q), comb(n, p))), p, q)

    @classmethod
    def random_invertible(
        cls, metric: Metric, rng, scale: float = 0.5, min_det: float = 0.1
    ) -> "Extensor":
        """identity + scale * uniform(-1, 1) noise, rejected while |det| < min_det."""
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        n = metric.dim
        while True:
            matrix = np.eye(n) + scale * rng.uniform(-1.0, 1.0, (n, n))
            if abs(np.linalg.det(matrix)) >= min_det:
                return cls(metric, matrix)

    # -- application and composition ----------------------------------------

    def apply(self, x: Multivector) -> Multivector:
        if x.metric != self.metric:
            raise ConfigurationError("operand lives over a different metric")
        if not x.is_homogeneous(self.p):
            raise ValueError(f"argument must be homogeneous of grade {self.p}")
        tables = _tables(self.metric)
        src, dst = tables.blades[self.p], tables.blades[self.q]
        if x._values.ndim == 2:  # a batch: one image per row
            values = np.zeros(x._values.shape)
            values[:, dst] = x._values[:, src] @ self.matrix.T
            return Multivector._raw(self.metric, values)
        values = np.zeros(self.metric.size)
        values[dst] = self.matrix @ x._values[src]
        tangents = None
        if x._tangents is not None:
            tangents = np.zeros((len(x._tangents), self.metric.size))
            tangents[:, dst] = x._tangents[:, src] @ self.matrix.T
        return Multivector._raw(self.metric, values, tangents)

    __call__ = apply

    def compose(self, inner: "Extensor") -> "Extensor":
        """self after inner; inner's target grade must match self's source."""
        if inner.metric != self.metric:
            raise ConfigurationError("operands live over different metrics")
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
        matrix = (self.matrix * wq[:, None]).T / wp[:, None]
        return Extensor(self.metric, matrix, self.q, self.p)

    # -- (1,1)-only operations ------------------------------------------------

    def _require_vector_map(self, what: str):
        if self.p != 1 or self.q != 1:
            raise ValueError(f"{what} is defined for (1,1) maps only")

    def trace(self, frame: Frame | None = None) -> float:
        """Sum of self(f^j) . f_j over any frame; frame-independent."""
        self._require_vector_map("trace")
        if frame is None:
            frame = Frame.orthonormal(self.metric)
        return sum(
            scalar_value(self.apply(r), v)
            for v, r in zip(frame.vectors, frame.reciprocal)
        )

    def bivector(self, frame: Frame | None = None) -> Multivector:
        """Sum of self(f^j) ^ f_j over any frame; frame-independent."""
        self._require_vector_map("bivector")
        if frame is None:
            frame = Frame.orthonormal(self.metric)
        total = Multivector.zero(self.metric)
        for v, r in zip(frame.vectors, frame.reciprocal):
            total = total + self.apply(r).wedge(v)
        return total

    def det(self) -> float:
        """Scale factor of the extension on the unit pseudoscalar."""
        self._require_vector_map("det")
        image = Outermorphism(self)(unit_pseudoscalar(self.metric))
        return value_of(image.coeff(self.metric.size - 1))

    def inverse(self) -> "Extensor":
        """Inverse via the pseudoscalar identity, cross-checked with numpy."""
        self._require_vector_map("inverse")
        d = self.det()
        # conditioning, not det size: a scaled copy of an invertible map inverts too
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        if not sv[-1] > SINGULARITY_SCALE * sv[0]:
            raise SingularExtensorError(f"singular values {sv[-1]:g} .. {sv[0]:g}: singular")
        pss = unit_pseudoscalar(self.metric)
        pss_inv = pss.reverse() / scalar_value(pss, pss)
        adj_ext = Outermorphism(self.adjoint())
        images = []
        for mask in grade_masks(self.metric.dim, 1):
            a = Multivector.from_blade(self.metric, mask)
            images.append(adj_ext(a.geometric(pss)).geometric(pss_inv) / d)
        out = Extensor.from_vector_images(self.metric, images)
        if not np.allclose(out.matrix, np.linalg.inv(self.matrix), rtol=1e-8, atol=1e-10):
            raise ArithmeticError("pseudoscalar-formula inverse disagrees with matrix inverse")
        return out

    # -- matrix components over a frame ---------------------------------------

    def to_components(self, frame: Frame) -> np.ndarray:
        """Covariant components m[i, j] = self(f_i) . f_j."""
        self._require_vector_map("to_components")
        n = self.metric.dim
        return np.array(
            [
                [scalar_value(self.apply(frame.vectors[i]), frame.vectors[j]) for j in range(n)]
                for i in range(n)
            ]
        )

    @classmethod
    def from_components(cls, metric: Metric, components, frame: Frame) -> "Extensor":
        """Inverse of to_components: the map with self(f_i) = sum_j m[i,j] f^j."""
        n = metric.dim
        components = np.array(components, dtype=float)
        if components.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {components.shape}")
        vec_masks = grade_masks(n, 1)
        primal = np.array([[value_of(v.coeff(m)) for v in frame.vectors] for m in vec_masks])
        recip = np.array([[value_of(r.coeff(m)) for r in frame.reciprocal] for m in vec_masks])
        matrix = recip @ components.T @ np.linalg.inv(primal)
        return cls(metric, matrix)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Self-describing record: (n, p, q, metric diag) header + row-major matrix."""
        return {
            "n": self.metric.dim,
            "p": self.p,
            "q": self.q,
            "metric": list(self.metric.diag),
            "matrix": [float(v) for v in self.matrix.ravel()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Extensor":
        metric = Metric(int(payload["n"]), tuple(payload["metric"]))
        p, q = int(payload["p"]), int(payload["q"])
        shape = (comb(metric.dim, q), comb(metric.dim, p))
        matrix = np.array(payload["matrix"], dtype=float).reshape(shape)
        return cls(metric, matrix, p, q)


class Outermorphism:
    """Grade-preserving multiplicative extension of a (1,1) map.

    Scalars are fixed, grade 1 agrees with the base map, and a wedge of
    vectors goes to the wedge of their images.
    """

    __slots__ = ("base", "_images")

    def __init__(self, base: Extensor):
        if base.p != 1 or base.q != 1:
            raise ValueError("outermorphism extends (1,1) maps only")
        object.__setattr__(self, "base", base)
        metric = base.metric
        object.__setattr__(
            self,
            "_images",
            tuple(
                base.apply(Multivector.from_blade(metric, 1 << k))
                for k in range(metric.dim)
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Outermorphism is immutable")

    def apply(self, x: Multivector) -> Multivector:
        metric = self.base.metric
        if x.metric != metric:
            raise ConfigurationError("operand lives over a different metric")
        if len(x.grades()) > 1:
            raise ValueError("argument must be homogeneous")
        total = Multivector.zero(metric)
        for mask, c in x.nonzero_items():
            factors = [self._images[k] for k in range(metric.dim) if mask >> k & 1]
            total = total + c * wedge_all(metric, factors)
        return total

    __call__ = apply
