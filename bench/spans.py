"""Per-layer spans for extcalc, installed from outside the package.

`install(extcalc)` replaces the public functions and methods of the layer
modules (algebra, extensor, calculus, functional, harness, cli) with timing
wrappers and returns a Tracer; `Tracer.restore()` puts the originals back.
A module-level function is replaced in every extcalc namespace that imported
it (functional holds its own grad_star, cli its own run_suite and
emit_report), and a method under every name its class binds it to
(Extensor.__call__ is Extensor.apply).  Nothing under src/ changes.

Each wrapped call is one span.  Its self time is its duration minus the
durations of the spans it encloses, and a layer's self time is the sum over
the layer's spans.  Time in helpers that carry no span (constructors such as
Multivector.zero, DiffScalar arithmetic outside a product, the evaluators
that catalog builds) is charged to the nearest enclosing span.

The product span sits on Multivector._product, the one kernel behind the four
product methods, extcalc.algebra.product, the `*`, `^` and `|` operators and
catalog.pair_product_functional's direct call, so every product is counted
exactly once.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter

PRODUCT_KINDS = ("geometric", "wedge", "scalar", "lcontract")
SUITES = ("closed-form", "properties", "bridge")

# The identity catalog when the benchmark was defined: id -> suite, in
# report order.
IDENTITIES = {
    "dot-pair-directional": "closed-form",
    "dot-pair-directional-fd": "closed-form",
    "wedge-pair-directional": "closed-form",
    "wedge-pair-directional-fd": "closed-form",
    "vector-image-directional": "closed-form",
    "vector-image-directional-fd": "closed-form",
    "vector-image-star": "closed-form",
    "adjoint-image-directional": "closed-form",
    "adjoint-image-directional-fd": "closed-form",
    "adjoint-image-star": "closed-form",
    "trace-directional": "closed-form",
    "trace-directional-fd": "closed-form",
    "trace-star": "closed-form",
    "bivector-directional": "closed-form",
    "bivector-directional-fd": "closed-form",
    "bivector-star": "closed-form",
    "pseudoscalar-image-directional": "closed-form",
    "pseudoscalar-image-directional-fd": "closed-form",
    "det-directional": "closed-form",
    "det-directional-fd": "closed-form",
    "det-star": "closed-form",
    "blade-image-directional": "closed-form",
    "blade-image-directional-fd": "closed-form",
    "inverse-bivector-frame-sum": "closed-form",
    "star-fd-coherence": "closed-form",
    "direction-linearity": "properties",
    "scaling-rule": "properties",
    "right-constant-rule": "properties",
    "additivity-rule": "properties",
    "leibniz-rule": "properties",
    "chain-rule": "properties",
    "frame-independence": "properties",
    "intrinsic-equivalence": "properties",
    "component-partials-fd": "bridge",
    "component-bridge-directional": "bridge",
    "component-bridge-star": "bridge",
}

# (owner path, attribute names, span key).  Owners are "module" for a
# module-level function or "module:Class" for a method.  A missing attribute
# is skipped, so a later refactor that removes one reads as a zero count.
_TARGETS = (
    ("algebra:Multivector", ("__add__", "__sub__", "__neg__", "__rmul__", "__truediv__",
                             "grade_project", "reverse"), "algebra.linear"),
    ("algebra:Multivector", ("with_tangent", "tangent_part", "value_part"), "algebra.lift"),
    ("algebra:Frame", ("from_vectors", "orthonormal", "blade", "reciprocal_blade",
                       "blade_pairs"), "algebra.frame"),
    ("extensor:Extensor", ("apply",), "extensor.apply"),
    ("extensor:Extensor", ("det",), "extensor.det"),
    ("extensor:Extensor", ("inverse",), "extensor.inverse"),
    ("extensor:Extensor", ("adjoint", "compose", "trace", "bivector", "to_components",
                           "from_components", "from_vector_images", "random",
                           "random_invertible"), "extensor.other"),
    ("extensor:Outermorphism", ("apply",), "extensor.outermorphism"),
    ("extensor:Outermorphism", ("__init__",), "extensor.other"),
    ("calculus", ("dir_deriv",), "calculus.dir_deriv"),
    ("calculus", ("fd_dir_deriv",), "calculus.fd_dir_deriv"),
    ("calculus", ("grad_star",), "calculus.grad_star"),
    ("calculus", ("fd_grad_star",), "calculus.fd_grad_star"),
    ("functional:InducedFunctional", ("directional_derivative",),
     "functional.directional_derivative"),
    ("functional:InducedFunctional", ("derivative_table",), "functional.derivative_table"),
    ("functional:InducedFunctional", ("derivative_via_frame",),
     "functional.derivative_via_frame"),
    ("functional:InducedFunctional", ("directional_derivative_fd", "derivative_fd"),
     "functional.fd"),
    ("functional", ("component_partials_fd",), "functional.fd"),
    ("functional:InducedFunctional", ("evaluate", "partial_gradients"), "functional.other"),
    ("functional", ("component_partials", "directional_from_partials",
                    "star_from_partials"), "functional.other"),
    ("harness", ("run_suite",), "harness.run"),
    ("cli", ("main",), "cli.main"),
    ("cli", ("emit_report",), "cli.report"),
)

# Layers whose spans have a self time of their own; cli reports its JSON
# emission (cli.report_s) instead.
SELF_TIMED_LAYERS = ("algebra", "extensor", "calculus", "functional", "harness")

# Per-layer metrics: name -> unit.  Order is the order of BENCHMARK.json.
PER_LAYER = {
    "algebra.product_calls": "count",
    **{f"algebra.product_calls.{k}": "count" for k in PRODUCT_KINDS},
    "algebra.product_self_s": "s",
    "algebra.product_us.float": "us",
    "algebra.product_us.tangent": "us",
    "algebra.linear_calls": "count",
    "algebra.linear_self_s": "s",
    "algebra.lift_calls": "count",
    "algebra.lift_self_s": "s",
    "algebra.frame_calls": "count",
    "algebra.frame_self_s": "s",
    "algebra.self_s": "s",
    **{f"extensor.{c}_{m}": u for c in ("apply", "outermorphism", "det", "inverse")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "extensor.self_s": "s",
    "calculus.dir_deriv_calls": "count",
    "calculus.fd_dir_deriv_calls": "count",
    "calculus.grad_star_calls": "count",
    "calculus.fd_grad_star_calls": "count",
    "calculus.self_s": "s",
    "functional.directional_derivative_calls": "count",
    "functional.derivative_table_calls": "count",
    "functional.derivative_via_frame_calls": "count",
    "functional.fd_calls": "count",
    "functional.self_s": "s",
    **{f"harness.identity_s.{i}": "s" for i in IDENTITIES},
    **{f"harness.suite_s.{s}": "s" for s in SUITES},
    "harness.self_s": "s",
    "cli.report_s": "s",
    "trace.overhead_s": "s",
}


def _has_tangent(mv) -> bool:
    return not all(type(c) is float for c in mv.coeffs)


class Tracer:
    """Span statistics plus the record of what install() replaced."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._open = []  # per open span: time covered by its child spans
        self._undo = []  # (namespace dict or class, name, original)

    # -- span bookkeeping --------------------------------------------------

    def _close(self, key: str, t0: float, extra=()) -> None:
        dur = perf_counter() - t0
        child = self._open.pop()
        self.calls[key] += 1
        self.self_s[key] += dur - child
        self.total_s[key] += dur
        for k in extra:
            self.calls[k] += 1
            self.total_s[k] += dur
        if self._open:
            self._open[-1] += dur

    def _span(self, fn, key: str, extra=()):
        opened, close = self._open, self._close

        @functools.wraps(fn)
        def span(*args, **kwargs):
            opened.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(key, t0, extra)

        return span

    def _product_span(self, fn):
        opened, close = self._open, self._close

        @functools.wraps(fn)
        def span(self_mv, kind, other):
            mode = "tangent" if _has_tangent(self_mv) or _has_tangent(other) else "float"
            extra = (f"algebra.product.{kind}", f"algebra.product.{mode}")
            opened.append(0.0)
            t0 = perf_counter()
            try:
                return fn(self_mv, kind, other)
            finally:
                close("algebra.product", t0, extra)

        return span

    def _scalar_mul_span(self, fn, multivector_cls):
        """`*` with a Multivector is a geometric product (counted by its own
        span); with a number it is linear."""
        linear = self._span(fn, "algebra.linear")

        @functools.wraps(fn)
        def mul(self_mv, other):
            if isinstance(other, multivector_cls):
                return fn(self_mv, other)
            return linear(self_mv, other)

        return mul

    # -- installation ------------------------------------------------------

    def _replace(self, owner, name: str, make) -> None:
        """Wrap owner.name under every name bound to the same object."""
        if isinstance(owner, type):
            namespaces = [owner]
            original = owner.__dict__.get(name)
        else:
            original = owner.__dict__.get(name)
            namespaces = [
                mod for key, mod in sorted(sys.modules.items())
                if key == "extcalc" or key.startswith("extcalc.")
            ]
        if original is None:
            return
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        for ns in namespaces:
            for alias, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, alias, original))
                    setattr(ns, alias, replacement)

    def _install(self, ec) -> None:
        for path, names, key in _TARGETS:
            module_name, _, class_name = path.partition(":")
            owner = getattr(ec, module_name)
            if class_name:
                owner = getattr(owner, class_name)
            for name in names:
                self._replace(owner, name, lambda fn, key=key: self._span(fn, key))
        mv = ec.algebra.Multivector
        self._replace(mv, "_product", self._product_span)
        self._replace(mv, "__mul__", lambda fn: self._scalar_mul_span(fn, mv))
        self._wrap_catalog(ec.harness)

    def _wrap_catalog(self, harness) -> None:
        """One span per identity check, around each of its trials."""

        def wrap_check(check):
            extra = (f"harness.identity.{check.id}", f"harness.suite.{check.suite}")
            return dataclasses.replace(
                check, trial=self._span(check.trial, "harness.identity", extra)
            )

        self._replace(harness, "CATALOG", lambda checks: tuple(map(wrap_check, checks)))

    def restore(self) -> None:
        """Put every replaced attribute back, last replacement first."""
        for ns, name, original in reversed(self._undo):
            setattr(ns, name, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s, by name."""
        calls, self_s, total = self.calls, self.self_s, self.total_s

        def mean_us(key):
            return total[key] / calls[key] * 1e6 if calls[key] else 0.0

        out = {
            "algebra.product_calls": calls["algebra.product"],
            **{f"algebra.product_calls.{k}": calls[f"algebra.product.{k}"]
               for k in PRODUCT_KINDS},
            "algebra.product_self_s": self_s["algebra.product"],
            "algebra.product_us.float": mean_us("algebra.product.float"),
            "algebra.product_us.tangent": mean_us("algebra.product.tangent"),
        }
        for key in ("algebra.linear", "algebra.lift", "algebra.frame", "extensor.apply",
                    "extensor.outermorphism", "extensor.det", "extensor.inverse"):
            out[f"{key}_calls"] = calls[key]
            out[f"{key}_self_s"] = self_s[key]
        for key in ("calculus.dir_deriv", "calculus.fd_dir_deriv", "calculus.grad_star",
                    "calculus.fd_grad_star", "functional.directional_derivative",
                    "functional.derivative_table", "functional.derivative_via_frame",
                    "functional.fd"):
            out[f"{key}_calls"] = calls[key]
        for layer in SELF_TIMED_LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")
            )
        for i in IDENTITIES:
            out[f"harness.identity_s.{i}"] = total[f"harness.identity.{i}"]
        for s in SUITES:
            out[f"harness.suite_s.{s}"] = total[f"harness.suite.{s}"]
        out["cli.report_s"] = total["cli.report"]
        return out


def install(ec) -> Tracer:
    """Wrap the layers of the imported extcalc package; see Tracer.restore."""
    tracer = Tracer()
    try:
        tracer._install(ec)
    except BaseException:
        tracer.restore()
        raise
    return tracer
