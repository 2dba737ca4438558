"""Multivector calculus for linear grade maps.

The package is layered, each module importing only `errors` and the layers
below it: the dense geometric-algebra core (`algebra`: four products, grade
projection, frames and reciprocal frames), linear maps between grade spaces
(`extensor`: application, adjoint, outermorphism extension, trace,
bivector, determinant, inverse), exact and finite-difference derivatives of
multivector functions (`calculus`, with the smooth scalar maps of `dual`),
functionals of maps with their directional derivatives and curl /
divergence / gradient style frame sums (`functional`, `catalog`), and the
harness that machine-checks every closed-form derivative identity
(`harness`, `cli`; `python -m extcalc`).

`import extcalc` loads none of them.  Reading a public name such as
`extcalc.Multivector`, or a submodule such as `extcalc.harness`, imports
the module that defines it and binds the name here (PEP 562), so a program
pays only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each submodule, lowest layer first
_EXPORTS = {
    "errors": ("ConfigurationError", "DegenerateFrameError", "SingularExtensorError",
               "TrialError"),
    "algebra": ("PRODUCT_KINDS", "BasisBlade", "Frame", "Metric", "Multivector",
                "basis_vectors", "blade_basis", "blade_name", "grade_masks", "max_abs_diff",
                "product", "random_multivector", "reciprocal_frame", "scalar_value",
                "unit_pseudoscalar", "wedge_all"),
    "extensor": ("Extensor", "Outermorphism"),
    "calculus": ("MvFunction", "dir_deriv", "grad_star"),
    "dual": ("value_of",),
    "functional": ("InducedFunctional", "component_partials", "directional_from_partials",
                   "star_from_partials", "values_and_derivatives"),
    "catalog": ("adjoint_image_functional", "apply_functional", "bivector_functional",
                "blade_image_functional", "det_functional", "pair_product_functional",
                "pseudoscalar_image_functional", "trace_functional"),
    "harness": ("CATALOG", "HarnessConfig", "IdentityResult", "emit_report",
                "multivector_from_map", "multivector_to_map", "parse_metric", "report_dict",
                "run_suite"),
    "cli": (),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
