"""Multivector calculus for linear grade maps.

A dense geometric-algebra core (four products, grade projection, frames and
reciprocal frames) supports linear maps between grade spaces (application,
adjoint, outermorphism extension, trace, bivector, determinant, inverse) and
the derivative operators of functionals of those maps: directional
derivatives along multivector directions, plus curl / divergence / gradient
style frame sums.  Every closed-form derivative identity the calculus
satisfies is machine-checked by the bundled harness (`python -m extcalc`).
"""

from .algebra import (
    PRODUCT_KINDS,
    BasisBlade,
    Frame,
    Metric,
    Multivector,
    basis_vectors,
    blade_basis,
    blade_name,
    grade_masks,
    max_abs_diff,
    product,
    random_multivector,
    reciprocal_frame,
    scalar_value,
    unit_pseudoscalar,
    wedge_all,
)
from .calculus import MvFunction, dir_deriv, fd_dir_deriv, grad_star
from .catalog import (
    adjoint_image_functional,
    apply_functional,
    bivector_functional,
    blade_image_functional,
    det_functional,
    pair_product_functional,
    pseudoscalar_image_functional,
    trace_functional,
)
from .dual import value_of
from .errors import ConfigurationError, DegenerateFrameError, SingularExtensorError
from .extensor import Extensor, Outermorphism
from .functional import (
    InducedFunctional,
    component_partials,
    component_partials_fd,
    directional_from_partials,
    star_from_partials,
)
from .harness import (
    CATALOG,
    HarnessConfig,
    IdentityResult,
    emit_report,
    multivector_from_map,
    multivector_to_map,
    parse_metric,
    report_dict,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BasisBlade",
    "CATALOG",
    "ConfigurationError",
    "DegenerateFrameError",
    "Extensor",
    "Frame",
    "HarnessConfig",
    "IdentityResult",
    "InducedFunctional",
    "Metric",
    "Multivector",
    "MvFunction",
    "Outermorphism",
    "PRODUCT_KINDS",
    "SingularExtensorError",
    "adjoint_image_functional",
    "apply_functional",
    "basis_vectors",
    "bivector_functional",
    "blade_basis",
    "blade_image_functional",
    "blade_name",
    "component_partials",
    "component_partials_fd",
    "det_functional",
    "dir_deriv",
    "directional_from_partials",
    "emit_report",
    "fd_dir_deriv",
    "grade_masks",
    "grad_star",
    "max_abs_diff",
    "multivector_from_map",
    "multivector_to_map",
    "pair_product_functional",
    "parse_metric",
    "product",
    "pseudoscalar_image_functional",
    "random_multivector",
    "reciprocal_frame",
    "report_dict",
    "run_suite",
    "scalar_value",
    "star_from_partials",
    "trace_functional",
    "unit_pseudoscalar",
    "value_of",
    "wedge_all",
]
