"""Numeric toolkit for geodesically linked metric pairs.

Builds Riemannian metrics from expression tables on coordinate boxes,
tests the compatibility equation tying a metric to a partner with the
same unparametrized geodesics, constructs the commuting family of
quadratic integrals the link provides, integrates geodesics to audit
conservation, and classifies quadratic integrals on surfaces.

Submodules load on first use: ``projeq.<name>`` and ``from projeq
import <name>`` import the module that defines the name and read it
there on every access, so a patched module attribute is what the
package gives.
"""

import importlib

__version__ = "0.1.0"

# every submodule, with the public names the package gives from it
_EXPORTS = {
    "chart": ("Chart", "box_chart"),
    "cli": (),
    "curvature": ("christoffel", "ricci", "riemann", "sectional"),
    "errors": (
        "BranchViolation", "ChartError", "ComplexRoots", "DomainViolation",
        "EnergyProportional", "ExpressionError", "GapViolated", "ManifestError",
        "NonPositivePhi", "NotPolynomial", "NotPositiveDefinite", "NotSelfAdjoint",
        "OrderingViolated", "OutsideChart", "ProjeqError", "SingularMatrix",
        "SingularMetric", "StepUnderflow", "UnknownName", "WrongDimension",
        "ZeroVelocity",
    ),
    "expressions": ("Expression", "parse_expression"),
    "fields": (
        "ConstantField", "EndomorphismField", "ExpressionField", "MetricField",
        "NumericField", "PhaseState", "ScalarField", "VectorField", "as_field",
    ),
    "flows": ("IntegralFamily", "interlacing_audit", "ordering_audit"),
    "geodesics": (
        "Ensemble", "Trajectory", "hamiltonian", "integrate", "integrate_geodesic",
        "monitor_along",
    ),
    "jets": (),
    "levicivita": (
        "LeviCivitaSpec", "WarpedSpec", "adjusted_metric", "affine_equivalence_check",
        "build_lc_pair", "k_constants", "random_spec", "split", "split_matrix",
        "warped_metric",
    ),
    "manifest": ("Manifest", "RunParams", "Scene", "default_t_grid", "seeded_states"),
    "pairs": (
        "MetricPair", "ProjectiveFlowSpec", "bm_from_flow", "bm_from_flow_field",
        "bm_residual", "bm_residual_stats", "beltrami_map_defect", "gbar_from_l",
        "l_field_from_pair", "l_from_pair", "lie_derivative_metric", "nijenhuis_torsion",
        "pencil_spectrum", "projective_weyl", "spectrum_at", "weyl_pair_defect",
        "weyl_trace_defect",
    ),
    "reports": (),
    "sampling": (),
    "surfaces": (
        "ExampleBundle", "LiouvilleData", "ModelClass", "PrincipalForm",
        "QuadraticIntegral2D", "builtin_example", "classify_model", "cometric_form",
        "flatten_coordinates", "flattening_fit_report", "integral_from_pair2d",
        "killing_residual", "liouville_build", "model_inverse_map", "principal_form",
        "synthetic_integral",
    ),
    "tolerances": ("DEFAULT", "Tolerances"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
