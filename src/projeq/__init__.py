"""Numeric toolkit for geodesically linked metric pairs.

Builds Riemannian metrics from expression tables on coordinate boxes,
tests the compatibility equation tying a metric to a partner with the
same unparametrized geodesics, constructs the commuting family of
quadratic integrals the link provides, integrates geodesics to audit
conservation, and classifies quadratic integrals on surfaces.
"""

from .chart import Chart, box_chart
from .curvature import (
    christoffel,
    lower_riemann,
    ricci,
    riemann,
    sectional,
)
from .errors import (
    BranchViolation,
    ChartError,
    ComplexRoots,
    DomainViolation,
    EnergyProportional,
    ExpressionError,
    GapViolated,
    ManifestError,
    NonPositivePhi,
    NotPolynomial,
    NotPositiveDefinite,
    NotSelfAdjoint,
    OrderingViolated,
    OutsideChart,
    ProjeqError,
    SingularMatrix,
    SingularMetric,
    StepUnderflow,
    UnknownName,
    WrongDimension,
    ZeroVelocity,
)
from .expressions import Expression, parse_expression
from .fields import (
    ConstantField,
    EndomorphismField,
    ExpressionField,
    MetricField,
    NumericField,
    PhaseState,
    ScalarField,
    VectorField,
    as_field,
)
from .flows import (
    IntegralFamily,
    SpectrumProfile,
    interlacing_audit,
    ordering_audit,
)
from .geodesics import (
    Ensemble,
    Trajectory,
    hamiltonian,
    integrate,
    integrate_geodesic,
    monitor_along,
)
from .levicivita import (
    LeviCivitaSpec,
    WarpedSpec,
    adjusted_metric,
    affine_equivalence_check,
    build_lc_pair,
    k_constants,
    random_spec,
    split,
    split_matrix,
    warped_metric,
)
from .manifest import Manifest, RunParams, Scene, default_t_grid, seeded_states
from .pairs import (
    MetricPair,
    ProjectiveFlowSpec,
    bm_from_flow,
    bm_from_flow_field,
    bm_residual,
    bm_residual_stats,
    beltrami_map_defect,
    gbar_from_l,
    l_field_from_pair,
    l_from_pair,
    lie_derivative_metric,
    nijenhuis_torsion,
    pair_from_l,
    pencil_spectrum,
    projective_weyl,
    spectrum_at,
    weyl_pair_defect,
    weyl_trace_defect,
)
from .surfaces import (
    ExampleBundle,
    LiouvilleData,
    ModelClass,
    PrincipalForm,
    QuadraticIntegral2D,
    builtin_example,
    classify_model,
    cometric_form,
    flatten_coordinates,
    flattening_fit_report,
    integral_from_pair2d,
    killing_residual,
    liouville_build,
    model_inverse_map,
    principal_form,
    synthetic_integral,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"
