"""Extremal toric Kahler metrics on blow-ups of CP^n, from polytope data.

Construction of the extremal t-potentials for the blow-up family, plus three
independent scalar-curvature evaluations (radial, general toric via Abreu's
formula, and Calabi's Kahler-side formula) used to cross-check each other.
"""

from .abreu import (
    AffineFit,
    SymplecticPotential,
    abreu_scalar_curvature,
    extremality_residual,
    numeric_hessian,
)
from .bridge import (
    BridgeCheckReport,
    KahlerPotential,
    PRESETS,
    F_of_t,
    bridge_cross_check,
    calabi_scalar_curvature,
    flat_potential,
    fubini_study_potential,
    induced_t_potential,
    s_of_t,
    t_of_s,
)
from .calabi import (
    CoefficientCrossCheck,
    ExtremalCoefficients,
    alpha_eval,
    boundary_system,
    build_extremal_metric,
    closed_form_coefficients,
    coefficient_cross_check,
    extremal_F_second,
    extremal_scalar_curvature,
    h_second,
    solve_coefficients,
)
from .errors import (
    DegenerateMetric,
    DegeneratePointSet,
    DimensionMismatch,
    DomainViolation,
    EmptyRegion,
    GeometryError,
    InvalidParameters,
    NonInteriorPoint,
    NonpositiveDerivative,
    NotInvertible,
    OutOfRange,
    PositivityViolation,
    PotentialPole,
    SingularHessian,
    SingularSystem,
    StencilExitsDomain,
    ZeroDenominator,
)
from .polytope import (
    AffineFacet,
    MomentPolytope,
    build_blowup_polytope,
    facet_values,
    interior_distance,
    sample_interior,
)
from .radial import (
    TPotential,
    ValidityResult,
    radial_hessian,
    radial_scalar_curvature,
    validity_check,
)

__version__ = "0.1.0"
