"""Extremal toric Kahler metrics on blow-ups of CP^n, from polytope data.

Construction of the extremal t-potentials for the blow-up family, plus three
independent scalar-curvature evaluations (radial, general toric via Abreu's
formula, and Calabi's Kahler-side formula) used to cross-check each other.

The namespace is lazy (PEP 562): ``import toricext`` loads neither numpy nor
any submodule, and a public name imports its submodule the first time it is
read.  ``python -m toricext`` imports this package before ``__main__``, so a
CLI call loads only the modules its command runs.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "abreu": (
        "AffineFit",
        "abreu_scalar_curvature",
        "extremality_residual",
    ),
    "bridge": (
        "BridgeCheckReport",
        "KahlerPotential",
        "PRESETS",
        "bridge_cross_check",
        "calabi_scalar_curvature",
        "flat_potential",
        "fubini_study_potential",
        "induced_t_potential",
        "s_of_t",
        "t_of_s",
    ),
    "calabi": ("build_extremal_metric",),
    "errors": (
        "BoundaryIdentityViolation",
        "DegenerateMetric",
        "DegeneratePointSet",
        "DimensionMismatch",
        "DomainViolation",
        "EmptyRegion",
        "GeometryError",
        "InvalidParameters",
        "NonInteriorPoint",
        "NonpositiveDerivative",
        "NotInvertible",
        "OutOfRange",
        "PositivityViolation",
        "PotentialPole",
        "SingularSystem",
        "StencilExitsDomain",
        "ZeroDenominator",
    ),
    "exact": (
        "ExtremalCoefficients",
        "coefficient_cross_check",
        "positivity_certificate",
        "solve_coefficients",
    ),
    "polytope": (
        "BlowupPolytope",
        "build_blowup_polytope",
        "facet_values",
        "interior_distance",
        "sample_interior",
    ),
    "radial": ("TPotential", "radial_scalar_curvature"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules, readable as attributes of the package as after an eager import
_SUBMODULES = frozenset(_EXPORTS) | {"numdiff", "table"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
