"""Exception taxonomy shared by every module.

Each class names one failure condition from the numerical contracts; nothing
here carries state beyond the message.  ``GeometryError`` is the common base
so callers (and the CLI) can distinguish "the computation is refusing bad
input or a degenerate configuration" from genuine bugs.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for every failure this package raises deliberately."""


class InvalidParameters(GeometryError, ValueError):
    """Constructor arguments violate a documented precondition."""


class DimensionMismatch(GeometryError, ValueError):
    """A point or vector has the wrong length for the ambient dimension."""


class EmptyRegion(GeometryError, RuntimeError):
    """The sampling margin leaves no interior region to draw points from."""


class NonInteriorPoint(GeometryError, ValueError):
    """An evaluation point sits on or outside the polytope boundary."""


class DomainViolation(GeometryError, ValueError):
    """A scalar argument lies outside the open interval it must live in."""


class DegenerateMetric(GeometryError, ArithmeticError):
    """The validity condition 1 + t*F''(t) > 0 fails at the query point."""


class PotentialPole(GeometryError, ArithmeticError):
    """The profile denominator p*t^n - alpha(t) vanishes at the query point."""


class ZeroDenominator(GeometryError, ArithmeticError):
    """A closed-form expression has a vanishing shared denominator."""


class SingularSystem(GeometryError, ArithmeticError):
    """The boundary linear system is exactly singular.

    Its determinant is a nonzero multiple of the closed forms' shared
    denominator, which has no root for 0 < a < b (checked for n <= 16), so
    valid geometries never raise this."""


class SingularHessian(GeometryError, ArithmeticError):
    """Matrix inversion failed at a stencil point."""


class StencilExitsDomain(GeometryError, ValueError):
    """A finite-difference stencil would leave the polytope interior."""


class DegeneratePointSet(GeometryError, ValueError):
    """Too few (or affinely dependent) points for the requested fit."""


class PositivityViolation(GeometryError, ArithmeticError):
    """p*t^n - alpha(t) <= 0 somewhere on the validation grid."""


class NotInvertible(GeometryError, ArithmeticError):
    """The moment map s -> 2*s*f'(s) is not monotone on the bracket."""


class OutOfRange(GeometryError, ValueError):
    """The target value lies outside the image of the map being inverted."""


class NonpositiveDerivative(GeometryError, ArithmeticError):
    """A logarithmand that must be positive (t or dt/ds~) is not."""
