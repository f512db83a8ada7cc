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


class EmptyRegion(GeometryError, RuntimeError):
    """The sampling margin leaves no interior region to draw points from."""


class NonInteriorPoint(GeometryError, ValueError):
    """An evaluation point sits on or outside the polytope boundary."""


class DomainViolation(GeometryError, ValueError):
    """A scalar argument lies outside the open interval it must live in."""


class DegenerateMetric(GeometryError, ArithmeticError):
    """The validity condition phi(t) > 0 on the momentum profile, that is
    1 + t*F''(t) = t/phi > 0, fails at the query point, where the Hessian is
    singular or indefinite."""


class PotentialPole(GeometryError, ArithmeticError):
    """The deflated denominator Q(t) of the profile, where
    p*t^n - alpha(t) = (t-a)(t-b)*Q(t), vanishes at the query point."""


class BoundaryIdentityViolation(GeometryError, ArithmeticError):
    """Dividing p*t^n - alpha, or the numerator of h'' over (t-a)(t-b),
    exactly by an endpoint root leaves a remainder: the coefficients miss the
    boundary condition that division checks, alpha(a) = p*a^n,
    alpha(b) = p*b^n, alpha'(a) = (n-1)*p*a^(n-1) or
    alpha'(b) = (n+1)*p*b^(n-1), and the message names the first that fails.

    For the exact moment solve of ``exact._exact_solution`` (Donaldson's
    functional) every remainder is 0 for every input, so this guards that
    formula itself (a dropped facet term or point mass, a wrong moment), not
    bad input."""


class StencilExitsDomain(GeometryError, ValueError):
    """A finite-difference stencil would leave the polytope interior."""


class PositivityViolation(GeometryError, ArithmeticError):
    """A Bernstein coefficient of Q on [a, b] is not negative, where
    p*t^n - alpha(t) = (t-a)(t-b)*Q(t); no proof that the metric is valid."""


class NonpositiveDerivative(GeometryError, ArithmeticError):
    """A logarithmand that must be positive (t or dt/ds~) is not."""
