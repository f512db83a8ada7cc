"""Exception taxonomy shared by every module.

Each class names one failure condition from the numerical contracts; nothing
here carries state beyond the message.  ``GeometryError`` is the common base
so callers (and the CLI) can distinguish "the computation is refusing bad
input or a degenerate configuration" from genuine bugs.
"""


class GeometryError(Exception):
    """Base class for every failure this package raises deliberately."""


class InvalidParameters(GeometryError, ValueError):
    """Constructor arguments violate a documented precondition."""


class EmptyRegion(GeometryError, RuntimeError):
    """The sampling margin leaves no interior region to draw points from."""


class DomainViolation(GeometryError, ValueError):
    """An evaluation point lies outside its open domain: a t outside (a, b),
    an s that is not positive (or no s at all), a point x with a facet value
    <= 0, or a stencil corner past the polytope, from an explicit step past
    dmin/3."""


class DegenerateMetric(GeometryError, ArithmeticError):
    """The metric's positivity fails at the query point: the momentum
    profile's phi(t) > 0, that is 1 + t*F''(t) = t/phi > 0, where the Hessian
    is otherwise singular or indefinite; the Kahler side's t > 0 and
    t' = phi > 0; or the float Q(t) of the profile, where
    p*t^n - alpha(t) = (t-a)(t-b)*Q(t), vanishing, so phi = 0."""


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


class PositivityViolation(GeometryError, ArithmeticError):
    """A Bernstein coefficient of Q on [a, b] is not negative, where
    p*t^n - alpha(t) = (t-a)(t-b)*Q(t); no proof that the metric is valid."""
