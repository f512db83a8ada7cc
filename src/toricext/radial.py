"""Radial (U(n)-invariant) toric metrics through their momentum profiles.

A radial symplectic potential on the polytope interior has the form

    g(x) = (1/2) * (sum_i x_i ln x_i + F(t)),    t = sum_i x_i,

and its metric is fixed by one function of t, the momentum profile

    phi(t) = t/(1 + t*F''(t)),    so F'' = 1/phi - 1/t,

which is dt/ds~ along the Kahler side's s~ = ln s (Hwang-Singer).  The metric
is well defined exactly where phi > 0.  Its Hessian (diag(1/x) + F'' 1 1^T)/2
is diagonal plus rank one, so its inverse has a closed form (Sherman-Morrison),

    G^{-1} = 2 * (diag(x) - w * x x^T),    w = F''/(1 + t*F'') = (t - phi)/t^2,

whose diagonal 2*x_i*(1 - w*x_i) = 2*x_i*(t*(t - x_i) + x_i*phi)/t^2 is a sum
of positive terms.  The scalar curvature collapses to a one-variable
expression

    S(t) = t^(1-n) * u''(t),    u(t) = t^(n+1) * W(t),    W = (t - phi)/t^2,

which this module evaluates analytically through phi, phi' and phi''.  A
profile is one function of a list of t, and the curvature reads the lists
it returns; everything runs in plain floats.
"""

import math
from collections import namedtuple
from collections.abc import Callable, Sequence

from .errors import DegenerateMetric, InvalidParameters
from .numdiff import power

# t/phi = 1 + t*F'' at or below this is treated as a degenerate metric: the
# Hessian is singular there, and anything this small is cancellation noise
# anyway
DEGENERACY_TOL = 1e-14


class TPotential(namedtuple("TPotential", "n t_min t_max jet")):
    """Radial metric on (t_min, t_max), given by its momentum profile; its
    moment polytope is {x_i >= 0, t_min <= sum(x) <= t_max} (``polytope``).

    Affine additions to the potential never touch the Hessian, so F itself
    is not kept: ``jet(ts)`` is the lists (phi, phi', phi'') at the ts, all
    in (t_min, t_max), which give the metric and its curvature.
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        t_min: float,
        t_max: float,
        jet: Callable[[Sequence[float]], tuple[list[float], ...]],
    ) -> "TPotential":
        if n < 1:
            raise InvalidParameters("n must be >= 1")
        if t_min < 0.0:
            raise InvalidParameters("t_min must be >= 0")
        if not t_min < t_max < math.inf:
            raise InvalidParameters("need t_min < t_max < inf")
        return super().__new__(cls, n, t_min, t_max, jet)

    # _replace builds through _make, so both refuse what the constructor does
    _make = classmethod(lambda cls, values: cls(*values))


def check_validity(t: float, phi: float) -> None:
    """Refuse with DegenerateMetric a t where phi <= 0 or 1 + t*F'' = t/phi
    is not safely positive."""
    if phi <= 0.0 or t / phi <= DEGENERACY_TOL:
        raise DegenerateMetric(
            f"1 + t*F'' = t/phi is not safely positive, phi = {phi:.3e}, at t = {t}"
        )


def radial_scalar_curvature(
    n: int, ts: Sequence[float], jet: Sequence[Sequence[float]]
) -> list[float]:
    """Scalar curvature S(t) = t^(1-n) * u''(t) of the radial metric at each t
    of ts, from the profile's jet columns (phi, phi', phi'') there, u
    differentiated symbolically; refuses a t where the metric degenerates.
    The jet's provider keeps the ts in its domain."""
    S = []
    for t, phi, dphi, d2phi in zip(ts, *jet, strict=True):
        check_validity(t, phi)
        t2, t3 = power(t, 2), power(t, 3)
        # W = (t - phi)/t^2 and its t-derivatives, W'' = -phi''/t^2
        # - 4(1 - phi')/t^3 + 6(t - phi)/t^4 written through W and W'
        w = (t - phi) / t2
        w1 = (1.0 - dphi) / t2 - 2.0 * (t - phi) / t3
        w2 = (-d2phi - 4.0 * t * w1 - 2.0 * w) / t2
        # t^(1-n) * d^2/dt^2 [t^(n+1) W] with the power prefactors cancelled
        S.append(n * (n + 1) * w + 2.0 * (n + 1) * t * w1 + t * t * w2)
    return S
