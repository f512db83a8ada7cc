"""Shared model potentials, polytopes and the radial curvature reference
for the test suite."""

from __future__ import annotations

from toricext import TPotential
from toricext.numdiff import STEP_SECOND, richardson
from toricext.polytope import BlowupPolytope


def cpn_profile(n: int) -> TPotential:
    """Guillemin profile of CP^n: F'' = 1/(1-t) on (0, 1), S = n(n+1)."""
    return TPotential(
        n=n,
        t_min=0.0,
        t_max=1.0,
        d2F=lambda t: 1.0 / (1.0 - t),
        d3F=lambda t: 1.0 / (1.0 - t) ** 2,
        d4F=lambda t: 2.0 / (1.0 - t) ** 3,
    )


def flat_profile(n: int, t_max: float = 10.0) -> TPotential:
    """F'' = 0 on (0, t_max): the flat metric, S = 0."""
    zero = lambda t: 0.0
    return TPotential(n=n, t_min=0.0, t_max=t_max, d2F=zero, d3F=zero, d4F=zero)


def simplex_polytope(n: int) -> BlowupPolytope:
    """The unit simplex {x_i >= 0, sum x <= 1}: moment polytope of CP^n."""
    return BlowupPolytope(n, 0.0, 1.0)


def fd_curvature_reference(T, t):
    """S = t^(1-n) * u''(t) by central differences on u = t^(n+1) W,
    W = F''/(1 + t*F''), from F'' alone: one Richardson level, step
    eps^(1/4)*t_max shrunk to half the room left in (t_min, t_max).  The
    reference the analytic ``radial_scalar_curvature`` must reproduce."""
    n = T.n
    h = min(STEP_SECOND * T.t_max, 0.5 * min(t - T.t_min, T.t_max - t))

    def u(tau):
        f2 = T.d2F(tau)
        return tau ** (n + 1) * f2 / (1.0 + tau * f2)

    return t ** (1 - n) * richardson(u, t, h)[1]
