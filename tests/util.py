"""Shared model potentials, polytopes, the radial curvature reference, the
references built from the package's parts (the Legendre F, the full inverse
Hessian, Calabi's closed forms rounded to a record) and the numpy array
evaluation of the extremal profile, for the test suite."""

from __future__ import annotations

import math

import numpy as np

from toricext.errors import DomainViolation, PotentialPole
from toricext.exact import POLE_REL_TOL, _check_geometry, _closed_form, _rounded
from toricext.numdiff import STEP_SECOND, richardson
from toricext.polytope import BlowupPolytope
from toricext.radial import (
    TPotential,
    inverse_diagonal,
    inverse_off_diagonal,
    validity_factor,
)


def profile(n: int, t_min: float, t_max: float, d2F, d3F, d4F) -> TPotential:
    """The TPotential whose F'', F''' and F'''' at one t are d2F(t), d3F(t)
    and d4F(t)."""
    return TPotential(
        n,
        t_min,
        t_max,
        lambda ts: [d2F(t) for t in ts],
        lambda ts: tuple([d(t) for t in ts] for d in (d2F, d3F, d4F)),
    )


def cpn_profile(n: int, b: float = 1.0) -> TPotential:
    """Guillemin profile of the size-b simplex: F'' = 1/(b-t) on (0, b), the
    Fubini-Study metric with S = n(n+1)/b."""
    return profile(
        n,
        0.0,
        b,
        lambda t: 1.0 / (b - t),
        lambda t: 1.0 / (b - t) ** 2,
        lambda t: 2.0 / (b - t) ** 3,
    )


def flat_profile(n: int, t_min: float = 0.0, t_max: float = 10.0) -> TPotential:
    """F'' = 0 on (t_min, t_max): the flat metric, S = 0."""
    zero = lambda t: 0.0
    return profile(n, t_min, t_max, zero, zero, zero)


def simplex_polytope(n: int) -> BlowupPolytope:
    """The unit simplex {x_i >= 0, sum x <= 1}: moment polytope of CP^n."""
    return BlowupPolytope(n, 0.0, 1.0)


def radial_hessian(x, d2F_value) -> np.ndarray:
    """The radial potential's Hessian G_ij = (delta_ij/x_i + F'')/2 at one
    point x, written out in full: what the closed-form inverse inverts."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (np.diag(1.0 / x) + d2F_value)


def inverse_hessian(x, d2F_value) -> list[list[float]]:
    """G^{-1} = 2*(diag(x) - w*x x^T), w = F''/(1 + t*F''), at one point x
    with F'' = d2F_value at t = sum(x), assembled from the closed-form
    entries Abreu's stencil reads; refuses a t where 1 + t*F'' is not safely
    positive."""
    t = sum(x)
    den = validity_factor(t, d2F_value)
    w = d2F_value / den
    return [
        [
            inverse_diagonal(xi, t - xi, d2F_value, den)
            if i == j
            else inverse_off_diagonal(xi, xj, w)
            for j, xj in enumerate(x)
        ]
        for i, xi in enumerate(x)
    ]


def legendre_F(K, f, t: float) -> float:
    """The t-potential F(t) = t*ln(s(t)/t) - 2*f(s(t)) of the Kahler
    potential f whose moment map K holds, through that map's inverse."""
    s = K.inverse(t)
    return t * math.log(s / t) - 2.0 * f(s)


def closed_form_coefficients(n: int, a: float, b: float):
    """Calabi's explicit coefficient formulas, evaluated exactly and rounded
    to float once, as a record."""
    _check_geometry(n, a, b)
    n = int(n)
    return _rounded(n, a, b, _closed_form(n, a, b))


def differences(f, x: float, h: float) -> tuple[float, float]:
    """f'(x) and f''(x) by ``numdiff.richardson`` on f at x, x +- h/2 and
    x +- h."""
    return richardson(*[f(x + k * h) for k in (-1.0, -0.5, 0.0, 0.5, 1.0)], h)


def fd_curvature_reference(T, t):
    """S = t^(1-n) * u''(t) by central differences on u = t^(n+1) W,
    W = F''/(1 + t*F''), from F'' alone: one Richardson level, step
    eps^(1/4)*t_max shrunk to half the room left in (t_min, t_max).  The
    reference the analytic ``radial_scalar_curvature`` must reproduce."""
    n = T.n
    h = min(STEP_SECOND * T.t_max, 0.5 * min(t - T.t_min, T.t_max - t))

    def u(tau):
        [f2] = T.d2F([tau])
        return tau ** (n + 1) * f2 / (1.0 + tau * f2)

    return t ** (1 - n) * differences(u, t, h)[1]


# --- the extremal profile on numpy arrays -------------------------------------
# The evaluation the package ran on arrays before its float layer moved to
# plain floats (``toricext.table``): the same formulas in the same order, on
# the record's float polynomials, with ``np.polyval`` and ``np.float_power``.
# The plain-float evaluation must give the same bits.


def _alpha_polys(E) -> tuple[np.ndarray, ...]:
    """alpha, alpha' and alpha'' as descending float coefficients."""
    alpha = np.array(E._float_alpha, dtype=float)
    d_alpha = np.polyder(alpha)
    return alpha, d_alpha, np.polyder(d_alpha)


def _check_profile_domain(E, t: np.ndarray) -> None:
    outside = ~((E.a < t) & (t < E.b))
    if np.any(outside):
        raise DomainViolation(f"t = {t[outside][0]} outside ({E.a}, {E.b})")


def _beta_guarded(E, t: np.ndarray) -> np.ndarray:
    """beta(t) with the interior pole guard, elementwise."""
    ptn = E.p * np.float_power(t, E.n)
    beta = ptn - np.polyval(_alpha_polys(E)[0], t)
    pole = np.abs(beta) <= POLE_REL_TOL * np.abs(ptn)
    if np.any(pole):
        raise PotentialPole(f"p*t^n - alpha vanishes at t = {t[pole][0]}")
    return beta


def array_F_second(E, t):
    """F''(t) = p*t^(n-1)/(p*t^n - alpha(t)) - 1/t on an array of t."""
    t = np.asarray(t, dtype=float)
    _check_profile_domain(E, t)
    beta = _beta_guarded(E, t)
    return E.p * np.float_power(t, E.n - 1) / beta - 1.0 / t


def array_F_derivatives(E, t):
    """(F''', F'''') on an array of t, differentiating r = p*t^(n-1)/beta."""
    n, p, power = E.n, E.p, np.float_power
    t = np.asarray(t, dtype=float)
    _, d_alpha, d2_alpha = _alpha_polys(E)
    beta = _beta_guarded(E, t)
    beta1 = n * p * power(t, n - 1) - np.polyval(d_alpha, t)
    beta2 = n * (n - 1) * p * power(t, n - 2) - np.polyval(d2_alpha, t)
    beta_sq = power(beta, 2)
    r1 = p * ((n - 1) * power(t, n - 2) / beta - power(t, n - 1) * beta1 / beta_sq)
    r2 = p * (
        (n - 1) * (n - 2) * power(t, n - 3) / beta
        - 2.0 * (n - 1) * power(t, n - 2) * beta1 / beta_sq
        - power(t, n - 1) * beta2 / beta_sq
        + 2.0 * power(t, n - 1) * power(beta1, 2) / power(beta, 3)
    )
    return r1 + 1.0 / power(t, 2), r2 - 2.0 / power(t, 3)


def array_h_second(E, t):
    """h''(t) = -V(t)/Q(t) - 1/t on an array of t, with the record's (V, Q)."""
    t = np.asarray(t, dtype=float)
    _check_profile_domain(E, t)
    V, Q = (np.array(c, float) for c in E._float_deflation)
    q_val = np.polyval(Q, t)
    zero = q_val == 0.0
    if np.any(zero):
        raise PotentialPole(f"deflated denominator vanishes at t = {t[zero][0]}")
    return -np.polyval(V, t) / q_val - 1.0 / t
