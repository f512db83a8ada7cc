"""Extremal t-potentials on the blow-up polytope: the float profile.

The coefficients (A, B, C, D), their exact checks and the deflated (V, Q)
come from ``exact``, in rational arithmetic; this module evaluates the
profile they define on float arrays,

    F''(t) = p*t^(n-1)/(p*t^n - alpha(t)) - 1/t,      h''(t) = -V/Q - 1/t,

with F''' and F'''' for the curvature, and builds the metric ``verify``
checks.  ``verify`` evaluates F'' thousands of times per call, where arrays
pay for numpy; ``profile`` tabulates F'' and h'' once, in plain floats, with
``table``, which gives the same bits.  The public names of ``exact`` are
re-exported, so ``toricext.calabi.solve_coefficients`` keeps working.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainViolation, PotentialPole
from .exact import (  # the public names are re-exported
    POLE_REL_TOL,
    ExtremalCoefficients,
    _h_second_exact,
    closed_form_coefficients,
    coefficient_cross_check,
    positivity_certificate,
    solve_coefficients,
)
from .numdiff import keep_last, power

if TYPE_CHECKING:
    from .polytope import BlowupPolytope
    from .radial import TPotential


def _read_only(coeffs: np.ndarray) -> np.ndarray:
    # the cached arrays of a record are shared by all of its evaluations
    coeffs.flags.writeable = False
    return coeffs


@lru_cache
def _alpha_polys(E: ExtremalCoefficients) -> tuple[np.ndarray, ...]:
    """alpha, alpha' and alpha'' as descending float coefficients."""
    alpha = np.array(E._float_alpha, dtype=float)
    d_alpha = np.polyder(alpha)
    return tuple(map(_read_only, (alpha, d_alpha, np.polyder(d_alpha))))


@lru_cache
def _deflated(E: ExtremalCoefficients) -> tuple[np.ndarray, ...]:
    """The record's float (V, Q) of ``h_second`` as arrays."""
    return tuple(_read_only(np.array(c, float)) for c in E._float_deflation)


def _check_profile_domain(E: ExtremalCoefficients, t: np.ndarray) -> None:
    outside = ~((E.a < t) & (t < E.b))
    if np.any(outside):
        raise DomainViolation(f"t = {t[outside][0]} outside ({E.a}, {E.b})")


def _beta_guarded(E: ExtremalCoefficients, t: np.ndarray) -> np.ndarray:
    """beta(t) with the interior pole guard, elementwise."""
    ptn = E.p * power(t, E.n)
    beta = ptn - np.polyval(_alpha_polys(E)[0], t)
    pole = np.abs(beta) <= POLE_REL_TOL * np.abs(ptn)
    if np.any(pole):
        raise PotentialPole(f"p*t^n - alpha vanishes at t = {t[pole][0]}")
    return beta


def extremal_F_second(E: ExtremalCoefficients, t):
    """F''(t) = p*t^(n-1)/(p*t^n - alpha(t)) - 1/t on (a, b).

    Takes a scalar or an array of t.  Validity of the metric is exactly
    positivity of the denominator.
    """
    t = np.asarray(t, dtype=float)
    _check_profile_domain(E, t)
    beta = _beta_guarded(E, t)
    return E.p * power(t, E.n - 1) / beta - 1.0 / t


def _profile_derivatives(E: ExtremalCoefficients, t):
    """(F''', F'''') at t, differentiating r = p*t^(n-1)/beta analytically."""
    n, p = E.n, E.p
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


def h_second(E: ExtremalCoefficients, t):
    """h''(t) = F''(t) - (b-a)/((t-a)(b-t)), the facet-regular remainder.

    The two terms have exactly cancelling poles at the endpoints, so h'' is
    never taken as their difference: h'' = -V(t)/Q(t) - 1/t with the exact
    (V, Q) of the deflation in ``exact``, rounded once per coefficient set.
    A record that is not the extremal solution of its (n, a, b) raises
    ``InvalidParameters``.  Takes a scalar or an array of t.
    """
    t = np.asarray(t, dtype=float)
    _check_profile_domain(E, t)
    V, Q = _deflated(E)
    q_val = np.polyval(Q, t)
    zero = q_val == 0.0
    if np.any(zero):
        raise PotentialPole(f"deflated denominator vanishes at t = {t[zero][0]}")
    return -np.polyval(V, t) / q_val - 1.0 / t


def _endpoint_limits(E: ExtremalCoefficients, tolerance: float) -> tuple[bool, dict]:
    """Verdict and report: h'' is finite at both ends, and ``h_second`` is
    right next to them.  Exact part: Q(a), Q(b) < 0 are the end Bernstein
    coefficients, so h'' = -V/Q - 1/t has finite limits.  Float part:
    ``h_second`` at a + c*delta and b - c*delta against the exact h'' at the
    same float t, relative to the largest of those six |h''|.
    """
    offsets = [1e-6, 5e-7, 2.5e-7]
    ts = [E.a + E.c * d for d in offsets] + [E.b - E.c * d for d in offsets]
    got = h_second(E, ts).tolist()
    exact = [_h_second_exact(E, t) for t in map(Fraction, ts)]
    error = max(abs(Fraction(g) - w) for g, w in zip(got, exact)) / max(map(abs, exact))
    return error <= tolerance, {
        "offsets": offsets,
        "near_a": got[:3],
        "near_b": got[3:],
        "denominator_at_ends": [float(E._bernstein[0]), float(E._bernstein[-1])],
        "max_error": float(error),
    }


def extremal_scalar_curvature(E: ExtremalCoefficients, t: float) -> float:
    """The curvature the construction is built to have: S(t) = A*t + B."""
    return E.A * t + E.B


def build_extremal_metric(
    n: int, a: float, b: float
) -> tuple[BlowupPolytope, TPotential, ExtremalCoefficients]:
    """Polytope, extremal profile, and coefficients for one (n, a, b), after
    ``positivity_certificate`` has proved the metric valid.

    F''' and F'''' at the same t come from one ``_profile_derivatives``
    evaluation.  Of the CLI commands only ``verify`` runs this, so the
    polytope and radial modules are imported here, not with calabi.
    """
    from .polytope import build_blowup_polytope
    from .radial import TPotential

    P = build_blowup_polytope(n, a, b)
    E = solve_coefficients(n, a, b)
    positivity_certificate(E)
    derivatives = keep_last(lambda t: _profile_derivatives(E, t))
    T = TPotential(
        n=n,
        t_min=float(a),
        t_max=float(b),
        d2F=lambda t: extremal_F_second(E, t),
        d3F=lambda t: derivatives(t)[0],
        d4F=lambda t: derivatives(t)[1],
    )
    return P, T, E
