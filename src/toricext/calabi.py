"""Extremal t-potentials on the blow-up polytope: the profile at one t, and the
metric ``verify`` checks.

The coefficients (A, B, C, D), their exact checks and the deflated (V, Q)
come from ``exact``, in rational arithmetic; ``table`` evaluates the profile
they define in plain floats,

    F''(t) = p*t^(n-1)/(p*t^n - alpha(t)) - 1/t,      h''(t) = -V/Q - 1/t,

with F''' and F'''' for the curvature.  This module asks it for one t at a
time and builds the metric ``verify`` checks.  The public names of ``exact``
are re-exported, so ``toricext.calabi.solve_coefficients`` keeps working.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import TYPE_CHECKING

from . import table
from .exact import (  # the public names are re-exported
    ExtremalCoefficients,
    _h_second_exact,
    closed_form_coefficients,
    coefficient_cross_check,
    positivity_certificate,
    solve_coefficients,
)

if TYPE_CHECKING:
    from .polytope import BlowupPolytope
    from .radial import TPotential


def extremal_F_second(E: ExtremalCoefficients, t: float) -> float:
    """F''(t) = p*t^(n-1)/(p*t^n - alpha(t)) - 1/t at one t of (a, b).

    Validity of the metric is exactly positivity of the denominator.
    """
    return table.F_second(E, [t])[0]


def h_second(E: ExtremalCoefficients, t: float) -> float:
    """h''(t) = F''(t) - (b-a)/((t-a)(b-t)), the facet-regular remainder, at
    one t of (a, b).

    The two terms have exactly cancelling poles at the endpoints, so h'' is
    never taken as their difference: h'' = -V(t)/Q(t) - 1/t with the exact
    (V, Q) of the deflation in ``exact``, rounded once per coefficient set.
    A record that is not the extremal solution of its (n, a, b) raises
    ``InvalidParameters``.
    """
    return table.h_second(E, [t])[0]


def _endpoint_limits(E: ExtremalCoefficients, tolerance: float) -> tuple[bool, dict]:
    """Verdict and report: h'' is finite at both ends, and ``h_second`` is
    right next to them.  Exact part: Q(a), Q(b) < 0 are the end Bernstein
    coefficients, so h'' = -V/Q - 1/t has finite limits.  Float part:
    ``h_second`` at a + c*delta and b - c*delta against the exact h'' at the
    same float t, relative to the largest of those six |h''|.
    """
    offsets = [1e-6, 5e-7, 2.5e-7]
    ts = [E.a + E.c * d for d in offsets] + [E.b - E.c * d for d in offsets]
    got = [h_second(E, t) for t in ts]
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

    The curvature asks for F''' and F'''' in turn at the same t; both come
    from one ``table.F_derivatives`` evaluation, kept for the t asked for
    last.  Of the CLI commands only ``verify`` runs this, so the polytope and
    radial modules are imported here, not with calabi.
    """
    from .polytope import build_blowup_polytope
    from .radial import TPotential

    P = build_blowup_polytope(n, a, b)
    E = solve_coefficients(n, a, b)
    positivity_certificate(E)
    derivatives = lru_cache(maxsize=1)(lambda t: table.F_derivatives(E, t))
    T = TPotential(
        n=n,
        t_min=float(a),
        t_max=float(b),
        d2F=partial(extremal_F_second, E),
        d3F=lambda t: derivatives(t)[0],
        d4F=lambda t: derivatives(t)[1],
    )
    return P, T, E
