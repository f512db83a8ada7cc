"""Extremal t-potentials on the blow-up polytope.

The construction: with p = n(n+1)(n+2) and the quartic family

    alpha(t) = n*A*t^(n+2) + (n+2)*B*t^(n+1) + p*(C*t + D),

the profile F''(t) = p*t^(n-1)/(p*t^n - alpha(t)) - 1/t is the second
derivative of an extremal symplectic potential whose scalar curvature is the
affine function S(t) = A*t + B.  The four coefficients are pinned by boundary
conditions at t = a and t = b,

    alpha(a) = p*a^n,        alpha'(a) = (n-1)*p*a^(n-1),
    alpha(b) = p*b^n,        alpha'(b) = (n+1)*p*b^(n-1),

which say that p*t^n - alpha has simple roots at both endpoints with exactly
the residues that cancel the Guillemin log singularities of the boundary
facets.  That 4x4 system is solved exactly, in rational arithmetic, and the
result rounded to float once; it is the only coefficient path.  Calabi's
explicit closed forms, also evaluated exactly, are a hard cross-check of it
(see ``coefficient_cross_check``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DomainViolation,
    InvalidParameters,
    PositivityViolation,
    PotentialPole,
    SingularSystem,
    ZeroDenominator,
)
from .numdiff import keep_last, power
from .polytope import MomentPolytope, build_blowup_polytope
from .radial import TPotential, ValidityResult, validity_check

# p*t^n - alpha legitimately vanishes only at the endpoints; anything this
# close to zero in the interior is treated as a pole hit
POLE_REL_TOL = 1e-13


def _check_geometry(n: int, a: float, b: float) -> None:
    """The (n, a, b) preconditions shared by every coefficient entry point."""
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameters("a and b must be finite")
    if not 0.0 < a < b:
        raise InvalidParameters(f"need 0 < a < b, got a={a}, b={b}")


@dataclass(frozen=True)
class ExtremalCoefficients:
    """Coefficients (A, B, C, D) of alpha for the (n, a, b) blow-up family.

    The implied scalar curvature is S(t) = A*t + B; c = b - a and
    p = n(n+1)(n+2) are derived.
    """

    n: int
    a: float
    b: float
    A: float
    B: float
    C: float
    D: float

    def __post_init__(self) -> None:
        _check_geometry(self.n, self.a, self.b)

    @property
    def c(self) -> float:
        return self.b - self.a

    @property
    def p(self) -> float:
        return float(self.n * (self.n + 1) * (self.n + 2))

    # polynomial data of the profile, built once per coefficient set; the
    # arrays are read-only because every evaluation shares them
    @cached_property
    def _alpha(self) -> np.ndarray:
        coeffs = _alpha_coeffs(self.n, self.A, self.B, self.C, self.D)
        return _read_only(np.array(coeffs, dtype=float))

    @cached_property
    def _d_alpha(self) -> np.ndarray:
        return _read_only(np.polyder(self._alpha))

    @cached_property
    def _d2_alpha(self) -> np.ndarray:
        return _read_only(np.polyder(self._d_alpha))

    @cached_property
    def _exact_deflation(self) -> tuple[list, list]:
        return _deflation(self)

    @cached_property
    def _deflated(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(np.array(c, float)) for c in self._exact_deflation)


def _boundary_rows(n: int, a, b) -> list:
    """Augmented rows [coefficients of (A, B, C, D) | target] of the endpoint
    conditions alpha(a), alpha'(a), alpha(b), alpha'(b), in the number type
    of a and b."""
    p = n * (n + 1) * (n + 2)

    def value_row(e) -> list:
        return [n * e ** (n + 2), (n + 2) * e ** (n + 1), p * e, p]

    def slope_row(e) -> list:
        return [n * (n + 2) * e ** (n + 1), (n + 1) * (n + 2) * e**n, p, 0]

    return [
        value_row(a) + [p * a**n],
        slope_row(a) + [(n - 1) * p * a ** (n - 1)],
        value_row(b) + [p * b**n],
        slope_row(b) + [(n + 1) * p * b ** (n - 1)],
    ]


def boundary_system(n: int, a: float, b: float):
    """Matrix and right-hand side of the endpoint conditions on alpha.

    Rows are the coefficient vectors of (A, B, C, D) in alpha(a), alpha'(a),
    alpha(b), alpha'(b); the rhs carries the four endpoint targets.
    """
    _check_geometry(n, a, b)
    rows = np.array(_boundary_rows(n, float(a), float(b)), dtype=float)
    return rows[:, :4], rows[:, 4]


@lru_cache
def _exact_solution(n: int, a: float, b: float) -> tuple[Fraction, ...]:
    """(A, B, C, D) of the boundary system, exactly.

    The float (a, b) are exact rationals, so Gauss-Jordan elimination over
    ``Fraction`` gives the exact solution.  Cached: ``solve_coefficients``
    and the record's deflation both need it for the same geometry.
    """
    rows = [
        [Fraction(x) for x in row]
        for row in _boundary_rows(n, Fraction(float(a)), Fraction(float(b)))
    ]
    for col in range(4):
        pivot = next((r for r in range(col, 4) if rows[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(
                f"boundary system singular for (n={n}, a={a}, b={b})"
            )
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(4):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[k][4] / rows[k][k] for k in range(4))


def solve_coefficients(n: int, a: float, b: float) -> ExtremalCoefficients:
    """Authoritative coefficients: the boundary system solved exactly and
    rounded to float once.  A float solve loses digits as a/b -> 1, where the
    system degenerates.
    """
    _check_geometry(n, a, b)
    A, B, C, D = map(float, _exact_solution(n, a, b))
    return ExtremalCoefficients(n=n, a=float(a), b=float(b), A=A, B=B, C=C, D=D)


def closed_form_coefficients(n: int, a: float, b: float) -> ExtremalCoefficients:
    """Calabi's explicit coefficient formulas, the cross-check of the solve.

    Evaluated over ``Fraction`` and rounded once: the shared denominator has a
    fourth-order root at a = b, so float evaluation drifts as a/b -> 1.
    """
    _check_geometry(n, a, b)
    a, b = Fraction(float(a)), Fraction(float(b))

    den = (
        (a * b) ** n * (2 * n * (n + 2) * a * b - (a**2 + b**2) * (n + 1) ** 2)
        + a ** (2 * (n + 1))
        + b ** (2 * (n + 1))
    )
    if den == 0:
        raise ZeroDenominator(
            f"shared denominator vanishes for (n={n}, a={float(a)}, b={float(b)})"
        )

    A = (
        (n + 1)
        * (n + 2)
        * (
            (a * b) ** (n - 1)
            * (n * a**2 * (n + 1) + n * b**2 * (n - 1) - 2 * a * b * (n**2 - 1))
            - 2 * a ** (2 * n)
        )
        / den
    )
    B = (
        n
        * (n + 1)
        * (
            (a * b) ** (n - 1)
            * (
                a**2 * (n * b * (n + 2) - a * (n + 1) ** 2)
                + b**2 * (b * (1 - n**2) + a * (n**2 - 4))
            )
            + 3 * a ** (2 * n + 1)
            + b ** (2 * n + 1)
        )
        / den
    )
    C = (
        (a * b) ** (n - 1)
        * (
            (n + 1) * (a ** (n + 3) - a * b ** (n + 2) - 3 * b * a ** (n + 2))
            + ((n - 1) * b ** (n + 3) + 2 * (n + 2) * b**2 * a ** (n + 1))
        )
        / den
    )
    D = (
        (a * b) ** n
        * (
            b ** (n + 1) * (n * a - b * (n - 2))
            - 2 * a**n * b**2 * (n + 1)
            - n * a ** (n + 1) * (a - 3 * b)
        )
        / den
    )
    return ExtremalCoefficients(
        n=n, a=float(a), b=float(b), A=float(A), B=float(B), C=float(C), D=float(D)
    )


@dataclass(frozen=True)
class CoefficientCrossCheck:
    """Solve-vs-closed-form comparison, scale-aware.

    Deltas are |closed - solved| / max(1, max|solved coefficient|); the
    blanket scale keeps near-zero coefficients (A vanishes identically for
    n = 1) from turning rounding noise into spurious relative blowups.
    """

    solved: ExtremalCoefficients
    closed: ExtremalCoefficients
    deltas: dict
    max_delta: float
    tolerance: float
    status: str  # "ok" | "discrepancy"


def coefficient_cross_check(
    solved: ExtremalCoefficients, tolerance: float = 1e-9
) -> CoefficientCrossCheck:
    """Compare solved coefficients against the closed forms at their (n, a, b)."""
    closed = closed_form_coefficients(solved.n, solved.a, solved.b)
    scale = max(
        1.0, max(abs(v) for v in (solved.A, solved.B, solved.C, solved.D))
    )
    deltas = {
        name: abs(getattr(closed, name) - getattr(solved, name)) / scale
        for name in ("A", "B", "C", "D")
    }
    max_delta = max(deltas.values())
    status = "ok" if max_delta <= tolerance else "discrepancy"
    return CoefficientCrossCheck(
        solved=solved,
        closed=closed,
        deltas=deltas,
        max_delta=max_delta,
        tolerance=tolerance,
        status=status,
    )


def _read_only(coeffs: np.ndarray) -> np.ndarray:
    coeffs.flags.writeable = False
    return coeffs


def _alpha_coeffs(n: int, A, B, C, D) -> list:
    """Descending coefficients of alpha (degree n+2), in the number type of
    (A, B, C, D)."""
    p = n * (n + 1) * (n + 2)
    coeffs = [0] * (n + 3)
    coeffs[0] = n * A
    coeffs[1] = (n + 2) * B
    coeffs[n + 1] += p * C
    coeffs[n + 2] += p * D
    return coeffs


def alpha_eval(E: ExtremalCoefficients, t: float) -> tuple[float, float]:
    """(alpha(t), alpha'(t)) by Horner evaluation."""
    return float(np.polyval(E._alpha, t)), float(np.polyval(E._d_alpha, t))


def _check_profile_domain(E: ExtremalCoefficients, t: np.ndarray) -> None:
    outside = ~((E.a < t) & (t < E.b))
    if np.any(outside):
        raise DomainViolation(f"t = {t[outside][0]} outside ({E.a}, {E.b})")


def _beta_guarded(E: ExtremalCoefficients, t: np.ndarray) -> np.ndarray:
    """beta(t) with the interior pole guard, elementwise."""
    ptn = E.p * power(t, E.n)
    beta = ptn - np.polyval(E._alpha, t)
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
    beta = _beta_guarded(E, t)
    beta1 = n * p * power(t, n - 1) - np.polyval(E._d_alpha, t)
    beta2 = n * (n - 1) * p * power(t, n - 2) - np.polyval(E._d2_alpha, t)
    beta_sq = power(beta, 2)
    r1 = p * ((n - 1) * power(t, n - 2) / beta - power(t, n - 1) * beta1 / beta_sq)
    r2 = p * (
        (n - 1) * (n - 2) * power(t, n - 3) / beta
        - 2.0 * (n - 1) * power(t, n - 2) * beta1 / beta_sq
        - power(t, n - 1) * beta2 / beta_sq
        + 2.0 * power(t, n - 1) * power(beta1, 2) / power(beta, 3)
    )
    return r1 + 1.0 / power(t, 2), r2 - 2.0 / power(t, 3)


def _deflate(coeffs: list, root) -> tuple[list, object]:
    """Synthetic division by (t - root): quotient and remainder ([] is 0)."""
    quot, acc = [], 0
    for coeff in coeffs:
        quot.append(acc)
        acc = coeff + root * acc
    return quot[1:], acc


def _deflation(E: ExtremalCoefficients) -> tuple[list, list]:
    """Exact (V, Q) of the cancellation-free form of ``h_second``.

    Built over ``Fraction`` from the exact solution of the boundary system,
    which must round to the record's own (A, B, C, D): only then do the
    boundary identities hold and every remainder vanish exactly.
    """
    n, p = E.n, E.n * (E.n + 1) * (E.n + 2)
    exact = _exact_solution(n, E.a, E.b)
    if tuple(map(float, exact)) != (E.A, E.B, E.C, E.D):
        raise InvalidParameters(f"not the extremal coefficients of {E}")
    a, b = Fraction(E.a), Fraction(E.b)

    beta = [-x for x in _alpha_coeffs(n, *exact)]  # p*t^n - alpha
    beta[2] += p  # the p*t^n term sits two slots below the leading one
    P = [-(b - a) * x for x in beta]
    P[1] -= p
    P[2] += (a + b) * p
    P[3] -= a * b * p

    V, Q, rems = P, beta, []
    for root in (a, a, b, b):
        V, rem = _deflate(V, root)
        rems.append(rem)
    for root in (a, b):
        Q, rem = _deflate(Q, root)
        rems.append(rem)
    assert not any(rems), f"nonzero exact deflation remainder in {rems}"
    return V, Q


def h_second(E: ExtremalCoefficients, t):
    """h''(t) = F''(t) - (b-a)/((t-a)(b-t)), the facet-regular remainder.

    The two terms have exactly cancelling poles at the endpoints, so h'' is
    never taken as their difference.  By the boundary identities the combined
    numerator P = p*t^(n-1)*(t-a)*(b-t) - (b-a)*beta has double roots at both
    endpoints and beta has simple ones; dividing them out gives

        h''(t) = -V(t)/Q(t) - 1/t,
        V = P / ((t-a)^2 (t-b)^2),   Q = beta / ((t-a)(t-b)),

    with V and Q found once per coefficient set by exact synthetic division
    in rationals and rounded once.  A record that is not the extremal
    solution of its (n, a, b) raises ``InvalidParameters``.  Takes a scalar
    or an array of t.
    """
    t = np.asarray(t, dtype=float)
    _check_profile_domain(E, t)
    V, Q = E._deflated
    q_val = np.polyval(Q, t)
    zero = q_val == 0.0
    if np.any(zero):
        raise PotentialPole(f"deflated denominator vanishes at t = {t[zero][0]}")
    return -np.polyval(V, t) / q_val - 1.0 / t


def _endpoint_limits(E: ExtremalCoefficients, tolerance: float) -> tuple[bool, dict]:
    """Verdict and report: h'' is finite at both ends, and ``h_second`` is
    right next to them.  Exact part: Q(a), Q(b) != 0 in rationals, so
    h'' = -V/Q - 1/t has finite limits (the deflation remainders are 0).
    Float part: ``h_second`` at a + c*delta and b - c*delta against the exact
    h'' at the same float t, relative to max(1, |h''|).
    """
    V, Q = E._exact_deflation
    q_ends = [_deflate(Q, Fraction(E.a))[1], _deflate(Q, Fraction(E.b))[1]]
    offsets = [1e-6, 5e-7, 2.5e-7]
    ts = [E.a + E.c * d for d in offsets] + [E.b - E.c * d for d in offsets]
    got = h_second(E, ts).tolist()
    exact = [-_deflate(V, t)[1] / _deflate(Q, t)[1] - 1 / t for t in map(Fraction, ts)]
    error = max(abs(Fraction(g) - w) / max(1, abs(w)) for g, w in zip(got, exact))
    return all(q_ends) and error <= tolerance, {
        "offsets": offsets,
        "near_a": got[:3],
        "near_b": got[3:],
        "denominator_at_ends": [float(q) for q in q_ends],
        "max_error": float(error),
    }


def extremal_scalar_curvature(E: ExtremalCoefficients, t: float) -> float:
    """The curvature the construction is built to have: S(t) = A*t + B."""
    return E.A * t + E.B


def _checked_extremal_metric(
    n: int, a: float, b: float, validation_samples: int
) -> tuple[MomentPolytope, TPotential, ExtremalCoefficients, ValidityResult]:
    """``build_extremal_metric`` together with its validity grid's result.

    The radial curvature asks for F''' and F'''' in turn at the same t; both
    come from one ``_profile_derivatives`` evaluation per array of t.  For an
    extremal profile 1 + t*F'' = p*t^n/(p*t^n - alpha) is positive exactly
    where p*t^n - alpha is.
    """
    P = build_blowup_polytope(n, a, b)
    E = solve_coefficients(n, a, b)
    derivatives = keep_last(lambda t: _profile_derivatives(E, t))
    T = TPotential(
        n=n,
        t_min=float(a),
        t_max=float(b),
        d2F=lambda t: extremal_F_second(E, t),
        d3F=lambda t: derivatives(t)[0],
        d4F=lambda t: derivatives(t)[1],
    )
    validity = validity_check(T, validation_samples)
    if not validity.passed:
        raise PositivityViolation(
            f"1 + t*F'' = {validity.minimum:.3e} at t = {validity.t_at_minimum};"
            " no valid metric"
        )
    return P, T, E, validity


def build_extremal_metric(
    n: int, a: float, b: float, validation_samples: int = 1000
) -> tuple[MomentPolytope, TPotential, ExtremalCoefficients]:
    """Polytope, extremal profile, and coefficients for one (n, a, b).

    The returned TPotential carries analytic third and fourth derivatives, so
    the radial curvature pipeline runs on its exact path.  The metric is
    checked on ``validity_check``'s interior grid first.
    """
    P, T, E, _ = _checked_extremal_metric(n, a, b, validation_samples)
    return P, T, E
