"""The float evaluation of the extremal profile, on the standard library only:
F'' and h'' over a grid for ``profile``, and F''' and F'''' at one t for the
metric ``verify`` checks.

A call evaluates each polynomial at most tens of thousands of times, which
costs less in Python floats than importing numpy does, so the record's float
polynomials (rounded once in ``exact``) are evaluated by Horner's rule.  The
formulas, their order of operations and the guards are those of the numpy
array evaluation the package used before, which the test suite keeps as its
reference, and the two give the same bits: ``np.polyval`` is Horner from 0.0,
``np.float_power`` is C ``pow`` as float ``**`` is, ``np.polyder`` multiplies
each coefficient by its degree, and ``numdiff.grid`` is ``np.linspace``.
"""

from __future__ import annotations

from .errors import DomainViolation, InvalidParameters, PotentialPole
from .exact import POLE_REL_TOL, ExtremalCoefficients


def _horner(coeffs: tuple[float, ...], t: float) -> float:
    value = 0.0
    for c in coeffs:
        value = value * t + c
    return value


def _derivative(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Descending coefficients of the derivative: each times its degree."""
    degree = len(coeffs) - 1
    return tuple(c * (degree - i) for i, c in enumerate(coeffs[:-1]))


def _power(t: float, k: int) -> float:
    # C pow, as np.float_power; where numpy answers inf, float ** raises
    try:
        return t**k
    except OverflowError:
        raise InvalidParameters(f"t^{k} overflows a float at t = {t}") from None


def _check_domain(E: ExtremalCoefficients, ts: list[float]) -> None:
    for t in ts:
        if not E.a < t < E.b:
            raise DomainViolation(f"t = {t} outside ({E.a}, {E.b})")


def F_second(E: ExtremalCoefficients, ts: list[float]) -> list[float]:
    """F''(t) = p*t^(n-1)/(p*t^n - alpha(t)) - 1/t at each t of ts."""
    _check_domain(E, ts)
    n, p, alpha = E.n, E.p, E._float_alpha
    ptns = [p * _power(t, n) for t in ts]
    betas = [ptn - _horner(alpha, t) for t, ptn in zip(ts, ptns)]
    for t, ptn, beta in zip(ts, ptns, betas):
        if abs(beta) <= POLE_REL_TOL * abs(ptn):
            raise PotentialPole(f"p*t^n - alpha vanishes at t = {t}")
    return [p * _power(t, n - 1) / beta - 1.0 / t for t, beta in zip(ts, betas)]


def h_second(E: ExtremalCoefficients, ts: list[float]) -> list[float]:
    """h''(t) = -V(t)/Q(t) - 1/t at each t of ts, with the record's (V, Q); a
    record that is not the extremal solution of its (n, a, b) raises
    ``InvalidParameters``."""
    _check_domain(E, ts)
    V, Q = E._float_deflation
    qs = [_horner(Q, t) for t in ts]
    for t, q in zip(ts, qs):
        if q == 0.0:
            raise PotentialPole(f"deflated denominator vanishes at t = {t}")
    return [-_horner(V, t) / q - 1.0 / t for t, q in zip(ts, qs)]


def F_derivatives(E: ExtremalCoefficients, t: float) -> tuple[float, float]:
    """(F''', F'''') at t, differentiating r = p*t^(n-1)/beta analytically.

    Only the pole is guarded; the caller keeps t inside (a, b).
    """
    n, p, alpha = E.n, E.p, E._float_alpha
    d_alpha = _derivative(alpha)
    ptn = p * _power(t, n)
    beta = ptn - _horner(alpha, t)
    if abs(beta) <= POLE_REL_TOL * abs(ptn):
        raise PotentialPole(f"p*t^n - alpha vanishes at t = {t}")
    beta1 = n * p * _power(t, n - 1) - _horner(d_alpha, t)
    beta2 = n * (n - 1) * p * _power(t, n - 2) - _horner(_derivative(d_alpha), t)
    beta_sq = _power(beta, 2)
    r1 = p * ((n - 1) * _power(t, n - 2) / beta - _power(t, n - 1) * beta1 / beta_sq)
    r2 = p * (
        (n - 1) * (n - 2) * _power(t, n - 3) / beta
        - 2.0 * (n - 1) * _power(t, n - 2) * beta1 / beta_sq
        - _power(t, n - 1) * beta2 / beta_sq
        + 2.0 * _power(t, n - 1) * _power(beta1, 2) / _power(beta, 3)
    )
    return r1 + 1.0 / _power(t, 2), r2 - 2.0 / _power(t, 3)
