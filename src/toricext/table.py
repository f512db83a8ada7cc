"""The profile table in plain floats: F'' and h'' over a grid, on the standard
library only.

``profile`` evaluates each polynomial once per row, and up to tens of
thousands of rows cost less in Python floats than importing numpy does, so it
evaluates the record's float polynomials (rounded once in ``exact``) by
Horner's rule.  The formulas, the order of operations and the guards are
those of ``calabi.extremal_F_second`` and ``calabi.h_second``, which evaluate
the same polynomials on arrays for ``verify``, so the two give the same bits:
``np.polyval`` is Horner from 0.0, ``numdiff.power`` is C ``pow`` as float
``**`` is, and ``grid`` is ``np.linspace``.
"""

from __future__ import annotations

from .errors import DomainViolation, InvalidParameters, PotentialPole
from .exact import POLE_REL_TOL, ExtremalCoefficients


def grid(lo: float, hi: float, num: int) -> list[float]:
    """``np.linspace(lo, hi, num)``: i*step + lo, the last point set to hi.

    A step that underflows to 0 is taken as (i/div)*delta, as numpy does.
    """
    div = num - 1
    delta = hi - lo
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    if step == 0:
        ts = [i / div * delta + lo for i in range(num)]
    else:
        ts = [i * step + lo for i in range(num)]
    ts[-1] = hi
    return ts


def _horner(coeffs: tuple[float, ...], t: float) -> float:
    value = 0.0
    for c in coeffs:
        value = value * t + c
    return value


def _power(t: float, k: int) -> float:
    # C pow, as numdiff.power; where numpy answers inf, float ** raises
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
