"""The float evaluation of the extremal profile, on the standard library only:
the columns F'' and h'' over a grid for ``profile``, and the jet of the
momentum profile over a list of t for the metric ``verify`` checks.

Everything reads the float deflation (V, Q), the exact one of ``exact``
rounded once per call (``_float_deflation``): p*t^n - alpha =
(t - a)(t - b)*Q(t) exactly, so the momentum profile of the metric is

    phi(t) = (t - a)(t - b)*Q(t)/(p*t^(n-1)),        F'' = 1/phi - 1/t,

with no cancellation as a/b -> 1, where p*t^n and alpha agree to many digits.
A call evaluates each polynomial at most tens of thousands of times, which
costs less in Python floats than importing numpy does, so Q and V are
evaluated by Horner's rule.  ``run_profile`` runs the ``profile`` command.
"""

import itertools
import math
import sys

from .errors import DegenerateMetric, DomainViolation, InvalidParameters
from .exact import ExtremalCoefficients, _deflation, _scaled, solve_coefficients
from .numdiff import grid, power

_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max


def _horner(coeffs: tuple[float, ...], t: float) -> float:
    value = 0.0
    for c in coeffs:
        value = value * t + c
    return value


def _horner_jet(coeffs: tuple[float, ...], t: float) -> tuple[float, float, float]:
    """The polynomial and its first two derivatives at t, in one pass."""
    value = d1 = half_d2 = 0.0
    for c in coeffs:
        half_d2 = half_d2 * t + d1
        d1 = d1 * t + value
        value = value * t + c
    return value, d1, 2.0 * half_d2


def _float_deflation(E: ExtremalCoefficients) -> tuple:
    """The exact (V, Q) of h'' (``exact._deflation``), each coefficient
    rounded to float; one past the float range, as at (n, a, b) =
    (6, 1e-163, 1e-160), is invalid input, as in ``exact._rounded``."""
    *polynomials, K = _deflation(E)
    e = _scaled(E.a, E.b)[0]
    try:
        # the t^k coefficient of P'(s*t)/K is P'_k*s^k/K
        return tuple(
            tuple((x << e * (len(P) - 1 - i)) / K for i, x in enumerate(P))
            for P in polynomials
        )
    except OverflowError:
        raise InvalidParameters(
            f"a coefficient of V or Q overflows a float for"
            f" (n={E.n}, a={E.a}, b={E.b})"
        ) from None


def _check_domain(E: ExtremalCoefficients, ts: list[float]) -> None:
    for t in ts:
        if not E.a < t < E.b:
            raise DomainViolation(f"t = {t} outside ({E.a}, {E.b})")


def profile_columns(
    E: ExtremalCoefficients, ts: list[float]
) -> tuple[list[float], list[float]]:
    """The lists (F'', h'') at the ts, all inside (a, b), from one Horner
    value of Q per t:

        F'' = p*t^(n-1)/((t - a)(t - b)*Q(t)) - 1/t,    h'' = -V(t)/Q(t) - 1/t,

    F'' dividing by one factor at a time, so that no product of them
    underflows to 0.  A record that is not the extremal solution of its
    (n, a, b) raises ``InvalidParameters``, and a t where the float Q
    vanishes, so that phi = 0 as ``jet`` returns it, ``DegenerateMetric``.
    """
    _check_domain(E, ts)
    n, p, a, b = E.n, E.p, E.a, E.b
    V, Q = _float_deflation(E)
    f2, h2 = [], []
    for t in ts:
        scale = p * power(t, n - 1)
        q = _horner(Q, t)
        if q == 0.0:
            raise DegenerateMetric(f"deflated denominator vanishes at t = {t}")
        f2.append(scale / q / (t - a) / (t - b) - 1.0 / t)
        h2.append(-_horner(V, t) / q - 1.0 / t)
    return f2, h2


def jet(
    E: ExtremalCoefficients, ts: list[float]
) -> tuple[list[float], list[float], list[float]]:
    """The lists (phi, phi', phi'') of the momentum profile at the ts, all
    inside (a, b).

    N = (t - a)(t - b)*Q and its two derivatives come from one Horner pass
    over Q by the product rule; phi = N/D with D = p*t^(n-1), whose
    logarithmic derivatives D'/D = (n-1)/t and D''/D = (n-1)(n-2)/t^2 give
    phi' and phi'' by the quotient rule.  Nothing divides by Q: a t where it
    vanishes gives phi = 0, which the metric refuses as degenerate.  Any
    other N that overflows, or falls below the normal floats and so has lost
    its digits, is invalid input naming the t, as in ``numdiff.power``.
    """
    _check_domain(E, ts)
    n, p, a, b = E.n, E.p, E.a, E.b
    Q = _float_deflation(E)[1]
    phi, dphi, d2phi = [], [], []
    for t in ts:
        q, q1, q2 = _horner_jet(Q, t)
        # (t - a)(t - b) and its derivatives 2t - a - b and 2
        ends, ends1 = (t - a) * (t - b), (t - a) + (t - b)
        num1 = ends1 * q + ends * q1
        num2 = 2.0 * (q + ends1 * q1) + ends * q2
        N = ends * q
        if q != 0.0 and not _NORMAL_MIN <= abs(N) <= _NORMAL_MAX:
            way = "overflows" if abs(N) > 1.0 else "underflows"
            raise InvalidParameters(f"(t - a)(t - b)*Q {way} a float at t = {t}")
        den = p * power(t, n - 1)
        f = N / den
        f1 = num1 / den - (n - 1) * f / t
        phi.append(f)
        dphi.append(f1)
        d2phi.append(num2 / den - (2.0 * (n - 1) * f1 + (n - 1) * (n - 2) * f / t) / t)
    return phi, dphi, d2phi


_PROFILE_KEYS = ("t", "F_second", "h_second", "S")


def run_profile(args) -> tuple[dict | tuple, str]:
    """``profile``: t, F'', h'' and S over an evenly spaced grid from
    a + c*1e-4 to b - c*1e-4, c = b - a, as a table (CSV) or a document
    (JSON).  A margin that rounds away next to a or b is invalid input."""
    from .cli import _Table

    E = solve_coefficients(args.n, args.a, args.b)
    margin = (args.b - args.a) * 1e-4
    lo, hi = args.a + margin, args.b - margin
    if lo == args.a or hi == args.b:
        raise InvalidParameters(
            f"margin {margin} rounds away next to a = {args.a} or b = {args.b}"
        )
    ts = grid(lo, hi, args.samples)
    columns = (ts, *profile_columns(E, ts), [E.A * t + E.B for t in ts])
    # the grid's t are finite; name the first other value that is not, by
    # its column and its t, where the renderer would name the value alone
    if not all(map(math.isfinite, itertools.chain(*columns[1:]))):
        bad = next(row for row in zip(*columns) if not all(map(math.isfinite, row)))
        key, value = next(c for c in zip(_PROFILE_KEYS, bad) if not math.isfinite(c[1]))
        raise InvalidParameters(f"non-finite {key} {value} at t = {bad[0]}")
    if args.format == "csv":
        return _Table(_PROFILE_KEYS, columns), ""
    doc = {
        "schema": 1,
        "command": "profile",
        "n": E.n,
        "a": E.a,
        "b": E.b,
        "columns": _PROFILE_KEYS,
        "rows": _Table(None, columns),
    }
    return doc, ""
