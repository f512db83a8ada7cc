"""Legendre bridge between Kahler potentials f(s) and t-potentials F(t).

For a U(n)-invariant metric with Kahler potential f(s) the moment coordinate
and the symplectic-side profile are

    t = 2*s*f'(s),        F(t) = t*ln(s(t)/t) - 2*f(s(t)),

and with s~ = ln s the curvature has Calabi's one-variable form.  Writing
t(s~) for the moment coordinate and t'(s~) for its s~-derivative (both must
be positive),

    v(s~) = n*s~ - (n-1)*ln t(s~) - ln t'(s~),
    S = (n-1)*v'(s~)/t(s~) + v''(s~)/t'(s~),

which this module evaluates as a third, symplectic-free curvature oracle.
The flat and Fubini-Study model potentials are built in as named presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainViolation,
    NonpositiveDerivative,
    NotInvertible,
    OutOfRange,
)
from .numdiff import EPS, power, richardson_first, richardson_second
from .radial import TPotential, radial_scalar_curvature

# base step (in s~) for the v and t' difference stencils: these functions are
# smooth on logarithmic scale, so a fat step plus one Richardson level beats
# a rounding-limited fine step by several digits
_LOG_STEP = 2.0**-6

# base steps (relative to max(1, s)) for derivative-free potentials: one
# Richardson level makes the first- and second-derivative stencils O(h^4), so
# truncation balances rounding (eps/h and eps/h^2) at eps^(1/5) and eps^(1/6)
_STEP_DF = EPS**0.2
_STEP_D2F = EPS ** (1.0 / 6.0)

_MAX_BRACKET_DOUBLINGS = 200
_MAX_NEWTON_STEPS = 100


@dataclass(frozen=True)
class KahlerPotential:
    """Radial Kahler potential f(s) on s > 0, with optional derivatives."""

    n: int
    f: Callable[[float], float]
    df: Optional[Callable[[float], float]] = None
    d2f: Optional[Callable[[float], float]] = None
    label: str = ""


def flat_potential(n: int) -> KahlerPotential:
    """f = s/2: the flat model (t = s, F'' = 0)."""
    return KahlerPotential(
        n=n, f=lambda s: 0.5 * s, df=lambda s: 0.5, d2f=lambda s: 0.0, label="flat"
    )


def fubini_study_potential(n: int) -> KahlerPotential:
    """f = ln(1+s)/2: Fubini-Study type (t = s/(1+s), S = n(n+1))."""
    return KahlerPotential(
        n=n,
        f=lambda s: 0.5 * math.log1p(s),
        df=lambda s: 0.5 / (1.0 + s),
        d2f=lambda s: -0.5 / (1.0 + s) ** 2,
        label="fubini-study",
    )


PRESETS: dict[str, Callable[[int], KahlerPotential]] = {
    "flat": flat_potential,
    "fubini-study": fubini_study_potential,
}


def _df(K: KahlerPotential, s: float) -> float:
    if K.df is not None:
        return K.df(s)
    h = _STEP_DF * max(1.0, abs(s))
    h = min(h, 0.5 * s)  # keep the stencil on s > 0
    return richardson_first(K.f, s, h)


def _d2f(K: KahlerPotential, s: float) -> float:
    if K.d2f is not None:
        return K.d2f(s)
    h = _STEP_D2F * max(1.0, abs(s))
    h = min(h, 0.5 * s)
    return richardson_second(K.f, s, h)


def t_of_s(K: KahlerPotential, s: float) -> float:
    """Moment coordinate t = 2*s*f'(s)."""
    if not s > 0.0:
        raise DomainViolation(f"s must be positive, got {s}")
    return 2.0 * s * _df(K, s)


def _moment_rate(K: KahlerPotential, s: float) -> float:
    """dt/ds~ = 2*(s*f' + s^2*f''), the s~-derivative of the moment map."""
    return 2.0 * (s * _df(K, s) + s * s * _d2f(K, s))


def s_of_t(K: KahlerPotential, t: float) -> float:
    """Invert the moment map: the s > 0 with 2*s*f'(s) = t.

    Brackets by geometric expansion from the initial guess s = t, then runs
    a safeguarded Newton iteration from the bracket midpoint (Numerical
    Recipes' rtsafe): each residual r shrinks the bracket by its sign, and
    the Newton step s - r*s/(dt/ds~) is taken unless it leaves the bracket
    or the rate is not positive, in which case the bracket is bisected.  It
    stops once the bracket is ~4 ulp wide relative and returns the end with
    the smaller residual.  Raises out-of-range when the expansion cannot
    straddle t, not-invertible when the moment map is not increasing at the
    bracket ends or the iteration does not converge.
    """
    if not t > 0.0:
        raise OutOfRange(f"t must be positive, got {t}")

    def residual(s: float) -> float:
        return t_of_s(K, s) - t

    lo = hi = float(t)
    r0 = residual(lo)
    if r0 == 0.0:
        return lo
    if r0 < 0.0:
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            hi *= 2.0
            if residual(hi) >= 0.0:
                break
        else:
            raise OutOfRange(f"t = {t} not reached by the moment map")
        lo = hi / 2.0
    else:
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            lo *= 0.5
            if residual(lo) <= 0.0:
                break
        else:
            raise OutOfRange(f"t = {t} below the image of the moment map")
        hi = lo * 2.0

    for end in (lo, hi):
        if _moment_rate(K, end) / end <= 0.0:  # dt/ds = (dt/ds~)/s
            raise NotInvertible(
                f"moment map not increasing at s = {end}; bracket invalid"
            )
    s = 0.5 * (lo + hi)
    for _ in range(_MAX_NEWTON_STEPS):
        r = residual(s)
        if r == 0.0:
            return s
        if r < 0.0:
            lo = s
        else:
            hi = s
        if hi - lo <= 4.0 * EPS * hi:
            break
        rate = _moment_rate(K, s)
        # dt/ds = rate/s; the rate is tested before it divides
        if rate > 0.0 and lo < s - r * s / rate < hi:
            s -= r * s / rate
        else:
            s = 0.5 * (lo + hi)
    else:
        raise NotInvertible(f"no convergence inverting t = {t}")
    root = min((lo, hi), key=lambda end: abs(residual(end)))
    if abs(residual(root)) > 1e-12 * max(1.0, abs(t)):
        raise NotInvertible(f"root finding stalled inverting t = {t}")
    return root


def F_of_t(K: KahlerPotential, t: float) -> float:
    """t-potential value F(t) = t*ln(s(t)/t) - 2*f(s(t))."""
    s = s_of_t(K, t)
    return t * math.log(s / t) - 2.0 * K.f(s)


def _v(K: KahlerPotential, st: float) -> float:
    s = math.exp(st)
    u1 = t_of_s(K, s)
    u2 = _moment_rate(K, s)
    if u1 <= 0.0 or u2 <= 0.0:
        raise NonpositiveDerivative(
            f"moment data not positive at s~ = {st}: t = {u1}, dt/ds~ = {u2}"
        )
    return K.n * st - (K.n - 1) * math.log(u1) - math.log(u2)


def calabi_scalar_curvature(K: KahlerPotential, s: float) -> float:
    """Curvature from the Kahler side: S = (n-1)*v'/t + v''/t'.

    v', v'' are Richardson-extrapolated central differences in s~ = ln s.
    """
    if not s > 0.0:
        raise DomainViolation(f"s must be positive, got {s}")
    st = math.log(s)
    h = _LOG_STEP * max(1.0, abs(st))
    v1 = richardson_first(lambda z: _v(K, z), st, h)
    v2 = richardson_second(lambda z: _v(K, z), st, h)
    u1 = t_of_s(K, s)
    u2 = _moment_rate(K, s)
    if u1 <= 0.0 or u2 <= 0.0:
        raise NonpositiveDerivative(
            f"moment data not positive at s = {s}: t = {u1}, dt/ds~ = {u2}"
        )
    return (K.n - 1) * v1 / u1 + v2 / u2


def induced_t_potential(
    K: KahlerPotential, t_min: float, t_max: float
) -> TPotential:
    """The TPotential the bridge induces on (t_min, t_max).

    F'' comes from the exact Legendre relation F''(t) = 1/t'(s~) - 1/t
    (differentiating F'(t) = ln s - ln t - 1); the third and fourth
    derivatives then need only s~-derivatives of t'(s~), taken by Richardson
    differences.  Evaluating the relation exactly instead of differencing
    F values keeps the induced profile at analytic accuracy, which the
    downstream curvature formula needs.

    The derivatives honour the TPotential array contract by mapping the
    scalar moment-map inversion over the elements of t.  The curvature asks
    for F'', F''' and F'''' in turn at the same t, so all three come from
    one jet per t (one inversion, one pair of rate slopes), and the jets of
    the t asked for last are kept.
    """

    def jet(t: float) -> tuple[float, float, float]:
        """dt/ds~ and its first two s~-derivatives at the s~ of t."""
        st = math.log(s_of_t(K, t))
        u2 = _moment_rate(K, math.exp(st))
        if u2 <= 0.0:
            raise NonpositiveDerivative(f"dt/ds~ = {u2} at t = {t}")
        h = _LOG_STEP * max(1.0, abs(st))

        def rate(z: float) -> float:
            return _moment_rate(K, math.exp(z))

        return u2, richardson_first(rate, st, h), richardson_second(rate, st, h)

    # (key, jets) of the t asked for last, replaced in one assignment
    last: list = [None]

    def jets(t: np.ndarray) -> np.ndarray:
        """The jet of every element of t, stacked on a new first axis."""
        key = (t.shape, t.tobytes())
        entry = last[0]
        if entry is None or entry[0] != key:
            rows = [jet(tk) for tk in t.ravel().tolist()]
            entry = (key, np.array(rows, dtype=float).reshape(t.shape + (3,)))
            last[0] = entry
        return np.moveaxis(entry[1], -1, 0)

    def d2F(t):
        t = np.asarray(t, dtype=float)
        u2, _, _ = jets(t)
        return 1.0 / u2 - 1.0 / t

    def d3F(t):
        t = np.asarray(t, dtype=float)
        u2, du2, _ = jets(t)
        return -du2 / power(u2, 3) + 1.0 / power(t, 2)

    def d4F(t):
        t = np.asarray(t, dtype=float)
        u2, du2, ddu2 = jets(t)
        return (
            -ddu2 / power(u2, 4)
            + 3.0 * power(du2, 2) / power(u2, 5)
            - 2.0 / power(t, 3)
        )

    return TPotential(
        n=K.n,
        t_min=t_min,
        t_max=t_max,
        d2F=d2F,
        d3F=d3F,
        d4F=d4F,
        F=lambda t: F_of_t(K, t),
    )


@dataclass(frozen=True)
class BridgeSample:
    s: float
    t: float
    kahler_side: float
    polytope_side: float
    difference: float


@dataclass(frozen=True)
class BridgeCheckReport:
    preset: str
    n: int
    samples: tuple
    max_discrepancy: float


def bridge_cross_check(
    K: KahlerPotential, s_samples: Sequence[float]
) -> BridgeCheckReport:
    """Compare the Kahler-side curvature against the radial pipeline.

    Each sample s is pushed to t = t_of_s(s); the radial formula then runs
    on the induced TPotential at all the t at once, while Calabi's formula
    runs at each s.
    """
    s_values = [float(s) for s in s_samples]
    if not s_values:
        raise DomainViolation("need at least one sample")
    ts = [t_of_s(K, s) for s in s_values]
    T = induced_t_potential(K, 0.0, 2.0 * max(ts) + 1.0)

    polytope_side = radial_scalar_curvature(T, np.array(ts)).tolist()

    rows = []
    worst = 0.0
    for s, t, rad in zip(s_values, ts, polytope_side):
        kah = calabi_scalar_curvature(K, s)
        diff = abs(kah - rad)
        worst = max(worst, diff)
        rows.append(
            BridgeSample(
                s=s, t=t, kahler_side=kah, polytope_side=rad, difference=diff
            )
        )
    return BridgeCheckReport(
        preset=K.label, n=K.n, samples=tuple(rows), max_discrepancy=worst
    )
