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
Every function of s or t takes one float and returns one float, and the
induced profile takes a list of t, on the standard library alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import partial

from .errors import DomainViolation, NonpositiveDerivative, NotInvertible, OutOfRange
from .numdiff import EPS, richardson
from .radial import TPotential, radial_scalar_curvature
from .record import Record

# base step (in s~) for the v and t' difference stencils: these functions are
# smooth on logarithmic scale, so a fat step plus one Richardson level beats
# a rounding-limited fine step by several digits
_LOG_STEP = 2.0**-6

_MAX_BRACKET_DOUBLINGS = 200
_MAX_NEWTON_STEPS = 100

# a potential or one of its derivatives: s in, its value there out
PotentialFn = Callable[[float], float]


class KahlerPotential(Record):
    """Radial Kahler potential f(s) on s > 0, through its first two
    derivatives, each a function of one float s; the bridge reads nothing
    of f itself."""

    _fields = ("n", "df", "d2f", "label")

    def __init__(
        self, n: int, df: PotentialFn, d2f: PotentialFn, label: str = ""
    ) -> None:
        super().__init__(n, df, d2f, label)


def flat_potential(n: int) -> KahlerPotential:
    """f = s/2: the flat model (t = s, F'' = 0)."""
    return KahlerPotential(n=n, df=lambda s: 0.5, d2f=lambda s: 0.0, label="flat")


def fubini_study_potential(n: int) -> KahlerPotential:
    """f = ln(1+s)/2: Fubini-Study type (t = s/(1+s), S = n(n+1))."""
    return KahlerPotential(
        n=n,
        df=lambda s: 0.5 / (1.0 + s),
        d2f=lambda s: -0.5 / (1.0 + s) ** 2,
        label="fubini-study",
    )


PRESETS: dict[str, Callable[[int], KahlerPotential]] = {
    "flat": flat_potential,
    "fubini-study": fubini_study_potential,
}


def t_of_s(K: KahlerPotential, s: float) -> float:
    """Moment coordinate t = 2*s*f'(s)."""
    if not s > 0.0:
        raise DomainViolation(f"s must be positive, got {s}")
    return 2.0 * s * K.df(s)


def _moment(K: KahlerPotential, s: float) -> tuple[float, float]:
    """t = 2*s*f'(s) and its s~-derivative dt/ds~ = 2*(s*f' + s^2*f''), from
    one evaluation of f'(s)."""
    if not s > 0.0:
        raise DomainViolation(f"s must be positive, got {s}")
    df_s = K.df(s)
    return 2.0 * s * df_s, 2.0 * (s * df_s + s * s * K.d2f(s))


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

    # bracket: double hi while the residual at s = t is negative, halve lo
    # while it is positive; a t with residual 0 is its own root
    r = t_of_s(K, t) - t
    if r == 0.0:
        return t
    if r < 0.0:
        hi = t
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            hi *= 2.0
            if t_of_s(K, hi) - t >= 0.0:
                break
        else:
            raise OutOfRange(f"t = {t} not reached by the moment map")
        lo = hi / 2.0
    else:
        lo = t
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            lo *= 0.5
            if t_of_s(K, lo) - t <= 0.0:
                break
        else:
            raise OutOfRange(f"t = {t} below the image of the moment map")
        hi = lo * 2.0

    # the moment map must be increasing at both ends, lo checked first
    for end in (lo, hi):
        if _moment(K, end)[1] / end <= 0.0:  # dt/ds = (dt/ds~)/s
            raise NotInvertible(
                f"moment map not increasing at s = {end}; bracket invalid"
            )

    # safeguarded Newton until the bracket closes or a root is exact
    s = 0.5 * (lo + hi)
    for _ in range(_MAX_NEWTON_STEPS):
        t_s, rate = _moment(K, s)
        r = t_s - t
        if r == 0.0:
            return s
        if r < 0.0:
            lo = s
        else:
            hi = s
        if hi - lo <= 4.0 * EPS * hi:
            break
        # dt/ds = rate/s; a rate that is not positive bisects
        if rate > 0.0:
            step = s - r * s / rate
            if lo < step < hi:
                s = step
                continue
        s = 0.5 * (lo + hi)
    else:
        raise NotInvertible(f"no convergence inverting t = {t}")

    # the end with the smaller residual, which must be small
    r_lo = abs(t_of_s(K, lo) - t)
    r_hi = abs(t_of_s(K, hi) - t)
    root, r = (hi, r_hi) if r_hi < r_lo else (lo, r_lo)
    if r > 1e-12 * max(1.0, abs(t)):
        raise NotInvertible(f"root finding stalled inverting t = {t}")
    return root


def _v(K: KahlerPotential, st: float) -> float:
    u1, u2 = _moment(K, math.exp(st))
    if u1 <= 0.0 or u2 <= 0.0:
        raise NonpositiveDerivative(
            f"moment data not positive at s~ = {st}: t = {u1}, dt/ds~ = {u2}"
        )
    return K.n * st - (K.n - 1) * math.log(u1) - math.log(u2)


def calabi_scalar_curvature(K: KahlerPotential, s: float) -> float:
    """Curvature from the Kahler side: S = (n-1)*v'/t + v''/t'.

    v', v'' are Richardson-extrapolated central differences in s~ = ln s.
    """
    u1, u2 = _moment(K, s)  # refuses s <= 0 before the logarithm
    st = math.log(s)
    _, v1, v2 = richardson(partial(_v, K), st, _LOG_STEP * max(1.0, abs(st)))
    if u1 <= 0.0 or u2 <= 0.0:
        raise NonpositiveDerivative(
            f"moment data not positive at s = {s}: t = {u1}, dt/ds~ = {u2}"
        )
    return (K.n - 1) * v1 / u1 + v2 / u2


def _rate(K: KahlerPotential, st: float) -> float:
    """dt/ds~ at s~ = st."""
    return _moment(K, math.exp(st))[1]


def _induced_jet(
    K: KahlerPotential, ts: Sequence[float]
) -> tuple[list[float], list[float], list[float]]:
    """The lists (F'', F''', F'''') of the induced profile at the ts, from
    one inversion and one Richardson stencil of dt/ds~ per t."""
    f2, f3, f4 = [], [], []
    for t in ts:
        st = math.log(s_of_t(K, t))
        u2, du2, ddu2 = richardson(partial(_rate, K), st, _LOG_STEP * max(1.0, abs(st)))
        if u2 <= 0.0:
            raise NonpositiveDerivative(f"dt/ds~ = {u2} at t = {t}")
        f2.append(1.0 / u2 - 1.0 / t)
        f3.append(-du2 / u2**3 + 1.0 / t**2)
        f4.append(-ddu2 / u2**4 + 3.0 * du2**2 / u2**5 - 2.0 / t**3)
    return f2, f3, f4


def _induced_second(K: KahlerPotential, ts: Sequence[float]) -> list[float]:
    """F'' of the induced profile at the ts, from one inversion and one dt/ds~
    per t: the jet's first list to the bit, whose F'' reads the stencil's
    centre value."""
    f2 = []
    for t in ts:
        u2 = _rate(K, math.log(s_of_t(K, t)))
        if u2 <= 0.0:
            raise NonpositiveDerivative(f"dt/ds~ = {u2} at t = {t}")
        f2.append(1.0 / u2 - 1.0 / t)
    return f2


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
    """
    return TPotential(
        K.n, t_min, t_max, partial(_induced_second, K), partial(_induced_jet, K)
    )


class BridgeCheckReport(Record):
    """Per-sample columns (tuples) and their worst difference."""

    _fields = (
        "preset", "n", "s", "t", "kahler_side", "polytope_side", "difference",
        "max_discrepancy",
    )


def bridge_cross_check(
    K: KahlerPotential, s_samples: Sequence[float]
) -> BridgeCheckReport:
    """Compare the Kahler-side curvature against the radial pipeline.

    Each sample s is pushed to t = t_of_s(s); the radial curvature formula
    runs on the ts and the induced TPotential's jet there, and Calabi's
    formula on s.  Every t is below the end 2*max(t) + 1 of the induced
    interval, and the radial formula refuses a t <= 0.
    """
    s = tuple(map(float, s_samples))
    if not s:
        raise DomainViolation("need at least one sample")
    t = tuple(t_of_s(K, x) for x in s)
    T = induced_t_potential(K, 0.0, 2.0 * max(t) + 1.0)
    polytope_side = tuple(radial_scalar_curvature(T, t))
    kahler_side = tuple(calabi_scalar_curvature(K, x) for x in s)
    difference = tuple(abs(k - p) for k, p in zip(kahler_side, polytope_side))
    # max() skips a NaN that is not first; the worst difference must show it
    worst = math.nan if any(d != d for d in difference) else max(difference)
    return BridgeCheckReport(
        K.label, K.n, s, t, kahler_side, polytope_side, difference, worst
    )
