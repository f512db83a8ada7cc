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
A potential is its moment map s -> (t, t') and that map's closed-form
inverse; the flat (s = t) and Fubini-Study (s = t/(1 - t)) presets are
built in.  All of it runs on floats and the standard library.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import partial

from .errors import DomainViolation, NonpositiveDerivative
from .numdiff import richardson
from .radial import TPotential, radial_scalar_curvature
from .record import Record

# base step (in s~) for the v and t' difference stencils: these functions are
# smooth on logarithmic scale, so a fat step plus one Richardson level beats
# a rounding-limited fine step by several digits
_LOG_STEP = 2.0**-6


class KahlerPotential(Record):
    """Radial Kahler potential f(s) on s > 0 as its moment map; the bridge
    reads nothing of f itself.  moment(s) is (t, dt/ds~) =
    (2*s*f'(s), 2*(s*f' + s^2*f'')) from one call, and inverse(t) is the
    s > 0 with t(s) = t; it raises DomainViolation, naming t, for a t outside
    the image."""

    _fields = ("n", "moment", "inverse", "label")

    def __init__(
        self, n: int, moment: Callable, inverse: Callable, label: str = ""
    ) -> None:
        super().__init__(n, moment, inverse, label)


def _flat_inverse(t: float) -> float:
    if not t > 0.0:
        raise DomainViolation(f"t must be positive, got {t}")
    return t


def flat_potential(n: int) -> KahlerPotential:
    """f = s/2: the flat model (t = s, F'' = 0)."""
    return KahlerPotential(n, lambda s: (s, s), _flat_inverse, "flat")


def _fubini_study_moment(s: float) -> tuple[float, float]:
    df = 0.5 / (1.0 + s)
    return 2.0 * s * df, 2.0 * (s * df - s * s * (0.5 / (1.0 + s) ** 2))


def _fubini_study_inverse(t: float) -> float:
    # the image is (0, 1); t = 1 would divide by zero
    if not 0.0 < t < 1.0:
        raise DomainViolation(f"t must lie in (0, 1), got {t}")
    return t / (1.0 - t)


def fubini_study_potential(n: int) -> KahlerPotential:
    """f = ln(1+s)/2: Fubini-Study type (t = s/(1+s), S = n(n+1))."""
    return KahlerPotential(
        n, _fubini_study_moment, _fubini_study_inverse, "fubini-study"
    )


PRESETS: dict[str, Callable[[int], KahlerPotential]] = {
    "flat": flat_potential,
    "fubini-study": fubini_study_potential,
}


def _moment(K: KahlerPotential, s: float) -> tuple[float, float]:
    """t and dt/ds~ at s, which must be positive."""
    if not s > 0.0:
        raise DomainViolation(f"s must be positive, got {s}")
    return K.moment(s)


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


def _induced_jet(K: KahlerPotential, ts: Sequence[float]) -> tuple[list[float], ...]:
    """The lists (F'', F''', F'''') of the induced profile at the ts, from
    one inverse and one Richardson stencil of dt/ds~ per t."""
    f2, f3, f4 = [], [], []
    for t in ts:
        st = math.log(K.inverse(t))
        u2, du2, ddu2 = richardson(partial(_rate, K), st, _LOG_STEP * max(1.0, abs(st)))
        if u2 <= 0.0:
            raise NonpositiveDerivative(f"dt/ds~ = {u2} at t = {t}")
        f2.append(1.0 / u2 - 1.0 / t)
        f3.append(-du2 / u2**3 + 1.0 / t**2)
        f4.append(-ddu2 / u2**4 + 3.0 * du2**2 / u2**5 - 2.0 / t**3)
    return f2, f3, f4


def _induced_second(K: KahlerPotential, ts: Sequence[float]) -> list[float]:
    """F'' of the induced profile at the ts, from one inverse and one dt/ds~
    per t: the jet's first list to the bit, whose F'' reads the stencil's
    centre value."""
    f2 = []
    for t in ts:
        u2 = _rate(K, math.log(K.inverse(t)))
        if u2 <= 0.0:
            raise NonpositiveDerivative(f"dt/ds~ = {u2} at t = {t}")
        f2.append(1.0 / u2 - 1.0 / t)
    return f2


def induced_t_potential(K: KahlerPotential, t_min: float, t_max: float) -> TPotential:
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

    Each sample s is pushed to its moment coordinate t; the radial curvature
    formula runs on the ts and the induced TPotential's jet there, and
    Calabi's formula on s.  Every t is below the end 2*max(t) + 1 of the
    induced interval, and the radial formula refuses a t <= 0.
    """
    s = tuple(map(float, s_samples))
    if not s:
        raise DomainViolation("need at least one sample")
    t = tuple(_moment(K, x)[0] for x in s)
    T = induced_t_potential(K, 0.0, 2.0 * max(t) + 1.0)
    polytope_side = tuple(radial_scalar_curvature(T, t))
    kahler_side = tuple(calabi_scalar_curvature(K, x) for x in s)
    difference = tuple(abs(k - p) for k, p in zip(kahler_side, polytope_side))
    # max() skips a NaN that is not first; the worst difference must show it
    worst = math.nan if any(d != d for d in difference) else max(difference)
    return BridgeCheckReport(
        K.label, K.n, s, t, kahler_side, polytope_side, difference, worst
    )
