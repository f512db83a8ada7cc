"""Legendre bridge between Kahler potentials f(s) and t-potentials F(t).

For a U(n)-invariant metric with Kahler potential f(s) the moment coordinate
and the symplectic-side profile are

    t = 2*s*f'(s),        F(t) = t*ln(s(t)/t) - 2*f(s(t)),

and with s~ = ln s the curvature has Calabi's one-variable form.  Writing
t', t'', t''' for the s~-derivatives of the moment coordinate t (t and t'
must be positive),

    v(s~) = n*s~ - (n-1)*ln t - ln t',
    v' = n - (n-1)*t'/t - t''/t',
    v'' = -(n-1)*(t''/t - (t'/t)^2) - t'''/t' + (t''/t')^2,
    S = (n-1)*v'/t + v''/t',

which this module evaluates from the closed-form jet (t, t', t'', t''') as a
third, symplectic-free curvature oracle.  A potential is that jet as a
function of s and the moment map's closed-form inverse; the flat (s = t) and
Fubini-Study (s = t/(1 - t)) presets are built in.  The polytope side reads
the induced momentum profile, phi(t) = t' as a function of t, and
differentiates t' numerically instead, so a jet that disagrees with its own
moment map fails the cross-check.  All of it runs on floats and the standard
library.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import partial

from .errors import DomainViolation, NonpositiveDerivative
from .numdiff import richardson
from .radial import TPotential, radial_scalar_curvature
from .record import Record

# the polytope side's difference step in s~: t' is smooth on logarithmic
# scale, so a fat step plus one Richardson level beats a rounding-limited fine
# step by several digits; a constant step does not depend on the units of s
_LOG_STEP = 2.0**-6
# the stencil's abscissae s*e^(k*h) but the centre s itself, as factors of s
_STENCIL = tuple(math.exp(k * _LOG_STEP) for k in (-1.0, -0.5, 0.5, 1.0))


class KahlerPotential(Record):
    """Radial Kahler potential f(s) on s > 0 as its moment map; the bridge
    reads nothing of f itself.  moment(s) is the s~-jet (t, t', t'', t''') of
    t = 2*s*f'(s) from one call, and inverse(t) is the s > 0 with t(s) = t;
    it raises DomainViolation, naming t, for a t outside the image."""

    _fields = ("n", "moment", "inverse")

    def __init__(self, n: int, moment: Callable, inverse: Callable) -> None:
        super().__init__(n, moment, inverse)


def _flat_inverse(t: float) -> float:
    if not t > 0.0:
        raise DomainViolation(f"t must be positive, got {t}")
    return t


def flat_potential(n: int) -> KahlerPotential:
    """f = s/2: the flat model (t = s, F'' = 0)."""
    return KahlerPotential(n, lambda s: (s, s, s, s), _flat_inverse)


def _fubini_study_moment(s: float) -> tuple[float, float, float, float]:
    df = 0.5 / (1.0 + s)
    t = 2.0 * s * df
    t1 = 2.0 * (s * df - s * s * (0.5 / (1.0 + s) ** 2))
    # t' = t*(1 - t), so each further s~-derivative is a product rule
    t2 = t1 * (1.0 - 2.0 * t)
    return t, t1, t2, t2 * (1.0 - 2.0 * t) - 2.0 * t1 * t1


def _fubini_study_inverse(t: float) -> float:
    # the image is (0, 1); t = 1 would divide by zero
    if not 0.0 < t < 1.0:
        raise DomainViolation(f"t must lie in (0, 1), got {t}")
    return t / (1.0 - t)


def fubini_study_potential(n: int) -> KahlerPotential:
    """f = ln(1+s)/2: Fubini-Study type (t = s/(1+s), S = n(n+1))."""
    return KahlerPotential(n, _fubini_study_moment, _fubini_study_inverse)


PRESETS: dict[str, Callable[[int], KahlerPotential]] = {
    "flat": flat_potential,
    "fubini-study": fubini_study_potential,
}


def _moment(K: KahlerPotential, s: float) -> tuple[float, float, float, float]:
    """The jet (t, t', t'', t''') at s, which must be positive."""
    if not s > 0.0:
        raise DomainViolation(f"s must be positive, got {s}")
    return K.moment(s)


def calabi_scalar_curvature(K: KahlerPotential, s: float) -> float:
    """Curvature from the Kahler side: S = (n-1)*v'/t + v''/t', with v' and
    v'' in closed form from the jet at s."""
    t, t1, t2, t3 = _moment(K, s)
    if t <= 0.0 or t1 <= 0.0:
        raise NonpositiveDerivative(
            f"moment data not positive at s = {s}: t = {t}, dt/ds~ = {t1}"
        )
    n = K.n
    r, q = t1 / t, t2 / t1
    v1 = n - (n - 1) * r - q
    v2 = -(n - 1) * (t2 / t - r * r) - t3 / t1 + q * q
    return (n - 1) * v1 / t + v2 / t1


def _induced_jet(K: KahlerPotential, ts: Sequence[float]) -> tuple[list[float], ...]:
    """The lists (phi, phi', phi'') of the induced profile at the ts, from
    one inverse and one Richardson stencil of u = t' in s~ per t: phi = u,
    phi' = du/u and phi'' = (ddu/u - phi'^2)/u, with du and ddu the first
    two s~-derivatives of u."""
    moment = K.moment
    phi, dphi, d2phi = [], [], []
    for t in ts:
        s = K.inverse(t)
        u = moment(s)[1]
        if u <= 0.0:
            raise NonpositiveDerivative(f"dt/ds~ = {u} at t = {t}")
        lo, lo_half, hi_half, hi = [moment(s * k)[1] for k in _STENCIL]
        du, ddu = richardson(lo, lo_half, u, hi_half, hi, _LOG_STEP)
        slope = du / u
        phi.append(u)
        dphi.append(slope)
        d2phi.append((ddu / u - slope * slope) / u)
    return phi, dphi, d2phi


def induced_t_potential(K: KahlerPotential, t_min: float, t_max: float) -> TPotential:
    """The TPotential the bridge induces on (t_min, t_max).

    Its momentum profile is phi(t) = t'(s~(t)) exactly, read through the
    closed-form inverse (the Legendre relation F''(t) = 1/t' - 1/t, from
    differentiating F'(t) = ln s - ln t - 1); phi' and phi'' then need only
    s~-derivatives of t'(s~), taken by Richardson differences.
    """
    return TPotential(K.n, t_min, t_max, partial(_induced_jet, K))


class BridgeCheckReport(Record):
    """Per-sample columns (tuples) and their worst difference."""

    _fields = (
        "s", "t", "kahler_side", "polytope_side", "difference", "max_discrepancy"
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
    return BridgeCheckReport(s, t, kahler_side, polytope_side, difference, worst)
