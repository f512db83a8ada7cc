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
function of a list of s and the moment map's closed-form inverse; the flat
(s = t) and Fubini-Study (s = t/(1 - t)) presets are built in.  The polytope
side reads the induced momentum profile, phi(t) = t' as a function of t, and
differentiates t' numerically instead, so a jet that disagrees with its own
moment map fails the cross-check.  Every function takes lists and returns
lists, in plain floats on the standard library.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence

from .errors import DomainViolation, InvalidParameters, NonpositiveDerivative
from .numdiff import richardson
from .radial import radial_scalar_curvature

# the polytope side's difference step in s~: t' is smooth on logarithmic
# scale, so a fat step plus one Richardson level beats a rounding-limited fine
# step by several digits; a constant step does not depend on the units of s
_LOG_STEP = 2.0**-6
# the stencil's abscissae s*e^(k*h), centre included, as factors of s
_STENCIL = tuple(math.exp(k * _LOG_STEP) for k in (-1.0, -0.5, 0.0, 0.5, 1.0))


class KahlerPotential(namedtuple("KahlerPotential", "n moment inverse")):
    """Radial Kahler potential f(s) on s > 0 as its moment map; the bridge
    reads nothing of f itself.  moment(ss) is the columns (t, t', t'', t''')
    of the s~-jet of t = 2*s*f'(s) at a list of s, and inverse(ts) the list
    of the s > 0 with t(s) = t; it raises DomainViolation, naming the t, for
    a t outside the image."""

    __slots__ = ()

    def __new__(cls, n: int, moment: Callable, inverse: Callable) -> KahlerPotential:
        if n < 1:
            raise InvalidParameters("n must be >= 1")
        return super().__new__(cls, n, moment, inverse)


def _flat_moment(ss: Sequence[float]) -> tuple[list[float], ...]:
    # t = s, and so is each of its s~-derivatives
    return tuple(list(ss) for _ in range(4))


def _flat_inverse(ts: Sequence[float]) -> list[float]:
    for t in ts:
        if not t > 0.0:
            raise DomainViolation(f"t must be positive, got {t}")
    return list(ts)


def flat_potential(n: int) -> KahlerPotential:
    """f = s/2: the flat model (t = s, F'' = 0)."""
    return KahlerPotential(n, _flat_moment, _flat_inverse)


def _fubini_study_moment(ss: Sequence[float]) -> tuple[list[float], ...]:
    # t = 2*s*f' with f' = 0.5/(1 + s), and t' = 2*(s*f' + s^2*f'')
    t = [2.0 * s * (0.5 / (1.0 + s)) for s in ss]
    t1 = [2.0 * (s * (0.5 / (1.0 + s)) - s * s * (0.5 / (1.0 + s) ** 2)) for s in ss]
    # t' = t*(1 - t), so each further s~-derivative is a product rule
    t2 = [x1 * (1.0 - 2.0 * x) for x, x1 in zip(t, t1)]
    t3 = [x2 * (1.0 - 2.0 * x) - 2.0 * x1 * x1 for x, x1, x2 in zip(t, t1, t2)]
    return t, t1, t2, t3


def _fubini_study_inverse(ts: Sequence[float]) -> list[float]:
    for t in ts:
        # the image is (0, 1); t = 1 would divide by zero
        if not 0.0 < t < 1.0:
            raise DomainViolation(f"t must lie in (0, 1), got {t}")
    return [t / (1.0 - t) for t in ts]


def fubini_study_potential(n: int) -> KahlerPotential:
    """f = ln(1+s)/2: Fubini-Study type (t = s/(1+s), S = n(n+1))."""
    return KahlerPotential(n, _fubini_study_moment, _fubini_study_inverse)


PRESETS: dict[str, Callable[[int], KahlerPotential]] = {
    "flat": flat_potential,
    "fubini-study": fubini_study_potential,
}


def calabi_scalar_curvature(n: int, jet: Sequence[Sequence[float]]) -> list[float]:
    """Curvature from the Kahler side at each point of the jet columns
    (t, t', t'', t'''): S = (n-1)*v'/t + v''/t', with v' and v'' in closed
    form."""
    S = []
    for t, t1, t2, t3 in zip(*jet, strict=True):
        if t <= 0.0 or t1 <= 0.0:
            raise NonpositiveDerivative(f"t = {t} and dt/ds~ = {t1} must be positive")
        r, q = t1 / t, t2 / t1
        v1 = n - (n - 1) * r - q
        v2 = -(n - 1) * (t2 / t - r * r) - t3 / t1 + q * q
        S.append((n - 1) * v1 / t + v2 / t1)
    return S


def induced_jet(K: KahlerPotential, ts: Sequence[float]) -> tuple[list[float], ...]:
    """The lists (phi, phi', phi'') of the momentum profile K induces at the
    ts, phi = t'(s~(t)) exactly, read through the closed-form inverse (the
    Legendre relation F''(t) = 1/t' - 1/t, from differentiating
    F'(t) = ln s - ln t - 1).

    One inverse call and one moment call on the five stencil abscissae of
    each s give u = t' there, and one Richardson level its first two
    s~-derivatives du and ddu: phi = u, phi' = du/u and
    phi'' = (ddu/u - phi'^2)/u.
    """
    rates = K.moment([s * k for s in K.inverse(ts) for k in _STENCIL])[1]
    # the five rates of each s in turn; phi is the centre one
    phi, dphi, d2phi = rates[2::5], [], []
    for t, lo, lo_half, u, hi_half, hi in zip(ts, *[iter(rates)] * 5, strict=True):
        if u <= 0.0:
            raise NonpositiveDerivative(f"dt/ds~ = {u} at t = {t}")
        du, ddu = richardson(lo, lo_half, u, hi_half, hi, _LOG_STEP)
        slope = du / u
        dphi.append(slope)
        d2phi.append((ddu / u - slope * slope) / u)
    return phi, dphi, d2phi


# per-sample columns (tuples), then their worst difference
BridgeCheckReport = namedtuple(
    "BridgeCheckReport", "s t kahler_side polytope_side difference max_discrepancy"
)


def bridge_cross_check(
    K: KahlerPotential, s_samples: Sequence[float]
) -> BridgeCheckReport:
    """Compare the Kahler-side curvature against the radial pipeline.

    One moment call at the samples gives their moment coordinates t and
    Calabi's formula its jet; the radial curvature formula runs on the ts
    and the induced jet there.
    """
    s = tuple(map(float, s_samples))
    if not s:
        raise DomainViolation("need at least one sample")
    for x in s:
        if not x > 0.0:
            raise DomainViolation(f"s must be positive, got {x}")
    jet = K.moment(s)
    t = tuple(jet[0])
    polytope_side = tuple(radial_scalar_curvature(K.n, t, induced_jet(K, t)))
    kahler_side = tuple(calabi_scalar_curvature(K.n, jet))
    difference = tuple(abs(k - p) for k, p in zip(kahler_side, polytope_side))
    # max() skips a NaN that is not first; the worst difference must show it
    worst = math.nan if any(d != d for d in difference) else max(difference)
    return BridgeCheckReport(s, t, kahler_side, polytope_side, difference, worst)
