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
Every function of s or t takes a scalar or an array and answers in kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    DomainViolation,
    GeometryError,
    NonpositiveDerivative,
    NotInvertible,
    OutOfRange,
)
from .numdiff import EPS, richardson
from .radial import TPotential, curvature_of_jet

# base step (in s~) for the v and t' difference stencils: these functions are
# smooth on logarithmic scale, so a fat step plus one Richardson level beats
# a rounding-limited fine step by several digits
_LOG_STEP = 2.0**-6

_MAX_BRACKET_DOUBLINGS = 200
_MAX_NEWTON_STEPS = 100

# a potential or one of its derivatives: s array in, values of the same shape
# (or a constant) out
PotentialFn = Callable[[np.ndarray], Union[np.ndarray, float]]


def _power(x, k: int):
    """x**k elementwise through the C library's pow, as Python's float ** does.

    numpy's own ** on arrays uses a SIMD pow that rounds differently in the
    last bit, so the same formula evaluated at a float and inside an array
    would disagree; np.float_power keeps every evaluation bit for bit equal.
    """
    return np.float_power(x, k)


def _keep_last(fn: Callable[[np.ndarray], tuple]) -> Callable:
    """fn of an array of t, remembering its answer for the t asked for last.

    F'', F''' and F'''' are asked for in turn at the same t; their shared
    evaluation is wrapped here, so the three calls make one.  fn answers
    with a tuple of arrays; they are shared between those calls, so they are
    made read-only and a write raises instead of changing later answers.
    """
    last: list = [None]

    def cached(t):
        t = np.asarray(t, dtype=float)
        key = (t.shape, t.tobytes())
        entry = last[0]
        if entry is None or entry[0] != key:
            answer = fn(t)
            for value in answer:
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            entry = (key, answer)
            last[0] = entry
        return entry[1]

    return cached


@dataclass(frozen=True)
class KahlerPotential:
    """Radial Kahler potential f(s) on s > 0, with its first two derivatives.

    Array contract: f, df and d2f receive an ndarray of s (0-d for a single
    s) and return values of the same shape; a constant return value
    broadcasts.
    """

    n: int
    f: PotentialFn
    df: PotentialFn
    d2f: PotentialFn
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
        f=lambda s: 0.5 * np.log1p(s),
        df=lambda s: 0.5 / (1.0 + s),
        d2f=lambda s: -0.5 / _power(1.0 + s, 2),
        label="fubini-study",
    )


PRESETS: dict[str, Callable[[int], KahlerPotential]] = {
    "flat": flat_potential,
    "fubini-study": fubini_study_potential,
}


def _first(bad, *values) -> tuple:
    """The first element of each of values (broadcast to bad) where bad holds."""
    bad = np.asarray(bad)
    return tuple(np.broadcast_to(v, bad.shape)[bad][0] for v in values)


def _positive_s(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    bad = ~(s > 0.0)
    if np.any(bad):
        raise DomainViolation(f"s must be positive, got {s[bad][0]}")
    return s


def t_of_s(K: KahlerPotential, s):
    """Moment coordinate t = 2*s*f'(s)."""
    s = _positive_s(s)
    return 2.0 * s * K.df(s)


def _moment_rate(K: KahlerPotential, s):
    """dt/ds~ = 2*(s*f' + s^2*f''), the s~-derivative of the moment map."""
    s = np.asarray(s, dtype=float)
    return 2.0 * (s * K.df(s) + s * s * K.d2f(s))


def s_of_t(K: KahlerPotential, t):
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

    Every element of t runs its own bracket and iteration, on arrays masked
    down to the elements still running.  The error raised is the one the
    first failing t, asked for alone, would raise.
    """
    t = np.asarray(t, dtype=float)
    tf = t.ravel()
    positive = tf > 0.0
    failed: dict[int, GeometryError] = {
        j: OutOfRange(f"t must be positive, got {tf[j]}")
        for j in np.flatnonzero(~positive)
    }

    def residual(s: np.ndarray, k: np.ndarray) -> np.ndarray:
        return t_of_s(K, s) - tf[k]

    # bracket: double hi while the residual at s = t is negative, halve lo
    # while it is positive; a t with residual 0 is its own root
    k = np.flatnonzero(positive)
    lo, hi, root = tf.copy(), tf.copy(), tf.copy()
    r0 = residual(lo[k], k)
    up, down = k[r0 < 0.0], k[~(r0 <= 0.0)]
    running = k[r0 != 0.0]

    k = up
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if not k.size:
            break
        hi[k] *= 2.0
        k = k[~(residual(hi[k], k) >= 0.0)]
    for j in k:
        failed[j] = OutOfRange(f"t = {tf[j]} not reached by the moment map")
    lo[up] = hi[up] / 2.0
    k = down
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if not k.size:
            break
        lo[k] *= 0.5
        k = k[~(residual(lo[k], k) <= 0.0)]
    for j in k:
        failed[j] = OutOfRange(f"t = {tf[j]} below the image of the moment map")
    hi[down] = lo[down] * 2.0

    # the moment map must be increasing at both ends, lo checked first
    alive = np.ones(tf.size, dtype=bool)
    alive[list(failed)] = False
    k = running[alive[running]]
    for ends in (lo, hi):
        end = ends[k]
        falling = _moment_rate(K, end) / end <= 0.0  # dt/ds = (dt/ds~)/s
        for j, e in zip(k[falling], end[falling]):
            failed[j] = NotInvertible(
                f"moment map not increasing at s = {e}; bracket invalid"
            )
        k = k[~falling]

    # safeguarded Newton on the t still running; settled collects the t
    # whose bracket closed without an exact root
    s = 0.5 * (lo + hi)
    settled = [k[:0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_NEWTON_STEPS):
            if not k.size:
                break
            sk = s[k]
            r = residual(sk, k)
            exact = r == 0.0
            root[k[exact]] = sk[exact]
            below = r < 0.0
            lo[k[below]] = sk[below]
            hi[k[~below]] = sk[~below]
            lo_k, hi_k = lo[k], hi[k]
            narrow = hi_k - lo_k <= 4.0 * EPS * hi_k
            settled.append(k[narrow & ~exact])
            going = ~(narrow | exact)
            k, sk, r = k[going], sk[going], r[going]
            lo_k, hi_k = lo_k[going], hi_k[going]
            rate = _moment_rate(K, sk)
            # dt/ds = rate/s; a rate that is not positive bisects
            step = sk - r * sk / rate
            newton = (rate > 0.0) & (lo_k < step) & (step < hi_k)
            s[k] = np.where(newton, step, 0.5 * (lo_k + hi_k))
    for j in k:
        failed[j] = NotInvertible(f"no convergence inverting t = {tf[j]}")

    # the end with the smaller residual, which must be small
    k = np.concatenate(settled)
    r_lo = np.abs(residual(lo[k], k))
    r_hi = np.abs(residual(hi[k], k))
    take_hi = r_hi < r_lo
    root[k] = np.where(take_hi, hi[k], lo[k])
    stalled = np.where(take_hi, r_hi, r_lo) > 1e-12 * np.maximum(1.0, np.abs(tf[k]))
    for j in k[stalled]:
        failed[j] = NotInvertible(f"root finding stalled inverting t = {tf[j]}")
    if failed:
        raise failed[min(failed)]
    return root.reshape(t.shape)[()]


def F_of_t(K: KahlerPotential, t):
    """t-potential value F(t) = t*ln(s(t)/t) - 2*f(s(t))."""
    t = np.asarray(t, dtype=float)
    s = s_of_t(K, t)
    return t * np.log(s / t) - 2.0 * K.f(s)


def _v(K: KahlerPotential, st):
    s = np.exp(st)
    u1 = t_of_s(K, s)
    u2 = _moment_rate(K, s)
    bad = (u1 <= 0.0) | (u2 <= 0.0)
    if np.any(bad):
        st, u1, u2 = _first(bad, st, u1, u2)
        raise NonpositiveDerivative(
            f"moment data not positive at s~ = {st}: t = {u1}, dt/ds~ = {u2}"
        )
    return K.n * st - (K.n - 1) * np.log(u1) - np.log(u2)


def calabi_scalar_curvature(K: KahlerPotential, s):
    """Curvature from the Kahler side: S = (n-1)*v'/t + v''/t'.

    v', v'' are Richardson-extrapolated central differences in s~ = ln s.
    """
    s = _positive_s(s)
    st = np.log(s)
    h = _LOG_STEP * np.maximum(1.0, np.abs(st))
    v1, v2 = richardson(lambda z: _v(K, z), st, h)
    u1 = t_of_s(K, s)
    u2 = _moment_rate(K, s)
    bad = (u1 <= 0.0) | (u2 <= 0.0)
    if np.any(bad):
        s, u1, u2 = _first(bad, s, u1, u2)
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

    Its d2F, d3F and d4F take a float or an array of t and answer in kind.
    They are asked for in turn at the same t, so all three come from one jet
    evaluation per array of t (one inversion, one pair of rate slopes), and
    the jets of the t asked for last are kept.
    """

    @_keep_last
    def jets(t: np.ndarray) -> tuple:
        """dt/ds~ and its first two s~-derivatives at the s~ of every t."""
        st = np.log(s_of_t(K, t))
        u2 = _moment_rate(K, np.exp(st))
        bad = u2 <= 0.0
        if np.any(bad):
            u2_bad, t_bad = _first(bad, u2, t)
            raise NonpositiveDerivative(f"dt/ds~ = {u2_bad} at t = {t_bad}")
        h = _LOG_STEP * np.maximum(1.0, np.abs(st))

        def rate(z):
            return _moment_rate(K, np.exp(z))

        return (u2, *richardson(rate, st, h))

    def d2F(t):
        t = np.asarray(t, dtype=float)
        u2, _, _ = jets(t)
        return 1.0 / u2 - 1.0 / t

    def d3F(t):
        t = np.asarray(t, dtype=float)
        u2, du2, _ = jets(t)
        return -du2 / _power(u2, 3) + 1.0 / _power(t, 2)

    def d4F(t):
        t = np.asarray(t, dtype=float)
        u2, du2, ddu2 = jets(t)
        return (
            -ddu2 / _power(u2, 4)
            + 3.0 * _power(du2, 2) / _power(u2, 5)
            - 2.0 / _power(t, 3)
        )

    return TPotential(n=K.n, t_min=t_min, t_max=t_max, d2F=d2F, d3F=d3F, d4F=d4F)


@dataclass(frozen=True)
class BridgeCheckReport:
    """Per-sample columns (read-only arrays) and their worst difference."""

    preset: str
    n: int
    s: np.ndarray
    t: np.ndarray
    kahler_side: np.ndarray
    polytope_side: np.ndarray
    difference: np.ndarray
    max_discrepancy: float


def bridge_cross_check(
    K: KahlerPotential, s_samples: Sequence[float]
) -> BridgeCheckReport:
    """Compare the Kahler-side curvature against the radial pipeline.

    The samples s are pushed to t = t_of_s(s); the induced TPotential's
    F'', F''' and F'''' are evaluated at all the t at once, the radial
    curvature formula runs on each t and those three values in turn, and
    Calabi's formula at all the s at once.  Every t is below the end
    2*max(t) + 1 of the induced interval, and ``s_of_t`` refuses a t <= 0,
    so the interval needs no check of its own.
    """
    s = np.array(s_samples, dtype=float).reshape(-1)
    if not s.size:
        raise DomainViolation("need at least one sample")
    t = t_of_s(K, s)
    T = induced_t_potential(K, 0.0, 2.0 * float(np.max(t)) + 1.0)
    jets = zip(t.tolist(), T.d2F(t).tolist(), T.d3F(t).tolist(), T.d4F(t).tolist())
    polytope_side = np.array([curvature_of_jet(K.n, *jet) for jet in jets])
    kahler_side = calabi_scalar_curvature(K, s)
    difference = np.abs(kahler_side - polytope_side)
    columns = (s, t, kahler_side, polytope_side, difference)
    for column in columns:
        column.flags.writeable = False
    return BridgeCheckReport(K.label, K.n, *columns, float(np.max(difference)))
