"""Radial (U(n)-invariant) toric metrics through their t-potentials.

A radial symplectic potential on the polytope interior has the form

    g(x) = (1/2) * (sum_i x_i ln x_i + F(t)),    t = sum_i x_i,

so everything is driven by the profile F on an interval (t_min, t_max).  The
metric is well defined exactly where 1 + t*F''(t) > 0, and its scalar
curvature collapses to a one-variable expression

    S(t) = t^(1-n) * u''(t),    u(t) = t^(n+1) * F''(t) / (1 + t*F''(t)),

which this module evaluates either analytically (when F''' and F'''' are
supplied) or by central differences on u.  The curvature, the Hessian and
the validity grid all work on whole arrays of points at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DegenerateMetric,
    DomainViolation,
    InvalidParameters,
    NonInteriorPoint,
)
from .numdiff import EPS, STEP_SECOND, power, richardson

# 1 + t*F'' at or below this is treated as a degenerate metric: the curvature
# divides by it, and anything this small is cancellation noise anyway
DEGENERACY_TOL = 1e-14

# a profile derivative: t array in, values of the same shape (or a constant) out
ProfileFn = Callable[[np.ndarray], Union[np.ndarray, float]]


@dataclass(frozen=True)
class TPotential:
    """Radial profile F on (t_min, t_max), stored through its derivatives.

    Only F'' is required: affine additions to the potential never touch the
    Hessian, so F itself is kept optional and used solely by the Kahler-side
    round trips.  When d3F and d4F are present the curvature pipeline uses
    them; otherwise it falls back to finite differences.

    Array contract: d2F, d3F and d4F receive an ndarray of t (0-d for a
    single point) and return values of the same shape; a constant return
    value broadcasts.  F is only ever called with a float.
    """

    n: int
    t_min: float
    t_max: float
    d2F: ProfileFn
    d3F: Optional[ProfileFn] = None
    d4F: Optional[ProfileFn] = None
    F: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameters("n must be >= 1")
        if self.t_min < 0.0:
            raise InvalidParameters("t_min must be >= 0")
        if not self.t_max > self.t_min:
            raise InvalidParameters("need t_min < t_max")

    def has_analytic_derivatives(self) -> bool:
        return self.d3F is not None and self.d4F is not None


@dataclass(frozen=True)
class ValidityResult:
    """Outcome of sampling 1 + t*F'' on a grid."""

    passed: bool
    minimum: float
    t_at_minimum: float


def _check_interior(x: np.ndarray) -> None:
    bad = np.any(x <= 0.0, axis=-1)
    if np.any(bad):
        raise NonInteriorPoint(f"point {x[bad][0]} has a nonpositive coordinate")


def _check_nondegenerate(den, t) -> None:
    """Refuse every t where den = 1 + t*F'' is not safely positive."""
    den, t = np.broadcast_arrays(den, t)
    bad = den <= DEGENERACY_TOL
    if np.any(bad):
        raise DegenerateMetric(f"1 + t*F'' = {den[bad][0]:.3e} at t = {t[bad][0]}")


def radial_hessian(x, d2F_value) -> np.ndarray:
    """Hessian of the radial potential at x: G_ij = (delta_ij/x_i + F'')/2.

    x is one point (n,) with a scalar F'', or a stack (..., n) with F''
    values of shape (...); the result is (n, n) or (..., n, n).  Positive
    definite exactly when 1 + t*F'' > 0 (with t = sum x).
    """
    x = np.asarray(x, dtype=float)
    _check_interior(x)
    n = x.shape[-1]
    radial = 0.5 * np.asarray(d2F_value, dtype=float)
    G = np.broadcast_to(radial[..., None, None], x.shape[:-1] + (n, n)).copy()
    diag = np.arange(n)
    G[..., diag, diag] += 0.5 * (1.0 / x)
    return G


def _w(T: TPotential, t: np.ndarray):
    """W = F''/(1 + t*F''), guarded against the degenerate locus."""
    f2 = T.d2F(t)
    den = 1.0 + t * f2
    _check_nondegenerate(den, t)
    return f2 / den


def _check_domain(T: TPotential, t: np.ndarray) -> None:
    outside = ~((T.t_min < t) & (t < T.t_max))
    if np.any(outside):
        raise DomainViolation(
            f"t = {t[outside][0]} outside ({T.t_min}, {T.t_max})"
        )


def radial_scalar_curvature(T: TPotential, t, method: str = "auto"):
    """Scalar curvature S(t) = t^(1-n) * u''(t) of the radial metric.

    Takes a scalar or an array of t and answers in kind.  method="analytic"
    differentiates u symbolically through F''..F'''' and requires d3F/d4F
    on the potential; method="fd" runs central differences on u, with one
    Richardson level and step eps^(1/4)*t_max (the profile's own length,
    shrunk to fit the domain).  "auto" picks analytic when the derivatives
    are available.
    """
    t = np.asarray(t, dtype=float)
    _check_domain(T, t)
    if method == "auto":
        method = "analytic" if T.has_analytic_derivatives() else "fd"
    if method == "analytic":
        if not T.has_analytic_derivatives():
            raise InvalidParameters("analytic path requires d3F and d4F")
        return _curvature_analytic(T, t)
    if method == "fd":
        return _curvature_fd(T, t)
    raise InvalidParameters(f"unknown method {method!r}")


def _curvature_analytic(T: TPotential, t: np.ndarray):
    f2 = T.d2F(t)
    f3 = T.d3F(t)
    f4 = T.d4F(t)
    den = 1.0 + t * f2
    _check_nondegenerate(den, t)
    # W = F''/den and its t-derivatives; den' = F'' + t*F'''
    dden = f2 + t * f3
    w = f2 / den
    w1 = (f3 - f2 * f2) / power(den, 2)
    w2 = ((f4 - 2.0 * f2 * f3) * den - 2.0 * (f3 - f2 * f2) * dden) / power(den, 3)
    # t^(1-n) * d^2/dt^2 [t^(n+1) W] with the power prefactors cancelled
    n = T.n
    return n * (n + 1) * w + 2.0 * (n + 1) * t * w1 + t * t * w2


def _curvature_fd(T: TPotential, t: np.ndarray):
    room = np.minimum(t - T.t_min, T.t_max - t)
    h = np.minimum(STEP_SECOND * T.t_max, 0.5 * room)
    # t +- h must be resolvable from t
    cramped = h <= 16.0 * EPS * t
    if np.any(cramped):
        raise DomainViolation(
            f"no room for a difference stencil at t = {t[cramped][0]}"
        )

    def u(tau: np.ndarray):
        return power(tau, T.n + 1) * _w(T, tau)

    return power(t, 1 - T.n) * richardson(u, t, h)[1]


def validity_check(T: TPotential, samples: int) -> ValidityResult:
    """Evaluate 1 + t*F'' on a uniform interior grid; report the minimum."""
    if samples < 1:
        raise InvalidParameters("samples must be >= 1")
    ts = T.t_min + (T.t_max - T.t_min) * (np.arange(samples) + 1.0) / (samples + 1.0)
    values = 1.0 + ts * T.d2F(ts)
    k = int(np.argmin(values))
    return ValidityResult(
        passed=bool(values[k] > 0.0),
        minimum=float(values[k]),
        t_at_minimum=float(ts[k]),
    )
