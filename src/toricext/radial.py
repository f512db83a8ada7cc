"""Radial (U(n)-invariant) toric metrics through their t-potentials.

A radial symplectic potential on the polytope interior has the form

    g(x) = (1/2) * (sum_i x_i ln x_i + F(t)),    t = sum_i x_i,

so everything is driven by the profile F on an interval (t_min, t_max).  The
metric is well defined exactly where 1 + t*F''(t) > 0, and its scalar
curvature collapses to a one-variable expression

    S(t) = t^(1-n) * u''(t),    u(t) = t^(n+1) * F''(t) / (1 + t*F''(t)),

which this module evaluates analytically through F'', F''' and F''''.  The
curvature and the Hessian work on whole arrays of points at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    DegenerateMetric,
    DomainViolation,
    InvalidParameters,
    NonInteriorPoint,
)
from .numdiff import power

# 1 + t*F'' at or below this is treated as a degenerate metric: the curvature
# divides by it, and anything this small is cancellation noise anyway
DEGENERACY_TOL = 1e-14

# a profile derivative: t array in, values of the same shape (or a constant) out
ProfileFn = Callable[[np.ndarray], Union[np.ndarray, float]]


@dataclass(frozen=True)
class TPotential:
    """Radial profile F on (t_min, t_max), stored through F'', F''', F''''.

    Affine additions to the potential never touch the Hessian, so F itself
    is not kept: F'' gives the metric, F''' and F'''' its curvature.

    Array contract: d2F, d3F and d4F receive an ndarray of t (0-d for a
    single point) and return values of the same shape; a constant return
    value broadcasts.
    """

    n: int
    t_min: float
    t_max: float
    d2F: ProfileFn
    d3F: ProfileFn
    d4F: ProfileFn

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameters("n must be >= 1")
        if self.t_min < 0.0:
            raise InvalidParameters("t_min must be >= 0")
        if not self.t_max > self.t_min:
            raise InvalidParameters("need t_min < t_max")


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


def _check_domain(T: TPotential, t: np.ndarray) -> None:
    outside = ~((T.t_min < t) & (t < T.t_max))
    if np.any(outside):
        raise DomainViolation(
            f"t = {t[outside][0]} outside ({T.t_min}, {T.t_max})"
        )


def radial_scalar_curvature(T: TPotential, t):
    """Scalar curvature S(t) = t^(1-n) * u''(t) of the radial metric.

    Takes a scalar or an array of t and answers in kind; u is differentiated
    symbolically through F'', F''' and F''''.
    """
    t = np.asarray(t, dtype=float)
    _check_domain(T, t)
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

