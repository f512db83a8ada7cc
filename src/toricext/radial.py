"""Radial (U(n)-invariant) toric metrics through their t-potentials.

A radial symplectic potential on the polytope interior has the form

    g(x) = (1/2) * (sum_i x_i ln x_i + F(t)),    t = sum_i x_i,

so everything is driven by the profile F on an interval (t_min, t_max).  The
metric is well defined exactly where 1 + t*F''(t) > 0.  Its Hessian
(diag(1/x) + F'' 1 1^T)/2 is diagonal plus rank one, so its inverse has a
closed form (Sherman-Morrison),

    G^{-1} = 2 * (diag(x) - w * x x^T),    w = F''/(1 + t*F''),

whose diagonal 2*x_i*(1 - w*x_i) is evaluated as 2*x_i*(1 + (t - x_i)*F'')/
(1 + t*F''), free of the cancellation where w*x_i is close to 1.  The scalar
curvature collapses to a one-variable expression

    S(t) = t^(1-n) * u''(t),    u(t) = t^(n+1) * F''(t) / (1 + t*F''(t)),

which this module evaluates analytically through F'', F''' and F''''.  A
profile is two functions of a list of t, and the curvature takes a list of t;
everything runs in plain floats.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from .errors import DegenerateMetric, DomainViolation, InvalidParameters
from .record import Record

# 1 + t*F'' at or below this is treated as a degenerate metric: the curvature
# and the inverse Hessian divide by it, and anything this small is
# cancellation noise anyway
DEGENERACY_TOL = 1e-14


class TPotential(Record):
    """Radial profile F on (t_min, t_max), given by two functions of a list
    of t in (t_min, t_max).

    Affine additions to the potential never touch the Hessian, so F itself
    is not kept: ``d2F(ts)`` is the list of F'' at the ts, which gives the
    metric, and ``jet(ts)`` the lists (F'', F''', F''''), which give its
    curvature.
    """

    _fields = ("n", "t_min", "t_max", "d2F", "jet")

    def __init__(
        self,
        n: int,
        t_min: float,
        t_max: float,
        d2F: Callable[[Sequence[float]], list[float]],
        jet: Callable[[Sequence[float]], tuple[list[float], ...]],
    ) -> None:
        if n < 1:
            raise InvalidParameters("n must be >= 1")
        if t_min < 0.0:
            raise InvalidParameters("t_min must be >= 0")
        if not t_max > t_min:
            raise InvalidParameters("need t_min < t_max")
        super().__init__(n, t_min, t_max, d2F, jet)


def validity_factor(t: float, f2: float) -> float:
    """1 + t*F'' at t, refused where it is not safely positive."""
    den = 1.0 + t * f2
    if den <= DEGENERACY_TOL:
        raise DegenerateMetric(f"1 + t*F'' = {den:.3e} at t = {t}")
    return den


def inverse_diagonal(y: float, rest: float, f2: float, den: float) -> float:
    """G^{ii} = 2*y*(1 - w*y) at a point with x_i = y, written as
    2*y*(1 + rest*F'')/den with rest = t - y and den = 1 + t*F'': no
    cancellation where F'' >= 0, and exact up to rounding at n = 1."""
    return 2.0 * y * (1.0 + rest * f2) / den


def inverse_off_diagonal(yi: float, yj: float, w: float) -> float:
    """G^{ij} = -2*w*y_i*y_j, i != j, at a point with x_i = yi, x_j = yj."""
    return -2.0 * w * yi * yj


def radial_scalar_curvature(T: TPotential, ts: Iterable[float]) -> list[float]:
    """Scalar curvature S(t) = t^(1-n) * u''(t) of the radial metric at each t
    of ts, all in (t_min, t_max), from one jet of the profile, u
    differentiated symbolically; refuses a t where 1 + t*F'' is not safely
    positive."""
    ts = list(ts)  # read twice: by the domain check and by the jet
    for t in ts:
        if not T.t_min < t < T.t_max:
            raise DomainViolation(f"t = {t} outside ({T.t_min}, {T.t_max})")
    n = T.n
    S = []
    for t, f2, f3, f4 in zip(ts, *T.jet(ts)):
        den = validity_factor(t, f2)
        # W = F''/den and its t-derivatives; den' = F'' + t*F'''
        dden = f2 + t * f3
        w = f2 / den
        w1 = (f3 - f2 * f2) / den**2
        w2 = ((f4 - 2.0 * f2 * f3) * den - 2.0 * (f3 - f2 * f2) * dden) / den**3
        # t^(1-n) * d^2/dt^2 [t^(n+1) W] with the power prefactors cancelled
        S.append(n * (n + 1) * w + 2.0 * (n + 1) * t * w1 + t * t * w2)
    return S
