"""Scalar curvature of a radial toric metric by Abreu's formula.

The curvature of the metric defined by a potential g with Hessian G is

    S(x) = -(1/2) * sum_ij  d^2 G^{ij} / dx_i dx_j,

with G^{ij} the entries of the inverse Hessian.  For the radial potentials of
``radial`` the inner layer is the closed form in the momentum profile phi,

    G^{-1} = 2 * (diag(x) - w * x x^T),    w = (t - phi)/t^2,

exact up to rounding, and the outer second derivatives are central finite
differences on the polytope interior.  Every corner of a point's stencil
lies at t + k*h for k in {-2..2}, so a point costs five phi values, all read
from one jet call of the profile, and O(n) work: three diagonal entries per
coordinate, and one fsum for the mixed terms of all pairs at once.
Everything runs in plain floats, for any n.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Sequence

from .errors import InvalidParameters, NonInteriorPoint, StencilExitsDomain
from .numdiff import STEP_SECOND
from .polytope import interior_distance
from .radial import TPotential, validity_factor

def _points(points: Sequence, n: int) -> list[list[float]]:
    """The points, a sequence of points of n coordinates each, as lists of
    floats; a bare point, whose entries are numbers, is refused."""
    rows = list(points)
    for row in rows:
        if (
            isinstance(row, numbers.Real)
            or len(row) != n
            or not all(isinstance(v, numbers.Real) for v in row)
        ):
            raise InvalidParameters(
                f"points must be a sequence of points of {n} coordinates each"
            )
    return [[float(v) for v in row] for row in rows]


def _curvature_at(x: list[float], h: float, ts: list[float], phi: list[float]) -> float:
    """The stencil at one point x with step h, on closed-form entries; ts and
    phi are t + k*h, t = sum(x), and the momentum profile there, indexed by
    k + 2.

    The diagonal terms take one coordinate each.  The mixed ones are
    G^{ij} = -2*w*y_i*y_j at the four corners x +- h*e_i +- h*e_j, with
    w = (t - phi)/t^2 read at the corner's t, and sum over the pairs i != j
    in closed form: with P = sum_i x_i*(t - x_i), X = 2h(n-1)t and
    C = n(n-1)h^2, the products y_i*y_j at (+,+), at (+,-) and (-,+)
    together, and at (-,-) sum to P + X + C, 2(P - C) and P - X + C.  P is
    an fsum of positive terms, never t^2 - sum(x_i^2), which cancels.
    """
    n, t = len(x), ts[2]
    w0, w2, w4 = [(s - f) / s / s for s, f in zip(ts[::2], phi[::2])]
    hh = h * h
    total = 0.0
    for xi in x:
        rest = t - xi  # the same at x and at x +- h*e_i
        # G^{ii} = 2*y*(rest + y*phi/t)/t at x_i = y: a sum of positive terms
        plus = 2.0 * (xi + h) * (rest + (xi + h) * phi[3] / ts[3]) / ts[3]
        centre = 2.0 * xi * (rest + xi * phi[2] / t) / t
        minus = 2.0 * (xi - h) * (rest + (xi - h) * phi[1] / ts[1]) / ts[1]
        total += (plus - 2.0 * centre + minus) / hh
    P = math.fsum(xi * (t - xi) for xi in x)
    X, C = 2.0 * h * (n - 1) * t, n * (n - 1) * hh
    total -= (w4 * (P + X + C) - 2.0 * w2 * (P - C) + w0 * (P - X + C)) / (2.0 * hh)
    return -0.5 * total


def abreu_scalar_curvature(
    T: TPotential, points: Sequence, h: float | None = None
) -> list[float]:
    """S(x) = -(1/2) sum_ij d^2 G^{ij}/dx_i dx_j by central differences, for
    the radial potential with profile T, at each of the points.

    points is a sequence of points of n coordinates each, answered with a
    list of floats in their order.  The potential lives on the polytope
    {x >= 0, t_min <= sum(x) <= t_max} that T records, whose facets carry
    its log terms; phi for every stencil of the call comes from one
    ``T.jet`` call.

    Default step, per point: eps^(1/4)*t_max, the polytope's own length,
    clamped to dmin/3 (dmin the point's least facet value): a stencil corner
    moves each facet value by at most 2h, so the clamp keeps every corner
    inside.  One length per geometry keeps the result covariant under
    rescaling (a, b).  An explicit h past dmin/3 raises StencilExitsDomain,
    and any step whose square falls below the normal floats, where the
    stencil divides by h^2, raises InvalidParameters.
    """
    pts = _points(points, T.n)

    dmin = [interior_distance(T, p) for p in pts]
    for p, d in zip(pts, dmin):
        if d <= 0.0:
            raise NonInteriorPoint(f"{p} is not interior (min facet value {d})")
    if h is None:
        steps = [min(STEP_SECOND * T.t_max, d / 3.0) for d in dmin]
    else:
        steps = [float(h)] * len(pts)
    for p, step, d in zip(pts, steps, dmin):
        if step > d / 3.0:
            raise StencilExitsDomain(
                f"outer stencil with step {step:.3e} exits the domain at {p}"
            )
        if step * step < sys.float_info.min:
            raise InvalidParameters(
                f"outer stencil step {step:.3e} underflows a float when squared at {p}"
            )

    # every corner of a point's stencil lies at t + k*h for k in {-2..2}
    ts = [math.fsum(p) + k * step for p, step in zip(pts, steps) for k in (-2, -1, 0, 1, 2)]
    phi = T.jet(ts)[0]
    for t, f in zip(ts, phi):
        validity_factor(t, f)
    return [
        _curvature_at(p, step, ts[5 * i:5 * i + 5], phi[5 * i:5 * i + 5])
        for i, (p, step) in enumerate(zip(pts, steps))
    ]
