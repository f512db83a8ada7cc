"""Scalar curvature of a general toric metric from its symplectic potential.

The curvature of the metric defined by a potential g with Hessian G is

    S(x) = -(1/2) * sum_ij  d^2 G^{ij} / dx_i dx_j,

with G^{ij} the entries of the inverse Hessian.  Here the inner layer (the
analytic Hessian of the potential, then a dense solve) is exact up to
rounding, and the outer second derivatives are central finite differences on
the polytope interior.  Both layers run on whole stacks of points: a Hessian
oracle maps (m, n) points to (m, n, n) Hessians, and the stencil evaluates
every point at once.  Extremality of a metric means S is affine in x;
``extremality_residual`` measures the distance to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegeneratePointSet,
    InvalidParameters,
    NonInteriorPoint,
    SingularHessian,
    StencilExitsDomain,
)
from .numdiff import STEP_SECOND
from .polytope import BlowupPolytope, interior_distance
from .radial import TPotential, radial_hessian

# dense direct inversion is plenty for the sizes this family produces;
# refuse anything bigger so a misuse fails loudly instead of slowly
MAX_DIMENSION = 16


def _check_dimension(n: int) -> None:
    """Refuse an n past ``MAX_DIMENSION`` as invalid input."""
    if n > MAX_DIMENSION:
        raise InvalidParameters(
            f"dense inversion limited to n <= {MAX_DIMENSION}, got {n}"
        )


@dataclass(frozen=True)
class SymplecticPotential:
    """A potential on a polytope, exposed through its Hessian oracle.

    The oracle maps an (m, n) array of points to their (m, n, n) Hessians.
    """

    polytope: BlowupPolytope
    hessian_oracle: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_radial(cls, polytope: BlowupPolytope, T: TPotential) -> "SymplecticPotential":
        """Analytic Hessian of the radial potential with profile T."""

        def oracle(x: np.ndarray) -> np.ndarray:
            return radial_hessian(x, T.d2F(np.sum(x, axis=-1)))

        return cls(polytope=polytope, hessian_oracle=oracle)


@dataclass(frozen=True)
class AffineFit:
    """Least-squares affine model S(x) ~ <gradient, x> + constant.

    ``S`` is the read-only column of fitted curvatures, one per input point.
    """

    gradient: tuple
    constant: float
    max_residual: float
    S: np.ndarray


def _inverse_hessians(
    P: SymplecticPotential, x: np.ndarray, column: Optional[int] = None
) -> np.ndarray:
    """Stacked inverse Hessians G^{-1} at the (m, n) points x, (m, n, n).

    With a column index, only that column of each, (m, n), from one stacked
    solve against the unit vector instead of a whole inversion.
    """
    H = P.hessian_oracle(x)
    try:
        if column is None:
            return np.linalg.inv(H)
        unit = np.zeros((H.shape[-1], 1))
        unit[column] = 1.0
        return np.linalg.solve(H, unit)[..., 0]
    except np.linalg.LinAlgError as exc:
        worst = int(np.argmin(np.linalg.matrix_rank(H)))
        raise SingularHessian(f"Hessian not invertible at {x[worst]}") from exc


def abreu_scalar_curvature(
    P: SymplecticPotential, x, h: Optional[float] = None
) -> float | np.ndarray:
    """S(x) = -(1/2) sum_ij d^2 G^{ij}/dx_i dx_j by central differences.

    x is one point (n,), answered with a float, or a stack (m, n), answered
    with an (m,) array.  Each shifted stencil term reads one entry of G^{-1}
    at all m shifted points, from one stacked solve; only the centre, which
    needs every diagonal entry, inverts whole Hessians.  Memory is O(m n^2).

    Default step, per point: eps^(1/4)*b, the polytope's own length,
    clamped to dmin/3 (dmin the point's least facet value): a stencil corner
    moves each facet value by at most 2h, so the clamp keeps every corner
    inside.  One length per geometry keeps the result covariant under
    rescaling (a, b).  An explicit h past dmin/3 raises StencilExitsDomain.
    """
    x = np.asarray(x, dtype=float)
    n = P.polytope.n
    _check_dimension(n)
    if x.shape[-1:] != (n,) or x.ndim > 2:
        raise InvalidParameters(
            f"point shape {x.shape} is neither ({n},) nor (m, {n})"
        )
    pts = x.reshape(-1, n)

    dmin = interior_distance(P.polytope, pts)
    outside = dmin <= 0.0
    if np.any(outside):
        raise NonInteriorPoint(
            f"{pts[outside][0]} is not interior (min facet value {dmin[outside][0]})"
        )
    limit = dmin / 3.0
    if h is None:
        h = np.minimum(STEP_SECOND * P.polytope.b, limit)
    else:
        h = np.full(len(pts), float(h))
    exits = h > limit
    if np.any(exits):
        raise StencilExitsDomain(
            f"outer stencil with step {h[exits][0]:.3e} exits the domain at "
            f"{pts[exits][0]}"
        )

    def entry(i: int, j: int, *steps: tuple[int, float]) -> np.ndarray:
        """G^{ij} at the points moved by sign*h along each (axis, sign)."""
        moved = pts.copy()
        for axis, sign in steps:
            moved[:, axis] += sign * h
        return _inverse_hessians(P, moved, column=j)[:, i]

    hh = h * h
    center = np.diagonal(_inverse_hessians(P, pts), axis1=1, axis2=2)
    total = np.zeros(len(pts))
    for i in range(n):
        plus, minus = entry(i, i, (i, 1.0)), entry(i, i, (i, -1.0))
        total += (plus - 2.0 * center[:, i] + minus) / hh
    for i in range(n):
        for j in range(i + 1, n):
            mixed = (
                entry(i, j, (i, 1.0), (j, 1.0))
                - entry(i, j, (i, 1.0), (j, -1.0))
                - entry(i, j, (i, -1.0), (j, 1.0))
                + entry(i, j, (i, -1.0), (j, -1.0))
            ) / (4.0 * hh)
            total += 2.0 * mixed  # (i,j) and (j,i) contribute equally
    S = -0.5 * total
    return float(S[0]) if x.ndim == 1 else S


def extremality_residual(
    P: SymplecticPotential,
    points: Sequence,
    h: Optional[float] = None,
) -> AffineFit:
    """Fit S(x) by an affine function over the points; report the worst miss.

    Ordinary least squares on the column-scaled design [X | 1]; needs at
    least n+1 affinely independent points.
    """
    pts = np.asarray(points, dtype=float)
    n = P.polytope.n
    if pts.ndim != 2 or pts.shape[1] != n:
        raise InvalidParameters(f"points must be (m, {n}), got {pts.shape}")
    m = pts.shape[0]
    if m < n + 1:
        raise DegeneratePointSet(f"need >= {n + 1} points, got {m}")

    S = abreu_scalar_curvature(P, pts, h)
    design = np.hstack([pts, np.ones((m, 1))])
    col_scale = np.max(np.abs(design), axis=0)
    col_scale[col_scale == 0.0] = 1.0
    coef, _, rank, _ = np.linalg.lstsq(design / col_scale, S, rcond=None)
    if rank < n + 1:
        raise DegeneratePointSet(
            f"affine fit underdetermined: design rank {rank} < {n + 1}"
        )
    coef = coef / col_scale
    predicted = design @ coef
    S.flags.writeable = False
    return AffineFit(
        gradient=tuple(float(v) for v in coef[:n]),
        constant=float(coef[n]),
        max_residual=float(np.max(np.abs(S - predicted))),
        S=S,
    )
