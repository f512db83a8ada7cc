"""Scalar curvature of a general toric metric from its symplectic potential.

The curvature of the metric defined by a potential g with Hessian G is

    S(x) = -(1/2) * sum_ij  d^2 G^{ij} / dx_i dx_j,

with G^{ij} the entries of the inverse Hessian.  Here the inner layer
(Hessian, then dense inversion) is exact up to rounding whenever an analytic
Hessian oracle is available, and the outer second derivatives are always
central finite differences on the polytope interior.  Both layers run on
whole stacks of points: a Hessian oracle maps (m, n) points to (m, n, n)
Hessians, and the stencil evaluates every point at once.  Extremality of a
metric means S is affine in x; ``extremality_residual`` measures the distance
to that.
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
from .polytope import MomentPolytope, _sum_bounds, interior_distance
from .radial import TPotential, radial_hessian

# dense direct inversion is plenty for the sizes this family produces;
# refuse anything bigger so a misuse fails loudly instead of slowly
MAX_DIMENSION = 16


@dataclass(frozen=True)
class SymplecticPotential:
    """A potential on a polytope, exposed through its Hessian oracle.

    The oracle maps an (m, n) array of points to their (m, n, n) Hessians.
    """

    polytope: MomentPolytope
    hessian_oracle: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_radial(cls, polytope: MomentPolytope, T: TPotential) -> "SymplecticPotential":
        """Analytic Hessian of the radial potential with profile T."""

        def oracle(x: np.ndarray) -> np.ndarray:
            return radial_hessian(x, T.d2F(np.sum(x, axis=-1)))

        return cls(polytope=polytope, hessian_oracle=oracle)

    @classmethod
    def from_value_oracle(
        cls,
        polytope: MomentPolytope,
        g: Callable[[np.ndarray], float],
        h: float,
    ) -> "SymplecticPotential":
        """Finite-difference Hessian over a value oracle with inner step h."""

        def oracle(x: np.ndarray) -> np.ndarray:
            return np.array([numeric_hessian(g, row, h, polytope=polytope)
                             for row in x])

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


def _max_normal_entry(P: MomentPolytope) -> float:
    return max(max(abs(v) for v in f.normal) for f in P.facets)


def numeric_hessian(
    value_oracle: Callable[[np.ndarray], float],
    x,
    h: float,
    polytope: Optional[MomentPolytope] = None,
) -> np.ndarray:
    """Symmetric FD Hessian: central diagonal stencils, 4-point cross mixed.

    When a polytope is supplied, refuses stencils whose corners could leave
    the interior (worst-case facet-value drop is 2h per unit normal entry).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if polytope is not None:
        reach = 2.0 * h * _max_normal_entry(polytope)
        if interior_distance(polytope, x) < reach:
            raise StencilExitsDomain(
                f"inner stencil (reach {reach:.3e}) exits the domain at {x}"
            )

    H = np.empty((n, n))
    g0 = value_oracle(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (value_oracle(x + ei) - 2.0 * g0 + value_oracle(x - ei)) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            mixed = (
                value_oracle(x + ei + ej)
                - value_oracle(x + ei - ej)
                - value_oracle(x - ei + ej)
                + value_oracle(x - ei - ej)
            ) / (4.0 * h * h)
            H[i, j] = mixed
            H[j, i] = mixed
    return H


def _inverse_hessians(P: SymplecticPotential, x: np.ndarray) -> np.ndarray:
    """Stacked inverse Hessians at the (m, n) points x."""
    H = P.hessian_oracle(x)
    try:
        return np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        worst = int(np.argmin(np.linalg.matrix_rank(H)))
        raise SingularHessian(f"Hessian not invertible at {x[worst]}") from exc


def abreu_scalar_curvature(
    P: SymplecticPotential, x, h: Optional[float] = None
) -> float | np.ndarray:
    """S(x) = -(1/2) sum_ij d^2 G^{ij}/dx_i dx_j by central differences.

    x is one point (n,), answered with a float, or a stack (m, n), answered
    with an (m,) array.  Each stencil term inverts the Hessians of all m
    shifted points at once, so memory is O(m n^2).

    Default step, per point: eps^(1/4)*b, with b read off facets of the
    shape {x_i >= 0, a <= sum(x) <= b}, clamped to the limit past which the
    outer stencil leaves the domain.  One length per geometry keeps the
    result covariant under rescaling (a, b).  With the default step any
    other facet set raises InvalidParameters; an explicit h works on any
    facet set, and one past the limit raises StencilExitsDomain.
    """
    x = np.asarray(x, dtype=float)
    n = P.polytope.dimension
    if n > MAX_DIMENSION:
        raise InvalidParameters(
            f"dense inversion limited to n <= {MAX_DIMENSION}, got {n}"
        )
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
    limit = dmin / (3.0 * _max_normal_entry(P.polytope))
    if h is None:
        h = np.minimum(STEP_SECOND * _sum_bounds(P.polytope)[1], limit)
    else:
        h = np.full(len(pts), float(h))
    exits = h > limit
    if np.any(exits):
        raise StencilExitsDomain(
            f"outer stencil with step {h[exits][0]:.3e} exits the domain at "
            f"{pts[exits][0]}"
        )

    def shifted(*steps: tuple[int, float]) -> np.ndarray:
        """The points moved by sign*h along each (axis, sign) of steps."""
        moved = pts.copy()
        for axis, sign in steps:
            moved[:, axis] += sign * h
        return moved

    hh = h * h
    center = _inverse_hessians(P, pts)
    total = np.zeros(len(pts))
    for i in range(n):
        plus = _inverse_hessians(P, shifted((i, 1.0)))
        minus = _inverse_hessians(P, shifted((i, -1.0)))
        total += (plus[:, i, i] - 2.0 * center[:, i, i] + minus[:, i, i]) / hh
    for i in range(n):
        for j in range(i + 1, n):
            mixed = (
                _inverse_hessians(P, shifted((i, 1.0), (j, 1.0)))[:, i, j]
                - _inverse_hessians(P, shifted((i, 1.0), (j, -1.0)))[:, i, j]
                - _inverse_hessians(P, shifted((i, -1.0), (j, 1.0)))[:, i, j]
                + _inverse_hessians(P, shifted((i, -1.0), (j, -1.0)))[:, i, j]
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
    n = P.polytope.dimension
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
