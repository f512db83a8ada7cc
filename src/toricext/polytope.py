"""Moment polytope of CP^n blown up at a point, via facet affine functions.

The polytope is the standard simplex ``{x_i >= 0, sum(x) <= b}`` with the
corner at the origin truncated by ``sum(x) >= a``, for ``0 < a < b``.  It is
described by n+2 affine functions l_i(x) = <normal_i, x> + offset_i that are
nonnegative exactly on the polytope:

    l_i(x) = x_i            (i = 1..n)
    l_{n+1}(x) = t - a      (t = sum of the x_i)
    l_{n+2}(x) = b - t

Facet values double as boundary distances "in facet-value units", which is
the natural gauge for the log singularities of the potentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyRegion, InvalidParameters


@dataclass(frozen=True)
class AffineFacet:
    """Affine function l(x) = <normal, x> + offset, nonnegative inside."""

    normal: tuple[int, ...]
    offset: float

    def __post_init__(self) -> None:
        if not any(self.normal):
            raise InvalidParameters("facet normal must be nonzero")


@dataclass(frozen=True)
class MomentPolytope:
    """A polytope cut out by facet functions."""

    dimension: int
    facets: tuple[AffineFacet, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise InvalidParameters("dimension must be >= 1")
        for facet in self.facets:
            if len(facet.normal) != self.dimension:
                raise DimensionMismatch(
                    f"facet normal has length {len(facet.normal)}, "
                    f"expected {self.dimension}"
                )


def build_blowup_polytope(n: int, a: float, b: float) -> MomentPolytope:
    """Facet description of the blow-up of CP^n at a point.

    Requires n >= 1 and 0 < a < b; ``a`` is the size of the truncated corner,
    ``b`` the size of the ambient simplex.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidParameters("n must be an integer")
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidParameters("a and b must be finite")
    if not 0.0 < a < b:
        raise InvalidParameters(f"need 0 < a < b, got a={a}, b={b}")

    coords = tuple(
        AffineFacet(tuple(1 if j == i else 0 for j in range(n)), 0.0)
        for i in range(n)
    )
    ones = tuple(1 for _ in range(n))
    minus_ones = tuple(-1 for _ in range(n))
    facets = coords + (AffineFacet(ones, -a), AffineFacet(minus_ones, b))
    return MomentPolytope(dimension=n, facets=facets)


def facet_values(P: MomentPolytope, x) -> np.ndarray:
    """All facet values (l_1(x), ..., l_k(x)) in facet order.

    x is one point (n,) or a stack (..., n); the facet values run along the
    last axis of the result.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (P.dimension,):
        raise DimensionMismatch(
            f"point has shape {x.shape}, expected (..., {P.dimension})"
        )
    normals = np.array([f.normal for f in P.facets], dtype=float)
    offsets = np.array([f.offset for f in P.facets])
    return x @ normals.T + offsets


def interior_distance(P: MomentPolytope, x):
    """Distance to the boundary in facet-value units (min facet value).

    A float for one point (n,), an array of shape (...) for a stack (..., n).
    """
    d = np.min(facet_values(P, x), axis=-1)
    return float(d) if d.ndim == 0 else d


def _sum_bounds(P: MomentPolytope) -> tuple[float, float]:
    """(a, b) such that P = {x_i >= 0, a <= sum(x) <= b}, read off the facets.

    P must have a facet x_i >= 0 for every axis, at most one sum(x) >= a
    (a = 0 without one: the simplex of CP^n) and exactly one sum(x) <= b.
    """
    n = P.dimension
    units = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    axes = {f.normal for f in P.facets if f.normal in units and f.offset == 0.0}
    rest = [f for f in P.facets if not (f.normal in units and f.offset == 0.0)]
    lower = [-f.offset for f in rest if f.normal == (1,) * n]
    upper = [f.offset for f in rest if f.normal == (-1,) * n]
    shape_ok = len(axes) == n and len(lower) <= 1 and len(upper) == 1
    if not shape_ok or len(rest) != len(lower) + len(upper):
        raise InvalidParameters(f"cannot sample a polytope with facets {P.facets}")
    return (lower[0] if lower else 0.0), upper[0]


def sample_interior(
    P: MomentPolytope, count: int, margin: float, seed: int = 0
) -> np.ndarray:
    """Deterministic interior points with every facet value >= margin.

    The points are uniform on {x_i >= m, sum(x) - a >= m, b - sum(x) >= m}
    (m = margin, a and b from ``_sum_bounds``).  With y = x - m the region is
    {y >= 0, lo <= sum(y) <= hi}, lo = max(a + m - n*m, 0), hi = b - m - n*m,
    so one exact draw per point does it (uniform spacings, Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. V): a direction
    uniform on the simplex sum(d) = 1 from normalised exponentials, and a
    radius s with density proportional to s^(n-1) on [lo, hi], by inverse
    CDF in the scale-free form hi*(r^n + u*(1 - r^n))^(1/n), r = lo/hi.
    numpy's default PCG64 generator makes identical (P, count, margin, seed)
    return identical points.  Raises EmptyRegion when lo >= hi.
    """
    if count < 1:
        raise InvalidParameters("count must be >= 1")
    if not margin > 0.0:
        raise InvalidParameters("margin must be positive")

    n = P.dimension
    a, b = _sum_bounds(P)
    lo = max(a + margin - n * margin, 0.0)
    hi = b - margin - n * margin
    if not lo < hi:
        raise EmptyRegion(
            f"no interior point with margin {margin}: sum(x - margin) would "
            f"have to lie in [{lo}, {hi}]"
        )

    rng = np.random.default_rng(seed)
    spacings = rng.exponential(size=(count, n))
    directions = spacings / np.sum(spacings, axis=1, keepdims=True)
    r_n = (lo / hi) ** n
    radii = hi * (r_n + rng.random(count) * (1.0 - r_n)) ** (1.0 / n)
    return margin + radii[:, None] * directions
