"""Moment polytope of CP^n blown up at a point, via facet affine functions.

The polytope is the standard simplex ``{x_i >= 0, sum(x) <= b}`` with the
corner at the origin truncated by ``sum(x) >= a``, for ``0 < a < b``.  It is
described by n+2 affine functions l_i(x) = <normal_i, x> + offset_i that are
nonnegative exactly on the polytope:

    l_i(x) = x_i            (i = 1..n)
    l_{n+1}(x) = t - a      (t = sum of the x_i)
    l_{n+2}(x) = b - t

All facet data is floating point; comparisons against it use a 1e-12
tolerance.  Facet values double as boundary distances "in facet-value units",
which is the natural gauge for the log singularities of the potentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyRegion, InvalidParameters

FACET_TOL = 1e-12

# sample_interior draws this many box points per rejection round
_BATCH = 4096


@dataclass(frozen=True)
class AffineFacet:
    """Affine function l(x) = <normal, x> + offset, nonnegative inside."""

    normal: tuple[int, ...]
    offset: float

    def __post_init__(self) -> None:
        if not any(self.normal):
            raise InvalidParameters("facet normal must be nonzero")

    def value(self, x: np.ndarray) -> float:
        return float(np.dot(self.normal, x) + self.offset)


@dataclass(frozen=True)
class MomentPolytope:
    """A polytope cut out by facet functions, plus a sampling box.

    ``bounding_box`` is a per-axis (lo, hi) pair enclosing the polytope; it
    only steers rejection sampling and never participates in membership
    tests.
    """

    dimension: int
    facets: tuple[AffineFacet, ...]
    bounding_box: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise InvalidParameters("dimension must be >= 1")
        if len(self.bounding_box) != self.dimension:
            raise InvalidParameters("bounding box must have one (lo, hi) per axis")
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
    box = tuple((0.0, b) for _ in range(n))
    return MomentPolytope(dimension=n, facets=facets, bounding_box=box)


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


def sample_interior(
    P: MomentPolytope,
    count: int,
    margin: float,
    seed: int = 0,
    max_draws: int = 1_000_000,
) -> np.ndarray:
    """Deterministic interior points with every facet value >= margin.

    Rejection sampling over the bounding box with numpy's default PCG64
    generator; identical (P, count, margin, seed) always return identical
    points.  Raises EmptyRegion once ``max_draws`` box points have been
    tried, which is how an over-large margin surfaces.
    """
    if count < 1:
        raise InvalidParameters("count must be >= 1")
    if not margin > 0.0:
        raise InvalidParameters("margin must be positive")

    rng = np.random.default_rng(seed)
    lo = np.array([lo for lo, _ in P.bounding_box])
    hi = np.array([hi for _, hi in P.bounding_box])
    normals = np.array([f.normal for f in P.facets], dtype=float)
    offsets = np.array([f.offset for f in P.facets])

    accepted: list[np.ndarray] = []
    drawn = 0
    while len(accepted) < count:
        if drawn >= max_draws:
            raise EmptyRegion(
                f"no interior point with margin {margin} found after "
                f"{drawn} draws"
            )
        batch = rng.uniform(lo, hi, size=(_BATCH, P.dimension))
        drawn += _BATCH
        values = batch @ normals.T + offsets
        good = batch[np.min(values, axis=1) >= margin]
        accepted.extend(good)
    return np.array(accepted[:count])
