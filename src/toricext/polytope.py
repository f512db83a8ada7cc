"""Moment polytope of a radial metric: CP^n blown up at a point.

A radial metric's ``TPotential(n, t_min, t_max, jet)`` is its polytope, the
standard simplex ``{x_i >= 0, sum(x) <= t_max}`` with the corner at the
origin truncated by ``sum(x) >= t_min``; t_min = 0 leaves the simplex of CP^n
itself.  It is where the n+2 affine facet values

    x_i  (i = 1..n),    t - t_min,    t_max - t      (t = sum of the x_i)

are nonnegative.  Facet values double as boundary distances "in facet-value
units", which is the natural gauge for the log singularities of the
potentials.
"""

import math
import random
from collections.abc import Sequence

from .errors import EmptyRegion, InvalidParameters
from .radial import TPotential


def interior_distance(T: TPotential, x: Sequence[float]) -> float:
    """Distance of one point x to the boundary of T's polytope in
    facet-value units: min(x_1, ..., x_n, t - t_min, t_max - t), t = sum(x)
    correctly rounded."""
    if len(x) != T.n:
        raise InvalidParameters(f"point has {len(x)} coordinates, expected {T.n}")
    t = math.fsum(x)
    return min(*x, t - T.t_min, T.t_max - t)


def sample_interior(
    T: TPotential, count: int, margin: float, seed: int = 0
) -> list[list[float]]:
    """Deterministic points of T's polytope with every facet value >= margin.

    With (a, b) = (t_min, t_max) and m = margin, the points are uniform on
    {x_i >= m, sum(x) - a >= m, b - sum(x) >= m}.  With y = x - m the region
    is {y >= 0, lo <= sum(y) <= hi}, lo = max(a + m - n*m, 0),
    hi = b - m - n*m, so one exact draw per point does it (uniform spacings,
    Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. V): a
    direction uniform on the simplex sum(d) = 1 from normalised exponentials,
    and a radius s with density proportional to s^(n-1) on [lo, hi], by
    inverse CDF in the scale-free form hi*(r^n + u*(1 - r^n))^(1/n),
    r = lo/hi.

    The variates come from the standard library's Mersenne Twister,
    ``random.Random(seed).random()``, whose stream Python keeps fixed for a
    seed across versions: each point takes n + 1 draws in turn, the first n
    giving the spacings -log1p(-u) and the last the radius variate u.
    Identical (n, a, b, count, margin, seed) return identical points, count
    lists of n floats.  Raises InvalidParameters for a negative seed and
    EmptyRegion when lo >= hi.
    """
    if count < 1:
        raise InvalidParameters("count must be >= 1")
    if not margin > 0.0:
        raise InvalidParameters("margin must be positive")
    if seed < 0:
        raise InvalidParameters("seed must be >= 0")

    n = T.n
    lo = max(T.t_min + margin - n * margin, 0.0)
    hi = T.t_max - margin - n * margin
    if not lo < hi:
        raise EmptyRegion(
            f"no interior point with margin {margin}: sum(x - margin) would "
            f"have to lie in [{lo}, {hi}]"
        )

    draw = random.Random(seed).random
    r_n = (lo / hi) ** n
    points = []
    for _ in range(count):
        spacings = [-math.log1p(-draw()) for _ in range(n)]
        total = math.fsum(spacings)
        radius = hi * (r_n + draw() * (1.0 - r_n)) ** (1.0 / n)
        points.append([margin + radius * (s / total) for s in spacings])
    return points
