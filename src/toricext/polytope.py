"""Moment polytope of CP^n blown up at a point.

The polytope is the standard simplex ``{x_i >= 0, sum(x) <= b}`` with the
corner at the origin truncated by ``sum(x) >= a``, for ``0 < a < b``; a = 0
leaves the simplex of CP^n itself.  It is where the n+2 affine functions

    x_i  (i = 1..n),    t - a,    b - t      (t = sum of the x_i)

are nonnegative, so ``BlowupPolytope(n, a, b)`` records it by three numbers.

Facet values double as boundary distances "in facet-value units", which is
the natural gauge for the log singularities of the potentials.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from .errors import DimensionMismatch, EmptyRegion, InvalidParameters
from .exact import _check_geometry
from .record import Record


class BlowupPolytope(Record):
    """{x_i >= 0, a <= sum(x) <= b} in R^n."""

    _fields = ("n", "a", "b")

    def __init__(self, n: int, a: float, b: float) -> None:
        super().__init__(n, a, b)


def build_blowup_polytope(n: int, a: float, b: float) -> BlowupPolytope:
    """The blow-up of CP^n at a point.

    Requires n >= 1 and 0 < a < b; ``a`` is the size of the truncated corner,
    ``b`` the size of the ambient simplex.
    """
    a, b = float(a), float(b)
    _check_geometry(n, a, b)
    return BlowupPolytope(int(n), a, b)


def facet_values(P: BlowupPolytope, x: Sequence[float]) -> list:
    """All facet values (x_1, ..., x_n, t - a, b - t) at one point x."""
    if len(x) != P.n:
        raise DimensionMismatch(f"point has {len(x)} coordinates, expected {P.n}")
    t = math.fsum(x)
    return [*x, t - P.a, P.b - t]


def interior_distance(P: BlowupPolytope, x: Sequence[float]) -> float:
    """Distance of one point x to the boundary in facet-value units (min
    facet value)."""
    return min(facet_values(P, x))


def sample_interior(
    P: BlowupPolytope, count: int, margin: float, seed: int = 0
) -> list[list[float]]:
    """Deterministic interior points with every facet value >= margin.

    The points are uniform on {x_i >= m, sum(x) - a >= m, b - sum(x) >= m}
    (m = margin).  With y = x - m the region is
    {y >= 0, lo <= sum(y) <= hi}, lo = max(a + m - n*m, 0), hi = b - m - n*m,
    so one exact draw per point does it (uniform spacings, Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. V): a direction
    uniform on the simplex sum(d) = 1 from normalised exponentials, and a
    radius s with density proportional to s^(n-1) on [lo, hi], by inverse
    CDF in the scale-free form hi*(r^n + u*(1 - r^n))^(1/n), r = lo/hi.

    The variates come from the standard library's Mersenne Twister,
    ``random.Random(seed).random()``, whose stream Python keeps fixed for a
    seed across versions: each point takes n + 1 draws in turn, the first n
    giving the spacings -log1p(-u) and the last the radius variate u.
    Identical (P, count, margin, seed) return identical points, count lists
    of n floats.  Raises InvalidParameters for a negative seed and
    EmptyRegion when lo >= hi.
    """
    if count < 1:
        raise InvalidParameters("count must be >= 1")
    if not margin > 0.0:
        raise InvalidParameters("margin must be positive")
    if seed < 0:
        raise InvalidParameters("seed must be >= 0")

    n = P.n
    lo = max(P.a + margin - n * margin, 0.0)
    hi = P.b - margin - n * margin
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
