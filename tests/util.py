"""Shared model potentials and polytopes for the test suite."""

from __future__ import annotations

from toricext import TPotential
from toricext.polytope import AffineFacet, MomentPolytope


def cpn_profile(n: int) -> TPotential:
    """Guillemin profile of CP^n: F'' = 1/(1-t) on (0, 1), S = n(n+1)."""
    return TPotential(
        n=n,
        t_min=0.0,
        t_max=1.0,
        d2F=lambda t: 1.0 / (1.0 - t),
        d3F=lambda t: 1.0 / (1.0 - t) ** 2,
        d4F=lambda t: 2.0 / (1.0 - t) ** 3,
    )


def flat_profile(n: int, t_max: float = 10.0) -> TPotential:
    """F'' = 0 on (0, t_max): the flat metric, S = 0."""
    zero = lambda t: 0.0
    return TPotential(n=n, t_min=0.0, t_max=t_max, d2F=zero, d3F=zero, d4F=zero)


def simplex_polytope(n: int) -> MomentPolytope:
    """The unit simplex {x_i >= 0, sum x <= 1}: moment polytope of CP^n."""
    coords = tuple(
        AffineFacet(tuple(1 if j == i else 0 for j in range(n)), 0.0)
        for i in range(n)
    )
    top = AffineFacet(tuple(-1 for _ in range(n)), 1.0)
    return MomentPolytope(dimension=n, facets=coords + (top,))
