"""The extremal metric ``verify`` checks, built from the polytope data.  The
metric is a ``TPotential(n, a, b, jet)``, which is also its moment polytope
{x_i >= 0, a <= sum(x) <= b}.

The coefficients (A, B, C, D), their exact checks and the deflated Q come
from ``exact``, in rational arithmetic; ``table`` evaluates the momentum
profile they define in plain floats,

    phi(t) = (t-a)(t-b)*Q(t)/(p*t^(n-1)),

with p*t^n - alpha = (t-a)(t-b)*Q.  Of the CLI commands only ``verify``
imports this module.
"""

from __future__ import annotations

from functools import partial

from . import exact, table
from .radial import TPotential


def build_extremal_metric(
    n: int, a: float, b: float
) -> tuple[TPotential, exact.ExtremalCoefficients]:
    """Extremal profile and coefficients for one (n, a, b), after
    ``solve_coefficients`` has checked the geometry and
    ``positivity_certificate`` has proved the metric valid.

    The profile's jet is ``table.jet`` on the record's coefficients.
    """
    E = exact.solve_coefficients(n, a, b)
    exact.positivity_certificate(E)
    return TPotential(E.n, E.a, E.b, partial(table.jet, E)), E
