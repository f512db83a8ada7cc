"""The extremal metric ``verify`` checks, built from the polytope data, and the
endpoint check of its h''.  The metric is a ``TPotential(n, a, b, jet)``,
which is also its moment polytope {x_i >= 0, a <= sum(x) <= b}.

The coefficients (A, B, C, D), their exact checks and the deflated (V, Q)
come from ``exact``, in rational arithmetic; ``table`` evaluates the profile
they define in plain floats: its momentum profile and the h'' of its ends,

    phi(t) = (t-a)(t-b)*Q(t)/(p*t^(n-1)),      h''(t) = -V/Q - 1/t,

with p*t^n - alpha = (t-a)(t-b)*Q.  Of the CLI commands only ``verify``
imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from . import exact, table
from .radial import TPotential


def _endpoint_limits(
    E: exact.ExtremalCoefficients, tolerance: float
) -> tuple[bool, dict]:
    """Verdict and report: h'' is finite at both ends, and ``table.h_second``
    is right next to them.  Exact part: Q(a), Q(b) < 0 are the end Bernstein
    coefficients, so h'' = -V/Q - 1/t has finite limits.  Float part:
    ``table.h_second`` at a + c*delta and b - c*delta against the exact h'' at
    the same float t, relative to the largest of those six |h''|.  Where
    c*delta rounds away, in a shell thinner than about 2e-10*b, a probe is
    the first float inside instead; the report lists the six t probed.
    """
    offsets = [1e-6, 5e-7, 2.5e-7]
    inner_a, inner_b = math.nextafter(E.a, E.b), math.nextafter(E.b, E.a)
    ts = [max(E.a + E.c * d, inner_a) for d in offsets]
    ts += [min(E.b - E.c * d, inner_b) for d in offsets]
    got = table.h_second(E, ts)
    want = [exact._h_second_exact(E, t) for t in map(Fraction, ts)]
    error = max(abs(Fraction(g) - w) for g, w in zip(got, want)) / max(map(abs, want))
    return error <= tolerance, {
        "offsets": offsets,
        "probes": ts,
        "near_a": got[:3],
        "near_b": got[3:],
        "denominator_at_ends": [float(E._bernstein[0]), float(E._bernstein[-1])],
        "max_error": float(error),
    }


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
