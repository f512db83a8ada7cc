"""Legendre bridge between Kahler potentials f(s) and t-potentials F(t).

For a U(n)-invariant metric with Kahler potential f(s) the moment coordinate
and the symplectic-side profile are

    t = 2*s*f'(s),        F(t) = t*ln(s(t)/t) - 2*f(s(t)),

and with s~ = ln s the curvature has Calabi's one-variable form.  Writing
t', t'', t''' for the s~-derivatives of the moment coordinate t (t and t'
must be positive),

    v(s~) = n*s~ - (n-1)*ln t - ln t',
    v' = n - (n-1)*t'/t - t''/t',
    v'' = -(n-1)*(t''/t - (t'/t)^2) - t'''/t' + (t''/t')^2,
    S = (n-1)*v'/t + v''/t',

which this module evaluates from the closed-form jet (t, t', t'', t''') as a
third, symplectic-free curvature oracle.  A potential is its moment code:
one function of s that returns (t, t', t'', t''') by arithmetic alone; the
flat (t = s) and Fubini-Study (t = s/(1 + s)) presets are built in.  The
polytope side reads the induced momentum profile, phi(t) = t' as a function
of t, and differentiates the moment code's own t' on a Taylor jet instead of
trusting t'' and t''', so a jet that disagrees with its own rate fails the
cross-check.  The curvature formulas and the cross-check take lists and
return lists, in plain floats on the standard library.  ``run_bridge_check``
runs the ``bridge-check`` command.
"""

import math
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence

from .errors import DegenerateMetric, DomainViolation, InvalidParameters
from .numdiff import grid
from .radial import radial_scalar_curvature


class _Jet(namedtuple("_Jet", "v d dd")):
    """Second-order Taylor jets in s~ of one quantity at every sample, as
    three columns: its values v and its first and second s~-derivatives d
    and dd.  Moment code runs on it as written: + - * take a jet or a float
    on either side, / a float over a jet and ** an int power, and each value
    comes from the float operation the code spells (c/x, x**k), so the
    values are that code's bits."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(*([x + y for x, y in zip(p, q)] for p, q in zip(self, other)))
        return _Jet([x + other for x in self.v], self.d, self.dd)

    # x - y is x + (-y) bit for bit, and -1.0*y is exact
    __sub__ = lambda self, other: self + -1.0 * other
    __rsub__ = lambda self, other: -1.0 * self + other

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(*([other * x for x in column] for column in self))
        # Leibniz: (xy)' = x'y + xy' and (xy)'' = x''y + 2x'y' + xy''
        (xs, dxs, _), (ys, dys, _) = self, other
        return _Jet(
            [x * y for x, y in zip(xs, ys)],
            [dx * y + x * dy for x, dx, y, dy in zip(xs, dxs, ys, dys)],
            [ddx * y + 2.0 * dx * dy + x * ddy
             for x, dx, ddx, y, dy, ddy in zip(*self, *other)])

    __radd__, __rmul__ = __add__, __mul__

    def __rtruediv__(self, other):
        # g = c/x from g*x = c: g' = -g*x'/x and g'' = -(2*g'*x' + g*x'')/x
        g = [other / x for x in self.v]
        g1 = [-y * dx / x for x, dx, y in zip(self.v, self.d, g)]
        return _Jet(g, g1, [-(2.0 * dy * dx + y * ddx) / x
                            for x, dx, ddx, y, dy in zip(*self, g, g1)])

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        # (x^k)' = k*x^(k-1)*x' and (x^k)'' = k*(x^(k-1)*x'' + (k-1)*x^(k-2)*x'^2)
        return _Jet(
            [x**k for x in self.v],
            [k * x ** (k - 1) * dx for x, dx in zip(self.v, self.d)],
            [k * (x ** (k - 1) * ddx + (k - 1) * x ** (k - 2) * dx * dx)
             for x, dx, ddx in zip(*self)])


def _flat_moment(s):
    """f = s/2: the flat model (t = s, F'' = 0); t equals each of its
    s~-derivatives."""
    return s, s, s, s


def _fubini_study_moment(s):
    """f = ln(1+s)/2: Fubini-Study type (t = s/(1+s), S = n(n+1))."""
    # t = 2*s*f' with f' = 0.5/(1 + s), and t' = 2*(s*f' + s^2*f'')
    t = 2.0 * s * (0.5 / (1.0 + s))
    t1 = 2.0 * (s * (0.5 / (1.0 + s)) - s * s * (0.5 / (1.0 + s) ** 2))
    # t' = t*(1 - t), so each further s~-derivative is a product rule
    t2 = t1 * (1.0 - 2.0 * t)
    t3 = t2 * (1.0 - 2.0 * t) - 2.0 * t1 * t1
    return t, t1, t2, t3


# each preset's moment code: s, a float or a jet of the samples, to the
# s~-jet (t, t', t'', t''') of t = 2*s*f'(s)
PRESETS: dict[str, Callable] = {
    "flat": _flat_moment,
    "fubini-study": _fubini_study_moment,
}


def calabi_scalar_curvature(n: int, jet: Sequence[Sequence[float]]) -> list[float]:
    """Curvature from the Kahler side at each point of the jet columns
    (t, t', t'', t'''): S = (n-1)*v'/t + v''/t', with v' and v'' in closed
    form; a t or t' = phi that is not positive raises DegenerateMetric."""
    S = []
    for t, t1, t2, t3 in zip(*jet, strict=True):
        if t <= 0.0 or t1 <= 0.0:
            raise DegenerateMetric(f"t = {t} and dt/ds~ = {t1} must be positive")
        r, q = t1 / t, t2 / t1
        v1 = n - (n - 1) * r - q
        v2 = -(n - 1) * (t2 / t - r * r) - t3 / t1 + q * q
        S.append((n - 1) * v1 / t + v2 / t1)
    return S


def induced_jet(rate: _Jet) -> tuple[list[float], ...]:
    """The lists (phi, phi', phi'') of the momentum profile induced at the
    samples' t, phi = t'(s~(t)) (the Legendre relation F''(t) = 1/t' - 1/t,
    from differentiating F'(t) = ln s - ln t - 1), from the Taylor jet
    u = (t', t'', t''') of the moment code's own rate: phi = u,
    phi' = du/u and phi'' = (ddu/u - phi'^2)/u, by the chain rule in
    dt = u*ds~.  The rates must be positive, as the Kahler side checks."""
    dphi = [du / u for u, du in zip(rate.v, rate.d)]
    d2phi = [(ddu / u - slope * slope) / u
             for u, ddu, slope in zip(rate.v, rate.dd, dphi)]
    return rate.v, dphi, d2phi


# per-sample columns (tuples), then their worst difference
BridgeCheckReport = namedtuple(
    "BridgeCheckReport", "s t kahler_side polytope_side difference max_discrepancy"
)


def bridge_cross_check(
    n: int, moment: Callable, s_samples: Sequence[float]
) -> BridgeCheckReport:
    """Compare the Kahler-side curvature of the n-dimensional metric whose
    moment code is moment against the radial pipeline.

    One moment call, on the Taylor jet of the samples (s~ seeds s as
    (s, s, s)), gives their moment coordinates t and Calabi's formula the
    values of its jet; the radial curvature formula runs on the ts and the
    momentum profile induced from the jet of t'.
    """
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    # n(n + 1), the largest integer the curvature formulas take into floats
    if n * (n + 1) > sys.float_info.max:
        raise InvalidParameters("n is past the float range: n(n + 1) overflows a float")
    s = tuple(map(float, s_samples))
    if not s:
        raise DomainViolation("need at least one sample")
    for x in s:
        if not x > 0.0:
            raise DomainViolation(f"s must be positive, got {x}")
    seed = list(s)
    jet = moment(_Jet(seed, seed, seed))
    t = tuple(jet[0].v)
    # the Kahler side refuses a t or t' <= 0 before the polytope side divides by t'
    kahler_side = tuple(calabi_scalar_curvature(n, [column.v for column in jet]))
    polytope_side = tuple(radial_scalar_curvature(n, t, induced_jet(jet[1])))
    difference = tuple(abs(k - p) for k, p in zip(kahler_side, polytope_side))
    # max() skips a NaN that is not first; the worst difference must show it
    worst = math.nan if any(d != d for d in difference) else max(difference)
    return BridgeCheckReport(s, t, kahler_side, polytope_side, difference, worst)


def run_bridge_check(args) -> tuple[dict, str]:
    """``bridge-check``: the cross-check of one preset, or of each, over an
    evenly spaced grid of s in [0.25, 4]."""
    from .cli import _Table

    names = [args.preset] if args.preset else sorted(PRESETS)
    s_grid = grid(0.25, 4.0, args.samples)

    blocks = []
    failing = []
    for name in names:
        rep = bridge_cross_check(args.n, PRESETS[name], s_grid)
        ok = rep.max_discrepancy <= args.tolerance_soft
        if not ok:
            failing.append(name)
        blocks.append(
            {
                "preset": name,
                "max_discrepancy": rep.max_discrepancy,
                "passed": ok,
                # every field of the report but max_discrepancy is a column
                "rows": _Table(rep._fields[:-1], rep[:-1]),
            }
        )
    doc = {
        "schema": 1,
        "command": "bridge-check",
        "n": args.n,
        "samples": args.samples,
        "tolerance_soft": args.tolerance_soft,
        "presets": blocks,
        "passed": not failing,
    }
    return doc, "" if not failing else "bridge-check failed: " + ", ".join(failing)
