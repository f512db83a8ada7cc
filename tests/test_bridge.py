import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toricext import bridge as bridge_mod
from toricext import exact as exact_mod
from toricext.bridge import (
    PRESETS,
    _Jet,
    bridge_cross_check,
    calabi_scalar_curvature,
    induced_jet,
)
from toricext.calabi import build_extremal_metric
from toricext.errors import DegenerateMetric, DomainViolation, InvalidParameters
from toricext.numdiff import grid
from util import as_fractions, geometric_grid, legendre_F


# the presets' Kahler potentials f(s), and the inverses s(t) of their moment
# maps t = 2*s*f'(s), which the bridge keeps neither of: test references
def flat_potential(s):
    return 0.5 * s


def fubini_study_potential(s):
    return 0.5 * math.log1p(s)


_PRESET_OF = {flat_potential: "flat", fubini_study_potential: "fubini-study"}
_S_OF_T = {"flat": lambda t: t, "fubini-study": lambda t: t / (1.0 - t)}

# s in [1e-3, 1e3], where Fubini-Study's t' runs from 1e-3 up to 1/4 and back
_S = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


def _seed(ss):
    # the Taylor jet in s~ = ln s of the samples themselves: s' = s'' = s
    ss = list(ss)
    return _Jet(ss, ss, ss)


def _values(moment, ss):
    # the columns (t, t', t'', t''') at the samples, as the Kahler side reads them
    return [column.v for column in moment(_seed(ss))]


def _sine_moment(s):
    # f = sin(s): t = 2*s*cos(s) rises, turns over near s = 0.86 and goes
    # negative; each s~-derivative is s*d/ds
    c, si = math.cos(s), math.sin(s)
    t1 = 2.0 * s * (c - s * si)
    t2 = 2.0 * s * (c - 3.0 * s * si - s * s * c)
    t3 = 2.0 * s * (c - 7.0 * s * si - 6.0 * s * s * c + s**3 * si)
    return 2.0 * s * c, t1, t2, t3


def _cross_check_one(moment, s):
    return bridge_cross_check(1, moment, [s])


def _curvature_at(moment, s):
    return calabi_scalar_curvature(1, [[x] for x in moment(s)])


def _jet_errors(moment, s):
    # the hand-written t', t'' and t''' at s against the Taylor derivatives
    # of the moment code's t and t' (t.d; t'.d and t'.dd), relative to t'
    t, t1, t2, t3 = moment(_seed([s]))
    pairs = [(t1.v, t.d), (t2.v, t1.d), (t3.v, t1.dd)]
    return [abs(got[0] - want[0]) / t1.v[0] for got, want in pairs]


def _scaled(moment, k):
    # the moment code with its k-th column off by 1 %
    return lambda s: tuple(
        1.01 * column if j == k else column for j, column in enumerate(moment(s)))


def test_flat_moment_map_is_identity():
    ss = [0.1, 1.0, 7.5]
    assert _values(PRESETS["flat"], ss) == [ss] * 4
    assert PRESETS["flat"](7.5) == (7.5,) * 4


def test_fubini_study_moment_map():
    # t = s/(1+s)
    half, near_one = _values(PRESETS["fubini-study"], [1.0, 1e6])[0]
    assert half == pytest.approx(0.5, rel=1e-12)
    assert abs(near_one - 1.0) < 2e-6


def test_moment_map_rejects_nonpositive_s():
    # the cross-check refuses the sample before the moment code sees it
    moment = PRESETS["fubini-study"]
    with pytest.raises(DomainViolation):
        bridge_cross_check(1, moment, [0.0])
    with pytest.raises(DomainViolation):
        bridge_cross_check(1, moment, [1.0, -1.0])


@pytest.mark.parametrize("f", [flat_potential, fubini_study_potential])
def test_moment_map_round_trip(f):
    # the s(t) the Legendre references read inverts the preset's t = 2*s*f'
    preset = _PRESET_OF[f]
    ss = geometric_grid(1e-3, 1e3, 500)
    ts = _values(PRESETS[preset], ss)[0]
    assert [_S_OF_T[preset](t) for t in ts] == pytest.approx(ss, rel=1e-12)
    # and t is 2*s*f'(s), f' by a central difference
    for s, t in zip(ss[::50], ts[::50]):
        h = 1e-6 * s
        assert t == pytest.approx(s * (f(s + h) - f(s - h)) / h, rel=1e-7)


@given(st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60)
def test_moment_map_round_trip_property(s):
    [t] = _values(PRESETS["fubini-study"], [s])[0]
    assert _S_OF_T["fubini-study"](t) == pytest.approx(s, rel=1e-9)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_rate_is_the_derivative_of_its_moment(preset, n):
    # the two closed forms of a preset, t and dt/ds~, must agree: the Taylor
    # derivative of the moment code's t is its t' (exactly for flat); a t'
    # off by 1 % fails the same check, and bridge-check at n
    moment = PRESETS[preset]
    mutant = _scaled(moment, 1)

    @given(_S)
    @settings(max_examples=100, deadline=None)
    def check(s):
        assert _jet_errors(moment, s)[0] <= (1e-10 if preset == "fubini-study" else 0.0)
        assert _jet_errors(mutant, s)[0] > 1e-3

    check()
    assert bridge_cross_check(n, mutant, grid(0.25, 4.0, 10)).max_discrepancy > 1e-5


# t and dt/ds~ of each preset as its moment map computed them as plain
# floats, one s at a time, before the map ran on jets
_PRESET_T_AND_RATE = {
    "flat": lambda s: (s, s),
    "fubini-study": lambda s: (
        2.0 * s * (0.5 / (1.0 + s)),
        2.0 * (s * (0.5 / (1.0 + s)) - s * s * (0.5 / (1.0 + s) ** 2)),
    ),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_jet_keeps_the_moment_maps_t_and_rate(preset):
    # the t column and the Kahler side read t and t', so their bits stay
    ss = geometric_grid(1e-3, 1e3, 500)
    want = [_PRESET_T_AND_RATE[preset](s) for s in ss]
    assert list(zip(*_values(PRESETS[preset], ss)[:2])) == want


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_columns_are_their_one_element_calls(preset):
    # the moment code on a jet is the float code on each s, bit for bit: its
    # value columns are lists of the float calls' values
    moment = PRESETS[preset]
    ss = geometric_grid(1e-3, 1e3, 500)
    jet = moment(_seed(ss))
    assert len(jet) == 4 and all(type(column) is _Jet for column in jet)
    assert all(type(c) is list for column in jet for c in column)
    assert list(map(list, zip(*_values(moment, ss)))) == [list(moment(s)) for s in ss]


def test_potential_refuses_a_dimension_below_one():
    for moment in PRESETS.values():
        with pytest.raises(InvalidParameters, match="^n must be >= 1$"):
            bridge_cross_check(0, moment, [1.0])


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_jet_is_the_derivative_of_its_rate(preset, n):
    # the hand-written t'' and t''' the Kahler side reads against the Taylor
    # derivatives of t' the polytope side reads: equal to 1e-10*t' for
    # Fubini-Study (t' cancels towards s = oo) and exactly for flat, so at n
    # both sides of bridge-check are the preset's own curvature
    moment = PRESETS[preset]

    @given(_S)
    @settings(max_examples=100, deadline=None)
    def check(s):
        _, second, third = _jet_errors(moment, s)
        assert max(second, third) <= (1e-10 if preset == "fubini-study" else 0.0)

    check()
    exact = 0.0 if preset == "flat" else float(n * (n + 1))
    report = bridge_cross_check(n, moment, grid(0.25, 4.0, 10))
    for side in (report.kahler_side, report.polytope_side):
        assert max(abs(got - exact) for got in side) <= 1e-13 * max(1.0, exact)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_jet_off_by_one_percent_fails_its_test_and_the_bridge(preset, k):
    # the Kahler side reads t'' and t''' as written, the polytope side
    # differentiates t': a jet at odds with its own rate fails bridge-check
    # at its default tolerance 1e-5 (the t'' mutant reads 4e-4 to 0.32 and
    # the t''' mutant 0.02 to 0.04 at n = 1, 2 and 6)
    mutant = _scaled(PRESETS[preset], k)
    assert _jet_errors(mutant, 0.5)[k - 1] > 1e-3
    for n in (1, 2, 6):
        assert bridge_cross_check(n, mutant, grid(0.25, 4.0, 10)).max_discrepancy > 1e-5


# one rational expression in s through every operation the jet supports:
# + - * with a jet or a float on either side, a float over a jet, ** an int
def _rational(s):
    return (
        3.0 * (s + 0.5) * (2.0 - s) - s * s * s
        + (1.5 + s) ** 3 - 0.75 / (1.0 + s**2) + (s - 0.25) * 0.5 - s
    )


def test_jet_arithmetic_is_the_derivative_of_a_rational_expression():
    # the jet's columns against sympy's s~-derivatives s*d/ds of the same
    # code run on a symbol; its values are the float code's bits
    x = sympy.Symbol("s", positive=True)
    expr = _rational(x)
    d1 = x * sympy.diff(expr, x)
    d2 = x * sympy.diff(d1, x)
    ss = [1e-3, 0.1, 0.7, 1.0, 3.0, 250.0]
    jet = _rational(_seed(ss))
    assert jet.v == [_rational(s) for s in ss]
    for s, v, d, dd in zip(ss, *jet):
        at = {x: sympy.Rational(s)}
        for got, want in ((v, expr), (d, d1), (dd, d2)):
            assert got == pytest.approx(float(want.subs(at)), rel=1e-13, abs=1e-13)
    # each jet operation on its own, against the same operation on floats
    a, b = _seed([0.3, 2.0]), _Jet([1.5, -4.0], [0.25, 3.0], [-1.0, 0.5])
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q,
               lambda p, q: 0.5 * p - 2.0 * q, lambda p, q: 1.0 - p + q**2):
        assert op(a, b).v == [op(p, q) for p, q in zip(a.v, b.v)]


def test_jet_refuses_what_the_presets_do_not_use():
    # no jet / jet, jet / float or function of math: each raises, none
    # returns a wrong jet
    s = _seed([0.5, 2.0])
    for op in (lambda: s / s, lambda: s / 2.0, lambda: math.sqrt(s), lambda: s**0.5):
        with pytest.raises(TypeError):
            op()


def test_flat_legendre_dual():
    # f = s/2 gives F(t) = t ln(t/t) - t = -t
    for t in (0.2, 1.0, 3.0):
        assert legendre_F(_S_OF_T["flat"], flat_potential, t) == pytest.approx(-t, rel=1e-12)


def test_fubini_study_legendre_dual():
    for t in grid(0.1, 0.9, 9):
        want = (1.0 - t) * math.log(1.0 - t)
        got = legendre_F(_S_OF_T["fubini-study"], fubini_study_potential, t)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_fubini_study_legendre_dual_fine_grid():
    for t in grid(0.02, 0.98, 50):
        want = (1.0 - t) * math.log(1.0 - t)
        got = legendre_F(_S_OF_T["fubini-study"], fubini_study_potential, t)
        assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_curvature_vanishes(n):
    for got in calabi_scalar_curvature(n, _values(PRESETS["flat"], [0.3, 1.0, 4.0])):
        assert abs(got) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fubini_study_curvature_is_constant(n):
    want = n * (n + 1)
    ss = geometric_grid(0.25, 4.0, 10)
    for got in calabi_scalar_curvature(n, _values(PRESETS["fubini-study"], ss)):
        assert abs(got - want) <= 1e-5 * want


@pytest.mark.parametrize("n", [1, 3, 6, 16])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_kahler_side_is_exact_to_rounding(preset, n):
    moment = PRESETS[preset]
    exact = 0.0 if preset == "flat" else float(n * (n + 1))
    scale = max(1.0, exact)
    for got in calabi_scalar_curvature(n, _values(moment, grid(0.25, 4.0, 2000))):
        assert abs(got - exact) <= 1e-13 * scale
    # towards s = 0 and s = oo, t' -> 0: Fubini-Study's (t''/t')^2 and
    # t'''/t' in v'' cancel down to 2*t', so the jet's rounding over t' sets
    # the floor (1.7e-13 relative at s = 1e-3)
    jet = _values(moment, geometric_grid(1e-3, 1e3, 2000))
    for got, rate in zip(calabi_scalar_curvature(n, jet), jet[1]):
        assert abs(got - exact) <= 1e-15 * scale / rate


@pytest.mark.parametrize("n", [1, 3, 6, 16])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_polytope_side_is_exact_to_rounding(preset, n):
    # the induced profile's jet is exact, so only the radial formula's
    # rounding is left: flat reads 0 exactly, and Fubini-Study's worst
    # relative error over s in [1e-3, 1e3] is 8.1e-10, 1.3e-10, 3.8e-11 and
    # 5.9e-12 at n = 1, 3, 6 and 16, at s near 1e3, where t -> 1 and t' ~ 1/s
    # divides phi' and phi''
    moment = PRESETS[preset]
    exact = 0.0 if preset == "flat" else float(n * (n + 1))
    ss = geometric_grid(1e-3, 1e3, 2000)
    report = bridge_cross_check(n, moment, ss)
    for got, rate in zip(report.polytope_side, _values(moment, ss)[1]):
        assert abs(got - exact) <= 1e-14 * exact / (rate * rate)


def test_fubini_study_curvature_frozen_value():
    jet = [[x] for x in PRESETS["fubini-study"](1.0)]
    assert calabi_scalar_curvature(2, jet) == [pytest.approx(6.0, abs=1e-9)]


def test_curvature_rejects_decreasing_potential():
    # f = -s: t = dt/ds~ = -2*s
    with pytest.raises(DegenerateMetric, match="must be positive"):
        calabi_scalar_curvature(1, ([-2.0], [-2.0], [-2.0], [-2.0]))


def test_curvature_columns_must_have_one_length():
    # a short column would drop points without a word
    with pytest.raises(ValueError):
        calabi_scalar_curvature(2, ([0.5, 1.0], [0.5, 1.0], [0.5], [0.5, 1.0]))


# --- Calabi's formula on the extremal metric ----------------------------------


def _extremal_kahler_side(n, a, b, taus, slope=1.0):
    """The ts a + tau*(b - a) and Calabi's Kahler-side curvature of the
    extremal metric there, from table.jet: t' = phi, t'' = phi*phi' and
    t''' = phi*(phi'^2 + phi*phi''), with phi' scaled by slope."""
    T, _ = build_extremal_metric(n, a, b)
    ts = [a + tau * (b - a) for tau in taus]
    phi, dphi, d2phi = T.jet(ts)
    dphi = [slope * d for d in dphi]
    jet = (
        ts,
        phi,
        [p * d for p, d in zip(phi, dphi)],
        [p * (d * d + p * dd) for p, d, dd in zip(phi, dphi, d2phi)],
    )
    return ts, calabi_scalar_curvature(n, jet)


def _worst_relative_error(n, a, b, ts, got):
    # against S = A*t + B of the exact coefficients, exact at the float t
    A, B, _, _ = as_fractions(exact_mod._exact_solution(n, a, b))
    return max(
        float(abs(Fraction(s) - (A * Fraction(t) + B)) / abs(A * Fraction(t) + B))
        for t, s in zip(ts, got)
    )


@given(
    n=st.integers(min_value=1, max_value=16),
    b=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    ratio=st.one_of(
        st.sampled_from([1e-3, 1 - 1e-6]), st.floats(min_value=1e-3, max_value=1 - 1e-6)
    ),
    taus=st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_kahler_side_closes_the_triangle_on_the_extremal_metric(n, b, ratio, taus):
    """Calabi's formula, fed the extremal momentum profile's jet as the
    s~-jet of t (Hwang-Singer), gives the affine curvature A*t + B: the
    polytope data rebuild Calabi's metric on his own side."""
    a = ratio * b
    ts, got = _extremal_kahler_side(n, a, b, taus)
    assert _worst_relative_error(n, a, b, ts, got) <= 1e-12


@pytest.mark.parametrize(
    "n, a, b, floor",
    [(2, 0.5, 1.0, 1e-3), (3, 1e-3, 1.0, 1e-3), (8, 0.25, 1.0, 1e-3),
     (16, 0.999999, 1.0, 1e-8)],
)
def test_kahler_side_of_a_slope_off_by_one_percent_misses_the_affine_curvature(
    n, a, b, floor
):
    # the triangle reads phi' through t'' and t''': scaled by 1.01, the
    # curvature misses A*t + B by far more than the 1e-12 of the property
    # (0.7 % at (2, 0.5, 1); 1.3e-7 in the thin shell, where phi and with it
    # the phi' terms are small).  At n = 1, S = -phi'' reads no phi'
    ts, got = _extremal_kahler_side(n, a, b, grid(0.05, 0.95, 19), 1.01)
    assert _worst_relative_error(n, a, b, ts, got) > floor


# --- the cross-check -----------------------------------------------------------


def test_cross_check_fubini_study():
    r = bridge_cross_check(2, PRESETS["fubini-study"], geometric_grid(0.25, 4.0, 10))
    assert r.max_discrepancy <= 1e-12 * 6
    assert len(r.s) == 10
    for difference in r.difference:
        assert difference <= r.max_discrepancy


def test_cross_check_flat():
    r = bridge_cross_check(2, PRESETS["flat"], [0.5, 1.0, 2.0, 4.0])
    assert r.max_discrepancy == 0.0
    assert r.kahler_side == r.polytope_side == (0.0,) * 4


@pytest.mark.parametrize("n", [1, 2, 6, 16, 400])
@pytest.mark.parametrize("samples", [10, 5000])
def test_cross_check_agrees_to_rounding_on_its_grid(samples, n):
    # both sides are exact but for rounding: on bridge-check's own grid the
    # worst difference is at most 2.4e-14 in units of max(1, n(n+1)) (n = 1,
    # 5 000 samples), where the Richardson stencil it replaced read 2.5e-12
    # to 4.4e-10
    scale = max(1, n * (n + 1))
    for moment in PRESETS.values():
        report = bridge_cross_check(n, moment, grid(0.25, 4.0, samples))
        assert report.max_discrepancy <= 1e-12 * scale


def _rate_at(preset, ts):
    # the jet of t' at the s with t(s) = t, one per t
    return PRESETS[preset](_seed(map(_S_OF_T[preset], ts)))[1]


def test_induced_potential_matches_projective_profile():
    # phi = t*(1 - t), the momentum profile of F'' = 1/(1 - t)
    ts = grid(0.05, 0.95, 19)
    for t, phi in zip(ts, induced_jet(_rate_at("fubini-study", ts))[0]):
        assert phi == pytest.approx(t * (1.0 - t), rel=1e-14)


def test_induced_potential_higher_derivatives():
    # phi' = 1 - 2t and phi'' = -2 for the projective profile
    ts = [0.25, 0.5, 0.75]
    _, dphi, d2phi = induced_jet(_rate_at("fubini-study", ts))
    for t, d1, d2 in zip(ts, dphi, d2phi):
        assert d1 == pytest.approx(1.0 - 2.0 * t, rel=1e-14, abs=1e-15)
        assert d2 == pytest.approx(-2.0, rel=1e-13)


@pytest.mark.parametrize("preset, t_max", [("flat", 10.0), ("fubini-study", 1.0)])
def test_induced_second_derivative_is_the_jets_from_one_rate_per_t(preset, t_max):
    # the induced momentum profile is the rate t'(s~) itself, to the bit,
    # and phi' and phi'' are the chain rule on that rate's jet alone
    draw = random.Random(0).uniform
    ts = [draw(1e-3 * t_max, 0.999 * t_max) for _ in range(500)]
    rate = _rate_at(preset, ts)
    phi, dphi, d2phi = induced_jet(rate)
    assert phi == rate.v
    assert dphi == [du / u for u, du in zip(rate.v, rate.d)]
    assert d2phi == [(ddu / u - slope * slope) / u
                     for u, ddu, slope in zip(rate.v, rate.dd, dphi)]


def _recording(moment, calls):
    # the moment code, recording the argument of each call
    def recorded(s):
        calls.append(s)
        return moment(s)

    return recorded


@pytest.mark.parametrize("count", [1, 10, 500])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_cross_check_makes_one_moment_call(preset, count):
    # the samples' jet serves the t column, the Kahler side and, through the
    # jet of t', the polytope side: one call at the samples, nothing inverted
    calls = []
    samples = grid(0.25, 4.0, count)
    report = bridge_cross_check(2, _recording(PRESETS[preset], calls), samples)
    assert calls == [_seed(samples)]
    assert report == bridge_cross_check(2, PRESETS[preset], samples)


def _cross_check_at_n(moment, n):
    return bridge_cross_check(n, moment, [1.0])


@pytest.mark.parametrize(
    "fn, moment, x, error, message",
    [
        (_cross_check_one, PRESETS["fubini-study"], 0.0, DomainViolation,
         "s must be positive, got 0.0"),
        (_curvature_at, _sine_moment, 2.0, DegenerateMetric,
         "t = -1.6645873461885696 and dt/ds~ = -8.938966760794024 must be positive"),
        (_cross_check_at_n, PRESETS["flat"], 0, InvalidParameters, "n must be >= 1"),
        # an OverflowError in the curvature formulas, read as a failed check
        *((_cross_check_at_n, PRESETS["flat"], n, InvalidParameters,
           "n is past the float range: n(n + 1) overflows a float")
          for n in (10**160, 10**400)),
    ],
    ids=["s <= 0", "curvature of a falling t", "n < 1", "n = 10^160", "n = 10^400"],
)
def test_bad_value_raises_a_named_error(fn, moment, x, error, message):
    with pytest.raises(error) as raised:
        fn(moment, x)
    assert str(raised.value) == message


def test_a_dimension_whose_n_n_plus_1_is_a_float_runs():
    # n(n + 1) is about 1e300, a float; the refusal starts near n = 1.34e154
    report = bridge_cross_check(10**150, PRESETS["flat"], [0.5, 2.0])
    assert len(report.kahler_side) == 2


def test_empty_sample_list_is_refused():
    with pytest.raises(DomainViolation, match="need at least one sample"):
        bridge_cross_check(1, PRESETS["flat"], [])


def test_nan_difference_is_the_worst_one():
    # a NaN difference past the first sample must not hide behind max()
    # the flat potential with a NaN dt/ds~ past s = 1.5
    def moment(s):
        return s, _Jet([math.nan if x > 1.5 else x for x in s.v], s.d, s.dd), s, s

    report = bridge_cross_check(2, moment, [0.5, 2.0])
    assert math.isnan(report.difference[1])
    assert math.isnan(report.max_discrepancy)


def test_report_columns_are_tuples_of_floats():
    report = bridge_cross_check(3, PRESETS["fubini-study"], [0.5, 1.0, 2.0])
    for column in ("s", "t", "kahler_side", "polytope_side", "difference"):
        values = getattr(report, column)
        assert type(values) is tuple and len(values) == 3
        assert all(type(v) is float for v in values)
    assert report.max_discrepancy == max(report.difference)
    with pytest.raises(AttributeError):
        report.max_discrepancy = 0.0


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_profile_slope_off_by_one_percent_fails_the_bridge(preset, monkeypatch):
    # the polytope side reads phi' of the induced profile: scaled by 1.01, its
    # curvature no longer matches the Kahler side's
    real = bridge_mod.induced_jet

    def mutant(rate):
        phi, dphi, d2phi = real(rate)
        return phi, [1.01 * d for d in dphi], d2phi

    samples = grid(0.25, 4.0, 10)
    assert bridge_cross_check(2, PRESETS[preset], samples).max_discrepancy <= 1e-12 * 6
    monkeypatch.setattr(bridge_mod, "induced_jet", mutant)
    assert bridge_cross_check(2, PRESETS[preset], samples).max_discrepancy > 1e-5
