import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricext import bridge as bridge_mod
from toricext import exact as exact_mod
from toricext.bridge import (
    PRESETS,
    KahlerPotential,
    bridge_cross_check,
    calabi_scalar_curvature,
    flat_potential,
    fubini_study_potential,
    induced_jet,
)
from toricext.calabi import build_extremal_metric
from toricext.errors import DomainViolation, InvalidParameters, NonpositiveDerivative
from toricext.numdiff import grid
from util import differences, legendre_F

# the Kahler potentials of the two presets, which the bridge does not keep
_FLAT_F = lambda s: 0.5 * s
_FUBINI_STUDY_F = lambda s: 0.5 * math.log1p(s)


def _no_inverse(ts):
    raise AssertionError("the curvature never inverts the moment map")


def _sine_potential():
    # f = sin(s): t = 2*s*cos(s) rises, turns over near s = 0.86 and goes
    # negative, so the map has no inverse; each s~-derivative is s*d/ds
    def moment_at(s):
        c, si = math.cos(s), math.sin(s)
        t1 = 2.0 * s * (c - s * si)
        t2 = 2.0 * s * (c - 3.0 * s * si - s * s * c)
        t3 = 2.0 * s * (c - 7.0 * s * si - 6.0 * s * s * c + s**3 * si)
        return 2.0 * s * c, t1, t2, t3

    def moment(ss):
        return tuple(map(list, zip(*map(moment_at, ss))))

    return KahlerPotential(n=1, moment=moment, inverse=_no_inverse)


def _invert(K, t):
    return K.inverse([t])


def _cross_check_one(K, s):
    return bridge_cross_check(K, [s])


def _curvature_at(K, s):
    return calabi_scalar_curvature(K.n, K.moment([s]))


def _jet_at(moment, s):
    # the jet (t, t', t'', t''') at one s, from a one-element call
    return [column[0] for column in moment([s])]


def _jet_errors(moment, n_samples=200):
    # the worst errors of t', t'' and t''' against Richardson derivatives in
    # s~ at the constant step 2^-6 (t' of t; t'' and t''' of t'), relative
    # to t', over s in [1e-3, 1e3]
    worst = [0.0, 0.0, 0.0]
    ss = np.geomspace(1e-3, 1e3, n_samples).tolist()
    at = lambda st: _jet_at(moment, math.exp(st))  # the jet at s~ = st
    for s, t, t1, t2, t3 in zip(ss, *moment(ss)):
        dt, _ = differences(lambda st: at(st)[0], math.log(s), 2.0**-6)
        dt1, ddt1 = differences(lambda st: at(st)[1], math.log(s), 2.0**-6)
        for k, (got, want) in enumerate([(t1, dt), (t2, dt1), (t3, ddt1)]):
            worst[k] = max(worst[k], abs(got - want) / abs(t1))
    return worst


def _scaled(moment, k):
    # the jet with its k-th column off by 1 %
    return lambda ss: tuple(
        [1.01 * x for x in column] if j == k else column
        for j, column in enumerate(moment(ss)))


def test_flat_moment_map_is_identity():
    K = flat_potential(1)
    ss = [0.1, 1.0, 7.5]
    for s, t in zip(ss, K.moment(ss)[0]):
        assert t == pytest.approx(s, rel=1e-14)


def test_fubini_study_moment_map():
    K = fubini_study_potential(1)
    # t = s/(1+s)
    half, near_one = K.moment([1.0, 1e6])[0]
    assert half == pytest.approx(0.5, rel=1e-12)
    assert abs(near_one - 1.0) < 2e-6


def test_moment_map_rejects_nonpositive_s():
    # the t column refuses the sample before the moment map sees it
    K = fubini_study_potential(1)
    with pytest.raises(DomainViolation):
        bridge_cross_check(K, [0.0])
    with pytest.raises(DomainViolation):
        bridge_cross_check(K, [1.0, -1.0])


@pytest.mark.parametrize("make", [flat_potential, fubini_study_potential])
def test_moment_map_round_trip(make):
    ss = np.geomspace(1e-3, 1e3, 500).tolist()
    for n in (1, 2, 3):
        K = make(n)
        assert K.inverse(K.moment(ss)[0]) == pytest.approx(ss, rel=1e-12)


@given(st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60)
def test_moment_map_round_trip_property(s):
    K = fubini_study_potential(1)
    assert K.inverse(K.moment([s])[0]) == [pytest.approx(s, rel=1e-9)]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_rate_is_the_derivative_of_its_moment(preset, n):
    # the two closed forms of a preset, t and dt/ds~, must agree; a t' off by
    # 1 % must not pass the same check
    K = PRESETS[preset](n)
    assert _jet_errors(K.moment)[0] <= 1e-8
    assert _jet_errors(_scaled(K.moment, 1))[0] > 1e-8


# t and dt/ds~ of each preset as its moment map computed them before the
# map returned the whole jet, and its closed-form inverse, one s or t each
_PRESET_T_AND_RATE = {
    "flat": lambda s: (s, s),
    "fubini-study": lambda s: (
        2.0 * s * (0.5 / (1.0 + s)),
        2.0 * (s * (0.5 / (1.0 + s)) - s * s * (0.5 / (1.0 + s) ** 2)),
    ),
}
_PRESET_INVERSE = {"flat": lambda t: t, "fubini-study": lambda t: t / (1.0 - t)}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_jet_keeps_the_moment_maps_t_and_rate(preset):
    # the t column and the polytope side read t and t', so their bits stay
    ss = np.geomspace(1e-3, 1e3, 500).tolist()
    for n in (1, 3):
        K = PRESETS[preset](n)
        want = [_PRESET_T_AND_RATE[preset](s) for s in ss]
        assert list(zip(*K.moment(ss)[:2])) == want


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_columns_are_their_one_element_calls(preset):
    # a list call is the elementwise arithmetic, bit for bit: its columns
    # are four new lists of the one-element calls' values, and the inverse
    # is the closed form at each t
    K = PRESETS[preset](3)
    ss = np.geomspace(1e-3, 1e3, 500).tolist()
    jet = K.moment(ss)
    assert len(jet) == 4 and all(type(column) is list for column in jet)
    assert len({id(column) for column in [ss, *jet]}) == 5
    assert list(map(list, zip(*jet))) == [_jet_at(K.moment, s) for s in ss]
    ts = jet[0]
    inverse = K.inverse(ts)
    assert type(inverse) is list and inverse is not ts
    assert inverse == [s for t in ts for s in K.inverse([t])]
    assert inverse == [_PRESET_INVERSE[preset](t) for t in ts]


def test_potential_refuses_a_dimension_below_one():
    flat = flat_potential(1)
    with pytest.raises(InvalidParameters, match="^n must be >= 1$"):
        KahlerPotential(0, flat.moment, flat.inverse)
    for make in PRESETS.values():
        with pytest.raises(InvalidParameters, match="^n must be >= 1$"):
            make(0)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_jet_is_the_derivative_of_its_rate(preset, n):
    # t'' and t''' in closed form against Richardson differences of t'
    _, second, third = _jet_errors(PRESETS[preset](n).moment)
    assert second <= 1e-7
    assert third <= 1e-7


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_jet_off_by_one_percent_fails_its_test_and_the_bridge(preset, k):
    # the Kahler side reads t'' and t''' from the jet, the polytope side
    # differences t': a jet at odds with its own rate cannot pass bridge-check
    K = PRESETS[preset](2)
    mutant = KahlerPotential(2, _scaled(K.moment, k), K.inverse)
    assert _jet_errors(mutant.moment)[k - 1] > 1e-7
    assert bridge_cross_check(mutant, grid(0.25, 4.0, 10)).max_discrepancy > 1e-5


def test_inversion_outside_moment_image():
    K = fubini_study_potential(1)  # image of t is (0, 1)
    with pytest.raises(DomainViolation):
        K.inverse([0.5, 1.5])
    with pytest.raises(DomainViolation):
        K.inverse([-0.1])


@pytest.mark.parametrize(
    "preset, t",
    [("fubini-study", -0.1), ("fubini-study", 0.0), ("fubini-study", 1.0),
     ("fubini-study", 1.5), ("flat", -0.1), ("flat", 0.0)],
)
def test_induced_profile_refuses_a_t_outside_the_image(preset, t):
    # a named error naming t, not the ZeroDivisionError of t/(1 - t) at
    # t = 1 or the ValueError of a logarithm
    with pytest.raises(DomainViolation, match=f"got {t}$") as raised:
        induced_jet(PRESETS[preset](2), [0.5, t])
    assert type(raised.value) is DomainViolation


def test_flat_legendre_dual():
    K = flat_potential(1)
    # f = s/2 gives F(t) = t ln(t/t) - t = -t
    for t in (0.2, 1.0, 3.0):
        assert legendre_F(K, _FLAT_F, t) == pytest.approx(-t, rel=1e-12)


def test_fubini_study_legendre_dual():
    K = fubini_study_potential(2)
    for t in np.linspace(0.1, 0.9, 9):
        t = float(t)
        want = (1.0 - t) * math.log(1.0 - t)
        got = legendre_F(K, _FUBINI_STUDY_F, t)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_fubini_study_legendre_dual_fine_grid():
    K = fubini_study_potential(1)
    for t in np.linspace(0.02, 0.98, 50):
        t = float(t)
        want = (1.0 - t) * math.log(1.0 - t)
        assert abs(legendre_F(K, _FUBINI_STUDY_F, t) - want) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_curvature_vanishes(n):
    for got in calabi_scalar_curvature(n, flat_potential(n).moment([0.3, 1.0, 4.0])):
        assert abs(got) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fubini_study_curvature_is_constant(n):
    K = fubini_study_potential(n)
    want = n * (n + 1)
    ss = np.geomspace(0.25, 4.0, 10).tolist()
    for got in calabi_scalar_curvature(n, K.moment(ss)):
        assert abs(got - want) <= 1e-5 * want


@pytest.mark.parametrize("n", [1, 3, 6, 16])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_kahler_side_is_exact_to_rounding(preset, n):
    K = PRESETS[preset](n)
    exact = 0.0 if preset == "flat" else float(n * (n + 1))
    scale = max(1.0, exact)
    for got in calabi_scalar_curvature(n, K.moment(grid(0.25, 4.0, 2000))):
        assert abs(got - exact) <= 1e-13 * scale
    # towards s = 0 and s = oo, t' -> 0: Fubini-Study's (t''/t')^2 and
    # t'''/t' in v'' cancel down to 2*t', so the jet's rounding over t' sets
    # the floor (1.7e-13 relative at s = 1e-3)
    jet = K.moment(np.geomspace(1e-3, 1e3, 2000).tolist())
    for got, rate in zip(calabi_scalar_curvature(n, jet), jet[1]):
        assert abs(got - exact) <= 1e-15 * scale / rate


def test_fubini_study_curvature_frozen_value():
    K = fubini_study_potential(2)
    assert _curvature_at(K, 1.0) == [pytest.approx(6.0, abs=1e-9)]


def test_curvature_rejects_decreasing_potential():
    # f = -s: t = dt/ds~ = -2*s
    with pytest.raises(NonpositiveDerivative):
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
    A, B, _, _ = exact_mod._exact_solution(n, a, b)
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
    ts, got = _extremal_kahler_side(n, a, b, np.linspace(0.05, 0.95, 19).tolist(), 1.01)
    assert _worst_relative_error(n, a, b, ts, got) > floor


# --- the cross-check -----------------------------------------------------------


def test_cross_check_fubini_study():
    r = bridge_cross_check(fubini_study_potential(2), np.geomspace(0.25, 4.0, 10))
    assert r.max_discrepancy <= 1e-5
    assert len(r.s) == 10
    for difference in r.difference:
        assert difference <= r.max_discrepancy + 1e-15


def test_cross_check_flat():
    r = bridge_cross_check(flat_potential(2), [0.5, 1.0, 2.0, 4.0])
    assert r.max_discrepancy <= 1e-8
    for kahler_side, polytope_side in zip(r.kahler_side, r.polytope_side):
        assert abs(kahler_side) <= 1e-8
        assert abs(polytope_side) <= 1e-8


def test_induced_potential_matches_projective_profile():
    # phi = t*(1 - t), the momentum profile of F'' = 1/(1 - t)
    ts = np.linspace(0.05, 0.95, 19).tolist()
    for t, phi in zip(ts, induced_jet(fubini_study_potential(2), ts)[0]):
        assert phi == pytest.approx(t * (1.0 - t), rel=1e-14)


def test_induced_potential_higher_derivatives():
    # phi' = 1 - 2t and phi'' = -2 for the projective profile
    ts = [0.25, 0.5, 0.75]
    _, dphi, d2phi = induced_jet(fubini_study_potential(2), ts)
    for t, d1, d2 in zip(ts, dphi, d2phi):
        assert d1 == pytest.approx(1.0 - 2.0 * t, rel=1e-9, abs=1e-9)
        assert d2 == pytest.approx(-2.0, rel=1e-7)


def _recording(model, calls, inverted):
    # model's potential, recording the argument list of each call
    return KahlerPotential(
        n=model.n,
        moment=lambda ss: calls.append(list(ss)) or model.moment(ss),
        inverse=lambda ts: inverted.append(list(ts)) or model.inverse(ts),
    )


@pytest.mark.parametrize("preset, t_max", [("flat", 10.0), ("fubini-study", 1.0)])
def test_induced_second_derivative_is_the_jets_from_one_rate_per_t(preset, t_max):
    # the induced momentum profile is the rate t'(s~) itself, to the bit:
    # the stencil's centre is the inverse, so the jet inverts each t once,
    # and one moment call serves the five stencil points of every t
    calls, inverted = [], []
    model = PRESETS[preset](3)
    ts = np.random.default_rng(0).uniform(1e-3 * t_max, 0.999 * t_max, 500).tolist()
    phi = induced_jet(_recording(model, calls, inverted), ts)[0]
    assert phi == model.moment(model.inverse(ts))[1]
    assert [len(ss) for ss in calls] == [5 * len(ts)]
    assert inverted == [ts]


def test_potential_needs_its_moment_and_inverse():
    with pytest.raises(TypeError):
        KahlerPotential(n=1, moment=fubini_study_potential(1).moment)


def test_cross_check_inverts_the_moment_map_once_per_sample():
    # the jet inverts the moment map once per t, in the order of the ts
    calls, inverted = [], []
    K = _recording(fubini_study_potential(2), calls, inverted)
    report = bridge_cross_check(K, np.geomspace(0.25, 4.0, 10).tolist())
    assert inverted == [list(report.t)]


@pytest.mark.parametrize("count", [1, 10, 500])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_cross_check_makes_two_moment_calls_and_one_inverse(preset, count):
    # the samples' jet serves the t column and the Kahler side; the polytope
    # side inverts the ts once and reads t' at the stencil abscissae
    # s*e^(k*h), k in {-1, -1/2, 0, 1/2, 1}, h = 2^-6, of every s in one call
    calls, inverted = [], []
    model = PRESETS[preset](2)
    samples = grid(0.25, 4.0, count)
    report = bridge_cross_check(_recording(model, calls, inverted), samples)
    assert len(calls) == 2 and len(inverted) == 1
    assert calls[0] == samples
    assert inverted == [list(report.t)]
    factors = [math.exp(k * 2.0**-6) for k in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert calls[1] == [s * k for s in model.inverse(report.t) for k in factors]


@pytest.mark.parametrize(
    "fn, make, x, error, message",
    [
        (_invert, lambda: fubini_study_potential(1), 1.5, DomainViolation,
         "t must lie in (0, 1), got 1.5"),
        (_invert, lambda: fubini_study_potential(1), -0.1, DomainViolation,
         "t must lie in (0, 1), got -0.1"),
        (_invert, lambda: flat_potential(1), 0.0, DomainViolation,
         "t must be positive, got 0.0"),
        (_cross_check_one, lambda: fubini_study_potential(1), 0.0, DomainViolation,
         "s must be positive, got 0.0"),
        (_curvature_at, _sine_potential, 2.0, NonpositiveDerivative,
         "t = -1.6645873461885696 and dt/ds~ = -8.938966760794024 must be positive"),
    ],
    ids=["above the image", "t <= 0", "below the image", "s <= 0",
         "curvature of a falling t"],
)
def test_bad_value_raises_a_named_error(fn, make, x, error, message):
    with pytest.raises(error) as raised:
        fn(make(), x)
    assert str(raised.value) == message


def test_empty_sample_list_is_refused():
    with pytest.raises(DomainViolation, match="need at least one sample"):
        bridge_cross_check(flat_potential(1), [])


def test_nan_difference_is_the_worst_one():
    # a NaN difference past the first sample must not hide behind max()
    # the flat potential with a NaN dt/ds~ past s = 1.5
    K = KahlerPotential(
        n=2,
        moment=lambda ss: (
            list(ss), [math.nan if s > 1.5 else s for s in ss], list(ss), list(ss)),
        inverse=flat_potential(2).inverse,
    )
    report = bridge_cross_check(K, [0.5, 2.0])
    assert math.isnan(report.difference[1])
    assert math.isnan(report.max_discrepancy)


def test_report_columns_are_tuples_of_floats():
    report = bridge_cross_check(fubini_study_potential(3), [0.5, 1.0, 2.0])
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

    def mutant(K, ts):
        phi, dphi, d2phi = real(K, ts)
        return phi, [1.01 * d for d in dphi], d2phi

    samples = grid(0.25, 4.0, 10)
    assert bridge_cross_check(PRESETS[preset](2), samples).max_discrepancy <= 1e-5
    monkeypatch.setattr(bridge_mod, "induced_jet", mutant)
    assert bridge_cross_check(PRESETS[preset](2), samples).max_discrepancy > 1e-5
