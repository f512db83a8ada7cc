import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricext import bridge as bridge_mod
from toricext.bridge import (
    PRESETS,
    KahlerPotential,
    bridge_cross_check,
    calabi_scalar_curvature,
    flat_potential,
    fubini_study_potential,
    induced_t_potential,
)
from toricext.errors import DomainViolation, NonpositiveDerivative
from toricext.numdiff import grid
from util import differences, legendre_F

# the Kahler potentials of the two presets, which the bridge does not keep
_FLAT_F = lambda s: 0.5 * s
_FUBINI_STUDY_F = lambda s: 0.5 * math.log1p(s)


def _no_inverse(t):
    raise AssertionError("the curvature never inverts the moment map")


def _sine_potential():
    # f = sin(s): t = 2*s*cos(s) rises, turns over near s = 0.86 and goes
    # negative, so the map has no inverse; each s~-derivative is s*d/ds
    def moment(s):
        c, si = math.cos(s), math.sin(s)
        t1 = 2.0 * s * (c - s * si)
        t2 = 2.0 * s * (c - 3.0 * s * si - s * s * c)
        t3 = 2.0 * s * (c - 7.0 * s * si - 6.0 * s * s * c + s**3 * si)
        return 2.0 * s * c, t1, t2, t3

    return KahlerPotential(n=1, moment=moment, inverse=_no_inverse)


def _invert(K, t):
    return K.inverse(t)


def _cross_check_one(K, s):
    return bridge_cross_check(K, [s])


def _jet_errors(moment, n_samples=200):
    # the worst errors of t', t'' and t''' against Richardson derivatives in
    # s~ at the constant step 2^-6 (t' of t; t'' and t''' of t'), relative
    # to t', over s in [1e-3, 1e3]
    worst = [0.0, 0.0, 0.0]
    for s in np.geomspace(1e-3, 1e3, n_samples).tolist():
        t, t1, t2, t3 = moment(s)
        dt, _ = differences(lambda st: moment(math.exp(st))[0], math.log(s), 2.0**-6)
        dt1, ddt1 = differences(lambda st: moment(math.exp(st))[1], math.log(s), 2.0**-6)
        for k, (got, want) in enumerate([(t1, dt), (t2, dt1), (t3, ddt1)]):
            worst[k] = max(worst[k], abs(got - want) / abs(t1))
    return worst


def _scaled(moment, k):
    # the jet with its k-th entry off by 1 %
    return lambda s: tuple(1.01 * x if j == k else x for j, x in enumerate(moment(s)))


def test_flat_moment_map_is_identity():
    K = flat_potential(1)
    for s in (0.1, 1.0, 7.5):
        assert K.moment(s)[0] == pytest.approx(s, rel=1e-14)


def test_fubini_study_moment_map():
    K = fubini_study_potential(1)
    # t = s/(1+s)
    assert K.moment(1.0)[0] == pytest.approx(0.5, rel=1e-12)
    assert abs(K.moment(1e6)[0] - 1.0) < 2e-6


def test_moment_map_rejects_nonpositive_s():
    # the t column refuses the sample before the moment map sees it
    K = fubini_study_potential(1)
    with pytest.raises(DomainViolation):
        bridge_cross_check(K, [0.0])
    with pytest.raises(DomainViolation):
        bridge_cross_check(K, [1.0, -1.0])


@pytest.mark.parametrize("make", [flat_potential, fubini_study_potential])
def test_moment_map_round_trip(make):
    for n in (1, 2, 3):
        K = make(n)
        for s in np.geomspace(1e-3, 1e3, 500).tolist():
            assert K.inverse(K.moment(s)[0]) == pytest.approx(s, rel=1e-12)


@given(st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60)
def test_moment_map_round_trip_property(s):
    K = fubini_study_potential(1)
    assert K.inverse(K.moment(s)[0]) == pytest.approx(s, rel=1e-9)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_rate_is_the_derivative_of_its_moment(preset, n):
    # the two closed forms of a preset, t and dt/ds~, must agree; a t' off by
    # 1 % must not pass the same check
    K = PRESETS[preset](n)
    assert _jet_errors(K.moment)[0] <= 1e-8
    assert _jet_errors(_scaled(K.moment, 1))[0] > 1e-8


# t and dt/ds~ of each preset as its moment map computed them before the
# map returned the whole jet
_PRESET_T_AND_RATE = {
    "flat": lambda s: (s, s),
    "fubini-study": lambda s: (
        2.0 * s * (0.5 / (1.0 + s)),
        2.0 * (s * (0.5 / (1.0 + s)) - s * s * (0.5 / (1.0 + s) ** 2)),
    ),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_jet_keeps_the_moment_maps_t_and_rate(preset):
    # the t column and the polytope side read t and t', so their bits stay
    for n in (1, 3):
        K = PRESETS[preset](n)
        for s in np.geomspace(1e-3, 1e3, 500).tolist():
            assert K.moment(s)[:2] == _PRESET_T_AND_RATE[preset](s)


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
        K.inverse(1.5)
    with pytest.raises(DomainViolation):
        K.inverse(-0.1)


@pytest.mark.parametrize(
    "preset, t",
    [("fubini-study", -0.1), ("fubini-study", 0.0), ("fubini-study", 1.0),
     ("fubini-study", 1.5), ("flat", -0.1), ("flat", 0.0)],
)
def test_induced_profile_refuses_a_t_outside_the_image(preset, t):
    # a named error naming t, not the ZeroDivisionError of t/(1 - t) at
    # t = 1 or the ValueError of a logarithm
    T = induced_t_potential(PRESETS[preset](2), 0.0, 2.0)
    with pytest.raises(DomainViolation, match=f"got {t}$") as raised:
        T.jet([0.5, t])
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
    K = flat_potential(n)
    for s in (0.3, 1.0, 4.0):
        assert abs(calabi_scalar_curvature(K, s)) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fubini_study_curvature_is_constant(n):
    K = fubini_study_potential(n)
    want = n * (n + 1)
    for s in np.geomspace(0.25, 4.0, 10):
        got = calabi_scalar_curvature(K, float(s))
        assert abs(got - want) <= 1e-5 * want


@pytest.mark.parametrize("n", [1, 3, 6, 16])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_kahler_side_is_exact_to_rounding(preset, n):
    K = PRESETS[preset](n)
    exact = 0.0 if preset == "flat" else float(n * (n + 1))
    scale = max(1.0, exact)
    for s in grid(0.25, 4.0, 2000):
        assert abs(calabi_scalar_curvature(K, s) - exact) <= 1e-13 * scale
    # towards s = 0 and s = oo, t' -> 0: Fubini-Study's (t''/t')^2 and
    # t'''/t' in v'' cancel down to 2*t', so the jet's rounding over t' sets
    # the floor (1.7e-13 relative at s = 1e-3)
    for s in np.geomspace(1e-3, 1e3, 2000).tolist():
        error = abs(calabi_scalar_curvature(K, s) - exact)
        assert error <= 1e-15 * scale / K.moment(s)[1]


def test_fubini_study_curvature_frozen_value():
    K = fubini_study_potential(2)
    assert calabi_scalar_curvature(K, 1.0) == pytest.approx(6.0, abs=1e-9)


def test_curvature_rejects_decreasing_potential():
    # f = -s: t = dt/ds~ = -2*s
    K = KahlerPotential(n=1, moment=lambda s: (-2.0 * s,) * 4, inverse=_no_inverse)
    with pytest.raises(NonpositiveDerivative):
        calabi_scalar_curvature(K, 1.0)


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
    T = induced_t_potential(fubini_study_potential(2), 0.0, 1.0)
    ts = np.linspace(0.05, 0.95, 19).tolist()
    for t, phi in zip(ts, T.jet(ts)[0]):
        assert phi == pytest.approx(t * (1.0 - t), rel=1e-14)


def test_induced_potential_higher_derivatives():
    T = induced_t_potential(fubini_study_potential(2), 0.0, 1.0)
    # phi' = 1 - 2t and phi'' = -2 for the projective profile
    ts = [0.25, 0.5, 0.75]
    _, dphi, d2phi = T.jet(ts)
    for t, d1, d2 in zip(ts, dphi, d2phi):
        assert d1 == pytest.approx(1.0 - 2.0 * t, rel=1e-9, abs=1e-9)
        assert d2 == pytest.approx(-2.0, rel=1e-7)


@pytest.mark.parametrize("preset, t_max", [("flat", 10.0), ("fubini-study", 1.0)])
def test_induced_second_derivative_is_the_jets_from_one_rate_per_t(preset, t_max):
    # the induced momentum profile is the rate t'(s~) itself, to the bit:
    # the stencil's centre is the inverse, so the jet inverts once per t
    calls, inverted = [], []
    model = PRESETS[preset](3)
    K = KahlerPotential(
        n=3,
        moment=lambda s: calls.append(s) or model.moment(s),
        inverse=lambda t: inverted.append(t) or model.inverse(t),
    )
    T = induced_t_potential(K, 0.0, t_max)
    ts = np.random.default_rng(0).uniform(1e-3 * t_max, 0.999 * t_max, 500).tolist()
    phi = T.jet(ts)[0]
    assert phi == [model.moment(model.inverse(t))[1] for t in ts]
    assert len(calls) == 5 * len(ts)
    assert inverted == ts


def test_potential_needs_its_moment_and_inverse():
    with pytest.raises(TypeError):
        KahlerPotential(n=1, moment=fubini_study_potential(1).moment)


def test_cross_check_inverts_the_moment_map_once_per_sample():
    # the jet inverts the moment map once per t, in the order of the ts
    inverted = []
    model = fubini_study_potential(2)
    K = KahlerPotential(
        2, model.moment, lambda t: inverted.append(t) or model.inverse(t)
    )
    samples = np.geomspace(0.25, 4.0, 10).tolist()
    report = bridge_cross_check(K, samples)
    assert inverted == list(report.t)


def test_cross_check_makes_seven_moment_calls_and_one_inverse_per_sample():
    # the t column: one moment per sample; Kahler side: the jet at s;
    # polytope side: one inverse and the five rate stencil points of the
    # jet, whose centre is also dt/ds~ itself
    calls, inverted = [], []
    model = fubini_study_potential(2)
    K = KahlerPotential(
        n=2,
        moment=lambda s: calls.append(s) or model.moment(s),
        inverse=lambda t: inverted.append(t) or model.inverse(t),
    )
    samples = np.geomspace(0.25, 4.0, 10).tolist()
    bridge_cross_check(K, samples)
    assert len(calls) == 7 * len(samples)
    assert len(inverted) == len(samples)


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
        (calabi_scalar_curvature, lambda: fubini_study_potential(1), -1.0,
         DomainViolation, "s must be positive, got -1.0"),
        (calabi_scalar_curvature, _sine_potential, 2.0, NonpositiveDerivative,
         "moment data not positive at s = 2.0: "
         "t = -1.6645873461885696, dt/ds~ = -8.938966760794024"),
    ],
    ids=["above the image", "t <= 0", "below the image", "s <= 0",
         "curvature at s <= 0", "curvature of a falling t"],
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
        moment=lambda s: (s, math.nan if s > 1.5 else s, s, s),
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
    real = bridge_mod._induced_jet

    def mutant(K, ts):
        phi, dphi, d2phi = real(K, ts)
        return phi, [1.01 * d for d in dphi], d2phi

    samples = grid(0.25, 4.0, 10)
    assert bridge_cross_check(PRESETS[preset](2), samples).max_discrepancy <= 1e-5
    monkeypatch.setattr(bridge_mod, "_induced_jet", mutant)
    assert bridge_cross_check(PRESETS[preset](2), samples).max_discrepancy > 1e-5
