import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricext import bridge as bridge_mod
from toricext import (
    DomainViolation,
    F_of_t,
    KahlerPotential,
    NonpositiveDerivative,
    NotInvertible,
    OutOfRange,
    bridge_cross_check,
    calabi_scalar_curvature,
    flat_potential,
    fubini_study_potential,
    induced_t_potential,
    s_of_t,
    t_of_s,
)


def _sine_potential():
    # 2*s*f'(s) = 2*s*cos(s) rises, turns over near s = 0.86 and goes negative
    return KahlerPotential(
        n=1, f=np.sin, df=np.cos, d2f=lambda s: -np.sin(s), label="sine"
    )


def _numeric_potential():
    return KahlerPotential(n=1, f=lambda s: 0.5 * np.log1p(s), label="fs-numeric")


def test_flat_moment_map_is_identity():
    K = flat_potential(1)
    for s in (0.1, 1.0, 7.5):
        assert t_of_s(K, s) == pytest.approx(s, rel=1e-14)


def test_fubini_study_moment_map():
    K = fubini_study_potential(1)
    # t = s/(1+s)
    assert t_of_s(K, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert abs(t_of_s(K, 1e6) - 1.0) < 2e-6


def test_moment_map_rejects_nonpositive_s():
    K = fubini_study_potential(1)
    with pytest.raises(DomainViolation):
        t_of_s(K, 0.0)
    with pytest.raises(DomainViolation):
        t_of_s(K, -1.0)


@pytest.mark.parametrize("make", [flat_potential, fubini_study_potential])
def test_moment_map_round_trip(make):
    K = make(2)
    for s in np.geomspace(0.05, 20.0, 12):
        s = float(s)
        back = s_of_t(K, t_of_s(K, s))
        assert back == pytest.approx(s, rel=1e-10)


@given(st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60)
def test_moment_map_round_trip_property(s):
    K = fubini_study_potential(1)
    assert s_of_t(K, t_of_s(K, s)) == pytest.approx(s, rel=1e-9)


def test_inversion_outside_moment_image():
    K = fubini_study_potential(1)  # image of t is (0, 1)
    with pytest.raises(OutOfRange):
        s_of_t(K, 1.5)
    with pytest.raises(OutOfRange):
        s_of_t(K, -0.1)


def test_inversion_detects_non_monotone_potential():
    # f = sin(s) has 2 s f'(s) turning over; inversion must refuse
    K = _sine_potential()
    with pytest.raises((NotInvertible, NonpositiveDerivative)):
        s_of_t(K, 1.0806046117362795)


def test_flat_legendre_dual():
    K = flat_potential(1)
    # f = s/2 gives F(t) = t ln(t/t) - t = -t
    for t in (0.2, 1.0, 3.0):
        assert F_of_t(K, t) == pytest.approx(-t, rel=1e-12)


def test_fubini_study_legendre_dual():
    K = fubini_study_potential(2)
    for t in np.linspace(0.1, 0.9, 9):
        t = float(t)
        want = (1.0 - t) * math.log(1.0 - t)
        assert F_of_t(K, t) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_fubini_study_legendre_dual_fine_grid():
    K = fubini_study_potential(1)
    for t in np.linspace(0.02, 0.98, 50):
        t = float(t)
        want = (1.0 - t) * math.log(1.0 - t)
        assert abs(F_of_t(K, t) - want) <= 1e-9


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


def test_fubini_study_curvature_frozen_value():
    K = fubini_study_potential(2)
    assert calabi_scalar_curvature(K, 1.0) == pytest.approx(6.0, abs=1e-9)


def test_curvature_rejects_decreasing_potential():
    K = KahlerPotential(n=1, f=lambda s: -s, df=lambda s: -1.0, d2f=lambda s: 0.0)
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
    T = induced_t_potential(fubini_study_potential(2), 0.0, 1.0)
    for t in np.linspace(0.05, 0.95, 19):
        t = float(t)
        assert T.d2F(t) == pytest.approx(1.0 / (1.0 - t), rel=1e-10)
    assert T.F(0.5) == pytest.approx(0.5 * math.log(0.5), rel=1e-10)


def test_induced_potential_higher_derivatives():
    T = induced_t_potential(fubini_study_potential(2), 0.0, 1.0)
    assert T.has_analytic_derivatives()
    # d^3F = 1/(1-t)^2, d^4F = 2/(1-t)^3 for the projective profile
    for t in (0.25, 0.5, 0.75):
        assert T.d3F(t) == pytest.approx(1.0 / (1.0 - t) ** 2, rel=1e-6)
        assert T.d4F(t) == pytest.approx(2.0 / (1.0 - t) ** 3, rel=1e-4)


def test_numeric_only_potential_agrees_with_analytic():
    # drop the supplied derivative callbacks; differences must take over
    K = _numeric_potential()
    K_ref = fubini_study_potential(1)
    for s in (0.5, 1.0, 2.0):
        assert t_of_s(K, s) == pytest.approx(t_of_s(K_ref, s), rel=1e-9)
    s = np.geomspace(0.01, 100.0, 400)
    np.testing.assert_allclose(s_of_t(K, t_of_s(K, s)), s, rtol=1e-9)
    assert bridge_cross_check(K, np.linspace(0.25, 4.0, 10)).max_discrepancy <= 1e-3
    # curvature needs four derivatives of f; stacking differences on
    # differences costs ~2 digits, so only ask for the right neighborhood
    assert calabi_scalar_curvature(K, 1.0) == pytest.approx(2.0, abs=0.1)


def test_cross_check_inverts_the_moment_map_once_per_sample(monkeypatch):
    # the three profile derivatives are asked for at the same t and share
    # one inversion
    inverted = []
    real = bridge_mod.s_of_t

    def counting(K, t):
        inverted.extend(np.ravel(t))
        return real(K, t)

    monkeypatch.setattr(bridge_mod, "s_of_t", counting)
    samples = np.geomspace(0.25, 4.0, 10)
    bridge_cross_check(fubini_study_potential(2), samples)
    assert len(inverted) == len(samples)


def test_calabi_curvature_evaluates_v_once_per_stencil_point(monkeypatch):
    # v' and v'' share one five-point stencil: s~ +- h, s~ +- h/2 and s~
    calls = []
    real = bridge_mod._v

    def counting(K, st):
        calls.append(st)
        return real(K, st)

    monkeypatch.setattr(bridge_mod, "_v", counting)
    calabi_scalar_curvature(fubini_study_potential(2), np.geomspace(0.25, 4.0, 10))
    assert len(calls) == 5


def test_induced_potential_takes_arrays():
    T = induced_t_potential(fubini_study_potential(2), 0.0, 1.0)
    ts = np.linspace(0.1, 0.9, 7)
    for d in (T.d2F, T.d3F, T.d4F):
        got = d(ts)
        assert got.shape == ts.shape
        assert np.array_equal(got, [d(float(t)) for t in ts])


@pytest.mark.parametrize(
    "make",
    [
        lambda: flat_potential(3),
        lambda: fubini_study_potential(3),
        _numeric_potential,
    ],
)
def test_array_calls_equal_elementwise_scalar_calls(make):
    K = make()
    s = np.geomspace(0.05, 20.0, 40)
    t = t_of_s(K, s)
    for fn, xs in (
        (t_of_s, s),
        (bridge_mod._moment_rate, s),
        (s_of_t, t),
        (calabi_scalar_curvature, s),
    ):
        got = fn(K, xs)
        assert got.shape == xs.shape
        one_by_one = [fn(K, float(x)) for x in xs]
        assert all(np.ndim(v) == 0 for v in one_by_one)
        assert np.array_equal(got, one_by_one), fn.__name__
        assert np.array_equal(fn(K, xs.reshape(5, 8)), got.reshape(5, 8))


@pytest.mark.parametrize(
    "fn, make, batch, bad",
    [
        (s_of_t, lambda: fubini_study_potential(1), [0.2, 1.5, 0.7], 1.5),
        (s_of_t, lambda: fubini_study_potential(1), [0.2, 0.7, -0.1], -0.1),
        (s_of_t, _sine_potential, [0.5, 1.0806046117362795, 0.6], 1.0806046117362795),
        (calabi_scalar_curvature, _sine_potential, [0.3, 2.0, 0.4], 2.0),
    ],
)
def test_bad_value_in_a_batch_raises_like_the_scalar_call(fn, make, batch, bad):
    K = make()
    with pytest.raises((OutOfRange, NotInvertible, NonpositiveDerivative)) as alone:
        fn(K, bad)
    for x in batch:
        if x != bad:
            fn(K, x)  # the rest of the batch is fine on its own
    with pytest.raises(type(alone.value)) as batched:
        fn(K, np.array(batch))
    assert str(batched.value) == str(alone.value)


def test_first_failing_t_decides_the_error():
    # the non-monotone t fails in a later stage than the negative t, but
    # comes first in the batch, so its error is the one raised
    K = _sine_potential()
    with pytest.raises(NotInvertible) as alone:
        s_of_t(K, 1.0806046117362795)
    with pytest.raises(NotInvertible) as batched:
        s_of_t(K, np.array([0.5, 1.0806046117362795, -0.1, 1.5]))
    assert str(batched.value) == str(alone.value)
    with pytest.raises(OutOfRange, match="1.5 not reached"):
        s_of_t(fubini_study_potential(1), np.array([0.5, 1.5, 2.5]))
