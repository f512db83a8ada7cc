import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricext import (
    DomainViolation,
    ExtremalCoefficients,
    GeometryError,
    InvalidParameters,
    PotentialPole,
    alpha_eval,
    boundary_system,
    build_extremal_metric,
    closed_form_coefficients,
    coefficient_cross_check,
    extremal_F_second,
    extremal_scalar_curvature,
    h_second,
    radial_scalar_curvature,
    solve_coefficients,
)
from toricext.calabi import _profile_derivatives

nab = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.05, max_value=1.5),
    st.floats(min_value=0.2, max_value=2.0),
).map(lambda t: (t[0], t[1], t[1] + t[2]))

# reference coefficients at n=2, b=1 (solved; the a=0.5 row is rational:
# 96/13, 12/13, 1/13, 2/13)
COEFFS_N2_B1 = {
    0.3: (4.491578290704926, 2.7323767935121666, 0.13661883967560814, 0.03368683718028699),
    0.5: (96 / 13, 12 / 13, 1 / 13, 2 / 13),
    0.7: (13.053613053613024, -2.191142191142167, -0.2556332556332581, 0.5330225330225339),
}


def test_boundary_system_frozen_rows():
    M, rhs = boundary_system(2, 0.5, 1.0)
    np.testing.assert_allclose(rhs, [6.0, 12.0, 24.0, 72.0], rtol=1e-15)
    np.testing.assert_allclose(M[0], [0.125, 0.5, 12.0, 24.0], rtol=1e-15)
    np.testing.assert_allclose(M[2], [2.0, 4.0, 24.0, 24.0], rtol=1e-15)
    assert M.shape == (4, 4)


@pytest.mark.parametrize("a", sorted(COEFFS_N2_B1))
def test_solve_matches_reference(a):
    E = solve_coefficients(2, a, 1.0)
    want = COEFFS_N2_B1[a]
    for got, ref in zip((E.A, E.B, E.C, E.D), want):
        assert got == pytest.approx(ref, rel=1e-12)


def test_solve_small_exceptional_divisor_approaches_projective_space():
    # as a -> 0 the solution must limit to CP^2: S -> n(n+1) = 6, A -> 0
    E = solve_coefficients(2, 0.001, 1.0)
    assert abs(E.A) < 0.03
    assert E.B == pytest.approx(6.0, abs=0.02)


@given(nab, st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=60)
def test_scaling_covariance(params, lam):
    n, a, b = params
    E = solve_coefficients(n, a, b)
    E_lam = solve_coefficients(n, lam * a, lam * b)
    assert E_lam.A == pytest.approx(E.A / lam**2, rel=1e-9, abs=1e-12)
    assert E_lam.B == pytest.approx(E.B / lam, rel=1e-9, abs=1e-12)
    assert E_lam.C == pytest.approx(E.C * lam ** (n - 1), rel=1e-9, abs=1e-12)
    assert E_lam.D == pytest.approx(E.D * lam**n, rel=1e-9, abs=1e-12)


@given(nab)
@settings(max_examples=80)
def test_solved_coefficients_satisfy_boundary_system(params):
    n, a, b = params
    M, rhs = boundary_system(n, a, b)
    E = solve_coefficients(n, a, b)
    resid = M @ np.array([E.A, E.B, E.C, E.D]) - rhs
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(resid)) <= 1e-9 * scale
    assert coefficient_cross_check(E).status == "ok"


def test_alpha_eval_interpolates_boundary_data():
    E = solve_coefficients(2, 0.5, 1.0)
    val_a, slope_a = alpha_eval(E, 0.5)
    assert val_a == pytest.approx(6.0, rel=1e-13)
    assert slope_a == pytest.approx(12.0, rel=1e-13)
    val_b, slope_b = alpha_eval(E, 1.0)
    assert val_b == pytest.approx(24.0, rel=1e-13)
    assert slope_b == pytest.approx(72.0, rel=1e-13)


def test_alpha_eval_constant_coefficients():
    E = ExtremalCoefficients(n=2, a=0.5, b=1.0, A=0.0, B=0.0, C=0.0, D=1.0)
    val, slope = alpha_eval(E, 0.7)
    assert val == pytest.approx(E.p, rel=1e-15)
    assert slope == 0.0


def test_F_second_frozen_midpoint():
    E = solve_coefficients(2, 0.5, 1.0)
    assert extremal_F_second(E, 0.75) == pytest.approx(
        6.8771929824561404, rel=1e-12
    )


def test_F_second_pole_at_interval_ends():
    E = solve_coefficients(2, 0.5, 1.0)
    with pytest.raises(PotentialPole):
        extremal_F_second(E, 0.5 + 1e-15)
    with pytest.raises(PotentialPole):
        extremal_F_second(E, 1.0 - 1e-16)


def test_F_second_outside_interval():
    E = solve_coefficients(2, 0.5, 1.0)
    with pytest.raises(DomainViolation):
        extremal_F_second(E, 0.4)
    with pytest.raises(DomainViolation):
        extremal_F_second(E, 1.2)


def test_F_second_zero_coefficients_give_flat_profile():
    # alpha = 0 means beta = p t^n, so p t^(n-1)/beta - 1/t vanishes
    E = ExtremalCoefficients(n=2, a=0.5, b=1.0, A=0.0, B=0.0, C=0.0, D=0.0)
    for t in np.linspace(0.55, 0.95, 9):
        assert abs(extremal_F_second(E, float(t))) <= 1e-12


def test_h_second_frozen_midpoint():
    E = solve_coefficients(2, 0.5, 1.0)
    assert h_second(E, 0.75) == pytest.approx(-64 / 57, rel=1e-12)


def test_h_second_eliminates_prescribed_pole():
    # F'' - h'' = c/((t-a)(b-t)) by construction
    E = solve_coefficients(2, 0.5, 1.0)
    a, b, c = E.a, E.b, E.c
    for t in np.linspace(0.52, 0.98, 20):
        t = float(t)
        lhs = extremal_F_second(E, t) - h_second(E, t)
        rhs = c / ((t - a) * (b - t))
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize(
    "n,a,b",
    [(2, 0.5, 1.0), (3, 0.25, 2.0), (4, 0.5, 1.0), (4, 1e-3, 1e3), (10, 0.5, 10.0)],
)
def test_h_second_bounded_at_interval_ends(n, a, b):
    """h'' stays finite as t -> a, b even though F'' blows up there, and
    h_second gets it right there."""
    E = solve_coefficients(n, a, b)
    for base, sgn in ((a, +1.0), (b, -1.0)):
        for off in (1e-6, 5e-7, 2.5e-7, 1e-9):
            t = base + sgn * off * (b - a)
            want = _exact_h_second(n, a, b, t)
            assert abs(h_second(E, t) - want) <= 1e-13 * max(1.0, abs(want))


@given(
    n=st.integers(min_value=1, max_value=16),
    b=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    ratio=st.one_of(
        st.floats(min_value=-8.0, max_value=-0.3).map(lambda e: 10.0**e),
        st.floats(min_value=-9.0, max_value=-0.3).map(lambda e: 1.0 - 10.0**e),
    ),
    offset=st.floats(min_value=-9.0, max_value=-0.3).map(lambda e: 10.0**e),
    near_a=st.booleans(),
)
@example(n=10, b=10.0, ratio=0.05, offset=1e-6, near_a=True)
@example(n=4, b=1e3, ratio=1e-6, offset=1e-6, near_a=False)
@settings(max_examples=200)
def test_h_second_matches_exact_rational_value(n, b, ratio, offset, near_a):
    a = ratio * b
    t = a + offset * (b - a) if near_a else b - offset * (b - a)
    assume(a < t < b)
    want = _exact_h_second(n, a, b, t)
    got = h_second(solve_coefficients(n, a, b), t)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_h_second_refuses_a_non_extremal_record():
    # only the extremal coefficients of (n, a, b) make h'' regular at the ends
    flat = ExtremalCoefficients(n=2, a=0.5, b=1.0, A=0.0, B=0.0, C=0.0, D=0.0)
    E = solve_coefficients(3, 0.25, 2.0)
    off_by_one_ulp = dataclasses.replace(E, D=float(np.nextafter(E.D, 1.0)))
    for record in (flat, off_by_one_ulp):
        with pytest.raises(InvalidParameters):
            h_second(record, 0.75)


@pytest.mark.parametrize("a,b", [(0.3, 1.0), (0.9, 1.7)])
def test_h_second_one_dimensional_case(a, b):
    # at n=1 the residual part of F'' is exactly the pole term, so h'' = -1/t
    E = solve_coefficients(1, a, b)
    for t in np.linspace(a + 0.01, b - 0.01, 15):
        t = float(t)
        assert h_second(E, t) == pytest.approx(-1.0 / t, rel=1e-11)


def test_cross_check_agrees_on_surface_case():
    r = coefficient_cross_check(solve_coefficients(2, 0.5, 1.0))
    assert r.max_delta <= 1e-12
    assert r.status == "ok"


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("a,b", [(0.5, 1.0), (0.25, 2.0), (0.05, 0.1), (9.0, 10.0)])
def test_cross_check_agrees_in_every_dimension(n, a, b):
    r = coefficient_cross_check(solve_coefficients(n, a, b))
    assert r.max_delta <= 1e-12
    assert r.status == "ok"


def _sympy_solution(n, a, b):
    """(A, B, C, D) as Fractions, from a sympy Rational solve of the endpoint
    conditions built from the definition of alpha."""
    t, A, B, C, D = sympy.symbols("t A B C D")
    p = n * (n + 1) * (n + 2)
    alpha = n * A * t ** (n + 2) + (n + 2) * B * t ** (n + 1) + p * (C * t + D)
    d_alpha = sympy.diff(alpha, t)
    ea, eb = sympy.Rational(a), sympy.Rational(b)
    eqs = [
        alpha.subs(t, ea) - p * ea**n,
        d_alpha.subs(t, ea) - (n - 1) * p * ea ** (n - 1),
        alpha.subs(t, eb) - p * eb**n,
        d_alpha.subs(t, eb) - (n + 1) * p * eb ** (n - 1),
    ]
    M, rhs = sympy.linear_eq_to_matrix(eqs, [A, B, C, D])
    return tuple(Fraction(int(v.p), int(v.q)) for v in M.LUsolve(rhs))


def _sympy_coefficients(n, a, b):
    """The exact solution, each coefficient rounded to the nearest float."""
    return tuple(map(float, _sympy_solution(n, a, b)))


def _exact_h_second(n, a, b, t):
    """h''(t) = F''(t) - (b-a)/((t-a)(b-t)) by its definition, in rationals,
    at the float t."""
    A, B, C, D = _sympy_solution(n, a, b)
    a, b, t = Fraction(a), Fraction(b), Fraction(t)
    p = n * (n + 1) * (n + 2)
    alpha = n * A * t ** (n + 2) + (n + 2) * B * t ** (n + 1) + p * (C * t + D)
    F2 = p * t ** (n - 1) / (p * t**n - alpha) - 1 / t
    return float(F2 - (b - a) / ((t - a) * (b - t)))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("ratio", [0.05, 0.5, 0.999])
@pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
def test_solve_is_exact_rounding_of_rational_solve(n, ratio, b):
    a = ratio * b
    E = solve_coefficients(n, a, b)
    assert (E.A, E.B, E.C, E.D) == _sympy_coefficients(n, a, b)


def test_closed_form_surface_values():
    E = closed_form_coefficients(2, 0.5, 1.0)
    assert E.A == pytest.approx(96 / 13, rel=1e-14)
    assert E.B == pytest.approx(12 / 13, rel=1e-14)
    assert E.C == pytest.approx(1 / 13, rel=1e-14)
    assert E.D == pytest.approx(2 / 13, rel=1e-14)


def test_scalar_curvature_is_affine():
    E = solve_coefficients(2, 0.5, 1.0)
    assert extremal_scalar_curvature(E, 0.6) == pytest.approx(
        E.A * 0.6 + E.B, rel=1e-15
    )


def test_build_extremal_metric_roundtrip():
    P, T, E = build_extremal_metric(2, 0.5, 1.0)
    assert P.dimension == 2
    assert T.t_min == 0.5 and T.t_max == 1.0
    got = radial_scalar_curvature(T, 0.6, method="analytic")
    assert got == pytest.approx(69.6 / 13, rel=1e-10)


def test_build_extremal_metric_has_analytic_derivatives():
    _, T, E = build_extremal_metric(2, 0.5, 1.0)
    assert T.has_analytic_derivatives()
    # d3F, d4F consistent with finite differences of d2F
    h = 1e-5
    t = 0.75
    fd3 = (T.d2F(t + h) - T.d2F(t - h)) / (2 * h)
    assert T.d3F(t) == pytest.approx(fd3, rel=1e-7)
    fd4 = (T.d2F(t + h) - 2 * T.d2F(t) + T.d2F(t - h)) / h**2
    assert T.d4F(t) == pytest.approx(fd4, rel=1e-4)


def test_invalid_construction_parameters():
    with pytest.raises(InvalidParameters):
        solve_coefficients(0, 0.5, 1.0)
    with pytest.raises(InvalidParameters):
        solve_coefficients(2, 1.0, 0.5)
    with pytest.raises(InvalidParameters):
        solve_coefficients(2, -0.1, 1.0)


# --- array calls -------------------------------------------------------------


def _profile_jet(E, t):
    return np.stack(_profile_derivatives(E, t), axis=-1)


@given(
    nab,
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=80)
def test_array_calls_equal_elementwise_scalar_calls(params, fractions):
    n, a, b = params
    E = solve_coefficients(n, a, b)
    ts = np.array([a + (b - a) * f for f in fractions])
    ts = ts[(a < ts) & (ts < b)]  # rounding can land a fraction on an endpoint
    assume(ts.size > 0)
    for fn in (extremal_F_second, h_second, _profile_jet):
        try:
            want = np.array([fn(E, float(t)) for t in ts])
        except GeometryError as exc:  # the pole guard, next to an endpoint
            with pytest.raises(type(exc)):
                fn(E, ts)
            continue
        got = fn(E, ts)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "bad, error",
    [(0.4, DomainViolation), (1.0, DomainViolation), (0.5 + 1e-15, PotentialPole)],
)
def test_bad_t_in_an_array_raises_like_the_scalar_call(bad, error):
    E = solve_coefficients(2, 0.5, 1.0)
    batch = np.array([0.6, bad, 0.75])
    for fn in (extremal_F_second, h_second, _profile_jet):
        if error is DomainViolation and fn is _profile_jet:
            continue  # the derivatives guard only the pole
        if error is PotentialPole and fn is h_second:
            continue  # the deflated form is regular at the endpoints
        with pytest.raises(error):
            fn(E, bad)
        with pytest.raises(error):
            fn(E, batch)


def test_radial_curvature_computes_the_profile_derivatives_once(monkeypatch):
    from toricext import calabi as calabi_mod

    calls = []
    real = calabi_mod._profile_derivatives

    def counting(E, t):
        calls.append(np.shape(t))
        return real(E, t)

    monkeypatch.setattr(calabi_mod, "_profile_derivatives", counting)
    _, T, E = build_extremal_metric(2, 0.5, 1.0)
    ts = np.linspace(0.55, 0.95, 100)
    S = radial_scalar_curvature(T, ts)
    assert calls == [(100,)]
    np.testing.assert_allclose(S, E.A * ts + E.B, rtol=1e-9)
    radial_scalar_curvature(T, ts[:10])
    assert len(calls) == 2
    # both derivatives are those of one evaluation at the t asked for
    f3, f4 = real(E, ts[:10])
    assert np.array_equal(T.d3F(ts[:10]), f3) and np.array_equal(T.d4F(ts[:10]), f4)


def test_shared_profile_derivatives_are_read_only():
    # d3F and d4F share one cached evaluation; writing into it would change
    # every later answer at the same t
    _, T, E = build_extremal_metric(2, 0.5, 1.0)
    ts = np.linspace(0.55, 0.95, 7)
    for d in (T.d3F, T.d4F):
        with pytest.raises(ValueError, match="read-only"):
            d(ts)[0] = 0.0
    f3, f4 = _profile_derivatives(E, ts)
    assert np.array_equal(T.d3F(ts), f3) and np.array_equal(T.d4F(ts), f4)
