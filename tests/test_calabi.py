import argparse
import math
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricext import exact as exact_mod
from toricext import table
from toricext.calabi import (
    _bernstein_certificate,
    build_extremal_metric,
    positivity_certificate,
)
from toricext.errors import (
    BoundaryIdentityViolation,
    DegenerateMetric,
    DomainViolation,
    GeometryError,
    InvalidParameters,
    PositivityViolation,
)
from toricext.exact import (
    ExtremalCoefficients,
    _alpha_coeffs,
    _closed_form,
    _deflation,
    _exact_solution,
    coefficient_cross_check,
    solve_coefficients,
)
from toricext.numdiff import grid
from toricext.radial import radial_scalar_curvature
from util import (
    as_fractions,
    as_integers,
    boundary_rows,
    boundary_solution,
    closed_form_coefficients,
    deflation_fractions,
    donaldson_functional,
    exact_F_second,
    exact_phi_jet,
    fraction_bernstein,
    fraction_deflation,
    fraction_h_second,
    horner,
    lowest_coefficients,
    moment_solution,
    moment_system,
    polytope_theta,
)

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
    rows = boundary_rows(2, Fraction(1, 2), Fraction(1))
    assert [row[4] for row in rows] == [6, 12, 24, 72]
    assert rows[0][:4] == [Fraction(1, 8), Fraction(1, 2), 12, 24]
    assert rows[2][:4] == [2, 4, 24, 24]
    assert all(len(row) == 5 for row in rows) and len(rows) == 4


def test_boundary_system_is_nonsingular_for_every_n():
    # boundary_rows on a symbolic n, with a^n and b^n as symbols of their
    # own, so that every entry is a polynomial: the determinant and the
    # leading minors are identities in (n, a, b, a^n, b^n)
    n, a, b, an, bn = sympy.symbols("n a b a_n b_n", positive=True)

    def polynomial(entry):
        entry = sympy.expand(entry, power_exp=True)
        return sympy.expand(entry.subs({a**n: an, b**n: bn}))

    M = sympy.Matrix([list(map(polynomial, row[:4])) for row in boundary_rows(n, a, b)])
    p = n * (n + 1) * (n + 2)
    den = (b * bn - a * an) ** 2 - (n + 1) ** 2 * an * bn * (b - a) ** 2
    assert polynomial(exact_mod._calabi_denominator(n, a, b) - den) == 0
    assert sympy.expand(M.det(method="berkowitz") - n * (n + 2) * p**2 * den) == 0
    # a^(n+1) b^(n+2) f(a/b) with f(r) = (n+1)r - n - r^(n+1), which is
    # negative on (0, 1): f(1) = 0 and f' = (n+1)(1 - r^n) > 0 there
    f = a * an * b * ((n + 1) * a * bn - n * b * bn - a * an)
    minors = [n * a**2 * an, -n * (n + 2) * a**2 * an**2, n**2 * (n + 1) * (n + 2) ** 2 * f]
    for k, minor in enumerate(minors, start=1):
        assert sympy.expand(M[:k, :k].det(method="berkowitz") - minor) == 0


def test_moment_system_is_the_boundary_system_for_every_n():
    # Donaldson's 2x2 system and the lines for (C, D) on a symbolic n, with
    # a^(n-1) and b^(n-1) as symbols of their own, so that every moment is
    # a polynomial: its Gram determinant is Calabi's denominator over
    # n(n+1)^2(n+2), and the Cramer (A, B) with its (C, D) meet all four
    # endpoint conditions, as identities in (n, a, b, a^(n-1), b^(n-1))
    n, a, b, an, bn = sympy.symbols("n a b a_n b_n", positive=True)
    A, B = sympy.symbols("A B")

    def polynomial(entry):
        entry = sympy.expand(entry, power_exp=True)
        return sympy.expand(entry.subs({a**n: a * an, b**n: b * bn}))

    (m0, m1, m2), (r0, r1) = (map(polynomial, x) for x in moment_system(n, a, b))
    gram = m0 * m2 - m1 * m1
    den = polynomial(exact_mod._calabi_denominator(n, a, b))
    assert sympy.cancel(sympy.expand(gram * n * (n + 1) ** 2 * (n + 2)) - den) == 0
    # alpha is linear in (A, B); times the Gram determinant, Cramer's rule
    # makes each condition a polynomial identity
    cramer = {A: m0 * r1 - m1 * r0, B: m2 * r0 - m1 * r1}
    C, D = map(polynomial, lowest_coefficients(n, b, A, B))
    p = n * (n + 1) * (n + 2)
    for e, e_n, slope in ((a, an, n - 1), (b, bn, n + 1)):
        alpha = n * A * e**3 * e_n + (n + 2) * B * e**2 * e_n + p * (C * e + D)
        d_alpha = n * (n + 2) * A * e**2 * e_n + (n + 1) * (n + 2) * B * e * e_n + p * C
        for residual in (alpha - p * e * e_n, d_alpha - slope * p * e_n):
            residual = sympy.expand(residual)
            constant = residual.subs({A: 0, B: 0})
            homogeneous = sum(residual.coeff(x) * cramer[x] for x in (A, B))
            assert sympy.cancel(sympy.expand(homogeneous + constant * gram)) == 0


@pytest.mark.parametrize("n", range(1, 17))
def test_donaldson_functional_is_the_extremal_numerator(n):
    # (n+2)! * L((t - c)_+) = p*c^n - alpha(c), exactly, at rational c in
    # (a, b)
    rng = random.Random(n)
    p = n * (n + 1) * (n + 2)
    for a, b in ((0.5, 1.0), (0.25, 2.0), (1e-3, 1.0)):
        A, B, C, D = as_fractions(_exact_solution(n, a, b))
        alpha = _alpha_coeffs(n, A, B, C, D)
        for _ in range(3):
            c = Fraction(a) + Fraction(rng.randrange(1, 10**6), 10**6) * Fraction(b - a)
            numerator = p * c**n - horner(alpha, c)
            assert donaldson_functional(n, Fraction(a), Fraction(b), A, B, c) == numerator
        # (t - a)_+ is affine, so L vanishes there: the root of the numerator at a
        assert donaldson_functional(n, Fraction(a), Fraction(b), A, B, Fraction(a)) == 0


@given(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=1e-3, max_value=0.999),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=60, deadline=None)
@example(64, 0.999, 1.0)
@example(1, 1e-3, 1e3)
def test_three_coefficient_routes_are_one(n, ratio, b):
    # Donaldson's moments, the 4x4 boundary system and Calabi's closed forms
    a = ratio * b
    exact = as_fractions(_exact_solution(n, a, b))
    assert moment_solution(n, a, b) == exact
    assert boundary_solution(n, a, b) == exact
    assert as_fractions(_closed_form(n, a, b)) == exact


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=1e-3, max_value=0.999),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=40, deadline=None)
@example(8, 0.5, 1.0)
@example(8, 0.3 / 1.7, 1.7)
@example(8, 1e-3, 1.0)
@example(8, 0.999, 1.0)
@example(8, 0.125, 2.0)
def test_the_polytope_facets_give_the_extremal_affine_function(n, ratio, b):
    # Donaldson's functional on the n-dimensional polytope, from its facets
    # and Dirichlet's integrals, against the moment solve's reduced measures
    a = ratio * b
    A, B = as_fractions(_exact_solution(n, a, b))[:2]
    assert polytope_theta(n, a, b) == (B,) + (A,) * n
    # a half-weighted facet t = a is caught
    assert polytope_theta(n, a, b, facet_at_a=Fraction(1, 2)) != (B,) + (A,) * n


@pytest.mark.parametrize(
    "weights, ns",
    [({"facets": 0}, (2, 3, 8, 16)), ({"mass_at_a": 0}, (1, 2, 3, 8, 16))],
)
def test_moment_system_mutants_fail_the_closed_form(monkeypatch, weights, ns):
    # the x_i-facet term is 0 at n = 1, so its mutant starts at n = 2
    monkeypatch.setattr(
        exact_mod, "_exact_solution",
        lambda n, a, b: as_integers(moment_solution(n, a, b, **weights)),
    )
    for n in ns:
        E = solve_coefficients(n, 0.5, 1.0)
        assert coefficient_cross_check(E) is False
        with pytest.raises(BoundaryIdentityViolation):
            positivity_certificate(E)


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
    # exactly: every row of the rational system has residual 0, and the
    # record is the rounding of that solution
    n, a, b = params
    exact = as_fractions(_exact_solution(n, a, b))
    for row in boundary_rows(n, Fraction(a), Fraction(b)):
        assert sum(m * x for m, x in zip(row, exact)) == row[4]
    assert as_fractions(_closed_form(n, a, b)) == exact
    E = solve_coefficients(n, a, b)
    assert (E.A, E.B, E.C, E.D) == tuple(map(float, exact))
    assert coefficient_cross_check(E) is True


def test_alpha_eval_interpolates_boundary_data():
    # alpha and alpha' of the exact solution at the ends, in rationals
    exact = as_fractions(_exact_solution(2, 0.5, 1.0))
    alpha = _alpha_coeffs(2, *exact)
    d_alpha = [c * k for c, k in zip(alpha, range(len(alpha) - 1, 0, -1))]
    half = Fraction(1, 2)
    assert (horner(alpha, half), horner(d_alpha, half)) == (6, 12)
    assert (horner(alpha, 1), horner(d_alpha, 1)) == (24, 72)


def _F_second(E, ts):
    return table.profile_columns(E, ts)[0]


def test_F_second_constant_coefficients():
    # alpha = p*D = p, or alpha = 0, is not the extremal solution of
    # (2, 0.5, 1): F'' and the momentum profile read the record's deflation,
    # which refuses it
    for D in (1.0, 0.0):
        E = ExtremalCoefficients(n=2, a=0.5, b=1.0, A=0.0, B=0.0, C=0.0, D=D)
        with pytest.raises(InvalidParameters, match="not the extremal coefficients"):
            _F_second(E, [0.7])
        with pytest.raises(InvalidParameters, match="not the extremal coefficients"):
            table.jet(E, [0.7])


def test_F_second_frozen_midpoint():
    E = solve_coefficients(2, 0.5, 1.0)
    assert _F_second(E, [0.75])[0] == pytest.approx(6.8771929824561404, rel=1e-12)


def test_F_second_pole_at_interval_ends():
    # F'' has its pole 1/(t - a) at the ends, and the column follows it to
    # the last float before each end: no cancellation is left to refuse
    E = solve_coefficients(2, 0.5, 1.0)
    ts = [0.5 + 1e-15, math.nextafter(0.5, 1.0), 1.0 - 1e-16]
    for t, got in zip(ts, _F_second(E, ts)):
        want = exact_F_second(E, t)
        assert abs(Fraction(got) - want) <= 1e-14 * abs(want)
        assert abs(got) > 1e14


def test_F_second_outside_interval():
    E = solve_coefficients(2, 0.5, 1.0)
    with pytest.raises(DomainViolation):
        _F_second(E, [0.4])
    with pytest.raises(DomainViolation):
        _F_second(E, [1.2])


def test_h_second_frozen_midpoint():
    E = solve_coefficients(2, 0.5, 1.0)
    assert table.profile_columns(E, [0.75])[1][0] == pytest.approx(-64 / 57, rel=1e-12)


def test_h_second_eliminates_prescribed_pole():
    # F'' - h'' = c/((t-a)(b-t)) by construction
    E = solve_coefficients(2, 0.5, 1.0)
    a, b, c = E.a, E.b, E.b - E.a
    ts = grid(0.52, 0.98, 20)
    for t, f2, h2 in zip(ts, *table.profile_columns(E, ts)):
        lhs = f2 - h2
        rhs = c / ((t - a) * (b - t))
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize(
    "n,a,b",
    [(2, 0.5, 1.0), (3, 0.25, 2.0), (4, 0.5, 1.0), (4, 1e-3, 1e3), (10, 0.5, 10.0)],
)
def test_h_second_bounded_at_interval_ends(n, a, b):
    """h'' stays finite as t -> a, b even though F'' blows up there, and
    table.profile_columns gets it right there."""
    E = solve_coefficients(n, a, b)
    for base, sgn in ((a, +1.0), (b, -1.0)):
        for off in (1e-6, 5e-7, 2.5e-7, 1e-9):
            t = base + sgn * off * (b - a)
            want = _exact_h_second(n, a, b, t)
            got = table.profile_columns(E, [t])[1][0]
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def _h_second_error(E, ts):
    """The largest |h'' - exact|/|exact| of ``profile_columns`` at the ts,
    against the exact rational h'' of the sympy solve at the same float t."""
    got = table.profile_columns(E, ts)[1]
    want = [_exact_h_second(E.n, E.a, E.b, t) for t in ts]
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


@given(
    n=st.integers(min_value=1, max_value=16),
    b=st.floats(min_value=-100.0, max_value=100.0).map(lambda e: 10.0**e),
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
    # relative to h'' itself, which scales like 1/b: a floor of 1 would pass
    # any error once |h''| << 1
    try:
        error = _h_second_error(solve_coefficients(n, a, b), [t])
    except GeometryError:  # past the float range of the coefficients or of Q
        assume(False)
    assert error <= 1e-13


def test_h_second_refuses_a_non_extremal_record():
    # only the extremal coefficients of (n, a, b) make h'' regular at the ends
    # and give a momentum profile (t-a)(t-b)*Q/(p*t^(n-1))
    flat = ExtremalCoefficients(n=2, a=0.5, b=1.0, A=0.0, B=0.0, C=0.0, D=0.0)
    E = solve_coefficients(3, 0.25, 2.0)
    off_by_one_ulp = ExtremalCoefficients(
        E.n, E.a, E.b, E.A, E.B, E.C, math.nextafter(E.D, 1.0)
    )
    for record in (flat, off_by_one_ulp):
        for evaluate in (table.profile_columns, table.jet):
            with pytest.raises(InvalidParameters):
                evaluate(record, [0.75])


@pytest.mark.parametrize("a,b", [(0.3, 1.0), (0.9, 1.7)])
def test_h_second_one_dimensional_case(a, b):
    # at n=1 the residual part of F'' is exactly the pole term, so h'' = -1/t
    E = solve_coefficients(1, a, b)
    ts = grid(a + 0.01, b - 0.01, 15)
    for t, h2 in zip(ts, table.profile_columns(E, ts)[1]):
        assert h2 == pytest.approx(-1.0 / t, rel=1e-11)


def test_cross_check_agrees_on_surface_case():
    assert as_fractions(_closed_form(2, 0.5, 1.0)) == tuple(
        Fraction(k, 13) for k in (96, 12, 1, 2)
    )
    assert coefficient_cross_check(solve_coefficients(2, 0.5, 1.0)) is True


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("a,b", [(0.5, 1.0), (0.25, 2.0), (0.05, 0.1), (9.0, 10.0)])
def test_cross_check_agrees_in_every_dimension(n, a, b):
    assert as_fractions(_closed_form(n, a, b)) == as_fractions(_exact_solution(n, a, b))
    assert coefficient_cross_check(solve_coefficients(n, a, b)) is True


def test_cross_check_refuses_a_record_that_is_not_the_rounding():
    E = solve_coefficients(3, 0.25, 2.0)
    off_by_one_ulp = ExtremalCoefficients(
        E.n, E.a, E.b, E.A, E.B, E.C, math.nextafter(E.D, 1.0)
    )
    assert coefficient_cross_check(off_by_one_ulp) is False



@pytest.mark.parametrize("n", range(1, 17))
def test_closed_form_equals_the_exact_solve_in_a_thin_shell(n):
    a = 1.0 - 1e-9
    assert as_fractions(_closed_form(n, a, 1.0)) == as_fractions(_exact_solution(n, a, 1.0))
    assert coefficient_cross_check(solve_coefficients(n, a, 1.0)) is True



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


def test_build_extremal_metric_roundtrip():
    T, E = build_extremal_metric(2, 0.5, 1.0)
    # the profile is its own polytope: n and the interval (a, b)
    assert (T.n, T.t_min, T.t_max) == (E.n, E.a, E.b) == (2, 0.5, 1.0)
    [got] = radial_scalar_curvature(2, [0.6], T.jet([0.6]))
    assert got == pytest.approx(69.6 / 13, rel=1e-10)


def test_build_extremal_metric_derivatives_match_differences():
    T, E = build_extremal_metric(2, 0.5, 1.0)
    # the jet's phi' and phi'' consistent with finite differences of phi
    h = 1e-5
    t = 0.75
    down, mid, up = T.jet([t - h, t, t + h])[0]
    _, [d1], [d2] = T.jet([t])
    assert d1 == pytest.approx((up - down) / (2 * h), rel=1e-7)
    assert d2 == pytest.approx((up - 2 * mid + down) / h**2, rel=1e-4)


# (n, a, b) where the boundary conditions were checked exactly by hand
_BOUNDARY_GEOMETRIES = [(1, 0.5, 1.0), (2, 0.5, 1.0), (5, 0.125, 2.0), (16, 0.999, 1.0)]


@pytest.mark.parametrize("n, a, b", _BOUNDARY_GEOMETRIES)
def test_momentum_profile_meets_the_boundary_conditions_exactly(n, a, b):
    # phi(a) = phi(b) = 0, phi'(a) = 1, phi'(b) = -1: the four endpoint
    # conditions on alpha, in the momentum profile's terms
    E = solve_coefficients(n, a, b)
    assert exact_phi_jet(E, a)[:2] == (0, 1)
    assert exact_phi_jet(E, b)[:2] == (0, -1)


# nab over every dimension verify serves, and thin shells at every scale
nab16 = st.tuples(
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=0.05, max_value=1.5),
    st.floats(min_value=0.2, max_value=2.0),
).map(lambda t: (t[0], t[1], t[1] + t[2]))
thin16 = st.tuples(
    st.integers(min_value=1, max_value=16),
    st.sampled_from([1e-3, 0.5, 0.999, 0.99999, 0.9999999, 1 - 1e-9]),
    st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
).map(lambda t: (t[0], t[1] * t[2], t[2]))


@given(
    st.one_of(nab16, thin16),
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        min_size=1,
        max_size=20,
    ),
)
@example((16, 1e-3, 1.0), [0.00981137805649026])
@settings(max_examples=100)
def test_jet_and_F_second_match_the_exact_momentum_profile(params, fractions):
    """The float jet (phi, phi', phi'') and the F'' column against the exact
    rational values at the same float t: phi to 1e-14 relative, phi' to
    5e-14 of max(1, |phi'|), phi'' to 1e-14 of max(|phi''|, (n+1)^2/t), the
    size of its terms, and F'' = 1/phi - 1/t to 1e-14 of 1/phi + 1/t."""
    n, a, b = params
    E = solve_coefficients(n, a, b)
    ts = [t for t in (a + (b - a) * f for f in fractions) if a < t < b]
    assume(ts)
    phi, dphi, d2phi = table.jet(E, ts)
    for k, t in enumerate(ts):
        want, want1, want2 = exact_phi_jet(E, t)
        assert abs(Fraction(phi[k]) - want) <= 1e-14 * abs(want)
        assert abs(Fraction(dphi[k]) - want1) <= 5e-14 * max(1, abs(want1))
        scale = max(abs(want2), Fraction((n + 1) ** 2) / Fraction(t))
        assert abs(Fraction(d2phi[k]) - want2) <= 1e-14 * scale
        got = Fraction(_F_second(E, [t])[0])
        assert abs(got - exact_F_second(E, t)) <= 1e-14 * (1 / want + 1 / Fraction(t))


@given(
    st.floats(min_value=-300.0, max_value=300.0),
    st.sampled_from([1e-3, 0.5, 0.999]),
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        min_size=1,
        max_size=9,
    ),
)
@example(175.0, 0.5, [1e-4])  # read 2.0e-175 for 2.0e-171 before the fix
@example(-200.0, 0.5, [1e-4])  # overflowed to inf, a refused call, likewise
@settings(max_examples=100)
def test_F_second_at_n_1_is_exact_for_every_scale(log_b, ratio, fractions):
    # at n = 1 the F'' column divides p by q ~ -1/b first: dividing by
    # (t - a) and (t - b) first left the normal floats at b = 1e175 and
    # b = 1e-200 before q brought the quotient back
    b = 10.0**log_b
    E = solve_coefficients(1, ratio * b, b)
    ts = [t for t in (E.a + (E.b - E.a) * f for f in fractions) if E.a < t < E.b]
    # an F'' past the float range, next to an end, is refused by the renderer
    wants = {t: exact_F_second(E, t) for t in ts}
    ts = [t for t in ts if abs(wants[t]) <= sys.float_info.max]
    assume(ts)
    for t, got in zip(ts, _F_second(E, ts)):
        assert abs(Fraction(got) - wants[t]) <= 1e-14 * abs(wants[t])


def test_invalid_construction_parameters():
    with pytest.raises(InvalidParameters):
        solve_coefficients(0, 0.5, 1.0)
    with pytest.raises(InvalidParameters):
        solve_coefficients(2, 1.0, 0.5)
    with pytest.raises(InvalidParameters):
        solve_coefficients(2, -0.1, 1.0)


_BUILDERS = [solve_coefficients, closed_form_coefficients]


@pytest.mark.parametrize("build", _BUILDERS)
@pytest.mark.parametrize("n", [2.5, 2.0, True, False, "2", None])
def test_dimension_must_be_an_integer(build, n):
    with pytest.raises(InvalidParameters, match="n must be an integer"):
        build(n, 0.5, 1.0)


@pytest.mark.parametrize("build", _BUILDERS)
@pytest.mark.parametrize("n", [exact_mod.MAX_DIMENSION + 1, 10**48], ids=["513", "10^48"])
def test_dimension_past_the_cap_is_refused_before_any_exact_work(build, n, monkeypatch):
    # derive --n 10**48 never returned; the refusal comes before any solve
    def no_exact_work(*args):
        raise AssertionError("exact work before the refusal")

    monkeypatch.setattr(exact_mod, "_exact_solution", no_exact_work)
    monkeypatch.setattr(exact_mod, "_closed_form", no_exact_work)
    with pytest.raises(InvalidParameters) as raised:
        build(n, 0.5, 1.0)
    assert str(raised.value) == (
        f"n must be at most 512, the range the exact layer is sized for; got {n}")
    with pytest.raises(InvalidParameters, match="^n must be at most 512"):
        ExtremalCoefficients(n, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_the_largest_dimension_solves():
    E = solve_coefficients(exact_mod.MAX_DIMENSION, 0.5, 1.0)
    assert E.n == 512 and coefficient_cross_check(E)


@pytest.mark.parametrize("build", _BUILDERS)
def test_overflowing_coefficient_is_invalid_input(build):
    # A ~ 1/b^2 is past the float range; float(Fraction) would raise
    # OverflowError, which no caller handles
    with pytest.raises(
        InvalidParameters,
        match=r"coefficient A overflows a float for \(n=2, a=1e-200, b=2e-200\)",
    ):
        build(2, 1e-200, 2e-200)


class _Integer:
    """An integer type that is not int and has nothing but ``__index__``,
    through which the coefficient entry points read n."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value



@pytest.mark.parametrize("build", _BUILDERS)
def test_dimension_may_be_any_integral(build):
    E = build(_Integer(2), 0.5, 1.0)
    assert type(E.n) is int
    assert E == build(2, 0.5, 1.0)


# --- list calls against elementwise calls --------------------------------------


def _each(fn):
    # fn called on one t at a time, its lists joined
    return lambda E, ts: [list(c) for c in zip(*(
        [column[0] for column in fn(E, [t])] for t in ts))]


# (one t at a time, the list call): every list function of ``table``
_PAIRS = [
    (_each(table.profile_columns), table.profile_columns),
    (_each(table.jet), table.jet),
]


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
    """Bit for bit: the columns (F'', h'') and the jet of a list of t are
    those of one t at a time; or both raise the same error."""
    n, a, b = params
    E = solve_coefficients(n, a, b)
    ts = [a + (b - a) * f for f in fractions]
    ts = [t for t in ts if a < t < b]  # rounding can land a fraction on an endpoint
    assume(ts)
    for each_fn, list_fn in _PAIRS:
        assert list(list_fn(E, ts)) == each_fn(E, ts)


@pytest.mark.parametrize("bad, error", [(0.4, DomainViolation), (1.0, DomainViolation)])
def test_bad_t_in_an_array_raises_like_the_scalar_call(bad, error):
    E = solve_coefficients(2, 0.5, 1.0)
    batch = [0.6, bad, 0.75]
    for each_fn, list_fn in _PAIRS:
        with pytest.raises(error):
            list_fn(E, [bad])
        with pytest.raises(error) as raised:
            each_fn(E, batch)
        # the list call fails with the same message
        with pytest.raises(error, match=f"^{re.escape(str(raised.value))}$"):
            list_fn(E, batch)


def test_zero_deflated_denominator_raises_alike(monkeypatch):
    # a valid record has Q < 0 on [a, b] (the certificate); round a record's
    # (V, Q) to one with Q(0.75) = 0 to reach the guard
    E = ExtremalCoefficients(n=1, a=0.5, b=1.0, A=1.0, B=2.0, C=3.0, D=4.0)
    monkeypatch.setattr(table, "_float_deflation", lambda E: ((1.0,), (1.0, -0.75)))
    # both columns divide by Q
    with pytest.raises(
        DegenerateMetric, match=r"^deflated denominator vanishes at t = 0\.75$"
    ):
        table.profile_columns(E, [0.6, 0.75])
    # the jet divides by no Q: phi = 0 there, which the metric refuses as
    # the same class
    jet = table.jet(E, [0.75])
    assert jet[0] == [0.0]
    with pytest.raises(DegenerateMetric, match=r"phi = -0\.000e\+00, at t = 0\.75$"):
        radial_scalar_curvature(1, [0.75], jet)


def test_a_record_past_the_float_range_is_invalid_input_to_every_reader():
    # A ~ 1/b^2 overflows a float here; each reader of a hand-built record
    # refuses it as the solve refuses its geometry, not with OverflowError
    a, b = 1e-200, 2e-200
    E = ExtremalCoefficients(2, a, b, 0.0, 0.0, 0.0, 0.0)
    message = r"^coefficient A overflows a float for \(n=2, a=1e-200, b=2e-200\)$"
    readers = [
        lambda: solve_coefficients(2, a, b),
        lambda: table.jet(E, [1.5e-200]),
        lambda: table.profile_columns(E, [1.5e-200]),
        lambda: positivity_certificate(E),
        lambda: coefficient_cross_check(E),
    ]
    for read in readers:
        with pytest.raises(InvalidParameters, match=message):
            read()


def test_radial_curvature_computes_the_profile_derivatives_once(monkeypatch):
    calls = []
    real = table.jet

    def counting(E, ts):
        calls.append(ts)
        return real(E, ts)

    monkeypatch.setattr(table, "jet", counting)
    T, E = build_extremal_metric(2, 0.5, 1.0)
    ts = grid(0.55, 0.95, 100)
    S = radial_scalar_curvature(T.n, ts, T.jet(ts))
    assert calls == [ts]  # one evaluation of the whole list serves the jet
    A, B, _, _ = as_fractions(_exact_solution(2, 0.5, 1.0))
    for t, got in zip(ts, S):
        want = A * Fraction(t) + B
        assert abs(Fraction(got) - want) <= 1e-9 * abs(want)
    # the jet is that of one evaluation at the ts asked for
    assert T.jet(ts[3:5]) == real(E, ts[3:5])
    assert len(calls) == 2


def test_shared_profile_derivatives_are_read_only():
    # each jet call builds new lists of floats, so a caller that writes into
    # one answer changes no later answer at the same ts
    T, E = build_extremal_metric(2, 0.5, 1.0)
    ts = grid(0.55, 0.95, 7)
    want = table.jet(E, ts)
    for _ in range(2):
        jet = T.jet(ts)
        assert jet == want
        assert all(type(v) is float for column in jet for v in column)
        for column in jet:
            column[0] = math.nan


# --- exact proofs: Bernstein certificate, boundary identities, endpoints -----


def test_bernstein_certificate_refuses_a_simple_interior_root():
    # Q = 2t - 3 changes sign inside [1, 2]
    with pytest.raises(PositivityViolation, match="b_1"):
        _bernstein_certificate([2, -3], 1.0, 2.0)


def test_bernstein_certificate_refuses_a_double_interior_root():
    # Q = -(2t - 3)^2 <= 0 on [1, 2] but touches 0 at 3/2
    Q = [-4, 12, -9]
    with pytest.raises(PositivityViolation, match="b_1"):
        _bernstein_certificate(Q, 1.0, 2.0)


def test_bernstein_certificate_accepts_a_negative_constant():
    assert _bernstein_certificate([-3], 1.0, 2.0) == [-3]


def _bernstein_fractions(E) -> list:
    """The record's Bernstein coefficients as rationals: the certificate's
    integers are d! * K * b_k, K the scale of the deflation."""
    *_, Q, K = _deflation(E)
    scale = math.factorial(len(Q) - 1) * K
    return [Fraction(x, scale) for x in _bernstein_certificate(Q, E.a, E.b)]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 16])
@pytest.mark.parametrize(
    "a,b", [(0.5, 1.0), (0.31, 1.3), (1e-12, 1e-3), (0.999e3, 1e3)]
)
def test_integer_bernstein_equals_the_rational_reference(n, a, b):
    E = solve_coefficients(n, a, b)
    expected = fraction_bernstein(fraction_deflation(n, a, b)[1], a, b)
    assert _bernstein_fractions(E) == expected


def _q_value(E, t):
    return horner(deflation_fractions(E)[1], Fraction(t))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("ratio", [1e-9, 0.5, 1 - 1e-9])
@pytest.mark.parametrize("b", [1e-3, 1.0, 1e3])
def test_certificate_ends_are_the_exact_endpoint_values(n, ratio, b):
    E = solve_coefficients(n, ratio * b, b)
    margin = positivity_certificate(E)
    assert -1.0 <= margin < 0.0
    bern = _bernstein_fractions(E)
    assert bern[0] == _q_value(E, E.a)
    assert bern[-1] == _q_value(E, E.b)
    assert all(x < 0 for x in bern)


def _bits(value) -> str:
    """A float's bits (float.hex), or the name of the error that made none."""
    try:
        return float(value()).hex()
    except (OverflowError, GeometryError) as exc:
        return type(exc).__name__


@given(
    n=st.integers(min_value=1, max_value=16),
    b=st.floats(min_value=-100.0, max_value=100.0).map(lambda e: 10.0**e),
    ratio=st.one_of(
        st.floats(min_value=1e-6, max_value=0.999),
        st.floats(min_value=-9.0, max_value=-3.0).map(lambda e: 1.0 - 10.0**e),
    ),
)
@example(n=16, b=1.0, ratio=1 - 1e-9)
@example(n=2, b=1e-100, ratio=0.5)
@example(n=16, b=1e100, ratio=1e-6)
@settings(max_examples=100, deadline=None)
def test_integer_layer_floats_are_the_fraction_references(n, b, ratio):
    # every float the integer layer emits is float() of the Fraction route,
    # bit for bit: A to D, the V and Q coefficients, the Bernstein margin
    # and example's h'' at the midpoint; past the float range both refuse
    # example's h'' comes from the closed form it checks, at n = 2, b = 1
    t = 0.5 * (ratio + 1.0)
    doc = exact_mod.run_example(argparse.Namespace(a=ratio))[0]
    assert _bits(lambda: doc["h_second_midpoint"]) == _bits(
        lambda: fraction_h_second(2, ratio, 1.0, t))
    a = ratio * b
    assume(0.0 < a < b)
    want = [_bits(lambda: x) for x in moment_solution(n, a, b)]
    if "OverflowError" in want:
        with pytest.raises(InvalidParameters, match="overflows a float"):
            solve_coefficients(n, a, b)
        return
    E = solve_coefficients(n, a, b)
    assert [x.hex() for x in (E.A, E.B, E.C, E.D)] == want
    V, Q = fraction_deflation(n, a, b)
    want = [_bits(lambda: x) for x in V + Q]
    if "OverflowError" in want:
        with pytest.raises(InvalidParameters, match="overflows a float"):
            table._float_deflation(E)
    else:
        V_float, Q_float = table._float_deflation(E)
        assert [x.hex() for x in V_float + Q_float] == want
    bern = fraction_bernstein(Q, a, b)
    assert _bits(lambda: positivity_certificate(E)) == _bits(
        lambda: max(bern) / max(map(abs, bern)))


@pytest.mark.parametrize(
    "n,b", [(1, 1.0), (4, 1.0), (8, 1.0), (4, 1e-3), (4, 1e3)]
)
def test_build_extremal_metric_in_a_thin_shell(n, b):
    # a/b = 1 - 1e-9: a float grid of 1 + t*F'' reads large negative values
    # here by cancellation, the exact certificate proves the metric valid
    a = (1.0 - 1e-9) * b
    T, E = build_extremal_metric(n, a, b)
    assert T.n == n and (T.t_min, T.t_max) == (a, b)
    assert positivity_certificate(E) < 0.0


def _perturb_D(monkeypatch):
    # D moves by far less than half an ulp, so the record rounds as before
    real = exact_mod._exact_solution

    def perturbed(n, a, b):
        A, B, C, D = as_fractions(real(n, a, b))
        return as_integers((A, B, C, D + Fraction(1e-40)))

    monkeypatch.setattr(exact_mod, "_exact_solution", perturbed)


def test_nonzero_deflation_remainder_raises(monkeypatch):
    _perturb_D(monkeypatch)
    E = solve_coefficients(2, 0.5, 1.0)
    assert E == exact_mod.ExtremalCoefficients(
        n=2, a=0.5, b=1.0, A=96 / 13, B=12 / 13, C=1 / 13, D=2 / 13
    )
    with pytest.raises(BoundaryIdentityViolation):
        positivity_certificate(E)
    with pytest.raises(BoundaryIdentityViolation):
        table.profile_columns(solve_coefficients(2, 0.5, 1.0), [0.75])


# alpha plus eps*(t - r1)(t - r2)... keeps every boundary condition but the
# one named: a double root keeps value and slope, a simple root the value only
_BOUNDARY_MUTANTS = {
    "alpha(a) = p*a^n": "bb",
    "alpha(b) = p*b^n": "aa",
    "alpha'(a) = (n-1)*p*a^(n-1)": "abb",
    "alpha'(b) = (n+1)*p*b^(n-1)": "aab",
}


@pytest.mark.parametrize("condition", list(_BOUNDARY_MUTANTS))
@pytest.mark.parametrize("n, a, b", [(1, 0.5, 1.0), (2, 0.5, 1.0), (8, 0.25, 2.0)])
def test_deflation_names_the_boundary_condition_that_fails(monkeypatch, condition, n, a, b):
    # alpha's coefficients are integers over the solve's denominator: add
    # the integer polynomial, descending, of the product of (q*t - r) over
    # the roots r/q named
    roots = {"a": Fraction(a), "b": Fraction(b)}
    added = [1]
    for name in _BOUNDARY_MUTANTS[condition]:
        q, r = roots[name].denominator, roots[name].numerator
        added = [q * x - r * y for x, y in zip(added + [0], [0] + added)]
    real = exact_mod._alpha_coeffs

    def mutant(*args):
        coeffs = real(*args)
        coeffs[-len(added):] = [x + y for x, y in zip(coeffs[-len(added):], added)]
        return coeffs

    monkeypatch.setattr(exact_mod, "_alpha_coeffs", mutant)
    E = solve_coefficients(n, a, b)
    with pytest.raises(BoundaryIdentityViolation) as info:
        exact_mod._deflation(E)
    assert str(info.value) == f"boundary condition {condition} fails for {E}"


_PERTURBED_CHILD = """
import sys
from toricext import calabi, exact
from toricext.errors import BoundaryIdentityViolation
real = exact._exact_solution
def perturbed(n, a, b):
    # D moves by 2^-140 of 1/den, far less than half an ulp
    (A, B, C, D), den = real(n, a, b)
    return (A << 140, B << 140, C << 140, (D << 140) + 1), den << 140
exact._exact_solution = perturbed
try:
    calabi.positivity_certificate(exact.solve_coefficients(2, 0.5, 1.0))
except BoundaryIdentityViolation:
    print("raised", sys.flags.optimize)
"""


def test_nonzero_deflation_remainder_raises_under_optimize():
    # python -O strips assert statements; the check must survive it
    r = subprocess.run(
        [sys.executable, "-O", "-c", _PERTURBED_CHILD],
        capture_output=True, text=True, timeout=240,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["raised", "1"]


def _end_probes(a, b):
    """Three t next to each end, a + c*delta and b - c*delta, or the first
    float inside where c*delta rounds away (a shell thinner than about
    2e-10*b)."""
    c, deltas = b - a, (1e-6, 5e-7, 2.5e-7)
    inner_a, inner_b = math.nextafter(a, b), math.nextafter(b, a)
    return ([max(a + c * d, inner_a) for d in deltas]
            + [min(b - c * d, inner_b) for d in deltas])


@pytest.mark.parametrize(
    "n,a,b", [(2, 0.5, 1.0), (3, 0.25, 2.0), (5, 1e-3, 1.0), (8, 0.999, 1.0),
              (2, 500.0, 1000.0), (16, 0.3, 1.0)],
)
def test_endpoint_error_is_scale_free(n, a, b):
    # h'' scales like 1/t, and so does its float evaluation: at (2^k a, 2^k b)
    # every probe and every h'' there is the k = 0 one times 2^k and 2^-k,
    # bit for bit, so a relative error reads the same at every scale
    ts = _end_probes(a, b)
    base = table.profile_columns(solve_coefficients(n, a, b), ts)[1]
    for k in (-10, 10):
        lam = 2.0**k
        assert _end_probes(lam * a, lam * b) == [lam * t for t in ts]
        E = solve_coefficients(n, lam * a, lam * b)
        got = table.profile_columns(E, [lam * t for t in ts])[1]
        assert got == [h / lam for h in base]


def test_h_second_at_the_first_floats_inside_a_thin_shell():
    # c*delta rounds away next to both ends here, so the probes nearest the
    # ends are the first floats inside a and b
    for n in (1, 2, 4, 8, 16):
        for ratio in (1 - 1e-10, 1 - 1e-12):
            E = solve_coefficients(n, ratio, 1.0)
            ts = [math.nextafter(E.a, E.b), math.nextafter(E.b, E.a)]
            assert _end_probes(E.a, E.b) == [ts[0]] * 3 + [ts[1]] * 3
            assert _h_second_error(E, ts) <= 1e-13


def test_endpoint_limits_refuse_a_relative_error_of_1e_7(monkeypatch):
    real = table.profile_columns

    def off(E, ts):
        f2, h2 = real(E, ts)
        return f2, [h * (1 + 1e-7) for h in h2]

    for a, b in ((500.0, 1000.0), (5e8, 1e9)):
        E = solve_coefficients(2, a, b)
        ts = _end_probes(a, b)
        assert _h_second_error(E, ts) <= 1e-13
        with monkeypatch.context() as m:
            m.setattr(table, "profile_columns", off)
            assert _h_second_error(E, ts) == pytest.approx(1e-7, rel=1e-6)
            got = table.profile_columns(E, ts)[1]
        # max |h''| is about 1e-9 at b = 1e9: a floor of 1 lets the error pass
        want = [_exact_h_second(2, a, b, t) for t in ts]
        floored = all(abs(g - w) <= 1e-13 * max(1.0, abs(w)) for g, w in zip(got, want))
        assert floored is (b == 1e9)
