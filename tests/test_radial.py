import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricext import exact as exact_mod
from toricext.calabi import build_extremal_metric
from toricext.errors import DegenerateMetric, DomainViolation
from toricext.numdiff import grid
from toricext.polytope import sample_interior
from toricext.radial import TPotential, radial_scalar_curvature
from util import (
    F_profile,
    as_fractions,
    cpn_profile,
    exact_inverse_hessian,
    exact_phi_jet,
    fd_curvature_reference,
    flat_profile,
    hwang_singer_curvature,
    inverse_hessian,
    inertia,
    profile,
    radial_hessian,
)

interior_x = st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=5)

# the Hessian of the radial potential is G_ij = (delta_ij/x_i + F'')/2; its
# closed-form inverse is 2*(diag(x) - w*x x^T), w = (t - phi)/t^2 with the
# momentum profile phi = t/(1 + t*F''), here assembled from radial's
# closed-form entries


def _worst_error(got, want) -> Fraction:
    """max |got - want| over the entries of two matrices, exactly."""
    return max(abs(Fraction(g) - Fraction(w))
               for row_g, row_w in zip(got, want) for g, w in zip(row_g, row_w))


def test_hessian_flat_unit_point():
    # F'' = 0: phi = t = 2
    assert _worst_error(inverse_hessian([1.0, 1.0], 2.0), [[2, 0], [0, 2]]) <= 1e-15


def test_hessian_with_radial_part():
    # G = [[1, 1/2], [1/2, 1]]: F'' = 1, phi = 2/3 at t = 2
    G_inv = inverse_hessian([1.0, 1.0], 2.0 / 3.0)
    want = [[Fraction(4, 3), Fraction(-2, 3)], [Fraction(-2, 3), Fraction(4, 3)]]
    assert all(abs(Fraction(g) - w) <= 1e-15 * abs(w)
               for row_g, row_w in zip(G_inv, want) for g, w in zip(row_g, row_w))


def test_hessian_anisotropic_point():
    # G = diag(1/4, 1/2): F'' = 0, phi = t = 3
    assert _worst_error(inverse_hessian([2.0, 1.0], 3.0), [[4, 0], [0, 2]]) <= 1e-15


@given(interior_x, st.floats(min_value=-3.0, max_value=5.0))
def test_positive_definite_iff_conformal_factor_positive(x, f2):
    # the closed form answers exactly where the Hessian is positive definite;
    # past that, the rank-one term leaves it exactly one negative eigenvalue
    t = sum(x)
    gate = 1.0 + t * f2
    if abs(gate) < 1e-6:
        return
    phi = t / gate
    n = len(x)
    if gate > 0:
        assert inertia(radial_hessian(x, f2)) == (n, 0, 0)
        assert inertia(inverse_hessian(x, phi)) == (n, 0, 0)
    else:
        assert inertia(radial_hessian(x, f2)) == (n - 1, 1, 0)
        with pytest.raises(DegenerateMetric, match="1 \\+ t\\*F''"):
            inverse_hessian(x, phi)


@given(
    n=st.integers(min_value=1, max_value=16),
    b=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    ratio=st.one_of(
        st.sampled_from([1e-3, 0.999]), st.floats(min_value=1e-3, max_value=0.999)
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
# where the reference's t - x_i, subtracted from the rounded t, cancelled
@example(n=2, b=10.0, ratio=0.999, seed=1)
@settings(max_examples=100)
def test_closed_form_inverse_equals_exact_inverse(n, b, ratio, seed):
    """At points of the polytope, with the extremal F'' there, the closed
    form is the exact inverse of the radial Hessian (Sherman-Morrison over
    ``Fraction``) to rounding, relative to its largest entry: 9.9e-16 at
    worst over 2 500 points of these draws."""
    a = ratio * b
    T, _ = build_extremal_metric(n, a, b)
    for x in sample_interior(T, 5, margin=0.05 * (b - a), seed=seed):
        [phi] = T.jet([sum(x)])[0]
        # the F'' of that phi, exactly: the Hessian the closed form inverts
        f2 = 1 / Fraction(phi) - 1 / Fraction(sum(x))
        want = exact_inverse_hessian(x, f2)
        largest = max(abs(w) for row in want for w in row)
        assert _worst_error(inverse_hessian(x, phi), want) <= 1e-14 * largest


# --- scalar curvature ---------------------------------------------------

# S for F'' = (3/10) e^t at n=2, evaluated symbolically (sympy) and frozen.
GENERIC_S = {
    0.5: 2.8143704781311509,
    0.75: 2.9252778722369017,
    1.2: 2.430624513774216,
}


def _generic_profile():
    d = lambda t: 0.3 * math.exp(t)
    return F_profile(2, 0.0, 10.0, d, d, d)


@pytest.mark.parametrize("t", sorted(GENERIC_S))
def test_generic_profile_analytic_matches_symbolic(t):
    [got] = radial_scalar_curvature(2, [t], _generic_profile().jet([t]))
    assert got == pytest.approx(GENERIC_S[t], rel=1e-13)


@pytest.mark.parametrize("t", sorted(GENERIC_S))
def test_generic_profile_fd_matches_symbolic(t):
    reference = fd_curvature_reference(_generic_profile(), t)
    assert reference == pytest.approx(GENERIC_S[t], rel=1e-7)
    [got] = radial_scalar_curvature(2, [t], _generic_profile().jet([t]))
    assert got == pytest.approx(reference, rel=1e-7)


def test_profile_needs_all_three_derivatives():
    # a profile is its jet (phi, phi', phi''), one function of a list of t
    with pytest.raises(TypeError):
        TPotential(n=2, t_min=0.0, t_max=1.0)
    phi = lambda ts: [t * (1.0 - t) for t in ts]
    with pytest.raises(TypeError):
        TPotential(2, 0.0, 1.0, phi, phi)


def test_constant_second_derivative_curvature():
    # F'' = 1 at n=1 gives S = 2/(1+t)^3 exactly
    T = F_profile(1, 0.0, 10.0, lambda t: 1.0, lambda t: 0.0, lambda t: 0.0)
    ts = [0.3, 1.0, 2.5]
    S = radial_scalar_curvature(1, ts, T.jet(ts))
    for t, got in zip(ts, S):
        want = 2.0 / (1.0 + t) ** 3
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(fd_curvature_reference(T, t), rel=1e-6, abs=1e-9)
    [at_one] = radial_scalar_curvature(1, [1.0], T.jet([1.0]))
    assert at_one == pytest.approx(0.25, rel=1e-12)
    # any iterable of t, read once
    assert radial_scalar_curvature(1, iter(ts), T.jet(ts)) == S


def test_curvature_columns_must_have_one_length():
    # a short column would drop points without a word
    T = cpn_profile(2)
    with pytest.raises(ValueError):
        radial_scalar_curvature(2, [0.25, 0.5], T.jet([0.25]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fubini_study_curvature_is_constant(n):
    T = cpn_profile(n)
    want = n * (n + 1)
    ts = grid(0.02, 0.98, 50)
    for t, got in zip(ts, radial_scalar_curvature(n, ts, T.jet(ts))):
        assert abs(got - want) <= 1e-9 * want
        assert abs(got - fd_curvature_reference(T, t)) <= 1e-6 * want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_curvature_vanishes(n):
    T = flat_profile(n)
    ts = grid(0.1, 5.0, 20)
    for t, got in zip(ts, radial_scalar_curvature(n, ts, T.jet(ts))):
        assert abs(got) <= 1e-12
        assert abs(got - fd_curvature_reference(T, t)) <= 1e-8


def test_curvature_refuses_a_degenerate_metric():
    # phi = 1 - t: zero at t = 1 and negative past it; phi = 1e20*t: t/phi =
    # 1 + t*F'' is below DEGENERACY_TOL.  A named error naming the t, never
    # a ZeroDivisionError
    falling = profile(2, 0.0, 4.0, lambda t: (1.0 - t, -1.0, 0.0))
    steep = profile(2, 0.0, 4.0, lambda t: (1e20 * t, 1e20, 0.0))
    for T, ts in [(falling, [0.5, 1.0]), (falling, [0.5, 2.0]), (steep, [2.0])]:
        with pytest.raises(DegenerateMetric, match=f"at t = {ts[-1]}$"):
            radial_scalar_curvature(2, ts, T.jet(ts))
    with pytest.raises(DegenerateMetric, match=r"phi = 0\.000e\+00, at t = 1\.0$"):
        radial_scalar_curvature(2, [1.0], falling.jet([1.0]))
    # Hwang-Singer at n = 2: S = 2/t - 2*phi'/t - phi'' = 4/t
    assert radial_scalar_curvature(2, [0.5], falling.jet([0.5])) == [
        pytest.approx(8.0, rel=1e-15)]


def test_curvature_rejects_exterior_t():
    # the extremal jet refuses a t outside (a, b), naming it, before the
    # formula reads anything; the formula itself keeps no interval
    T, _ = build_extremal_metric(2, 0.5, 1.0)
    for ts in ([1.5], [0.25], [0.75, 1.0]):
        message = rf"^t = {ts[-1]} outside \(0\.5, 1\.0\)$"
        with pytest.raises(DomainViolation, match=message):
            radial_scalar_curvature(2, ts, T.jet(ts))


# --- the extremal metric against Hwang-Singer's formula -----------------------

_EXTREMAL_GEOMETRIES = [
    (1, 0.5, 1.0), (2, 0.5, 1.0), (8, 0.25, 1.0), (16, 0.001, 1.0),
    (5, 0.125, 2.0), (4, 0.3e-3, 1e-3), (4, 0.3e3, 1e3),
    (2, 0.9999, 1.0), (2, 0.999999, 1.0), (16, 0.999999, 1.0), (8, 1 - 1e-9, 1.0),
]


@pytest.mark.parametrize("n, a, b", _EXTREMAL_GEOMETRIES)
def test_hwang_singer_on_the_exact_jet_is_the_affine_curvature(n, a, b):
    # the reference itself: t^(n-1)*phi = (p*t^n - alpha)/p, so Hwang-Singer's
    # formula gives S = A*t + B exactly on the exact momentum profile
    _, E = build_extremal_metric(n, a, b)
    A, B, _, _ = as_fractions(exact_mod._exact_solution(n, a, b))
    for tau in (0.05, 0.5, 0.95):
        t = Fraction(a + tau * (b - a))
        assert hwang_singer_curvature(n, t, *exact_phi_jet(E, t)) == A * t + B


@pytest.mark.parametrize("n, a, b", _EXTREMAL_GEOMETRIES)
def test_radial_curvature_is_the_affine_curvature(n, a, b):
    """The radial route against Hwang-Singer's S = A*t + B, exact at the float
    t, over tau in [0.05, 0.95]: within 1e-13 relative, thin shells too."""
    T, E = build_extremal_metric(n, a, b)
    A, B, _, _ = as_fractions(exact_mod._exact_solution(n, a, b))
    ts = [a + tau * (b - a) for tau in grid(0.05, 0.95, 37)]
    for t, got in zip(ts, radial_scalar_curvature(n, ts, T.jet(ts))):
        want = A * Fraction(t) + B
        assert abs(Fraction(got) - want) <= 1e-13 * abs(want)
