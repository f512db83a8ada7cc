import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from toricext import (
    DegenerateMetric,
    DomainViolation,
    NonInteriorPoint,
    TPotential,
    radial_hessian,
    radial_scalar_curvature,
)
from util import cpn_profile, fd_curvature_reference, flat_profile

interior_x = st.lists(
    st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=5
).map(np.array)


def test_hessian_flat_unit_point():
    np.testing.assert_allclose(
        radial_hessian(np.array([1.0, 1.0]), 0.0), 0.5 * np.eye(2), atol=1e-15
    )


def test_hessian_with_radial_part():
    G = radial_hessian(np.array([1.0, 1.0]), 1.0)
    np.testing.assert_allclose(G, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)


def test_hessian_anisotropic_point():
    G = radial_hessian(np.array([2.0, 1.0]), 0.0)
    np.testing.assert_allclose(G, np.diag([0.25, 0.5]), atol=1e-15)


@given(interior_x, st.floats(min_value=-3.0, max_value=5.0))
def test_positive_definite_iff_conformal_factor_positive(x, f2):
    t = float(np.sum(x))
    gate = 1.0 + t * f2
    if abs(gate) < 1e-6:
        return
    eigs = np.linalg.eigvalsh(radial_hessian(x, f2))
    if gate > 0:
        assert np.all(eigs > 0)
    else:
        assert np.min(eigs) < 0


def test_hessian_rejects_boundary_point():
    with pytest.raises(NonInteriorPoint):
        radial_hessian(np.array([0.0, 1.0]), 0.0)


# --- scalar curvature ---------------------------------------------------

# S for F'' = (3/10) e^t at n=2, evaluated symbolically (sympy) and frozen.
GENERIC_S = {
    0.5: 2.8143704781311509,
    0.75: 2.9252778722369017,
    1.2: 2.430624513774216,
}


def _generic_profile():
    d = lambda t: 0.3 * np.exp(t)
    return TPotential(n=2, t_min=0.0, t_max=10.0, d2F=d, d3F=d, d4F=d)


@pytest.mark.parametrize("t", sorted(GENERIC_S))
def test_generic_profile_analytic_matches_symbolic(t):
    got = radial_scalar_curvature(_generic_profile(), t)
    assert got == pytest.approx(GENERIC_S[t], rel=1e-13)


@pytest.mark.parametrize("t", sorted(GENERIC_S))
def test_generic_profile_fd_matches_symbolic(t):
    reference = fd_curvature_reference(_generic_profile(), t)
    assert reference == pytest.approx(GENERIC_S[t], rel=1e-7)
    got = radial_scalar_curvature(_generic_profile(), t)
    assert got == pytest.approx(reference, rel=1e-7)


def test_profile_needs_all_three_derivatives():
    with pytest.raises(TypeError):
        TPotential(n=2, t_min=0.0, t_max=1.0, d2F=lambda t: 1.0 / (1.0 - t))


def test_constant_second_derivative_curvature():
    # F'' = 1 at n=1 gives S = 2/(1+t)^3 exactly
    T = TPotential(
        n=1, t_min=0.0, t_max=10.0,
        d2F=lambda t: 1.0, d3F=lambda t: 0.0, d4F=lambda t: 0.0,
    )
    for t in [0.3, 1.0, 2.5]:
        want = 2.0 / (1.0 + t) ** 3
        got = radial_scalar_curvature(T, t)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(fd_curvature_reference(T, t), rel=1e-6, abs=1e-9)
    assert radial_scalar_curvature(T, 1.0) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fubini_study_curvature_is_constant(n):
    T = cpn_profile(n)
    want = n * (n + 1)
    for t in np.linspace(0.02, 0.98, 50):
        got = radial_scalar_curvature(T, float(t))
        assert abs(got - want) <= 1e-9 * want
        assert abs(got - fd_curvature_reference(T, float(t))) <= 1e-6 * want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_curvature_vanishes(n):
    T = flat_profile(n)
    for t in np.linspace(0.1, 5.0, 20):
        got = radial_scalar_curvature(T, float(t))
        assert abs(got) <= 1e-12
        assert abs(got - fd_curvature_reference(T, float(t))) <= 1e-8


def test_curvature_refuses_a_degenerate_metric():
    # F'' = -1/2 makes 1 + t F'' = 0 at t = 2
    half = lambda t: -0.5
    zero = lambda t: 0.0
    T = TPotential(n=2, t_min=0.0, t_max=4.0, d2F=half, d3F=zero, d4F=zero)
    with pytest.raises(DegenerateMetric):
        radial_scalar_curvature(T, 2.0)


def test_curvature_rejects_exterior_t():
    T = cpn_profile(2)
    with pytest.raises(DomainViolation):
        radial_scalar_curvature(T, 1.5)
    with pytest.raises(DomainViolation):
        radial_scalar_curvature(T, -0.1)
    with pytest.raises(DomainViolation):
        radial_scalar_curvature(T, np.array([0.2, 1.5, 0.7]))



def test_curvature_of_an_array_is_elementwise():
    T = _generic_profile()
    ts = np.array(sorted(GENERIC_S))
    got = radial_scalar_curvature(T, ts)
    want = [radial_scalar_curvature(T, float(t)) for t in ts]
    assert np.array_equal(got, want)


def test_stacked_hessians_match_single_ones():
    x = np.array([[0.3, 0.4], [1.0, 1.0], [2.0, 0.5]])
    f2 = np.array([0.5, 1.0, -0.1])
    G = radial_hessian(x, f2)
    assert G.shape == (3, 2, 2)
    for k in range(3):
        assert np.array_equal(G[k], radial_hessian(x[k], f2[k]))
    with pytest.raises(NonInteriorPoint):
        radial_hessian(np.array([[0.3, 0.4], [0.0, 1.0]]), np.zeros(2))
