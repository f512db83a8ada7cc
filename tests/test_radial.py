import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricext.calabi import build_extremal_metric
from toricext.errors import DegenerateMetric, DomainViolation
from toricext.polytope import sample_interior
from toricext.radial import TPotential, radial_scalar_curvature
from util import (
    cpn_profile,
    fd_curvature_reference,
    flat_profile,
    inverse_hessian,
    profile,
    radial_hessian,
)

interior_x = st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=5)

# the Hessian of the radial potential is G_ij = (delta_ij/x_i + F'')/2; its
# closed-form inverse is 2*(diag(x) - w*x x^T), w = F''/(1 + t*F''), here
# assembled from radial's closed-form entries


def test_hessian_flat_unit_point():
    np.testing.assert_allclose(
        inverse_hessian([1.0, 1.0], 0.0), 2.0 * np.eye(2), atol=1e-15
    )


def test_hessian_with_radial_part():
    # G = [[1, 1/2], [1/2, 1]]
    G_inv = inverse_hessian([1.0, 1.0], 1.0)
    np.testing.assert_allclose(G_inv, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], rtol=1e-15)


def test_hessian_anisotropic_point():
    # G = diag(1/4, 1/2)
    np.testing.assert_allclose(
        inverse_hessian([2.0, 1.0], 0.0), np.diag([4.0, 2.0]), atol=1e-15
    )


@given(interior_x, st.floats(min_value=-3.0, max_value=5.0))
def test_positive_definite_iff_conformal_factor_positive(x, f2):
    # the closed form answers exactly where the Hessian is positive definite
    t = sum(x)
    gate = 1.0 + t * f2
    if abs(gate) < 1e-6:
        return
    eigs = np.linalg.eigvalsh(radial_hessian(x, f2))
    if gate > 0:
        assert np.all(eigs > 0)
        assert np.all(np.linalg.eigvalsh(inverse_hessian(x, f2)) > 0)
    else:
        assert np.min(eigs) < 0
        with pytest.raises(DegenerateMetric, match="1 \\+ t\\*F''"):
            inverse_hessian(x, f2)


def _refined_inverse(x, f2) -> np.ndarray:
    """LAPACK's inverse X of the radial Hessian H = (diag(1/x) + F'' 1 1^T)/2,
    plus one refinement step X R with the residual R = I - H X exact in
    rationals.  X alone is off the true inverse by up to ~cond(H)*eps
    relative, which reaches 1e-12 in thin shells (cond(H) ~ 5e4); after the
    step that error is squared, so X + X R is the inverse to rounding."""
    X = np.linalg.inv(radial_hessian(x, f2))
    inv_x = [1 / Fraction(v) for v in x]
    col_sums = [sum(map(Fraction, column)) for column in X.T.tolist()]
    R = [
        [
            (i == j) - (Fraction(X[i, j]) * inv_x[i] + Fraction(f2) * col_sums[j]) / 2
            for j in range(len(x))
        ]
        for i in range(len(x))
    ]
    return X + X @ np.array(R, dtype=float)


@given(
    n=st.integers(min_value=1, max_value=16),
    b=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    ratio=st.one_of(
        st.sampled_from([1e-3, 0.999]), st.floats(min_value=1e-3, max_value=0.999)
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=100)
def test_closed_form_inverse_equals_linalg_inverse(n, b, ratio, seed):
    """At points of the polytope, with the extremal F'' there, the closed
    form is LAPACK's inverse of the radial Hessian, refined once against the
    exact Hessian, relative to its largest entry."""
    a = ratio * b
    P, T, _ = build_extremal_metric(n, a, b)
    for x in sample_interior(P, 5, margin=0.05 * (b - a), seed=seed):
        [f2] = T.d2F([sum(x)])
        want = _refined_inverse(x, f2)
        got = np.array(inverse_hessian(x, f2))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --- scalar curvature ---------------------------------------------------

# S for F'' = (3/10) e^t at n=2, evaluated symbolically (sympy) and frozen.
GENERIC_S = {
    0.5: 2.8143704781311509,
    0.75: 2.9252778722369017,
    1.2: 2.430624513774216,
}


def _generic_profile():
    d = lambda t: 0.3 * math.exp(t)
    return profile(2, 0.0, 10.0, d, d, d)


@pytest.mark.parametrize("t", sorted(GENERIC_S))
def test_generic_profile_analytic_matches_symbolic(t):
    [got] = radial_scalar_curvature(_generic_profile(), [t])
    assert got == pytest.approx(GENERIC_S[t], rel=1e-13)


@pytest.mark.parametrize("t", sorted(GENERIC_S))
def test_generic_profile_fd_matches_symbolic(t):
    reference = fd_curvature_reference(_generic_profile(), t)
    assert reference == pytest.approx(GENERIC_S[t], rel=1e-7)
    [got] = radial_scalar_curvature(_generic_profile(), [t])
    assert got == pytest.approx(reference, rel=1e-7)


def test_profile_needs_all_three_derivatives():
    # F'' alone is not a profile: its jet (F'', F''', F'''') is required
    with pytest.raises(TypeError):
        TPotential(n=2, t_min=0.0, t_max=1.0, d2F=lambda ts: [1.0 / (1.0 - t) for t in ts])


def test_constant_second_derivative_curvature():
    # F'' = 1 at n=1 gives S = 2/(1+t)^3 exactly
    T = profile(1, 0.0, 10.0, lambda t: 1.0, lambda t: 0.0, lambda t: 0.0)
    ts = [0.3, 1.0, 2.5]
    for t, got in zip(ts, radial_scalar_curvature(T, ts)):
        want = 2.0 / (1.0 + t) ** 3
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(fd_curvature_reference(T, t), rel=1e-6, abs=1e-9)
    assert radial_scalar_curvature(T, [1.0]) == [pytest.approx(0.25, rel=1e-12)]
    # any iterable of t, read once
    assert radial_scalar_curvature(T, iter(ts)) == radial_scalar_curvature(T, ts)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fubini_study_curvature_is_constant(n):
    T = cpn_profile(n)
    want = n * (n + 1)
    ts = np.linspace(0.02, 0.98, 50).tolist()
    for t, got in zip(ts, radial_scalar_curvature(T, ts)):
        assert abs(got - want) <= 1e-9 * want
        assert abs(got - fd_curvature_reference(T, t)) <= 1e-6 * want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_curvature_vanishes(n):
    T = flat_profile(n)
    ts = np.linspace(0.1, 5.0, 20).tolist()
    for t, got in zip(ts, radial_scalar_curvature(T, ts)):
        assert abs(got) <= 1e-12
        assert abs(got - fd_curvature_reference(T, t)) <= 1e-8


def test_curvature_refuses_a_degenerate_metric():
    # F'' = -1/2 makes 1 + t F'' = 0 at t = 2
    half = lambda t: -0.5
    zero = lambda t: 0.0
    T = profile(2, 0.0, 4.0, half, zero, zero)
    with pytest.raises(DegenerateMetric):
        radial_scalar_curvature(T, [2.0])


def test_curvature_rejects_exterior_t():
    T = cpn_profile(2)
    with pytest.raises(DomainViolation):
        radial_scalar_curvature(T, [1.5])
    with pytest.raises(DomainViolation):
        radial_scalar_curvature(T, [-0.1])
    with pytest.raises(DomainViolation, match=r"^t = 1\.0 outside \(0\.0, 1\.0\)$"):
        radial_scalar_curvature(T, [0.5, 1.0])  # before F'' = 1/(1 - t) divides by 0
