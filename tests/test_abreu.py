import numpy as np
import pytest

from toricext import (
    BlowupPolytope,
    DegeneratePointSet,
    DomainViolation,
    InvalidParameters,
    NonInteriorPoint,
    SingularHessian,
    StencilExitsDomain,
    SymplecticPotential,
    TPotential,
    abreu_scalar_curvature,
    build_blowup_polytope,
    build_extremal_metric,
    extremal_F_second,
    extremality_residual,
    interior_distance,
    sample_interior,
)
from toricext.numdiff import STEP_SECOND
from util import cpn_profile, flat_profile, simplex_polytope


def test_flat_curvature_default_step():
    P = build_blowup_polytope(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(P, flat_profile(2))
    for x in ([0.3, 0.4], [0.2, 0.5], [0.45, 0.35]):
        assert abs(abreu_scalar_curvature(S, np.array(x))) <= 1e-7


def test_flat_curvature_coarse_step_is_cleaner():
    # h=1e-3 sits at the flat-profile noise/truncation sweet spot
    P = build_blowup_polytope(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(P, flat_profile(2))
    assert abs(abreu_scalar_curvature(S, np.array([0.3, 0.4]), h=1e-3)) <= 1e-9


def test_projective_space_curvature():
    S = SymplecticPotential.from_radial(simplex_polytope(2), cpn_profile(2))
    got = abreu_scalar_curvature(S, np.array([0.2, 0.3]))
    assert got == pytest.approx(6.0, abs=1e-5)


def test_extremal_curvature_is_affine_in_t():
    _, T, E = build_extremal_metric(2, 0.5, 1.0)
    P = build_blowup_polytope(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(P, T)
    for x in ([0.35, 0.40], [0.2, 0.55], [0.6, 0.15]):
        x = np.array(x)
        want = E.A * float(np.sum(x)) + E.B
        assert abreu_scalar_curvature(S, x) == pytest.approx(want, abs=1e-5)


def test_curvature_permutation_invariance():
    _, T, _ = build_extremal_metric(2, 0.5, 1.0)
    P = build_blowup_polytope(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(P, T)
    x = np.array([0.25, 0.45])
    v1 = abreu_scalar_curvature(S, x)
    v2 = abreu_scalar_curvature(S, x[::-1].copy())
    assert abs(v1 - v2) <= 1e-8


def test_dimension_cap():
    P = BlowupPolytope(17, 0.5, 1.0)
    S = SymplecticPotential(P, lambda x: np.eye(17))
    with pytest.raises(InvalidParameters):
        abreu_scalar_curvature(S, np.full(17, 0.5))


def test_explicit_step_must_fit():
    P = build_blowup_polytope(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(P, flat_profile(2))
    with pytest.raises(StencilExitsDomain):
        abreu_scalar_curvature(S, np.array([0.3, 0.4]), h=0.3)


def test_default_step_clamped_at_the_facet_fits():
    # the clamp binds here and 3*(d/3) rounds above d = the facet distance
    P = build_blowup_polytope(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(P, flat_profile(2))
    x = np.array([np.nextafter(1.1329e-4, 1.0), 0.6])
    d = interior_distance(P, x[None])[0]
    assert 3.0 * (d / 3.0) > d
    assert abs(abreu_scalar_curvature(S, x)) <= 1e-6


def test_extremality_residual_on_extremal_metric():
    Pm, T, E = build_extremal_metric(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(Pm, T)
    pts = sample_interior(Pm, 30, margin=0.025, seed=11)
    fit = extremality_residual(S, pts)
    # S(x) = A t + B means gradient (A, A) and constant B
    assert fit.gradient[0] == pytest.approx(E.A, abs=1e-4)
    assert fit.gradient[1] == pytest.approx(E.A, abs=1e-4)
    assert fit.constant == pytest.approx(E.B, abs=1e-4)
    assert fit.max_residual <= 1e-5
    # one read-only curvature per point, in the order of the points
    np.testing.assert_array_equal(fit.S, abreu_scalar_curvature(S, pts))
    assert not fit.S.flags.writeable


def test_extremality_residual_detects_non_extremal_metric():
    Pm, T, E = build_extremal_metric(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(Pm, T)
    pts = sample_interior(Pm, 30, margin=0.025, seed=11)
    base = extremality_residual(S, pts).max_residual

    bumped = TPotential(
        n=2, t_min=0.5, t_max=1.0,
        d2F=lambda t: extremal_F_second(E, t) + 0.1 * np.sin(10.0 * t),
        d3F=lambda t: T.d3F(t) + np.cos(10.0 * t),
        d4F=lambda t: T.d4F(t) - 10.0 * np.sin(10.0 * t),
    )
    S_bad = SymplecticPotential.from_radial(Pm, bumped)
    assert extremality_residual(S_bad, pts).max_residual > 10.0 * max(base, 1e-6)


def test_extremality_residual_needs_enough_points():
    Pm, T, _ = build_extremal_metric(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(Pm, T)
    with pytest.raises(DegeneratePointSet):
        extremality_residual(S, np.array([[0.3, 0.4], [0.35, 0.45]]))


def test_extremality_residual_rejects_collinear_points():
    Pm, T, _ = build_extremal_metric(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(Pm, T)
    # all on the segment x1 = x0 + 0.05: affine fit is rank deficient
    pts = np.array([[0.3, 0.35], [0.33, 0.38], [0.36, 0.41], [0.39, 0.44]])
    with pytest.raises(DegeneratePointSet):
        extremality_residual(S, pts)


# --- batched stencil against the per-point reference -----------------------


def _reference_abreu(P, x, h=None):
    """Abreu's stencil one point at a time, as the package evaluated it
    before the stencil was batched: the reference the batched form must
    reproduce."""
    x = np.asarray(x, dtype=float)
    n = P.polytope.n
    dmin = interior_distance(P.polytope, x)
    if h is None:
        h = min(STEP_SECOND * max(1.0, float(np.max(np.abs(x)))), dmin / 3.0, 1e-3)

    def inv(y):
        return np.linalg.inv(P.hessian_oracle(y[None, :])[0])

    center = inv(x)
    total = 0.0
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        total += (inv(x + ei)[i, i] - 2.0 * center[i, i] + inv(x - ei)[i, i]) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            mixed = (
                inv(x + ei + ej)[i, j]
                - inv(x + ei - ej)[i, j]
                - inv(x - ei + ej)[i, j]
                + inv(x - ei - ej)[i, j]
            ) / (4.0 * h * h)
            total += 2.0 * mixed
    return -0.5 * total


def _points_between(n, a, b, m, seed):
    """m points well inside the (n, a, b) blow-up polytope, any dimension."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a), m)
    w = rng.uniform(0.5, 1.0, (m, n))
    return t[:, None] * w / np.sum(w, axis=1, keepdims=True)


def _guillemin_hessian(b):
    """Hessian oracle of Guillemin's potential on the size-b simplex,
    G = (diag(1/x) + 11^T/(b - t))/2, written out in full."""

    def oracle(x):
        n = x.shape[-1]
        rest = b - np.sum(x, axis=-1)
        return 0.5 * (np.eye(n) / x[:, None, :] + 1.0 / rest[:, None, None])

    return oracle


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_stencil_matches_per_point_reference(n):
    a, b = 0.5, 1.0
    P, T, _ = build_extremal_metric(n, a, b)
    radial = SymplecticPotential.from_radial(P, T)
    pts = _points_between(n, a, b, 10, seed=n)
    want = [_reference_abreu(radial, x) for x in pts]
    np.testing.assert_allclose(abreu_scalar_curvature(radial, pts), want, rtol=1e-8)

    guillemin = SymplecticPotential(P, _guillemin_hessian(b))
    want = [_reference_abreu(guillemin, x) for x in pts]
    np.testing.assert_allclose(abreu_scalar_curvature(guillemin, pts), want, rtol=1e-8)
    # the Fubini-Study metric of the size-b simplex: S = n(n+1)/b
    np.testing.assert_allclose(want, n * (n + 1) / b, rtol=1e-5)


def test_single_point_answers_with_a_float():
    P, T, _ = build_extremal_metric(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(P, T)
    x = np.array([0.35, 0.4])
    one = abreu_scalar_curvature(S, x)
    assert isinstance(one, float)
    stacked = abreu_scalar_curvature(S, x[None, :])
    assert stacked.shape == (1,) and stacked[0] == one


@pytest.mark.parametrize(
    "bad, h, error",
    [
        ([0.0, 0.6], None, NonInteriorPoint),  # on a coordinate facet
        ([0.002, 0.6], 1e-3, StencilExitsDomain),  # stencil reaches past x_0 = 0
        ([0.27, 0.28], None, DomainViolation),  # t = 0.55 below the profile's a
    ],
)
def test_bad_point_in_a_batch_raises_like_the_scalar_call(bad, h, error):
    # the profile lives on (0.6, 1), the polytope on (0.5, 1)
    _, T, _ = build_extremal_metric(2, 0.6, 1.0)
    S = SymplecticPotential.from_radial(build_blowup_polytope(2, 0.5, 1.0), T)
    good = np.array([[0.35, 0.4], [0.3, 0.5], [0.45, 0.35]])
    with pytest.raises(error):
        abreu_scalar_curvature(S, np.array(bad), h=h)
    batch = np.insert(good, 1, bad, axis=0)
    with pytest.raises(error):
        abreu_scalar_curvature(S, batch, h=h)
    abreu_scalar_curvature(S, good, h=h)  # the rest of the batch is fine


def test_point_shape_is_checked():
    P = build_blowup_polytope(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(P, flat_profile(2))
    for shape in [(3,), (4, 3), (2, 2, 2)]:
        with pytest.raises(InvalidParameters):
            abreu_scalar_curvature(S, np.full(shape, 0.3))


def test_singular_hessian_in_a_batch_names_its_point():
    P = build_blowup_polytope(2, 0.5, 1.0)

    def oracle(x):
        H = np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy()
        H[np.isclose(x[:, 0], 0.3)] = 0.0  # singular on the line x_0 = 0.3
        return H

    S = SymplecticPotential(P, oracle)
    with pytest.raises(SingularHessian, match=r"0\.3"):
        abreu_scalar_curvature(S, np.array([0.3, 0.4]))
    with pytest.raises(SingularHessian, match=r"0\.3"):
        abreu_scalar_curvature(S, np.array([[0.4, 0.4], [0.3, 0.4]]))
