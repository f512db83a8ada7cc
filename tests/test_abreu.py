import math
import random
from fractions import Fraction

import pytest

from toricext.abreu import _curvature_at, abreu_scalar_curvature
from toricext.calabi import build_extremal_metric
from toricext.errors import (
    DegenerateMetric,
    DomainViolation,
    InvalidParameters,
    NonInteriorPoint,
    StencilExitsDomain,
)
from toricext.polytope import interior_distance, sample_interior
from toricext.numdiff import STEP_SECOND
from toricext.radial import TPotential
from util import (
    F_profile,
    cpn_profile,
    flat_profile,
    pair_loop_curvature,
    profile,
)


def test_flat_curvature_default_step():
    S = flat_profile(2, 0.5, 1.0)
    for x in ([0.3, 0.4], [0.2, 0.5], [0.45, 0.35]):
        [got] = abreu_scalar_curvature(S, [x])
        assert abs(got) <= 1e-7


def test_flat_curvature_coarse_step_is_cleaner():
    # h=1e-3 sits at the flat-profile noise/truncation sweet spot
    S = flat_profile(2, 0.5, 1.0)
    [got] = abreu_scalar_curvature(S, [[0.3, 0.4]], h=1e-3)
    assert abs(got) <= 1e-9


def test_projective_space_curvature():
    S = cpn_profile(2)
    [got] = abreu_scalar_curvature(S, [[0.2, 0.3]])
    assert got == pytest.approx(6.0, abs=1e-5)


def test_extremal_curvature_is_affine_in_t():
    S, E = build_extremal_metric(2, 0.5, 1.0)
    for x in ([0.35, 0.40], [0.2, 0.55], [0.6, 0.15]):
        want = E.A * math.fsum(x) + E.B
        [got] = abreu_scalar_curvature(S, [x])
        assert got == pytest.approx(want, abs=1e-5)


def test_curvature_permutation_invariance():
    S, _ = build_extremal_metric(2, 0.5, 1.0)
    x = [0.25, 0.45]
    [v1] = abreu_scalar_curvature(S, [x])
    [v2] = abreu_scalar_curvature(S, [x[::-1]])
    assert abs(v1 - v2) <= 1e-8


@pytest.mark.parametrize("n, a, b", [(24, 0.5, 1.0), (32, 0.25, 2.0), (64, 0.5, 1.0)])
def test_curvature_past_verify_dimension_cap(n, a, b):
    # verify stops at n = 16; the stencil itself takes any n.  A margin of
    # 0.05*(b - a) would leave no region past n = 20 (the x-facets need
    # (n + 1)*margin < b), hence b/n
    T, E = build_extremal_metric(n, a, b)
    pts = sample_interior(T, 40, margin=0.05 * min(b - a, b / n), seed=0)
    for x, got in zip(pts, abreu_scalar_curvature(T, pts)):
        want = E.A * math.fsum(x) + E.B
        assert abs(got - want) <= 1e-9 * abs(want)


def test_explicit_step_must_fit():
    S = flat_profile(2, 0.5, 1.0)
    with pytest.raises(StencilExitsDomain):
        abreu_scalar_curvature(S, [[0.3, 0.4]], h=0.3)


def test_default_step_clamped_at_the_facet_fits():
    # the clamp binds here and 3*(d/3) rounds above d = the facet distance
    S = flat_profile(2, 0.5, 1.0)
    x = [math.nextafter(1.1329e-4, 1.0), 0.6]
    d = interior_distance(S, x)
    assert 3.0 * (d / 3.0) > d
    [got] = abreu_scalar_curvature(S, [x])
    assert abs(got) <= 1e-6


# --- batched stencil against the per-point reference -----------------------


def _reference_abreu(T, f_of_t, x, h=None):
    """Abreu's stencil one point at a time on exact inverses of the full
    Hessian G = (diag(1/y) + f*11^T)/2 at each corner y of the stencil, the
    floats x +- h*e_i, with f = f_of_t(t) at t = sum(y) correctly rounded, on
    the polytope of the profile T: the reference the closed-form stencil
    must reproduce.  Each entry is Sherman-Morrison's
    G^{ij} = 2*(y_i*delta_ij - f/(1 + f*t)*y_i*y_j) over ``Fraction`` at the
    float y and f, one entry at a time (``exact_inverse_hessian`` forms all
    n^2), and the differences are taken exactly, so only f is rounded."""
    n = T.n
    dmin = interior_distance(T, x)
    if h is None:
        h = min(STEP_SECOND * max(1.0, max(map(abs, x))), dmin / 3.0, 1e-3)
    exact = [Fraction(v) for v in x]
    t = sum(exact)

    def inv(moves, i, j):
        # G^{ij} at the corner where x_k becomes the float x_k + s*h, for
        # each (k, s) in moves
        y = {k: Fraction(x[k] + s * h) for k, s in moves}
        s_t = t + sum(v - exact[k] for k, v in y.items())
        f = Fraction(f_of_t(float(s_t)))
        yi, yj = y.get(i, exact[i]), y.get(j, exact[j])
        return 2 * ((i == j) * yi - f / (1 + f * s_t) * yi * yj)

    total = Fraction(0)
    for i in range(n):
        total += inv([(i, 1)], i, i) - 2 * inv([], i, i) + inv([(i, -1)], i, i)
    mixed = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            mixed += (
                inv([(i, 1), (j, 1)], i, j)
                - inv([(i, 1), (j, -1)], i, j)
                - inv([(i, -1), (j, 1)], i, j)
                + inv([(i, -1), (j, -1)], i, j)
            )
    # the mixed terms' 1/(4h^2), doubled for (i, j) and (j, i)
    total = (total + mixed / 2) / (Fraction(h) * Fraction(h))
    return float(-total / 2)


def _points_between(n, a, b, m, seed):
    """m points well inside the (n, a, b) blow-up polytope, any dimension."""
    draw = random.Random(seed).uniform
    points = []
    for _ in range(m):
        t = draw(a + 0.1 * (b - a), b - 0.1 * (b - a))
        w = [draw(0.5, 1.0) for _ in range(n)]
        points.append([t * v / math.fsum(w) for v in w])
    return points


def _worst_relative_error(got, want) -> float:
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [*range(1, 9), 12, 16])
def test_batched_stencil_matches_per_point_reference(n):
    a, b = 0.5, 1.0
    radial, _ = build_extremal_metric(n, a, b)
    pts = _points_between(n, a, b, 10, seed=n)
    # the F'' = 1/phi - 1/t of the profile at each stencil point
    f_of_t = lambda t: 1.0 / radial.jet([t])[0][0] - 1.0 / t
    want = [_reference_abreu(radial, f_of_t, x) for x in pts]
    assert _worst_relative_error(abreu_scalar_curvature(radial, pts), want) <= 1e-8

    # Guillemin's potential is the radial one with F'' = 1/(b - t); its
    # polytope is the simplex, and every step is eps^(1/4)*b on both
    guillemin = cpn_profile(n, b)
    want = [_reference_abreu(guillemin, lambda t: 1.0 / (b - t), x) for x in pts]
    assert _worst_relative_error(abreu_scalar_curvature(guillemin, pts), want) <= 1e-8
    # the Fubini-Study metric of the size-b simplex: S = n(n+1)/b
    assert _worst_relative_error(want, [n * (n + 1) / b] * len(want)) <= 1e-5


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
@pytest.mark.parametrize("ratio", [1e-3, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("b", [1e-3, 1.0, 1e3])
def test_closed_pair_sum_matches_the_pair_loop(n, ratio, b):
    # the same stencil summed one pair at a time: the two differ by rounding
    # amplified by 1/h^2, at most 6.1e-10 of S on this grid at 50 points each
    T, _ = build_extremal_metric(n, ratio * b, b)
    for x in sample_interior(T, 20, margin=0.05 * (b - ratio * b), seed=n):
        h = min(STEP_SECOND * T.t_max, interior_distance(T, x) / 3.0)
        ts = [math.fsum(x) + k * h for k in (-2, -1, 0, 1, 2)]
        phi = T.jet(ts)[0]
        want = pair_loop_curvature(x, h, ts, phi)
        assert _curvature_at(x, h, ts, phi) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("n", [2, 8, 16])
def test_thin_shell_curvature_is_affine_in_t(n):
    # a/b = 1 - 1e-7: the stencil's h is clamped to a third of the shell, and
    # S stays within verify's soft tolerance of A*t + B (2.0e-6 measured)
    T, E = build_extremal_metric(n, 1.0 - 1e-7, 1.0)
    pts = sample_interior(T, 100, margin=0.05 * (E.b - E.a), seed=0)
    for x, got in zip(pts, abreu_scalar_curvature(T, pts)):
        want = E.A * math.fsum(x) + E.B
        assert abs(got - want) <= 1e-5 * abs(want)


@pytest.mark.parametrize(
    "bad, h, error",
    [
        ([0.0, 0.6], None, NonInteriorPoint),  # on a coordinate facet
        ([0.002, 0.6], 1e-3, StencilExitsDomain),  # stencil reaches past x_0 = 0
        ([0.27, 0.28], None, DomainViolation),  # t = 0.55 below the profile's a
    ],
)
def test_bad_point_in_a_batch_raises_like_the_scalar_call(bad, h, error):
    # the profile's functions live on (0.6, 1), its polytope is (0.5, 1)
    T, _ = build_extremal_metric(2, 0.6, 1.0)
    S = TPotential(2, 0.5, 1.0, T.jet)
    good = [[0.35, 0.4], [0.3, 0.5], [0.45, 0.35]]
    with pytest.raises(error):
        abreu_scalar_curvature(S, [bad], h=h)
    batch = [good[0], bad, *good[1:]]
    with pytest.raises(error):
        abreu_scalar_curvature(S, batch, h=h)
    abreu_scalar_curvature(S, good, h=h)  # the rest of the batch is fine


def test_point_shape_is_checked():
    # a bare point, of the right length or not, is not a sequence of points
    S = flat_profile(2, 0.5, 1.0)
    for points in [[0.3] * 2, [0.3] * 3, [[0.3] * 3] * 4, [[[0.3] * 2] * 2] * 2]:
        with pytest.raises(InvalidParameters):
            abreu_scalar_curvature(S, points)
    with pytest.raises(InvalidParameters):
        abreu_scalar_curvature(S, [0.3, 0.4])
    with pytest.raises(InvalidParameters):
        abreu_scalar_curvature(flat_profile(1, 0.5, 1.0), [0.7])
    # any real coordinate is taken as its float, a float subclass's too, and
    # anything else is refused, in any row of a batch of float rows
    class Real(float):
        pass

    [want] = abreu_scalar_curvature(S, [[0.25, 0.375]])
    for x in ([Fraction(1, 4), 0.375], [0.25, Real(0.375)], [Fraction(1, 4), Fraction(3, 8)]):
        assert abreu_scalar_curvature(S, [[0.3, 0.4], x]) == [
            abreu_scalar_curvature(S, [[0.3, 0.4]])[0], want]
    for bad in ("0.3", None):
        with pytest.raises(InvalidParameters, match="^points must be a sequence"):
            abreu_scalar_curvature(S, [[0.3, 0.4], [bad, 0.4]])


def test_degenerate_metric_in_a_batch_names_its_t():
    # F'' = -1/0.8: 1 + t*F'' vanishes at t = 0.8, where the Hessian is
    # singular, and is negative past it: phi = t/(1 - 1.25t) < 0 there
    f2 = lambda t: -1.25
    zero = lambda t: 0.0
    S = F_profile(2, 0.5, 1.0, f2, zero, zero)
    x = [0.45, 0.45]  # t = 0.9, every stencil t past 0.8
    with pytest.raises(DegenerateMetric, match=r"at t = 0\.8\d*$") as alone:
        abreu_scalar_curvature(S, [x])
    with pytest.raises(DegenerateMetric) as batched:
        abreu_scalar_curvature(S, [[0.3, 0.3], x])
    assert str(batched.value) == str(alone.value)
    abreu_scalar_curvature(S, [[0.3, 0.3]])  # t = 0.6 is fine
    # phi = 0, and phi so large that t/phi = 1 + t*F'' is below
    # DEGENERACY_TOL: each a named error naming the stencil's first t,
    # t - 2h, never a ZeroDivisionError
    vanishing = profile(2, 0.5, 1.0, lambda t: (0.0, 0.0, 0.0))
    steep = profile(2, 0.5, 1.0, lambda t: (1e20 * t, 1e20, 0.0))
    for T in (vanishing, steep):
        with pytest.raises(DegenerateMetric, match=r"at t = 0\.59\d*$"):
            abreu_scalar_curvature(T, [[0.3, 0.3]])
