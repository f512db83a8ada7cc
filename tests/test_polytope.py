import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricext.calabi import build_extremal_metric
from toricext.errors import EmptyRegion, InvalidParameters
from toricext.polytope import interior_distance, sample_interior
from toricext.radial import TPotential
from util import flat_profile

# (n, a, b) triples used across the parameterized tests
CONFIGS = [
    (1, 0.25, 0.75),
    (2, 0.5, 1.0),
    (3, 0.25, 2.0),
    (7, 0.5, 1.0),
    (12, 1e-3, 1.0),
    (16, 0.999, 1.0),
]

params = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=0.1, max_value=2.0),
).map(lambda t: (t[0], t[1], t[1] + t[2]))


def _no_jet(ts):
    raise AssertionError("the polytope reads no profile values")


def test_facet_count_and_normals():
    # each of the n + 2 facets is the nearest one at some point, and there
    # interior_distance is that facet's affine function: 0.05 at the point,
    # and a step d*e_j moves it by d times the facet's normal entry j
    T = TPotential(2, 0.5, 1.0, _no_jet)
    nearest = {
        (1, 0): [0.05, 0.6],
        (0, 1): [0.6, 0.05],
        (1, 1): [0.27, 0.28],  # t - a
        (-1, -1): [0.45, 0.5],  # b - t
    }
    d = 2.0**-10
    for normal, x in nearest.items():
        base = interior_distance(T, x)
        assert base == pytest.approx(0.05, abs=1e-15)
        for j, entry in enumerate(normal):
            moved = [v + d * (k == j) for k, v in enumerate(x)]
            assert interior_distance(T, moved) - base == pytest.approx(d * entry, abs=1e-15)


def test_facet_values_square_point():
    # facet values (0.3, 0.4, 0.2, 0.3): t - a is the nearest
    T = TPotential(2, 0.5, 1.0, _no_jet)
    assert interior_distance(T, [0.3, 0.4]) == pytest.approx(0.2, abs=1e-15)


def test_facet_values_orthant_vertex_is_outside():
    # facet values (0, 0, -0.5, 1): below the truncating facet t = a
    T = TPotential(2, 0.5, 1.0, _no_jet)
    assert interior_distance(T, [0.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)


def test_facet_values_interval_midpoint():
    # facet values (0.5, 0.25, 0.25)
    T = TPotential(1, 0.25, 0.75, _no_jet)
    assert interior_distance(T, [0.5]) == pytest.approx(0.25, abs=1e-15)


def test_facet_values_sum_is_correctly_rounded():
    # t = 1 + 2^-53 + 2^-53 is exactly 1 + 2^-52 = t_max, so the point lies
    # on the facet t = t_max; a left-to-right float sum gives t = 1 and the
    # distance 2^-53, and Python 3.12's compensated sum() gives the exact t,
    # so the distance (and every verify report) would depend on the
    # interpreter's version
    T = TPotential(3, 0.5, 1.0 + 2.0**-52, _no_jet)
    assert interior_distance(T, [1.0, 2.0**-53, 2.0**-53]) == 0.0


@pytest.mark.parametrize(
    "n,a,b",
    [(2, 1.0, 0.5), (2, 0.0, 1.0), (2, -0.5, 1.0), (0, 0.5, 1.0), (2, 0.5, 0.5)],
)
def test_invalid_parameters(n, a, b):
    # the blow-up polytope of (n, a, b) is the extremal metric's TPotential,
    # whose geometry the coefficient solve checks first
    with pytest.raises(InvalidParameters):
        build_extremal_metric(n, a, b)


def test_non_finite_parameters_rejected():
    # the TPotential is the polytope: a non-finite end is refused by the
    # record itself, as no profile of (n, a, b) is built for one
    for t_min, t_max in [(0.5, math.nan), (0.5, math.inf), (math.nan, 1.0)]:
        with pytest.raises(InvalidParameters, match="t_max < inf"):
            TPotential(2, t_min, t_max, _no_jet)


def test_dimension_mismatch():
    T = TPotential(2, 0.5, 1.0, _no_jet)
    with pytest.raises(InvalidParameters, match="^point has 3 coordinates, expected 2$"):
        interior_distance(T, [0.1, 0.2, 0.3])


@given(params, st.lists(st.floats(-5, 5), min_size=1, max_size=5))
def test_truncating_facets_sum_to_interval_length(nab, coords):
    """(t - a) + (b - t) = b - a identically, for any x whatsoever, so no
    point lies deeper than (b - a)/2."""
    n, a, b = nab
    x = (coords * n)[:n]  # coords repeated to length n
    T = TPotential(n, a, b, _no_jet)
    assert interior_distance(T, x) <= 0.5 * (b - a) + 1e-12 * max(1.0, b)


@given(params, st.permutations(list(range(5))))
def test_coordinate_permutation_matches_facet_permutation(nab, perm):
    # coordinate facets permute along, the two truncating facets are
    # invariant, and t is correctly rounded: the distance is the same bits
    n, a, b = nab
    sigma = [p for p in perm if p < n]
    T = TPotential(n, a, b, _no_jet)
    draw = random.Random(0).uniform
    x = [draw(0.0, b) for _ in range(n)]
    assert interior_distance(T, [x[i] for i in sigma]) == interior_distance(T, x)


@pytest.mark.parametrize("n,a,b", CONFIGS)
def test_sample_interior_postconditions(n, a, b):
    T = flat_profile(n, a, b)
    margin = 0.01 * (b - a)
    pts = sample_interior(T, 25, margin=margin, seed=7)
    assert len(pts) == 25 and all(len(x) == n for x in pts)
    for x in pts:
        assert interior_distance(T, x) >= margin
        assert a < sum(x) < b


def test_sample_interior_deterministic():
    T = flat_profile(2, 0.5, 1.0)
    first = sample_interior(T, 10, margin=0.01, seed=7)
    second = sample_interior(T, 10, margin=0.01, seed=7)
    assert first == second
    other = sample_interior(T, 10, margin=0.01, seed=8)
    assert first != other


@pytest.mark.parametrize("n,a,b,seed", [(1, 0.25, 0.75, 0), (3, 0.5, 1.0, 5)])
def test_sample_interior_is_the_documented_stream(n, a, b, seed):
    """count*(n+1) draws of random.Random(seed).random(), row by row: n
    spacings -log1p(-u), then the radius variate."""
    count, m = 4, 0.01
    lo, hi = max(a + m - n * m, 0.0), b - m - n * m
    r_n = (lo / hi) ** n
    rng = random.Random(seed)
    expected = []
    for _ in range(count):
        spacings = [-math.log1p(-rng.random()) for _ in range(n)]
        radius = hi * (r_n + rng.random() * (1.0 - r_n)) ** (1.0 / n)
        expected.append([m + radius * (s / sum(spacings)) for s in spacings])
    got = sample_interior(flat_profile(n, a, b), count, m, seed=seed)
    assert all(abs(g - e) <= 1e-15 * abs(e)
               for row_g, row_e in zip(got, expected) for g, e in zip(row_g, row_e))


def _decimal_sample(T, count, margin, seed):
    """The sampler's formula at the same draws, evaluated in decimal at 40
    digits from the floats lo, hi and margin the sampler forms: count*(n+1)
    draws, row by row, n spacings -ln(1 - u) and then the radius variate."""
    n = T.n
    lo = max(T.t_min + margin - n * margin, 0.0)
    hi = T.t_max - margin - n * margin
    draw = random.Random(seed).random
    with localcontext() as context:
        context.prec = 40
        r_n = (Decimal(lo) / Decimal(hi)) ** n
        points = []
        for _ in range(count):
            spacings = [-(1 - Decimal(draw())).ln() for _ in range(n)]
            total = sum(spacings)
            radius = Decimal(hi) * (r_n + Decimal(draw()) * (1 - r_n)) ** (1 / Decimal(n))
            points.append([Decimal(margin) + radius * s / total for s in spacings])
    return points


@given(
    n=st.integers(min_value=1, max_value=16),
    b=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    ratio=st.floats(min_value=1e-3, max_value=0.999),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100)
def test_sample_interior_matches_the_decimal_formula(n, b, ratio, seed):
    # the same draws in the same order and the same formula, to 40 digits:
    # math.log1p and float ** are each within an ulp, which the quotient,
    # the fsum and the products carry to a few ulp of a coordinate (3.0 ulp
    # at most over 61 900 coordinates of these draws)
    T = flat_profile(n, ratio * b, b)
    m = 0.05 * (b - ratio * b)
    got = sample_interior(T, 20, margin=m, seed=seed)
    want = _decimal_sample(T, 20, m, seed)
    for row_g, row_w in zip(got, want):
        for g, w in zip(row_g, row_w):
            assert abs(Decimal(g) - w) <= 8 * Decimal(math.ulp(float(w)))


def test_sample_interior_margin_exceeds_inradius():
    T = flat_profile(2, 0.5, 1.0)
    with pytest.raises(EmptyRegion):
        sample_interior(T, 1, margin=0.5, seed=0)


@pytest.mark.parametrize(
    "n,a,b,seed",
    [(1, 0.25, 0.75, 1), (3, 0.5, 1.0, 2), (8, 0.25, 2.0, 3), (16, 0.5, 1.0, 4)],
)
def test_sample_interior_is_uniform(n, a, b, seed):
    """y = x - m is uniform on {y >= 0, lo <= sum(y) <= hi}: sum(y) has CDF
    (s^n - lo^n)/(hi^n - lo^n), and every coordinate takes a 1/n share."""
    count, m = 20_000, 0.05 * (b - a)
    T = flat_profile(n, a, b)
    y = [[v - m for v in x] for x in sample_interior(T, count, margin=m, seed=seed)]
    lo, hi = max(a + m - n * m, 0.0), b - m - n * m
    sums = [math.fsum(row) for row in y]
    cdf = [((s / hi) ** n - (lo / hi) ** n) / (1.0 - (lo / hi) ** n) for s in sorted(sums)]
    kolmogorov = max(max(k / count - c, c - (k - 1) / count) for k, c in enumerate(cdf, 1))
    assert kolmogorov <= 0.02
    for share in zip(*([v / s for v in row] for row, s in zip(y, sums))):
        assert abs(math.fsum(share) / count - 1.0 / n) <= 0.01


def test_sample_interior_rejects_bad_arguments():
    T = flat_profile(2, 0.5, 1.0)
    with pytest.raises(InvalidParameters):
        sample_interior(T, 0, margin=0.01)
    with pytest.raises(InvalidParameters):
        sample_interior(T, 5, margin=0.0)
    with pytest.raises(InvalidParameters, match="seed must be >= 0"):
        sample_interior(T, 5, margin=0.01, seed=-1)


def test_interior_distance_is_min_facet_value():
    # the least of the n + 2 facet values x_i, t - a and b - t, inside the
    # polytope or not: a coordinate, t - a, b - t and a point past t = b
    for T, x, want in [
        (TPotential(3, 0.25, 2.0, _no_jet), [0.5, 0.125, 1.0], 0.125),
        (TPotential(3, 0.25, 2.0, _no_jet), [0.0625, 0.0625, 0.0625], -0.0625),
        (TPotential(3, 0.25, 2.0, _no_jet), [0.5, 0.75, 0.5], 0.25),
        (TPotential(3, 0.25, 2.0, _no_jet), [1.0, 1.5, 0.25], -0.75),
    ]:
        assert interior_distance(T, x) == want
