import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricext.errors import DimensionMismatch, EmptyRegion, InvalidParameters
from toricext.polytope import (
    BlowupPolytope,
    build_blowup_polytope,
    facet_values,
    interior_distance,
    sample_interior,
)

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


def test_facet_count_and_normals():
    P = build_blowup_polytope(2, 0.5, 1.0)
    assert P == BlowupPolytope(2, 0.5, 1.0)
    # the facet functions are affine: l(0) is the offset, l(e_j) - l(0) the
    # j-th normal entry
    offsets = np.array(facet_values(P, [0.0, 0.0]))
    normals = np.array([facet_values(P, e) for e in np.eye(2)]) - offsets
    np.testing.assert_array_equal(offsets, [0.0, 0.0, -0.5, 1.0])
    np.testing.assert_array_equal(normals.T, [[1, 0], [0, 1], [1, 1], [-1, -1]])


def test_facet_values_square_point():
    P = build_blowup_polytope(2, 0.5, 1.0)
    np.testing.assert_allclose(
        facet_values(P, [0.3, 0.4]), [0.3, 0.4, 0.2, 0.3], atol=1e-15
    )


def test_facet_values_orthant_vertex_is_outside():
    P = build_blowup_polytope(2, 0.5, 1.0)
    np.testing.assert_allclose(
        facet_values(P, [0.0, 0.0]), [0.0, 0.0, -0.5, 1.0], atol=1e-15
    )


def test_facet_values_interval_midpoint():
    P = build_blowup_polytope(1, 0.25, 0.75)
    np.testing.assert_allclose(
        facet_values(P, [0.5]), [0.5, 0.25, 0.25], atol=1e-15
    )


def test_facet_values_sum_is_correctly_rounded():
    # t = 1e16 + 1 - 1e16 is exactly 1; a left-to-right float sum gives 0,
    # and Python 3.12's compensated sum() gives 1, so the facet values (and
    # every verify report) would depend on the interpreter's version
    P = BlowupPolytope(3, 0.5, 1.0)
    assert facet_values(P, [1e16, 1.0, -1e16])[3:] == [0.5, 0.0]


@pytest.mark.parametrize(
    "n,a,b",
    [(2, 1.0, 0.5), (2, 0.0, 1.0), (2, -0.5, 1.0), (0, 0.5, 1.0), (2, 0.5, 0.5)],
)
def test_invalid_parameters(n, a, b):
    with pytest.raises(InvalidParameters):
        build_blowup_polytope(n, a, b)


def test_non_finite_parameters_rejected():
    with pytest.raises(InvalidParameters):
        build_blowup_polytope(2, 0.5, float("nan"))
    with pytest.raises(InvalidParameters):
        build_blowup_polytope(2, 0.5, float("inf"))


def test_dimension_mismatch():
    P = build_blowup_polytope(2, 0.5, 1.0)
    with pytest.raises(DimensionMismatch):
        facet_values(P, [0.1, 0.2, 0.3])


@given(params, st.lists(st.floats(-5, 5), min_size=1, max_size=5))
def test_truncating_facets_sum_to_interval_length(nab, coords):
    """l_{n+1} + l_{n+2} = b - a identically, for any x whatsoever."""
    n, a, b = nab
    x = np.resize(np.array(coords), n)
    P = build_blowup_polytope(n, a, b)
    vals = facet_values(P, x)
    assert abs(vals[n] + vals[n + 1] - (b - a)) <= 1e-12 * max(1.0, b)


@given(params, st.permutations(list(range(5))))
def test_coordinate_permutation_matches_facet_permutation(nab, perm):
    n, a, b = nab
    sigma = [p for p in perm if p < n]
    P = build_blowup_polytope(n, a, b)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, b, size=n)
    vals = np.array(facet_values(P, x))
    vals_perm = np.array(facet_values(P, x[sigma]))
    # coordinate facets permute along, the two truncating facets are invariant
    np.testing.assert_allclose(vals_perm[:n], vals[sigma], atol=1e-12)
    np.testing.assert_allclose(vals_perm[n:], vals[n:], atol=1e-12)


@pytest.mark.parametrize("n,a,b", CONFIGS)
def test_sample_interior_postconditions(n, a, b):
    P = build_blowup_polytope(n, a, b)
    margin = 0.01 * (b - a)
    pts = sample_interior(P, 25, margin=margin, seed=7)
    assert len(pts) == 25 and all(len(x) == n for x in pts)
    for x in pts:
        assert min(facet_values(P, x)) >= margin
        assert a < sum(x) < b


def test_sample_interior_deterministic():
    P = build_blowup_polytope(2, 0.5, 1.0)
    first = sample_interior(P, 10, margin=0.01, seed=7)
    second = sample_interior(P, 10, margin=0.01, seed=7)
    np.testing.assert_array_equal(first, second)
    other = sample_interior(P, 10, margin=0.01, seed=8)
    assert not np.array_equal(first, other)


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
    got = sample_interior(build_blowup_polytope(n, a, b), count, m, seed=seed)
    np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)


def _numpy_sample(P, count, margin, seed):
    """The sampler's formula on numpy arrays, as the package evaluated it
    before it ran on lists: count*(n+1) draws fill a (count, n+1) array row
    by row."""
    n = P.n
    lo = max(P.a + margin - n * margin, 0.0)
    hi = P.b - margin - n * margin
    draw = random.Random(seed).random
    u = np.array([draw() for _ in range(count * (n + 1))]).reshape(count, n + 1)
    spacings = -np.log1p(-u[:, :n])
    directions = spacings / np.sum(spacings, axis=1, keepdims=True)
    r_n = (lo / hi) ** n
    radii = hi * (r_n + u[:, n] * (1.0 - r_n)) ** (1.0 / n)
    return margin + radii[:, None] * directions


@given(
    n=st.integers(min_value=1, max_value=16),
    b=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    ratio=st.floats(min_value=1e-3, max_value=0.999),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100)
def test_sample_interior_matches_the_numpy_formula(n, b, ratio, seed):
    # the same draws in the same order and the same formula; math.log1p and
    # float ** may each differ from numpy's by an ulp, which the quotient and
    # the products carry to ~4 ulp of a coordinate, and numpy sums a row of 8
    # or more with eight accumulators where the list is summed in order (6
    # ulp at most over 15 000 draws of these parameters)
    P = build_blowup_polytope(n, ratio * b, b)
    m = 0.05 * (b - ratio * b)
    got = np.array(sample_interior(P, 20, margin=m, seed=seed))
    want = _numpy_sample(P, 20, m, seed)
    assert np.all(np.abs(got - want) <= 8 * np.spacing(want))


def test_sample_interior_margin_exceeds_inradius():
    P = build_blowup_polytope(2, 0.5, 1.0)
    with pytest.raises(EmptyRegion):
        sample_interior(P, 1, margin=0.5, seed=0)


@pytest.mark.parametrize(
    "n,a,b,seed",
    [(1, 0.25, 0.75, 1), (3, 0.5, 1.0, 2), (8, 0.25, 2.0, 3), (16, 0.5, 1.0, 4)],
)
def test_sample_interior_is_uniform(n, a, b, seed):
    """y = x - m is uniform on {y >= 0, lo <= sum(y) <= hi}: sum(y) has CDF
    (s^n - lo^n)/(hi^n - lo^n), and every coordinate takes a 1/n share."""
    count, m = 20_000, 0.05 * (b - a)
    P = build_blowup_polytope(n, a, b)
    y = np.array(sample_interior(P, count, margin=m, seed=seed)) - m
    lo, hi = max(a + m - n * m, 0.0), b - m - n * m
    s = np.sort(np.sum(y, axis=1))
    cdf = ((s / hi) ** n - (lo / hi) ** n) / (1.0 - (lo / hi) ** n)
    rank = np.arange(1, count + 1) / count
    kolmogorov = max(np.max(rank - cdf), np.max(cdf - (rank - 1.0 / count)))
    assert kolmogorov <= 0.02
    shares = np.mean(y / np.sum(y, axis=1, keepdims=True), axis=0)
    np.testing.assert_allclose(shares, 1.0 / n, atol=0.01)


def test_sample_interior_rejects_bad_arguments():
    P = build_blowup_polytope(2, 0.5, 1.0)
    with pytest.raises(InvalidParameters):
        sample_interior(P, 0, margin=0.01)
    with pytest.raises(InvalidParameters):
        sample_interior(P, 5, margin=0.0)
    with pytest.raises(InvalidParameters, match="seed must be >= 0"):
        sample_interior(P, 5, margin=0.01, seed=-1)


def test_interior_distance_is_min_facet_value():
    P = build_blowup_polytope(2, 0.5, 1.0)
    assert interior_distance(P, [0.3, 0.4]) == pytest.approx(0.2, abs=1e-15)
    assert interior_distance(P, [0.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)
