import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricext import (
    AffineFacet,
    DimensionMismatch,
    EmptyRegion,
    InvalidParameters,
    MomentPolytope,
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
    assert P.dimension == 2
    assert len(P.facets) == 4
    assert P.facets[0].normal == (1, 0) and P.facets[0].offset == 0.0
    assert P.facets[1].normal == (0, 1) and P.facets[1].offset == 0.0
    assert P.facets[2].normal == (1, 1) and P.facets[2].offset == -0.5
    assert P.facets[3].normal == (-1, -1) and P.facets[3].offset == 1.0


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
    assert len(P.facets) == 3
    np.testing.assert_allclose(
        facet_values(P, [0.5]), [0.5, 0.25, 0.25], atol=1e-15
    )


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
    vals = facet_values(P, x)
    vals_perm = facet_values(P, x[sigma])
    # coordinate facets permute along, the two truncating facets are invariant
    np.testing.assert_allclose(vals_perm[:n], vals[sigma], atol=1e-12)
    np.testing.assert_allclose(vals_perm[n:], vals[n:], atol=1e-12)


@pytest.mark.parametrize("n,a,b", CONFIGS)
def test_sample_interior_postconditions(n, a, b):
    P = build_blowup_polytope(n, a, b)
    margin = 0.01 * (b - a)
    pts = sample_interior(P, 25, margin=margin, seed=7)
    assert pts.shape == (25, n)
    for x in pts:
        vals = facet_values(P, x)
        assert np.all(vals >= margin)
        assert a < np.sum(x) < b


def test_sample_interior_deterministic():
    P = build_blowup_polytope(2, 0.5, 1.0)
    first = sample_interior(P, 10, margin=0.01, seed=7)
    second = sample_interior(P, 10, margin=0.01, seed=7)
    np.testing.assert_array_equal(first, second)
    other = sample_interior(P, 10, margin=0.01, seed=8)
    assert not np.array_equal(first, other)


def test_sample_interior_margin_exceeds_inradius():
    P = build_blowup_polytope(2, 0.5, 1.0)
    with pytest.raises(EmptyRegion):
        sample_interior(P, 1, margin=0.5, seed=0)


def _coordinate_facets(n: int) -> tuple:
    return tuple(
        AffineFacet(tuple(1 if j == i else 0 for j in range(n)), 0.0)
        for i in range(n)
    )


@pytest.mark.parametrize(
    "facets",
    [
        _coordinate_facets(17),  # the orthant: no sum(x) <= b facet
        _coordinate_facets(2) + (AffineFacet((-1, -1), 1.0),) * 2,
        _coordinate_facets(2) + (AffineFacet((-1, -2), 1.0),),
        _coordinate_facets(2)
        + (AffineFacet((-1, -1), 1.0), AffineFacet((1, -1), 0.5)),
        _coordinate_facets(2)[:1] + (AffineFacet((-1, -1), 1.0),),
    ],
)
def test_sample_interior_refuses_other_facet_sets(facets):
    P = MomentPolytope(len(facets[0].normal), facets)
    with pytest.raises(InvalidParameters):
        sample_interior(P, 5, margin=0.01)


@pytest.mark.parametrize(
    "n,a,b,seed",
    [(1, 0.25, 0.75, 1), (3, 0.5, 1.0, 2), (8, 0.25, 2.0, 3), (16, 0.5, 1.0, 4)],
)
def test_sample_interior_is_uniform(n, a, b, seed):
    """y = x - m is uniform on {y >= 0, lo <= sum(y) <= hi}: sum(y) has CDF
    (s^n - lo^n)/(hi^n - lo^n), and every coordinate takes a 1/n share."""
    count, m = 20_000, 0.05 * (b - a)
    P = build_blowup_polytope(n, a, b)
    y = sample_interior(P, count, margin=m, seed=seed) - m
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


def test_interior_distance_is_min_facet_value():
    P = build_blowup_polytope(2, 0.5, 1.0)
    assert interior_distance(P, [0.3, 0.4]) == pytest.approx(0.2, abs=1e-15)
    assert interior_distance(P, [0.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)
