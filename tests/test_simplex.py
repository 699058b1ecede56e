"""Tests for regular simplex construction and its torus embedding, the
almost-regular plan with no deficits."""

import math
from itertools import combinations

import numpy as np
import pytest

from torus_embed import (
    InputError,
    TrivialInput,
    centered_gram,
    chord,
    embed_regular_simplex,
    pairwise_sq,
    realize,
    regular_simplex,
    squared_distances,
)


def test_regular_simplex_two_points():
    pts = regular_simplex(2, 1.0)
    assert pts.shape == (2, 1)
    assert math.dist(pts[0], pts[1]) == pytest.approx(1.0, rel=1e-15)


def test_regular_simplex_triangle():
    pts = regular_simplex(3, 1.0)
    d2 = squared_distances(pts)
    np.testing.assert_allclose(d2[~np.eye(3, dtype=bool)], 1.0, rtol=1e-14)


def test_regular_simplex_six_vertices_side_two():
    pts = regular_simplex(6, 2.0)
    assert pts.shape == (6, 5)
    # independent pairwise loop over all 15 pairs
    for i, j in combinations(range(6), 2):
        d = math.sqrt(sum((pts[i][c] - pts[j][c]) ** 2 for c in range(5)))
        assert d == pytest.approx(2.0, rel=1e-12)


def test_regular_simplex_single_vertex():
    pts = regular_simplex(1, 1.0)
    assert pts.shape == (1, 0)


def test_regular_simplex_validation():
    with pytest.raises(InputError):
        regular_simplex(0, 1.0)
    with pytest.raises(InputError):
        regular_simplex(3, 0.0)


def test_regular_simplex_agrees_with_classical_scaling():
    # same distance matrix through the eigendecomposition route
    for n in (2, 4, 7):
        side = 1.3
        d2 = side**2 * (np.ones((n, n)) - np.eye(n))
        via_gram = realize(centered_gram(d2))
        direct = regular_simplex(n, side)
        assert (
            np.abs(squared_distances(via_gram) - squared_distances(direct)).max()
            <= 1e-10 * side**2
        )


def circumradius_for_side(m, side):
    """The circumradius `embed_regular_simplex` gives the m-gon of the given
    side: two vertices at distance side * sqrt(2) take one such polygon each."""
    spec, _ = embed_regular_simplex(2, side * math.sqrt(2.0), m)
    return spec.factors[0].r


def test_circumradius_hexagon():
    assert circumradius_for_side(6, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_circumradius_square_in_unit_circle():
    assert circumradius_for_side(4, math.sqrt(2)) == pytest.approx(1.0, rel=1e-15)


def test_circumradius_triangle():
    assert circumradius_for_side(3, 1.0) == pytest.approx(1 / math.sqrt(3), rel=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4, 17, 10**15 + 3])
def test_circumradius_roundtrip_through_chord(m):
    side = 0.37
    r = circumradius_for_side(m, side)
    assert chord(m, r, 1) == pytest.approx(side, rel=1e-12)


def test_embed_two_vertices_in_squares():
    spec, points = embed_regular_simplex(2, math.sqrt(2), 4)
    assert [p.indices for p in points] == [(1, 0), (0, 1)]
    # polygon side is alpha/sqrt(2) = 1, so r = 1/(2 sin(pi/4)) = 1/sqrt(2)
    assert spec.factors[0].r == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    d2 = pairwise_sq(spec, (points[0], points[1]))[0, 1]
    assert d2 == pytest.approx(2.0, rel=1e-14)


def test_embed_single_vertex():
    # a plan needs two points, as the pipeline does
    with pytest.raises(TrivialInput):
        embed_regular_simplex(1, 1.0, 5)


def test_embed_refuses_sides_by_name():
    # a negative side squares to a valid matrix, so it is refused itself;
    # sides whose square is not a positive finite double are refused too
    for side in (-1.0, 0.0, math.inf, math.nan, 1e200, 1e-200):
        with pytest.raises(InputError):
            embed_regular_simplex(3, side, 4)
    for order in (1, 2.0):
        with pytest.raises(InputError):
            embed_regular_simplex(3, 1.0, order)


def test_embed_four_vertices_in_triangles():
    spec, points = embed_regular_simplex(4, 1.0, 3)
    for i, j in combinations(range(4), 2):
        assert pairwise_sq(spec, (points[i], points[j]))[0, 1] == pytest.approx(1.0, rel=1e-12)


def test_embed_indices_are_binary_and_structural():
    spec, points = embed_regular_simplex(5, 2.0, 7)
    for i, p in enumerate(points):
        assert set(p.indices) <= {0, 1}
        assert [k for k, v in enumerate(p.indices) if v == 1] == [i]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 12, 10**15 + 3])
@pytest.mark.parametrize("side", [0.1, 1.0, 10.0])
def test_embed_exactness_sweep(m, side):
    for n in range(2, 11):
        spec, points = embed_regular_simplex(n, side, m)
        for i, j in combinations(range(n), 2):
            d2 = pairwise_sq(spec, (points[i], points[j]))[0, 1]
            assert math.sqrt(d2) == pytest.approx(side, rel=1e-12)
