"""Tests for the distance-geometry primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_embed import (
    InputError,
    NotEuclidean,
    centered_gram,
    is_simplex,
    realize,
    regular_simplex,
    squared_distances,
)


def test_squared_distances_two_points_on_line():
    np.testing.assert_array_equal(squared_distances([[0.0], [3.0]]), [[0.0, 9.0], [9.0, 0.0]])


def test_squared_distances_accepts_flat_reals():
    np.testing.assert_array_equal(squared_distances([0.0, 3.0]), [[0.0, 9.0], [9.0, 0.0]])


def test_squared_distances_equilateral_triangle():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    d2 = squared_distances(pts)
    off = ~np.eye(3, dtype=bool)
    np.testing.assert_allclose(d2[off], 1.0, rtol=1e-15)
    assert np.array_equal(d2, d2.T)
    assert np.all(np.diag(d2) == 0.0)


def test_squared_distances_matches_pairwise_loop():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(4, 3))
    d2 = squared_distances(pts)
    # independent oracle: plain python loop over coordinates
    for i in range(4):
        for j in range(4):
            expected = sum((pts[i][c] - pts[j][c]) ** 2 for c in range(3))
            assert d2[i, j] == pytest.approx(expected, rel=1e-14)


def test_squared_distances_ragged_input_rejected():
    with pytest.raises(InputError):
        squared_distances([[1.0, 2.0], [1.0]])


def test_squared_distances_empty_rejected():
    with pytest.raises(InputError):
        squared_distances([])


def test_centered_gram_two_points():
    # hand computation: G = [[d2/4, -d2/4], [-d2/4, d2/4]], eigenvalues {0, d2/2}
    d2 = 1.7**2
    w = np.linalg.eigvalsh(centered_gram([[0.0, d2], [d2, 0.0]]))
    np.testing.assert_allclose(w, [0.0, d2 / 2], atol=1e-15)


def test_centered_gram_zero_matrix():
    np.testing.assert_array_equal(centered_gram(np.zeros((3, 3))), np.zeros((3, 3)))


def test_centered_gram_equilateral_eigenvalues():
    # hand computation for side 1: G = I/2 - ones/6, eigenvalues {1/2, 1/2, 0}
    d2 = np.ones((3, 3)) - np.eye(3)
    w = np.linalg.eigvalsh(centered_gram(d2))
    np.testing.assert_allclose(np.sort(w), [0.0, 0.5, 0.5], atol=1e-15)


def test_centered_gram_row_sums_vanish():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(6, 4))
    g = centered_gram(squared_distances(pts))
    lam_max = np.linalg.eigvalsh(g)[-1]
    assert np.abs(g.sum(axis=1)).max() <= 1e-12 * lam_max


def test_centered_gram_rejects_asymmetric():
    with pytest.raises(InputError):
        centered_gram([[0.0, 1.0], [2.0, 0.0]])


def test_centered_gram_rejects_nonzero_diagonal():
    with pytest.raises(InputError):
        centered_gram([[1.0, 1.0], [1.0, 0.0]])


def test_centered_gram_rejects_negative_entries():
    with pytest.raises(InputError):
        centered_gram([[0.0, -1.0], [-1.0, 0.0]])


def test_realize_equilateral_roundtrip():
    d2 = np.ones((3, 3)) - np.eye(3)
    pts = realize(centered_gram(d2))
    assert pts.shape == (3, 2)
    np.testing.assert_allclose(squared_distances(pts), d2, atol=1e-12)


def test_realize_zero_gram_gives_coincident_points():
    pts = realize(np.zeros((3, 3)))
    assert pts.shape == (3, 0)
    np.testing.assert_array_equal(squared_distances(pts), np.zeros((3, 3)))


def test_realize_negative_eigenvalue_raises():
    with pytest.raises(NotEuclidean):
        realize(np.diag([1.0, -1.0]))


def test_realize_triangle_violation_raises():
    # squared distances 1 everywhere except one pair at 9: sqrt distances
    # 3 > 1 + 1 break the triangle inequality, so the Gram has a negative
    # eigenvalue (-1.5, checked numerically)
    d2 = np.ones((4, 4)) - np.eye(4)
    d2[0, 1] = d2[1, 0] = 9.0
    with pytest.raises(NotEuclidean):
        realize(centered_gram(d2))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
def test_realize_roundtrip_random(n, dim, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    d2 = squared_distances(pts)
    back = squared_distances(realize(centered_gram(d2)))
    scale = d2.max() or 1.0
    assert np.abs(back - d2).max() <= 1e-9 * scale


def test_triangle_inequality_on_square_roots():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(7, 3))
    d = np.sqrt(squared_distances(pts))
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def test_is_simplex_collinear_false():
    assert not is_simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def test_is_simplex_equilateral_true():
    assert is_simplex([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])


def test_is_simplex_regular_five_vertices():
    assert is_simplex(regular_simplex(5, 1.0))


def test_is_simplex_single_point():
    assert is_simplex([[3.0, 4.0]])


def test_is_simplex_duplicate_points_false():
    assert not is_simplex([[0.0], [0.0]])
