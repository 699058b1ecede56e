"""Tests for the bounded-distortion polygon embeddings."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from torus_embed import (
    InputError,
    TrivialInput,
    chord,
    one_dim_embed,
    one_dim_params,
    product_embed,
    squared_distances,
)


def snapped_value(index, n0, n):
    """Exact rational grid value behind a vertex index."""
    return Fraction(index * n0, n * n)


def check_half_budgets(values, assignment, params, budget):
    """Both error halves of the construction, checked pair by pair:

    snapping:  | |y - y'|^2 - |x - x'|^2 |  < budget / 2
    curvature: | chord^2 - |y - y'|^2 |     < budget / 2
    """
    translated = [v - min(values) for v in values]
    for (ia, xa), (ib, xb) in combinations(enumerate(translated), 2):
        ja, jb = assignment[ia], assignment[ib]
        ya = snapped_value(ja, params.n0, params.n)
        yb = snapped_value(jb, params.n0, params.n)
        snap_err = abs(float((ya - yb) ** 2) - (xa - xb) ** 2)
        assert snap_err < budget / 2
        c = chord(params.m, params.r, ja - jb)
        curve_err = abs(c**2 - float((ya - yb) ** 2))
        assert curve_err < budget / 2


def test_params_unit_pair():
    p = one_dim_params([0.0, 1.0], 0.1)
    assert (p.n0, p.n, p.m) == (1, 63, 250047)
    assert p.r == pytest.approx(63 / (2 * math.pi), rel=1e-15)


def test_params_huge_delta_clamps_polygon():
    p = one_dim_params([0.0, 1.0], 2 * math.pi)
    assert p.n == 2
    assert p.m == 8


def test_params_gap_bound_dominated_by_span():
    p = one_dim_params([0.0, 0.5, 10.0], 0.5)
    assert p.n0 == 10  # span 10 beats 1/min_gap = 2


def test_params_gap_bound_dominated_by_min_gap():
    p = one_dim_params([0.0, 0.125, 1.0], 0.5)
    assert p.n0 == 8  # 1/min_gap = 8 beats span 1


def test_params_errors():
    with pytest.raises(InputError):
        one_dim_params([0.0, 0.0, 1.0], 0.1)
    with pytest.raises(TrivialInput):
        one_dim_params([0.0], 0.1)
    with pytest.raises(InputError):
        one_dim_params([0.0, 1.0], 0.0)
    with pytest.raises(InputError):
        one_dim_params([0.0, 1.0], -1.0)


def test_one_dim_values_colliding_after_translation_rejected():
    # distinct doubles whose offsets from the minimum round to one value
    with pytest.raises(InputError):
        one_dim_embed([-1e20, 1.0, 2.0], 0.1)


def test_one_dim_unit_pair_frozen_values():
    de = one_dim_embed([0.0, 1.0], 0.1)
    assert [p.indices for p in de.assignment] == [(0,), (3969,)]
    # independent evaluation of the chord at the known parameters
    r = 63 / (2 * math.pi)
    expected_sq = (2 * r * math.sin(math.pi * 3969 / 250047)) ** 2
    assert expected_sq == pytest.approx(0.999171383837071, rel=1e-12)
    err = de.per_pair_error[0, 1]
    assert err == pytest.approx(1.0 - expected_sq, rel=1e-12)
    assert abs(err) < 0.1


def test_one_dim_minimum_maps_to_vertex_zero():
    for xs in ([3.0, 4.5, 7.25], [-2.0, 0.0, 1.0]):
        de = one_dim_embed(xs, 0.25)
        j_min = de.assignment[int(np.argmin(xs))].indices[0]
        assert j_min == 0


def test_one_dim_indices_bounded_and_injective():
    rng = np.random.default_rng(13)
    xs = np.sort(rng.uniform(0, 1, 6))
    while np.diff(xs).min() < 0.05:
        xs = np.sort(rng.uniform(0, 1, 6))
    de = one_dim_embed(xs, 1e-2)
    idx = [p.indices[0] for p in de.assignment]
    assert len(set(idx)) == len(idx)
    n = de.params.n
    assert all(0 <= j <= n * n < de.params.m for j in idx)


def test_one_dim_every_pair_error_below_budget():
    rng = np.random.default_rng(29)
    for _ in range(10):
        xs = np.unique(rng.integers(0, 20, 6)) * 0.05
        if xs.size < 2:
            continue
        de = one_dim_embed(xs, 1e-2)
        off = ~np.eye(len(xs), dtype=bool)
        assert np.abs(de.per_pair_error[off]).max() < 1e-2
        check_half_budgets(list(xs), [p.indices[0] for p in de.assignment], de.params, 1e-2)


def test_error_matrix_symmetric_zero_diagonal():
    de = one_dim_embed([0.0, 0.3, 1.0], 0.05)
    assert np.array_equal(de.per_pair_error, de.per_pair_error.T)
    assert np.all(np.diag(de.per_pair_error) == 0.0)


def test_halving_delta_never_hurts():
    xs = [0.0, 0.19, 0.55, 1.0]
    for delta in (0.2, 0.02):
        worse = one_dim_embed(xs, delta)
        better = one_dim_embed(xs, delta / 2)
        assert worse.params.n0 == better.params.n0
        assert np.abs(better.per_pair_error).max() <= np.abs(worse.per_pair_error).max()


def test_product_of_one_reduces_to_one_dim():
    xs = [0.0, 0.31, 0.75]
    delta = 1e-3  # below the minimal squared distance, so no internal shrink
    de1 = one_dim_embed(xs, delta)
    dek = product_embed([[x] for x in xs], delta)
    assert dek.params == de1.params
    assert dek.assignment == de1.assignment
    np.testing.assert_array_equal(dek.per_pair_error, de1.per_pair_error)
    assert dek.delta == de1.delta


def test_product_unit_square_corners():
    corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    de = product_embed(corners, 1e-2)
    assert len(de.torus.factors) == 2
    off = ~np.eye(4, dtype=bool)
    assert np.abs(de.per_pair_error[off]).max() < 1e-2
    assert de.dropped_axes == ()


def test_product_constant_axis_dropped():
    pts = [[0.0, 5.0], [1.0, 5.0], [2.5, 5.0]]
    de = product_embed(pts, 1e-2)
    assert len(de.torus.factors) == 1
    assert de.dropped_axes == (1,)
    off = ~np.eye(3, dtype=bool)
    assert np.abs(de.per_pair_error[off]).max() < 1e-2


def test_product_injectivity_shrink():
    pts = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]
    d2 = squared_distances(pts)
    min_sq = d2[~np.eye(3, dtype=bool)].min()
    de = product_embed(pts, 1.0)  # requested budget exceeds min squared distance
    assert de.delta == pytest.approx(0.5 * min_sq, rel=1e-15)
    assert np.abs(de.per_pair_error[~np.eye(3, dtype=bool)]).max() < de.delta
    assert len(set(de.assignment)) == 3


def test_product_half_budgets_per_coordinate():
    rng = np.random.default_rng(31)
    for _ in range(5):
        k = int(rng.integers(1, 5))
        npts = int(rng.integers(2, 7))
        cols = [rng.choice(17, npts, replace=False) / 16.0 for _ in range(k)]
        pts = np.stack(cols, axis=1)
        de = product_embed(pts, 1e-2)
        kept = [c for c in range(k) if c not in de.dropped_axes]
        budget = de.delta / len(kept)
        for axis_pos, c in enumerate(kept):
            values = list(pts[:, c])
            assignment = [p.indices[axis_pos] for p in de.assignment]
            check_half_budgets(values, assignment, de.params, budget)
        off = ~np.eye(npts, dtype=bool)
        assert np.abs(de.per_pair_error[off]).max() < de.delta


def test_product_duplicate_points_rejected():
    with pytest.raises(InputError):
        product_embed([[0.0, 1.0], [0.0, 1.0]], 0.1)


def test_product_single_point_rejected():
    with pytest.raises(TrivialInput):
        product_embed([[0.0, 1.0]], 0.1)
