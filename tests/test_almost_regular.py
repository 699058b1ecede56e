"""Tests for almost-regular matrices: condition check, realization, embedding."""

import math
from itertools import combinations

import numpy as np
import pytest

from torus_embed import (
    EmbeddingCertificate,
    InputError,
    NotAlmostRegular,
    check_almost_regular,
    dumps_certificate,
    embed_almost_regular,
    is_simplex,
    realization_plan,
    realize_almost_regular,
    squared_distances,
    torus_distance,
)
from torus_embed.almost_regular import ZERO_SIDE_RTOL, _checked_entries


def random_valid_matrix(rng, n):
    """Random matrix satisfying the almost-regularity condition.

    One pair is pinned at the maximum entry so a_max is attained exactly;
    the remaining slack stays strictly below a_max^2.
    """
    amax = float(rng.uniform(0.5, 2.0))
    pairs = n * (n - 1) // 2
    u = np.zeros(pairs)
    if pairs > 1:
        raw = rng.uniform(0.0, 1.0, pairs - 1)
        total = float(rng.uniform(0.2, 0.8))
        u[1:] = raw * (total / raw.sum())
    a = np.zeros((n, n))
    for idx, (i, j) in enumerate(combinations(range(n), 2)):
        a[i, j] = a[j, i] = amax * math.sqrt(1.0 - u[idx])
    return a


def test_check_regular_matrix():
    a = 0.7 * (np.ones((4, 4)) - np.eye(4))
    valid, margin = check_almost_regular(a)
    assert valid
    assert margin == pytest.approx(0.49, rel=1e-14)


def test_check_rejecting_large_deficit():
    # a_max = 1, both other entries 0.5: deficit 2 * 0.75 = 1.5 >= 1
    a = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
    valid, margin = check_almost_regular(a)
    assert not valid
    assert margin == pytest.approx(-0.5, rel=1e-14)


def test_check_structure_errors():
    with pytest.raises(InputError):
        check_almost_regular([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(InputError):
        check_almost_regular([[1.0, 1.0], [1.0, 0.0]])  # nonzero diagonal
    with pytest.raises(InputError):
        check_almost_regular([[0.0, 0.0], [0.0, 0.0]])  # zero off-diagonal


@pytest.mark.parametrize("fn", [check_almost_regular, realization_plan])
def test_entries_too_large_to_square_raise_input_error(fn):
    a = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(InputError):
        fn(a * 1e160)
    fn(a * 1e154)  # a_max^2 = 1e308 is still a double


def test_realize_regular_matrix_collapses_to_base_simplex():
    a = 1.3 * (np.ones((5, 5)) - np.eye(5))
    z, plan = realize_almost_regular(a)
    assert [members for members, _ in plan.cuts] == [(k,) for k in range(5)]
    assert plan.base_side == pytest.approx(1.3, rel=1e-14)
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_allclose(np.sqrt(squared_distances(z))[off], 1.3, rtol=1e-12)


def test_realize_two_points():
    a = np.array([[0.0, 0.42], [0.42, 0.0]])
    z, plan = realize_almost_regular(a)
    assert [members for members, _ in plan.cuts] == [(0,), (1,)]
    assert math.dist(z[0], z[1]) == pytest.approx(0.42, rel=1e-13)


def test_realize_single_point():
    z, plan = realize_almost_regular([[0.0]])
    assert z.shape == (1, 0)
    assert plan.cuts == ()


def test_realize_near_regular_four_points():
    rng = np.random.default_rng(19)
    a = np.zeros((4, 4))
    vals = rng.uniform(0.99, 1.0, 6)
    vals[0] = 1.0
    for idx, (i, j) in enumerate(combinations(range(4), 2)):
        a[i, j] = a[j, i] = vals[idx]
    z, _ = realize_almost_regular(a)
    d = np.sqrt(squared_distances(z))
    for i, j in combinations(range(4), 2):
        assert d[i, j] == pytest.approx(a[i, j], rel=1e-10)


def test_realize_rejects_invalid():
    a = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
    with pytest.raises(NotAlmostRegular):
        realize_almost_regular(a)
    with pytest.raises(NotAlmostRegular):
        embed_almost_regular(a, 4)


def test_realization_identity_random():
    # squared distance == base^2 + sum of pair sides^2 - own pair side^2
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        a = random_valid_matrix(rng, n)
        z, plan = realize_almost_regular(a)
        amax = a.max()
        _, margin = check_almost_regular(a)
        total_sides_sq = sum(amax**2 - a[i, j] ** 2 for i, j in combinations(range(n), 2))
        d2 = squared_distances(z)
        for s, t in combinations(range(n), 2):
            expected = margin + total_sides_sq - (amax**2 - a[s, t] ** 2)
            assert abs(d2[s, t] - expected) <= 1e-10 * amax**2


def test_realization_output_is_simplex_and_factor_count_bounded():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = random_valid_matrix(rng, n)
        z, plan = realize_almost_regular(a)
        assert is_simplex(z, 1e-9)
        assert len(plan.cuts) <= n * (n + 1) // 2 - 1


def test_embed_regular_matrix_into_triangles():
    a = np.ones((3, 3)) - np.eye(3)
    spec, points = embed_almost_regular(a, 3)
    assert len(spec.factors) == 3
    assert all(f.m == 3 for f in spec.factors)
    for i, j in combinations(range(3), 2):
        assert torus_distance(spec, points[i], points[j]) == pytest.approx(1.0, rel=1e-12)


def test_embed_two_points_single_pair():
    a = np.array([[0.0, 0.9], [0.9, 0.0]])
    spec, points = embed_almost_regular(a, 5)
    assert len(spec.factors) == 2  # one 2-vertex base simplex only
    assert torus_distance(spec, points[0], points[1]) == pytest.approx(0.9, rel=1e-12)


def test_embed_five_points_near_regular():
    rng = np.random.default_rng(77)
    a = random_valid_matrix(rng, 5)
    spec, points = embed_almost_regular(a, 4)
    for i, j in combinations(range(5), 2):
        assert torus_distance(spec, points[i], points[j]) == pytest.approx(
            a[i, j], rel=1e-10
        )


def test_embed_matches_realization_distances():
    rng = np.random.default_rng(101)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = random_valid_matrix(rng, n)
        z, _ = realize_almost_regular(a)
        spec, points = embed_almost_regular(a, 6)
        dz = np.sqrt(squared_distances(z))
        amax = a.max()
        for i, j in combinations(range(n), 2):
            dt = torus_distance(spec, points[i], points[j])
            assert abs(dt - dz[i, j]) <= 1e-10 * amax


def test_plan_skips_zero_side_pairs():
    a = np.ones((4, 4)) - np.eye(4)
    a[0, 1] = a[1, 0] = 1.0 - 1e-16  # side^2 ~ 2e-16 > tol^2 but side << amax scale?
    plan = realization_plan(a)
    # the (0, 1) deficit gives side sqrt(2e-16) ~ 1.4e-8, well above the
    # 1e-13 cutoff, so it is kept; exact ties are dropped
    b = np.ones((4, 4)) - np.eye(4)
    plan_regular = realization_plan(b)
    assert len(plan_regular.cuts) == 4
    assert len(plan.cuts) == 5


def test_embed_one_factor_per_cut():
    # n singleton cuts plus one cut per kept pair; the pair attaining a_max
    # is never kept, so two points take exactly two factors
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for _ in range(5):
            a = random_valid_matrix(rng, n)
            plan = realization_plan(a)
            base_side, pair_factors, _ = reference_pair_factors(a)
            spec, points = embed_almost_regular(a, 3)
            assert len(spec.factors) == n + len(pair_factors)
            assert len(pair_factors) <= n * (n - 1) // 2 - 1
            if n == 2:
                assert len(spec.factors) == 2
            cuts = [
                tuple(s for s in range(n) if points[s].indices[k])
                for k in range(len(spec.factors))
            ]
            pairs = [(i, j) for i, j, _ in pair_factors]
            assert cuts == [(k,) for k in range(n)] + pairs
            assert [members for members, _ in plan.cuts] == cuts
            # weights against the loop over the simplices' one-hot cuts
            weights = [0.0] * n
            for s in range(n):
                weights[s] += base_side**2 / 2
            for i, j, side in pair_factors:
                for s in range(n):
                    if s not in (i, j):
                        weights[s] += side**2 / 2
            weights += [side**2 / 2 for _, _, side in pair_factors]
            for (_, side), w in zip(plan.cuts, weights):
                assert side**2 == pytest.approx(w, rel=1e-13)


def test_torus_vertex_pattern_matches_realization_support():
    # a point sits on vertex 1 of a cut's polygon exactly where its
    # coordinate for that cut is nonzero
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        a = random_valid_matrix(rng, n)
        z, _ = realize_almost_regular(a)
        _, points = embed_almost_regular(a, 3)
        np.testing.assert_array_equal(np.array([p.indices for p in points]) == 1, z != 0)


def test_embed_reproduces_distances_tightly():
    rng = np.random.default_rng(12)
    for n in range(2, 9):
        for m in (2, 3, 5, 12):
            a = random_valid_matrix(rng, n)
            spec, points = embed_almost_regular(a, m)
            for i, j in combinations(range(n), 2):
                d = torus_distance(spec, points[i], points[j])
                assert abs(d - a[i, j]) <= 1e-12 * a[i, j]


def test_embed_accepts_plan():
    a = random_valid_matrix(np.random.default_rng(9), 6)
    assert embed_almost_regular(realization_plan(a), 4) == embed_almost_regular(a, 4)


def test_embed_is_bytewise_deterministic():
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        a = random_valid_matrix(rng, n)
        texts = []
        for _ in range(2):
            spec, points = embed_almost_regular(a.copy(), 3)
            cert = EmbeddingCertificate(a**2, spec, tuple(points), {}, {}, {})
            texts.append(dumps_certificate(cert))
        assert texts[0] == texts[1]


def test_cut_weights_do_not_underflow():
    # the squared margin here is the smallest subnormal float, so half of it
    # rounds to zero; cut weights are summed relative to the largest side
    x = 2.3e-162
    plan = realization_plan([[0.0, x], [x, 0.0]])
    assert plan.base_side**2 == 5e-324
    spec, points = embed_almost_regular(plan, 3)
    assert len(spec.factors) == 2
    for _, side in plan.cuts:
        assert side == pytest.approx(plan.base_side / math.sqrt(2.0), rel=1e-15)


def reference_pair_factors(entries):
    """realization_plan as it was when it built one simplex factor per kept
    pair, kept as its reference. Returns (base side, (i, j, side) of each
    pair factor, margin), the margin being the one embed_simplex took from
    its own check_almost_regular."""
    a = _checked_entries(entries)
    n = a.shape[0]
    if n == 1:
        return 0.0, (), check_almost_regular(a).margin
    valid, margin = check_almost_regular(a)
    if not valid:
        raise NotAlmostRegular(
            f"almost-regularity margin is {margin:.6e}, must be positive"
        )
    amax = float(a[np.triu_indices(n, k=1)].max())
    pair_factors = []
    for i in range(n):
        for j in range(i + 1, n):
            side_sq = max(amax**2 - float(a[i, j]) ** 2, 0.0)
            side = math.sqrt(side_sq)
            if side > ZERO_SIDE_RTOL * amax:
                pair_factors.append((i, j, side))
    return math.sqrt(margin), tuple(pair_factors), margin


def reference_plan(entries):
    """(cuts, margin) merged from the reference pair factors by the
    arithmetic the plan's cuts were first computed with."""
    base_side, pairs, margin = reference_pair_factors(entries)
    n = _checked_entries(entries).shape[0]
    if n == 1:
        return (), margin
    sides = np.array([side for _, _, side in pairs])
    i = np.array([i for i, _, _ in pairs], dtype=np.intp)
    j = np.array([j for _, j, _ in pairs], dtype=np.intp)
    scale = max(base_side, float(sides.max(initial=0.0)))
    half = 0.5 * (sides / scale) ** 2
    points = np.arange(n)[:, None]
    apart = (points != i) & (points != j)
    weights = 0.5 * (base_side / scale) ** 2 + np.where(apart, half, 0.0).sum(axis=1)
    cuts = [((k,), scale * math.sqrt(w)) for k, w in enumerate(weights.tolist())]
    cuts.extend(((i, j), side / math.sqrt(2.0)) for i, j, side in pairs)
    return tuple(cuts), margin


def test_plan_matches_reference_bitwise():
    rng = np.random.default_rng(77)
    for trial in range(60):
        n = int(rng.integers(1, 10))
        if trial % 3 == 0:
            # the pipeline's kind: sqrt(alpha^2 + e_ij) with tiny e_ij
            e = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-14, -2) / n**2
            a = np.sqrt(1.0 + (e + e.T) / 2)
            np.fill_diagonal(a, 0.0)
        elif n > 1:
            a = random_valid_matrix(rng, n)
        else:
            a = np.zeros((1, 1))
        a = a * 10.0 ** rng.uniform(-100, 100)
        if trial % 7 == 0 and n > 2:
            a[0, 1] = a[1, 0] = 1e-3 * a.max()  # far from almost regular
        try:
            ref = reference_plan(a)
        except NotAlmostRegular as exc:
            with pytest.raises(NotAlmostRegular) as got:
                realization_plan(a)
            assert str(got.value) == str(exc)
            continue
        plan = realization_plan(a)
        assert plan.n_points == n
        assert (plan.cuts, plan.margin) == ref
        assert plan.base_side == math.sqrt(plan.margin)


def test_pair_sides_square_by_python_pow():
    # numpy's x * x and Python's x ** 2 (libm pow) round a few doubles
    # apart; the plan squares as the reference, and the certificates, do
    rng = np.random.default_rng(8)
    xs = [x for x in rng.uniform(0.95, 1.0, 20000).tolist() if x * x != x**2][:5]
    for x in xs:
        a = np.array([[0.0, 1.0, x], [1.0, 0.0, 1.0], [x, 1.0, 0.0]])
        assert realization_plan(a).cuts == reference_plan(a)[0]
