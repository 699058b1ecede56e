"""Tests for almost-regular matrices: condition check, realization, embedding.

Every matrix here is a squared-distance matrix, as the functions take it.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torus_embed import (
    EmbeddingCertificate,
    InputError,
    NotAlmostRegular,
    RealizationPlan,
    TrivialInput,
    check_almost_regular,
    dumps_certificate,
    embed_almost_regular,
    embed_regular_simplex,
    is_simplex,
    pairwise_sq,
    realization_plan,
    squared_distances,
)
from torus_embed.geometry import check_squared_distances


def random_valid_matrix(rng, n):
    """Random squared-distance matrix satisfying the almost-regularity
    condition.

    One pair is pinned at the maximum entry so C is attained exactly; the
    deficits sum to a fraction 0.2-0.8 of C.
    """
    cmax = float(rng.uniform(0.5, 2.0)) ** 2
    pairs = n * (n - 1) // 2
    u = np.zeros(pairs)
    if pairs > 1:
        raw = rng.uniform(0.0, 1.0, pairs - 1)
        total = float(rng.uniform(0.2, 0.8))
        u[1:] = raw * (total / raw.sum())
    c = np.zeros((n, n))
    for idx, (i, j) in enumerate(combinations(range(n), 2)):
        c[i, j] = c[j, i] = cmax * (1.0 - u[idx])
    return c


def realize(sq):
    """The plan's Euclidean realization: one coordinate per cut, the cut's
    side on its points and 0 elsewhere."""
    plan = realization_plan(sq)
    z = np.zeros((plan.n_points, len(plan.cuts)))
    for k, (members, side) in enumerate(plan.cuts):
        z[list(members), k] = side
    return z, plan


def test_check_regular_matrix():
    c = 0.49 * (np.ones((4, 4)) - np.eye(4))
    valid, margin = check_almost_regular(c)
    assert valid
    assert margin == pytest.approx(0.49, rel=1e-14)


def test_check_rejecting_large_deficit():
    # C = 1, both other entries 0.25: deficit 2 * 0.75 = 1.5 >= 1
    c = np.array([[0.0, 1.0, 0.25], [1.0, 0.0, 0.25], [0.25, 0.25, 0.0]])
    valid, margin = check_almost_regular(c)
    assert not valid
    assert margin == pytest.approx(-0.5, rel=1e-14)
    # deficits whose sum passes the largest double: far from regular
    c = np.ones((4, 4)) - np.eye(4)
    c[0, 1] = c[1, 0] = 4e307
    assert check_almost_regular(c) == (False, -math.inf)


def test_check_structure_errors():
    with pytest.raises(InputError):
        check_almost_regular([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(InputError):
        check_almost_regular([[1.0, 1.0], [1.0, 0.0]])  # nonzero diagonal
    with pytest.raises(InputError):
        check_almost_regular([[0.0, 0.0], [0.0, 0.0]])  # zero off-diagonal


EDGE_MATRICES = {
    # entries near the largest double whose magnitudes still sum to a double
    "near-max-2": 8.9e307 * (np.ones((2, 2)) - np.eye(2)),
    "near-max-3": 2.9e307 * np.array([[0.0, 1.0, 0.9], [1.0, 0.0, 0.8], [0.9, 0.8, 0.0]]),
    # margins of the smallest subnormal double
    "margin-5e-324-2": np.array([[0.0, 5e-324], [5e-324, 0.0]]),
    "margin-5e-324-3": np.array(
        [
            [0.0, 2.2250738585072014e-308, 2.2250738585072014e-308],
            [2.2250738585072014e-308, 0.0, 5e-324],
            [2.2250738585072014e-308, 5e-324, 0.0],
        ]
    ),
}


@pytest.mark.parametrize("name", EDGE_MATRICES)
def test_cut_sides_finite_and_positive_at_the_edges(name):
    c = EDGE_MATRICES[name]
    plan = realization_plan(c)
    sides = [side for _, side in plan.cuts]
    if name.startswith("margin"):
        assert check_almost_regular(c).margin == 5e-324
    if plan.cuts[0][0] == (0,):
        assert plan.slack == check_almost_regular(c).margin > 0.0
    else:
        # the pair plan's smallest weight, which the matrix's scale can put
        # below the smallest subnormal double: 2**-1075 rounds to 0.0 at
        # margin-5e-324-3, though its side, 2**-537.5, is a normal double
        assert plan.slack == pytest.approx(min(sides) ** 2, rel=1e-14)
        assert (plan.slack == 0.0) == (name == "margin-5e-324-3")
    assert len(sides) >= c.shape[0]
    assert all(math.isfinite(side) and side > 0.0 for side in sides)
    spec, _ = embed_almost_regular(plan, 3)
    assert all(math.isfinite(f.r) and f.r > 0.0 for f in spec.factors)


def test_realize_regular_matrix_collapses_to_base_simplex():
    c = 1.69 * (np.ones((5, 5)) - np.eye(5))
    z, plan = realize(c)
    assert [members for members, _ in plan.cuts] == [(k,) for k in range(5)]
    assert math.sqrt(plan.slack) == pytest.approx(1.3, rel=1e-14)
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_allclose(squared_distances(z)[off], 1.69, rtol=1e-12)


def test_realize_two_points():
    c = np.array([[0.0, 0.1764], [0.1764, 0.0]])
    z, plan = realize(c)
    assert [members for members, _ in plan.cuts] == [(0,), (1,)]
    assert float(np.sum((z[0] - z[1]) ** 2)) == pytest.approx(0.1764, rel=1e-13)


def test_realize_single_point():
    with pytest.raises(TrivialInput):
        realization_plan([[0.0]])


def test_realize_near_regular_four_points():
    rng = np.random.default_rng(19)
    c = np.zeros((4, 4))
    vals = rng.uniform(0.99, 1.0, 6)
    vals[0] = 1.0
    for idx, (i, j) in enumerate(combinations(range(4), 2)):
        c[i, j] = c[j, i] = vals[idx]
    z, _ = realize(c)
    d2 = squared_distances(z)
    for i, j in combinations(range(4), 2):
        assert d2[i, j] == pytest.approx(c[i, j], rel=1e-10)


def test_realize_rejects_invalid():
    c = np.array([[0.0, 1.0, 0.25], [1.0, 0.0, 0.25], [0.25, 0.25, 0.0]])
    with pytest.raises(NotAlmostRegular):
        realization_plan(c)


def test_realization_identity_random():
    # squared distance == margin + sum of deficits - own pair's deficit
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        c = random_valid_matrix(rng, n)
        z, plan = realize(c)
        cmax = c.max()
        _, margin = check_almost_regular(c)
        total_deficit = sum(cmax - c[i, j] for i, j in combinations(range(n), 2))
        d2 = squared_distances(z)
        for s, t in combinations(range(n), 2):
            expected = margin + total_deficit - (cmax - c[s, t])
            assert abs(d2[s, t] - expected) <= 1e-10 * cmax


def test_realization_output_is_simplex_and_factor_count_bounded():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        c = random_valid_matrix(rng, n)
        z, plan = realize(c)
        assert is_simplex(z)
        assert len(plan.cuts) <= n * (n + 1) // 2 - 1


def test_embed_regular_matrix_into_triangles():
    c = np.ones((3, 3)) - np.eye(3)
    spec, points = embed_almost_regular(realization_plan(c), 3)
    assert len(spec.factors) == 3
    assert all(f.m == 3 for f in spec.factors)
    for i, j in combinations(range(3), 2):
        assert pairwise_sq(spec, (points[i], points[j]))[0, 1] == pytest.approx(1.0, rel=1e-12)


def test_embed_two_points_single_pair():
    c = np.array([[0.0, 0.81], [0.81, 0.0]])
    spec, points = embed_almost_regular(realization_plan(c), 5)
    assert len(spec.factors) == 2  # one 2-vertex base simplex only
    assert pairwise_sq(spec, (points[0], points[1]))[0, 1] == pytest.approx(0.81, rel=1e-12)


def test_embed_orders_by_size():
    # an order near 2**80 embeds to its distances; one whose unit side
    # 2 sin(pi/m) is not a normal double is refused by name, where a unit
    # side of 0.0 once raised ZeroDivisionError
    plan = realization_plan(np.ones((3, 3)) - np.eye(3))
    for m in (2**80 - 1, 2**80 + 1):
        spec, points = embed_almost_regular(plan, m)
        d2 = pairwise_sq(spec, points)[np.triu_indices(3, 1)]
        assert d2 == pytest.approx(1.0, rel=1e-12)
    for m in (2**1030, 10**400):
        with pytest.raises(InputError, match="^polygon order must "):
            embed_almost_regular(plan, m)
        with pytest.raises(InputError, match="^polygon order must "):
            embed_regular_simplex(3, 1.0, m)


@pytest.mark.parametrize(
    "plan", [np.ones((3, 3)) - np.eye(3), [[0.0, 1.0], [1.0, 0.0]], None],
    ids=["array", "list", "none"],
)
def test_embed_refuses_what_is_not_a_plan(plan):
    # a matrix is planned first, with realization_plan
    named = f"plan must be a RealizationPlan, got {type(plan).__name__}"
    with pytest.raises(InputError, match=named):
        embed_almost_regular(plan, 3)


@pytest.mark.parametrize("member", [3, 5, -1, 1.5, True, "1"])
def test_embed_refuses_a_cut_member_out_of_range(member):
    # an index past the points, 1.5 or True would raise IndexError, "1"
    # TypeError, and -1 would mark the last point; each is refused by the
    # cut's place in plan.cuts
    plan = RealizationPlan(3, 1.0, (((0,), 1.0), ((1, member), 1.0)))
    with pytest.raises(InputError, match=r"^plan\.cuts\[1\] must hold points in range\(3\)"):
        embed_almost_regular(plan, 3)


@pytest.mark.parametrize(
    "plan, named",
    [
        (RealizationPlan(-2, 1.0, (((0,), 1.0),)), r"plan\.n_points must be an integer >= 1"),
        (RealizationPlan(2.5, 1.0, (((0,), 1.0),)), r"plan\.n_points must be an integer >= 1"),
        (RealizationPlan(3, 1.0, ()), r"plan\.cuts must be a nonempty tuple or list"),
        (RealizationPlan(3, 1.0, None), r"plan\.cuts must be a nonempty tuple or list"),
        (RealizationPlan(3, 1.0, (((0,), 1.0), ((1,), -1.0))),
         r"plan\.cuts\[1\] side must be a positive finite number, got -1\.0"),
        (RealizationPlan(3, 1.0, (((0,), math.nan), ((1,), 1.0))),
         r"plan\.cuts\[0\] side must be a positive finite number, got nan"),
        (RealizationPlan(3, 1.0, (((0,), 1.0), ((1,), "1.0"))),
         r"plan\.cuts\[1\] side must be a positive finite number, got '1\.0'"),
        (RealizationPlan(3, 1.0, (((0,), 1.0), ((1,), True))),
         r"plan\.cuts\[1\] side must be a positive finite number, got True"),
        (RealizationPlan(3, 1.0, (((0,), 1.0), ((1,), 10**400))),
         r"plan\.cuts\[1\] side must be a positive finite number"),
        # a cut that is not a (members, side) pair
        (RealizationPlan(2, 1.0, ((0,),)), r"plan\.cuts\[0\] must be a \(members, side\) pair"),
        (RealizationPlan(2, 1.0, ((0, 1.0),)),
         r"plan\.cuts\[0\] must be a \(members, side\) pair"),
        (RealizationPlan(2, 1.0, (((0,), 1.0), ((1,), 1.0, 2))),
         r"plan\.cuts\[1\] must be a \(members, side\) pair"),
        (RealizationPlan(2, 1.0, (((0,), 1.0, 2),)),
         r"plan\.cuts\[0\] must be a \(members, side\) pair"),
    ],
    ids=["n-negative", "n-float", "no-cuts", "cuts-none", "side-negative", "side-nan",
         "side-string", "side-bool", "side-past-double", "cut-one-item", "cut-members-int",
         "cut-three-items-later", "cut-three-items"],
)
def test_embed_refuses_a_plan_field_by_name(plan, named):
    with pytest.raises(InputError, match="^" + named):
        embed_almost_regular(plan, 3)


def test_embed_takes_integer_and_float_subclass_sides():
    # an int side reads as a float, as check_real reads it, and so does
    # numpy's float64
    want = embed_almost_regular(RealizationPlan(2, 1.0, (((0,), 2.0), ((1,), 1.0))), 3)
    for side in (2, np.float64(2.0)):
        assert embed_almost_regular(RealizationPlan(2, 1.0, (((0,), side), ((1,), 1.0))), 3) == want


def test_embed_five_points_near_regular():
    rng = np.random.default_rng(77)
    c = random_valid_matrix(rng, 5)
    spec, points = embed_almost_regular(realization_plan(c), 4)
    for i, j in combinations(range(5), 2):
        assert pairwise_sq(spec, (points[i], points[j]))[0, 1] == pytest.approx(
            c[i, j], rel=1e-10
        )


def test_embed_matches_realization_distances():
    rng = np.random.default_rng(101)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        c = random_valid_matrix(rng, n)
        z, _ = realize(c)
        spec, points = embed_almost_regular(realization_plan(c), 6)
        dz = squared_distances(z)
        cmax = c.max()
        for i, j in combinations(range(n), 2):
            dt = pairwise_sq(spec, (points[i], points[j]))[0, 1]
            assert abs(dt - dz[i, j]) <= 1e-10 * cmax


def test_plan_skips_zero_side_pairs():
    c = np.ones((4, 4)) - np.eye(4)
    c[0, 1] = c[1, 0] = 1.0 - 2.0**-52  # the smallest deficit below 1
    plan = realization_plan(c)
    # the (0, 1) deficit gives side 2**-26 sqrt(1/2) and is kept; exact ties
    # are dropped
    plan_regular = realization_plan(np.ones((4, 4)) - np.eye(4))
    assert len(plan_regular.cuts) == 4
    assert len(plan.cuts) == 5
    assert plan.cuts[-1] == ((0, 1), 2.0**-26 * math.sqrt(0.5))


def test_embed_one_factor_per_cut():
    # one factor per cut, in the plan's order: the pair plan's n(n - 1)/2
    # pairs in row-major order for n = 3 and n >= 5, else n singleton cuts
    # plus one per kept pair; the pair attaining C is never kept, so two
    # points take exactly two factors
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for _ in range(5):
            c = random_valid_matrix(rng, n)
            plan = realization_plan(c)
            margin, kept = reference_deficits(c)
            spec, points = embed_almost_regular(plan, 3)
            cuts = [
                tuple(s for s in range(n) if points[s].indices[k])
                for k in range(len(spec.factors))
            ]
            assert [members for members, _ in plan.cuts] == cuts
            assert len(kept) <= n * (n - 1) // 2 - 1
            if pair_plan_applies(n, kept):
                assert cuts == list(combinations(range(n), 2))
                # weights against a dense solve of the cut system A w = c
                upper = c[np.triu_indices(n, 1)]
                weights = np.linalg.solve(triangular_graph(n), upper)
                np.testing.assert_allclose([side**2 for _, side in plan.cuts], weights, rtol=1e-12)
                continue
            assert n in (2, 4)
            assert len(spec.factors) == n + len(kept)
            if n == 2:
                assert len(spec.factors) == 2
            pairs = [(i, j) for i, j, _ in kept]
            assert cuts == [(k,) for k in range(n)] + pairs
            # weights against the loop over the simplices' one-hot cuts
            weights = [margin / 2] * n
            for i, j, d in kept:
                for s in range(n):
                    if s not in (i, j):
                        weights[s] += d / 2
            weights += [d / 2 for _, _, d in kept]
            for (_, side), w in zip(plan.cuts, weights):
                assert side**2 == pytest.approx(w, rel=1e-13)


def triangular_graph(n):
    """The pair cuts' cut matrix: entry (p, q) is 1 when pairs p and q, in
    row-major order, share exactly one point, so that cut q splits pair p."""
    pairs = list(combinations(range(n), 2))
    return np.array([[float(len(set(p) & set(q)) == 1) for q in pairs] for p in pairs])


@pytest.mark.parametrize("n", [3, *range(5, 13)])
def test_pair_weights_match_a_dense_solve(n):
    # the closed form A^-1 = xI + yA + zJ, in deficit form, against
    # np.linalg.solve on the pipeline's kind of matrix and on spread deficits
    rng = np.random.default_rng(n)
    a = triangular_graph(n)
    iu = np.triu_indices(n, 1)
    for trial in range(6):
        if trial % 2:
            c = random_valid_matrix(rng, n)
        else:
            e = rng.uniform(-1.0, 1.0, (n, n)) * 0.1 / n**2
            c = 1.0 + (e + e.T) / 2
            np.fill_diagonal(c, 0.0)
        c = c * 10.0 ** rng.uniform(-100, 100)
        plan = realization_plan(c)
        assert [members for members, _ in plan.cuts] == list(combinations(range(n), 2))
        weights = np.array([side**2 for _, side in plan.cuts])
        np.testing.assert_allclose(weights, np.linalg.solve(a, c[iu]), rtol=1e-12)
        assert len(plan.cuts) == n * (n - 1) // 2


def test_singleton_plan_kept_where_pair_cuts_do_not_win():
    # n = 2 and 4, where the pair cuts' cut matrix is singular, and a regular
    # simplex at any n, whose n singleton cuts are never more than its
    # pairs, keep the singleton plan with the cuts and bits that version
    # 0.13.0 planned
    c4 = np.array(
        [[0.0, 1.0, 0.9, 0.95], [1.0, 0.0, 0.97, 0.99], [0.9, 0.97, 0.0, 0.93],
         [0.95, 0.99, 0.93, 0.0]]
    )
    plan = realization_plan(c4)
    assert plan.slack.hex() == "0x1.7ae147ae147aep-1"
    assert [(members, side.hex()) for members, side in plan.cuts] == [
        ((0,), "0x1.4dc87d61451dbp-1"), ((1,), "0x1.62b9586ad0a22p-1"),
        ((2,), "0x1.43d136248490fp-1"), ((3,), "0x1.51afebd98a146p-1"),
        ((0, 2), "0x1.c9f25c5bfedd9p-3"), ((0, 3), "0x1.43d1362484912p-3"),
        ((1, 2), "0x1.f5a7cecdb684fp-4"), ((1, 3), "0x1.21a1851ff630dp-4"),
        ((2, 3), "0x1.7f254dab9cc39p-3"),
    ]
    plan = realization_plan([[0.0, 0.7], [0.7, 0.0]])
    assert [(members, side.hex()) for members, side in plan.cuts] == [
        ((0,), "0x1.2ee73dadc9b58p-1"), ((1,), "0x1.2ee73dadc9b58p-1"),
    ]
    for n in range(2, 10):
        spec, points = embed_regular_simplex(n, 1.3, 7)
        assert [f.r.hex() for f in spec.factors] == ["0x1.0f2f3ef289446p+0"] * n
        assert [p.indices for p in points] == [
            tuple(int(k == s) for k in range(n)) for s in range(n)
        ]
    # at n = 5 the two plans tie at five positive deficits: the singleton
    # plan stays; at six the pair plan has fewer cuts
    for positive, cuts in ((5, 10), (6, 10)):
        c = np.ones((5, 5)) - np.eye(5)
        for i, j in list(combinations(range(5), 2))[:positive]:
            c[i, j] = c[j, i] = 0.99
        plan = realization_plan(c)
        assert len(plan.cuts) == cuts
        assert (plan.cuts[0][0] == (0,)) == (positive == 5)


def test_torus_vertex_pattern_matches_realization_support():
    # a point sits on vertex 1 of a cut's polygon exactly where its
    # coordinate for that cut is nonzero
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        c = random_valid_matrix(rng, n)
        z, _ = realize(c)
        _, points = embed_almost_regular(realization_plan(c), 3)
        np.testing.assert_array_equal(np.array([p.indices for p in points]) == 1, z != 0)


def test_embed_reproduces_distances_tightly():
    rng = np.random.default_rng(12)
    for n in range(2, 9):
        for m in (2, 3, 5, 12):
            c = random_valid_matrix(rng, n)
            spec, points = embed_almost_regular(realization_plan(c), m)
            for i, j in combinations(range(n), 2):
                d2 = pairwise_sq(spec, (points[i], points[j]))[0, 1]
                assert abs(d2 - c[i, j]) <= 1e-12 * c[i, j]


def test_embed_is_bytewise_deterministic():
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        c = random_valid_matrix(rng, n)
        texts = []
        for _ in range(2):
            spec, points = embed_almost_regular(realization_plan(c.copy()), 3)
            cert = EmbeddingCertificate(c, spec, tuple(points), {}, {}, {})
            texts.append(dumps_certificate(cert))
        assert texts[0] == texts[1]


def test_cut_weights_do_not_underflow():
    # the margin is the smallest subnormal double; no weight is halved
    # before its square root, so the sides are sqrt(5e-324) * sqrt(1/2)
    plan = realization_plan([[0.0, 5e-324], [5e-324, 0.0]])
    assert plan.slack == 5e-324
    spec, points = embed_almost_regular(plan, 3)
    assert len(spec.factors) == 2
    for _, side in plan.cuts:
        assert side == pytest.approx(math.sqrt(plan.slack) / math.sqrt(2.0), rel=1e-15)


def reference_deficits(sq):
    """The margin and the kept pairs' (i, j, deficit) by a plain loop over
    the pairs: C minus the exact sum of the deficits, rounded once."""
    c = check_squared_distances(sq)
    pairs = list(combinations(range(c.shape[0]), 2))
    cmax = max((float(c[p]) for p in pairs), default=0.0)
    deficits = [(i, j, cmax - float(c[i, j])) for i, j in pairs]
    margin = cmax - float(sum(Fraction(d) for _, _, d in deficits))
    return margin, [(i, j, d) for i, j, d in deficits if d > 0.0]


def pair_plan_applies(n, kept):
    """The pair plan for n = 3 and n >= 5 is preferred when its n(n - 1)/2
    cuts are fewer than the singleton plan's n plus one per kept pair
    (almost_regular docstring); it also applies where the singleton plan's
    margin is not positive."""
    return n not in (2, 4) and n * (n - 1) // 2 < n + len(kept)


def reference_pair_cuts(sq):
    """The pair plan's cuts by plain loops: C and the deficits scaled by the
    power of four 4^-k that puts C in [1, 4), the row sums D added one
    column at a time, the exact sum of the deficits rounded once, and each
    weight C/(2(n - 2)) - (x d_p + y (D_i + D_j - 2 d_p) + z sum d) by the
    same float expression; each side is sqrt(w) * 2^k."""
    c = check_squared_distances(sq)
    n = c.shape[0]
    pairs = list(combinations(range(n), 2))
    cmax = max(float(c[p]) for p in pairs)
    k = (math.frexp(cmax)[1] - 1) // 2
    scaled = math.ldexp(cmax, -2 * k)
    d = {p: math.ldexp(cmax - float(c[p]), -2 * k) for p in pairs}
    total = float(sum(Fraction(v) for v in d.values()))
    rows = [0.0] * n
    for s in range(n):
        for t in range(n):
            if t != s:
                rows[s] += d[min(s, t), max(s, t)]
    x, y, z = (6 - n) / (2 * n - 8), 1 / (2 * n - 8), -1 / ((n - 2) * (n - 4))
    weights = []
    for i, j in pairs:
        adjacent = (rows[i] + rows[j]) - 2.0 * d[i, j]
        weights.append(scaled / (2 * (n - 2)) - (x * d[i, j] + y * adjacent + z * total))
    low = min(range(len(pairs)), key=weights.__getitem__)
    if not weights[low] > 0.0:
        raise NotAlmostRegular(
            f"pair cut {pairs[low]} has weight {weights[low] / scaled:.6e} C, must be positive"
        )
    cuts = tuple((p, math.ldexp(math.sqrt(w), k)) for p, w in zip(pairs, weights))
    return cuts, math.ldexp(weights[low], 2 * k)


def reference_plan(sq):
    """(cuts, slack) of realization_plan, one cut at a time: the singleton
    plan where the pair plan is not preferred and the margin is positive,
    else, for n = 3 and n >= 5, the pair plan, each side sqrt(twice the
    weight) * sqrt(1/2), the singleton's twice-weight summed from the margin
    over the kept pairs without the point; (cuts, slack)."""
    n = check_squared_distances(sq).shape[0]
    margin, kept = reference_deficits(sq)
    if n < 2:
        raise TrivialInput("a realization plan needs at least two points")
    if pair_plan_applies(n, kept) or (n not in (2, 4) and not margin > 0.0):
        return reference_pair_cuts(sq)
    if not margin > 0.0:
        raise NotAlmostRegular(f"almost-regularity margin is {margin:.6e}, must be positive")
    cuts = []
    for k in range(n):
        twice = margin
        for i, j, d in kept:
            if k not in (i, j):
                twice += d
        cuts.append(((k,), math.sqrt(twice) * math.sqrt(0.5)))
    cuts.extend(((i, j), math.sqrt(d) * math.sqrt(0.5)) for i, j, d in kept)
    return tuple(cuts), margin


def test_plan_matches_reference_bitwise():
    rng = np.random.default_rng(77)
    for trial in range(60):
        n = int(rng.integers(1, 10))
        if trial % 3 == 0:
            # the pipeline's kind: alpha^2 + e_ij with tiny e_ij
            e = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-14, -2) / n**2
            c = 1.0 + (e + e.T) / 2
            np.fill_diagonal(c, 0.0)
        elif n > 1:
            c = random_valid_matrix(rng, n)
        else:
            c = np.zeros((1, 1))
        c = c * 10.0 ** rng.uniform(-200, 200)
        if trial % 7 == 0 and n > 2:
            c[0, 1] = c[1, 0] = 1e-6 * c.max()  # far from almost regular
        try:
            ref = reference_plan(c)
        except (NotAlmostRegular, TrivialInput) as exc:
            with pytest.raises(type(exc)) as got:
                realization_plan(c)
            assert str(got.value) == str(exc)
            continue
        plan = realization_plan(c)
        assert plan.n_points == n
        assert (plan.cuts, plan.slack) == ref


def test_pair_weight_lost_to_rounding_is_refused():
    # five points whose deficits all touch pair (0, 1) and leave a margin
    # of 1e-16 C to 1e-14 C: then w_01 is exactly margin/6, below the
    # rounding of the terms that cancel to it, so some computed weights are
    # not positive and the plan refuses them by name, as the reference does
    rng = np.random.default_rng(7)
    near = [(i, j) for i, j in combinations(range(5), 2) if {i, j} & {0, 1}]
    refused = 0
    for _ in range(60):
        c = np.ones((5, 5)) - np.eye(5)
        share = rng.uniform(0.0, 1.0, len(near))
        share *= (1.0 - 10.0 ** rng.uniform(-16, -14)) / share.sum()
        for (i, j), d in zip(near, share):
            c[i, j] = c[j, i] = 1.0 - d
        if not check_almost_regular(c).valid:
            continue
        try:
            ref = reference_plan(c)
        except NotAlmostRegular as exc:
            refused += 1
            with pytest.raises(NotAlmostRegular) as got:
                realization_plan(c)
            assert str(got.value) == str(exc)
            assert str(exc).startswith("pair cut (0, 1) has weight ")
            continue
        plan = realization_plan(c)
        assert (plan.cuts, plan.slack) == ref
    assert refused


@st.composite
def almost_regular_matrices(draw, sizes=st.integers(2, 9)):
    """A random almost-regular squared-distance matrix, n drawn from `sizes`,
    with C in [1, 2), every deficit at most C/2 and their sum below C; ties
    with C included."""
    n = draw(sizes)
    pairs = n * (n - 1) // 2
    cmax = draw(st.floats(1.0, 2.0, exclude_max=True))
    shares = draw(st.lists(st.floats(0.0, 1.0), min_size=pairs, max_size=pairs))
    slack = draw(st.floats(1e-6, 1.0, exclude_max=True))
    total = sum(shares)
    c = np.zeros((n, n))
    for (i, j), share in zip(combinations(range(n), 2), shares):
        c[i, j] = c[j, i] = cmax - (1.0 - slack) * cmax * share / max(total, 2.0)
    c[0, 1] = c[1, 0] = cmax
    return c


# entries stay normal for 4**k scalings with C in [1, 2) down to every entry
# above the smallest normal double, and up to a finite sum of magnitudes
@settings(max_examples=60, deadline=None)
@given(almost_regular_matrices(), st.data())
def test_plan_covariant_under_scaling_by_powers_of_four(c, data):
    plan = realization_plan(c)
    lo, hi = math.frexp(float(c[c > 0].min()))[1], math.frexp(float(c.sum()))[1]
    k = data.draw(st.integers((-1021 - lo) // 2 + 1, (1023 - hi) // 2 - 1), label="k")
    scaled = c * 4.0**k
    assert float(scaled[scaled > 0].min()) >= np.finfo(float).tiny
    got = realization_plan(scaled)
    assert got.slack == plan.slack * 4.0**k
    assert [members for members, _ in got.cuts] == [members for members, _ in plan.cuts]
    assert [side for _, side in got.cuts] == [side * 2.0**k for _, side in plan.cuts]
    z, _ = realize(c)
    n = c.shape[0]
    off = ~np.eye(n, dtype=bool)
    np.testing.assert_allclose(squared_distances(z)[off], c[off], rtol=1e-12)


def pair_weight_bound(n, cmax, d, p):
    """The lower bound of the almost_regular docstring on the weight of pair
    cut p, exactly, from C and the deficits d by pair: (C - (Ad)_p)/(2(n - 2))
    for n >= 6, (C - d_p - (Ad)_p)/6 for n = 5 and (C - sum d)/2 for n = 3."""
    adjacent = sum(v for q, v in d.items() if len(set(p) & set(q)) == 1)
    if n == 3:
        return (cmax - sum(d.values())) / 2
    if n == 5:
        return (cmax - d[p] - adjacent) / 6
    return (cmax - adjacent) / (2 * (n - 2))


@settings(max_examples=150, deadline=None)
@given(almost_regular_matrices(st.sampled_from([3, *range(5, 13)])))
def test_pair_weights_meet_their_lower_bounds(c):
    # every weight of the pair plan is at least its bound, which is positive
    # whenever the margin is: the plan's positivity check never fires on a
    # matrix that is almost regular in exact arithmetic
    n = c.shape[0]
    _, kept = reference_deficits(c)
    plan = realization_plan(c)
    if not pair_plan_applies(n, kept):
        assert plan.cuts[0][0] == (0,)
        return
    cmax = Fraction(float(c.max()))
    d = {p: cmax - Fraction(float(c[p])) for p in combinations(range(n), 2)}
    assert cmax - sum(d.values()) > 0
    for p, side in plan.cuts:
        bound = pair_weight_bound(n, cmax, d, p)
        assert bound > 0
        assert side**2 >= float(bound) - 1e-13 * float(cmax)


@st.composite
def pair_weighted_matrices(draw):
    """A squared-distance matrix A w for n in {3, 5, ..., 9}, with pair
    weights w_p = 1 - s r_p for r_p in [0, 1] and a spread s in [0, 3/2]:
    near-uniform weights with a positive margin, spread ones with none, and
    some weights 0.0 or negative, so that the pair plan's decision is met on
    both sides and at its boundary."""
    n = draw(st.sampled_from([3, *range(5, 10)]))
    pairs = n * (n - 1) // 2
    spread = draw(st.floats(0.0, 1.5))
    r = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=pairs, max_size=pairs)))
    upper = triangular_graph(n) @ (1.0 - spread * r)
    assume(float(upper.min()) > 0.0)
    c = np.zeros((n, n))
    c[np.triu_indices(n, 1)] = upper
    return c + c.T


def test_pair_plan_decided_by_its_own_weights():
    # for n = 3 and 5 to 9 the plan is the pair plan exactly when the dense
    # solve of A w = c is positive, whatever the margin M is, beyond a width
    # of 1e-10 C, which rounding cannot cross; inside it a matrix is
    # undecided and only counted. A singleton plan needs a positive M and
    # fewer cuts, and a refusal names a pair cut
    counts = Counter()

    @settings(max_examples=300, deadline=None)
    @given(pair_weighted_matrices())
    def decide(c):
        n = c.shape[0]
        iu = np.triu_indices(n, 1)
        low = float(np.linalg.solve(triangular_graph(n), c[iu]).min())
        width = 1e-10 * float(c.max())
        margin, kept = reference_deficits(c)
        if abs(low) <= width:
            outcome = "undecided"
        elif low < 0.0:
            outcome = "refused"
            with pytest.raises(NotAlmostRegular, match=r"^pair cut \(\d+, \d+\) has weight "):
                realization_plan(c)
        else:
            plan = realization_plan(c)
            if plan.cuts[0][0] == (0,):
                outcome = "singleton"
                assert margin > 0.0 and not pair_plan_applies(n, kept)
            else:
                outcome = "pair, M > 0" if margin > 0.0 else "pair, M <= 0"
                assert [members for members, _ in plan.cuts] == list(combinations(range(n), 2))
                assert plan.slack == pytest.approx(low, rel=1e-9)
        counts[outcome] += 1

    decide()
    # both sides are met, and pair plans that the margin rule would refuse;
    # the tally names the undecided count, 0 to 7 of 300 in five seeded runs
    tally = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    assert counts["refused"] and counts["pair, M > 0"] and counts["pair, M <= 0"], tally
    assert counts["undecided"] < sum(counts.values()) // 4, tally


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(
    lambda n: st.lists(st.floats(0.05, 1.0), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
))
def test_singleton_plan_decided_by_its_margin(upper):
    # n = 2 and 4, where the pair cuts' cut matrix is singular, keep the
    # proven rule: the singleton plan exactly when the margin M is positive,
    # with M as its slack
    n = 2 if len(upper) == 1 else 4
    c = np.zeros((n, n))
    c[np.triu_indices(n, 1)] = upper
    c = c + c.T
    margin = check_almost_regular(c).margin
    if margin > 0.0:
        plan = realization_plan(c)
        assert plan.slack == margin
        assert [members for members, _ in plan.cuts][:n] == [(k,) for k in range(n)]
    else:
        with pytest.raises(NotAlmostRegular, match=r"^almost-regularity margin is "):
            realization_plan(c)
