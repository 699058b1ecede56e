"""Tests for the polygonal torus model and chord metric."""

import math
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_embed import (
    EmbeddingCertificate,
    InputError,
    InvalidCertificate,
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    chord,
    embed_regular_simplex,
    embed_simplex,
    generate_points,
    pairwise_sq,
    shift,
    verify_certificate,
)
from torus_embed import torus


def mp_chord(m, r, dj):
    """High-precision chord oracle, independent of the float code path."""
    with mpmath.workdps(50):
        k = dj % m
        k = min(k, m - k)
        return float(2 * mpmath.mpf(r) * mpmath.sin(mpmath.pi * mpmath.mpf(k) / m))


def test_chord_hexagon_diameter():
    assert chord(6, 1.0, 3) == 2.0


def test_chord_square_diagonal_step():
    assert chord(4, 1.0, 1) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_chord_triangle_unit_side():
    assert chord(3, 1 / math.sqrt(3), 1) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize(
    "m,dj",
    [
        (10**21 + 7, 12345),
        (10**21 + 7, (10**21 + 7) // 2),
        (10**40 + 3, 10**39),
        (97, 13),
    ],
)
def test_chord_matches_high_precision_oracle(m, dj):
    assert chord(m, 2.5, dj) == pytest.approx(mp_chord(m, 2.5, dj), rel=1e-13)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=10**30),
    st.integers(min_value=0, max_value=10**31),
)
def test_chord_symmetry_and_periodicity(m, dj):
    assert chord(m, 1.5, dj) == chord(m, 1.5, m - dj % m)
    assert chord(m, 1.5, dj) == chord(m, 1.5, dj + m)
    assert chord(m, 1.5, dj) == chord(m, 1.5, -dj)


@pytest.mark.parametrize("m", [2, 3, 7, 100, 10001])
def test_chord_monotone_in_step(m):
    values = [chord(m, 1.0, k) for k in range(m // 2 + 1)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_torus_distance_identical_points():
    t = TorusSpec((PolygonSpec(5, 1.0), PolygonSpec(7, 2.0)))
    p = TorusPoint((1, 3))
    assert pairwise_sq(t, (p, p))[0, 1] == 0.0


def test_zero_step_is_zero_on_huge_radius():
    # 2.0 * r overflows to inf for r above ~9e307, and inf * sin(0) is nan
    for dj in (0, 5, -10):
        assert chord(5, 1e308, dj) == 0.0
    t = TorusSpec((PolygonSpec(5, 1e308),))
    p = TorusPoint((2,))
    assert pairwise_sq(t, (p, p))[0, 1] == 0.0
    assert math.copysign(1.0, chord(5, 1.0, 0)) == 1.0  # +0.0, as before


def test_torus_distance_two_square_factors():
    t = TorusSpec((PolygonSpec(4, 1.0), PolygonSpec(4, 1.0)))
    d2 = pairwise_sq(t, (TorusPoint((0, 0)), TorusPoint((1, 1))))[0, 1]
    assert d2 == pytest.approx(4.0, rel=1e-15)


def test_torus_distance_single_factor_equals_chord():
    t = TorusSpec((PolygonSpec(11, 3.0),))
    assert pairwise_sq(t, (TorusPoint((2,)), TorusPoint((9,))))[0, 1] == chord(11, 3.0, 7) ** 2


def test_torus_distance_mismatched_factor_count():
    t = TorusSpec((PolygonSpec(4, 1.0),))
    with pytest.raises(InputError):
        pairwise_sq(t, (TorusPoint((0, 0)), TorusPoint((0, 0))))


def reference_pairwise_sq(t, points):
    """The per-pair chord loop that `pairwise_sq` replaced, kept as its
    reference: squared chords summed in factor order."""
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            total = 0.0
            for f, a, b in zip(t.factors, points[i].indices, points[j].indices):
                c = chord(f.m, f.r, a - b)
                total += c * c
            out[i, j] = out[j, i] = total
    return out


EDGE_ORDERS = (2, 3, 4, 2**52 - 1, 2**52 + 1, 2**53 - 1, 2**53, 2**53 + 1)


def edge_torus(rng, n, k, orders=EDGE_ORDERS, huge=True):
    """k factors cycling through the orders, every fourth of radius 1e308
    (where 2r overflows to inf) when huge, and n points whose indices give
    zero steps, signed and out-of-range steps, and indices past int64."""
    factors = tuple(
        PolygonSpec(
            orders[i % len(orders)],
            1e308 if huge and i % 4 == 1 else rng.uniform(0.1, 100.0),
        )
        for i in range(k)
    )
    first = [rng.randrange(f.m) for f in factors]
    points = [
        TorusPoint(tuple(
            rng.choice((
                a + rng.randint(-3, 3) * f.m,  # a zero step to point 0
                a + rng.choice((-1, 1)) * 10**30 * f.m,
                rng.randrange(-3 * f.m, 3 * f.m),
                rng.randrange(-(10**30), 10**30),
            ))
            for f, a in zip(factors, first)
        ))
        for _ in range(n)
    ]
    return TorusSpec(factors), points


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_pairwise_sq_matches_reference_loop_bitwise(n):
    import random

    rng = random.Random(n)
    cases = []
    for _ in range(40 if n < 24 else 4):
        factors = tuple(
            PolygonSpec(rng.randrange(2, 10**rng.randint(1, 24)) + 2, rng.uniform(0.1, 100.0))
            for _ in range(rng.randint(1, 6))
        )
        # signed and out-of-range indices: the chord folds any difference
        points = [
            TorusPoint(tuple(rng.randrange(-3 * f.m, 3 * f.m) for f in factors))
            for _ in range(n)
        ]
        cases.append((TorusSpec(factors), points))
    # small and big orders interleaved; 24 points x 80 factors span several blocks
    cases += [edge_torus(rng, n, k) for k in (1, 2, 7, 12, 80 if n == 24 else 30)]
    # small orders above the cut orders 2 and 3, near twice the pair count
    npairs = n * (n - 1) // 2
    cases.append(edge_torus(rng, n, 8, tuple(max(4, 2 * npairs + e) for e in (-1, 0, 1, 2))))
    # runs of cut factors (orders 2 and 3) broken up by big orders, every
    # index value in their columns; at 24 points the long runs span several
    # blocks. Finite radii, where a sum in another order would change the
    # bits, and every fourth radius 1e308
    cuts = (3,) * 40 + (2**53 + 1,) + (2, 3) * 9 + (2**40 + 1, 5) + (3,) * 31 + (2,) * 7
    cases += [edge_torus(rng, n, len(cuts), cuts, huge) for huge in (False, True)]
    # random orders of 20 to 53 bits, the grid's base orders, on the numpy path
    for _ in range(4):
        orders = tuple(rng.randrange(2 ** (b - 1), 2**b) for b in (20, 33, 41, 47, 52, 53))
        cases.append(edge_torus(rng, n, 12, orders))
    for t, points in cases:
        got = pairwise_sq(t, points)
        assert got.shape == (n, n)
        assert got.tobytes() == reference_pairwise_sq(t, points).tobytes()
        for i in range(min(n, 5)):
            for j in range(min(n, 5)):
                assert pairwise_sq(t, (points[i], points[j]))[0, 1] == got[i, j]
    if n > 1:  # the kernel met 2r = inf on a nonzero step
        assert np.isinf(got).any()


def pair_layout_torus(rng, n, orders=(3,), huge=False):
    """n points on a few base factors (orders of 20 to 53 bits and one of
    2**53 + 1), then one cut factor per pair {k, l} in row-major order, its
    order cycling through `orders`, with the pair's points on vertex 1 and
    the rest on vertex 0: the correction's pair layout. Radii are random,
    and every fourth cut's is 1e308 when huge, where 2r overflows to inf."""
    base = tuple(rng.randrange(2 ** (b - 1), 2**b) for b in (20, 33, 47, 53)) + (2**53 + 1,)
    pairs = list(combinations(range(n), 2))
    radii = [1e308 if huge and q % 4 == 1 else rng.uniform(0.1, 100.0) for q in range(len(pairs))]
    factors = tuple(PolygonSpec(m, rng.uniform(0.1, 100.0)) for m in base) + tuple(
        PolygonSpec(orders[q % len(orders)], r) for q, r in enumerate(radii)
    )
    points = [
        TorusPoint(
            tuple(rng.randrange(-3 * m, 3 * m) for m in base)
            + tuple(int(k in pair) for pair in pairs)
        )
        for k in range(n)
    ]
    return TorusSpec(factors), points


def near_misses(t, points):
    """Edits of a pair-layout torus that leave the layout, each named: the
    kernel must take its general paths on them."""
    factors, rows = list(t.factors), [list(p.indices) for p in points]
    n, k = len(points), len(t.factors) - 1  # k: the last cut, pair {n - 2, n - 1}

    def edited(name, edit):
        fs, rs = list(factors), [list(r) for r in rows]
        edit(fs, rs)
        return name, TorusSpec(tuple(fs)), [TorusPoint(tuple(r)) for r in rs]

    def zero_to_two(fs, rs):
        rs[0][k] = 2

    def move_a_one(fs, rs):
        rs[n - 1][k], rs[0][k] = 0, 1

    def swap_columns(fs, rs):
        fs[k - 1], fs[k] = fs[k], fs[k - 1]
        for r in rs:
            r[k - 1], r[k] = r[k], r[k - 1]

    def drop_a_cut(fs, rs):
        del fs[k]
        for r in rs:
            del r[k]

    def add_a_cut(fs, rs):
        fs.append(fs[k])
        for r in rs:
            r.append(r[k])

    def order_four(fs, rs):
        fs[k] = PolygonSpec(4, fs[k].r)

    def unfolded(fs, rs):
        rs[n - 1][k] = 4

    edits = (zero_to_two, move_a_one, swap_columns, drop_a_cut, add_a_cut, order_four, unfolded)
    return [edited(e.__name__, e) for e in edits]


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 9, 10, 11, 12, 40])
def test_pairwise_sq_pair_layout_matches_reference_bitwise(n):
    # the pair layout's own path, and its near misses on the general paths,
    # keep the bits of the per-pair loop: with finite radii, where a sum in
    # another order would change the bits, and where 2r = inf
    import random

    rng = random.Random(n)
    cases = [("layout", *pair_layout_torus(rng, n, huge=huge)) for huge in (False, True)]
    if n < 40:
        cases.append(("layout", *pair_layout_torus(rng, n, (2, 3, 3))))
        cases += near_misses(*pair_layout_torus(rng, n))
    for name, t, points in cases:
        assert torus._is_pair_layout(t.factors, points) == (name == "layout"), name
        got = pairwise_sq(t, points)
        assert got.tobytes() == reference_pairwise_sq(t, points).tobytes(), name
        assert np.isinf(got).any() == (max(f.r for f in t.factors) == 1e308), name


def test_split_table_matches_brute_force():
    # the closed form against its definition: column p lists, in ascending
    # order, every pair q (row-major) sharing exactly one point with pair p,
    # found by comparing every pair with every other
    for n in range(3, 41):
        pairs = np.array(list(combinations(range(n), 2)))
        shared = (pairs[:, None, :, None] == pairs[None, :, None, :]).sum(axis=(2, 3))
        expected = np.array([np.flatnonzero(row == 1) for row in shared]).T
        table = torus._split_table(n)
        assert table.shape == (2 * (n - 2), len(pairs))
        assert table.dtype == np.int16
        assert table.tolist() == expected.tolist(), n


def singleton_layout_torus(rng, n, huge=False):
    """n points on n - 1 base factors (orders of 20 to 27 bits, the grid's
    at 16 points), then the singleton plan's cuts: one per point {k}, then
    one per pair {k, l} in row-major order but for one pair, whose deficit
    the plan finds 0, of orders 3 and 2 in turn, each cut's points on vertex
    1 and the rest on vertex 0. Radii are random, and every fourth cut's is
    1e308 when huge, where 2r overflows to inf."""
    base = [rng.randrange(2**19, 2**27) for _ in range(n - 1)]
    pairs = list(combinations(range(n), 2))
    del pairs[rng.randrange(len(pairs))]
    cuts = [(k,) for k in range(n)] + pairs
    factors = [PolygonSpec(m, rng.uniform(0.1, 100.0)) for m in base] + [
        PolygonSpec(3 - q % 2, 1e308 if huge and q % 4 == 1 else rng.uniform(0.1, 100.0))
        for q in range(len(cuts))
    ]
    points = [
        TorusPoint(
            tuple(rng.randrange(-3 * m, 3 * m) for m in base)
            + tuple(int(k in cut) for cut in cuts)
        )
        for k in range(n)
    ]
    return TorusSpec(tuple(factors)), points


@pytest.mark.parametrize("n", [16, 32])
def test_pairwise_sq_singleton_layout_matches_reference_bitwise(n):
    # the singleton plan's cuts are not the pair layout: they run on the
    # numpy path with the base, one sine multiply per cut, in blocks that
    # mix base and cut factors. With finite radii, where a sum in another
    # order would change the bits, and where 2r = inf
    import random

    rng = random.Random(n)
    for huge in (False, True):
        t, points = singleton_layout_torus(rng, n, huge)
        assert not torus._is_pair_layout(t.factors, points)
        got = pairwise_sq(t, points)
        assert got.tobytes() == reference_pairwise_sq(t, points).tobytes()
        assert np.isinf(got).any() == huge


def test_pair_layout_certificates_send_only_the_base_to_numpy(monkeypatch):
    # embed's pair-plan certificates (n = 3 and n >= 5) hand the numpy path
    # only their n - 1 base factors, the pair layout's path takes the cuts;
    # the singleton plan (an n = 4 certificate, a regular simplex) hands it
    # its cut factors too
    pair_plan = [embed_simplex(generate_points("random", n, seed=1)) for n in (3, 5, 16)]
    four = embed_simplex(generate_points("random", 4, seed=1))
    singleton_plan = [(four.torus, four.assignment), embed_regular_simplex(6, 1.0, 3)]
    exact_chords = torus._exact_chords
    blocks = []

    def recorded(block, *args):
        blocks.append(block)
        return exact_chords(block, *args)

    monkeypatch.setattr(torus, "_exact_chords", recorded)
    for cert in pair_plan:
        blocks.clear()
        got = pairwise_sq(cert.torus, cert.assignment)
        assert got.tobytes() == reference_pairwise_sq(cert.torus, cert.assignment).tobytes()
        n = len(cert.assignment)
        assert [f for block in blocks for f in block] == list(cert.torus.factors[:n - 1])
    for t, points in singleton_plan:
        blocks.clear()
        got = pairwise_sq(t, points)
        assert got.tobytes() == reference_pairwise_sq(t, points).tobytes()
        assert [f for block in blocks for f in block] == list(t.factors)
        assert any(f.m < 4 for block in blocks for f in block)


RANGE_ORDERS = (7, 3, 2**53 - 1, 2**53 + 1, 2**62 + 5)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_kernel_reports_whether_every_index_is_in_range(n):
    # _pairwise_sq returns pairwise_sq's bits and True exactly when every
    # index lies in range(m): on the numpy path (one uint64 comparison per
    # block, so -1 fails too) and on the per-pair path (orders >= 2**53,
    # checked on the column)
    import random

    rng = random.Random(n)
    t = TorusSpec(tuple(PolygonSpec(m, rng.uniform(0.5, 2.0)) for m in RANGE_ORDERS))
    rows = [[rng.randrange(f.m) for f in t.factors] for _ in range(n)]
    got, reduced = torus._pairwise_sq(t, [TorusPoint(tuple(row)) for row in rows])
    assert reduced
    assert got.tobytes() == pairwise_sq(t, [TorusPoint(tuple(row)) for row in rows]).tobytes()
    for k, f in enumerate(t.factors):
        for bad in (f.m, -1, f.m + rng.randrange(f.m)):
            edited = [list(row) for row in rows]
            edited[-1][k] = bad
            points = [TorusPoint(tuple(row)) for row in edited]
            got, reduced = torus._pairwise_sq(t, points)
            assert not reduced, (f.m, bad)
            assert got.tobytes() == reference_pairwise_sq(t, points).tobytes()


def test_kernel_range_report_on_the_pair_layout_and_past_int64():
    # the pair layout's cuts are in range by _is_pair_layout's proof; a 3 on
    # a triangle leaves the layout and is found out of range on the numpy
    # path; a block past int64, and fewer than two points, report False
    cert = embed_simplex(generate_points("random", 5, seed=1))
    assert torus._pairwise_sq(cert.torus, cert.assignment)[1]
    rows = [list(p.indices) for p in cert.assignment]
    rows[0][4] = 3
    assert not torus._pairwise_sq(cert.torus, [TorusPoint(tuple(r)) for r in rows])[1]
    big = 2**65 + 1
    t = TorusSpec((PolygonSpec(big, 1.0), PolygonSpec(5, 1.0)))
    points = [TorusPoint((big - 1, 4)), TorusPoint((0, 0))]
    got, reduced = torus._pairwise_sq(t, points)
    assert not reduced
    assert got.tobytes() == reference_pairwise_sq(t, points).tobytes()
    assert not torus._pairwise_sq(t, [TorusPoint((0, 0))])[1]


def test_pairwise_sq_scratch_is_bounded():
    # 40 points x 600 factors: a dense pairs x factors float array alone would
    # take 3.7 MB; blocks of consecutive factors keep the heap peak far lower
    import random
    import tracemalloc

    rng = random.Random(0)
    # cut orders, other orders below 2**53 and the per-pair path
    orders = (3,) * 17 + (2, 2**53 + 1, 2**40 + 1, 1561, 2**20 + 7, 2**45 + 1, 2**53 - 1)
    t = TorusSpec(tuple(PolygonSpec(orders[i % len(orders)], 1.5) for i in range(600)))
    points = [TorusPoint(tuple(rng.randrange(f.m) for f in t.factors)) for _ in range(40)]
    # cuts outside the pair layout: 600 triangles, each column of random 0s
    # and 1s
    cuts = TorusSpec((PolygonSpec(3, 1.5),) * 600)
    cut_points = [TorusPoint(tuple(rng.randrange(2) for _ in range(600))) for _ in range(40)]
    # the pair layout: 780 triangles after the base, from a cold table cache
    pairs = pair_layout_torus(rng, 40)
    assert torus._is_pair_layout(pairs[0].factors, pairs[1])
    torus._pair_layout.cache_clear()
    torus._split_table.cache_clear()
    for t, points in ((t, points), (cuts, cut_points), pairs):
        tracemalloc.start()
        try:
            pairwise_sq(t, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def test_pairwise_sq_empty_and_mismatched():
    t = TorusSpec((PolygonSpec(4, 1.0),))
    assert pairwise_sq(t, []).shape == (0, 0)
    with pytest.raises(InputError):
        pairwise_sq(t, [TorusPoint((0,)), TorusPoint((0, 1))])


def test_shift_zero_offsets_identity():
    t = TorusSpec((PolygonSpec(5, 1.0), PolygonSpec(9, 1.0)))
    p = TorusPoint((2, 7))
    assert shift(t, p, (0, 0)) == p


def test_shift_full_turn_identity():
    t = TorusSpec((PolygonSpec(5, 1.0), PolygonSpec(9, 1.0)))
    p = TorusPoint((2, 7))
    assert shift(t, p, (5, 9)) == p


def test_shift_preserves_distance_bitwise():
    # random module handles arbitrary-precision ranges, unlike numpy
    import random

    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 4)
        factors = tuple(
            PolygonSpec(rng.randrange(2, 10**rng.randint(1, 27)) + 2,
                        rng.uniform(0.1, 100.0))
            for _ in range(k)
        )
        t = TorusSpec(factors)
        p = TorusPoint(tuple(rng.randrange(f.m) for f in factors))
        q = TorusPoint(tuple(rng.randrange(f.m) for f in factors))
        offs = tuple(rng.randrange(-(10**12), 10**12) for _ in factors)
        moved = (shift(t, p, offs), shift(t, q, offs))
        assert pairwise_sq(t, moved)[0, 1] == pairwise_sq(t, (p, q))[0, 1]


def materialize(t, p):
    """Cartesian coordinates of a torus vertex in R^(2 * len(factors)), the
    vertex angle 2 pi (index / m) with the ratio formed first: an oracle
    for the chord kernel independent of it, lossy once adjacent vertices
    are closer than float spacing."""
    coords = []
    for f, idx in zip(t.factors, p.indices):
        theta = math.tau * ((idx % f.m) / f.m)
        coords += [f.r * math.cos(theta), f.r * math.sin(theta)]
    return np.array(coords)


@pytest.mark.parametrize("m", [3, 17, 9999, 10**6])
def test_materialize_agrees_with_chord_metric(m):
    rng = np.random.default_rng(m)
    t = TorusSpec((PolygonSpec(m, 1.7), PolygonSpec(m, 0.3)))
    for _ in range(20):
        p = TorusPoint((int(rng.integers(0, m)), int(rng.integers(0, m))))
        q = TorusPoint((int(rng.integers(0, m)), int(rng.integers(0, m))))
        direct = float(np.linalg.norm(materialize(t, p) - materialize(t, q)))
        via_chords = math.sqrt(pairwise_sq(t, (p, q))[0, 1])
        assert direct == pytest.approx(via_chords, rel=1e-12, abs=1e-300)


def test_polygon_spec_validation():
    with pytest.raises(InputError):
        PolygonSpec(1, 1.0)
    with pytest.raises(InputError):
        PolygonSpec(4, 0.0)
    with pytest.raises(InputError):
        PolygonSpec(4, math.inf)
    for order, radius in ((True, 1.0), (4, True)):
        with pytest.raises(InputError):
            PolygonSpec(order, radius)
    # radii are stored as Python floats equal to what was given
    for radius in (np.float64(1.5), 2):
        r = PolygonSpec(4, radius).r
        assert type(r) is float and r == radius

    class Order(int):
        pass

    assert PolygonSpec(Order(5), 1.0).m == 5


def test_torus_spec_validation():
    with pytest.raises(InputError):
        TorusSpec(())


def test_torus_point_validation():
    with pytest.raises(InputError):
        TorusPoint((1.5,))


def test_torus_contains():
    # a point lies on the torus when it has one index per factor, each in
    # range: the rule the verifier enforces on a certificate's assignment
    t = TorusSpec((PolygonSpec(4, 1.0),))
    assert t.ambient_dim == 2

    def check(indices):
        cert = EmbeddingCertificate(np.zeros((1, 1)), t, (TorusPoint(indices),), {}, {}, {})
        return verify_certificate(cert).passed

    assert check((3,))
    for indices, field in (((4,), "assignment[0][0]"), ((0, 0), "assignment[0]")):
        with pytest.raises(InvalidCertificate) as exc:
            check(indices)
        assert exc.value.field == field
