"""Tests for the polygonal torus model and chord metric."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_embed import (
    InputError,
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    chord,
    materialize,
    pairwise_sq,
    shift,
    torus_distance,
    torus_distance_sq,
)


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
    assert torus_distance(t, p, p) == 0.0


def test_torus_distance_two_square_factors():
    t = TorusSpec((PolygonSpec(4, 1.0), PolygonSpec(4, 1.0)))
    d = torus_distance(t, TorusPoint((0, 0)), TorusPoint((1, 1)))
    assert d == pytest.approx(2.0, rel=1e-15)


def test_torus_distance_single_factor_equals_chord():
    t = TorusSpec((PolygonSpec(11, 3.0),))
    assert torus_distance(t, TorusPoint((2,)), TorusPoint((9,))) == chord(11, 3.0, 7)


def test_torus_distance_mismatched_factor_count():
    t = TorusSpec((PolygonSpec(4, 1.0),))
    with pytest.raises(InputError):
        torus_distance(t, TorusPoint((0, 0)), TorusPoint((0, 0)))


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


@pytest.mark.parametrize("n", [1, 2, 5])
def test_pairwise_sq_matches_reference_loop_bitwise(n):
    import random

    rng = random.Random(n)
    for _ in range(40):
        factors = tuple(
            PolygonSpec(rng.randrange(2, 10**rng.randint(1, 24)) + 2, rng.uniform(0.1, 100.0))
            for _ in range(rng.randint(1, 6))
        )
        t = TorusSpec(factors)
        # signed and out-of-range indices: the chord folds any difference
        points = [
            TorusPoint(tuple(rng.randrange(-3 * f.m, 3 * f.m) for f in factors))
            for _ in range(n)
        ]
        got = pairwise_sq(t, points)
        assert got.shape == (n, n)
        assert got.tobytes() == reference_pairwise_sq(t, points).tobytes()
        for i in range(n):
            for j in range(n):
                assert torus_distance_sq(t, points[i], points[j]) == got[i, j]


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
        assert torus_distance(t, shift(t, p, offs), shift(t, q, offs)) == torus_distance(t, p, q)


def test_materialize_index_zero_on_axis():
    t = TorusSpec((PolygonSpec(8, 2.5),))
    np.testing.assert_array_equal(materialize(t, TorusPoint((0,))), [2.5, 0.0])


def test_materialize_quarter_turn():
    t = TorusSpec((PolygonSpec(4, 1.0),))
    np.testing.assert_allclose(materialize(t, TorusPoint((1,))), [0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("m", [3, 17, 9999, 10**6])
def test_materialize_agrees_with_chord_metric(m):
    rng = np.random.default_rng(m)
    t = TorusSpec((PolygonSpec(m, 1.7), PolygonSpec(m, 0.3)))
    for _ in range(20):
        p = TorusPoint((int(rng.integers(0, m)), int(rng.integers(0, m))))
        q = TorusPoint((int(rng.integers(0, m)), int(rng.integers(0, m))))
        direct = float(np.linalg.norm(materialize(t, p) - materialize(t, q)))
        via_chords = torus_distance(t, p, q)
        assert direct == pytest.approx(via_chords, rel=1e-12, abs=1e-300)


def test_polygon_spec_validation():
    with pytest.raises(InputError):
        PolygonSpec(1, 1.0)
    with pytest.raises(InputError):
        PolygonSpec(4, 0.0)
    with pytest.raises(InputError):
        PolygonSpec(4, math.inf)


def test_torus_spec_validation():
    with pytest.raises(InputError):
        TorusSpec(())


def test_torus_point_validation():
    with pytest.raises(InputError):
        TorusPoint((1.5,))


def test_torus_contains():
    t = TorusSpec((PolygonSpec(4, 1.0),))
    assert t.contains(TorusPoint((3,)))
    assert not t.contains(TorusPoint((4,)))
    assert not t.contains(TorusPoint((0, 0)))
    assert t.ambient_dim == 2
