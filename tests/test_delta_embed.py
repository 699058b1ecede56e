"""Tests for the bounded-distortion polygon embeddings."""

import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_embed import (
    InputError,
    PipelineConfig,
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    TrivialInput,
    VerificationFailed,
    chord,
    delta_embed,
    embed_simplex,
    generate_points,
    one_dim_embed,
    one_dim_params,
    pairwise_sq,
    product_embed,
    squared_distances,
)
from torus_embed.certificate import dumps_certificate
from torus_embed.delta_embed import (
    DeltaEmbedding,
    _check_budget,
    _gap_bound,
    _grid_params,
    _scale_exponent,
    _span_and_gap,
    _subdivisions,
    _vertex_index,
)


def snapped_value(index, n0, n, e):
    """Exact rational grid value behind a vertex index."""
    return Fraction(index * n0, n * n) * Fraction(2) ** e


def check_half_budgets(values, assignment, params, budget):
    """Both error halves of the construction, checked pair by pair:

    snapping:  | |y - y'|^2 - |x - x'|^2 |  < budget / 2
    curvature: | chord^2 - |y - y'|^2 |     < budget / 2
    """
    translated = [v - min(values) for v in values]
    for (ia, xa), (ib, xb) in combinations(enumerate(translated), 2):
        ja, jb = assignment[ia], assignment[ib]
        ya = snapped_value(ja, params.n0, params.n, params.e)
        yb = snapped_value(jb, params.n0, params.n, params.e)
        snap_err = abs(float((ya - yb) ** 2) - (xa - xb) ** 2)
        assert snap_err < budget / 2
        c = chord(params.m, params.r, ja - jb)
        curve_err = abs(c**2 - float((ya - yb) ** 2))
        assert curve_err < budget / 2


def reference_values(xs):
    vals = np.asarray(xs, dtype=float).ravel()
    if not np.all(np.isfinite(vals)):
        raise InputError("values contain non-finite entries")
    if vals.size < 2:
        raise TrivialInput("need at least two values")
    return vals


def unit_grid_exponent(translated, delta):
    """The grid's exponent e, and the translated values and delta scaled
    by 2**-e and 4**-e, on which the unit grid (e = 0) is the reference."""
    e = _scale_exponent(*_span_and_gap(translated), delta)
    return e, np.ldexp(translated, -e), math.ldexp(delta, -2 * e)


def reference_one_dim_params(xs, delta):
    """one_dim_params as it was before it shared product_embed's snapping,
    on the unit grid of the values scaled by 2**-e, kept as its reference."""
    delta = _check_budget(delta)
    vals = reference_values(xs)
    e, scaled, unit_delta = unit_grid_exponent(vals - vals.min(), delta)
    n0 = _gap_bound(*_span_and_gap(scaled), 0)
    p = _grid_params(n0, _subdivisions(n0, unit_delta, 0), 0)
    return dataclasses.replace(p, r=math.ldexp(p.r, e), e=e)


def reference_one_dim_embed(xs, delta):
    """one_dim_embed as it was before it shared product_embed's snapping,
    on the unit grid of the values scaled by 2**-e, kept as its reference."""
    delta = _check_budget(delta)
    vals = reference_values(xs)
    e, scaled, unit_delta = unit_grid_exponent(vals - vals.min(), delta)
    n0 = _gap_bound(*_span_and_gap(scaled), 0)
    p = _grid_params(n0, _subdivisions(n0, unit_delta, 0), 0)
    indices = [_vertex_index(v, p.n0, p.n, 0) for v in scaled]
    p = dataclasses.replace(p, r=math.ldexp(p.r, e), e=e)
    torus = TorusSpec((PolygonSpec(p.m, p.r),))
    assignment = tuple(TorusPoint((j,)) for j in indices)
    per_pair = squared_distances(vals.reshape(-1, 1)) - pairwise_sq(torus, assignment)
    return DeltaEmbedding(torus, assignment, delta, per_pair, p)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (InputError, TrivialInput) as exc:
        return type(exc)


def test_one_dim_matches_reference_bitwise():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        size = int(rng.integers(2, 9))
        xs = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-6, 6)
        xs += rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6, 6)
        if rng.random() < 0.2:
            xs = np.round(xs * 4) / 4  # grid values, ties and duplicates
        delta = float(10.0 ** rng.uniform(-9, 1))
        ref = outcome(reference_one_dim_embed, xs, delta)
        got = outcome(one_dim_embed, xs, delta)
        assert outcome(one_dim_params, xs, delta) == outcome(reference_one_dim_params, xs, delta)
        if isinstance(ref, type):
            assert got is ref
            continue
        assert got.assignment == ref.assignment
        assert got.params == ref.params
        assert got.torus == ref.torus
        assert got.delta == ref.delta
        assert got.dropped_axes == ()
        assert got.per_pair_error.tobytes() == ref.per_pair_error.tobytes()


@pytest.mark.parametrize(
    "points",
    [[[-1e20], [1.0], [2.0]], [[-1e20, 0.0], [1.0, 1.0], [2.0, 2.0]]],
    ids=["one-axis", "one-of-two-axes"],
)
def test_product_refuses_values_colliding_after_translation(points):
    # 1.0 and 2.0 both lie 1e20 above -1e20 once rounded; snapped onto one
    # vertex they would miss their squared distance by 1.0 against a 0.1
    # budget, even where the points differ on another axis
    with pytest.raises(InputError, match="collide"):
        product_embed(points, 0.1)


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
    assert p.n0 == math.ceil(10 / 2**p.e)  # span 10 / 2**e beats 2**e / min_gap
    assert math.ceil(10 / 2**p.e) > math.ceil(2**p.e / 0.5)
    assert _gap_bound(10.0, 0.5, 0) == 10  # unit grid: span 10 beats 1/min_gap = 2


def test_params_gap_bound_dominated_by_min_gap():
    p = one_dim_params([0.0, 0.125, 1.0], 0.5)
    assert p.n0 == max(math.ceil(1 / 2**p.e), math.ceil(2**p.e / 0.125))
    assert _gap_bound(1.0, 0.125, 0) == 8  # unit grid: 1/min_gap = 8 beats span 1


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


def fraction_vertex_index(value, n0, n, e):
    """_vertex_index as it was over Fraction, in units of 2**e, kept as its
    reference."""
    return math.floor(Fraction(value) * n * n / (n0 * Fraction(2) ** e))


def fraction_gap_bound(span, gap, e):
    """_gap_bound as it was over Fraction, in units of 2**e, kept as its
    reference."""
    unit = Fraction(2) ** e
    return max(1, math.ceil(Fraction(span) / unit), math.ceil(unit / Fraction(gap)))


def fraction_span_and_gap(values):
    """The span and the smallest gap that the Fraction gap bound read."""
    vals = np.sort(values)
    diffs = np.diff(vals)
    if float(diffs.min()) <= 0.0:
        raise InputError("distinct coordinate values collide once translated")
    return float(vals[-1] - vals[0]), float(diffs.min())


SMALLEST_NORMAL = float(np.finfo(float).tiny)

# translated grid values: 0, subnormals, the ends of the double range and
# anything else finite and nonnegative
GRID_VALUES = st.one_of(
    st.just(0.0),
    st.floats(0.0, SMALLEST_NORMAL, exclude_max=True),
    st.floats(1e-310, 1e-290),
    st.floats(1e290, float(np.finfo(float).max)),
    st.floats(0.0, allow_infinity=False),
)
BIG = st.one_of(st.integers(1, 64), st.integers(1, 2**2000))
# unit exponents: the unit grid, small shifts and the whole double range
EXPONENTS = st.one_of(st.just(0), st.integers(-64, 64), st.integers(-1100, 1100))


def around(value):
    """value and the doubles on either side of it."""
    return (float(np.nextafter(value, -math.inf)), value, float(np.nextafter(value, math.inf)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(GRID_VALUES | st.floats(allow_nan=False, allow_infinity=False), BIG, BIG, EXPONENTS)
@example(0.0, 1, 1, 0)
@example(5e-324, 1, 2**2000, 0)
@example(float(np.finfo(float).max), 2**2000, 2**2000, 0)
@example(5e-324, 1, 2**2000, -1100)
@example(float(np.finfo(float).max), 1, 2**2000, 1100)
def test_vertex_index_matches_fraction_reference(value, n0, n, e):
    assert _vertex_index(value, n0, n, e) == fraction_vertex_index(value, n0, n, e)


@st.composite
def exact_boundaries(draw):
    """(j, value, n0, n, u) with value = j * n0 * 2**u / n**2 held exactly
    by a double: n = k * 2**s and n0 = k**2 * 2**(2s + e - u) give
    value = j * 2**e."""
    k = draw(st.integers(1, 2**1000))
    s = draw(st.integers(0, 500))
    e = draw(st.integers(max(-1074, -2 * s), 970))
    u = draw(st.just(0) | st.integers(-1100, 2 * s + e))
    j = draw(st.integers(0, 2**53 - 1))
    return j, math.ldexp(j, e), k * k * 2 ** (2 * s + e - u), k * 2**s, u


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exact_boundaries())
def test_vertex_index_on_exact_grid_boundaries(case):
    j, value, n0, n, u = case
    assert Fraction(value) == Fraction(j * n0, n * n) * Fraction(2) ** u
    assert _vertex_index(value, n0, n, u) == j
    for v in around(value):
        assert _vertex_index(v, n0, n, u) == fraction_vertex_index(v, n0, n, u)


@st.composite
def near_boundaries(draw):
    """(value, n0, n, u) with value the double nearest some
    j * n0 * 2**u / n**2."""
    n0 = draw(st.integers(1, 2**1000) | st.integers(1, 64))
    n = draw(BIG)
    j = draw(st.integers(0, n * n))
    u = draw(st.just(0) | st.integers(-1100, 20))
    return float(Fraction(j * n0, n * n) * Fraction(2) ** u), n0, n, u


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_boundaries())
def test_vertex_index_near_grid_boundaries(case):
    value, n0, n, u = case
    for v in around(value):
        assert _vertex_index(v, n0, n, u) == fraction_vertex_index(v, n0, n, u)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(GRID_VALUES, min_size=2, max_size=6), EXPONENTS)
@example([0.0, 0.5, 10.0], 0)  # the span's ceiling wins
@example([0.0, 1e-300, 1.0], 0)  # 1 / the smallest gap's ceiling wins
@example([0.0, 5e-324, 1e308], 0)  # both at the ends of the double range
@example([0.0, 1.0, 1.0], 0)  # a zero gap is refused
@example([0.0, 5e-324, 1e308], -1100)  # the ends of the exponent range
@example([0.0, 5e-324, 1e308], 1100)
def test_gap_bound_matches_fraction_reference(values, e):
    def gap_bound(vals):
        return _gap_bound(*_span_and_gap(vals), e)

    def reference(vals):
        return fraction_gap_bound(*fraction_span_and_gap(vals), e)

    assert outcome(gap_bound, np.array(values)) == outcome(reference, np.array(values))


IDENTITY_INPUTS = {
    "n16": (generate_points("random", 16, seed=1), PipelineConfig()),
    "n16-uniform-m": (generate_points("random", 16, seed=1), PipelineConfig(uniform_m=True)),
    "n8-1e100": (generate_points("random", 8, seed=1) * 1e100, PipelineConfig()),
    # refused on the unit grid (delta is too small); embeds in units of 2**e
    "n8-1e-100": (generate_points("random", 8, seed=1) * 1e-100, PipelineConfig()),
}


def certificate_or_refusal(points, cfg):
    try:
        return dumps_certificate(embed_simplex(points, cfg)).encode()
    except (InputError, VerificationFailed) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", list(IDENTITY_INPUTS))
def test_integer_gridding_writes_the_fraction_bytes(monkeypatch, name):
    points, cfg = IDENTITY_INPUTS[name]
    got = certificate_or_refusal(points, cfg)
    monkeypatch.setattr(delta_embed, "_vertex_index", fraction_vertex_index)
    monkeypatch.setattr(delta_embed, "_gap_bound", fraction_gap_bound)
    assert got == certificate_or_refusal(points, cfg)


def unit_subdivisions(n0, budget, e):
    """_subdivisions as it was on the unit grid, kept as its reference."""
    assert e == 0
    return max(2, n0, math.ceil(2 * delta_embed._PI_UP * n0**3 / Fraction(budget)))


def unit_grid_params(n0, n, e):
    """_grid_params as it was on the unit grid, kept as its reference."""
    assert e == 0
    if (n0 * n).bit_length() > 1020:
        raise InputError("delta is too small: circumradius exceeds the double range")
    return delta_embed.DeltaParams(n0, n, n**3, n0 * n / (2.0 * math.pi), 0)


@pytest.mark.parametrize("name", ["n16", "n16-uniform-m", "n8-1e100"])
def test_unit_exponent_writes_the_unit_grid_bytes(monkeypatch, name):
    # the unit grid is the e = 0 case: with the exponent held at 0, the
    # certificate is the one the unit grid's Fraction references write
    points, cfg = IDENTITY_INPUTS[name]
    monkeypatch.setattr(delta_embed, "_scale_exponent", lambda span, gap, budget: 0)
    got = certificate_or_refusal(points, cfg)
    assert b'"scale_exponent":0,' in got
    monkeypatch.setattr(delta_embed, "_vertex_index", fraction_vertex_index)
    monkeypatch.setattr(delta_embed, "_gap_bound", fraction_gap_bound)
    monkeypatch.setattr(delta_embed, "_subdivisions", unit_subdivisions)
    monkeypatch.setattr(delta_embed, "_grid_params", unit_grid_params)
    assert got == certificate_or_refusal(points, cfg)


def assert_scale_covariant(embed, xs, delta, k):
    """embed at 2**k times the scale and 4**k times the budget gives the
    same grid and assignment, with e shifted by k, radii times 2**k and
    errors times 4**k, bit for bit."""
    base = embed(xs, delta)
    scaled = embed(np.ldexp(xs, k), math.ldexp(delta, 2 * k))
    assert scaled.assignment == base.assignment
    p, q = base.params, scaled.params
    assert (q.n0, q.n, q.m, q.e) == (p.n0, p.n, p.m, p.e + k)
    assert q.r == math.ldexp(p.r, k)
    assert [f.r for f in scaled.torus.factors] == [math.ldexp(f.r, k) for f in base.torus.factors]
    assert scaled.delta == math.ldexp(base.delta, 2 * k)
    assert scaled.per_pair_error.tobytes() == np.ldexp(base.per_pair_error, 2 * k).tobytes()


@settings(max_examples=48, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(-60, 60))
def test_product_embed_is_scale_covariant(seed, k):
    rng = np.random.default_rng(seed)
    npts, dim = int(rng.integers(2, 9)), int(rng.integers(1, 5))
    pts = rng.uniform(-1.0, 1.0, (npts, dim)) * 10.0 ** rng.uniform(-6, 6)
    assert_scale_covariant(product_embed, pts, float(10.0 ** rng.uniform(-9, 1)), k)


@settings(max_examples=48, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(-60, 60))
def test_one_dim_embed_is_scale_covariant(seed, k):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, int(rng.integers(2, 9))) * 10.0 ** rng.uniform(-6, 6)
    assert_scale_covariant(one_dim_embed, xs, float(10.0 ** rng.uniform(-9, 1)), k)


@pytest.mark.parametrize(
    "xs, delta",
    [([0.0, 1e-310], 1e-3), ([0.0, 1e-300, 1e150], 1.0)],
    ids=["subnormal", "overflowing"],
)
def test_radius_outside_the_normal_doubles_refused(xs, delta):
    with pytest.raises(InputError, match="circumradius .* is not a finite normal double"):
        one_dim_embed(xs, delta)
