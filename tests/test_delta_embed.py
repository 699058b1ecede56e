"""Tests for the bounded-distortion polygon embeddings."""

import contextlib
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp, mpf

from torus_embed import (
    InputError,
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    TrivialInput,
    VerificationFailed,
    delta_embed,
    embed_simplex,
    generate_points,
    pairwise_sq,
    product_embed,
    schoenberg_decompose,
    squared_distances,
)
from torus_embed.certificate import dumps_certificate
from torus_embed.delta_embed import (
    DeltaEmbedding,
    _exact_columns,
    _gap_bound,
    _grid_params,
    _pi_bits,
    _pi_bounds,
    _span_and_gap,
    _subdivisions,
    _unit_budget,
    _vertex_index,
)
from torus_embed.errors import check_real

# interval precision of the exact error checks
PREC = 128


@contextlib.contextmanager
def interval_precision(bits):
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def closed_form_terms(n0, n, e):
    """The two summands of F(n) of the delta_embed docstring times 4**e, as
    intervals: the snapping term h*(2*n0 + h) and the curvature term."""
    h = iv.mpf(n0) / n**2
    unit = iv.mpf(4) ** e
    snap = h * (2 * n0 + h) * unit
    curve = (n0 + h) ** 4 * iv.pi**2 / (3 * iv.mpf(n0) ** 2 * n**2) * unit
    return snap, curve


def enclosed_errors(values, indices, m, r):
    """For each pair of a column's values (floats) and vertex indices, the
    intervals (d**2 - L**2, L**2 - chord**2), with d the values' gap, L the
    arc k*2*pi*r/m and the chord 2r*sin(pi*k/m) of their step k, from the
    exact floats and ints; each distinct step is enclosed once."""
    exact = [iv.mpf(x) for x in values]
    arc = 2 * iv.pi * iv.mpf(r) / m
    steps = {}
    out = []
    for (xa, ja), (xb, jb) in combinations(zip(exact, indices), 2):
        k = abs(ja - jb)
        if k not in steps:
            arc_sq = (k * arc) ** 2
            steps[k] = arc_sq, arc_sq - (2 * iv.mpf(r) * iv.sin(iv.pi * k / m)) ** 2
        arc_sq, curve = steps[k]
        out.append(((xa - xb) ** 2 - arc_sq, curve))
    return out


def check_error_terms(values, assignment, params, budget):
    """Both error terms of the construction, pair by pair, enclosed from the
    exact floats and ints, against their bounds in the delta_embed docstring:

    snapping:  | d**2 - L**2 |        < (1 + 2**-44) h (2 n0 + h) 4**e + budget / 128
    curvature: 0 <= L**2 - chord**2   < (1 + 2**-44) (curvature term of F) 4**e
    and their sum below the budget.
    """
    with interval_precision(PREC):
        snap_bound, curve_bound = closed_form_terms(params.n0, params.n, params.e)
        slack = 1 + iv.mpf(2) ** -44
        cap = iv.mpf(budget)
        for snap, curve in enclosed_errors(values, assignment, params.m, params.r):
            assert abs(snap).b < (slack * snap_bound + cap / 128).a
            assert curve.a >= 0 and curve.b < (slack * curve_bound).a
            assert abs(snap + curve).b < cap.a


def reference_values(xs):
    vals = np.asarray(xs, dtype=float).ravel()
    if not np.all(np.isfinite(vals)):
        raise InputError("values contain non-finite entries")
    if vals.size < 2:
        raise TrivialInput("need at least two values")
    if len(set(vals.tolist())) < vals.size:
        raise InputError("duplicate coordinate values")
    return vals


def closed_form(n0, n):
    """F(n) of the delta_embed docstring, in mpmath, against pi itself."""
    return (mpf(n0) / n) ** 2 * (2 + mpf(1) / n**2 + mp.pi**2 * (1 + mpf(1) / n**2) ** 4 / 3)


def reference_subdivisions(n0, unit_budget):
    """The least n > n0 with F(n) < (63/64) B for B = unit_budget
    (a Fraction, in units of 2**e), by bisection in mpmath."""
    with mp.workprec(256):
        limit = mpf(unit_budget.numerator) / unit_budget.denominator * 63 / 64
        lo = n0 + 1
        if closed_form(n0, lo) < limit:
            return lo
        hi = 2 * lo
        while not closed_form(n0, hi) < limit:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:  # F(lo) misses the limit, F(hi) meets it
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if closed_form(n0, mid) < limit else (mid, hi)
        return hi


def frexp_exponent(x):
    """math.frexp(x)[1] for a positive dyadic Fraction x."""
    return x.numerator.bit_length() - x.denominator.bit_length() + 1


def reference_one_dim_embed(xs, delta):
    """product_embed of one column of reals, transcribed from the
    delta_embed docstring in Fraction and mpmath, kept as its reference:
    exact translation; of the exponents around the balance point, the first
    with the least n, found by bisection against pi itself; each value t at
    vertex floor(t * m / (2 pi r)) for the float r, with pi at 512 bits."""
    delta = check_real(delta, "delta")
    exact = [Fraction(v) for v in reference_values(xs).tolist()]
    translated = [v - min(exact) for v in exact]
    span, gap = fraction_span_and_gap(translated)
    e0 = (frexp_exponent(span) + frexp_exponent(gap)) // 2
    grids = []
    for e in (e0 - 1, e0, e0 + 1):
        n0 = fraction_gap_bound(span, gap, e)
        grids.append((reference_subdivisions(n0, Fraction(delta) / Fraction(4) ** e), e, n0))
    n, e, n0 = min(grids, key=lambda grid: grid[0])
    p = _grid_params(n0, n, e)
    with mp.workprec(512):
        step = 2 * mp.pi * mpf(p.r) / p.m
        indices = [int(mp.floor(mpf(t.numerator) / t.denominator / step)) for t in translated]
    torus = TorusSpec((PolygonSpec(p.m, p.r),))
    assignment = tuple(TorusPoint((j,)) for j in indices)
    col = np.asarray(xs, dtype=float).reshape(-1, 1)
    per_pair = squared_distances(col) - pairwise_sq(torus, assignment)
    return DeltaEmbedding(torus, assignment, delta, per_pair, p)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (InputError, TrivialInput) as exc:
        return type(exc)


def one_dim_cases():
    """Sets of reals and budgets: random ones at scales 1e-6 to 1e6, some
    on a quarter grid (ties and duplicates), then sets whose squared
    distances underflow to 0.0 and the trivial and empty sets."""
    rng = np.random.default_rng(2024)
    for _ in range(60):
        size = int(rng.integers(2, 9))
        xs = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-6, 6)
        xs += rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6, 6)
        if rng.random() < 0.2:
            xs = np.round(xs * 4) / 4  # grid values, ties and duplicates
        yield xs, float(10.0 ** rng.uniform(-9, 1))
    yield [0.0, 1e-170, 3e-170], 1e-3
    yield [[0.0, 1e-170], [3e-170, 4e-170]], 0.5  # any shape is one column
    yield [0.0], 0.1
    yield [], 0.1


def test_one_dim_matches_reference_bitwise():
    # a set of reals is product_embed of one column, bit for bit
    for xs, delta in one_dim_cases():
        ref = outcome(reference_one_dim_embed, xs, delta)
        got = outcome(product_embed, np.ravel(xs), delta)
        if isinstance(ref, type):
            assert got is ref
            continue
        assert got.assignment == ref.assignment
        assert got.params == ref.params
        assert got.torus == ref.torus
        assert got.delta == ref.delta
        assert len(got.torus.factors) == 1  # the one column is kept
        assert got.per_pair_error.tobytes() == ref.per_pair_error.tobytes()


def kept_axes(points):
    """The axes on which the points do not all have the same value: the
    ones product_embed keeps, one factor each, in order."""
    arr = np.asarray(points, dtype=float)
    return [c for c in range(arr.shape[1]) if np.any(arr[:, c] != arr[0, c])]


def check_exact_errors_below_budget(de, cols):
    """Every pair's exact squared-distance error on every column, enclosed
    from the floats and ints, is below the column budget (at 256 bits, which
    resolve 0.1 against squared distances near 1e40)."""
    with interval_precision(256):
        cap = iv.mpf(de.delta) / len(de.torus.factors)
        for pos, values in enumerate(cols):
            indices = [p.indices[pos] for p in de.assignment]
            for snap, curve in enclosed_errors(values, indices, de.params.m, de.params.r):
                assert abs(snap + curve).b < cap.a


@pytest.mark.parametrize(
    "points",
    [[[-1e20], [1.0], [2.0]], [[-1e20, 0.0], [1.0, 1.0], [2.0, 2.0]]],
    ids=["one-axis", "one-of-two-axes"],
)
def test_product_embeds_values_colliding_under_float_translation(points):
    # 1.0 and 2.0 both lie 1e20 above -1e20 once rounded in floats; the
    # exact translation keeps them a step apart and within the budget
    de = product_embed(points, 0.1)
    cols = np.array(points).T.tolist()
    assert de.assignment[1].indices[0] != de.assignment[2].indices[0]
    assert len(set(de.assignment)) == 3
    assert abs(de.per_pair_error[1, 2]) < de.delta
    check_exact_errors_below_budget(de, cols)


def test_params_unit_pair():
    # span 1 and gap 1 put e0 = 1, so e is one of 0, 1, 2. At e = 0, n0 = 1
    # and B = 0.1, so the least n has F(n) < 0.0984375 = (63/64) * 0.1:
    #   F(7) = (1/49) * (2 + 1/49 + pi**2 * (50/49)**4 / 3) = 0.11402 (misses)
    #   F(8) = (1/64) * (2 + 1/64 + pi**2 * (65/64)**4 / 3) = 0.08619 (meets)
    # At e = 1, n0 = 2 and B = 0.025 need n = 30 (F(29) = 0.02498 misses
    # 0.02461), so e = 0 and n = 8, m = 512.
    assert closed_form(1, 7) > 0.0984375 > closed_form(1, 8)
    assert closed_form(2, 29) > 0.1 / 4 * 63 / 64 > closed_form(2, 30)
    p = product_embed([0.0, 1.0], 0.1).params
    assert (p.n0, p.n, p.m, p.e) == (1, 8, 512, 0)
    assert p.r == 8 / (2.0 * math.pi)


def test_params_huge_delta_clamps_polygon():
    p = product_embed([0.0, 1.0], 2 * math.pi).params
    assert p.n == 2
    assert p.m == 8


def test_params_gap_bound_dominated_by_span():
    p = product_embed([0.0, 0.5, 10.0], 0.5).params
    assert p.n0 == math.ceil(10 / 2**p.e)  # span 10 / 2**e beats 2**e / min_gap
    assert math.ceil(10 / 2**p.e) > math.ceil(2**p.e / 0.5)
    # unit grid, in halves (span 20, gap 1, e = 0 + shift 1): span 10 beats
    # 1/min_gap = 2
    assert _gap_bound(20, 1, 1) == 10


def test_params_gap_bound_dominated_by_min_gap():
    p = product_embed([0.0, 0.125, 1.0], 0.5).params
    assert p.n0 == max(math.ceil(1 / 2**p.e), math.ceil(2**p.e / 0.125))
    # unit grid, in eighths (span 8, gap 1, e = 0 + shift 3): 1/min_gap = 8
    # beats span 1
    assert _gap_bound(8, 1, 3) == 8


def test_params_errors():
    with pytest.raises(InputError, match="not pairwise distinct"):
        product_embed([0.0, 0.0, 1.0], 0.1)
    with pytest.raises(TrivialInput):
        product_embed([0.0], 0.1)
    with pytest.raises(InputError):
        product_embed([0.0, 1.0], 0.0)
    with pytest.raises(InputError):
        product_embed([0.0, 1.0], -1.0)


def test_one_dim_values_colliding_under_float_translation_embed():
    # distinct doubles whose offsets from the minimum round to one value in
    # floats, and differ by 1 exactly
    xs = [-1e20, 1.0, 2.0]
    de = product_embed(xs, 0.1)
    assert len({p.indices for p in de.assignment}) == 3
    assert abs(de.per_pair_error[1, 2]) < 0.1
    check_exact_errors_below_budget(de, [xs])


def test_one_dim_unit_pair_frozen_values():
    de = product_embed([0.0, 1.0], 0.1)
    # m = 512 and r = fl(8 / fl(2 pi)) = 1.2732395447351628, 0.35 ulp above
    # 4/pi; so 2 pi r exceeds 8, 1.0 sits just below vertex
    # 512 / 8 = 64, and j = floor(512 / (2 pi r)) = 63
    r = 8 / (2.0 * math.pi)
    with mp.workprec(200):
        assert 2 * mp.pi * mpf(r) > 8
        assert int(mp.floor(512 / (2 * mp.pi * mpf(r)))) == 63
    assert [p.indices for p in de.assignment] == [(0,), (63,)]
    # independent evaluation of the chord at the known parameters
    expected_sq = (2 * r * math.sin(math.pi * 63 / 512)) ** 2
    assert expected_sq == pytest.approx(0.9216796561687685, rel=1e-12)
    err = de.per_pair_error[0, 1]
    assert err == pytest.approx(1.0 - expected_sq, rel=1e-12)
    assert abs(err) < 0.1


def test_one_dim_minimum_maps_to_vertex_zero():
    for xs in ([3.0, 4.5, 7.25], [-2.0, 0.0, 1.0]):
        de = product_embed(xs, 0.25)
        j_min = de.assignment[int(np.argmin(xs))].indices[0]
        assert j_min == 0


def test_one_dim_indices_bounded_and_injective():
    rng = np.random.default_rng(13)
    xs = np.sort(rng.uniform(0, 1, 6))
    while np.diff(xs).min() < 0.05:
        xs = np.sort(rng.uniform(0, 1, 6))
    de = product_embed(xs, 1e-2)
    idx = [p.indices[0] for p in de.assignment]
    assert len(set(idx)) == len(idx)
    n = de.params.n
    assert all(0 <= j <= n * n < de.params.m for j in idx)
    # a budget so large that n = n0 + 1, the floor: the step, after the
    # radius's rounding, stays below the smallest gap
    de = product_embed([0.0, 0.25, 1.0], 10.0)
    assert de.params.n == de.params.n0 + 1
    assert len({p.indices for p in de.assignment}) == 3


def test_one_dim_every_pair_error_below_budget():
    rng = np.random.default_rng(29)
    for _ in range(10):
        xs = np.unique(rng.integers(0, 20, 6)) * 0.05
        if xs.size < 2:
            continue
        de = product_embed(xs, 1e-2)
        off = ~np.eye(len(xs), dtype=bool)
        assert np.abs(de.per_pair_error[off]).max() < 1e-2
        check_error_terms(list(xs), [p.indices[0] for p in de.assignment], de.params, 1e-2)


def test_error_matrix_symmetric_zero_diagonal():
    de = product_embed([0.0, 0.3, 1.0], 0.05)
    assert np.array_equal(de.per_pair_error, de.per_pair_error.T)
    assert np.all(np.diag(de.per_pair_error) == 0.0)


def test_halving_delta_never_hurts():
    xs = [0.0, 0.19, 0.55, 1.0]
    for delta in (0.2, 0.02):
        worse = product_embed(xs, delta)
        better = product_embed(xs, delta / 2)
        assert worse.params.n0 == better.params.n0
        assert np.abs(better.per_pair_error).max() <= np.abs(worse.per_pair_error).max()


def test_product_of_one_reduces_to_one_dim():
    # one column of points and the 1-d set of its reals embed alike
    xs = [0.0, 0.31, 0.75]
    delta = 1e-3
    de1 = product_embed(xs, delta)
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
    assert kept_axes(corners) == [0, 1]


def test_product_constant_axis_dropped():
    pts = [[0.0, 5.0], [1.0, 5.0], [2.5, 5.0]]
    de = product_embed(pts, 1e-2)
    assert kept_axes(pts) == [0]
    assert len(de.torus.factors) == 1
    # the one factor is axis 0: its three distinct values get three vertices
    assert len({p.indices[0] for p in de.assignment}) == 3
    off = ~np.eye(3, dtype=bool)
    assert np.abs(de.per_pair_error[off]).max() < 1e-2


def test_product_keeps_budget_above_smallest_distance():
    # the budget exceeds every squared distance (0.01 and 0.02); the grid
    # alone keeps the assignment injective, so the budget is kept as given
    pts = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]
    de = product_embed(pts, 1.0)
    assert de.delta == 1.0
    assert np.abs(de.per_pair_error[~np.eye(3, dtype=bool)]).max() < 1.0
    assert len(set(de.assignment)) == 3
    check_exact_errors_below_budget(de, np.array(pts).T.tolist())


def test_product_half_budgets_per_coordinate():
    rng = np.random.default_rng(31)
    for _ in range(5):
        k = int(rng.integers(1, 5))
        npts = int(rng.integers(2, 7))
        cols = [rng.choice(17, npts, replace=False) / 16.0 for _ in range(k)]
        pts = np.stack(cols, axis=1)
        de = product_embed(pts, 1e-2)
        kept = kept_axes(pts)
        assert len(kept) == len(de.torus.factors)
        budget = de.delta / len(kept)
        for axis_pos, c in enumerate(kept):
            values = list(pts[:, c])
            assignment = [p.indices[axis_pos] for p in de.assignment]
            check_error_terms(values, assignment, de.params, budget)
        off = ~np.eye(npts, dtype=bool)
        assert np.abs(de.per_pair_error[off]).max() < de.delta


def test_product_duplicate_points_rejected():
    with pytest.raises(InputError):
        product_embed([[0.0, 1.0], [0.0, 1.0]], 0.1)


def test_product_single_point_rejected():
    with pytest.raises(TrivialInput):
        product_embed([[0.0, 1.0]], 0.1)


@pytest.mark.parametrize(
    "points",
    [[0.0, 1e-170, 3e-170], [[0.0, 0.0], [1e-170, 0.0], [0.0, 1.0]]],
    ids=["one-column", "two-columns"],
)
def test_product_embeds_distinct_points_whose_squared_distances_underflow(points):
    # 1e-170 squared underflows to 0.0; only equal rows are refused, and the
    # grid keeps every point apart within the budget
    rows = np.reshape(points, (3, -1))
    assert squared_distances(rows)[0, 1] == 0.0
    de = product_embed(points, 1e-3)
    assert len(set(de.assignment)) == 3
    assert np.abs(de.per_pair_error).max() < 1e-3
    check_exact_errors_below_budget(de, rows.T.tolist())


def fraction_vertex_index(value, num, den):
    """_vertex_index as it was over Fraction, kept as its reference."""
    return math.floor(Fraction(value) * num / den)


def grid_ratio(n0, n, e):
    """(num, den) with num / den = n**2 / (n0 * 2**e): the vertex of a value
    on the grid of n0 * 2**e / n**2-wide cells is floor(value * num / den)."""
    return (n * n, n0 << e) if e >= 0 else (n * n << -e, n0)


def fraction_gap_bound(span, gap, e):
    """_gap_bound as it was over Fraction, in units of 2**e, kept as its
    reference."""
    unit = Fraction(2) ** e
    return max(1, math.ceil(Fraction(span) / unit), math.ceil(unit / Fraction(gap)))


def fraction_span_and_gap(values):
    """The span and the smallest gap of the distinct values, as Fractions."""
    vals = sorted({Fraction(v) for v in values})
    return vals[-1] - vals[0], min(b - a for a, b in zip(vals, vals[1:]))


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


# integer column entries, as `_exact_columns` writes them: 0, small ones, a
# double's 53 bits and the ~2,100 bits of a column spanning the double range
GRID_INTS = st.one_of(
    st.just(0), st.integers(0, 64), st.integers(0, 2**53), st.integers(0, 2**2100)
)


def around(value):
    """value and the nonnegative integers on either side of it."""
    return range(max(value - 1, 0), value + 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(GRID_INTS, BIG, BIG, EXPONENTS)
@example(0, 1, 1, 0)
@example(1, 1, 2**2000, 0)
@example(2**2100, 2**2000, 2**2000, 0)
@example(1, 1, 2**2000, -1100)
@example(2**2100, 1, 2**2000, 1100)
def test_vertex_index_matches_fraction_reference(value, n0, n, e):
    ratio = grid_ratio(n0, n, e)
    assert _vertex_index(value, *ratio) == fraction_vertex_index(value, *ratio)


@st.composite
def exact_boundaries(draw):
    """(j, value, n0, n, u) with the integer value = j * n0 * 2**u / n**2
    exactly: n = k * 2**s and n0 = k**2 * 2**(2s + e - u) give
    value = j * 2**e."""
    k = draw(st.integers(1, 2**1000))
    s = draw(st.integers(0, 500))
    e = draw(st.integers(0, 2100))
    u = draw(st.just(0) | st.integers(-1100, 2 * s + e))
    j = draw(st.integers(0, 2**53 - 1))
    return j, j << e, k * k * 2 ** (2 * s + e - u), k * 2**s, u


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exact_boundaries())
def test_vertex_index_on_exact_grid_boundaries(case):
    j, value, n0, n, u = case
    assert Fraction(value) == Fraction(j * n0, n * n) * Fraction(2) ** u
    ratio = grid_ratio(n0, n, u)
    assert _vertex_index(value, *ratio) == j
    for v in around(value):
        assert _vertex_index(v, *ratio) == fraction_vertex_index(v, *ratio)


@st.composite
def near_boundaries(draw):
    """(value, n0, n, u) with the integer value nearest some
    j * n0 * 2**u / n**2."""
    n0 = draw(st.integers(1, 2**1000) | st.integers(1, 64))
    n = draw(BIG)
    j = draw(st.integers(0, n * n))
    u = draw(st.just(0) | st.integers(-1100, 1100))
    return round(Fraction(j * n0, n * n) * Fraction(2) ** u), n0, n, u


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_boundaries())
def test_vertex_index_near_grid_boundaries(case):
    value, n0, n, u = case
    ratio = grid_ratio(n0, n, u)
    for v in around(value):
        assert _vertex_index(v, *ratio) == fraction_vertex_index(v, *ratio)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(GRID_VALUES, min_size=2, max_size=6), EXPONENTS)
@example([0.0, 0.5, 10.0], 0)  # the span's ceiling wins
@example([0.0, 1e-300, 1.0], 0)  # 1 / the smallest gap's ceiling wins
@example([0.0, 5e-324, 1e308], 0)  # both at the ends of the double range
@example([0.0, 1.0, 1.0], 0)  # a repeated value is not a gap
@example([0.0, 5e-324, 1e308], -1100)  # the ends of the exponent range
@example([0.0, 5e-324, 1e308], 1100)
def test_gap_bound_matches_fraction_reference(values, e):
    # the span and gaps are exact: values 1e308 apart keep a 5e-324 gap
    assume(len(set(values)) > 1)
    nums, shift = _exact_columns(np.array(values).reshape(-1, 1))
    got = _gap_bound(*_span_and_gap(nums[0]), e + shift)
    assert got == fraction_gap_bound(*fraction_span_and_gap(values), e)


IDENTITY_INPUTS = {
    "n16": generate_points("random", 16, seed=1),
    "n8-1e100": generate_points("random", 8, seed=1) * 1e100,
    # refused on the unit grid (delta is too small); embeds in units of 2**e
    "n8-1e-100": generate_points("random", 8, seed=1) * 1e-100,
}


def certificate_or_refusal(points):
    try:
        return dumps_certificate(embed_simplex(points)).encode()
    except (InputError, VerificationFailed) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", list(IDENTITY_INPUTS))
def test_integer_gridding_writes_the_fraction_bytes(monkeypatch, name):
    points = IDENTITY_INPUTS[name]
    got = certificate_or_refusal(points)
    monkeypatch.setattr(delta_embed, "_vertex_index", fraction_vertex_index)
    monkeypatch.setattr(delta_embed, "_gap_bound", fraction_gap_bound)
    assert got == certificate_or_refusal(points)


def unit_grid(gap_bound, subdivisions):
    """A grid choice held at the unit exponent e = 0, built from the given
    gap bound and subdivision count (n0, budget -> n)."""

    def choose(span, gap, shift, budget):
        n0 = gap_bound(span, gap, shift)
        return subdivisions(n0, budget), 0, n0, _pi_bits(n0, budget, 0)

    return choose


def unit_subdivisions(n0, budget):
    """_subdivisions on the unit grid, by bisection against pi itself, kept
    as its reference."""
    return reference_subdivisions(n0, Fraction(*budget))


def unit_grid_params(n0, n, e):
    """_grid_params as it was on the unit grid, kept as its reference."""
    assert e == 0
    if (n0 * n).bit_length() > 1020:
        raise InputError("delta is too small: circumradius exceeds the double range")
    return delta_embed.DeltaParams(n0, n, n**3, n0 * n / (2.0 * math.pi), 0)


@pytest.mark.parametrize("name", ["n16", "n8-1e100"])
def test_unit_exponent_writes_the_unit_grid_bytes(monkeypatch, name):
    # the unit grid is the e = 0 case: with the exponent held at 0, the
    # certificate is the one the unit grid's references write
    points = IDENTITY_INPUTS[name]

    def subdivisions(n0, budget):
        return _subdivisions(n0, budget, 0, _pi_bits(n0, budget, 0))

    monkeypatch.setattr(delta_embed, "_choose_grid", unit_grid(_gap_bound, subdivisions))
    got = certificate_or_refusal(points)
    assert b'"scale_exponent":0,' in got
    monkeypatch.setattr(delta_embed, "_vertex_index", fraction_vertex_index)
    monkeypatch.setattr(
        delta_embed, "_choose_grid", unit_grid(fraction_gap_bound, unit_subdivisions)
    )
    monkeypatch.setattr(delta_embed, "_grid_params", unit_grid_params)
    assert got == certificate_or_refusal(points)


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
    # a set of reals, passed as a 1-d array
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, int(rng.integers(2, 9))) * 10.0 ** rng.uniform(-6, 6)
    assert_scale_covariant(product_embed, xs, float(10.0 ** rng.uniform(-9, 1)), k)


@pytest.mark.parametrize(
    "xs, delta",
    [([0.0, 1e-310], 1e-3), ([0.0, 1e-300, 1e150], 1.0)],
    ids=["subnormal", "overflowing"],
)
def test_radius_outside_the_normal_doubles_refused(xs, delta):
    with pytest.raises(InputError, match="circumradius .* is not a finite normal double"):
        product_embed(xs, delta)


def upper_closed_form(n0, n, bits):
    """F(n) with pi at the upper end of its enclosure at `bits`, exactly."""
    pi_hi = Fraction(_pi_bounds(bits)[1], 2**bits)
    nn = Fraction(n * n)
    return n0 * n0 / nn * (2 + 1 / nn + pi_hi**2 * (1 + 1 / nn) ** 4 / 3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 8) | st.integers(1, 2**40),
    st.floats(1e-30, 1e3),
    st.integers(1, 64),
    st.integers(-64, 64),
)
@example(1, 0.1, 1, 0)  # the unit pair: n = 8
@example(1, 2 * math.pi, 1, 0)  # n = 2, the polygon's floor
@example(1000, 1e3, 1, -10)  # n = n0 + 1, the index map's floor
def test_subdivisions_is_minimal(n0, delta, columns, e):
    # n meets the bound with pi at its enclosure's upper end, n - 1 breaks
    # it (or is below the floor), and the enclosure is fine enough for the
    # snap's pi slack to stay below B / 128
    budget = (delta.as_integer_ratio()[0], delta.as_integer_ratio()[1] * columns)
    bits = _pi_bits(n0, budget, e)
    n = _subdivisions(n0, budget, e, bits)
    unit = Fraction(*_unit_budget(budget, e))
    assert unit == Fraction(delta) / columns / Fraction(4) ** e
    assert 2**bits >= 512 * n0**2 / unit
    limit = unit * 63 / 64
    assert n > n0
    assert upper_closed_form(n0, n, bits) < limit
    assert n == n0 + 1 or upper_closed_form(n0, n - 1, bits) >= limit


@pytest.mark.parametrize("bits", [64, 128, 192, 1024, 4096])
def test_pi_bounds_enclose_pi(bits):
    lo, hi = _pi_bounds(bits)
    with mp.workprec(bits + 64):
        assert lo < mp.pi * mpf(2) ** bits < hi
    assert hi - lo <= 3


def draw_points(rng, npts, extreme):
    """Points the way the benchmark's workloads draw them: uniform in
    [-1, 1]**(npts - 1); the extreme kind flattens the last axis by
    10**U(-3, -1.5) and scales the set by 10**U(-150, 150). A draw is kept
    when it is affinely independent with a margin of 100 over the rank
    tolerance 1e-9."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (npts, npts - 1))
        if extreme:
            pts[:, -1] *= 10.0 ** rng.uniform(-3.0, -1.5)
            pts *= 10.0 ** rng.uniform(-150.0, 150.0)
        s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if len(s) == npts - 1 and (s[-1] / s[0]) ** 2 > 100 * 1e-9:
            return pts


@pytest.mark.parametrize(
    "npts, count, extreme", [(16, 24, False), (8, 64, True)], ids=["random-16", "extreme-8"]
)
def test_base_error_enclosed_below_budget(npts, count, extreme):
    # the base half of an exact check: each column's pair errors, enclosed
    # from the exact floats and ints, are below the column budget delta / k
    # and below the closed-form bound F(n) of the delta_embed docstring
    rng = np.random.default_rng(1212 + npts)
    for _ in range(count):
        dec = schoenberg_decompose(squared_distances(draw_points(rng, npts, extreme)))
        de = product_embed(dec.base, dec.alpha_sq / npts**2)
        p = de.params
        kept = kept_axes(dec.base)
        assert len(kept) == len(de.torus.factors)
        with interval_precision(PREC):
            cap = iv.mpf(de.delta) / len(kept)
            bound = sum(closed_form_terms(p.n0, p.n, p.e))
            for pos, c in enumerate(kept):
                indices = [q.indices[pos] for q in de.assignment]
                for snap, curve in enclosed_errors(dec.base[:, c].tolist(), indices, p.m, p.r):
                    err = abs(snap + curve).b
                    assert err < cap.a and err < bound.a


def test_product_embeds_where_half_the_smallest_squared_distance_underflows():
    # the squared distance is the smallest subnormal, and half of it is 0.0;
    # the grid keeps the pair apart at the budget as given
    x = 2.2227587494850775e-162
    assert x * x == 5e-324
    de = product_embed([[0.0], [x]], 1.0)
    assert de.delta == 1.0
    assert de.assignment[0] != de.assignment[1]
    assert np.abs(de.per_pair_error).max() < 1.0


def test_one_grid_evaluation_per_candidate_exponent(monkeypatch):
    # one product_embed evaluates each of its three candidate exponents once,
    # and the snap takes the winner's n0, bits and n as chosen
    calls = {"_gap_bound": 0, "_pi_bits": 0, "_subdivisions": 0}
    for name in calls:
        real = getattr(delta_embed, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(delta_embed, name, counted)
    product_embed(generate_points("random", 8, seed=1), 1e-3)
    assert calls == {"_gap_bound": 3, "_pi_bits": 3, "_subdivisions": 3}
