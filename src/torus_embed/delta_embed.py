"""Approximate embeddings of finite point sets into products of huge regular
polygons, with an explicit per-pair squared-distance error budget.

`product_embed` is the one constructor. The paper proves its embedding
lemma for a finite set of reals and applies it coordinate by coordinate;
here a set of reals is a point set of one column.

Every coordinate column, translated to start at 0, is snapped onto a tiny
arc of one large polygon. The translation, the spans and gaps, the
subdivision count and the vertex indices are exact integer arithmetic on
integer columns, unpacked once from the floats' integer ratios
(`_exact_columns`). The radius r is a float,
and the analysis below takes it exactly as written. Floats otherwise enter
only through the chord evaluations and the error report, which measure the
result.

The grid. Work in units of 2**e: values and radius are divided by 2**e, and
the column budget B = delta / #columns by 4**e. The construction is scale
covariant, so e is free; `_choose_grid` takes it where n is smallest. n0
is the least integer with every gap of every column in [1/n0, n0], so every
column spans at most n0. The polygon has m = n**3 vertices and radius
r = fl(n0*n / (2*pi)), so one step's arc is s = 2*pi*r/m = h*(1 + eta) with
h = n0/n**2 and |eta| < 2**-50 (r takes three roundings). A value u goes to
vertex j = floor(u / s~) with s~ = 2*pi~*r/m, where pi~ = lo / 2**b is the
lower end of an integer Machin enclosure of pi at b bits (`_pi_bounds`).
So j is an exact integer quotient, and c = 1 - pi/pi~ has |c| < 2**-b.

The bound. Take two values of one column at gap d <= n0 whose vertices are
k steps apart, with arc L = k*s and chord 2*r*sin(L / (2r)).

- Snapping. Each remainder u - j*s~ lies in [0, s~), and k*s~ < d + s~.
  So d - L is the difference of the two remainders plus c*k*s~, and
  |d - L| < x := s~ + |c|*(d + s~). Hence |d**2 - L**2| < x*(2d + x).
- Curvature. t**2 - sin(t)**2 <= t**4/3 for every real t, so
  0 <= L**2 - chord**2 <= L**4 / (12 r**2), with L < d + x.

Here s~ < s, and n >= 2 gives h <= n0/4. With the rounding of r, the two
terms sum to less than

    (1 + 2**-44) * F(n) + 3*|c|*n0**2,
    F(n) = (n0**2/n**2) * (2 + 1/n**2 + pi**2 * (1 + 1/n**2)**4 / 3).

F's first summand is h*(2*n0 + h); its second is (n0 + h)**4 over
12*(n0*n / (2*pi))**2. `_subdivisions` takes the least n > n0 with
F(n) < (63/64) * B. It computes F in integers, with pi replaced by the
enclosure's upper end. `_pi_bits` takes b with 2**b >= 512 * n0**2 / B, so
the snap's pi slack 3*|c|*n0**2 stays below B/128. Every pair's
squared-distance error is then below (63/64)(1 + 2**-44) B + B/128 < B, for
the radius as written. Every term falls as 1/n**2, so n is about
2.3 n0 / sqrt(B), and the order m = n**3 takes 1.5 fewer bits each time B
doubles: at the pipeline's coarse budget, polygon orders are near 32 bits
on well-spread 16-point inputs. n > n0 (so n >= 2) keeps the step below
the smallest gap despite r's rounding,
s~ < s < h*(1 + 2**-50) <= n0*(1 + 2**-50) / (n0 + 1)**2 < 1/n0, so
distinct values of a column get distinct vertices, at any budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, TrivialInput, check_real
from .geometry import as_point_array, squared_distances
from .torus import PolygonSpec, TorusPoint, TorusSpec, pairwise_sq


@dataclass(frozen=True)
class DeltaParams:
    """Grid parameters shared by all embedded coordinates.

    In units of 2**e, n0 bounds every pairwise coordinate gap into
    [1/n0, n0]; the polygon has m = n**3 vertices of circumradius
    r = fl(2**e * n0*n/(2*pi)), and vertex j lies the arc j * 2*pi*r/m
    (about j * n0 * 2**e / n**2) from vertex 0.
    """

    n0: int
    n: int
    m: int
    r: float
    e: int


@dataclass(frozen=True)
class DeltaEmbedding:
    """A vertex assignment with bounded squared-distance error, injective by
    the grid alone (n > n0, module docstring) at any budget."""

    torus: TorusSpec
    assignment: tuple[TorusPoint, ...]
    delta: float  # the error budget as requested
    per_pair_error: np.ndarray  # input squared distance minus torus squared distance
    params: DeltaParams


def _exact_columns(cols: np.ndarray) -> tuple[list[list[int]], int]:
    """The columns translated to start at 0, exactly: value i of column c is
    nums[c][i] / 2**shift, with one shift for all columns (every finite
    double is an integer over a power of two)."""
    ratios = [[v.as_integer_ratio() for v in col] for col in cols.T.tolist()]
    shift = max(q.bit_length() for col in ratios for _, q in col) - 1
    nums = []
    for col in ratios:
        ints = [p << (shift + 1 - q.bit_length()) for p, q in col]
        low = min(ints)
        nums.append([v - low for v in ints])
    return nums, shift


def _span_and_gap(nums: list[int]) -> tuple[int, int]:
    """The span and the smallest gap of a column translated to start at 0,
    over its distinct values (at least two)."""
    vals = sorted(set(nums))
    return vals[-1], min(b - a for a, b in zip(vals, vals[1:]))


def _gap_bound(span: int, gap: int, e: int) -> int:
    """Smallest integer b with every pairwise gap inside [2**e/b, b*2**e],
    for integer values of the given span and smallest gap (so span >= gap
    >= 1). Exact: both ceilings are integer ceilings, and below e = 0 every
    gap is already at least 2**e."""
    if e < 0:
        return span << -e
    # ceil(a / b) = -(-a // b) for b > 0: span / 2**e, then 2**e / gap
    return max(-(-span >> e), -(-(1 << e) // gap))


def _unit_budget(budget: tuple[int, int], e: int) -> tuple[int, int]:
    """The budget (numerator, denominator) times 4**-e, as the same pair."""
    num, den = budget
    return (num, den << 2 * e) if e >= 0 else (num << -2 * e, den)


def _pi_bits(n0: int, budget: tuple[int, int], e: int) -> int:
    """Bits b of the pi enclosure, with 2**b >= 512 * n0**2 / B for the
    budget B in units of 2**e. A multiple of 64, so that nearby budgets
    share one cached enclosure."""
    num, den = _unit_budget(budget, e)
    bits = (-(-n0 * n0 * den // num)).bit_length() + 9
    return max(64, -(-bits // 64) * 64)


@lru_cache(maxsize=32)
def _pi_bounds(bits: int) -> tuple[int, int]:
    """Integers lo < hi with lo < pi * 2**bits < hi and hi - lo <= 3.

    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239) in integer fixed
    point with guard bits. Each arctangent sums its alternating series until
    a term floors to 0. Each term is low by less than 2 and the tail is below
    1, so a sum of t terms is within 2t + 1 of the exact value.
    """
    guard = bits.bit_length() + 10
    one = 1 << (bits + guard)
    approx, err = 0, 0
    for weight, x in ((16, 5), (-4, 239)):
        total, power, t = 0, one // x, 0
        while power:  # power = floor(one / x**(2t + 1))
            term = power // (2 * t + 1)
            total += -term if t % 2 else term
            power //= x * x
            t += 1
        approx += weight * total
        err += abs(weight) * (2 * t + 1)
    # err < 2**(guard - 1), so the two ends are at most 3 apart
    return (approx - err) >> guard, -(-(approx + err) >> guard)


def _subdivisions(n0: int, budget: tuple[int, int], e: int, bits: int) -> int:
    """The least n > n0 with F(n) < (63/64) * B (module docstring)
    for the column budget, a (numerator, denominator) pair, with B the budget
    times 4**-e and pi at the upper end of its enclosure at `bits`.

    F falls in n, so the least n is found by stepping from the estimate that
    drops F's terms in 1/n**2, which is within a few steps of it.
    """
    num, den = _unit_budget(budget, e)
    pi_hi = _pi_bounds(bits)[1]
    pi_sq, one = pi_hi * pi_hi, 1 << 2 * bits  # pi**2 < pi_sq / one

    def fits(n: int) -> bool:
        # 3 n**10 F(n) one <= n0**2 ((6 n**8 + 3 n**6) one + pi_sq (n**2 + 1)**4)
        nn = n * n
        f = n0 * n0 * ((6 * nn + 3) * nn**3 * one + pi_sq * (nn + 1) ** 4)
        return 64 * f * den < 189 * nn**5 * one * num

    floor = n0 + 1
    n = max(floor, math.isqrt(64 * n0 * n0 * (6 * one + pi_sq) * den // (189 * one * num)))
    while n > floor and fits(n - 1):
        n -= 1
    while not fits(n):
        n += 1
    return n


def _choose_grid(
    span: int, gap: int, shift: int, budget: tuple[int, int]
) -> tuple[int, int, int, int]:
    """The grid (n, e, n0, bits) for columns of the given largest span and
    smallest gap, both in units of 2**-shift: of the unit exponents e0 - 1,
    e0 and e0 + 1 around the balance point e0 of the two, the first with the
    fewest subdivisions n, each grid evaluated once."""
    e0 = (span.bit_length() + gap.bit_length()) // 2 - shift
    grids = []
    for e in (e0 - 1, e0, e0 + 1):
        n0 = _gap_bound(span, gap, e + shift)
        bits = _pi_bits(n0, budget, e)
        grids.append((_subdivisions(n0, budget, e, bits), e, n0, bits))
    return min(grids)  # ties in n go to the smaller e, which comes first


def _grid_params(n0: int, n: int, e: int) -> DeltaParams:
    try:
        r = math.ldexp(n0 * n / (2.0 * math.pi), e)
    except OverflowError:
        r = math.inf
    if not (math.isfinite(r) and r >= sys.float_info.min):
        raise InputError(
            f"circumradius 2**{e} * n0 * n / (2 pi) is not a finite normal double"
        )
    return DeltaParams(n0, n, n**3, r, e)


def _vertex_index(value: int, num: int, den: int) -> int:
    """floor(value * num / den) for an integer value and num, den > 0.
    Values on a cell boundary resolve by the floor."""
    return value * num // den


def _snap(cols: np.ndarray, d2: np.ndarray, delta: float) -> DeltaEmbedding:
    """Snap each column, translated exactly to start at 0, onto one polygon
    of a shared (m, r) at a budget of delta / #columns; per_pair_error is `d2`
    minus the torus distances. The grid's unit 2**e comes from the columns'
    largest span and smallest gap."""
    nums, shift = _exact_columns(cols)
    extents = [_span_and_gap(col) for col in nums]
    span = max(s for s, _ in extents)
    gap = min(g for _, g in extents)
    delta_p, delta_q = delta.as_integer_ratio()
    budget = (delta_p, delta_q * len(nums))
    n, e, n0, bits = _choose_grid(span, gap, shift, budget)
    p = _grid_params(n0, n, e)
    # value t = T / 2**shift goes to floor(t * m / (2 pi~ r)), pi~ = lo / 2**bits
    r_p, r_q = p.r.as_integer_ratio()
    num = (p.m * r_q) << bits
    den = (_pi_bounds(bits)[0] * r_p) << (shift + 1)
    columns = [[_vertex_index(v, num, den) for v in col] for col in nums]
    torus = TorusSpec(tuple(PolygonSpec(p.m, p.r) for _ in nums))
    assignment = tuple(TorusPoint._of_ints(row) for row in zip(*columns))
    per_pair = d2 - pairwise_sq(torus, assignment)
    return DeltaEmbedding(torus, assignment, delta, per_pair, p)


def product_embed(points, delta) -> DeltaEmbedding:
    """Embed a finite point set into a product of identical large polygons.

    The grid's only constructor: a set of reals is one column, so a 1-d
    array is read as one point per value. One polygon factor per
    non-constant coordinate, in input order; constant coordinates carry no
    distance information and are dropped, as the input itself shows. All
    factors share one (m, r) pair, derived from the coordinates' largest
    span and smallest gap and a per-coordinate budget of exactly
    delta / #factors. Points may share values along an axis, but not all of
    them: equal rows are refused (InputError), and so is a single point
    (TrivialInput). Distinct points whose squared distance underflows to 0.0
    are embedded.

    The assignment is injective at any budget: distinct points differ on
    some kept axis, and on each axis the grid's step is below the smallest
    gap (n > n0, module docstring), so delta is kept as requested even
    when it exceeds the smallest squared distance.
    """
    delta = check_real(delta, "delta")
    try:
        arr = as_point_array(points)
    except InputError:
        if np.asarray(points, dtype=object).size:
            raise
        arr = np.empty((0, 1))  # no points at all: too few, as for one
    if arr.shape[0] < 2:
        raise TrivialInput("need at least two points")
    d2 = squared_distances(arr)
    # rows are compared only where a squared distance is 0.0
    i, j = np.nonzero(np.triu(d2 == 0.0, 1))
    if np.any(np.all(arr[i] == arr[j], axis=1)):
        raise InputError("points are not pairwise distinct")
    kept = np.flatnonzero(np.any(arr != arr[0], axis=0))
    # distinct points must differ somewhere, so at least one axis survives
    return _snap(arr[:, kept], d2, delta)
