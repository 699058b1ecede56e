"""Approximate embeddings of finite point sets into products of huge regular
polygons, with an explicit per-pair squared-distance error budget.

Every coordinate of the input is snapped to a uniform grid wrapped onto a
tiny arc of a very large polygon. The grid is measured in units of 2**e:
the construction is scale covariant, so the analysis holds for the values
divided by 2**e at the budget divided by 4**e, and a polygon of radius
2**e * r has exactly 2**e times the chords of one of radius r. e is taken
at the balance point of the columns' largest span and smallest gap, where
the same proven bound needs the fewest subdivisions, so polygon orders stay
near a hundred bits at any input scale.

Gap bounds and vertex indices come from each float's exact integer ratio
(`float.as_integer_ratio`), shifted by e, in integer arithmetic; only the
subdivision count, against a rational bound on pi and the budget times
4**-e, goes through `Fraction`. Floats only enter through the radius, the
chord evaluations and the error report. Polygon orders routinely exceed
2**63, which is why they are Python ints end to end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, TrivialInput
from .geometry import as_point_array, squared_distances
from .torus import PolygonSpec, TorusPoint, TorusSpec, pairwise_sq

# Rational upper bound on pi (20 digits). Choosing parameters against an
# upper bound keeps every strict inequality of the construction valid in
# exact arithmetic, independent of float rounding.
_PI_UP = Fraction(31415926535897932385, 10**19)


@dataclass(frozen=True)
class DeltaParams:
    """Grid parameters shared by all embedded coordinates.

    In units of 2**e, n0 bounds every pairwise coordinate gap into
    [1/n0, n0]; the polygon has m = n**3 vertices of circumradius
    r = 2**e * n0*n/(2*pi), and vertex indices stay within [0, n**2], a
    vertex j standing for the value j * n0 * 2**e / n**2.
    """

    n0: int
    n: int
    m: int
    r: float
    e: int


@dataclass(frozen=True)
class DeltaEmbedding:
    """An injective vertex assignment with bounded squared-distance error."""

    torus: TorusSpec
    assignment: tuple[TorusPoint, ...]
    delta: float  # error budget actually enforced (may be tighter than requested)
    per_pair_error: np.ndarray  # input squared distance minus torus squared distance
    params: DeltaParams
    dropped_axes: tuple[int, ...] = ()


def _check_budget(delta) -> float:
    if isinstance(delta, bool) or not isinstance(delta, (int, float)):
        raise InputError(f"delta must be a positive real, got {delta!r}")
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise InputError(f"delta must be a positive real, got {delta!r}")
    return delta


def _span_and_gap(values: np.ndarray) -> tuple[float, float]:
    """The span and the smallest pairwise gap of distinct values; a zero
    gap is refused."""
    vals = np.sort(values)
    gap = float(np.diff(vals).min())
    if gap <= 0.0:
        raise InputError("distinct coordinate values collide once translated")
    return float(vals[-1] - vals[0]), gap


def _gap_bound(span: float, gap: float, e: int) -> int:
    """Smallest integer b with every pairwise gap inside [2**e/b, b*2**e],
    for values of the given span and smallest gap. Exact: both ceilings are
    integer ceilings on the span's and the gap's integer ratios shifted by
    e, never rounded float quotients."""
    span_p, span_q = span.as_integer_ratio()
    gap_p, gap_q = gap.as_integer_ratio()
    if e >= 0:
        span_q <<= e
        gap_q <<= e
    else:
        span_p <<= -e
        gap_p <<= -e
    # ceil(a / b) = -(-a // b) for b > 0: span / 2**e, then 2**e / gap
    return max(1, -(-span_p // span_q), -(-gap_q // gap_p))


def _subdivisions(n0: int, budget: float, e: int) -> int:
    """Smallest usable subdivision count n for the given error budget, on
    the grid in units of 2**e, where the budget is budget * 4**-e.

    n must be at least 2*pi*n0**3/(budget * 4**-e) for the error analysis,
    at least n0 so the index map cannot collide, and at least 2 so the
    polygon order n**3 is a genuine polygon.
    """
    unit_budget = Fraction(budget) * Fraction(4) ** -e
    return max(2, n0, math.ceil(2 * _PI_UP * n0**3 / unit_budget))


def _scale_exponent(span: float, gap: float, budget: float) -> int:
    """The grid's unit exponent e for values of the given largest span and
    smallest gap: of e0 - 1, e0 and e0 + 1 around the balance point e0 of
    the two, the first with the fewest subdivisions."""
    e0 = (math.frexp(span)[1] + math.frexp(gap)[1]) // 2
    return min(
        (e0 - 1, e0, e0 + 1),
        key=lambda e: _subdivisions(_gap_bound(span, gap, e), budget, e),
    )


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


def _vertex_index(value: float, n0: int, n: int, e: int) -> int:
    # half-open grid rule j/n^2 <= value/(n0 2^e) < (j+1)/n^2, evaluated
    # exactly on value = p/q with q > 0: j = floor(p n^2 / (q n0 2^e));
    # grid-boundary values resolve by the floor
    p, q = value.as_integer_ratio()
    if e >= 0:
        return p * n * n // (q * n0 << e)
    return (p * n * n << -e) // (q * n0)


def _snap(cols: np.ndarray, d2: np.ndarray, delta: float, dropped=()) -> DeltaEmbedding:
    """Snap each column, translated to start at 0, onto one polygon of a
    shared (m, r) at a budget of delta / #columns; per_pair_error is `d2`
    minus the torus distances. The grid's unit 2**e comes from the columns'
    largest span and smallest gap. Distinct values are taken before
    translation, so values that collide once translated are refused, not
    merged."""
    low = cols.min(axis=0)
    k = cols.shape[1]
    extents = [_span_and_gap(np.unique(cols[:, c]) - low[c]) for c in range(k)]
    span = max(s for s, _ in extents)
    gap = min(g for _, g in extents)
    budget = delta / k
    e = _scale_exponent(span, gap, budget)
    n0 = _gap_bound(span, gap, e)
    p = _grid_params(n0, _subdivisions(n0, budget, e), e)
    torus = TorusSpec(tuple(PolygonSpec(p.m, p.r) for _ in range(k)))
    assignment = tuple(
        TorusPoint._of_ints(tuple([_vertex_index(v, p.n0, p.n, e) for v in row]))
        for row in (cols - low).tolist()
    )
    per_pair = d2 - pairwise_sq(torus, assignment)
    return DeltaEmbedding(torus, assignment, delta, per_pair, p, dropped)


def one_dim_params(xs, delta) -> DeltaParams:
    """Polygon parameters for embedding a set of reals at budget delta."""
    return one_dim_embed(xs, delta).params


def one_dim_embed(xs, delta) -> DeltaEmbedding:
    """Embed a finite set of distinct reals into one large polygon.

    Values are translated to start at 0 and snapped to the grid of
    n0*2**e/n**2-wide half-open cells; every pairwise squared distance is
    distorted by less than delta, which is never shrunk.
    """
    delta = _check_budget(delta)
    vals = np.asarray(xs, dtype=float).ravel()
    if not np.all(np.isfinite(vals)):
        raise InputError("values contain non-finite entries")
    if vals.size < 2:
        raise TrivialInput("need at least two values")
    if np.unique(vals).size < vals.size:
        raise InputError("duplicate coordinate values")
    col = vals.reshape(-1, 1)
    return _snap(col, squared_distances(col), delta)


def product_embed(points, delta) -> DeltaEmbedding:
    """Embed a finite point set into a product of identical large polygons.

    One polygon factor per non-constant coordinate; constant coordinates
    carry no distance information and are dropped (and recorded). All
    factors share one (m, r) pair, derived from the coordinates' largest
    span and smallest gap and a per-coordinate budget of delta / #factors.
    Points may share values along an axis.

    If delta is not below the smallest pairwise squared distance it is
    first shrunk to half of it, so the error bound itself certifies that
    the assignment is injective.
    """
    delta = _check_budget(delta)
    arr = as_point_array(points)
    npts = arr.shape[0]
    if npts < 2:
        raise TrivialInput("need at least two points")
    d2 = squared_distances(arr)
    min_sq = float(d2[~np.eye(npts, dtype=bool)].min())
    if min_sq <= 0.0:
        raise InputError("points are not pairwise distinct")
    if delta >= min_sq:
        delta = 0.5 * min_sq
    kept = [c for c in range(arr.shape[1]) if np.any(arr[:, c] != arr[0, c])]
    dropped = tuple(c for c in range(arr.shape[1]) if c not in kept)
    # distinct points must differ somewhere, so at least one axis survives
    return _snap(arr[:, kept], d2, delta, dropped)
