"""Approximate embeddings of finite point sets into products of huge regular
polygons, with an explicit per-pair squared-distance error budget.

Every coordinate of the input is snapped to a uniform grid wrapped onto a
tiny arc of a very large polygon. Parameter selection and vertex indexing
run in exact integer and rational arithmetic; floats only enter through the
chord evaluations and the error report. Polygon orders routinely exceed
2**63, which is why they are Python ints end to end.
"""

from __future__ import annotations

import math
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

    n0 bounds every pairwise coordinate gap into [1/n0, n0]; the polygon
    has m = n**3 vertices of circumradius r = n0*n/(2*pi), and vertex
    indices stay within [0, n**2].
    """

    n0: int
    n: int
    m: int
    r: float


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


def _gap_bound(values: np.ndarray) -> int:
    """Smallest integer b with every pairwise gap inside [1/b, b].

    Exact: the ceilings are taken over rationals, never over rounded
    float quotients.
    """
    vals = np.sort(values)
    diffs = np.diff(vals)
    if float(diffs.min()) <= 0.0:
        raise InputError("duplicate coordinate values")
    span = Fraction(float(vals[-1] - vals[0]))
    min_gap = Fraction(float(diffs.min()))
    return max(1, math.ceil(span), math.ceil(1 / min_gap))


def _subdivisions(n0: int, budget: float) -> int:
    """Smallest usable subdivision count n for the given error budget.

    n must be at least 2*pi*n0**3/budget for the error analysis, at least
    n0 so the index map cannot collide, and at least 2 so the polygon
    order n**3 is a genuine polygon.
    """
    return max(2, n0, math.ceil(2 * _PI_UP * n0**3 / Fraction(budget)))


def _grid_params(n0: int, n: int) -> DeltaParams:
    if (n0 * n).bit_length() > 1020:
        raise InputError("delta is too small: circumradius exceeds the double range")
    return DeltaParams(n0, n, n**3, n0 * n / (2.0 * math.pi))


def _vertex_index(value: float, n0: int, n: int) -> int:
    # half-open grid rule j/n^2 <= value/n0 < (j+1)/n^2, evaluated exactly
    # over rationals; grid-boundary values resolve by the floor
    return math.floor(Fraction(value) * n * n / n0)


def _one_dim_values(xs) -> np.ndarray:
    vals = np.asarray(xs, dtype=float).ravel()
    if not np.all(np.isfinite(vals)):
        raise InputError("values contain non-finite entries")
    if vals.size < 2:
        raise TrivialInput("need at least two values")
    return vals


def one_dim_params(xs, delta) -> DeltaParams:
    """Polygon parameters for embedding a set of reals at budget delta."""
    delta = _check_budget(delta)
    vals = _one_dim_values(xs)
    # _gap_bound refuses duplicates, also those made by translation to zero
    n0 = _gap_bound(vals - vals.min())
    return _grid_params(n0, _subdivisions(n0, delta))


def one_dim_embed(xs, delta) -> DeltaEmbedding:
    """Embed a finite set of reals into one large polygon.

    Values are translated to start at 0 and snapped to the grid of
    n0/n**2-wide half-open cells; every pairwise squared distance is
    distorted by less than delta.
    """
    delta = _check_budget(delta)
    vals = _one_dim_values(xs)
    translated = vals - vals.min()
    n0 = _gap_bound(translated)
    p = _grid_params(n0, _subdivisions(n0, delta))
    indices = [_vertex_index(v, p.n0, p.n) for v in translated]
    torus = TorusSpec((PolygonSpec(p.m, p.r),))
    assignment = tuple(TorusPoint((j,)) for j in indices)
    per_pair = squared_distances(vals.reshape(-1, 1)) - pairwise_sq(torus, assignment)
    return DeltaEmbedding(torus, assignment, delta, per_pair, p)


def product_embed(points, delta) -> DeltaEmbedding:
    """Embed a finite point set into a product of identical large polygons.

    One polygon factor per non-constant coordinate; constant coordinates
    carry no distance information and are dropped (and recorded). All
    factors share one (m, r) pair, derived from the largest per-coordinate
    gap bound and a per-coordinate budget of delta / #factors.

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
    translated = arr[:, kept] - arr[:, kept].min(axis=0)
    # points may share values along an axis; the gap bound is over the
    # distinct values of each coordinate
    n0 = max(_gap_bound(np.unique(translated[:, c])) for c in range(len(kept)))
    n = _subdivisions(n0, delta / len(kept))
    p = _grid_params(n0, n)
    torus = TorusSpec(tuple(PolygonSpec(p.m, p.r) for _ in kept))
    assignment = tuple(
        TorusPoint(tuple(_vertex_index(float(v), p.n0, p.n) for v in row))
        for row in translated
    )
    per_pair = d2 - pairwise_sq(torus, assignment)
    return DeltaEmbedding(torus, assignment, delta, per_pair, p, dropped)
