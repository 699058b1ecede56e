"""Realization of almost-regular distance matrices in products of regular
simplices, and their embedding into equal-order polygonal tori.

A symmetric matrix with zero diagonal and positive off-diagonal entries
qualifies as almost regular when, writing a_max for its largest entry,

    sum over i < j of (a_max^2 - a_ij^2)  <  a_max^2.

The slack of this inequality is the squared side of a base regular simplex
with one vertex per point. Every pair (i, j) whose entry falls short of
a_max contributes one more simplex factor, of side sqrt(a_max^2 - a_ij^2)
and with one vertex fewer, in which points i and j share a vertex. Squared
distances add over factors, and the pair (s, t) misses exactly its own
factor's contribution, which reproduces a_st^2 on the nose.

For the torus embedding the product is read as a positive sum of cut
semimetrics: the squared distances of a regular simplex of side s are s^2/2
times the sum of the cuts that split off one of its vertices, and in the
(i, j) factor the vertex shared by i and j splits off the cut {i, j}. Equal
cuts add up, so with B the base side and s_ij the pair sides the torus
needs one polygon per distinct cut:

    {k} for every point k, of weight B^2/2 + sum of s_ij^2/2 over the
        pairs without k;
    {i, j} for every kept pair, of weight s_ij^2/2.

A cut of weight w is one m-gon of side sqrt(w) with the cut's points on
vertex 1 and the rest on vertex 0. A pair attaining a_max is never kept,
so n points take n + (kept pairs) <= n(n + 1)/2 - 1 factors: 135 for 16
points, against 1,801 for a polygon per simplex vertex. For n = 2 the only
pair attains a_max, so no pair cut ever covers the whole point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NotAlmostRegular
from .geometry import check_squared_distances
from .simplex import circumradius_for_side, embed_regular_simplex, regular_simplex
from .torus import PolygonSpec, TorusPoint, TorusSpec

# pair factors with side below this fraction of a_max are dropped rather
# than realized as zero-radius polygons
ZERO_SIDE_RTOL = 1e-13


class AlmostRegularCheck(NamedTuple):
    valid: bool
    margin: float


@dataclass(frozen=True)
class PairFactor:
    """One collapsing simplex factor: points i and j share a vertex."""

    i: int
    j: int
    side: float


@dataclass(frozen=True)
class RealizationPlan:
    """Recipe for the product-of-simplices realization."""

    n_points: int
    base_side: float
    pair_factors: tuple[PairFactor, ...]

    @property
    def factor_count(self) -> int:
        return 1 + len(self.pair_factors)

    def cuts(self) -> list[tuple[tuple[int, ...], float]]:
        """The realization as merged cuts, each as (points split off,
        polygon side = sqrt of the weight): every singleton {k}, then every
        kept pair {i, j}, in plan order.

        A singleton weight adds only nonnegative terms to B^2/2, so it
        stays positive; weights are taken relative to the largest side, so
        that squaring cannot underflow at tiny input scales.
        """
        n = self.n_points
        if n == 1:
            return []
        pairs = self.pair_factors
        sides = np.array([f.side for f in pairs])
        i = np.array([f.i for f in pairs], dtype=np.intp)
        j = np.array([f.j for f in pairs], dtype=np.intp)
        scale = max(self.base_side, float(sides.max(initial=0.0)))
        half = 0.5 * (sides / scale) ** 2
        points = np.arange(n)[:, None]
        apart = (points != i) & (points != j)  # point k lies outside pair p
        weights = 0.5 * (self.base_side / scale) ** 2 + np.where(apart, half, 0.0).sum(axis=1)
        out = [((k,), scale * math.sqrt(w)) for k, w in enumerate(weights.tolist())]
        out.extend(((f.i, f.j), f.side / math.sqrt(2.0)) for f in pairs)
        return out


def collapse_index(i: int, j: int, s: int) -> int:
    """Vertex of the (i, j) pair factor used by point s (0-based, i < j).

    Point j is folded onto point i's vertex; points above j slide down one
    slot, so the n points use only n - 1 vertices.
    """
    if s == j:
        return i
    return s if s < j else s - 1


def _checked_entries(entries) -> np.ndarray:
    a = check_squared_distances(entries, "distance matrix")
    n = a.shape[0]
    if n > 1 and float(a[~np.eye(n, dtype=bool)].min()) <= 0.0:
        raise InputError("off-diagonal entries must be strictly positive")
    amax = float(a.max())
    if not math.isfinite(amax * amax):
        raise InputError("distance matrix entries are too large to square")
    return a


def check_almost_regular(entries) -> AlmostRegularCheck:
    """Evaluate the almost-regularity condition.

    margin = a_max^2 - sum_{i<j} (a_max^2 - a_ij^2); valid iff margin > 0.
    """
    a = _checked_entries(entries)
    n = a.shape[0]
    if n == 1:
        return AlmostRegularCheck(False, 0.0)
    iu = np.triu_indices(n, k=1)
    amax = float(a[iu].max())
    margin = amax**2 - float(np.sum(amax**2 - a[iu] ** 2))
    return AlmostRegularCheck(margin > 0.0, margin)


def realization_plan(entries) -> RealizationPlan:
    """Factor sides and collapse structure for an almost-regular matrix."""
    a = _checked_entries(entries)
    n = a.shape[0]
    if n == 1:
        return RealizationPlan(1, 0.0, ())
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
                pair_factors.append(PairFactor(i, j, side))
    return RealizationPlan(n, math.sqrt(margin), tuple(pair_factors))


def realize_almost_regular(entries) -> tuple[np.ndarray, RealizationPlan]:
    """Point realization of an almost-regular matrix.

    Returns affinely independent points whose pairwise distances reproduce
    the matrix, as the coordinate-wise concatenation of one base regular
    simplex and one collapsing simplex per pair factor.
    """
    plan = realization_plan(entries)
    n = plan.n_points
    if n == 1:
        return np.zeros((1, 0)), plan
    blocks = [regular_simplex(n, plan.base_side)]
    for f in plan.pair_factors:
        verts = regular_simplex(n - 1, f.side)
        blocks.append(verts[[collapse_index(f.i, f.j, s) for s in range(n)]])
    return np.hstack(blocks), plan


def embed_almost_regular(entries, m: int) -> tuple[TorusSpec, list[TorusPoint]]:
    """Embed the realization into a torus whose factors all have order m.

    `entries` is an almost-regular distance matrix, or the RealizationPlan
    already made from one. Each cut of `plan.cuts()` becomes one m-gon
    with the cut's polygon side; the cut's points sit on vertex 1
    and all others on vertex 0, so pairwise distances match the matrix.
    """
    plan = entries if isinstance(entries, RealizationPlan) else realization_plan(entries)
    n = plan.n_points
    if n == 1:
        spec, points = embed_regular_simplex(1, 1.0, m)
        return spec, points
    cuts = plan.cuts()
    spec = TorusSpec(tuple(PolygonSpec(m, circumradius_for_side(m, side)) for _, side in cuts))
    points = [TorusPoint(tuple(int(s in members) for members, _ in cuts)) for s in range(n)]
    return spec, points
