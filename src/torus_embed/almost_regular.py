"""Almost-regular distance matrices: the condition, their realization as a
positive sum of cut semimetrics, and its embedding into equal-order
polygonal tori.

A symmetric matrix with zero diagonal and positive off-diagonal entries
qualifies as almost regular when, writing a_max for its largest entry,

    sum over i < j of (a_max^2 - a_ij^2)  <  a_max^2.

With B^2 the slack of this inequality (the margin) and the pair sides
s_ij = sqrt(a_max^2 - a_ij^2), the squared distances are a sum of cuts,
each splitting some points off the rest:

    {k} for every point k, of weight B^2/2 + sum of s_ij^2/2 over the
        pairs without k;
    {i, j} for every kept pair, of weight s_ij^2/2.

Points s and t are split by both singletons and by each pair cut holding
just one of them, so their squared distance is B^2 + sum of all s_ij^2 -
s_st^2 = a_st^2. This is the paper's product of regular simplices (a base
simplex, and one per pair in which i and j share a vertex) with equal cuts
merged. A cut of weight w is one coordinate of size sqrt(w) on its points,
and one m-gon of side sqrt(w) with its points on vertex 1 and the rest on
vertex 0. A pair attaining a_max is never kept, so n points take at most
n(n + 1)/2 - 1 cuts, and for n = 2 no pair cut covers the whole point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NotAlmostRegular
from .geometry import check_squared_distances
from .simplex import circumradius_for_side, embed_regular_simplex
from .torus import PolygonSpec, TorusPoint, TorusSpec

# pairs with side below this fraction of a_max are dropped rather than
# realized as zero-radius polygons
ZERO_SIDE_RTOL = 1e-13


class AlmostRegularCheck(NamedTuple):
    valid: bool
    margin: float


@dataclass(frozen=True)
class RealizationPlan:
    """The realization as merged cuts.

    `cuts` holds (points split off, polygon side = sqrt of the cut's
    weight): every singleton {k}, then every kept pair {i, j} in row-major
    order. `margin` is the almost-regularity margin.
    """

    n_points: int
    margin: float
    cuts: tuple[tuple[tuple[int, ...], float], ...]

    @property
    def base_side(self) -> float:
        return math.sqrt(self.margin)


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
    """The merged cuts of an almost-regular matrix.

    A singleton weight adds only nonnegative terms to B^2/2, so it stays
    positive; weights are taken relative to the largest side, so that
    squaring cannot underflow at tiny input scales.
    """
    a = _checked_entries(entries)
    n = a.shape[0]
    if n == 1:
        return RealizationPlan(1, 0.0, ())
    valid, margin = check_almost_regular(a)
    if not valid:
        raise NotAlmostRegular(
            f"almost-regularity margin is {margin:.6e}, must be positive"
        )
    i, j = np.triu_indices(n, k=1)
    upper = a[i, j]
    amax = float(upper.max())
    # Python's float ** (libm pow) rounds a few squares apart from numpy's
    # x * x; squaring with the former keeps the certificate bytes stable
    sides = np.array([math.sqrt(max(amax**2 - x**2, 0.0)) for x in upper.tolist()])
    kept = sides > ZERO_SIDE_RTOL * amax
    i, j, sides = i[kept], j[kept], sides[kept]
    base = math.sqrt(margin)
    scale = max(base, float(sides.max(initial=0.0)))
    half = 0.5 * (sides / scale) ** 2
    points = np.arange(n)[:, None]
    apart = (points != i) & (points != j)  # point k lies outside pair p
    weights = 0.5 * (base / scale) ** 2 + np.where(apart, half, 0.0).sum(axis=1)
    cuts = [((k,), scale * math.sqrt(w)) for k, w in enumerate(weights.tolist())]
    cuts.extend(
        ((p, q), s / math.sqrt(2.0))
        for p, q, s in zip(i.tolist(), j.tolist(), sides.tolist())
    )
    return RealizationPlan(n, margin, tuple(cuts))


def _incidence(plan: RealizationPlan) -> np.ndarray:
    """The 0/1 point-by-cut matrix: entry (s, c) is 1 when cut c holds s."""
    out = np.zeros((plan.n_points, len(plan.cuts)), dtype=np.int64)
    points = [s for members, _ in plan.cuts for s in members]
    cuts = [c for c, (members, _) in enumerate(plan.cuts) for _ in members]
    out[points, cuts] = 1
    return out


def realize_almost_regular(entries) -> tuple[np.ndarray, RealizationPlan]:
    """Point realization of an almost-regular matrix.

    Returns affinely independent points whose pairwise distances reproduce
    the matrix: one coordinate per cut, equal to the cut's side on its
    points and 0 elsewhere. The singleton cuts alone keep the points
    affinely independent.
    """
    plan = realization_plan(entries)
    sides = np.array([side for _, side in plan.cuts])
    return _incidence(plan) * sides, plan


def embed_almost_regular(entries, m: int) -> tuple[TorusSpec, list[TorusPoint]]:
    """Embed the realization into a torus whose factors all have order m.

    `entries` is an almost-regular distance matrix, or the RealizationPlan
    already made from one. Each cut of `plan.cuts` becomes one m-gon with
    the cut's side; the cut's points sit on vertex 1 and all others on
    vertex 0, so pairwise distances match the matrix.
    """
    plan = entries if isinstance(entries, RealizationPlan) else realization_plan(entries)
    if plan.n_points == 1:
        return embed_regular_simplex(1, 1.0, m)
    spec = TorusSpec(
        tuple(PolygonSpec(m, circumradius_for_side(m, side)) for _, side in plan.cuts)
    )
    points = [TorusPoint._of_ints(tuple(row)) for row in _incidence(plan).tolist()]
    return spec, points
