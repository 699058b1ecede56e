"""Almost-regular squared-distance matrices: the condition, their
realization as a positive sum of cut semimetrics, and its embedding into
equal-order polygonal tori.

A squared-distance matrix with entries c_ij qualifies as almost regular
when, writing C for its largest entry and d_ij = C - c_ij for the deficits,

    sum over i < j of d_ij  <  C.

The slack M = C - sum of all d_ij is the margin. A positive margin needs
every d_ij below C, so every off-diagonal entry is then positive. The
matrix is a sum of cuts, each splitting some points off the rest:

    {k} for every point k, of weight M/2 + sum of d_ij/2 over the pairs
        without k;
    {i, j} for every kept pair, of weight d_ij/2.

Points s and t are split by both singletons and by each pair cut holding
just one of them, so their squared distance is M + sum of all d_ij - d_st
= c_st. This is the paper's product of regular simplices (a base simplex
of squared side M, and one per pair in which i and j share a vertex) with
equal cuts merged. A cut of weight w is one coordinate of size sqrt(w) on
its points, and one m-gon of side sqrt(w) with its points on vertex 1 and
the rest on vertex 0. A pair is kept when its deficit is positive; one
attaining C has none, so n points take at most n(n + 1)/2 - 1 cuts, and
for n = 2 no pair cut covers the whole point set.

Each weight is a sum of nonnegative terms, at most C, and its side is
taken as sqrt(2w) * sqrt(1/2): no weight is halved before its square
root, so every side of a validated matrix is finite and positive.

`embed_almost_regular` is the package's one path from cuts to polygons. The
regular simplex of side s is the plan with no deficits: its n singleton
cuts, each of side s * sqrt(1/2), and no pair cut, which is what
`embed_regular_simplex` embeds. A plan needs at least two points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InputError,
    NotAlmostRegular,
    TrivialInput,
    check_count,
    check_instance,
    check_real,
)
from .geometry import check_squared_distances
from .torus import PolygonSpec, TorusPoint, TorusSpec, chord

_ROOT_HALF = math.sqrt(0.5)


class AlmostRegularCheck(NamedTuple):
    valid: bool
    margin: float


@dataclass(frozen=True)
class RealizationPlan:
    """The realization as merged cuts.

    `cuts` holds (points split off, polygon side = sqrt of the cut's
    weight): every singleton {k}, then every kept pair {i, j} in row-major
    order. `margin` is the almost-regularity margin M.
    """

    n_points: int
    margin: float
    cuts: tuple[tuple[tuple[int, ...], float], ...]


def _deficits(sq):
    """Validate a squared-distance matrix once. Returns its size n, the
    pairs (i, j) in row-major order, their deficits C - c_ij and the
    margin, C minus the correctly rounded sum of the deficits."""
    c = check_squared_distances(sq)
    n = c.shape[0]
    i, j = np.triu_indices(n, k=1)
    upper = c[i, j]
    if float(upper.min(initial=math.inf)) <= 0.0:
        raise InputError("off-diagonal entries must be strictly positive")
    cmax = float(upper.max(initial=0.0))
    deficits = cmax - upper
    try:
        margin = cmax - math.fsum(deficits.tolist())
    except OverflowError:  # the deficits sum past the largest double, so past C
        margin = -math.inf
    return n, i, j, deficits, margin


def check_almost_regular(sq) -> AlmostRegularCheck:
    """Evaluate the almost-regularity condition on a squared-distance matrix.

    margin = C - sum_{i<j} (C - c_ij); valid iff margin > 0.
    """
    margin = _deficits(sq)[-1]
    return AlmostRegularCheck(margin > 0.0, margin)


def realization_plan(sq) -> RealizationPlan:
    """The merged cuts of an almost-regular squared-distance matrix.

    Raises InputError for a matrix that is not a valid squared-distance
    matrix with positive off-diagonal entries, TrivialInput for fewer than
    two points, and NotAlmostRegular for a margin that is not positive.
    """
    n, i, j, deficits, margin = _deficits(sq)
    if n < 2:
        raise TrivialInput("a realization plan needs at least two points")
    if not margin > 0.0:
        raise NotAlmostRegular(
            f"almost-regularity margin is {margin:.6e}, must be positive"
        )
    kept = deficits > 0.0
    i, j, deficits = i[kept], j[kept], deficits[kept]
    points = np.arange(n)[:, None]
    apart = (points != i) & (points != j)  # point k lies outside pair p
    # twice the weight of {k}: the margin, then the deficits of the pairs
    # without k added one at a time in row-major order, as a loop would
    terms = np.hstack([np.full((n, 1), margin), np.where(apart, deficits, 0.0)])
    singles = np.sqrt(terms.cumsum(axis=1)[:, -1]) * _ROOT_HALF
    pairs = np.sqrt(deficits) * _ROOT_HALF
    cuts = [((k,), side) for k, side in enumerate(singles.tolist())]
    cuts.extend(zip(zip(i.tolist(), j.tolist()), pairs.tolist()))
    return RealizationPlan(n, margin, tuple(cuts))


def _incidence(plan: RealizationPlan) -> np.ndarray:
    """The 0/1 point-by-cut matrix: entry (s, c) is 1 when cut c holds s."""
    out = np.zeros((plan.n_points, len(plan.cuts)), dtype=np.int64)
    points = [s for members, _ in plan.cuts for s in members]
    cuts = [c for c, (members, _) in enumerate(plan.cuts) for _ in members]
    out[points, cuts] = 1
    return out


def embed_almost_regular(plan: RealizationPlan, m: int) -> tuple[TorusSpec, list[TorusPoint]]:
    """Embed a realization plan into a torus whose factors all have order m.

    Each cut of `plan.cuts` becomes one m-gon with the cut's side; the cut's
    points sit on vertex 1 and all others on vertex 0, so pairwise squared
    distances match the planned matrix. Each radius is the side over the
    side of the m-gon of circumradius 1, computed once. Raises InputError
    for a plan that is not a RealizationPlan and for an order that is not an
    integer >= 2 or whose unit side is not a normal double.
    """
    check_instance(plan, RealizationPlan, "plan")
    check_count(m, "polygon order", 2)
    unit = chord(m, 1.0, 1)
    if unit < np.finfo(float).tiny:  # 2 sin(pi/m), for m past about 2.8e308
        raise InputError(
            f"polygon order must keep 2 sin(pi/m) a normal double, got {m.bit_length()} bits"
        )
    with np.errstate(over="ignore"):  # an inf radius is refused by name below
        radii = (np.array([side for _, side in plan.cuts]) / unit).tolist()
    spec = TorusSpec(tuple(PolygonSpec(m, r) for r in radii))
    points = [TorusPoint._of_ints(tuple(row)) for row in _incidence(plan).tolist()]
    return spec, points


# bench/spans.py patches embed_regular_simplex here, so it stays defined in
# this module
def embed_regular_simplex(n: int, side: float, m: int) -> tuple[TorusSpec, list[TorusPoint]]:
    """Isometric embedding of a regular simplex of the given side into n
    equal m-gon factors: `embed_almost_regular` of the plan with no deficits.

    Vertex i sits at polygon vertex 1 in factor i and at the adjacent vertex
    0 everywhere else, and each polygon side is side * sqrt(1/2), so two
    vertices differ by one polygon side in exactly two factors. Raises
    InputError unless side is positive and finite with a square that is a
    positive finite double, and TrivialInput for one vertex.
    """
    check_count(n, "vertex count", 1)
    side = check_real(side, "side length")
    sq = np.full((n, n), side * side)
    np.fill_diagonal(sq, 0.0)
    return embed_almost_regular(realization_plan(sq), m)
