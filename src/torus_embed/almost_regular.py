"""Almost-regular squared-distance matrices: the condition, their
realization as a positive sum of cut semimetrics, and its embedding into
equal-order polygonal tori.

A squared-distance matrix with entries c_ij qualifies as almost regular
when, writing C for its largest entry and d_ij = C - c_ij for the deficits,

    sum over i < j of d_ij  <  C.

The slack M = C - sum of all d_ij is the margin. A positive margin needs
every d_ij below C, so every off-diagonal entry is then positive. Such a
matrix is a positive sum of cuts, each splitting some points off the rest,
and so is any matrix whose pair plan below has positive weights. A cut of
weight w is one coordinate of size sqrt(w) on its points, and one m-gon of
side sqrt(w) with its points on vertex 1 and the rest on vertex 0. There
are two plans; `realization_plan` returns the one with fewer cuts that
applies, and records the slack it was accepted on: M for the singleton
plan, the smallest weight for the pair plan.

The pair plan, for n = 3 and n >= 5: one cut {i, j} per pair, in row-major
order, n(n - 1)/2 cuts. A pair cut splits the pairs that share exactly one
point with it, so its cut matrix A is the adjacency matrix of the
triangular graph T(n). That graph is strongly regular with parameters
(n(n - 1)/2, 2(n - 2), n - 2, 4) (Brouwer and Haemers, Spectra of Graphs,
ch. 9), so A^2 = (2n - 8) I + (n - 6) A + 4 J, and for n other than 2 and
4, A is invertible with

    A^-1 = x I + y A + z J,   x = (6 - n)/(2n - 8),  y = 1/(2n - 8),
                              z = -1/((n - 2)(n - 4)).

The weights are A^-1 c. With c = C - d and A 1 = 2(n - 2) 1, in deficit
form, so that the uniform part carries no cancellation,

    w_p = C/(2(n - 2)) - (x d_p + y (Ad)_p + z sum of all d),

where (Ad)_p = D_i + D_j - 2 d_p for p = (i, j) and D holds the deficit
row sums; the plan is O(n^2). Each weight is positive whenever the margin
is, by these bounds (ROADMAP item 11):

    n >= 6:  w_p >= (C - (Ad)_p)/(2(n - 2)),
    n = 5:   w_p >= (C - d_p - (Ad)_p)/6,
    n = 3:   w_p = (C - sum of all d)/2 + d_p,

since (Ad)_p and d_p + (Ad)_p are sums of distinct deficits, so at most
their total, which is below C. The converse fails: positive weights need
no positive margin. The pair plan asks only what the realization needs,
every weight positive, and M plays no part in it; its slack is the
smallest weight, which the uniform matrix C off the diagonal puts at
C/(2(n - 2)). Every computed weight is checked positive, which also
refuses a weight that rounding loses near zero (a margin near 1e-15 C),
with NotAlmostRegular naming the pair. The
weights are computed on C and the deficits scaled by the exact power of
four 4^-k that puts C in [1, 4), so no step under- or overflows; each side
is the square root of the scaled weight times 2^k, which is sqrt(w_p),
finite and positive, and scales exactly with the matrix.

The singleton plan, kept for n = 2 and 4 (where A is singular) and
wherever it has no more cuts than the pair plan, when M is positive (for
n = 3 and n >= 5 a singleton plan without one gives way to the pair plan):

    {k} for every point k, of weight M/2 + sum of d_ij/2 over the pairs
        without k;
    {i, j} for every kept pair, of weight d_ij/2.

Points s and t are split by both singletons and by each pair cut holding
just one of them, so their squared distance is M + sum of all d_ij - d_st
= c_st. This is the paper's product of regular simplices (a base simplex
of squared side M, and one per pair in which i and j share a vertex) with
equal cuts merged. A pair is kept when its deficit is positive; one
attaining C has none, so n points take n plus the number of positive
deficits cuts, at most n(n + 1)/2 - 1, and the pair plan has fewer as soon
as more than n(n - 3)/2 deficits are positive. Each weight is a sum of
nonnegative terms, at most C, and its side is taken as sqrt(2w) *
sqrt(1/2): no weight is halved before its square root, so every side of a
validated matrix is finite and positive.

`embed_almost_regular` is the package's one path from cuts to polygons. The
regular simplex of side s is a plan with no deficits: its n singleton
cuts, each of side s * sqrt(1/2), and no pair cut, which is what
`embed_regular_simplex` embeds. A plan needs at least two points.
`check_almost_regular` is kept for the benchmark's tracer, which patches
it; no plan calls it.
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
    _shown,
    check_count,
    check_instance,
    check_real,
    check_sequence,
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
    weight): in the pair plan every pair {i, j} in row-major order, in the
    singleton plan every singleton {k}, then every kept pair {i, j} in
    row-major order (module docstring). `slack` is what the plan was
    accepted on: the smallest cut weight in the pair plan, the margin M in
    the singleton plan.
    """

    n_points: int
    slack: float
    cuts: tuple[tuple[tuple[int, ...], float], ...]


def _deficits(c):
    """The size n of a validated squared-distance matrix, its pairs (i, j)
    in row-major order, their largest entry C and their deficits C - c_ij.
    Raises InputError for an off-diagonal entry that is not positive."""
    n = c.shape[0]
    i, j = np.triu_indices(n, k=1)
    upper = c[i, j]
    if float(upper.min(initial=math.inf)) <= 0.0:
        raise InputError("off-diagonal entries must be strictly positive")
    cmax = float(upper.max(initial=0.0))
    return n, i, j, cmax, cmax - upper


def _margin(cmax, deficits) -> float:
    """The margin M: C minus the correctly rounded sum of the deficits."""
    try:
        return cmax - math.fsum(deficits.tolist())
    except OverflowError:  # the deficits sum past the largest double, so past C
        return -math.inf


def check_almost_regular(sq) -> AlmostRegularCheck:
    """Evaluate the almost-regularity condition on a squared-distance matrix.

    margin = C - sum_{i<j} (C - c_ij); valid iff margin > 0.
    """
    _, _, _, cmax, deficits = _deficits(check_squared_distances(sq))
    margin = _margin(cmax, deficits)
    return AlmostRegularCheck(margin > 0.0, margin)


def realization_plan(sq) -> RealizationPlan:
    """The merged cuts of a squared-distance matrix that is a positive sum
    of cuts: the singleton plan where it has no more cuts than the pair
    plan and its margin M is positive, or n is 2 or 4; else the pair plan,
    for n = 3 and n >= 5, when every weight A^-1 c is positive, whatever M
    is (module docstring).

    Raises InputError for a matrix that is not a valid squared-distance
    matrix with positive off-diagonal entries, TrivialInput for fewer than
    two points, and NotAlmostRegular for a singleton plan whose margin is
    not positive or a pair plan with a weight that is not.
    """
    return _realization_plan(check_squared_distances(sq))


def _realization_plan(c) -> RealizationPlan:
    """`realization_plan` of a squared-distance matrix that is already
    validated, as one the pipeline has just built."""
    n, i, j, cmax, deficits = _deficits(c)
    if n < 2:
        raise TrivialInput("a realization plan needs at least two points")
    kept = deficits > 0.0
    # the pair cuts' cut matrix is singular at n = 2 and 4
    if n in (2, 4) or len(deficits) >= n + int(np.count_nonzero(kept)):
        margin = _margin(cmax, deficits)
        if margin > 0.0:
            cuts = _singleton_cuts(n, i[kept], j[kept], deficits[kept], margin)
            return RealizationPlan(n, margin, cuts)
        if n in (2, 4):
            raise NotAlmostRegular(
                f"almost-regularity margin is {margin:.6e}, must be positive"
            )
    return RealizationPlan(n, *_pair_cuts(n, i, j, cmax, deficits))


def _singleton_cuts(n, i, j, deficits, margin):
    """The singleton plan's cuts, given its kept pairs and their deficits."""
    points = np.arange(n)[:, None]
    apart = (points != i) & (points != j)  # point k lies outside pair p
    # twice the weight of {k}: the margin, then the deficits of the pairs
    # without k added one at a time in row-major order, as a loop would
    terms = np.hstack([np.full((n, 1), margin), np.where(apart, deficits, 0.0)])
    singles = np.sqrt(terms.cumsum(axis=1)[:, -1]) * _ROOT_HALF
    pairs = np.sqrt(deficits) * _ROOT_HALF
    cuts = [((k,), side) for k, side in enumerate(singles.tolist())]
    cuts.extend(zip(zip(i.tolist(), j.tolist()), pairs.tolist()))
    return tuple(cuts)


def _pair_cuts(n, i, j, cmax, deficits):
    """The pair plan's smallest weight and its cuts, one per pair (i, j) in
    row-major order, at the weights A^-1 c in deficit form, on C and the
    deficits scaled by 4^-k with C 4^-k in [1, 4) (module docstring).
    Raises NotAlmostRegular for a weight that is not positive."""
    k = (math.frexp(cmax)[1] - 1) // 2
    cmax = math.ldexp(cmax, -2 * k)
    d = np.ldexp(deficits, -2 * k)
    total = math.fsum(d.tolist())
    square = np.zeros((n, n))
    square[i, j] = square[j, i] = d
    rows = square.cumsum(axis=1)[:, -1]  # D, summed in column order as a loop would
    adjacent = (rows[i] + rows[j]) - 2.0 * d  # (Ad)_p
    x, y, z = (6 - n) / (2 * n - 8), 1 / (2 * n - 8), -1 / ((n - 2) * (n - 4))
    weights = cmax / (2 * (n - 2)) - (x * d + y * adjacent + z * total)
    if not np.all(weights > 0.0):
        p = int(np.argmin(weights))
        raise NotAlmostRegular(
            f"pair cut {(int(i[p]), int(j[p]))} has weight {float(weights[p]) / cmax:.6e} C, "
            "must be positive"
        )
    sides = np.ldexp(np.sqrt(weights), k)
    slack = math.ldexp(float(weights.min()), 2 * k)
    return slack, tuple(zip(zip(i.tolist(), j.tolist()), sides.tolist()))


def _unzip(cuts) -> tuple[tuple, tuple]:
    """The cuts' members and their sides, as two tuples. Raises InputError
    naming the first cut that is not a (members, side) pair whose members
    are a tuple or list."""
    try:
        members, sides = zip(*cuts, strict=True)
        if set(map(type, members)) <= {tuple, list}:
            return members, sides
    except (TypeError, ValueError):  # a cut that is not a pair
        pass
    # the first cut that is not such a pair
    k = next(k for k, cut in enumerate(cuts) if not (
        type(cut) in (tuple, list) and len(cut) == 2 and type(cut[0]) in (tuple, list)))
    raise InputError(f"plan.cuts[{k}] must be a (members, side) pair, its members in a "
                     f"tuple or list, got {_shown(cuts[k])}")


def _sides(sides) -> np.ndarray:
    """The cuts' sides as a float array. Raises InputError naming the first
    cut whose side is not a positive finite number."""
    if set(map(type, sides)) <= {float, int}:  # numpy would read a bool or a string
        try:
            arr = np.array(sides, dtype=float)
        except OverflowError:  # an int past the largest double, named below
            pass
        else:
            if np.all((arr > 0.0) & (arr < math.inf)):
                return arr
    for k, side in enumerate(sides):
        check_real(side, f"plan.cuts[{k}] side")
    return np.array(sides, dtype=float)  # sides of a float subclass, as numpy's


def _incidence(n: int, members) -> np.ndarray:
    """The 0/1 point-by-cut matrix of n points: entry (s, c) is 1 when cut c
    holds s among its `members`. Raises InputError for a cut member that is
    not an int (not a bool) in range(n)."""
    out = np.zeros((n, len(members)), dtype=np.int64)
    points = [s for cut in members for s in cut]
    cols = [c for c, cut in enumerate(members) for _ in cut]
    if not (set(map(type, points)) <= {int} and 0 <= min(points, default=0)
            and max(points, default=0) < n):
        for c, s in zip(cols, points):
            if type(s) is not int or not 0 <= s < n:
                raise InputError(
                    f"plan.cuts[{c}] must hold points in range({n}), got {members[c]}"
                )
    out[points, cols] = 1
    return out


def embed_almost_regular(plan: RealizationPlan, m: int) -> tuple[TorusSpec, list[TorusPoint]]:
    """Embed a realization plan into a torus whose factors all have order m.

    Each cut of `plan.cuts` becomes one m-gon with the cut's side; the cut's
    points sit on vertex 1 and all others on vertex 0, so pairwise squared
    distances match the planned matrix. Each radius is the side over the
    side of the m-gon of circumradius 1, computed once. Raises InputError,
    naming the field, for a plan that is not a RealizationPlan, whose
    `n_points` is not an integer >= 1, whose `cuts` is not a nonempty tuple
    or list, or with a cut that is not a (members, side) pair, whose side is
    not a positive finite number or whose members are not a tuple or list of
    ints in range(plan.n_points); and for an order
    that is not an integer >= 2 or whose unit side is not a normal double.
    """
    check_instance(plan, RealizationPlan, "plan")
    n = check_count(plan.n_points, "plan.n_points", 1)
    members, sides = _unzip(check_sequence(plan.cuts, "plan.cuts", object, nonempty=True))
    sides = _sides(sides)
    check_count(m, "polygon order", 2)
    unit = chord(m, 1.0, 1)
    if unit < np.finfo(float).tiny:  # 2 sin(pi/m), for m past about 2.8e308
        raise InputError(
            f"polygon order must keep 2 sin(pi/m) a normal double, got {m.bit_length()} bits"
        )
    with np.errstate(over="ignore"):  # an inf radius is refused by name below
        radii = (sides / unit).tolist()
    spec = TorusSpec(tuple(PolygonSpec(m, r) for r in radii))
    points = [TorusPoint._of_ints(tuple(row)) for row in _incidence(n, members).tolist()]
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
