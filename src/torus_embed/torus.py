"""Regular polygonal tori: polygon factors, integer vertex coordinates and
the chord metric between vertices.

Polygon orders and vertex indices are Python ints, so factors with
astronomically many vertices stay exact. Distances always go through the
chord formula on index differences; subtracting materialized Cartesian
coordinates would cancel catastrophically once the polygon order is large.

Every distance comes from one kernel, `pairwise_sq`, and every chord in it
from `chord` itself: once per folded step of a small order, read off a table
in numpy (the m = 3 cut factors of the correction), and once per pair for any
larger order. The squared chords are summed in factor order, so each entry
has the bits of a plain per-pair loop over `chord`. Factors run in blocks of
about 2k pair-factor entries, which bounds the kernel's scratch memory
whatever the factor count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class PolygonSpec:
    """Vertex set of a regular m-gon of circumradius r."""

    m: int
    r: float

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 2:
            raise InputError(f"polygon order must be an integer >= 2, got {self.m!r}")
        r = self.r
        if not isinstance(r, (int, float)) or isinstance(r, bool) or not math.isfinite(r) or r <= 0:
            raise InputError(f"circumradius must be a positive finite real, got {self.r!r}")
        object.__setattr__(self, "r", float(r))


@dataclass(frozen=True)
class TorusSpec:
    """Finite product of regular polygons; lives in R^(2 * len(factors))."""

    factors: tuple[PolygonSpec, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise InputError("a torus needs at least one polygon factor")
        if not all(isinstance(f, PolygonSpec) for f in factors):
            raise InputError("torus factors must be PolygonSpec instances")
        object.__setattr__(self, "factors", factors)

    @property
    def ambient_dim(self) -> int:
        return 2 * len(self.factors)

    def contains(self, point: "TorusPoint") -> bool:
        return len(point.indices) == len(self.factors) and all(
            0 <= idx < f.m for idx, f in zip(point.indices, self.factors)
        )


@dataclass(frozen=True)
class TorusPoint:
    """Combinatorial vertex coordinates, one index per torus factor."""

    indices: tuple[int, ...]

    def __post_init__(self):
        indices = tuple(self.indices)
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
            raise InputError("vertex indices must be integers")
        object.__setattr__(self, "indices", indices)

    @classmethod
    def _of_ints(cls, indices: tuple[int, ...]) -> "TorusPoint":
        """A point on a tuple already known to hold only ints (not bools),
        without re-checking each one."""
        point = object.__new__(cls)
        object.__setattr__(point, "indices", indices)
        return point


def chord(m: int, r: float, dj: int) -> float:
    """Chord length between polygon vertices dj steps apart.

    The step ratio k/m is formed as a single (big-)integer division before
    multiplying by pi, so there is no cancellation even for m far beyond
    2**63. Signed or out-of-range dj is folded into [0, m) first.
    """
    k = dj % m
    if not k:
        return 0.0  # 2.0 * r overflows for r above ~9e307, and inf * 0.0 is nan
    j = m - k
    if j < k:  # the shorter way round, 2k > m
        k = j
    return 2.0 * r * math.sin(math.pi * (k / m))


def _check_point(t: TorusSpec, p: TorusPoint) -> None:
    if len(p.indices) != len(t.factors):
        raise InputError(
            f"torus point has {len(p.indices)} indices but the torus has {len(t.factors)} factors"
        )


# Pair-factor entries per block of consecutive factors: bounds the scratch
# (16 kB per float array) while spreading numpy's per-call cost over a block.
_BLOCK = 2048


def pairwise_sq(t: TorusSpec, points) -> np.ndarray:
    """Matrix of squared ambient distances between torus points: the one
    chord-metric kernel.

    Each entry has the bits of a per-pair loop that adds `c * c`, for
    `c = chord(m, r, a - b)`, over the factors left to right. The factors run
    in blocks of about `_BLOCK` pair-factor entries: `np.add.accumulate` adds
    a block's squared chords onto the running sums in factor order (`np.sum`
    would add pairwise and change the bits), and the sums carry on to the
    next block, so scratch stays bounded however many factors there are.
    Each factor's chords come from `chord` itself by one of two paths:

    - an order with no more folded steps 0 .. m // 2 than there are pairs
      (the m = 3 cut factors, say) evaluates `chord` once per step and looks
      each pair's folded step up in that table, in numpy;
    - any larger order calls `chord` on Python ints once per pair.

    Overflow gives inf and underflow 0.0 without a warning, as in Python.
    """
    points = tuple(points)
    for p in points:
        _check_point(t, p)
    n = len(points)
    out = np.zeros((n, n))
    # the upper triangle row by row, the order of itertools.combinations
    iu = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    npairs = iu[0].size
    if not npairs:
        return out
    step = min(max(1, _BLOCK // npairs), len(t.factors))
    short_m = 2 * npairs  # below it, m // 2 < npairs: the table is the shorter
    sq = np.zeros((step + 1, npairs))  # row 0 carries the running sums
    with np.errstate(over="ignore", under="ignore"):
        for start in range(0, len(t.factors), step):
            block = t.factors[start:start + step]
            rows = sq[:len(block) + 1]
            short = [c for c, f in enumerate(block) if f.m < short_m]
            if short:
                rows[[c + 1 for c in short]] = _table_chords(
                    [block[c] for c in short], [start + c for c in short], points, iu
                )
            for c, f in enumerate(block):
                if f.m >= short_m:
                    m, r = f.m, f.r
                    col = [p.indices[start + c] for p in points]
                    chords = [chord(m, r, a - b) for a, b in combinations(col, 2)]
                    rows[c + 1] = np.fromiter(chords, float, npairs)
            np.square(rows[1:], out=rows[1:])
            np.add.accumulate(rows, axis=0, out=rows)
            sq[0] = rows[-1]
    out[iu] = sq[0]
    out[iu[::-1]] = sq[0]
    return out


def _table_chords(factors, ks, points, iu) -> np.ndarray:
    """`chord` over the pairs iu for factors of small order (factor ks[i] of
    the torus is factors[i]), one row per factor: each pair's step folded to
    0 .. m // 2, as `chord` folds it, indexes a table of `chord` on those
    steps."""
    m = np.array([f.m for f in factors])[:, None]
    x = np.array([p.indices[k] % f.m for f, k in zip(factors, ks) for p in points])
    x = x.reshape(len(factors), len(points))
    d = x[:, iu[0]]
    d -= x[:, iu[1]]
    np.abs(d, out=d)
    d = np.minimum(d, m - d)
    # factor i's steps 0 .. m // 2 sit at base[i] .. base[i] + m // 2
    sizes = [f.m // 2 + 1 for f in factors]
    base = np.cumsum([0] + sizes[:-1])[:, None]
    steps = (chord(f.m, f.r, q) for f, size in zip(factors, sizes) for q in range(size))
    table = np.fromiter(steps, float, sum(sizes))
    d += base
    return table[d]


def torus_distance_sq(t: TorusSpec, p: TorusPoint, q: TorusPoint) -> float:
    """Squared Euclidean distance in the ambient product space."""
    return float(pairwise_sq(t, (p, q))[0, 1])


def torus_distance(t: TorusSpec, p: TorusPoint, q: TorusPoint) -> float:
    return math.sqrt(torus_distance_sq(t, p, q))


def shift(t: TorusSpec, p: TorusPoint, offsets) -> TorusPoint:
    """Rotate every factor by the given number of steps.

    This is the transitive abelian action of the torus on itself; it
    preserves all index differences mod m, hence all distances bit for bit.
    """
    _check_point(t, p)
    offsets = tuple(offsets)
    if len(offsets) != len(t.factors):
        raise InputError("offset count must match the factor count")
    return TorusPoint(
        tuple((i + o) % f.m for f, i, o in zip(t.factors, p.indices, offsets))
    )


def materialize(t: TorusSpec, p: TorusPoint) -> np.ndarray:
    """Cartesian coordinates of a torus vertex in R^(2 * len(factors)).

    The vertex angle is 2*pi*(index/m) with the ratio formed first. For
    very large m adjacent vertices are closer than float spacing, so this
    representation is lossy; metric checks must use the chord formula.
    """
    _check_point(t, p)
    coords = np.empty(2 * len(t.factors))
    for i, (f, idx) in enumerate(zip(t.factors, p.indices)):
        theta = math.tau * ((idx % f.m) / f.m)
        coords[2 * i] = f.r * math.cos(theta)
        coords[2 * i + 1] = f.r * math.sin(theta)
    return coords
