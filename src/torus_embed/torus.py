"""Regular polygonal tori: polygon factors, integer vertex coordinates and
the chord metric between vertices.

Polygon orders and vertex indices are Python ints, so factors with
astronomically many vertices stay exact. Distances always go through the
chord formula on index differences; subtracting materialized Cartesian
coordinates would cancel catastrophically once the polygon order is large.

Every distance comes from one kernel, `pairwise_sq`, with two paths that
both keep `chord`'s bits. Below 2**53, an order, a folded index and a step
are exact doubles, so k / m in float64 is the one correctly rounded division
that `chord`'s int division is; those factors run in numpy, the sine from
`math.sin` (off a per-order table for small orders such as the m = 3 cut
factors, else per entry). That covers the grid's base factors, whose orders
are near 40 bits. Larger orders call `chord` on Python ints once per pair.
The squared chords are summed in factor order, so each entry has the bits of
a plain per-pair loop over `chord`. Factors run in blocks of about 2k
pair-factor entries, and the chords are written straight into the block's
rows, which bounds the kernel's scratch memory whatever the factor count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InputError, check_count, check_real


@dataclass(frozen=True)
class PolygonSpec:
    """Vertex set of a regular m-gon of circumradius r."""

    m: int
    r: float

    def __post_init__(self):
        check_count(self.m, "polygon order", 2)
        object.__setattr__(self, "r", check_real(self.r, "circumradius"))


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


# Orders below 2**53 take the numpy path: there every folded index, step and
# order is an exact double, so k / m is the correctly rounded quotient that
# `chord`'s int division gives.
_EXACT_M = 2**53
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
    Each factor's chords take one of two paths, both with `chord`'s bits:

    - an order below 2**53 runs in numpy, written straight into the block's
      rows (`_exact_chords`). Every folded index, step and order is an exact
      double there, so k / m is one correctly rounded division, the quotient
      of `chord`'s int division. The sine is `math.sin`, as in `chord`: read
      off a table of the steps 0 .. m // 2, one per order, when there are
      fewer of those than pairs (the m = 3 cut factors, say), else mapped
      over the row;
    - a larger order calls `chord` on Python ints once per pair.

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
    tables = {}  # order -> the sines of its steps 0 .. m // 2, shared by its factors
    sq = np.zeros((step + 1, npairs))  # row 0 carries the running sums
    with np.errstate(over="ignore", under="ignore"):
        for start in range(0, len(t.factors), step):
            block = t.factors[start:start + step]
            rows = sq[:len(block) + 1]
            indices = [p.indices[start:start + len(block)] for p in points]
            _exact_chords(block, indices, iu, rows[1:], tables)
            for c, f in enumerate(block):
                if f.m >= _EXACT_M:
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


def _exact_chords(block, indices, iu, out, tables) -> None:
    """`chord` over the pairs iu, written into row c of out for every factor
    c of the block with an order below 2**53; the rows of larger orders are
    left to the caller. indices[i] holds point i's indices on the block, and
    tables caches each small order's sines across blocks.

    The indices are folded mod m in int64 (a block holding an index past
    int64 is folded by Python's %), and then held as exact doubles. A step d
    in (-m, m) folds to k = min(|d|, m - |d|) = m/2 - ||d| - m/2|, every term
    exact. A zero step has sine 0.0 and is left at 0.0, never 2r * 0.0, which
    is nan once 2r overflows to inf.
    """
    ms = [f.m if f.m < _EXACT_M else 1 for f in block]  # 1 marks a larger order
    try:
        x = np.array(indices, dtype=np.int64).T
        x %= np.array(ms)[:, None]
    except OverflowError:
        x = np.array([[i % m for i, m in zip(row, ms)] for row in indices]).T
    x = x.astype(float)
    np.take(x, iu[0], axis=1, out=out, mode="clip")
    out -= x[:, iu[1]]
    half = np.array(ms, dtype=float)[:, None] * 0.5
    np.abs(out, out=out)
    np.subtract(out, half, out=out)
    np.abs(out, out=out)
    np.subtract(half, out, out=out)
    npairs = out.shape[1]
    short = {}
    for c, m in enumerate(ms):
        if m < 2 * npairs:  # m // 2 < npairs: the table is the shorter
            if m > 1:
                short.setdefault(m, []).append(c)
        else:
            angles = (math.pi * (out[c] / m)).tolist()
            out[c] = np.fromiter(map(math.sin, angles), float, npairs)
    for m, cs in short.items():
        if m not in tables:
            sines = (math.sin(math.pi * (q / m)) for q in range(m // 2 + 1))
            tables[m] = np.fromiter(sines, float, m // 2 + 1)
        out[cs] = tables[m][out[cs].astype(np.intp)]
    two_r = np.array([2.0 * f.r for f in block])[:, None]
    np.multiply(out, two_r, out=out, where=out != 0.0)


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

