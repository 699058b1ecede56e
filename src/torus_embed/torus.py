"""Regular polygonal tori: polygon factors, integer vertex coordinates and
the chord metric between vertices.

Polygon orders and vertex indices are Python ints, so factors with
astronomically many vertices stay exact. Distances always go through the
chord formula on index differences; subtracting materialized Cartesian
coordinates would cancel catastrophically once the polygon order is large.

Each value type has one checked constructor. `PolygonSpec` passes the common
case, an int order >= 2 and a float radius that is a positive finite double,
on one test, and sends anything else to `errors.check_count` and
`errors.check_real`, which store a radius as a float or refuse it by name.
`TorusSpec`'s factors and `TorusPoint`'s indices go through
`errors.check_sequence`. `TorusPoint._of_ints` alone skips the check, for
index tuples the package has just built from ints.

Every distance comes from one kernel, `pairwise_sq`, with three paths that
all keep `chord`'s bits, chosen by a factor's order alone. A cut factor, of
order 2 or 3 (the correction's triangles), has one nonzero chord,
`chord(m, r, 1)`, on each pair whose folded indices differ: a run of them
is added with one `np.add.at` per chunk, over the split pairs alone. Any
other order below 2**53 runs in numpy: an order, a folded index and a step
are exact doubles there, so k / m in float64 is the one correctly rounded
division that `chord`'s int division is, and the sine is `math.sin` per
entry. That covers the grid's base factors, whose orders are near 40 bits.
Orders of 2**53 and more call `chord` on Python ints once per pair. The
squared chords are summed in factor order, so each entry has the bits of a
plain per-pair loop over `chord`. Factors run in chunks of a few thousand
pair-factor entries, which bounds the kernel's scratch memory whatever the
factor count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from .errors import InputError, check_count, check_instance, check_real, check_sequence


@dataclass(frozen=True)
class PolygonSpec:
    """Vertex set of a regular m-gon of circumradius r."""

    m: int
    r: float

    def __post_init__(self):
        m, r = self.m, self.r
        if type(m) is int and m >= 2 and type(r) is float and 0.0 < r < math.inf:
            return  # the common case, as the checks below would store it
        check_count(m, "polygon order", 2)
        object.__setattr__(self, "r", check_real(r, "circumradius"))


@dataclass(frozen=True)
class TorusSpec:
    """Finite product of regular polygons; lives in R^(2 * len(factors))."""

    factors: tuple[PolygonSpec, ...]

    def __post_init__(self):
        factors = check_sequence(self.factors, "torus factors", PolygonSpec, nonempty=True)
        object.__setattr__(self, "factors", factors)

    @property
    def ambient_dim(self) -> int:
        return 2 * len(self.factors)


@dataclass(frozen=True)
class TorusPoint:
    """Combinatorial vertex coordinates, one index per torus factor."""

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", check_sequence(self.indices, "vertex indices", int))

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

    This is the unchecked per-pair primitive: it takes m, r and dj as given,
    and a bad one raises whatever Python raises. `PolygonSpec` checks an
    order and a radius, and `pairwise_sq` checks its torus and points.
    """
    k = dj % m
    if not k:
        return 0.0  # 2.0 * r overflows for r above ~9e307, and inf * 0.0 is nan
    j = m - k
    if j < k:  # the shorter way round, 2k > m
        k = j
    return 2.0 * r * math.sin(math.pi * (k / m))


def _check_point(t: TorusSpec, p: TorusPoint) -> None:
    check_instance(p, TorusPoint, "torus point")
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
# A chunk of cut factors holds twice as many, as int8 and bool entries.
_BLOCK = 2048
# sin(pi * k / m) at the one nonzero step k = 1 of the cut orders 2 and 3,
# as `chord` computes it
_CUT_SINES = {m: math.sin(math.pi * (1 / m)) for m in (2, 3)}


def pairwise_sq(t: TorusSpec, points) -> np.ndarray:
    """Matrix of squared ambient distances between torus points: the one
    chord-metric kernel.

    Each entry has the bits of a per-pair loop that adds `c * c`, for
    `c = chord(m, r, a - b)`, over the factors left to right. The factors run
    in chunks of consecutive factors, each chunk adding its squared chords
    onto the running sums in factor order, so scratch stays bounded however
    many factors there are. Each factor takes one of three paths, chosen by
    its order alone, all with `chord`'s bits:

    - an order of 2 or 3, a cut factor, has one nonzero chord,
      `chord(m, r, 1)`, on every pair whose folded indices differ. A run of
      such factors goes in chunks of about 2 * `_BLOCK` pair-factor entries
      (`_add_cuts`): the split pairs are listed with their squared chords,
      factor after factor for each pair, and `np.add.at` adds them in that
      order. Skipping a 0.0 term is exact, so no bit changes;
    - any other order below 2**53 runs in numpy, in blocks of about `_BLOCK`
      pair-factor entries written straight into the block's rows
      (`_exact_chords`). Every folded index, step and order is an exact
      double there, so k / m is one correctly rounded division, the quotient
      of `chord`'s int division, and the sine is `math.sin` per entry, as in
      `chord`. `np.add.accumulate` adds the rows onto the running sums in
      factor order (`np.sum` would add pairwise and change the bits);
    - an order of 2**53 or more calls `chord` on Python ints once per pair,
      in the same blocks.

    Overflow gives inf and underflow 0.0 without a warning, as in Python.
    Raises InputError for a torus that is not a TorusSpec, and for a point
    that is not a TorusPoint with one index per factor.
    """
    check_instance(t, TorusSpec, "torus")
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
    cut_step = max(1, 2 * _BLOCK // npairs)
    sq = np.zeros((step + 1, npairs))  # row 0 carries the running sums
    with np.errstate(over="ignore", under="ignore"):
        for start, stop, cut in _chunks(t.factors, step, cut_step):
            block = t.factors[start:stop]
            indices = [p.indices[start:stop] for p in points]
            if cut:
                _add_cuts(block, indices, iu, sq[0])
                continue
            rows = sq[:len(block) + 1]
            _exact_chords(block, indices, iu, rows[1:])
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


def _chunks(factors, step, cut_step):
    """(start, stop, cut) for each chunk of consecutive factors: the runs of
    cut orders (2 and 3) in chunks of cut_step factors, cut true, and the
    runs of other orders in chunks of step factors."""
    start = 0
    for cut, run in groupby(f.m < 4 for f in factors):
        stop = start + len(list(run))
        size = cut_step if cut else step
        for a in range(start, stop, size):
            yield a, min(a + size, stop), cut
        start = stop


def _fold(indices, ms) -> np.ndarray:
    """indices[i][c] mod ms[c] as an int64 array, folded in int64 when the
    indices fit, else by Python's %."""
    try:
        x = np.array(indices, dtype=np.int64)
        x %= np.array(ms)
    except OverflowError:
        x = np.array([[i % m for i, m in zip(row, ms)] for row in indices], dtype=np.int64)
    return x


def _add_cuts(block, indices, iu, sums) -> None:
    """Add the squared chords of a chunk of cut factors (orders 2 and 3) over
    the pairs iu onto sums, in factor order; indices[i] holds point i's
    indices on the chunk.

    A pair is split by a factor when its folded indices differ, and its chord
    is then `chord(m, r, 1)`, else 0.0. The split pairs are listed pair by
    pair, each pair's factors in order, with their squared chords, and
    `np.add.at` applies repeated indices in the order listed. An unsplit
    pair adds nothing, which is exact, so 2r = inf gives inf only where a
    pair is split, never inf * 0.0.
    """
    ms = [f.m for f in block]
    x = _fold(indices, ms).astype(np.int8)
    pairs, c = np.nonzero(x[iu[0]] != x[iu[1]])
    chords = np.array([2.0 * f.r for f in block]) * [_CUT_SINES[m] for m in ms]
    np.add.at(sums, pairs, np.square(chords)[c])


def _exact_chords(block, indices, iu, out) -> None:
    """`chord` over the pairs iu, written into row c of out for every factor
    c of the block with an order below 2**53; the rows of larger orders are
    left to the caller. indices[i] holds point i's indices on the block.

    The indices are folded mod m in int64 (a block holding an index past
    int64 is folded by Python's %), and then held as exact doubles. A step d
    in (-m, m) folds to k = min(|d|, m - |d|) = m/2 - ||d| - m/2|, every term
    exact. A zero step has sine 0.0 and is left at 0.0, never 2r * 0.0, which
    is nan once 2r overflows to inf.
    """
    ms = [f.m if f.m < _EXACT_M else 1 for f in block]  # 1 marks a larger order
    x = _fold(indices, ms).T.astype(float)
    np.take(x, iu[0], axis=1, out=out, mode="clip")
    out -= x[:, iu[1]]
    half = np.array(ms, dtype=float)[:, None] * 0.5
    np.abs(out, out=out)
    np.subtract(out, half, out=out)
    np.abs(out, out=out)
    np.subtract(half, out, out=out)
    npairs = out.shape[1]
    for c, m in enumerate(ms):
        if m > 1:
            angles = (math.pi * (out[c] / m)).tolist()
            out[c] = np.fromiter(map(math.sin, angles), float, npairs)
    two_r = np.array([2.0 * f.r for f in block])[:, None]
    np.multiply(out, two_r, out=out, where=out != 0.0)


def shift(t: TorusSpec, p: TorusPoint, offsets) -> TorusPoint:
    """Rotate every factor by the given number of steps.

    This is the transitive abelian action of the torus on itself; it
    preserves all index differences mod m, hence all distances bit for bit.
    Raises InputError unless t is a TorusSpec, p a TorusPoint on it, and
    offsets a tuple or list of ints, one per factor.
    """
    check_instance(t, TorusSpec, "torus")
    _check_point(t, p)
    offsets = check_sequence(offsets, "offsets", int)
    if len(offsets) != len(t.factors):
        raise InputError(
            f"offsets must be one per torus factor, got {len(offsets)} for {len(t.factors)}"
        )
    return TorusPoint._of_ints(
        tuple((i + o) % f.m for f, i, o in zip(t.factors, p.indices, offsets))
    )
