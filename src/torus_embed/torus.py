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
all keep `chord`'s bits. The first is chosen by the torus and the points:
the pair layout, where the last n(n - 1)/2 factors are cuts of order 2 or 3,
one per pair {k, l} in row-major order, and each point's raw indices on them
are 1 where the pair holds it, else 0. That is the pair plan, the correction
`embed_simplex` writes for 3 and for 5 or more points but for rare ties; the
singleton plan (4 points, `embed_regular_simplex`) takes the other paths. A
cut splits a pair exactly when it shares one point with it, so each pair is
split by 2(n - 2) cuts (a vertex of the triangular graph T(n) has that
degree), and a table cached per n lists them in factor order: O(n**3) work
in all. The other two paths go by a factor's order alone. An order below
2**53 runs in numpy: an order, a folded index and a step are exact doubles
there, so k / m in float64 is the one correctly rounded division that
`chord`'s int division is, and the sine is `math.sin` per entry, or for a
cut of order 2 or 3, whose folded steps are exactly 0 or 1, one multiply by
its one nonzero sine. That covers the grid's base factors, whose orders are
about 27 bits at 16 points and 45 bits at 128. Orders of 2**53 and more
call `chord` on Python ints once per pair. The squared chords are summed in
factor order, so each entry has the bits of a plain per-pair loop over
`chord`. Factors run in blocks of a few thousand pair-factor entries, which
bounds the kernel's scratch memory whatever the factor count.

The kernel also reports, through `_pairwise_sq`, whether every index it was
given already lies in range(m) of its factor, a fact it finds on its way:
one comparison per numpy block on the int64 indices it folds anyway, a
bounds check on each per-pair column, and `_is_pair_layout`'s proof for the
pair layout's cuts. The rule `0 <= index < m` and the refusal that names a
bad index belong to `certificate.verify_certificate`, which walks the
indices only when the kernel cannot show them in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InputError, check_count, check_instance, check_real, check_sequence


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
# the mark of an order of 2**53 or more on the numpy path, whose rows the
# per-pair path overwrites
_LARGE = 2**63 - 1
# Pair-factor entries per block of consecutive factors: bounds the scratch
# (16 kB per float array) while spreading numpy's per-call cost over a block.
_BLOCK = 2048
# sin(pi * k / m) at the one nonzero step k = 1 of the cut orders 2 and 3,
# as `chord` computes it
_CUT_SINES = {m: math.sin(math.pi * (1 / m)) for m in (2, 3)}


def pairwise_sq(t: TorusSpec, points) -> np.ndarray:
    """Matrix of squared ambient distances between torus points: the one
    chord-metric kernel.

    Each entry has the bits of a per-pair loop that adds `c * c`, for
    `c = chord(m, r, a - b)`, over the factors left to right. The factors run
    in blocks of consecutive factors, each block adding its squared chords
    onto the running sums in factor order, so scratch stays bounded however
    many factors there are. There are three paths, all with `chord`'s bits.
    The first is chosen by the torus and the points together, the others by
    a factor's order alone:

    - the pair layout of n points: the last n(n - 1)/2 factors have order 2
      or 3, and every point's raw indices on them are 1 where the factor's
      pair {k, l} (in row-major order) holds the point, else 0. A cut {k, l}
      splits a pair exactly when it shares one point with it, so each pair
      is split by 2(n - 2) of these factors, and the others add 0.0, which
      is exact. The factors before them take the paths below; then each
      pair adds the squared chords `chord(m, r, 1) ** 2` of its split cuts
      in factor order, one numpy round per split cut, from a table cached
      per n (`_add_pair_cuts`). That is O(n**3) work where the paths below
      would do O(n**4);
    - any other order below 2**53 runs in numpy, in blocks of about `_BLOCK`
      pair-factor entries written straight into the block's rows
      (`_exact_chords`). Every folded index, step and order is an exact
      double there, so k / m is one correctly rounded division, the quotient
      of `chord`'s int division, and the sine is `math.sin` per entry, as in
      `chord`; an order of 2 or 3 has folded steps of exactly 0 and 1, so
      one multiply by its one nonzero sine gives the same bits.
      `np.add.accumulate` adds the rows onto the running sums in factor
      order (`np.sum` would add pairwise and change the bits);
    - an order of 2**53 or more calls `chord` on Python ints once per pair,
      in the same blocks.

    Any int index is taken, folded mod m as `chord` folds a step; the
    private `_pairwise_sq` returns the same matrix and whether every index
    was in range(m) already. Overflow gives inf and underflow 0.0 without a
    warning, as in Python. Raises InputError for a torus that is not a
    TorusSpec, for points that are not a tuple or list, and for a point
    that is not a TorusPoint with one index per factor.
    """
    return _pairwise_sq(t, points)[0]


def _pairwise_sq(t: TorusSpec, points) -> tuple[np.ndarray, bool]:
    """`pairwise_sq(t, points)` and whether every index already lies in
    range(m) of its factor, as the kernel finds it on its way: one
    comparison per numpy block on the indices it converts anyway, a
    bounds check on each per-pair column, and, for the pair layout's cuts,
    `_is_pair_layout`'s proof that the raw indices are 0 or 1 on orders 2
    and 3. False means only "not shown": a block holding an index past
    int64, and fewer than two points, report False whatever the indices.
    """
    check_instance(t, TorusSpec, "torus")
    points = check_sequence(points, "points", object)
    for p in points:
        _check_point(t, p)
    n = len(points)
    # the upper triangle row by row, the order of itertools.combinations
    iu = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    npairs = iu[0].size
    if not npairs:
        return np.zeros((n, n)), False
    factors = t.factors
    pair_layout = _is_pair_layout(factors, points)
    if pair_layout:
        factors = factors[:-npairs]
    reduced = True
    # at least 1: the pair layout can be the whole torus, as in the tori of
    # embed_almost_regular, and leave no factor before it
    step = max(1, min(_BLOCK // npairs, len(factors)))
    sq = np.zeros((step + 1, npairs))  # row 0 carries the running sums
    with np.errstate(over="ignore", under="ignore"):
        for start in range(0, len(factors), step):
            block = factors[start:start + step]
            indices = [p.indices[start:start + len(block)] for p in points]
            rows = sq[:len(block) + 1]
            reduced &= _exact_chords(block, indices, iu, rows[1:])
            for c, f in enumerate(block):
                if f.m >= _EXACT_M:
                    m, r = f.m, f.r
                    col = [p.indices[start + c] for p in points]
                    reduced = reduced and 0 <= min(col) and max(col) < m
                    chords = (chord(m, r, a - b) for a, b in combinations(col, 2))
                    rows[c + 1] = np.fromiter(chords, float, npairs)
            np.square(rows[1:], out=rows[1:])
            np.add.accumulate(rows, axis=0, out=rows)
            sq[0] = rows[-1]
        if pair_layout:
            _add_pair_cuts(t.factors[-npairs:], _split_table(n), sq[0])
    out = np.zeros((n, n))
    out[iu] = sq[0]
    out[iu[::-1]] = sq[0]
    return out, reduced


def _fold(indices, ms) -> tuple[np.ndarray, bool]:
    """indices[i][c] mod ms[c] as an int64 array, folded in int64 when the
    indices fit, else by Python's %, and whether every index was in
    range(ms[c]) already. Viewed as uint64, a negative index is past every
    order, so one comparison decides the whole block; a block past int64
    reports False."""
    try:
        x = np.array(indices, dtype=np.int64)
    except OverflowError:
        x = np.array([[i % m for i, m in zip(row, ms)] for row in indices], dtype=np.int64)
        return x, False
    orders = np.array(ms, dtype=np.uint64)
    reduced = bool((x.view(np.uint64) < orders).all())
    if not reduced:
        x %= orders.view(np.int64)
    return x, reduced


def _is_pair_layout(factors, points) -> bool:
    """Whether the last n(n - 1)/2 factors have order 2 or 3 and the n
    points' raw indices on them are the pair layout. An index other than 0
    or 1, even one that folds to them, is not the layout."""
    n = len(points)
    npairs = n * (n - 1) // 2
    if len(factors) < npairs or any(f.m > 3 for f in factors[-npairs:]):
        return False
    rows = memoryview(_pair_layout(n))
    try:
        return all(
            bytes(p.indices[-npairs:]) == rows[k * npairs:(k + 1) * npairs]
            for k, p in enumerate(points)
        )
    except ValueError:  # an index outside range(256)
        return False


@lru_cache(maxsize=4)
def _pair_layout(n: int) -> bytes:
    """The pair layout of n points, n rows of n(n - 1)/2 bytes: byte q of row
    k is 1 where the q-th pair in row-major order holds point k, else 0."""
    iu = np.triu_indices(n, 1)
    rows = np.zeros((n, iu[0].size), np.uint8)
    q = np.arange(iu[0].size)
    rows[iu[0], q] = 1
    rows[iu[1], q] = 1
    return rows.tobytes()


@lru_cache(maxsize=4)
def _split_table(n: int) -> np.ndarray:
    """The split cuts of every pair of n points in the pair layout, as a
    (2(n - 2), n(n - 1)/2) array: column p lists in ascending order the cuts
    q (pairs in row-major order) that hold exactly one point of pair p. It
    is int16 up to n = 256.

    The cuts come in closed form. Those of pair (i, j), i < j, in factor
    order, are {a, i} and {a, j} for each a < i, then {i, b} for each
    b > i other than j, then, for each a > i other than j, {a, j} or
    {j, a}, each read from the symmetric matrix of pair places. The pairs
    (i, j) of one i are built together, O(n^2) entries a round, so the
    table itself is the bulk of its memory."""
    npairs = n * (n - 1) // 2
    dtype = np.int16 if npairs < 2**15 else np.int32
    number = np.zeros((n, n), dtype)  # number[a, b]: the pair {a, b}'s place
    iu = np.triu_indices(n, 1)
    number[iu] = number[iu[::-1]] = np.arange(npairs)
    table = np.empty((2 * (n - 2), npairs), dtype)
    start = 0
    for i in range(n - 1):
        k = n - 1 - i  # the pairs (i, j) for j > i
        cols = table[:, start:start + k]
        cols[0:2 * i:2] = number[:i, i, None]
        cols[1:2 * i:2] = number[:i, i + 1:]
        cols[2 * i:2 * i + k - 1] = _rows_off_diagonal(np.tile(number[i, i + 1:], (k, 1)))
        cols[2 * i + k - 1:] = _rows_off_diagonal(number[i + 1:, i + 1:])
        start += k
    table.flags.writeable = False  # every caller shares it
    return table


def _rows_off_diagonal(square) -> np.ndarray:
    """The rows of a k x k array, each without its diagonal entry, as the
    columns of a (k - 1) x k array."""
    k = square.shape[0]
    return square.reshape(-1)[1:].reshape(k - 1, k + 1)[:, :k].reshape(k, k - 1).T


def _add_pair_cuts(cuts, table, sums) -> None:
    """Add the squared chords of the pair layout's cut factors onto sums,
    each pair's split cuts in ascending factor order: round t adds the cut
    in row t of `_split_table`'s table to every pair. A cut's chord is
    2r * sin(pi / m), multiplied in `chord`'s order, so it has its bits."""
    w = np.fromiter((2.0 * f.r * _CUT_SINES[f.m] for f in cuts), float, len(cuts))
    np.square(w, out=w)
    for row in table:
        sums += w.take(row)


def _exact_chords(block, indices, iu, out) -> bool:
    """`chord` over the pairs iu, written into row c of out for every factor
    c of the block with an order below 2**53; the rows of larger orders are
    left to the caller. indices[i] holds point i's indices on the block.
    Returns `_fold`'s verdict: whether every index on an order below 2**53
    was in range already.

    The indices are folded mod m in int64 (a block holding an index past
    int64 is folded by Python's %), and then held as exact doubles. A step d
    in (-m, m) folds to k = min(|d|, m - |d|) = m/2 - ||d| - m/2|, every term
    exact. A cut order, 2 or 3, folds every step to 0 or 1, so its sines are
    one multiply by `_CUT_SINES[m]`. A zero step has sine 0.0 and is left at
    0.0, never 2r * 0.0, which is nan once 2r overflows to inf.
    """
    # a larger order is marked by the largest int64, which the range check
    # passes for every index in range(2**63 - 1); the caller checks its
    # column against the order itself
    ms = [f.m if f.m < _EXACT_M else _LARGE for f in block]
    x, reduced = _fold(indices, ms)
    x = x.T.astype(float)
    np.take(x, iu[0], axis=1, out=out, mode="clip")
    out -= x[:, iu[1]]
    half = np.array(ms, dtype=float)[:, None] * 0.5
    np.abs(out, out=out)
    np.subtract(out, half, out=out)
    np.abs(out, out=out)
    np.subtract(half, out, out=out)
    npairs = out.shape[1]
    for c, m in enumerate(ms):
        if m in _CUT_SINES:  # steps of exactly 0.0 and 1.0
            out[c] *= _CUT_SINES[m]
        elif m < _EXACT_M:
            angles = (math.pi * (out[c] / m)).tolist()
            out[c] = np.fromiter(map(math.sin, angles), float, npairs)
    two_r = np.array([2.0 * f.r for f in block])[:, None]
    np.multiply(out, two_r, out=out, where=out != 0.0)
    return reduced


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
