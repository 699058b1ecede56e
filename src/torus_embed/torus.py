"""Regular polygonal tori: polygon factors, integer vertex coordinates and
the chord metric between vertices.

Polygon orders and vertex indices are Python ints, so factors with
astronomically many vertices stay exact. Distances always go through the
chord formula on index differences; subtracting materialized Cartesian
coordinates would cancel catastrophically once the polygon order is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def chord(m: int, r: float, dj: int) -> float:
    """Chord length between polygon vertices dj steps apart.

    The step ratio k/m is formed as a single (big-)integer division before
    multiplying by pi, so there is no cancellation even for m far beyond
    2**63. Signed or out-of-range dj is folded into [0, m) first.
    """
    k = dj % m
    if k == 0:
        return 0.0  # 2.0 * r overflows for r above ~9e307, and inf * 0.0 is nan
    if 2 * k > m:
        k = m - k
    return 2.0 * r * math.sin(math.pi * (k / m))


def _check_point(t: TorusSpec, p: TorusPoint) -> None:
    if len(p.indices) != len(t.factors):
        raise InputError(
            f"torus point has {len(p.indices)} indices but the torus has {len(t.factors)} factors"
        )


def pairwise_sq(t: TorusSpec, points) -> np.ndarray:
    """Matrix of squared ambient distances between torus points: the one
    chord-metric kernel. Each pair sums its squared chords in factor order,
    so every caller gets the same bits for the same pair."""
    points = tuple(points)
    for p in points:
        _check_point(t, p)
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            total = 0.0
            for f, a, b in zip(t.factors, points[i].indices, points[j].indices):
                c = chord(f.m, f.r, a - b)
                total += c * c
            out[i, j] = out[j, i] = total
    return out


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
