"""Regular simplices and their exact embedding into products of equal polygons."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .torus import PolygonSpec, TorusPoint, TorusSpec, chord


def regular_simplex(n: int, side: float) -> np.ndarray:
    """Vertices of a regular simplex with n vertices in R^(n-1).

    Scaled standard-basis construction: the n unit vectors of R^n form a
    regular simplex of side sqrt(2) inside the sum-one hyperplane, and the
    orthonormal Helmert basis of that hyperplane carries them to R^(n-1).
    Deterministic, no eigendecomposition involved.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"vertex count must be an integer >= 1, got {n!r}")
    if not (math.isfinite(side) and side > 0):
        raise InputError(f"side length must be positive and finite, got {side!r}")
    basis = np.zeros((n - 1, n))
    for k in range(1, n):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -float(k)
        basis[k - 1] /= math.sqrt(k * (k + 1))
    return (side / math.sqrt(2.0)) * basis.T


def _unit_side(m: int) -> float:
    """Side length of the regular m-gon of circumradius 1."""
    if not isinstance(m, int) or m < 2:
        raise InputError(f"polygon order must be an integer >= 2, got {m!r}")
    return chord(m, 1.0, 1)


def circumradius_for_side(m: int, side: float) -> float:
    """Circumradius for which the regular m-gon has the given side length."""
    unit = _unit_side(m)
    if not (math.isfinite(side) and side > 0):
        raise InputError(f"side length must be positive and finite, got {side!r}")
    return side / unit


def embed_regular_simplex(
    n: int, side: float, m: int
) -> tuple[TorusSpec, list[TorusPoint]]:
    """Isometric embedding of a regular simplex into n equal m-gon factors.

    Vertex i sits at polygon vertex 1 in factor i and at the adjacent
    vertex 0 everywhere else. Two simplex vertices then differ in exactly
    two factors, each by one polygon side; with polygon side = side/sqrt(2)
    every pairwise distance comes out to `side`.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"vertex count must be an integer >= 1, got {n!r}")
    r = circumradius_for_side(m, side / math.sqrt(2.0))
    spec = TorusSpec(tuple(PolygonSpec(m, r) for _ in range(n)))
    points = [
        TorusPoint(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)
    ]
    return spec, points
