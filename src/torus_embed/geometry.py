"""Distance-geometry primitives.

Point sets are plain float arrays of shape (n, dim), one point per row.
A squared-distance matrix is Euclidean-realizable iff its doubly centered
negative half is positive semidefinite (Schoenberg's criterion); `realize`
is the constructive inverse via classical scaling.

All rank and positivity decisions use one relative tolerance, DEFAULT_TOL,
against the largest eigenvalue, so they are invariant under rescaling the
input. `_zero_floor` alone reads it; no function takes a tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NotEuclidean, NotSimplex

DEFAULT_TOL = 1e-9


def _finite_array(value, name: str, square: bool = False) -> np.ndarray:
    """`value` as a nonempty float array of two axes, square if `square`,
    with every entry finite, else InputError naming it. Without `square` a
    one-axis array is one column."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be a rectangular array of numbers") from None
    if arr.ndim == 1 and not square:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] == 0 or (square and arr.shape[0] != arr.shape[1]):
        raise InputError(f"{name} must be a nonempty {'square' if square else '(n, dim)'} array")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must have finite entries")
    return arr


def as_point_array(points) -> np.ndarray:
    """Coerce to a nonempty (n, dim) float array, one point per row."""
    return _finite_array(points, "points")


def squared_distances(points) -> np.ndarray:
    """Matrix of pairwise squared Euclidean distances; an entry that
    overflows a double is inf, which `check_squared_distances` refuses."""
    arr = as_point_array(points)
    with np.errstate(over="ignore"):
        diff = arr[:, None, :] - arr[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)


def check_squared_distances(sqdist, name: str = "squared-distance matrix") -> np.ndarray:
    """Validate a (squared-)distance matrix: square, finite, symmetric, zero
    diagonal, nonnegative, with entries whose magnitudes sum to a finite
    double, so that symmetrizing it and `centered_gram`'s means cannot
    overflow. Returns a cleaned copy (exactly symmetric, exact zero
    diagonal). `name` labels the matrix in the InputError messages.
    """
    arr = _finite_array(sqdist, name, square=True)
    magnitudes = np.abs(arr)
    with np.errstate(over="ignore"):
        total = float(magnitudes.sum())
    if not np.isfinite(total):
        raise InputError(f"{name} has entries that sum past the largest double")
    scale = float(magnitudes.max()) or 1.0
    if float(np.abs(arr - arr.T).max()) > 1e-12 * scale:
        raise InputError(f"{name} is not symmetric")
    if float(np.abs(np.diag(arr)).max(initial=0.0)) > 1e-12 * scale:
        raise InputError(f"{name} has a nonzero diagonal")
    if float(arr.min()) < 0.0:
        raise InputError(f"{name} has negative entries")
    out = 0.5 * (arr + arr.T)
    np.fill_diagonal(out, 0.0)
    return out


def centered_gram(sqdist) -> np.ndarray:
    """Doubly centered Gram matrix of a squared-distance matrix.

    The input is Euclidean-realizable iff the result is positive
    semidefinite; its row sums vanish by construction.
    """
    d = check_squared_distances(sqdist)
    row = d.mean(axis=1, keepdims=True)
    g = -0.5 * (d - row - row.T + d.mean())
    return 0.5 * (g + g.T)


def realize(gram) -> np.ndarray:
    """Recover point coordinates from a centered Gram matrix.

    Args:
        gram: symmetric (n, n) matrix.

    Returns:
        (n, rank) array of coordinates ordered by decreasing eigenvalue, so
        the ambient dimension equals the numerical rank: eigenvalues at or
        below DEFAULT_TOL * lambda_max count as zero. The output is the
        canonical eigenbasis representative of its rigid-motion class.

    Raises:
        NotEuclidean: if an eigenvalue falls below -DEFAULT_TOL * lambda_max.
    """
    g = _finite_array(gram, "Gram matrix", square=True)
    w, v = np.linalg.eigh(0.5 * (g + g.T))
    keep = np.flatnonzero(w > _zero_floor(w))[::-1]  # decreasing eigenvalue order
    return v[:, keep] * np.sqrt(w[keep])


def _zero_floor(w) -> float:
    """The Euclidean rule on an ascending spectrum: NotEuclidean if an
    eigenvalue falls below -DEFAULT_TOL * lambda_max. Returns
    DEFAULT_TOL * lambda_max, at or below which an eigenvalue counts as
    zero."""
    floor = DEFAULT_TOL * max(float(w[-1]), 0.0)
    if float(w[0]) < -floor:
        raise NotEuclidean(
            f"smallest eigenvalue {w[0]:.6e} is below -DEFAULT_TOL*lambda_max = {-floor:.6e}"
        )
    return floor


def simplex_spectrum(gram) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and matching eigenvectors (columns) of the
    centered Gram of n points, after the Euclidean rule and the rank rule,
    which raises NotSimplex unless exactly n - 1 of them exceed
    DEFAULT_TOL * lambda_max. The first pair is then the centering mode."""
    w, v = np.linalg.eigh(gram)
    if np.count_nonzero(w > _zero_floor(w)) != len(w) - 1:
        raise NotSimplex("points are not affinely independent at the working tolerance")
    return w, v


def is_simplex(points) -> bool:
    """True iff the points are affinely independent at the working
    tolerance: `simplex_spectrum` accepts the centered Gram of their squared
    distances."""
    try:
        simplex_spectrum(centered_gram(squared_distances(points)))
    except (NotEuclidean, NotSimplex):
        return False
    return True
