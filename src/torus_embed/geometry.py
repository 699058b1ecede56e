"""Distance-geometry primitives.

Point sets are plain float arrays of shape (n, dim), one point per row.
A squared-distance matrix is Euclidean-realizable iff its doubly centered
negative half is positive semidefinite (Schoenberg's criterion); `realize`
is the constructive inverse via classical scaling.

All rank and positivity decisions use a relative tolerance against the
largest eigenvalue, so they are invariant under rescaling the input.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NotEuclidean

DEFAULT_TOL = 1e-9


def as_point_array(points) -> np.ndarray:
    """Coerce to a nonempty (n, dim) float array, one point per row."""
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise InputError("points do not form a rectangular numeric array") from None
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InputError("expected a nonempty (n, dim) array of points")
    if not np.all(np.isfinite(arr)):
        raise InputError("points contain non-finite coordinates")
    return arr


def squared_distances(points) -> np.ndarray:
    """Matrix of pairwise squared Euclidean distances."""
    arr = as_point_array(points)
    diff = arr[:, None, :] - arr[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def check_squared_distances(sqdist, name: str = "squared-distance matrix") -> np.ndarray:
    """Validate a (squared-)distance matrix: square, symmetric, zero
    diagonal, nonnegative. Returns a cleaned copy (exactly symmetric, exact
    zero diagonal). `name` labels the matrix in the InputError messages.
    """
    arr = np.asarray(sqdist, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InputError(f"{name} must be square and nonempty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    scale = float(np.abs(arr).max()) or 1.0
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


def realize(gram, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover point coordinates from a centered Gram matrix.

    Args:
        gram: symmetric (n, n) matrix.
        tol: relative eigenvalue tolerance; eigenvalues in
            [-tol * lambda_max, tol * lambda_max] count as zero.

    Returns:
        (n, rank) array of coordinates ordered by decreasing eigenvalue, so
        the ambient dimension equals the numerical rank. The output is the
        canonical eigenbasis representative of its rigid-motion class.

    Raises:
        NotEuclidean: if an eigenvalue falls below -tol * lambda_max.
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] == 0:
        raise InputError("Gram matrix must be square and nonempty")
    if not np.all(np.isfinite(g)):
        raise InputError("Gram matrix contains non-finite entries")
    w, v = np.linalg.eigh(0.5 * (g + g.T))
    lam_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -tol * lam_max:
        raise NotEuclidean(
            f"smallest eigenvalue {w[0]:.6e} is below -tol*lambda_max = {-tol * lam_max:.6e}"
        )
    keep = np.flatnonzero(w > tol * lam_max)[::-1]  # decreasing eigenvalue order
    return v[:, keep] * np.sqrt(w[keep])


def is_simplex(points, tol: float = DEFAULT_TOL) -> bool:
    """True iff the points are affinely independent at the given tolerance.

    Equivalent to the centered Gram of the squared-distance matrix having
    numerical rank n - 1.
    """
    arr = as_point_array(points)
    n = arr.shape[0]
    if n == 1:
        return True
    w = np.linalg.eigvalsh(centered_gram(squared_distances(arr)))
    lam_max = max(float(w[-1]), 0.0)
    return int(np.count_nonzero(w > tol * lam_max)) == n - 1
