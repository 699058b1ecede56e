"""Deterministic input generators used by the CLI and the test suite, and
the regular simplex's vertices they start from."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, check_count, check_real
from .geometry import is_simplex, squared_distances

KINDS = ("regular", "random", "perturbed")

_MIN_GAP = 1e-3
_MAX_TRIES = 1000
_FLOAT_MAX = float(np.finfo(float).max)


def regular_simplex(n: int, side: float) -> np.ndarray:
    """Vertices of a regular simplex with n vertices in R^(n-1).

    Scaled standard-basis construction: the n unit vectors of R^n form a
    regular simplex of side sqrt(2) inside the sum-one hyperplane, and the
    orthonormal Helmert basis of that hyperplane carries them to R^(n-1).
    Deterministic, no eigendecomposition involved.
    """
    check_count(n, "vertex count", 1)
    side = check_real(side, "side length")
    basis = np.zeros((n - 1, n))
    for k in range(1, n):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -float(k)
        basis[k - 1] /= math.sqrt(k * (k + 1))
    return (side / math.sqrt(2.0)) * basis.T


def _min_distance(points: np.ndarray) -> float:
    d2 = squared_distances(points)
    return float(np.sqrt(d2[~np.eye(points.shape[0], dtype=bool)].min()))


def _max_noise(n: int) -> float:
    """Largest perturbed noise whose points' squared distances sum to a
    finite double, with room to spare: coordinate gaps stay below
    1 + 2 * noise, each of the n(n - 1) squared distances sums n - 1 of
    them squared, and at this bound the total is about a quarter of the
    largest double."""
    return math.sqrt(_FLOAT_MAX / n) / (4 * (n - 1))


def generate_points(kind: str, n: int, seed: int = 0, noise: float = 0.01) -> np.ndarray:
    """Generate a simplex input of the requested kind, deterministic per seed.

    regular: regular simplex with unit side.
    random: n points drawn uniformly in [-1, 1]^(n-1), resampled until they
        are affinely independent with pairwise distances >= 1e-3.
    perturbed: unit regular simplex with uniform coordinate noise in
        [-noise, noise], resampled until affinely independent.

    Every kind refuses (InputError) fewer than two points, which `embed`
    cannot take, a seed that is not an integer >= 0, and a noise outside
    [0, _max_noise(n)].
    """
    if kind not in KINDS:
        raise InputError(f"unknown input kind {kind!r}, expected one of {KINDS}")
    check_count(n, "point count", 2)
    check_count(seed, "seed", 0)
    noise = check_real(noise, "noise", positive=False)
    if noise > _max_noise(n):
        raise InputError(
            f"noise must lie in [0, {_max_noise(n):.6g}] for n = {n}, got {noise!r}: "
            f"a larger --noise can overflow the points' squared distances"
        )
    if kind == "regular":
        return regular_simplex(n, 1.0)
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_TRIES):
        if kind == "random":
            pts = rng.uniform(-1.0, 1.0, (n, n - 1))
            if not (is_simplex(pts) and _min_distance(pts) >= _MIN_GAP):
                continue
        else:
            pts = regular_simplex(n, 1.0) + rng.uniform(-noise, noise, (n, n - 1))
            if not is_simplex(pts):
                continue
        return pts
    raise InputError(f"failed to generate a {kind} simplex with n={n} after {_MAX_TRIES} tries")
