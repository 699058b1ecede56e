"""End-to-end construction on a simplex's squared-distance matrix: split it
into a base set plus a uniform increment, almost-embed the base into huge
polygons, absorb the per-pair snapping errors into an almost-regular
correction matrix, and concatenate both embeddings into one torus with a
verifiable certificate whose input metric is that very matrix.

This module builds certificates and `certificate` checks them: the
self-check below is `certificate.verify_certificate` at its
DEFAULT_ACCEPT_TOL, the verifier that `torus-embed verify` runs, and the
construction holds no rule of its own on what a valid certificate is.

The range of a double is decided once, at the start of the embed. When the
squared distances of every two distinct points (of a given matrix, its
positive entries) are normal doubles with a finite sum, the input is built
as given, at scale 0. Otherwise the points are scaled by the exact power of
two 2^-e, or the matrix by 4^-e, that puts the largest squared distance in
[1, 4), and the construction runs there. The certificate then holds the
input in units of 4^e and the radii in units of 2^e, and records e as its
`scale`; the verifier's relative errors are the same in any unit. The rank
rule is relative too, so a set it refuses in [1, 4) is no simplex at the
working tolerance at any scale.

The correction step is what makes the result exact: writing e_ij for the
base embedding's squared-distance error and a for the increment, the
correction's squared distances e_ij + a^2 must be a positive sum of cuts
(almost regularity implies it), and its realization contributes exactly
the missing e_ij + a^2 to each pair.

The base is gridded at one of two budgets. The grid at delta = a^2/n^2 is
proven a priori: every |e_ij| stays below delta, so the n(n - 1)/2
deficits, each below 2a^2/n^2, sum below a^2(1 - 1/n), and the largest
entry exceeds a^2(1 - 1/n^2). That worst case is far from met, as the grid
uses a few per cent of delta, so the base is first gridded at the coarser
delta*K, with K = 2**floor(log2(n^2/2)), the largest power of two <= n^2/2,
which takes 1.5 log2 K fewer bits of polygon order (10.5 at n = 16). The
coarse grid is accepted on its plan's own slack, not proven: its errors
must stay below delta*K; its plan's slack must be at least a quarter of
what the plan has with no base error, on a^2 off the diagonal, that is
every pair weight at least a^2/(8(n - 2)) for the pair plan and M at least
a^2/4 for the singleton plan; and its certificate must pass the self-check
at DEFAULT_ACCEPT_TOL. On any other outcome the base is gridded again at
delta, where the proven bound, checked as met, makes the correction almost
regular, so its plan exists and every input the delta grid embeds is
embedded.
`parameters.delta` records the budget of the grid kept, and
`parameters.correction_slack` the slack of its plan.

The correction is its plan's merged cuts (see `almost_regular`): for
n = 3 and n >= 5 the pair plan, one polygon per pair, n(n - 1)/2 of them,
so a random 16-point simplex takes 135 factors in all; for n = 2 and 4, or
a correction with few positive deficits, the singleton plan, one polygon
per point and one per kept pair.

The certificate's layout is fixed, so the torus and the assignment are the
correction's only record. The first n - 1 factors are the base, one per
base axis: the base columns are the centered Gram's eigenvectors
orthogonal to the centering mode, and a constant column would be parallel
to that mode, so the grid never drops one. Every later factor is one cut,
a triangle (order 3) with the cut's points on vertex 1 and the rest on
vertex 0: in the pair plan, every pair {i, j} in row-major order, so each
correction column holds exactly two 1s; in the singleton plan, the n
singletons {0}, ..., {n - 1} first, then the kept pairs {i, j} in
row-major order. The parameters do not repeat
the base grid's n, the cube root of m, or its radius r, which every base
factor states, nor the self-check's tolerance, the package's
DEFAULT_ACCEPT_TOL; `parameters.m` stays, to find the base factors by.
Certificates of earlier versions whose cut factors have the base's order
m still verify: the verifier reads only the torus and the assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# check_almost_regular, realization_plan, is_simplex and realize are unused
# here, but bench/spans.py patches them here; it patches verify_certificate
# here too, so `_certify` calls it by this module's name
from .almost_regular import (
    _realization_plan,
    check_almost_regular,
    embed_almost_regular,
    realization_plan,
)
from .certificate import VERSION, EmbeddingCertificate, verify_certificate
from .delta_embed import product_embed
from .errors import InputError, NotAlmostRegular, TrivialInput, VerificationFailed
from .geometry import (
    as_point_array,
    centered_gram,
    check_squared_distances,
    is_simplex,
    realize,
    simplex_spectrum,
    squared_distances,
)
from .torus import TorusPoint, TorusSpec

# polygon order of every correction factor: triangles keep certificates small
CORRECTION_ORDER = 3

_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ExpansionDecomposition:
    """Base points plus the uniform squared-distance increment alpha_sq, the
    smallest centered-Gram eigenvalue off the centering mode: the one alpha^2
    that the base, the budget and the correction all use."""

    base: np.ndarray
    alpha_sq: float


def schoenberg_decompose(sq) -> ExpansionDecomposition:
    """Write a simplex, given by its squared-distance matrix, as a base set
    whose squared distances are uniformly alpha^2 smaller.

    Subtracting alpha^2 from every off-diagonal squared distance shifts each
    centered-Gram eigenvalue (off the centering mode) down by alpha^2/2 and
    keeps every eigenvector, so any alpha^2 below twice the smallest such
    eigenvalue lambda_min keeps the base realizable. alpha^2 = lambda_min,
    which leaves the base well conditioned.

    One eigendecomposition decides it all: `simplex_spectrum` applies the
    Euclidean and rank rules, its lambda_min is alpha^2, and its
    eigenvectors, scaled by the square roots of the shifted eigenvalues
    lambda_i - alpha^2/2 >= lambda_min / 2 > 0, are the base's n - 1
    coordinates in decreasing eigenvalue order. There is no second rank
    decision, so no base axis can drop.
    """
    g = centered_gram(sq)
    if g.shape[0] < 2:
        raise TrivialInput("decomposition needs at least two points")
    w, v = simplex_spectrum(g)  # w[0], v[:, 0] are the centering mode
    alpha_sq = float(w[1])
    base = v[:, :0:-1] * np.sqrt(w[:0:-1] - 0.5 * alpha_sq)
    return ExpansionDecomposition(base, alpha_sq)


def embed_simplex(points) -> EmbeddingCertificate:
    """`embed_squared_distances` of the points' squared distances, with the
    same bytes wherever those are normal doubles with a finite sum. Else the
    points are scaled by the exact power of two 2^-e that puts their largest
    squared distance in [1, 4), and the certificate records e as its
    `scale` (module docstring)."""
    arr = as_point_array(points)
    sq = squared_distances(arr)
    scale = 0
    if not _normal(sq, np.any(arr[:, None, :] != arr[None, :, :], axis=2)):
        with np.errstate(over="ignore"):
            span = float(np.max(arr.max(axis=0) - arr.min(axis=0)))
        # the points times 2^-t span less than 1 on every axis and at least
        # 1/2 on one, so their squared distances neither overflow nor all
        # underflow, and the largest one sets the scale
        t = math.frexp(span)[1] if span < math.inf else 1025
        scale = t + _unit_scale(squared_distances(_scaled(arr, t)))
        sq = squared_distances(_scaled(arr, scale))
    return _embed(check_squared_distances(sq), scale)


def embed_squared_distances(sq) -> EmbeddingCertificate:
    """Construct a verified isometric embedding of a simplex into a torus from
    its squared-distance matrix, validated once and certified as given; a
    matrix with a positive entry below the smallest normal double is
    certified times the exact power of four 4^-e that puts its largest entry
    in [1, 4), and the certificate records e as its `scale`.

    Raises NotEuclidean or NotSimplex for a matrix that is not a simplex's and
    VerificationFailed if, against all analysis, the proven grid's
    correction is not almost regular, its base embedding's error is not
    below its budget or the built certificate does not pass its own
    verification at DEFAULT_ACCEPT_TOL (a coarse grid that fails any of
    these is dropped for the proven one, module docstring).
    """
    input_sq = check_squared_distances(sq)
    scale = 0 if _normal(input_sq, input_sq > 0.0) else _unit_scale(input_sq)
    return _embed(np.ldexp(input_sq, -2 * scale), scale)


def _normal(sq: np.ndarray, positive: np.ndarray) -> bool:
    """True iff the squared distances sq sum to a finite double and those at
    `positive`, which are positive, are normal doubles: the input is built
    at scale 0."""
    with np.errstate(over="ignore"):
        return float(sq.sum()) < math.inf and bool(np.all((sq >= _TINY) | ~positive))


def _scaled(arr: np.ndarray, e: int) -> np.ndarray:
    """The points times 2^-e. Raises InputError where a coordinate then
    overflows, as a point far out beside points far nearer each other does."""
    with np.errstate(over="ignore"):
        out = np.ldexp(arr, -e)
    if not np.all(np.isfinite(out)):
        raise InputError(f"the points times 2^{-e} overflow a double")
    return out


def _unit_scale(sq: np.ndarray) -> int:
    """The e that puts the largest entry of sq times 4^-e in [1, 4)."""
    return (math.frexp(float(sq.max()))[1] - 1) // 2


def _embed(input_sq: np.ndarray, scale: int) -> EmbeddingCertificate:
    """The construction on a validated squared-distance matrix in units of
    4^scale."""
    n = input_sq.shape[0]
    dec = schoenberg_decompose(input_sq)
    # delta is positive: alpha^2 exceeds DEFAULT_TOL times the largest Gram
    # eigenvalue, which is at least half the largest entry C. At scale 0
    # every positive entry is normal, so alpha^2 > 1e-9 * C / 2 >= 2^-1053
    # and alpha^2 / n^2 >= 2^-1074 for n <= 1,448; at any other scale C is
    # in [1, 4)
    delta = dec.alpha_sq / n**2
    # the coarse grid first, at K = 2**floor(log2(n^2/2)), then the proven
    # one (module docstring)
    coarsening = 1 << ((n * n // 2).bit_length() - 1)
    try:
        cert = _certify(input_sq, dec, delta * coarsening, gated=True)
    except (InputError, VerificationFailed):
        cert = _certify(input_sq, dec, delta)
    # checked in units of 4^scale, the same check
    cert.scale = scale
    return cert


def _certify(
    input_sq: np.ndarray, dec: ExpansionDecomposition, delta: float, gated: bool = False
) -> EmbeddingCertificate:
    """The self-checked certificate on the base gridded at budget delta.
    Raises VerificationFailed if the correction is not a positive sum of
    cuts, if gated and its slack is below the coarse grid's gate (module
    docstring), if the base error is not below delta, or if the certificate
    fails its self-check."""
    n = input_sq.shape[0]
    alpha_sq = dec.alpha_sq
    de = product_embed(dec.base, delta)

    corr_sq = de.per_pair_error + alpha_sq
    np.fill_diagonal(corr_sq, 0.0)
    try:
        plan = _realization_plan(corr_sq)  # built here: no input check
    except (InputError, NotAlmostRegular) as exc:
        raise VerificationFailed(f"correction matrix is not almost regular ({exc})") from None
    if gated:
        # a quarter of the slack on alpha^2 off the diagonal; the pair plan's
        # first cut is the pair {0, 1}
        floor = alpha_sq / (8 * (n - 2)) if len(plan.cuts[0][0]) == 2 else 0.25 * alpha_sq
        if not plan.slack >= floor:
            raise VerificationFailed(f"correction slack {plan.slack:.6e} is below {floor:.6e}")
    # the bound the whole analysis rests on, |e_ij| < delta, checked as met
    base_error = float(np.abs(de.per_pair_error).max())
    if not base_error < delta:
        raise VerificationFailed(
            f"base embedding error {base_error:.6e} is not below its budget "
            f"delta = {delta:.6e}"
        )
    corr_torus, corr_points = embed_almost_regular(plan, CORRECTION_ORDER)

    torus = TorusSpec(de.torus.factors + corr_torus.factors)
    assignment = tuple(
        TorusPoint._of_ints(de.assignment[i].indices + corr_points[i].indices)
        for i in range(n)
    )
    parameters = {
        "alpha": math.sqrt(alpha_sq),
        "delta": delta,
        "n0": str(de.params.n0),
        "m": str(de.params.m),
        "scale_exponent": de.params.e,
        "correction_slack": plan.slack,
    }
    meta = {"tool": "torus-embed", "version": VERSION}
    cert = EmbeddingCertificate(input_sq, torus, assignment, parameters, {}, meta)
    report = verify_certificate(cert)
    if not report.passed:
        raise VerificationFailed(
            f"certificate verification failed: max relative error "
            f"{report.max_rel_error:.6e} at pair {report.worst_pair}"
        )
    cert.errors = {"max_abs": report.max_abs_error, "max_rel": report.max_rel_error}
    return cert
