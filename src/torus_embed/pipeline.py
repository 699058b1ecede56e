"""End-to-end construction: split a simplex into a base set plus a uniform
squared-distance increment, almost-embed the base into huge polygons, absorb
the per-pair snapping errors into an almost-regular correction matrix, and
concatenate both embeddings into one torus with a verifiable certificate.

The correction step is what makes the result exact: writing e_ij for the
base embedding's squared-distance error and a for the increment, the
correction matrix sqrt(e_ij + a^2) always satisfies the almost-regularity
condition because every |e_ij| stays below a^2/n^2, and its realization
contributes exactly the missing e_ij + a^2 to each pair.

The correction is emitted as merged cuts (see `almost_regular`): one
polygon per point and one per kept pair, at most n(n + 1)/2 - 1 of them, so
a random 16-point simplex takes about 150 factors in all. `parameters`
records the cut of each correction factor under "correction_cuts", in
factor order; the correction factors are the last len(correction_cuts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .almost_regular import check_almost_regular, embed_almost_regular, realization_plan
from .certificate import VERSION, EmbeddingCertificate
from .delta_embed import product_embed
from .errors import (
    InputError,
    InvalidCertificate,
    NotSimplex,
    TrivialInput,
    VerificationFailed,
)
from .geometry import (
    DEFAULT_TOL,
    as_point_array,
    centered_gram,
    check_squared_distances,
    is_simplex,
    realize,
    squared_distances,
)
from .torus import TorusPoint, TorusSpec, pairwise_sq

DEFAULT_ACCEPT_TOL = 1e-8

# default polygon order for the correction factors; triangles keep
# certificates small, while uniform_m forces them to the base embedding's
# (huge) order instead
CORRECTION_ORDER = 3


@dataclass(frozen=True)
class ExpansionDecomposition:
    """Base points plus the uniform squared-distance increment alpha^2."""

    base: np.ndarray
    alpha: float
    lambda_min: float  # smallest centered-Gram eigenvalue off the centering mode


@dataclass(frozen=True)
class PipelineConfig:
    accept_tol: float = DEFAULT_ACCEPT_TOL
    alpha_fraction: float = 1.0
    uniform_m: bool = False
    rank_tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    max_abs_error: float
    max_rel_error: float
    tolerance: float
    pair_count: int
    worst_pair: tuple[int, int] | None


def schoenberg_decompose(
    points, tol: float = DEFAULT_TOL, alpha_fraction: float = 1.0
) -> ExpansionDecomposition:
    """Write a simplex as a base set whose squared distances are uniformly
    alpha^2 smaller.

    Subtracting alpha^2 from every off-diagonal squared distance shifts each
    centered-Gram eigenvalue (off the centering mode) down by alpha^2/2, so
    any alpha^2 below twice the smallest such eigenvalue keeps the base
    realizable. alpha^2 = alpha_fraction * lambda_min, default exactly
    lambda_min, which leaves the base well conditioned.
    """
    arr = as_point_array(points)
    n = arr.shape[0]
    if n < 2:
        raise TrivialInput("decomposition needs at least two points")
    if not 0.0 < alpha_fraction < 2.0:
        raise InputError(f"alpha_fraction must lie in (0, 2), got {alpha_fraction!r}")
    if not is_simplex(arr, tol):
        raise NotSimplex("points are not affinely independent at the working tolerance")
    g = centered_gram(squared_distances(arr))
    w = np.linalg.eigvalsh(g)
    lam_min = float(w[1])  # w[0] is the centering mode, ~0 for a simplex
    alpha_sq = alpha_fraction * lam_min
    centering = np.eye(n) - 1.0 / n
    base = realize(g - 0.5 * alpha_sq * centering, tol)
    return ExpansionDecomposition(base, math.sqrt(alpha_sq), lam_min)


def embed_simplex(points, cfg: PipelineConfig | None = None) -> EmbeddingCertificate:
    """Construct a verified isometric embedding of a simplex into a torus.

    Raises NotSimplex when the input is affinely dependent and
    VerificationFailed if, against all analysis, the built certificate does
    not pass its own verification at cfg.accept_tol.
    """
    cfg = cfg or PipelineConfig()
    arr = as_point_array(points)
    n = arr.shape[0]
    dec = schoenberg_decompose(arr, cfg.rank_tol, cfg.alpha_fraction)
    input_sq = squared_distances(arr)
    alpha_sq = dec.alpha**2

    de = product_embed(dec.base, alpha_sq / n**2)

    corr_sq = de.per_pair_error + alpha_sq
    off = ~np.eye(n, dtype=bool)
    if float(corr_sq[off].min()) <= 0.0:
        raise VerificationFailed(
            "correction entries lost positivity; the base embedding error "
            "exceeded its budget"
        )
    correction = np.sqrt(np.where(off, corr_sq, 0.0))
    valid, margin = check_almost_regular(correction)
    if not valid:
        raise VerificationFailed(
            f"correction matrix is not almost regular (margin {margin:.6e})"
        )
    correction_m = de.params.m if cfg.uniform_m else CORRECTION_ORDER
    plan = realization_plan(correction)
    corr_torus, corr_points = embed_almost_regular(plan, correction_m)

    torus = TorusSpec(de.torus.factors + corr_torus.factors)
    assignment = tuple(
        TorusPoint(de.assignment[i].indices + corr_points[i].indices)
        for i in range(n)
    )
    parameters = {
        "alpha": dec.alpha,
        "alpha_fraction": cfg.alpha_fraction,
        "delta": de.delta,
        "n0": str(de.params.n0),
        "n": str(de.params.n),
        "m": str(de.params.m),
        "r": de.params.r,
        "dropped_coordinates": list(de.dropped_axes),
        "correction_m": str(correction_m),
        "correction_margin": margin,
        "uniform_m": cfg.uniform_m,
        "correction_cuts": [list(members) for members, _ in plan.cuts()],
        "rank_tolerance": cfg.rank_tol,
        "accept_tolerance": cfg.accept_tol,
    }
    meta = {"tool": "torus-embed", "version": VERSION, "float_format": ".17g"}
    cert = EmbeddingCertificate(input_sq, torus, assignment, parameters, {}, meta)
    report = verify_certificate(cert, cfg.accept_tol)
    if not report.passed:
        raise VerificationFailed(
            f"certificate verification failed: max relative error "
            f"{report.max_rel_error:.6e} at pair {report.worst_pair}"
        )
    cert.errors = {"max_abs": report.max_abs_error, "max_rel": report.max_rel_error}
    return cert


def _check_structure(cert: EmbeddingCertificate) -> int:
    try:
        n = check_squared_distances(cert.input_sq, "input.squared_distances").shape[0]
    except InputError as exc:
        raise InvalidCertificate(str(exc), field="input.squared_distances") from None
    if len(cert.assignment) != n:
        raise InvalidCertificate(
            f"assignment has {len(cert.assignment)} points, input has {n}",
            field="assignment",
        )
    factors = cert.torus.factors
    for i, p in enumerate(cert.assignment):
        if len(p.indices) != len(factors):
            raise InvalidCertificate(
                f"assignment[{i}] has {len(p.indices)} indices, torus has "
                f"{len(factors)} factors",
                field=f"assignment[{i}]",
            )
        for k, idx in enumerate(p.indices):
            if not 0 <= idx < factors[k].m:
                raise InvalidCertificate(
                    f"assignment[{i}][{k}] = {idx} out of range for m = {factors[k].m}",
                    field=f"assignment[{i}][{k}]",
                )
    return n


def verify_certificate(
    cert: EmbeddingCertificate, tol: float = DEFAULT_ACCEPT_TOL
) -> VerificationReport:
    """Independently check a certificate against its input metric.

    Recomputes every pairwise distance from the chord formula on vertex
    index differences alone; the certificate's construction parameters are
    never consulted. Passes iff the largest relative squared-distance error
    is at most tol. Raises InputError unless 0 <= tol < inf: a NaN or
    negative tol would fail every certificate and an infinite one pass all.
    """
    tol = float(tol)
    if not 0.0 <= tol < math.inf:
        raise InputError(f"tolerance must be a finite number >= 0, got {tol!r}")
    n = _check_structure(cert)
    k = np.arange(n)
    iu = np.nonzero(k[:, None] < k)  # np.triu_indices(n, 1), at a third of its cost
    target = np.asarray(cert.input_sq, dtype=float)[iu]
    abs_err = np.abs(pairwise_sq(cert.torus, cert.assignment)[iu] - target)
    # a zero target is met only by a zero error
    zero_target = np.where(abs_err == 0.0, 0.0, math.inf)
    rel_err = np.divide(abs_err, target, out=zero_target, where=target > 0.0)
    worst = int(np.argmax(rel_err)) if rel_err.size else None
    max_rel = float(rel_err.max(initial=0.0))
    return VerificationReport(
        passed=max_rel <= tol,
        max_abs_error=float(abs_err.max(initial=0.0)),
        max_rel_error=max_rel,
        tolerance=tol,
        pair_count=int(rel_err.size),
        worst_pair=None if worst is None else (int(iu[0][worst]), int(iu[1][worst])),
    )
