"""Tests for the end-to-end construction and the certificate verifier."""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from torus_embed import (
    EmbeddingCertificate,
    InputError,
    InvalidCertificate,
    NotSimplex,
    PipelineConfig,
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    TrivialInput,
    VerificationReport,
    check_almost_regular,
    chord,
    dumps_certificate,
    embed_simplex,
    generate_points,
    product_embed,
    regular_simplex,
    schoenberg_decompose,
    squared_distances,
    verify_certificate,
)


def chord_sq_sum(factors, p, q):
    return sum(chord(f.m, f.r, a - b) ** 2 for f, a, b in zip(factors, p, q))


def reference_report(cert, tol):
    """The per-pair verification loop that the numpy reduction over
    `pairwise_sq` replaced, kept as its reference."""
    n = len(cert.assignment)
    input_sq = np.asarray(cert.input_sq, dtype=float)
    max_abs = 0.0
    max_rel = 0.0
    worst = None
    pair_count = 0
    for i in range(n):
        for j in range(i + 1, n):
            pair_count += 1
            total = 0.0
            for f, a, b in zip(
                cert.torus.factors, cert.assignment[i].indices, cert.assignment[j].indices
            ):
                c = chord(f.m, f.r, a - b)
                total += c * c
            target = float(input_sq[i, j])
            abs_err = abs(total - target)
            if target > 0.0:
                rel_err = abs_err / target
            else:
                rel_err = 0.0 if abs_err == 0.0 else math.inf
            max_abs = max(max_abs, abs_err)
            if worst is None or rel_err > max_rel:
                max_rel = rel_err
                worst = (i, j)
    return VerificationReport(
        passed=max_rel <= tol,
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        tolerance=float(tol),
        pair_count=pair_count,
        worst_pair=worst,
    )


def unit_line_cert(input_sq, indices):
    """Certificate on two 2-gons of circumradius 1, where every chord is
    0 or exactly 2, so each factor adds 0 or 4 to a squared distance."""
    return EmbeddingCertificate(
        input_sq=np.asarray(input_sq, dtype=float),
        torus=TorusSpec((PolygonSpec(2, 1.0), PolygonSpec(2, 1.0))),
        assignment=tuple(TorusPoint(p) for p in indices),
        parameters={},
        errors={},
        meta={},
    )


def test_decompose_regular_simplex():
    side = 1.0
    dec = schoenberg_decompose(regular_simplex(4, side))
    assert dec.alpha == pytest.approx(side / math.sqrt(2), rel=1e-10)
    base_d2 = squared_distances(dec.base)
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_allclose(base_d2[off], side**2 / 2, rtol=1e-10)


def test_decompose_two_points():
    d = 3.7
    dec = schoenberg_decompose([[0.0], [d]])
    assert dec.alpha == pytest.approx(d / math.sqrt(2), rel=1e-12)
    assert math.dist(dec.base[0], dec.base[1]) == pytest.approx(d / math.sqrt(2), rel=1e-12)


def test_decompose_collinear_raises():
    with pytest.raises(NotSimplex):
        schoenberg_decompose([[0.0], [1.0], [2.0]])


def test_decompose_single_point_raises():
    with pytest.raises(TrivialInput):
        schoenberg_decompose([[1.0, 2.0]])


def test_decompose_alpha_fraction_range():
    pts = regular_simplex(3, 1.0)
    with pytest.raises(InputError):
        schoenberg_decompose(pts, alpha_fraction=0.0)
    with pytest.raises(InputError):
        schoenberg_decompose(pts, alpha_fraction=2.0)


def test_decompose_reconstructs_input_distances():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        pts = rng.uniform(-1, 1, (n, n - 1))
        d2 = squared_distances(pts)
        dec = schoenberg_decompose(pts)
        rebuilt = squared_distances(dec.base) + dec.alpha**2
        np.fill_diagonal(rebuilt, 0.0)
        assert np.abs(rebuilt - d2).max() <= 1e-10 * d2.max()


def test_decompose_alpha_positive_for_simplices():
    rng = np.random.default_rng(99)
    for n in (2, 4, 6):
        pts = rng.uniform(-1, 1, (n, n - 1))
        assert schoenberg_decompose(pts).alpha > 0


def test_embed_triangle_certificate():
    cert = embed_simplex(regular_simplex(3, 1.0))
    report = verify_certificate(cert, 1e-8)
    assert report.passed
    cuts = cert.parameters["correction_cuts"]
    assert cuts[:3] == [[0], [1], [2]]  # one singleton cut per point first
    assert all(len(c) == 2 for c in cuts[3:])
    delta_factor_count = len(cert.torus.factors) - len(cuts)
    assert 1 <= delta_factor_count <= 2  # base set lives in at most 2 coordinates
    assert cert.parameters["correction_margin"] > 0


def test_embed_two_points_minimal_case():
    cert = embed_simplex([[0.0], [1.0]])
    assert verify_certificate(cert, 1e-8).passed
    assert len(cert.assignment) == 2


def test_embed_regular_five_vertices():
    cert = embed_simplex(regular_simplex(5, 1.0))
    report = verify_certificate(cert, 1e-8)
    assert report.passed
    assert report.max_rel_error <= 1e-8


def test_embed_not_simplex():
    with pytest.raises(NotSimplex):
        embed_simplex([[0.0], [1.0], [2.0]])


def test_embed_is_deterministic():
    pts = generate_points("random", 5, seed=8)
    a = dumps_certificate(embed_simplex(pts))
    b = dumps_certificate(embed_simplex(pts))
    assert a == b


def test_embed_uniform_m_mode():
    cert = embed_simplex(regular_simplex(3, 1.0), PipelineConfig(uniform_m=True))
    orders = {f.m for f in cert.torus.factors}
    assert len(orders) == 1
    assert orders == {int(cert.parameters["m"])}
    assert verify_certificate(cert, 1e-8).passed


def test_embed_alpha_fraction_changes_alpha():
    pts = regular_simplex(3, 1.0)
    small = embed_simplex(pts, PipelineConfig(alpha_fraction=0.5))
    default = embed_simplex(pts)
    assert small.parameters["alpha"] < default.parameters["alpha"]
    assert verify_certificate(small, 1e-8).passed


def test_final_distance_identity():
    # chord sums over the concatenated torus split into the two parts
    pts = generate_points("random", 4, seed=2)
    dec = schoenberg_decompose(pts)
    n = len(pts)
    de = product_embed(dec.base, dec.alpha**2 / n**2)
    cert = embed_simplex(pts)
    k = len(de.torus.factors)
    for i, j in combinations(range(n), 2):
        pi, pj = cert.assignment[i].indices, cert.assignment[j].indices
        front = chord_sq_sum(cert.torus.factors[:k], pi[:k], pj[:k])
        back = chord_sq_sum(cert.torus.factors[k:], pi[k:], pj[k:])
        corr_sq = de.per_pair_error[i, j] + dec.alpha**2
        assert back == pytest.approx(corr_sq, rel=1e-10)
        d2 = squared_distances(pts)[i, j]
        assert front + back == pytest.approx(d2, rel=1e-10)


def test_correction_matrix_is_almost_regular_every_run():
    rng = np.random.default_rng(55)
    for seed in range(8):
        n = int(rng.integers(2, 7))
        pts = generate_points("random", n, seed=seed)
        dec = schoenberg_decompose(pts)
        de = product_embed(dec.base, dec.alpha**2 / n**2)
        corr_sq = de.per_pair_error + dec.alpha**2
        corr = np.sqrt(np.where(np.eye(n, dtype=bool), 0.0, corr_sq))
        np.fill_diagonal(corr, 0.0)
        valid, margin = check_almost_regular(corr)
        assert valid and margin > 0


def test_verify_tampered_index_fails():
    cert = embed_simplex(regular_simplex(3, 1.0))
    assert verify_certificate(cert, 1e-8).passed
    # bump point 1's index in the slot of the singleton cut {0}, where point
    # 0 carries a 1: the pair (0, 1) loses one chord
    cuts = cert.parameters["correction_cuts"]
    k = len(cert.torus.factors) - len(cuts) + cuts.index([0])
    indices = list(cert.assignment[1].indices)
    indices[k] = (indices[k] + 1) % cert.torus.factors[k].m
    tampered = dataclasses.replace(
        cert,
        assignment=(
            cert.assignment[0],
            TorusPoint(tuple(indices)),
            cert.assignment[2],
        ),
    )
    report = verify_certificate(tampered, 1e-8)
    assert not report.passed
    assert report.worst_pair is not None


def test_verify_single_point_vacuous():
    cert = EmbeddingCertificate(
        input_sq=np.zeros((1, 1)),
        torus=TorusSpec((PolygonSpec(5, 1.0),)),
        assignment=(TorusPoint((0,)),),
        parameters={},
        errors={},
        meta={},
    )
    report = verify_certificate(cert, 1e-8)
    assert report.passed
    assert report.pair_count == 0
    assert report.max_abs_error == 0.0
    assert report.worst_pair is None
    assert report == reference_report(cert, 1e-8)


def test_verify_matches_reference_loop_on_clean_and_tampered():
    rejected = 0
    for seed, n in enumerate((2, 3, 5, 8)):
        cert = embed_simplex(generate_points("random", n, seed=seed))
        rng = np.random.default_rng(seed)
        for _ in range(4):
            i = int(rng.integers(n))
            k = int(rng.integers(len(cert.torus.factors)))
            indices = list(cert.assignment[i].indices)
            m = cert.torus.factors[k].m
            indices[k] = (indices[k] + int(rng.integers(1, 4)) * (m // 2 or 1)) % m
            tampered = dataclasses.replace(
                cert,
                assignment=cert.assignment[:i] + (TorusPoint(tuple(indices)),)
                + cert.assignment[i + 1:],
            )
            for tol in (0.0, 1e-8, 1.0):
                assert verify_certificate(cert, tol) == reference_report(cert, tol)
                assert verify_certificate(tampered, tol) == reference_report(tampered, tol)
            rejected += not verify_certificate(tampered, 1e-8).passed
    assert rejected  # the comparison covers failing reports as well


def test_verify_zero_target_met_by_zero_distance():
    # points 0 and 1 coincide and so do their targets
    cert = unit_line_cert([[0, 0, 4], [0, 0, 4], [4, 4, 0]], [(0, 0), (0, 0), (1, 0)])
    report = verify_certificate(cert, 0.0)
    assert report.passed
    assert report.max_rel_error == 0.0
    assert report.max_abs_error == 0.0
    assert report == reference_report(cert, 0.0)


def test_verify_zero_target_with_nonzero_distance_is_worst():
    # pair (0, 1) is off by a third; pair (1, 2) has target 0 at distance^2 8
    cert = unit_line_cert([[0, 3, 4], [3, 0, 0], [4, 0, 0]], [(0, 0), (1, 0), (0, 1)])
    report = verify_certificate(cert, 1e-8)
    assert not report.passed
    assert report.max_rel_error == math.inf
    assert report.max_abs_error == 8.0
    assert report.worst_pair == (1, 2)
    assert report == reference_report(cert, 1e-8)


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf])
def test_verify_rejects_bad_tolerance(tol):
    cert = embed_simplex(regular_simplex(3, 1.0))
    with pytest.raises(InputError):
        verify_certificate(cert, tol)
    with pytest.raises(InputError):
        embed_simplex(regular_simplex(3, 1.0), PipelineConfig(accept_tol=tol))


def test_verify_ignores_parameters():
    cert = embed_simplex(regular_simplex(4, 1.0))
    stripped = dataclasses.replace(cert, parameters={}, errors={}, meta={})
    assert verify_certificate(stripped, 1e-8) == verify_certificate(cert, 1e-8)


def test_verify_structural_errors():
    cert = embed_simplex([[0.0], [1.0]])
    short = dataclasses.replace(cert, assignment=cert.assignment[:1])
    with pytest.raises(InvalidCertificate) as exc:
        verify_certificate(short)
    assert exc.value.field == "assignment"

    bad_index = TorusPoint(
        (cert.torus.factors[0].m,) + cert.assignment[0].indices[1:]
    )
    with pytest.raises(InvalidCertificate) as exc:
        verify_certificate(
            dataclasses.replace(cert, assignment=(bad_index, cert.assignment[1]))
        )
    assert exc.value.field == "assignment[0][0]"

    wrong_len = TorusPoint(cert.assignment[0].indices[:-1])
    with pytest.raises(InvalidCertificate) as exc:
        verify_certificate(
            dataclasses.replace(cert, assignment=(wrong_len, cert.assignment[1]))
        )
    assert exc.value.field == "assignment[0]"


@pytest.mark.parametrize(
    "entry, value", [((1, 0), 0.5), ((0, 0), 0.25)], ids=["asymmetric", "nonzero-diagonal"]
)
def test_verify_rejects_invalid_input_matrix(entry, value):
    # the pair loop reads only the upper triangle, so these matrices would
    # otherwise pass with the untouched embedding
    cert = embed_simplex(regular_simplex(3, 1.0))
    bad = np.array(cert.input_sq, dtype=float)
    bad[entry] = value
    with pytest.raises(InvalidCertificate) as exc:
        verify_certificate(dataclasses.replace(cert, input_sq=bad), 1e-8)
    assert exc.value.field == "input.squared_distances"
