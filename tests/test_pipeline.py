"""Tests for the end-to-end construction and the certificate verifier."""

import dataclasses
import functools
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_embed import (
    EmbeddingCertificate,
    InputError,
    InvalidCertificate,
    NotSimplex,
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    TrivialInput,
    VerificationFailed,
    VerificationReport,
    centered_gram,
    check_almost_regular,
    chord,
    dumps_certificate,
    embed_almost_regular,
    embed_simplex,
    generate_points,
    loads_certificate,
    product_embed,
    realization_plan,
    regular_simplex,
    schoenberg_decompose,
    squared_distances,
    verify_certificate,
)
from torus_embed.certificate import DEFAULT_ACCEPT_TOL, VERSION
from torus_embed.cli import main


def correction_cuts(cert):
    """The layout rule of the pipeline docstring: the factors after the
    first n - 1 are the correction's cuts, one each. Returns the first cut's
    position and each cut's points (those on vertex 1), after checking that
    every index there is 0 or 1."""
    first = len(cert.assignment) - 1
    cuts = []
    for k in range(first, len(cert.torus.factors)):
        column = [p.indices[k] for p in cert.assignment]
        assert set(column) <= {0, 1}
        cuts.append([i for i, j in enumerate(column) if j == 1])
    return first, cuts


def uniform_m_certificate(points):
    """The points' certificate with every cut factor at the base's order m,
    as `embed --uniform-m` wrote it before 0.12.0 (less its
    accept_tolerance): the base factors, then `embed_almost_regular(plan,
    m)`, with the errors that torus gives."""
    cert = embed_simplex(points)
    dec = schoenberg_decompose(cert.input_sq)
    de = product_embed(dec.base, cert.parameters["delta"])
    corr_sq = de.per_pair_error + dec.alpha_sq
    np.fill_diagonal(corr_sq, 0.0)
    corr_torus, corr_points = embed_almost_regular(realization_plan(corr_sq), de.params.m)
    uniform = dataclasses.replace(
        cert,
        torus=TorusSpec(de.torus.factors + corr_torus.factors),
        assignment=tuple(
            TorusPoint(p.indices + q.indices) for p, q in zip(de.assignment, corr_points)
        ),
    )
    report = verify_certificate(uniform)
    return dataclasses.replace(
        uniform, errors={"max_abs": report.max_abs_error, "max_rel": report.max_rel_error}
    )


CERTIFICATES = {"triangles": embed_simplex, "uniform-m": uniform_m_certificate}


def coarsening(n):
    """K = 2**floor(log2(n**2 / 2)): the embed grids the base at K times the
    proven budget alpha^2 / n**2 first (pipeline docstring)."""
    return 1 << ((n * n // 2).bit_length() - 1)


def chord_sq_sum(factors, p, q):
    return sum(chord(f.m, f.r, a - b) ** 2 for f, a, b in zip(factors, p, q))


def reference_chord(m, r, step):
    """The chord between vertices `step` apart on a regular m-gon of
    circumradius r, written out here so that the verifier's reference shares
    no code with `torus`: fold the step, take the shorter way round, one int
    division, then `math.sin`."""
    k = step % m
    if not k:
        return 0.0
    k = min(k, m - k)
    return 2.0 * r * math.sin(math.pi * (k / m))


def reference_report(cert, tol):
    """The per-pair verification loop that the numpy reduction over
    `pairwise_sq` replaced, kept as its reference, on `reference_chord`."""
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
                c = reference_chord(f.m, f.r, a - b)
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


def reference_schoenberg_decompose(points, tol=1e-9):
    """The decomposition written out plainly on one eigendecomposition of
    the points' centered Gram: the rank rule, alpha^2 = lambda_min, then the
    base one eigenvector at a time, in decreasing eigenvalue order, each
    scaled by the square root of its eigenvalue less alpha^2/2."""
    arr = np.asarray(points, dtype=float)
    n = arr.shape[0]
    w, v = np.linalg.eigh(centered_gram(squared_distances(arr)))
    if np.count_nonzero(w > tol * max(float(w[-1]), 0.0)) != n - 1:
        raise NotSimplex("points are not affinely independent at the working tolerance")
    lam_min = float(w[1])
    base = np.column_stack(
        [v[:, k] * math.sqrt(w[k] - 0.5 * lam_min) for k in range(n - 1, 0, -1)]
    )
    return lam_min, base


def assert_matches_reference(dec, points):
    lam_min, base = reference_schoenberg_decompose(points)
    assert dec.alpha_sq == lam_min
    np.testing.assert_array_equal(dec.base, base)


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
    dec = schoenberg_decompose(squared_distances(regular_simplex(4, side)))
    assert dec.alpha_sq == pytest.approx(side**2 / 2, rel=1e-10)
    base_d2 = squared_distances(dec.base)
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_allclose(base_d2[off], side**2 / 2, rtol=1e-10)


def test_decompose_two_points():
    d = 3.7
    dec = schoenberg_decompose(squared_distances([[0.0], [d]]))
    assert dec.alpha_sq == pytest.approx(d**2 / 2, rel=1e-12)
    assert math.dist(dec.base[0], dec.base[1]) == pytest.approx(d / math.sqrt(2), rel=1e-12)


def test_decompose_collinear_raises():
    with pytest.raises(NotSimplex):
        schoenberg_decompose(squared_distances([[0.0], [1.0], [2.0]]))


def test_decompose_single_point_raises():
    with pytest.raises(TrivialInput):
        schoenberg_decompose(squared_distances([[1.0, 2.0]]))


def flattened_random(n, seed, factor):
    """`gen random n --seed seed` with its last coordinate axis scaled by factor."""
    pts = np.asarray(generate_points("random", n, seed=seed))
    pts[:, -1] *= factor
    return pts


def gram_ratio(pts):
    w = np.linalg.eigvalsh(centered_gram(squared_distances(pts)))
    return w[1] / w[-1]


def test_flattened_simplex_keeps_every_base_axis():
    # lambda_min / lambda_max lies just above the rank tolerance 1e-9: the
    # simplex is accepted, and the base built from that same spectrum keeps
    # all n - 1 axes, so the certificate is tight
    pts = flattened_random(4, 1, 3e-4)
    assert 1e-9 < gram_ratio(pts) < 2e-9
    assert schoenberg_decompose(squared_distances(pts)).base.shape == (4, 3)
    cert = embed_simplex(pts)
    assert cert.errors["max_rel"] <= 1e-12
    assert verify_certificate(cert, 1e-12).passed


def test_conditioning_sweep_embeds_tightly_or_refuses():
    # flattening one axis walks lambda_min / lambda_max down through the
    # rank tolerance: each input embeds tightly or is refused as NotSimplex,
    # never VerificationFailed
    embedded = refused = near_tolerance = 0
    for n in (4, 6, 8):
        for seed in range(3):
            for factor in np.logspace(0, -8, 81):
                pts = flattened_random(n, seed, factor)
                try:
                    cert = embed_simplex(pts)
                except NotSimplex:
                    refused += 1
                    continue
                assert cert.errors["max_rel"] <= 1e-12, (n, seed, factor)
                embedded += 1
                near_tolerance += gram_ratio(pts) < 2e-9
    assert embedded and refused and near_tolerance >= 10


def test_decompose_reconstructs_input_distances():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        pts = rng.uniform(-1, 1, (n, n - 1))
        d2 = squared_distances(pts)
        dec = schoenberg_decompose(d2)
        rebuilt = squared_distances(dec.base) + dec.alpha_sq
        np.fill_diagonal(rebuilt, 0.0)
        assert np.abs(rebuilt - d2).max() <= 1e-10 * d2.max()


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_decompose_matches_reference_bitwise(scale):
    rng = np.random.default_rng(23)
    for n in range(2, 17):
        pts = rng.uniform(-1, 1, (n, n - 1)) * scale
        assert_matches_reference(schoenberg_decompose(squared_distances(pts)), pts)


def test_decompose_alpha_positive_for_simplices():
    rng = np.random.default_rng(99)
    for n in (2, 4, 6):
        pts = rng.uniform(-1, 1, (n, n - 1))
        assert schoenberg_decompose(squared_distances(pts)).alpha_sq > 0


def test_embed_triangle_certificate():
    cert = embed_simplex(regular_simplex(3, 1.0))
    report = verify_certificate(cert, 1e-8)
    assert report.passed
    first, cuts = correction_cuts(cert)
    # the grid leaves the correction's entries unequal, so three points take
    # the pair plan: one cut per pair, each a singleton's complement
    assert cuts == [[0, 1], [0, 2], [1, 2]]
    assert 1 <= first <= 2  # base set lives in at most 2 coordinates
    assert cert.parameters["correction_slack"] > 0


# random simplices, some flattened to just above the rank tolerance (as in
# test_flattened_simplex_keeps_every_base_axis) and some scaled to 1e+-150
LAYOUT_INPUTS = {
    **{str(n): (lambda n=n: generate_points("random", n, seed=n)) for n in (2, 3, 5, 8, 16)},
    "4-flat": lambda: flattened_random(4, 1, 3e-4),
    "8-flat": lambda: flattened_random(8, 1, 1.6e-4),
    "8-1e-150": lambda: generate_points("random", 8, seed=8) * 1e-150,
    "8-1e150": lambda: generate_points("random", 8, seed=8) * 1e150,
}


@pytest.mark.parametrize("kind", list(CERTIFICATES))
@pytest.mark.parametrize("name", list(LAYOUT_INPUTS))
def test_certificate_layout_locates_every_cut(monkeypatch, name, kind):
    # the torus and the assignment alone give every cut: the first n - 1
    # factors are the base, at its order m, then come the pair plan's pairs
    # in row-major order for n = 3 and n >= 5 (when they are fewer), else the
    # n singletons in order and the kept pairs (those below the largest
    # correction entry) in row-major order, each a triangle, or at the base's
    # m in the uniform-order form that versions before 0.12.0 could write
    from torus_embed import pipeline

    pts = LAYOUT_INPUTS[name]()
    n = len(pts)

    planned = []

    def recorded(sq):
        planned.append(np.array(sq))
        return realization_plan(sq)

    monkeypatch.setattr(pipeline, "_realization_plan", recorded)
    cert = CERTIFICATES[kind](pts)
    dropped = {"correction_cuts", "correction_m", "dropped_coordinates", "alpha_fraction",
               "uniform_m", "n", "r", "rank_tolerance", "float_format", "accept_tolerance"}
    assert not dropped & (set(cert.parameters) | set(cert.meta))
    (corr_sq,) = planned
    upper = corr_sq[np.triu_indices(n, 1)]
    pairs = [list(pair) for pair in combinations(range(n), 2)]
    kept = [pair for pair, c in zip(pairs, upper) if c < upper.max()]
    first, cuts = correction_cuts(cert)
    assert first == n - 1
    if n in (2, 4):
        assert cuts == [[k] for k in range(n)] + kept
        assert len(cuts) == n + len(kept)
    else:
        assert len(pairs) < n + len(kept)
        assert cuts == pairs
    m = int(cert.parameters["m"])
    assert [f.m for f in cert.torus.factors[:first]] == [m] * (n - 1)
    assert {f.m for f in cert.torus.factors[first:]} == {m if kind == "uniform-m" else 3}


@pytest.mark.parametrize("n", [3, *range(5, 17)])
def test_random_certificates_take_one_triangle_per_pair(n):
    # `gen random n` points: the n - 1 base factors, then the pair plan's
    # n(n - 1)/2 triangles, n - 1 fewer than the singleton plan's cuts
    cert = embed_simplex(generate_points("random", n, seed=1))
    assert len(cert.torus.factors) == n * (n - 1) // 2 + n - 1
    first, cuts = correction_cuts(cert)
    assert first == n - 1
    assert cuts == [list(pair) for pair in combinations(range(n), 2)]
    assert {f.m for f in cert.torus.factors[first:]} == {3}


# what each version's `embed` wrote for `gen random 6 --seed 1`, 0.3.0 to
# today's, with --uniform-m (every cut factor at the base's order m) for
# 0.9.0 to 0.11.0, and for those points times 2**-600, whose squared
# distances underflow, from 0.16.0 ("-scaled"); each is named for its
# meta.version
CORPUS = Path(__file__).parent / "data" / "certificates"
GOLDEN = sorted(CORPUS.glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_golden_certificate_verifies_and_round_trips(tmp_path, path):
    # verification never reads provenance, so each version's certificate
    # verifies and round-trips byte for byte; today's embed writes today's
    # file, so any change to the written bytes needs a new VERSION and file
    assert VERSION in [p.stem for p in GOLDEN]
    text = path.read_text(encoding="utf-8")
    cert = loads_certificate(text)
    report = verify_certificate(cert, 1e-8)
    assert report.passed
    # the kernel reproduces the errors that the writing version recorded, bit
    # for bit
    assert report.max_abs_error.hex() == float(cert.errors["max_abs"]).hex()
    assert report.max_rel_error.hex() == float(cert.errors["max_rel"]).hex()
    assert dumps_certificate(cert) + "\n" == text
    assert cert.meta["version"] == path.stem.partition("-")[0]
    if path.stem == VERSION:
        inp, out = tmp_path / "in.json", tmp_path / "cert.json"
        assert main(["gen", "random", "6", "--seed", "1", "-o", str(inp)]) == 0
        assert main(["embed", "--quiet", str(inp), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == text
    if path.stem == f"{VERSION}-scaled":
        points = np.ldexp(generate_points("random", 6, seed=1), -600)
        assert dumps_certificate(embed_simplex(points)) + "\n" == text
        assert cert.scale == -599


@pytest.mark.parametrize("failure", ["slack", "self-check"])
def test_coarse_grid_failure_falls_back_to_the_proven_grid(monkeypatch, tmp_path, failure):
    # a coarse grid whose pair plan's smallest weight falls short of a
    # quarter of the uniform weight, alpha^2 / (8 (n - 2)), by an ulp, or
    # whose certificate fails its self-check, is dropped, and the base is
    # gridded again at the proven budget alpha^2 / n**2: the proven grid's
    # certificate, byte for byte, whose input, base and parameters other
    # than the slack are what 0.12.0 wrote, and whose correction is the pair
    # plan
    from torus_embed import pipeline

    inp, out = tmp_path / "in.json", tmp_path / "cert.json"
    assert main(["gen", "random", "6", "--seed", "1", "-o", str(inp)]) == 0
    points = generate_points("random", 6, seed=1)
    alpha_sq = schoenberg_decompose(squared_distances(points)).alpha_sq
    budgets = []

    def recorded_embed(points, delta):
        budgets.append(delta)
        return product_embed(points, delta)

    def short_plan(sq):
        plan = realization_plan(sq)
        if len(budgets) > 1:
            return plan
        return dataclasses.replace(plan, slack=math.nextafter(alpha_sq / 32, 0.0))

    def failed_check(cert, *args):
        report = verify_certificate(cert, *args)
        return report if len(budgets) > 1 else dataclasses.replace(report, passed=False)

    monkeypatch.setattr(pipeline, "product_embed", recorded_embed)
    if failure == "slack":
        monkeypatch.setattr(pipeline, "_realization_plan", short_plan)
    else:
        monkeypatch.setattr(pipeline, "verify_certificate", failed_check)
    assert main(["embed", "--quiet", str(inp), str(out)]) == 0
    assert budgets == [(alpha_sq / 36) * 16, alpha_sq / 36]
    monkeypatch.undo()
    sq = squared_distances(points)
    proven = pipeline._certify(sq, schoenberg_decompose(sq), alpha_sq / 36)
    text = out.read_text(encoding="utf-8")
    assert text == dumps_certificate(proven) + "\n"
    got = loads_certificate(text)
    old = loads_certificate((CORPUS / "0.12.0.json").read_text(encoding="utf-8"))
    np.testing.assert_array_equal(got.input_sq, old.input_sq)
    assert got.torus.factors[:5] == old.torus.factors[:5]
    assert [p.indices[:5] for p in got.assignment] == [p.indices[:5] for p in old.assignment]
    slack = got.parameters.pop("correction_slack")
    assert old.parameters.pop("correction_margin") > 0
    assert got.parameters == old.parameters
    assert correction_cuts(got)[1] == [list(pair) for pair in combinations(range(6), 2)]
    # the slack is the pair plan's smallest weight, the square of its
    # smallest side but for rounding
    sides = [f.r * chord(3, 1.0, 1) for f in got.torus.factors[5:]]
    assert slack == pytest.approx(min(sides) ** 2, rel=1e-14)


@pytest.mark.parametrize("n", [4, 6])
def test_slack_gate_is_a_quarter_of_the_uniform_slack(monkeypatch, n):
    # the coarse grid is kept at a slack of exactly its gate and dropped an
    # ulp under it: alpha^2 / 4 for the singleton plan (n = 4), a quarter of
    # the margin alpha^2 that the correction has with no base error, and
    # alpha^2 / (8 (n - 2)) for the pair plan, a quarter of its uniform
    # weight
    from torus_embed import pipeline

    points = generate_points("random", n, seed=1)
    alpha_sq = schoenberg_decompose(squared_distances(points)).alpha_sq
    gate = alpha_sq / 4 if n == 4 else alpha_sq / (8 * (n - 2))
    for slack, delta in (
        (gate, (alpha_sq / n**2) * coarsening(n)),
        (math.nextafter(gate, 0.0), alpha_sq / n**2),
    ):
        budgets = []

        def recorded_embed(points, delta):
            budgets.append(delta)
            return product_embed(points, delta)

        def pinned_plan(sq):
            plan = realization_plan(sq)
            assert (len(plan.cuts[0][0]) == 2) == (n == 6)
            return plan if len(budgets) > 1 else dataclasses.replace(plan, slack=slack)

        monkeypatch.setattr(pipeline, "product_embed", recorded_embed)
        monkeypatch.setattr(pipeline, "_realization_plan", pinned_plan)
        cert = embed_simplex(points)
        monkeypatch.undo()
        assert cert.parameters["delta"] == delta
        assert budgets[-1] == delta


@pytest.mark.parametrize("seed", [1, 2])
def test_bench_sized_inputs_keep_the_coarse_grid(seed):
    # n = 16 points uniform in [-1, 1]^15, drawn as the embed-random
    # workload draws them: the base is gridded at 128 times the proven
    # budget, and the pair plan's weights keep at least a quarter of the
    # uniform weight alpha^2 / 28
    rng = np.random.default_rng([seed, 1])
    for _ in range(8):
        cert = embed_simplex(rng.uniform(-1.0, 1.0, (16, 15)))
        alpha_sq = schoenberg_decompose(cert.input_sq).alpha_sq
        assert cert.parameters["delta"] == (alpha_sq / 256) * 128
        assert cert.parameters["correction_slack"] >= alpha_sq / 112


def test_sixty_four_point_base_orders_stay_below_two_to_the_53():
    # `gen random 64 --seed 1` took 61-bit base orders on the proven grid;
    # the coarse grid keeps every base factor on the chord kernel's numpy path
    cert = embed_simplex(generate_points("random", 64, seed=1))
    base = cert.torus.factors[:63]
    assert {f.m for f in base} == {int(cert.parameters["m"])}
    assert int(cert.parameters["m"]) < 2**53


def test_hundred_twenty_eight_point_base_orders_stay_below_two_to_the_53():
    # `gen random 128 --seed 1` took 54-bit base orders on the grid at
    # K = 2**floor(log2 n) = 128, so every base chord ran through `chord` in
    # Python; at K = 2**floor(log2(n**2 / 2)) = 8192 they take 45 bits
    cert = embed_simplex(generate_points("random", 128, seed=1))
    alpha_sq = schoenberg_decompose(cert.input_sq).alpha_sq
    assert cert.parameters["delta"] == (alpha_sq / 128**2) * 8192
    assert {f.m for f in cert.torus.factors[:127]} == {int(cert.parameters["m"])}
    assert int(cert.parameters["m"]) < 2**53
    assert verify_certificate(cert).passed


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


# regular simplices whose alpha^2 = lambda_min does not survive a square
# root and back: math.sqrt(a)**2 != a for each
ONE_ALPHA_SIDES = {2: 0.7, 3: 1.0, 4: 1.0, 8: 0.7}


@pytest.mark.parametrize("n", list(ONE_ALPHA_SIDES))
def test_alpha_sq_has_one_value(monkeypatch, n):
    # the decomposition's alpha^2 is the very value the budget and the
    # correction use, bit for bit, never alpha re-squared
    from torus_embed import pipeline

    calls = {}  # name: (args, result)

    def spy(fn):
        def recorded(*args):
            calls[fn.__name__] = args, fn(*args)
            return calls[fn.__name__][1]
        monkeypatch.setattr(pipeline, fn.__name__, recorded)

    for fn in (pipeline.schoenberg_decompose, pipeline.product_embed, pipeline._realization_plan):
        spy(fn)
    cert = embed_simplex(regular_simplex(n, ONE_ALPHA_SIDES[n]))
    alpha_sq = calls["schoenberg_decompose"][1].alpha_sq
    assert math.sqrt(alpha_sq) ** 2 != alpha_sq
    (corr_sq,) = calls["_realization_plan"][0]
    expected = calls["product_embed"][1].per_pair_error + alpha_sq
    off = ~np.eye(n, dtype=bool)
    np.testing.assert_array_equal(corr_sq[off], expected[off])
    assert cert.parameters["delta"] == (alpha_sq / n**2) * coarsening(n)
    assert cert.parameters["alpha"] == math.sqrt(alpha_sq)
    assert cert.errors["max_rel"] <= 1e-12
    assert verify_certificate(cert, 1e-12).passed


# with K near n**2 / 2 the threshold is 4/3 at n = 2, 4 and 8 and 18/13 at
# n = 3, so 1.2 and 1.3 keep the side where the budget stays below them
@pytest.mark.parametrize("fraction", [1.2, 1.3, 1.5, 1.7, 1.9, 1.95, 1.99, 1.999])
@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_budget_kept_where_it_exceeds_the_base_distances(monkeypatch, n, fraction):
    # alpha^2 = lambda_min keeps every base squared distance >= lambda_min >
    # delta, but any alpha^2 below 2 lambda_min decomposes the simplex. A
    # regular simplex decomposed at alpha^2 = f lambda_min has base squared
    # distances (2 - f) lambda_min against the coarse budget
    # K f lambda_min / n**2, which reaches them once
    # f >= 2 n**2 / (n**2 + K): the rest of the pipeline takes such a
    # decomposition as given, the grid alone keeps the base injective, and
    # the certificate records the budget (alpha_sq / n**2) * K as it was
    # used
    from torus_embed import pipeline

    decompose = pipeline.schoenberg_decompose
    seen = []

    def wider(sq):
        dec = decompose(sq)
        seen.append(pipeline.ExpansionDecomposition(
            dec.base * math.sqrt(2.0 - fraction), fraction * dec.alpha_sq
        ))
        return seen[-1]

    monkeypatch.setattr(pipeline, "schoenberg_decompose", wider)
    cert = embed_simplex(regular_simplex(n, 1.0))
    (dec,) = seen
    delta, k = cert.parameters["delta"], coarsening(n)
    assert delta == (dec.alpha_sq / n**2) * k
    base_min = squared_distances(dec.base)[~np.eye(n, dtype=bool)].min()
    assert (delta >= base_min) == (fraction >= 2 * n**2 / (n**2 + k))
    assert cert.errors["max_rel"] <= 1e-12
    assert verify_certificate(cert, 1e-12).passed


def test_final_distance_identity():
    # chord sums over the concatenated torus split into the two parts
    pts = generate_points("random", 4, seed=2)
    dec = schoenberg_decompose(squared_distances(pts))
    cert = embed_simplex(pts)
    de = product_embed(dec.base, cert.parameters["delta"])
    n = len(pts)
    k = len(de.torus.factors)
    for i, j in combinations(range(n), 2):
        pi, pj = cert.assignment[i].indices, cert.assignment[j].indices
        front = chord_sq_sum(cert.torus.factors[:k], pi[:k], pj[:k])
        back = chord_sq_sum(cert.torus.factors[k:], pi[k:], pj[k:])
        corr_sq = de.per_pair_error[i, j] + dec.alpha_sq
        assert back == pytest.approx(corr_sq, rel=1e-10)
        d2 = squared_distances(pts)[i, j]
        assert front + back == pytest.approx(d2, rel=1e-10)


def test_correction_matrix_is_almost_regular_every_run():
    rng = np.random.default_rng(55)
    for seed in range(8):
        n = int(rng.integers(2, 7))
        pts = generate_points("random", n, seed=seed)
        dec = schoenberg_decompose(squared_distances(pts))
        de = product_embed(dec.base, dec.alpha_sq / n**2)
        corr_sq = de.per_pair_error + dec.alpha_sq
        np.fill_diagonal(corr_sq, 0.0)
        valid, margin = check_almost_regular(corr_sq)
        assert valid and margin > 0


def test_correction_checked_once_per_embed(monkeypatch):
    # the embed plans the correction it has just built on the trusted entry:
    # it never validates that matrix again, and takes its deficits once
    from torus_embed import almost_regular

    validations, plans = [], []
    check, plan_of = almost_regular.check_squared_distances, almost_regular._realization_plan
    deficits = almost_regular._deficits

    def counted_check(sq, *args):
        validations.append(sq)
        return check(sq, *args)

    def counted_deficits(c):
        plans.append(c)
        return deficits(c)

    monkeypatch.setattr(almost_regular, "check_squared_distances", counted_check)
    monkeypatch.setattr(almost_regular, "_deficits", counted_deficits)
    cert = embed_simplex(generate_points("random", 6, seed=4))
    assert validations == []
    (corr_sq,) = plans
    assert cert.parameters["correction_slack"] == plan_of(corr_sq).slack
    # the public entry is the trusted one plus the check, so both agree
    assert realization_plan(corr_sq) == plan_of(corr_sq)
    assert len(validations) == 1


def test_input_read_once_and_decomposed_once_per_embed(monkeypatch):
    # one pass of squared_distances over the input, and one eigendecomposition
    # for the simplex rules, alpha and the base
    from torus_embed import geometry, pipeline

    pts = generate_points("random", 6, seed=4)
    calls = {"input": 0, "eigh": 0, "eigvalsh": 0}

    def counted_distances(points):
        calls["input"] += np.array_equal(np.asarray(points), pts)
        return squared_distances(points)

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    monkeypatch.setattr(geometry, "squared_distances", counted_distances)
    monkeypatch.setattr(pipeline, "squared_distances", counted_distances)
    counted("eigvalsh")
    counted("eigh")
    embed_simplex(pts)
    assert calls == {"input": 1, "eigh": 1, "eigvalsh": 0}


def test_correction_not_almost_regular_is_verification_failure(monkeypatch):
    from torus_embed import pipeline

    def skewed(points, delta):
        # two of three pairs short by 0.9 alpha^2 each: still positive, but
        # the deficits exceed the largest entry's square
        de = product_embed(points, delta)
        alpha_sq = 9 * delta  # the proven grid's delta = alpha^2 / n^2
        err = np.zeros((3, 3))
        err[0, 1] = err[1, 0] = err[0, 2] = err[2, 0] = -0.9 * alpha_sq
        return dataclasses.replace(de, per_pair_error=err)

    monkeypatch.setattr(pipeline, "product_embed", skewed)
    with pytest.raises(VerificationFailed, match=r"^correction matrix is not almost regular \("):
        embed_simplex(regular_simplex(3, 1.0))


@pytest.mark.parametrize("shortfall", [1.0, 1.5], ids=["zero", "negative"])
def test_correction_losing_positivity_is_verification_failure(monkeypatch, shortfall):
    from torus_embed import pipeline

    def short(points, delta):
        # one pair's error takes the whole increment alpha^2, or more: the
        # plan refuses the entry, and the embed reports it as a failed build
        de = product_embed(points, delta)
        err = de.per_pair_error.copy()
        err[0, 1] = err[1, 0] = -shortfall * 9 * delta
        return dataclasses.replace(de, per_pair_error=err)

    monkeypatch.setattr(pipeline, "product_embed", short)
    with pytest.raises(VerificationFailed, match=r"^correction matrix is not almost regular \("):
        embed_simplex(regular_simplex(3, 1.0))


def test_base_error_at_budget_is_verification_failure(monkeypatch):
    from torus_embed import pipeline

    def over_budget(points, delta):
        # one pair misses by the whole budget: the correction is still
        # almost regular, but the base has broken the bound it is built on
        de = product_embed(points, delta)
        err = de.per_pair_error.copy()
        err[0, 1] = err[1, 0] = de.delta
        return dataclasses.replace(de, per_pair_error=err)

    monkeypatch.setattr(pipeline, "product_embed", over_budget)
    with pytest.raises(VerificationFailed, match=r"^base embedding error .* is not below its budget"):
        embed_simplex(regular_simplex(3, 1.0))


def test_certificate_records_the_scale_exponent():
    pts = generate_points("random", 5, seed=3)
    e = embed_simplex(pts).parameters["scale_exponent"]
    assert isinstance(e, int)
    assert embed_simplex(np.ldexp(pts, 40)).parameters["scale_exponent"] == e + 40


def test_verify_tampered_index_fails():
    cert = embed_simplex(regular_simplex(3, 1.0))
    assert verify_certificate(cert, 1e-8).passed
    # bump point 1's index in the slot of the pair cut {0, 2}, the second
    # after the base, where points 0 and 2 carry a 1: the pair (0, 1) loses
    # one chord and the pair (1, 2) gains one
    k, cuts = correction_cuts(cert)
    k += 1
    assert cuts[1] == [0, 2]
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
    # the n = 8 uniform-order certificate runs the kernel's all-big-order path
    configs = [(n, embed_simplex) for n in (2, 3, 5, 8, 24)] + [(8, uniform_m_certificate)]
    for seed, (n, certify) in enumerate(configs):
        cert = certify(generate_points("random", n, seed=seed))
        rng = np.random.default_rng(seed)
        for _ in range(4 if n < 24 else 1):
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


@functools.cache
def small_certificate(n, seed):
    return embed_simplex(generate_points("random", n, seed=seed))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2),
    spot=st.integers(0, 10**6),
    base=st.booleans(),
    move=st.sampled_from([-2, -1, 1, 2, "half-turn"]),
    ulps=st.integers(1, 4),
    down=st.booleans(),
)
def test_verify_matches_reference_on_single_mutations(n, seed, spot, base, move, ulps, down):
    # one mutation at a random spot of a small certificate: a base index
    # moved by +-1 or +-2 steps or a half-turn (within range(m)), or a cut
    # radius moved by 1-4 ulps; the verifier's report is the per-pair
    # loop's, bit for bit, whether it passes or not
    cert = small_certificate(n, seed)
    factors = list(cert.torus.factors)
    rows = [list(p.indices) for p in cert.assignment]
    if base:
        i, k = spot % n, spot // n % (n - 1)
        m = factors[k].m
        rows[i][k] = (rows[i][k] + (m // 2 if move == "half-turn" else move)) % m
    else:
        k = n - 1 + spot % (len(factors) - n + 1)
        r = factors[k].r
        for _ in range(ulps):
            r = math.nextafter(r, 0.0 if down else math.inf)
        factors[k] = PolygonSpec(factors[k].m, r)
    mutated = dataclasses.replace(
        cert,
        torus=TorusSpec(tuple(factors)),
        assignment=tuple(TorusPoint(tuple(row)) for row in rows),
    )
    got = verify_certificate(mutated)
    assert repr(got) == repr(reference_report(mutated, DEFAULT_ACCEPT_TOL))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3, 6]), seed=st.integers(0, 2), k=st.integers(-1000, 1023))
@example(n=6, seed=1, k=-1000).via("the smallest squares")
@example(n=6, seed=1, k=1023).via("the largest coordinates")
@example(n=6, seed=1, k=-511).via("just below the normal squares")
@example(n=6, seed=1, k=510).via("just past a finite sum")
def test_embed_is_covariant_under_powers_of_two(n, seed, k):
    # points times 2^k whose squared distances leave the normal doubles are
    # built at the scale e that puts the largest in [1, 4): the certificate
    # of the points times 2^(k - e), at scale 0, but for its scale
    points = np.ldexp(generate_points("random", n, seed=seed), k)
    cert = embed_simplex(points)
    if cert.scale == 0:
        return
    unit = embed_simplex(np.ldexp(points, -cert.scale))
    assert unit.scale == 0
    assert 1.0 <= float(unit.input_sq.max()) < 4.0
    assert dumps_certificate(dataclasses.replace(cert, scale=0)) == dumps_certificate(unit)


def correction_tampers(cert):
    """Edits of the correction's columns, each named: a 0 turned to 2 on a
    triangle (in range, so the reader takes it), a cut member moved, two cut
    radii swapped, and two assignment rows swapped."""
    factors = list(cert.torus.factors)
    rows = [list(p.indices) for p in cert.assignment]
    k, cuts = correction_cuts(cert)
    outside = next(i for i in range(len(rows)) if i not in cuts[0])
    assert factors[k].r != factors[k + 1].r

    def tampered(edit):
        fs, rs = list(factors), [list(r) for r in rows]
        edit(fs, rs)
        torus = TorusSpec(tuple(fs))
        assignment = tuple(TorusPoint(tuple(r)) for r in rs)
        return dataclasses.replace(cert, torus=torus, assignment=assignment)

    def zero_to_two(fs, rs):
        rs[outside][k] = 2

    def member_moved(fs, rs):
        rs[cuts[0][0]][k], rs[outside][k] = 0, 1

    def radii_swapped(fs, rs):
        fs[k], fs[k + 1] = (
            dataclasses.replace(fs[k], r=fs[k + 1].r),
            dataclasses.replace(fs[k + 1], r=fs[k].r),
        )

    def rows_swapped(fs, rs):
        rs[0], rs[1] = rs[1], rs[0]

    edits = (zero_to_two, member_moved, radii_swapped, rows_swapped)
    return {e.__name__: tampered(e) for e in edits}


@pytest.mark.parametrize("n", [6, 16])
def test_verify_rejects_tampered_correction_columns(n):
    # the correction's pair layout, as embed writes it, and every edit below
    # leaves that layout, yet the verdict is the per-pair loop's
    cert = embed_simplex(generate_points("random", n, seed=1))
    assert verify_certificate(cert) == reference_report(cert, DEFAULT_ACCEPT_TOL)
    for name, tampered in correction_tampers(cert).items():
        report = verify_certificate(tampered)
        assert not report.passed, name
        assert report == reference_report(tampered, DEFAULT_ACCEPT_TOL), name


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


@pytest.mark.parametrize(
    "tol",
    [math.nan, -1.0, -1e-300, math.inf, None, "abc", [1e-8], 10**400],
    ids=["nan", "-1.0", "-1e-300", "inf", "none", "text", "list", "int-past-double"],
)
def test_verify_rejects_bad_tolerance(tol):
    cert = embed_simplex(regular_simplex(3, 1.0))
    with pytest.raises(InputError, match="tolerance must be a finite number"):
        verify_certificate(cert, tol)


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
