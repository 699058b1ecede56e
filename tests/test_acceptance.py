"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import random
import time
from itertools import combinations

import numpy as np
from mpmath import mp, mpf

from torus_embed import (
    EmbeddingCertificate,
    NotEuclidean,
    NotSimplex,
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    embed_almost_regular,
    embed_regular_simplex,
    embed_simplex,
    generate_points,
    is_simplex,
    pairwise_sq,
    product_embed,
    realization_plan,
    regular_simplex,
    schoenberg_decompose,
    shift,
    squared_distances,
    verify_certificate,
)
from torus_embed.geometry import centered_gram, simplex_spectrum


def spectrum_accepts(sq):
    """True iff the Euclidean and rank rules accept the squared-distance
    matrix: the points it measures are a simplex."""
    try:
        simplex_spectrum(centered_gram(sq))
    except (NotEuclidean, NotSimplex):
        return False
    return True


def report(num, name, ok, elapsed=None, limit=None, detail=""):
    stamp = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s, limit {limit:g}s)" if limit is not None else ""
    print(f"[criterion {num}] {name}: {stamp}{timing} {detail}".rstrip())
    assert ok, f"criterion {num} failed {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"


def materialize(t, p):
    """Cartesian coordinates of a torus vertex in R^(2 * len(factors)), the
    vertex angle 2 pi (index / m) with the ratio formed first: lossy once
    adjacent vertices are closer than float spacing, so only small orders
    are checked against it."""
    coords = []
    for f, idx in zip(t.factors, p.indices):
        theta = math.tau * ((idx % f.m) / f.m)
        coords += [f.r * math.cos(theta), f.r * math.sin(theta)]
    return np.array(coords)


def random_healthy_matrix(rng, n):
    """Almost-regular squared-distance matrix whose pair cuts all keep
    weights above a few percent of the largest entry, so every factor is
    metrically significant."""
    cmax = float(rng.uniform(0.5, 2.0)) ** 2
    pairs = n * (n - 1) // 2
    u = np.zeros(pairs)
    if pairs > 1:
        raw = rng.uniform(0.5, 1.0, pairs - 1)
        u[1:] = raw * (float(rng.uniform(0.5, 0.8)) / raw.sum())
    c = np.zeros((n, n))
    for idx, (i, j) in enumerate(combinations(range(n), 2)):
        c[i, j] = c[j, i] = cmax * (1.0 - u[idx])
    return c


def test_criterion_1_regular_simplex_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        for m in (2, 3, 4, 6, 12):
            for side in (0.1, 1.0, 10.0):
                spec, points = embed_regular_simplex(n, side, m)
                for i, j in combinations(range(n), 2):
                    d = math.sqrt(pairwise_sq(spec, (points[i], points[j]))[0, 1])
                    worst = max(worst, abs(d - side) / side)
    elapsed = time.perf_counter() - start
    report(1, "regular-simplex exactness", worst <= 1e-12, elapsed, 1.0,
           f"max rel dev {worst:.2e}")


def test_criterion_2_almost_regular_realization():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    all_simplices = True
    for trial in range(200):
        n = int(rng.integers(2, 8))
        cmax = float(rng.uniform(0.5, 2.0)) ** 2
        pairs = n * (n - 1) // 2
        u = np.zeros(pairs)
        if pairs > 1:
            raw = rng.uniform(0.0, 1.0, pairs - 1)
            u[1:] = raw * (float(rng.uniform(0.1, 0.9)) / max(raw.sum(), 1e-300))
        c = np.zeros((n, n))
        for idx, (i, j) in enumerate(combinations(range(n), 2)):
            c[i, j] = c[j, i] = cmax * (1.0 - u[idx])
        m = (3, 4, 6, 12)[trial % 4]
        d2 = pairwise_sq(*embed_almost_regular(realization_plan(c), m))
        off = ~np.eye(n, dtype=bool)
        worst = max(worst, float(np.abs(d2[off] - c[off]).max() / cmax))
        all_simplices = all_simplices and spectrum_accepts(d2)
    elapsed = time.perf_counter() - start
    report(2, "almost-regular realization identity",
           worst <= 1e-10 and all_simplices, elapsed, 5.0,
           f"max rel dev {worst:.2e}, affinely independent: {all_simplices}")


def test_criterion_3_delta_embedding_guarantee():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    delta = 1e-2
    ok = True
    max_bits = 0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        npts = int(rng.integers(2, 7))
        # distinct multiples of 1/16 per coordinate: min gap 0.0625 >= 0.05
        cols = [rng.choice(17, npts, replace=False) / 16.0 for _ in range(k)]
        pts = np.stack(cols, axis=1)
        de = product_embed(pts, delta)
        max_bits = max(max_bits, de.params.m.bit_length())
        off = ~np.eye(npts, dtype=bool)
        ok = ok and float(np.abs(de.per_pair_error[off]).max()) < delta
        # product_embed keeps every axis the input does not hold constant
        kept = [c for c in range(k) if np.any(pts[:, c] != pts[0, c])]
        assert len(kept) == len(de.torus.factors)
        budget = de.delta / len(kept)
        n0, n, e, m, r = de.params.n0, de.params.n, de.params.e, de.params.m, de.params.r
        with mp.workprec(200):
            # the snapping and curvature terms of the delta_embed docstring,
            # each below its bound, at the arc L = k * 2 pi r / m of a step k
            h, unit, slack = mpf(n0) / n**2, mpf(4) ** e, 1 + mpf(2) ** -44
            snap_cap = slack * h * (2 * n0 + h) * unit + mpf(budget) / 128
            curve_cap = slack * (n0 + h) ** 4 * mp.pi**2 / (3 * mpf(n0) ** 2 * n**2) * unit
            for pos, c in enumerate(kept):
                vals = pts[:, c]  # multiples of 1/16: every gap is exact
                for (ia, xa), (ib, xb) in combinations(enumerate(vals), 2):
                    ja = de.assignment[ia].indices[pos]
                    jb = de.assignment[ib].indices[pos]
                    ok = ok and 0 <= ja <= n * n < m
                    k = abs(ja - jb)
                    arc_sq = (k * 2 * mp.pi * mpf(r) / m) ** 2
                    chord_sq = (2 * mpf(r) * mp.sin(mp.pi * k / m)) ** 2
                    ok = ok and abs((mpf(xa) - mpf(xb)) ** 2 - arc_sq) < snap_cap
                    ok = ok and 0 <= arc_sq - chord_sq < curve_cap
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(3, "delta-embedding guarantee", ok, elapsed, 5.0,
           f"largest polygon order: {max_bits} bits")


def test_criterion_4_schoenberg_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pts = rng.uniform(-1.0, 1.0, (n, n - 1))
        if not is_simplex(pts):
            continue
        d2 = squared_distances(pts)
        dec = schoenberg_decompose(d2)
        rebuilt = squared_distances(dec.base) + dec.alpha_sq
        np.fill_diagonal(rebuilt, 0.0)
        worst = max(worst, float(np.abs(rebuilt - d2).max() / d2.max()))
    side = 1.0
    dec = schoenberg_decompose(squared_distances(regular_simplex(6, side)))
    alpha_dev = abs(dec.alpha_sq - side**2 / 2) / (side**2 / 2)
    elapsed = time.perf_counter() - start
    report(4, "expansion decomposition roundtrip",
           worst <= 1e-10 and alpha_dev <= 1e-10, elapsed, 3.0,
           f"max rel dev {worst:.2e}, regular-input alpha^2 dev {alpha_dev:.2e}")


def test_criterion_5_end_to_end_theorem_check():
    start = time.perf_counter()
    kinds = ("regular", "random", "perturbed")
    ok = True
    worst = 0.0
    count = 0
    seed = 0
    while count < 50:
        kind = kinds[count % 3]
        n = 2 + count % 6  # n in 2..7
        seed += 1
        pts = generate_points(kind, n, seed=seed, noise=0.02)
        cert = embed_simplex(pts)
        rep = verify_certificate(cert, 1e-8)
        ok = ok and rep.passed and cert.parameters["correction_slack"] > 0
        worst = max(worst, rep.max_rel_error)
        count += 1
    elapsed = time.perf_counter() - start
    report(5, "end-to-end theorem check", ok, elapsed, 30.0,
           f"50 certificates, max rel error {worst:.2e}")


def test_criterion_6_shift_invariance_bitwise():
    rng = random.Random(6)
    ok = True
    for _ in range(1000):
        k = rng.randint(1, 4)
        factors = tuple(
            PolygonSpec(rng.randrange(2, 10 ** rng.randint(1, 24)) + 2,
                        rng.uniform(0.01, 1000.0))
            for _ in range(k)
        )
        t = TorusSpec(factors)
        p = TorusPoint(tuple(rng.randrange(f.m) for f in factors))
        q = TorusPoint(tuple(rng.randrange(f.m) for f in factors))
        offs = tuple(rng.randrange(-(10**15), 10**15) for _ in factors)
        before = pairwise_sq(t, (p, q))[0, 1]
        after = pairwise_sq(t, (shift(t, p, offs), shift(t, q, offs)))[0, 1]
        ok = ok and before == after
    report(6, "shift invariance (bit-for-bit)", ok, detail="1000 random triples")


def test_criterion_7_tamper_detection():
    rng = np.random.default_rng(7)
    flipped = 0
    trials = 100
    for trial in range(trials):
        if trial % 2 == 0:
            n = int(rng.integers(2, 7))
            m = int(rng.choice([4, 5, 6, 8, 12]))
            side = float(rng.uniform(0.3, 3.0))
            spec, points = embed_regular_simplex(n, side, m)
            input_sq = side**2 * (np.ones((n, n)) - np.eye(n))
        else:
            n = int(rng.integers(3, 7))
            m = int(rng.choice([4, 6, 12]))
            input_sq = random_healthy_matrix(rng, n)
            spec, points = embed_almost_regular(realization_plan(input_sq), m)
        cert = EmbeddingCertificate(input_sq, spec, tuple(points), {}, {}, {})
        assert verify_certificate(cert, 1e-8).passed
        s = int(rng.integers(0, n))
        slot = int(rng.integers(0, len(spec.factors)))
        indices = list(points[s].indices)
        indices[slot] = (indices[slot] + 1) % spec.factors[slot].m
        tampered = tuple(
            TorusPoint(tuple(indices)) if i == s else points[i] for i in range(n)
        )
        bad = EmbeddingCertificate(input_sq, spec, tampered, {}, {}, {})
        if not verify_certificate(bad, 1e-8).passed:
            flipped += 1
    report(7, "tamper detection", flipped == trials,
           detail=f"{flipped}/{trials} single-index corruptions detected")


def test_criterion_8_materialization_consistency():
    certs = []
    # two-point inputs whose snapping polygon stays coarse: the budget is a
    # fixed fraction of the squared scale, so these gaps keep the base order
    # in the hundreds
    for d in (1.0, 2.7, 3.3):
        certs.append(embed_simplex([[0.0], [d]]))
    # direct small-order constructions, wrapped as certificates
    spec, points = embed_regular_simplex(4, 1.0, 12)
    certs.append(
        EmbeddingCertificate(np.ones((4, 4)) - np.eye(4), spec, tuple(points), {}, {}, {})
    )
    c = random_healthy_matrix(np.random.default_rng(8), 5)
    spec, points = embed_almost_regular(realization_plan(c), 17)
    certs.append(EmbeddingCertificate(c, spec, tuple(points), {}, {}, {}))

    ok = True
    worst = 0.0
    for cert in certs:
        assert verify_certificate(cert, 1e-8).passed
        orders = [f.m for f in cert.torus.factors]
        ok = ok and max(orders) <= 10**4
        pts = [materialize(cert.torus, p) for p in cert.assignment]
        for i, j in combinations(range(len(pts)), 2):
            direct = float(np.linalg.norm(pts[i] - pts[j]))
            pair = (cert.assignment[i], cert.assignment[j])
            via_chords = math.sqrt(pairwise_sq(cert.torus, pair)[0, 1])
            if via_chords > 0:
                worst = max(worst, abs(direct - via_chords) / via_chords)
    report(8, "materialization consistency", ok and worst <= 1e-12,
           detail=f"max rel dev {worst:.2e}, all polygon orders <= 1e4: {ok}")
