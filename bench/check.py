"""Benchmark-side correctness checks, independent of the package's verifier.

The certificate file is parsed with the standard-library JSON reader and the
chord metric is re-evaluated here: a numpy path for polygon orders below
2**53 and exact big-integer step ratios for the rest. The package is used
only for the canonical round trip, which is its own contract.
"""

from __future__ import annotations

import json
import math

import numpy as np

ACCEPT_TOL = 1e-8
# the certificate stores the input metric at 17 significant digits
INPUT_RTOL = 1e-12
_EXACT_FLOAT_M = 2**53


def squared_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sum(diff * diff, axis=2)


def parse(text: str) -> dict:
    """Certificate fields as plain Python values: m and indices as ints."""
    obj = json.loads(text)
    factors = obj["torus"]["factors"]
    return {
        "input_sq": np.asarray(obj["input"]["squared_distances"], dtype=float),
        "m": [int(f["m"]) for f in factors],
        "r": [float(f["r"]) for f in factors],
        "assignment": [[int(v) for v in row] for row in obj["assignment"]],
        "parameters": obj.get("parameters", {}),
    }


def torus_squared_distances(cert: dict) -> np.ndarray:
    """Pairwise squared chord-metric distances of the assigned vertices."""
    ms, rs, rows = cert["m"], cert["r"], cert["assignment"]
    n = len(rows)
    for row in rows:
        if len(row) != len(ms):
            raise ValueError("assignment row length differs from the factor count")
        if any(not 0 <= v < m for v, m in zip(row, ms)):
            raise ValueError("vertex index out of range")
    iu, ju = np.triu_indices(n, k=1)
    total = np.zeros(len(iu))
    small = [k for k, m in enumerate(ms) if m < _EXACT_FLOAT_M]
    if small:
        a = np.array([[row[k] for k in small] for row in rows], dtype=np.int64)
        m = np.array([ms[k] for k in small], dtype=np.int64)
        r = np.array([rs[k] for k in small])
        d = (a[iu] - a[ju]) % m
        k = np.minimum(d, m - d)
        c = 2.0 * r * np.sin(np.pi * (k / m))
        total += np.sum(c * c, axis=1)
    for k, m in enumerate(ms):
        if m >= _EXACT_FLOAT_M:
            for p, (i, j) in enumerate(zip(iu, ju)):
                step = (rows[i][k] - rows[j][k]) % m
                step = min(step, m - step)
                c = 2.0 * rs[k] * math.sin(math.pi * (step / m))
                total[p] += c * c
    out = np.zeros((n, n))
    out[iu, ju] = out[ju, iu] = total
    return out


def max_rel_error(cert: dict) -> float:
    """Largest relative squared-distance error against the stored input."""
    target = cert["input_sq"]
    n = target.shape[0]
    if len(cert["assignment"]) != n:
        raise ValueError("assignment and input differ in point count")
    iu = np.triu_indices(n, k=1)
    err = np.abs(torus_squared_distances(cert)[iu] - target[iu])
    return float(np.max(err / target[iu]))


def input_matches(cert: dict, points: np.ndarray) -> bool:
    """The certificate's input metric is the metric of the points we sent."""
    want = squared_distances(points)
    got = cert["input_sq"]
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= INPUT_RTOL * np.max(want)))


def round_trips(text: str, loads, dumps) -> bool:
    """Parsing and re-serializing the file through the package is byte identical."""
    return dumps(loads(text)) + "\n" == text


def is_half_turn_tamper(original: dict, tampered: dict) -> bool:
    """Exactly one index differs, in a base factor, by half of its order."""
    if original["m"] != tampered["m"] or original["r"] != tampered["r"]:
        return False
    base_m = int(original["parameters"]["m"])
    diffs = [
        (k, a, b)
        for row_a, row_b in zip(original["assignment"], tampered["assignment"])
        for k, (a, b) in enumerate(zip(row_a, row_b))
        if a != b
    ]
    if len(diffs) != 1:
        return False
    k, a, b = diffs[0]
    m = original["m"][k]
    return m == base_m and (b - a) % m == m // 2
