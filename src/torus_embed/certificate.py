"""Embedding certificates: a self-contained record of an input metric, a
torus, and a vertex assignment, plus canonical JSON (de)serialization.

Polygon orders, vertex indices and grid parameters serialize as decimal
strings so they survive arbitrary precision across JSON parsers. Floats are
written with 17 significant digits; together with a fixed field order this
makes parse-then-reserialize byte identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidCertificate
from .torus import PolygonSpec, TorusPoint, TorusSpec

VERSION = "0.2.0"


@dataclass
class EmbeddingCertificate:
    """Everything needed to re-check an embedding with the chord formula alone.

    parameters/meta are construction provenance; verification never reads
    them.
    """

    input_sq: np.ndarray
    torus: TorusSpec
    assignment: tuple[TorusPoint, ...]
    parameters: dict
    errors: dict
    meta: dict


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in certificate: {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0 so reparsing cannot change the bytes
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """Deterministic compact JSON: dict order preserved, floats at 17 digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValueError(f"non-string key in certificate object: {k!r}")
            items.append(json.dumps(k) + ":" + dumps_canonical(v))
        return "{" + ",".join(items) + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__} canonically")


def certificate_to_obj(cert: EmbeddingCertificate) -> dict:
    return {
        "input": {
            "squared_distances": [[float(v) for v in row] for row in cert.input_sq]
        },
        "torus": {
            "factors": [{"m": str(f.m), "r": float(f.r)} for f in cert.torus.factors]
        },
        "assignment": [[str(i) for i in p.indices] for p in cert.assignment],
        "parameters": cert.parameters,
        "errors": cert.errors,
        "meta": cert.meta,
    }


def _parse_big_int(text, field: str) -> int:
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    if not isinstance(text, str):
        raise InvalidCertificate(f"{field} must be a decimal string", field=field)
    try:
        return int(text, 10)
    except ValueError:
        raise InvalidCertificate(
            f"{field} is not a decimal integer: {text!r}", field=field
        ) from None


def certificate_from_obj(obj) -> EmbeddingCertificate:
    if not isinstance(obj, dict):
        raise InvalidCertificate("certificate must be a JSON object", field="")
    try:
        matrix = obj["input"]["squared_distances"]
    except (KeyError, TypeError):
        raise InvalidCertificate(
            "missing input.squared_distances", field="input.squared_distances"
        ) from None
    try:
        input_sq = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError):
        raise InvalidCertificate(
            "input.squared_distances is not a numeric matrix",
            field="input.squared_distances",
        ) from None
    if input_sq.ndim != 2 or input_sq.shape[0] != input_sq.shape[1]:
        raise InvalidCertificate(
            "input.squared_distances must be square", field="input.squared_distances"
        )

    raw_factors = obj.get("torus", {})
    raw_factors = raw_factors.get("factors") if isinstance(raw_factors, dict) else None
    if not isinstance(raw_factors, list) or not raw_factors:
        raise InvalidCertificate(
            "torus.factors must be a nonempty list", field="torus.factors"
        )
    factors = []
    for i, f in enumerate(raw_factors):
        field = f"torus.factors[{i}]"
        if not isinstance(f, dict) or "m" not in f or "r" not in f:
            raise InvalidCertificate(f"{field} needs m and r", field=field)
        m = _parse_big_int(f["m"], field + ".m")
        try:
            factors.append(PolygonSpec(m, float(f["r"])))
        except (InputError, TypeError, ValueError) as exc:
            raise InvalidCertificate(f"{field}: {exc}", field=field) from None

    raw_points = obj.get("assignment")
    if not isinstance(raw_points, list):
        raise InvalidCertificate("assignment must be a list", field="assignment")
    assignment = []
    for i, row in enumerate(raw_points):
        field = f"assignment[{i}]"
        if not isinstance(row, list):
            raise InvalidCertificate(f"{field} must be a list", field=field)
        assignment.append(
            TorusPoint(tuple(_parse_big_int(v, f"{field}[{k}]") for k, v in enumerate(row)))
        )

    def _dict_field(name):
        val = obj.get(name, {})
        if not isinstance(val, dict):
            raise InvalidCertificate(f"{name} must be an object", field=name)
        return val

    return EmbeddingCertificate(
        input_sq=input_sq,
        torus=TorusSpec(tuple(factors)),
        assignment=tuple(assignment),
        parameters=_dict_field("parameters"),
        errors=_dict_field("errors"),
        meta=_dict_field("meta"),
    )


def dumps_certificate(cert: EmbeddingCertificate) -> str:
    return dumps_canonical(certificate_to_obj(cert))


def loads_certificate(text: str) -> EmbeddingCertificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidCertificate(f"not valid JSON: {exc}", field="") from None
    except RecursionError:
        raise InvalidCertificate("JSON nested too deeply to read", field="") from None
    return certificate_from_obj(obj)


def save_certificate(cert: EmbeddingCertificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_certificate(cert))
        fh.write("\n")


def load_certificate(path) -> EmbeddingCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidCertificate(f"not UTF-8 text: {exc}", field="") from None
    return loads_certificate(text)
