"""Embedding certificates: a self-contained record of an input metric, a
torus, and a vertex assignment, plus canonical JSON (de)serialization and
the verifier. This module owns what a valid certificate is: the reader,
the writer and `verify_certificate` hold it to one set of rules, and
`pipeline` only builds certificates.

Polygon orders, vertex indices and grid parameters serialize as decimal
strings so they survive arbitrary precision across JSON parsers. Floats are
written with 17 significant digits; together with a fixed field order this
makes parse-then-reserialize byte identical.

The codec follows the certificate's fixed schema rather than walking a
generic JSON tree. The writer emits the top-level fields in order, each
input row, the factor list and each assignment row through one % template
(`%.17g` for a float, the same text as `_format_float`, and `%d` for an
order `m` or a vertex index, its decimal string). Only the
provenance objects `parameters`, `errors` and `meta`, which the verifier
never reads, go through `dumps_canonical`. Both the reader and the writer
hold them to one rule, `_check_provenance`: every value is a string, a
boolean, a number that is a finite double, or an array of these nested at
most two deep. So a NaN, an integer past the double range, a null, an
object or a deeper array is refused by its field name, and every
certificate that is written reads back to the same bytes.

The reader checks each assignment row's type once and reads the whole row
in bulk when every entry is a canonical decimal string (`0`, `[1-9][0-9]*`
or `-[1-9][0-9]*`, what `str` writes for an int): the row's distinct
strings joined by commas are checked to hold only digits, commas and minus
signs, and then read by the C JSON decoder, whose integer grammar is the
canonical one but for `-0`; the row is then mapped through a dict of its
own distinct strings, most of a row being "0" and "1".
Any other row, say one holding JSON integers (also accepted), goes entry by
entry, so that an error names the first bad entry in its `field`; a string
in any other form is refused. Polygon orders are read the same way, and the
factors are built by `PolygonSpec` in one pass; only if that fails are they
walked one at a time, to name the first bad one. Indices are not
range-checked by the reader; `verify_certificate` does that. Each
assignment row is dropped from the parsed JSON once read, to bound the
reader's peak memory. The input matrix and the radii must be JSON numbers
that are finite doubles: a string such as "0.5" or a boolean, which numpy
or `float` would read, is refused, and so are the NaN, Infinity and 1e400
that Python's JSON reads. The CLI reads its `embed` input through the same
`parse_json` and `read_number_matrix`.

`input.scale`, beside the matrix, is the power of two e of the units: the
input is in units of 4^e and the radii in units of 2^e, so the verifier's
check, in those units, is the real check scaled exactly by 4^e. It is
written only when it is not 0, so a certificate at scale 0 has the bytes it
had before the field existed; the reader refuses a written 0, and all three
refuse a scale that is not an int of magnitude below 2**53.

An in-memory certificate is held to the reader's rules too: the writer and
the verifier refuse an input matrix, a torus or an assignment that the
reader would not return (`_check_fields`), naming the field, so that a
certificate either writes bytes that read back or is refused. The verifier
then holds what the reader lets through to the metric's rules: the input
must be a squared-distance matrix, with one assignment row per point, one
index per factor and every index in range. The ranges are found by the chord
kernel's fold (`torus._pairwise_sq` reports whether every index lies in
range(m), from the int64 indices it converts anyway), and only when it
cannot show them are the indices walked, to name the first bad one in
row-major order. It converts the input once and measures every pair
against that array's upper triangle as given.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain

import numpy as np

from .errors import InputError, InvalidCertificate, check_instance, check_real, check_sequence
from .geometry import _finite_array, check_squared_distances
from .torus import PolygonSpec, TorusPoint, TorusSpec, _pairwise_sq

VERSION = "0.16.0"

DEFAULT_ACCEPT_TOL = 1e-8

# the characters of canonical decimal integers joined by commas
_DECIMAL_ROW_CHARS = re.compile(r"[0-9,-]*")
# one canonical decimal integer
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


@dataclass
class EmbeddingCertificate:
    """Everything needed to re-check an embedding with the chord formula alone.

    parameters/meta are construction provenance; verification never reads
    them. The input is in units of 4^scale and the radii in units of
    2^scale, so the check is the same in those units.
    """

    input_sq: np.ndarray
    torus: TorusSpec
    assignment: tuple[TorusPoint, ...]
    parameters: dict
    errors: dict
    meta: dict
    scale: int = 0


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in certificate: {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0 so reparsing cannot change the bytes
    return format(float(x), ".17g")


@lru_cache(maxsize=64)
def _row_template(item: str, count: int) -> str:
    """The % template of a JSON array of `count` items: the writer formats
    each row with one % operation. For a finite float, `%.17g` writes what
    `_format_float` does, and for an int `%d` writes what `str` does."""
    return "[" + ",".join([item] * count) + "]"


def dumps_canonical(obj) -> str:
    """Deterministic compact JSON: dict order preserved, floats at 17 digits."""
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise ValueError(f"non-string key in certificate object: {list(obj)!r}")
        members = (json.dumps(k) + ":" + dumps_canonical(v) for k, v in obj.items())
        return "{" + ",".join(members) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(dumps_canonical, obj)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    raise ValueError(f"cannot serialize {type(obj).__name__} canonically")


def _check_provenance(name: str, section) -> dict:
    """`section`, the certificate's `parameters`, `errors` or `meta`, after
    checking the provenance rule: an object with string keys whose every
    value is a string, a boolean, a number that is a finite double, or an
    array of these nested at most two deep. Else raises InvalidCertificate
    (a ValueError) naming the section, for a key, or the first value that
    breaks it, say `parameters.alpha[0][0]`."""
    if not isinstance(section, dict):
        raise InvalidCertificate(f"{name} must be an object", field=name)
    for key, value in section.items():
        if not isinstance(key, str):
            raise InvalidCertificate(
                f"{name} must have string keys, got {type(key).__name__}", field=name
            )
        _check_provenance_value(f"{name}.{key}", value, 0)
    return section


def _check_provenance_value(field: str, value, depth: int) -> None:
    if isinstance(value, (list, tuple)) and depth < 2:
        for k, v in enumerate(value):
            _check_provenance_value(f"{field}[{k}]", v, depth + 1)
        return
    try:
        if isinstance(value, (str, bool)) or (
            isinstance(value, (int, float)) and math.isfinite(value)
        ):
            return
    except OverflowError:  # an int past the largest double
        pass
    raise InvalidCertificate(
        f"{field} must be a string, a boolean, a finite number, or an array of these "
        "nested at most two deep",
        field=field,
    )


def _check_fields(cert: EmbeddingCertificate) -> np.ndarray:
    """The certificate's input matrix as a float array, after holding the
    fields that the verifier reads to the reader's rules: a nonempty square
    input matrix of finite numbers, a scale (`_check_scale`), a TorusSpec,
    and a tuple or list of TorusPoints. Else raises InvalidCertificate (a
    ValueError) naming the field, `input.squared_distances`, `input.scale`,
    `torus` or `assignment`."""
    field = "input.squared_distances"
    try:
        input_sq = _finite_array(cert.input_sq, field, square=True)
        _check_scale(cert.scale)
        field = "torus"
        check_instance(cert.torus, TorusSpec, field)
        field = "assignment"
        check_sequence(cert.assignment, field, TorusPoint)
    except InputError as exc:
        raise InvalidCertificate(str(exc), field=field) from None
    return input_sq


def _check_scale(value, written: bool = False) -> int:
    """`value` if it is an int (not a bool) of magnitude below 2**53, which
    every JSON reader holds exactly, and nonzero if `written`, since a scale
    of 0 is written as absent; else InvalidCertificate naming input.scale."""
    if type(value) is int and -(2**53) < value < 2**53 and (value or not written):
        return value
    raise InvalidCertificate("input.scale must be an int of magnitude below 2**53, written "
                             "only when nonzero", field="input.scale")


def dumps_certificate(cert: EmbeddingCertificate) -> str:
    """The certificate's canonical JSON, written field by field. A field that
    breaks the reader's rules, `_check_fields` or the provenance rule of
    `_check_provenance`, is refused, so that what is written reads back.
    Raises InputError for a `cert` that is not an EmbeddingCertificate."""
    check_instance(cert, EmbeddingCertificate, "certificate")
    input_sq = _check_fields(cert)
    for name in ("parameters", "errors", "meta"):
        _check_provenance(name, getattr(cert, name))
    factors = cert.torus.factors
    float_row = _row_template("%.17g", input_sq.shape[1])
    return "".join((
        '{"input":{"squared_distances":[',
        # adding 0.0 turns -0.0 into 0.0, so reparsing cannot change the bytes
        ",".join(float_row % tuple(row) for row in (input_sq + 0.0).tolist()),
        "]" + (f',"scale":{cert.scale}' if cert.scale else ""),
        '},"torus":{"factors":',
        # radii are positive and finite, by PolygonSpec
        _row_template('{"m":"%d","r":%.17g}', len(factors))
        % tuple(chain.from_iterable((f.m, f.r) for f in factors)),
        # the decimal text of an int needs no JSON escaping
        '},"assignment":[',
        ",".join(_row_template('"%d"', len(p.indices)) % p.indices for p in cert.assignment),
        '],"parameters":',
        dumps_canonical(cert.parameters),
        ',"errors":',
        dumps_canonical(cert.errors),
        ',"meta":',
        dumps_canonical(cert.meta),
        "}",
    ))


def parse_json(text: str, error, prefix: str = ""):
    """`json.loads(text)` for outside text. Its ValueErrors (not JSON, or an int
    past Python's digit limit) and RecursionError (too deeply nested) raise
    `error(message)`, the caller's typed error, `prefix` leading a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise error("JSON nested too deeply to read") from None
    except ValueError as exc:
        raise error(f"{prefix}{exc}") from None


def read_number_matrix(rows, field: str, error) -> np.ndarray:
    """The float matrix of parsed outside JSON `rows`, which must be a nonempty
    list of equally long lists of JSON numbers that are finite doubles (numpy
    alone would also read "0.5" or true, and Python's JSON reads NaN,
    Infinity and 1e400), else `error(message)` naming `field` is raised."""
    if not (isinstance(rows, list) and rows and all(isinstance(row, list) for row in rows)):
        raise error(f"{field} must be a nonempty array of number arrays")
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        raise error(f"{field} must hold JSON numbers only")
    if len(set(map(len, rows))) != 1:
        raise error(f"{field} has rows of different lengths")
    try:
        matrix = np.array(rows, dtype=float)
    except OverflowError:  # an integer past the largest double
        raise error(f"{field} holds a number too large for a double") from None
    if not np.all(np.isfinite(matrix)):
        raise error(f"{field} must have finite entries")
    return matrix


def _parse_big_int(text, field: str) -> int:
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    if not isinstance(text, str):
        raise InvalidCertificate(f"{field} must be a decimal string", field=field)
    value = _canonical_ints([text])
    if value is not None:
        return value[0]
    if _CANONICAL_INT.fullmatch(text):  # canonical, so past the digit limit
        why = f"has more digits than Python's limit of {sys.get_int_max_str_digits()} for an int"
    else:
        why = "is not a canonical decimal integer"
    # a short prefix only: the value may run to megabytes
    shown = repr(text[:20]) + (f"... ({len(text)} characters)" if len(text) > 20 else "")
    raise InvalidCertificate(f"{field} {why}: {shown}", field=field)


def _canonical_ints(items: list):
    """The ints that `items` spell if every entry is a canonical decimal
    string (what `str` writes for an int), else None. On digits, commas and
    minus signs alone, the C JSON reader accepts just comma-separated
    integers `-?(0|[1-9][0-9]*)`: the canonical grammar and "-0". It reads
    them faster than `int` one by one. Each distinct entry is checked and
    read once, and the entries are then looked up in a dict of this call
    alone, so no string outlives its row."""
    try:
        distinct = list(set(items))
        text = ",".join(distinct)
    except TypeError:  # an entry that is not a string
        return None
    if not _DECIMAL_ROW_CHARS.fullmatch(text) or "-0" in text:
        return None
    try:
        values = json.loads("[" + text + "]")
    except ValueError:  # not integers, or more digits than int() will read
        return None
    # as many numbers as entries: no entry held a comma
    if len(values) != len(distinct):
        return None
    return tuple(map(dict(zip(distinct, values)).__getitem__, items))


def _read_factors(raw) -> tuple[PolygonSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise InvalidCertificate(
            "torus.factors must be a nonempty list", field="torus.factors"
        )
    try:
        orders = _canonical_ints([f["m"] for f in raw])
        if orders is not None:
            return tuple(map(PolygonSpec, orders, [f["r"] for f in raw]))
    except (KeyError, TypeError, InputError):
        pass
    # one factor at a time, to name the first bad one
    factors = []
    for i, f in enumerate(raw):
        field = f"torus.factors[{i}]"
        if not isinstance(f, dict) or "m" not in f or "r" not in f:
            raise InvalidCertificate(f"{field} needs m and r", field=field)
        m = _parse_big_int(f["m"], field + ".m")
        try:
            factors.append(PolygonSpec(m, f["r"]))
        except InputError as exc:
            raise InvalidCertificate(f"{field}: {exc}", field=field) from None
    return tuple(factors)


def _read_assignment(raw) -> tuple[TorusPoint, ...]:
    """The points of the parsed `assignment` list, which this empties as it
    goes: a row's strings are dropped once read, so the strings and the ints
    of the whole assignment are never held at once. Each row's distinct
    strings are read once (`_canonical_ints`), through a dict of that row
    alone: one kept across rows would hold every row's strings."""
    if not isinstance(raw, list):
        raise InvalidCertificate("assignment must be a list", field="assignment")
    points = []
    for i, row in enumerate(raw):
        field = f"assignment[{i}]"
        if not isinstance(row, list):
            raise InvalidCertificate(f"{field} must be a list", field=field)
        indices = _canonical_ints(row)
        if indices is None:  # JSON integers, or an entry to name
            indices = tuple(_parse_big_int(v, f"{field}[{k}]") for k, v in enumerate(row))
        points.append(TorusPoint._of_ints(indices))
        raw[i] = None
    return tuple(points)


def loads_certificate(text: str) -> EmbeddingCertificate:
    """Read a certificate's JSON; raises InvalidCertificate naming the first
    field that does not fit the schema."""
    obj = parse_json(text, partial(InvalidCertificate, field=""), "not valid JSON: ")
    if not isinstance(obj, dict):
        raise InvalidCertificate("certificate must be a JSON object", field="")
    field = "input.squared_distances"
    try:
        matrix = obj["input"]["squared_distances"]
    except (KeyError, TypeError):
        raise InvalidCertificate(f"missing {field}", field=field) from None
    input_sq = read_number_matrix(matrix, field, partial(InvalidCertificate, field=field))
    if input_sq.shape[0] != input_sq.shape[1]:
        raise InvalidCertificate(f"{field} must be square", field=field)
    scale = _check_scale(obj["input"]["scale"], written=True) if "scale" in obj["input"] else 0
    torus = obj.get("torus", {})
    factors = _read_factors(torus.get("factors") if isinstance(torus, dict) else None)
    assignment = _read_assignment(obj.get("assignment"))
    return EmbeddingCertificate(
        input_sq=input_sq,
        torus=TorusSpec(factors),
        assignment=assignment,
        parameters=_check_provenance("parameters", obj.get("parameters", {})),
        errors=_check_provenance("errors", obj.get("errors", {})),
        meta=_check_provenance("meta", obj.get("meta", {})),
        scale=scale,
    )


def save_certificate(cert: EmbeddingCertificate, path) -> None:
    """Write the certificate's canonical JSON and a newline to `path`. The
    text is made before the file is opened, so a refused certificate leaves
    an existing file as it was and creates none."""
    text = dumps_certificate(cert)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_certificate(path) -> EmbeddingCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidCertificate(f"not UTF-8 text: {exc}", field="") from None
    return loads_certificate(text)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    max_abs_error: float
    max_rel_error: float
    tolerance: float
    pair_count: int
    worst_pair: tuple[int, int] | None


def verify_certificate(
    cert: EmbeddingCertificate, tol: float = DEFAULT_ACCEPT_TOL
) -> VerificationReport:
    """Independently check a certificate against its input metric.

    Recomputes every pairwise distance from the chord formula on vertex
    index differences alone; the certificate's construction parameters are
    never consulted. Passes iff the largest relative squared-distance error
    is at most tol. Raises InputError for a `cert` that is not an
    EmbeddingCertificate, and unless tol is an int or a float with
    0 <= tol < inf: a NaN or negative tol would fail every certificate and
    an infinite one pass all. Raises InvalidCertificate naming the first
    field that breaks the reader's rules (`_check_fields`), whose input is
    not a squared-distance matrix (`geometry.check_squared_distances`), or
    whose sizes or indices do not fit together.
    """
    check_instance(cert, EmbeddingCertificate, "certificate")
    tol = check_real(tol, "tolerance", positive=False)
    input_sq = _check_fields(cert)
    try:
        check_squared_distances(input_sq, "input.squared_distances")
    except InputError as exc:
        raise InvalidCertificate(str(exc), field="input.squared_distances") from None
    n = input_sq.shape[0]
    if len(cert.assignment) != n:
        raise InvalidCertificate(
            f"assignment has {len(cert.assignment)} points, input has {n}",
            field="assignment",
        )
    factors = cert.torus.factors
    # the kernel needs one index per factor; it finds whether every index is
    # in range on its way, and only if it cannot show it are they walked,
    # to name the first bad one
    if all(len(p.indices) == len(factors) for p in cert.assignment):
        sq, reduced = _pairwise_sq(cert.torus, cert.assignment)
    else:
        sq, reduced = None, False
    if not reduced:
        _check_indices(cert.assignment, factors)
    k = np.arange(n)
    iu = np.nonzero(k[:, None] < k)  # np.triu_indices(n, 1), at a third of its cost
    # the upper triangle as given, not check_squared_distances' symmetrized copy
    target = input_sq[iu]
    abs_err = np.abs(sq[iu] - target)
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


def _check_indices(assignment, factors) -> None:
    """Raise InvalidCertificate naming the first row, in order, without one
    index per factor, or the first index, in row-major order, outside
    range(m) of its factor; return if there is none."""
    for i, p in enumerate(assignment):
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
