"""Tests for certificate serialization: canonical JSON, round trips, parsing."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_embed import (
    EmbeddingCertificate,
    InvalidCertificate,
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    dumps_certificate,
    embed_simplex,
    loads_certificate,
    regular_simplex,
    save_certificate,
    verify_certificate,
)
from torus_embed.certificate import _format_float, dumps_canonical
from torus_embed.cli import main


def test_float_formatting():
    assert dumps_canonical(0.1) == "0.10000000000000001"
    assert dumps_canonical(2.0) == "2"
    assert dumps_canonical(-0.0) == "0"
    assert dumps_canonical(1e20) == "1e+20"
    assert dumps_canonical(1 / 3) == "0.33333333333333331"
    assert dumps_canonical(True) == "true"
    assert dumps_canonical(3) == "3"
    assert dumps_canonical(None) == "null"


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_percent_template_writes_what_format_float_writes(x):
    # the writer formats each row through one %.17g template, on an input
    # matrix with 0.0 added, where dumps_canonical calls _format_float
    assert "%.17g" % x == format(x, ".17g")
    assert "%.17g" % (x + 0.0) == _format_float(x)


def test_float_formatting_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_canonical(float("nan"))
    with pytest.raises(ValueError):
        dumps_canonical(float("inf"))


def test_dict_order_preserved():
    assert dumps_canonical({"b": 1, "a": 2}) == '{"b":1,"a":2}'


def test_roundtrip_is_byte_identical():
    cert = embed_simplex(regular_simplex(4, 1.0))
    text = dumps_certificate(cert)
    again = dumps_certificate(loads_certificate(text))
    assert text == again
    # and a second hop stays fixed
    assert dumps_certificate(loads_certificate(again)) == again


def test_big_integers_serialize_as_decimal_strings():
    m = 10**50 + 9
    cert = EmbeddingCertificate(
        input_sq=np.zeros((1, 1)),
        torus=TorusSpec((PolygonSpec(m, 1.0),)),
        assignment=(TorusPoint((m - 1,)),),
        parameters={},
        errors={},
        meta={},
    )
    obj = json.loads(dumps_certificate(cert))
    assert obj["torus"]["factors"][0]["m"] == str(m)
    assert obj["assignment"][0][0] == str(m - 1)
    back = loads_certificate(dumps_certificate(cert))
    assert back.torus.factors[0].m == m
    assert back.assignment[0].indices[0] == m - 1
    assert verify_certificate(back).passed


def test_reloaded_certificate_verifies_identically():
    cert = embed_simplex(regular_simplex(3, 1.0))
    back = loads_certificate(dumps_certificate(cert))
    assert verify_certificate(back, 1e-8) == verify_certificate(cert, 1e-8)


def test_loads_rejects_truncated_json():
    cert = embed_simplex([[0.0], [1.0]])
    text = dumps_certificate(cert)
    with pytest.raises(InvalidCertificate):
        loads_certificate(text[: len(text) // 2])


def test_loads_rejects_json_nested_too_deep():
    with pytest.raises(InvalidCertificate) as exc:
        loads_certificate("[" * 100_000)
    assert "nested too deeply" in str(exc.value)


def test_loads_rejects_missing_fields():
    with pytest.raises(InvalidCertificate) as exc:
        loads_certificate("{}")
    assert exc.value.field == "input.squared_distances"
    with pytest.raises(InvalidCertificate) as exc:
        loads_certificate('{"input": {"squared_distances": [[0.0]]}}')
    assert exc.value.field == "torus.factors"


def test_loads_rejects_bad_polygon_order():
    text = (
        '{"input":{"squared_distances":[[0]]},'
        '"torus":{"factors":[{"m":"abc","r":1}]},"assignment":[["0"]]}'
    )
    with pytest.raises(InvalidCertificate):
        loads_certificate(text)
    text2 = (
        '{"input":{"squared_distances":[[0]]},'
        '"torus":{"factors":[{"m":"1","r":1}]},"assignment":[["0"]]}'
    )
    with pytest.raises(InvalidCertificate):
        loads_certificate(text2)


def test_loads_rejects_non_square_input():
    text = (
        '{"input":{"squared_distances":[[0,1]]},'
        '"torus":{"factors":[{"m":"3","r":1}]},"assignment":[["0"]]}'
    )
    with pytest.raises(InvalidCertificate):
        loads_certificate(text)


def _reference_dumps(obj) -> str:
    """The generic recursive writer the schema-driven codec replaced."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(obj)
        return format(0.0 if obj == 0.0 else obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(k) + ":" + _reference_dumps(v) for k, v in obj.items()
        ) + "}"
    raise ValueError(obj)


def _reference_layout(cert) -> dict:
    """The generic object a certificate used to be written through."""
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


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**1000), 2**1000) | _FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)
# provenance under the rule: strings, booleans, finite doubles (an int too,
# if it is within the double range), and arrays of these two deep at most
_PROVENANCE_SCALARS = st.text() | st.booleans() | _FLOATS | st.integers(-(2**1000), 2**1000)
_PROVENANCE = _PROVENANCE_SCALARS | st.lists(
    _PROVENANCE_SCALARS | st.lists(_PROVENANCE_SCALARS, max_size=3), max_size=4
)
_RADII = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.sampled_from(
    [5e-324, 1e-310, 1e308, 1.7976931348623157e308]
)
_ORDERS = st.sampled_from([2, 3, 2**1000 + 1]) | st.integers(2, 2**1000)


@st.composite
def _certificates(draw):
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(_FLOATS, min_size=n * n, max_size=n * n))
    factors = draw(st.lists(st.builds(PolygonSpec, _ORDERS, _RADII), min_size=1, max_size=5))
    assignment = tuple(
        TorusPoint(tuple(draw(st.integers(0, f.m - 1)) for f in factors)) for _ in range(n)
    )
    return EmbeddingCertificate(
        input_sq=np.array(entries, dtype=float).reshape(n, n),
        torus=TorusSpec(tuple(factors)),
        assignment=assignment,
        parameters=draw(st.dictionaries(st.text(), _PROVENANCE, max_size=4)),
        errors=draw(st.dictionaries(st.text(), _FLOATS, max_size=2)),
        meta=draw(st.dictionaries(st.text(), _PROVENANCE, max_size=2)),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_certificates())
def test_writer_matches_generic_layout_and_reads_back(cert):
    text = dumps_certificate(cert)
    assert text == _reference_dumps(_reference_layout(cert))
    back = loads_certificate(text)
    assert back.torus == cert.torus
    assert back.assignment == cert.assignment
    assert np.array_equal(back.input_sq, cert.input_sq)
    assert dumps_certificate(back) == text


def test_writer_matches_generic_layout_without_rows():
    # an assignment row without indices; an empty input matrix is refused
    # (test_writer_refuses_what_the_reader_refuses)
    cert = EmbeddingCertificate(
        np.zeros((1, 1)), TorusSpec((PolygonSpec(3, 1.0),)), (TorusPoint(()),), {}, {}, {}
    )
    assert dumps_certificate(cert) == _reference_dumps(_reference_layout(cert))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON)
def test_dumps_canonical_matches_recursive_writer(value):
    assert dumps_canonical(value) == _reference_dumps(value)


# the golden certificates of tests/test_pipeline.py, one of each correction
# order: triangles, and the base's m as `embed --uniform-m` wrote before 0.12.0
CORPUS = Path(__file__).parent / "data" / "certificates"
ONE_PER_ORDER = ["0.12.0", "0.11.0-uniform-m"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(ONE_PER_ORDER),
    st.dictionaries(st.text(), _PROVENANCE, max_size=4),
    st.dictionaries(st.text(), _PROVENANCE, max_size=2),
    st.dictionaries(st.text(), _PROVENANCE, max_size=2),
)
def test_verdict_and_round_trip_do_not_depend_on_provenance(name, parameters, errors, meta):
    text = (CORPUS / f"{name}.json").read_text(encoding="utf-8")
    cert = loads_certificate(text)
    drawn = dumps_certificate(
        dataclasses.replace(cert, parameters=parameters, errors=errors, meta=meta)
    )
    checked = text[: text.index(',"parameters":')]
    assert drawn.startswith(checked + ',"parameters":')
    back = loads_certificate(drawn)
    assert dumps_certificate(back) == drawn
    assert verify_certificate(back) == verify_certificate(cert)
    assert verify_certificate(back).passed


def _small_certificate() -> dict:
    return json.loads(dumps_certificate(embed_simplex([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])))


_DELETE = object()


def _set(path, value):
    def edit(root):
        obj = root
        *head, last = path
        for key in head:
            obj = obj[key]
        if value is _DELETE:
            del obj[last]
        else:
            obj[last] = value
        return root

    return edit


def _as_string(path):
    """Replace the number at `path` by a string holding its JSON text."""

    def edit(root):
        obj = root
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = json.dumps(obj[last])
        return root

    return edit


def _bad_m_after_bad_r(obj):
    obj["torus"]["factors"][0]["r"] = "x"
    obj["torus"]["factors"][1]["m"] = "abc"
    return obj


def _raw(path, text):
    """Set the value at `path` to the JSON text `text`, which json.dumps may
    not write: it writes no 1e400, and may not reach 900 arrays deep."""

    def edit(root):
        return json.dumps(_set(path, "@raw@")(root)).replace('"@raw@"', text, 1)

    return edit


# provenance values that break the rule, as JSON text at a path, and the
# field that names each
PROVENANCE_REFUSED = {
    "nan": (["parameters", "alpha"], "NaN", "parameters.alpha"),
    "infinity": (["errors", "max_rel"], "Infinity", "errors.max_rel"),
    "1e400": (["parameters", "delta"], "1e400", "parameters.delta"),
    "10**400": (["errors", "max_abs"], str(10**400), "errors.max_abs"),
    "null": (["meta", "tool"], "null", "meta.tool"),
    "object": (["parameters", "alpha"], '{"x": 1.5}', "parameters.alpha"),
    "three-deep": (["parameters", "m"], '[[["1"]], 2]', "parameters.m[0][0]"),
    "900-deep": (["meta", "version"], "[" * 900 + "1" + "]" * 900, "meta.version[0][0]"),
}

# input.scale values that break its rule (an int of magnitude below 2**53)
SCALES_REFUSED = {"true": True, "float": 1.5, "string": "3", "past-double": 10**400}

# each malformed certificate, and the field its error names (as the generic
# reader named it)
MALFORMED = {
    "top-level-list": (lambda obj: [], ""),
    "input-missing": (_set(["input"], _DELETE), "input.squared_distances"),
    "input-list": (_set(["input"], []), "input.squared_distances"),
    "matrix-strings": (_set(["input", "squared_distances"], [["a"]]), "input.squared_distances"),
    "entry-string": (_as_string(["input", "squared_distances", 0, 1]), "input.squared_distances"),
    "entry-bool": (_set(["input", "squared_distances", 0, 1], True), "input.squared_distances"),
    "entry-too-large": (
        _set(["input", "squared_distances", 0, 1], 10**400), "input.squared_distances"
    ),
    "input-nan": (_raw(["input", "squared_distances", 0, 1], "NaN"), "input.squared_distances"),
    "input-infinity": (
        _raw(["input", "squared_distances", 0, 1], "Infinity"), "input.squared_distances"
    ),
    "matrix-ragged": (
        _set(["input", "squared_distances"], [[0.0, 1.0], [1.0]]), "input.squared_distances"
    ),
    "matrix-empty": (_set(["input", "squared_distances"], []), "input.squared_distances"),
    "matrix-not-square": (
        _set(["input", "squared_distances"], [[0.0, 1.0]]), "input.squared_distances"
    ),
    # a scale of 0 is written as absent, so "scale":0 is not canonical
    **{f"scale-{name}": (_set(["input", "scale"], value), "input.scale")
       for name, value in {"zero": 0, **SCALES_REFUSED}.items()},
    "torus-list": (_set(["torus"], []), "torus.factors"),
    "factors-object": (_set(["torus", "factors"], {}), "torus.factors"),
    "factors-empty": (_set(["torus", "factors"], []), "torus.factors"),
    "factor-number": (_set(["torus", "factors", 1], 3), "torus.factors[1]"),
    "factor-no-r": (_set(["torus", "factors", 1, "r"], _DELETE), "torus.factors[1]"),
    "m-word": (_set(["torus", "factors", 1, "m"], "abc"), "torus.factors[1].m"),
    "m-float": (_set(["torus", "factors", 1, "m"], 3.0), "torus.factors[1].m"),
    "m-one": (_set(["torus", "factors", 1, "m"], "1"), "torus.factors[1]"),
    "m-too-long": (_set(["torus", "factors", 1, "m"], "1" + "0" * 5000), "torus.factors[1].m"),
    "r-word": (_set(["torus", "factors", 1, "r"], "x"), "torus.factors[1]"),
    "r-string": (_as_string(["torus", "factors", 1, "r"]), "torus.factors[1]"),
    "r-bool": (_set(["torus", "factors", 1, "r"], True), "torus.factors[1]"),
    "r-negative": (_set(["torus", "factors", 1, "r"], -1.0), "torus.factors[1]"),
    "r-zero": (_set(["torus", "factors", 1, "r"], 0.0), "torus.factors[1]"),
    "r-infinity": (_raw(["torus", "factors", 1, "r"], "Infinity"), "torus.factors[1]"),
    "r-nan": (_raw(["torus", "factors", 1, "r"], "NaN"), "torus.factors[1]"),
    "r-null": (_set(["torus", "factors", 1, "r"], None), "torus.factors[1]"),
    "r-before-later-m": (_bad_m_after_bad_r, "torus.factors[0]"),
    "assignment-missing": (_set(["assignment"], _DELETE), "assignment"),
    "assignment-object": (_set(["assignment"], {}), "assignment"),
    "row-string": (_set(["assignment", 1], "0"), "assignment[1]"),
    "index-float": (_set(["assignment", 1, 2], 1.5), "assignment[1][2]"),
    "index-null": (_set(["assignment", 1, 2], None), "assignment[1][2]"),
    "index-bool": (_set(["assignment", 1, 2], True), "assignment[1][2]"),
    "index-word": (_set(["assignment", 1, 2], "x"), "assignment[1][2]"),
    "index-too-long": (_set(["assignment", 1, 2], "1" + "0" * 5000), "assignment[1][2]"),
    "parameters-list": (_set(["parameters"], []), "parameters"),
    "errors-string": (_set(["errors"], "x"), "errors"),
    "meta-null": (_set(["meta"], None), "meta"),
    **{f"provenance-{name}": (_raw(path, text), field)
       for name, (path, text, field) in PROVENANCE_REFUSED.items()},
}


@pytest.mark.parametrize("edit, field", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_certificate_names_its_field(tmp_path, capsys, edit, field):
    obj = edit(_small_certificate())
    text = obj if isinstance(obj, str) else json.dumps(obj)
    with pytest.raises(InvalidCertificate) as exc:
        loads_certificate(text)
    assert exc.value.field == field
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 1
    assert field in capsys.readouterr().err


def _set_provenance(path, text):
    """Set the provenance value at `path` of a certificate to the JSON text `text`."""

    def edit(cert):
        section, key = path
        getattr(cert, section)[key] = json.loads(text)
        return cert

    return edit


def _replace(**fields):
    return lambda cert: dataclasses.replace(cert, **fields)


# in-memory certificates with a field that the verifier reads but the reader
# would refuse, and the field that names each
FIELDS_REFUSED = {
    "input-not-square": (_replace(input_sq=np.zeros((1, 2))), "input.squared_distances"),
    "input-empty": (_replace(input_sq=np.zeros((0, 0))), "input.squared_distances"),
    "input-one-axis": (_replace(input_sq=np.zeros(3)), "input.squared_distances"),
    "input-nan": (_replace(input_sq=np.full((3, 3), math.nan)), "input.squared_distances"),
    "input-text": (_replace(input_sq="x"), "input.squared_distances"),
    **{f"scale-{name}": (_replace(scale=value), "input.scale")
       for name, value in SCALES_REFUSED.items()},
    "torus-none": (_replace(torus=None), "torus"),
    "torus-factor-tuple": (_replace(torus=(PolygonSpec(3, 1.0),)), "torus"),
    "assignment-none": (_replace(assignment=None), "assignment"),
    "assignment-tuples": (
        lambda cert: dataclasses.replace(cert, assignment=[p.indices for p in cert.assignment]),
        "assignment",
    ),
}


@pytest.mark.parametrize(
    "edit, field",
    [*((_set_provenance(path, text), field) for path, text, field in PROVENANCE_REFUSED.values()),
     *FIELDS_REFUSED.values()],
    ids=[*PROVENANCE_REFUSED, *FIELDS_REFUSED],
)
def test_writer_refuses_what_the_reader_refuses(edit, field):
    cert = edit(loads_certificate(json.dumps(_small_certificate())))
    with pytest.raises(InvalidCertificate) as exc:
        dumps_certificate(cert)
    assert exc.value.field == field
    assert str(exc.value).startswith(field)


@pytest.mark.parametrize("section", ["parameters", "errors", "meta"])
def test_writer_refuses_a_provenance_key_that_is_not_a_string(section):
    # parsed JSON has string keys only, so just an in-memory certificate can
    # hold another; the verifier never reads provenance, so it is the
    # writer's case alone
    cert = loads_certificate(json.dumps(_small_certificate()))
    with pytest.raises(InvalidCertificate) as exc:
        dumps_certificate(dataclasses.replace(cert, **{section: {1: 0.5}}))
    assert exc.value.field == section
    assert str(exc.value).startswith(section)


def test_refused_save_leaves_files_as_they_were(tmp_path):
    cert = loads_certificate(json.dumps(_small_certificate()))
    path = tmp_path / "c.json"
    save_certificate(cert, path)
    saved = path.read_bytes()
    assert saved == (dumps_certificate(cert) + "\n").encode()
    refused = dataclasses.replace(cert, torus=None)
    with pytest.raises(InvalidCertificate):
        save_certificate(refused, path)
    assert path.read_bytes() == saved
    with pytest.raises(InvalidCertificate):
        save_certificate(refused, tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()


@pytest.mark.parametrize("edit, field", list(FIELDS_REFUSED.values()), ids=list(FIELDS_REFUSED))
def test_verifier_refuses_what_the_reader_refuses(edit, field):
    # the verifier holds the fields it reads to the writer's rules, so a
    # malformed in-memory certificate is refused by name, never an AttributeError
    cert = edit(loads_certificate(json.dumps(_small_certificate())))
    with pytest.raises(InvalidCertificate) as exc:
        verify_certificate(cert)
    assert exc.value.field == field
    assert str(exc.value).startswith(field)


NOT_CANONICAL = ["0_0", " 42_7 ", "+7", "007", "٣", "-0", "", "7 ", "1e3", "0x1f", "1.0"]


@pytest.mark.parametrize("text", NOT_CANONICAL)
@pytest.mark.parametrize(
    "path, field",
    [(["torus", "factors", 1, "m"], "torus.factors[1].m"),
     (["assignment", 1, 2], "assignment[1][2]")],
    ids=["order", "index"],
)
def test_loads_refuses_non_canonical_decimal(path, field, text):
    obj = _set(path, text)(_small_certificate())
    with pytest.raises(InvalidCertificate) as exc:
        loads_certificate(json.dumps(obj))
    assert exc.value.field == field
    assert field in str(exc.value)


def test_loads_accepts_json_integers():
    obj = _small_certificate()
    for f in obj["torus"]["factors"]:
        f["m"] = int(f["m"])
    obj["assignment"] = [[int(i) for i in row] for row in obj["assignment"]]
    cert = loads_certificate(json.dumps(obj))
    assert dumps_certificate(cert) == dumps_canonical(_small_certificate())
    assert verify_certificate(cert).passed


def test_loads_reads_an_integer_radius_as_a_float():
    obj = _small_certificate()
    obj["torus"]["factors"][1]["r"] = 2
    text = dumps_canonical(obj)
    assert '"r":2}' in text
    cert = loads_certificate(text)
    r = cert.torus.factors[1].r
    assert type(r) is float and r == 2.0
    assert dumps_certificate(cert) == text


def test_negative_index_string_is_out_of_range():
    obj = _small_certificate()
    obj["assignment"][1][2] = "-5"
    cert = loads_certificate(json.dumps(obj))
    with pytest.raises(InvalidCertificate) as exc:
        verify_certificate(cert)
    assert exc.value.field == "assignment[1][2]"
    assert "-5 out of range" in str(exc.value)


def _out_of_range(cert, i, k, value):
    """The verifier's refusal of `cert` with index (i, k) set to `value`."""
    rows = [list(p.indices) for p in cert.assignment]
    rows[i][k] = value
    edited = dataclasses.replace(cert, assignment=tuple(TorusPoint(tuple(r)) for r in rows))
    with pytest.raises(InvalidCertificate) as exc:
        verify_certificate(edited)
    m = cert.torus.factors[k].m
    assert str(exc.value) == f"assignment[{i}][{k}] = {value} out of range for m = {m}"
    assert exc.value.field == f"assignment[{i}][{k}]"


def test_verifier_names_an_index_at_a_large_order():
    # 0.3.0's 65-bit orders: an index at its order is past int64, so the
    # kernel's fold cannot show the range and the walk names it; an order
    # between 2**53 and 2**63 is checked on the kernel's per-pair column
    cert = loads_certificate((CORPUS / "0.3.0.json").read_text(encoding="utf-8"))
    assert verify_certificate(cert).passed
    k = next(k for k, f in enumerate(cert.torus.factors) if f.m >= 2**53)
    _out_of_range(cert, 2, k, cert.torus.factors[k].m)
    m = 2**53 + 1
    t = TorusSpec((PolygonSpec(m, 1.0), PolygonSpec(3, 1.0)))
    cert = EmbeddingCertificate(
        np.zeros((2, 2)), t, (TorusPoint((0, 0)), TorusPoint((0, 0))), {}, {}, {}
    )
    assert verify_certificate(cert).passed
    for value in (m, m + 5, -1):
        _out_of_range(cert, 1, 0, value)


def test_verifier_names_an_index_of_one_point():
    # one point has no pair for the kernel to measure, so its indices are
    # walked
    t = TorusSpec((PolygonSpec(5, 1.0), PolygonSpec(3, 1.0)))
    cert = EmbeddingCertificate(np.zeros((1, 1)), t, (TorusPoint((4, 2)),), {}, {}, {})
    assert verify_certificate(cert).passed
    for k, value in ((0, 5), (1, -1), (1, 10**30)):
        _out_of_range(cert, 0, k, value)


def test_row_repeating_a_canonical_string_reads_every_place():
    obj = _small_certificate()
    row = obj["assignment"][1]
    row[0] = row[3] = "7"
    want = tuple(map(int, row))
    assert want.count(7) >= 2
    assert loads_certificate(json.dumps(obj)).assignment[1].indices == want


@pytest.mark.parametrize("text", ["07", "-0", "1,2", "", "0,0"])
def test_repeated_non_canonical_string_is_named_at_its_first_place(text):
    obj = _small_certificate()
    row = obj["assignment"][1]
    row[1] = row[3] = text
    with pytest.raises(InvalidCertificate) as exc:
        loads_certificate(json.dumps(obj))
    assert exc.value.field == "assignment[1][1]"
    assert str(exc.value).startswith("assignment[1][1] is not a canonical decimal integer")


def test_row_mixing_json_integers_and_strings():
    # a JSON 1 and a true are equal in a set, but each keeps its verdict:
    # the integer reads, the boolean is named
    obj = _small_certificate()
    row = obj["assignment"][1]
    want = tuple(map(int, row))
    row[0] = want[0]
    assert loads_certificate(json.dumps(obj)).assignment[1].indices == want
    row[2], row[3] = 1, True
    with pytest.raises(InvalidCertificate) as exc:
        loads_certificate(json.dumps(obj))
    assert exc.value.field == "assignment[1][3]"
    assert str(exc.value) == "assignment[1][3] must be a decimal string"


def test_loads_refuses_radius_too_large_for_a_float():
    obj = _small_certificate()
    obj["torus"]["factors"][1]["r"] = 10**400
    with pytest.raises(InvalidCertificate) as exc:
        loads_certificate(json.dumps(obj))
    assert exc.value.field == "torus.factors[1]"
