"""Tests for certificate serialization: canonical JSON, round trips, parsing."""

import json

import numpy as np
import pytest

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
    verify_certificate,
)
from torus_embed.certificate import dumps_canonical


def test_float_formatting():
    assert dumps_canonical(0.1) == "0.10000000000000001"
    assert dumps_canonical(2.0) == "2"
    assert dumps_canonical(-0.0) == "0"
    assert dumps_canonical(1e20) == "1e+20"
    assert dumps_canonical(1 / 3) == "0.33333333333333331"
    assert dumps_canonical(True) == "true"
    assert dumps_canonical(3) == "3"
    assert dumps_canonical(None) == "null"


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
