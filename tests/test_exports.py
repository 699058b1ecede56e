"""Tests for the package's public names, the module attributes the
benchmark's span tracer patches, and the library's refusal of bad
arguments."""

import ast
import dataclasses
import functools
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import torus_embed
from torus_embed import (
    InputError,
    InvalidCertificate,
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    as_point_array,
    centered_gram,
    embed_almost_regular,
    embed_regular_simplex,
    embed_simplex,
    embed_squared_distances,
    dumps_certificate,
    generate_points,
    pairwise_sq,
    product_embed,
    realization_plan,
    realize,
    regular_simplex,
    schoenberg_decompose,
    shift,
    squared_distances,
    verify_certificate,
)
from torus_embed.geometry import check_squared_distances

ROOT = Path(__file__).resolve().parent.parent
BENCH_SPANS = ROOT / "bench" / "spans.py"
PACKAGE_SOURCES = sorted((ROOT / "src" / "torus_embed").glob("*.py"))


def test_all_names_resolve_once_in_sorted_order():
    names = torus_embed.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(torus_embed, name), name


def bench_boundaries():
    """The (module, attribute) keys of `BOUNDARIES` in bench/spans.py, read
    from its source without running it."""
    tree = ast.parse(BENCH_SPANS.read_text(), str(BENCH_SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no BOUNDARIES in {BENCH_SPANS}")


def test_bench_patch_points_resolve():
    # the traced benchmark run patches each of these in place, so deleting
    # or renaming one breaks it
    boundaries = bench_boundaries()
    assert boundaries
    for module, attribute in boundaries:
        mod = importlib.import_module(f"torus_embed.{module}")
        assert callable(getattr(mod, attribute, None)), f"torus_embed.{module}.{attribute}"


@functools.cache
def triangle_plan():
    return realization_plan(np.ones((3, 3)) - np.eye(3))


@functools.cache
def triangle_certificate():
    return embed_simplex(regular_simplex(3, 1.0))


# values no argument below takes, but an int past the largest double is a
# count too large to allocate, a valid seed and a valid PolygonSpec order
JUNK = {
    "none": None,
    "text": "x",
    "numeric-text": "1",
    "dict": {},
    "true": True,
    "nan": math.nan,
    "inf": math.inf,
    "minus-inf": -math.inf,
    "minus-one": -1,
    "int-past-double": 10**400,
    "minus-int-past-repr": -(10**5000),
    "float32": np.float32(1),
}

# a one-factor torus and a point on it
TRIANGLE = TorusSpec((PolygonSpec(3, 1.0),))
VERTEX = TorusPoint((0,))

# (argument, call on the value, name its refusal starts with, values it takes)
ARGUMENTS = [
    ("PolygonSpec.m", lambda v: PolygonSpec(v, 1.0), "polygon order", {"int-past-double"}),
    ("PolygonSpec.r", lambda v: PolygonSpec(3, v), "circumradius", set()),
    ("TorusSpec.factors", TorusSpec, "torus factors", set()),
    ("TorusPoint.indices", TorusPoint, "vertex indices", set()),
    ("pairwise_sq.t", lambda v: pairwise_sq(v, [VERTEX, VERTEX]), "torus", set()),
    ("pairwise_sq.points", lambda v: pairwise_sq(TRIANGLE, [VERTEX, v]), "torus point", set()),
    ("pairwise_sq.points-whole", lambda v: pairwise_sq(TRIANGLE, v), "points", set()),
    ("shift.t", lambda v: shift(v, VERTEX, (1,)), "torus", set()),
    ("shift.p", lambda v: shift(TRIANGLE, v, (1,)), "torus point", set()),
    ("shift.offsets", lambda v: shift(TRIANGLE, VERTEX, v), "offsets", set()),
    ("product_embed.delta", lambda v: product_embed([[0.0], [1.0]], v), "delta", set()),
    ("regular_simplex.n", lambda v: regular_simplex(v, 1.0), "vertex count", {"int-past-double"}),
    ("regular_simplex.side", lambda v: regular_simplex(3, v), "side length", set()),
    ("embed_regular_simplex.n", lambda v: embed_regular_simplex(v, 1.0, 4), "vertex count",
     {"int-past-double"}),
    ("embed_regular_simplex.side", lambda v: embed_regular_simplex(3, v, 4), "side length", set()),
    ("embed_regular_simplex.m", lambda v: embed_regular_simplex(3, 1.0, v), "polygon order", set()),
    ("embed_almost_regular.plan", lambda v: embed_almost_regular(v, 3), "plan", set()),
    ("embed_almost_regular.m", lambda v: embed_almost_regular(triangle_plan(), v),
     "polygon order", set()),
    ("generate_points.n", lambda v: generate_points("random", v), "point count",
     {"int-past-double"}),
    ("generate_points.seed", lambda v: generate_points("random", 4, seed=v), "seed",
     {"int-past-double"}),
    ("generate_points.noise", lambda v: generate_points("perturbed", 4, noise=v), "noise", set()),
    ("verify_certificate.tol", lambda v: verify_certificate(triangle_certificate(), v),
     "tolerance", set()),
    ("verify_certificate.cert", verify_certificate, "certificate", set()),
    ("dumps_certificate.cert", dumps_certificate, "certificate", set()),
    ("as_point_array", as_point_array, "points", set()),
    ("squared_distances", squared_distances, "points", set()),
    ("check_squared_distances", check_squared_distances, "squared-distance matrix", set()),
    ("centered_gram", centered_gram, "squared-distance matrix", set()),
    ("realize", realize, "Gram matrix", set()),
    ("realization_plan", realization_plan, "squared-distance matrix", set()),
    ("schoenberg_decompose", schoenberg_decompose, "squared-distance matrix", set()),
    ("embed_simplex", embed_simplex, "points", set()),
    ("embed_squared_distances", embed_squared_distances, "squared-distance matrix", set()),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "call, name, value",
    [pytest.param(call, name, value, id=f"{argument}-{key}")
     for argument, call, name, takes in ARGUMENTS
     for key, value in JUNK.items() if key not in takes],
)
def test_library_refuses_bad_arguments_by_name(call, name, value):
    # an InputError whose message names the argument, never a TypeError,
    # OverflowError, ZeroDivisionError, bare ValueError or numpy warning
    with pytest.raises(InputError, match=f"^{re.escape(name)} must "):
        call(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("check", [dumps_certificate, verify_certificate])
@pytest.mark.parametrize(
    "value", [v for key, v in JUNK.items() if key != "minus-one"],
    ids=[key for key in JUNK if key != "minus-one"],
)
def test_certificate_refuses_a_junk_scale_by_name(check, value):
    # a certificate field, not an argument: refused as InvalidCertificate
    # naming input.scale; -1 is a valid scale
    cert = dataclasses.replace(triangle_certificate(), scale=value)
    with pytest.raises(InvalidCertificate, match=r"^input\.scale must ") as exc:
        check(cert)
    assert exc.value.field == "input.scale"


# the wording of the argument rules that errors.check_count,
# errors.check_real and errors.check_sequence hold
RULE_WORDING = (
    "must be an integer", "must be a positive finite number", "finite number >= 0",
    "tuple or list of",
)


def test_argument_rules_are_worded_only_in_errors():
    # a module that words one of these rules in its own InputError has a
    # copy of a check that errors.py holds once
    assert len(PACKAGE_SOURCES) > 1
    for path in PACKAGE_SOURCES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "InputError":
                text = "".join(
                    c.value for c in ast.walk(node)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
                copied = [w for w in RULE_WORDING if w in text]
                assert not copied, f"{path.name}:{node.lineno} words {copied}"
