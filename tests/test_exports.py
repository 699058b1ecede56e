"""Tests for the package's public names and the module attributes the
benchmark's span tracer patches."""

import ast
import importlib
from pathlib import Path

import torus_embed

BENCH_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
