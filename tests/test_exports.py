"""Tests for the package's public names."""

import torus_embed


def test_all_names_resolve_once_in_sorted_order():
    names = torus_embed.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(torus_embed, name), name
