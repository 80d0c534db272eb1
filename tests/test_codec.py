"""The triangle codec against its string reference (`string_codec`).

Every graph6 line, code, union code and set of rows the int codec builds
must equal the string reference's, on every graph of order <= 7, on
the canonical pieces of every GFAM(5, 19) member and on seeded graphs of
orders 8 to 300; the property tests compare them on drawn graphs up to
order 130."""

import random

import pytest

import string_codec as ref
from oddwheel import graphs, kernels
from oddwheel.enumerate import all_graphs, union_code
from oddwheel.families import FamilySpec, enumerate_family
from oddwheel.graphs import Graph, components
from string_codec import assert_codec_matches


def piece_codes(g):
    return [kernels.canon_code(c.graph.rows) for c in components(g)]


def test_codec_matches_reference_on_small_graphs():
    for n in range(8):
        for g in all_graphs(n):
            assert_codec_matches(g)
            if n:
                pieces = piece_codes(g)
                assert union_code(pieces) == ref.union_code(pieces)


def test_codec_matches_reference_on_gfam_members():
    members = enumerate_family(FamilySpec("GFAM", 5, 19))
    assert len(members) == 1681
    for g in members:
        assert_codec_matches(g)
        pieces = piece_codes(g)
        assert len(pieces) > 1
        assert union_code(pieces) == ref.union_code(pieces)
        for code in pieces:
            assert kernels.code_to_rows(code) == ref.code_to_rows(code)


def seeded_rows(rng, n, p):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


# Each side of every row width `rows_from_triangle` packs with (8, 16,
# ..., 256 bits), and the orders 50 to 300 of the large candidates.
SEEDED_ORDERS = [8, 9, 16, 17, 32, 33, 50, 64, 65, 100, 128, 129, 202,
                 256, 257, 300]


@pytest.mark.parametrize("n", SEEDED_ORDERS)
def test_codec_matches_reference_on_seeded_graphs(n):
    rng = random.Random(n)
    for p in (0.05, 0.5, 0.95):
        rows = seeded_rows(rng, n, p)
        value = graphs.triangle_value(rows)
        bits = format(value, f"0{n * (n - 1) // 2}b")
        assert graphs.rows_from_triangle(n, value) == rows
        assert ref.rows_from_triangle(n, bits) == rows
        if n <= 255:
            assert_codec_matches(Graph(rows))
