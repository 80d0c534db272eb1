"""The triangle codec against its string reference (`string_codec`).

Every graph6 line, code, union code and set of rows the int codec builds
must equal the string reference's, on every graph of order <= 7 and on
the canonical pieces of every GFAM(5, 19) member; the property tests
compare them on drawn graphs up to order 130."""

import string_codec as ref
from oddwheel import kernels
from oddwheel.enumerate import all_graphs, union_code
from oddwheel.families import FamilySpec, enumerate_family
from oddwheel.graphs import components
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
