import random

import pytest

from oddwheel.enumerate import all_graphs, graph_code
from oddwheel.families import FamilySpec, enumerate_family, primitive
from oddwheel.formats import (
    FormatError,
    decode_edge_list,
    decode_graph6,
    encode_edge_list,
    encode_graph6,
    read_graph_text,
)
from oddwheel.graphs import build_graph


def random_graph(rng, n, p):
    return build_graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


def test_reference_strings():
    assert encode_graph6(build_graph(1, [])) == "@"
    assert encode_graph6(primitive("complete", 2)) == "A_"
    assert decode_graph6("@").order == 1
    assert decode_graph6("A_") == primitive("complete", 2)


def test_roundtrip_small_exhaustive():
    for n in range(7):
        for g in all_graphs(n):
            assert decode_graph6(encode_graph6(g)) == g


def test_roundtrip_random_and_label_exact():
    rng = random.Random(77)
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 30), rng.random())
        assert decode_graph6(encode_graph6(g)) == g


def test_roundtrip_extended_form():
    rng = random.Random(78)
    for n in (100, 1002):
        g = random_graph(rng, n, 0.1)
        s = encode_graph6(g)
        assert s.startswith("~")
        assert decode_graph6(s) == g


def test_family_members_roundtrip():
    for g in enumerate_family(FamilySpec("GFAM", 3, 15)):
        back = decode_graph6(encode_graph6(g))
        assert back == g
        assert graph_code(back) == graph_code(g)


def test_graph6_header_accepted():
    g = primitive("cycle", 5)
    assert decode_graph6(">>graph6<<" + encode_graph6(g)) == g


def test_graph6_malformed():
    for text, message in [
        ("", "empty graph6 string"),
        # order 5 needs bits
        ("D", "graph6 body has 0 chunks, expected 2 for order 5"),
        ("D?", "graph6 body has 1 chunks, expected 2 for order 5"),
        # excess chunk
        ("A_X", "graph6 body has 2 chunks, expected 1 for order 2"),
        ("~??~" + "?" * 325,
         "graph6 body has 325 chunks, expected 326 for order 63"),
        # chr(30) is whitespace, stripped at the end of a line
        ("A" + chr(30), "graph6 body has 0 chunks, expected 1 for order 2"),
        # chars below and above the offset range
        ("A" + chr(30) + "_", "invalid graph6 character '\\x1e'"),
        ("A>", "invalid graph6 character '>'"),
        ("A" + chr(127), "invalid graph6 character '\\x7f'"),
        ("D?\u00e9", "invalid graph6 character '\u00e9'"),
        # unsupported huge-order form
        ("~~A_", "graph6 orders above 258047 not supported"),
        ("~", "truncated graph6 order field"),
        ("~??", "truncated graph6 order field"),
    ]:
        with pytest.raises(FormatError) as err:
            decode_graph6(text)
        assert str(err.value) == message, text


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 63, 65])
def test_graph6_padding_bits_are_ignored(n):
    # n(n-1)/2 is not a multiple of 6 at these orders, so the last
    # character has padding bits; set, they change nothing.
    pad = -(n * (n - 1) // 2) % 6
    assert pad
    g = build_graph(n, [(u, u + 1) for u in range(n - 1)])
    text = encode_graph6(g)
    assert (ord(text[-1]) - 63) & ((1 << pad) - 1) == 0
    dirty = text[:-1] + chr(ord(text[-1]) | ((1 << pad) - 1))
    assert decode_graph6(dirty) == g


def test_edge_list_roundtrip():
    rng = random.Random(79)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 15), 0.4)
        assert decode_edge_list(encode_edge_list(g)) == g


def test_edge_list_format_shape():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert encode_edge_list(g) == "4 2\n0 1\n2 3\n"


def test_edge_list_non_integer_endpoint_names_the_line():
    with pytest.raises(FormatError, match=r"bad edge line '0 x'"):
        decode_edge_list("3 2\n0 1\n0 x\n")
    with pytest.raises(FormatError, match=r"bad edge line '1\.5 2'"):
        read_graph_text("3 1\n1.5 2\n")


def test_edge_list_malformed():
    with pytest.raises(FormatError):
        decode_edge_list("")
    with pytest.raises(FormatError):
        decode_edge_list("3\n")
    with pytest.raises(FormatError):
        decode_edge_list("3 2\n0 1\n")
    with pytest.raises(FormatError):
        decode_edge_list("3 1\n0 0\n")
    with pytest.raises(FormatError):
        decode_edge_list("2 2\n0 1\n0 1\n")


def test_sniffing():
    g = primitive("cycle", 6)
    assert read_graph_text(encode_graph6(g)) == g
    assert read_graph_text(encode_edge_list(g)) == g
