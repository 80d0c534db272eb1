"""The triangle codec as '0'/'1' strings, the reference the int codec of
`graphs`, `kernels`, `enumerate` and `formats` is tested against.

The five helpers below are the string implementations the library used
before its codec moved to ints, copied as they were; `frame_code` is
the library's own.  The graph6 and code framings around them are
spelled out the way the library spelled them then, and
`assert_codec_matches` compares the library with them on one graph."""

from typing import Sequence

from oddwheel import enumerate as enum_mod
from oddwheel import formats, graphs, kernels
from oddwheel.kernels import frame_code


def triangle_bits(rows: Sequence[int]) -> str:
    """The upper triangle of the adjacency matrix as a '0'/'1' string,
    column by column: bits (0,1), (0,2), (1,2), (0,3), ...  Column j holds
    the adjacencies of vertex j to vertices 0..j-1, lowest first.

    This one string is the body of a graph6 line (`formats`) and of a
    code (`kernels`); the two differ only in header and padding."""
    n = len(rows)
    return "".join(
        [format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)]
    )


def rows_from_triangle(n: int, bits: str) -> tuple[int, ...]:
    """The adjacency rows of the order-n graph whose `triangle_bits` are
    the first n(n-1)/2 characters of `bits`."""
    rows = [0] * n
    pending = int(bits[::-1] or "0", 2)  # bit p is character p
    for j in range(1, n):
        rows[j] = low = pending & ((1 << j) - 1)
        pending >>= j
        while low:  # column j's edges, added to the lower ends' rows
            b = low & -low
            rows[b.bit_length() - 1] |= 1 << j
            low ^= b
    return tuple(rows)


def _printable(bits: str) -> str:
    """Zero-pad to 6-bit chunks; one character (offset 63) per chunk."""
    bits += "0" * (-len(bits) % 6)
    return "".join(
        [chr(int(bits[p : p + 6], 2) + 63) for p in range(0, len(bits), 6)]
    )


def _chunk_bits(text: str) -> str:
    """The 6-bit chunks of graph6 characters, as one bit string."""
    return "".join([format(ord(ch) - 63, "06b") for ch in text])


def code_bits(code: bytes) -> tuple[int, str]:
    """The order and the triangle bit string of a code (`frame_code`)."""
    n = code[0]
    total = n * (n - 1) // 2
    # The leading 1 keeps the front zeros of the string; it is cut off.
    return n, format(int.from_bytes(code[1:], "big") | 1 << total, "b")[1:]


def union_code(piece_codes: list[bytes]) -> bytes:
    """`graph_code` of a disjoint union, from the canonical codes of its
    connected pieces: the pieces in sorted code order, each labelled after
    the ones before it.  Column offset + j of the union's triangle bits
    is offset zeros, then column j of the piece at that offset."""
    cols: list[str] = []
    offset = 0
    for piece in sorted(piece_codes):
        m, bits = code_bits(piece)
        cols.extend(
            "0" * offset + bits[j * (j - 1) // 2 : j * (j + 1) // 2]
            for j in range(m)
        )
        offset += m
    return frame_code(offset, int("".join(cols) or "0", 2))


def pack_code(rows) -> bytes:
    return frame_code(len(rows), int(triangle_bits(rows) or "0", 2))


def code_to_rows(code: bytes) -> tuple[int, ...]:
    return rows_from_triangle(*code_bits(code))


def encode_graph6(rows) -> str:
    n = len(rows)
    head = chr(n + 63) if n <= 62 else "~" + _printable(format(n, "018b"))
    return head + _printable(triangle_bits(rows))


def decode_graph6_rows(text: str) -> tuple[int, ...]:
    """The rows of a well-formed graph6 line, without the input checks."""
    if text[0] == "~":
        n, body = int(_chunk_bits(text[1:4]), 2), text[4:]
    else:
        n, body = ord(text[0]) - 63, text[1:]
    return rows_from_triangle(n, _chunk_bits(body))


def assert_codec_matches(g):
    """The library's triangle value, rows, graph6 line, code and union
    code of the pieces of g equal the reference's."""
    rows = g.rows
    n = g.order
    bits = triangle_bits(rows)
    value = graphs.triangle_value(rows)
    assert value == int(bits or "0", 2)
    assert value.bit_length() <= len(bits) == n * (n - 1) // 2
    assert graphs.rows_from_triangle(n, value) == rows_from_triangle(n, bits)
    text = formats.encode_graph6(g)
    assert text == encode_graph6(rows)
    assert formats.decode_graph6(text).rows == decode_graph6_rows(text) == rows
    code = kernels.pack_code(rows)
    assert code == pack_code(rows)
    assert kernels.code_to_rows(code) == code_to_rows(code) == rows
    # The union codec takes any codes of the pieces, canonical or not.
    pieces = [kernels.pack_code(c.graph.rows) for c in graphs.components(g)]
    assert enum_mod.union_code(pieces) == union_code(pieces)
