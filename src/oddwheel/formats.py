"""graph6 and edge-list encodings.

A graph6 line is a header for the order, then `graphs.triangle_value`
(an int of n(n-1)/2 bits, the triangle's first bit most significant)
zero-padded at the back to 6-bit groups, each printed as one character
(offset 63); `graphs.rows_from_triangle` reads the value back.  Orders up
to 62 use the one-byte header; 63..258047 use '~' and the order as 18
bits in three more characters.

The edge-list text format is: first line "n m", then m lines "u v" with
0-based endpoints, u < v, ascending.
"""

from __future__ import annotations

import binascii

from oddwheel.graphs import Graph, GraphError, build_graph
from oddwheel.graphs import rows_from_triangle, triangle_value

_HEADER = ">>graph6<<"
MAX_GRAPH6_ORDER = 258047

# graph6 prints a 6-bit group g as chr(g + 63), base64 as the g-th
# character of its alphabet, so a translation table turns one into the
# other and `binascii` does the bit slicing.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6 = bytes(range(63, 127))
_TO_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6, _BASE64)


class FormatError(ValueError):
    """Malformed graph6 or edge-list input."""


def _graph6_chars(value: int, width: int) -> str:
    """`value`, `width` bits wide, zero-padded at the back to 6-bit
    groups, one character (offset 63) per group."""
    groups = (width + 5) // 6
    quads = (groups + 3) // 4  # base64 prints 24 bits as 4 characters
    raw = (value << (24 * quads - width)).to_bytes(3 * quads, "big")
    text = binascii.b2a_base64(raw, newline=False).translate(_TO_GRAPH6)
    return text[:groups].decode("ascii")


def _graph6_value(text: str, width: int) -> int:
    """The first `width` bits of the 6-bit groups of `text`, graph6
    characters (63..126) holding at least that many, as an int."""
    quads = (len(text) + 3) // 4
    chars = text.encode("ascii").translate(_FROM_GRAPH6)
    raw = binascii.a2b_base64(chars + b"A" * (4 * quads - len(text)))
    return int.from_bytes(raw, "big") >> (24 * quads - width)


def encode_graph6(g: Graph) -> str:
    n = g.order
    if n > MAX_GRAPH6_ORDER:
        raise FormatError(f"graph6 supports order <= {MAX_GRAPH6_ORDER}")
    head = chr(n + 63) if n <= 62 else "~" + _graph6_chars(n, 18)
    return head + _graph6_chars(triangle_value(g.rows), n * (n - 1) // 2)


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER) :]
    if not s:
        raise FormatError("empty graph6 string")
    if not "?" <= min(s) <= max(s) <= "~":  # chr(63) .. chr(126)
        ch = next(ch for ch in s if not 63 <= ord(ch) <= 126)
        raise FormatError(f"invalid graph6 character {ch!r}")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise FormatError("graph6 orders above 258047 not supported")
        if len(s) < 4:
            raise FormatError("truncated graph6 order field")
        n = _graph6_value(s[1:4], 18)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    width = n * (n - 1) // 2
    expected = (width + 5) // 6
    if len(body) != expected:
        raise FormatError(
            f"graph6 body has {len(body)} chunks, expected {expected} "
            f"for order {n}"
        )
    return Graph(rows_from_triangle(n, _graph6_value(body, width)))


def encode_edge_list(g: Graph) -> str:
    lines = [f"{g.order} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decode_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("edge-list header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError("edge-list header must be two integers") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        try:
            u, v = map(int, parts)
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    try:
        return build_graph(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def read_graph_text(text: str) -> Graph:
    """Sniff the format: an 'n m' integer header means edge list,
    anything else is treated as graph6."""
    first = text.strip().splitlines()[0] if text.strip() else ""
    parts = first.split()
    if len(parts) == 2:
        try:
            int(parts[0]), int(parts[1])
        except ValueError:
            return decode_graph6(text)
        return decode_edge_list(text)
    return decode_graph6(text)
