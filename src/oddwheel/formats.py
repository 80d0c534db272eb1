"""graph6 and edge-list encodings.

A graph6 line is a header for the order, then `graphs.triangle_bits`
zero-padded to 6-bit chunks, each printed as one character (offset 63);
`graphs.rows_from_triangle` reads the bits back.  Orders up to 62 use the
one-byte header; 63..258047 use the '~' + 3 byte extended header.

The edge-list text format is: first line "n m", then m lines "u v" with
0-based endpoints, u < v, ascending.
"""

from __future__ import annotations

from oddwheel.graphs import Graph, GraphError, build_graph
from oddwheel.graphs import rows_from_triangle, triangle_bits

_HEADER = ">>graph6<<"
MAX_GRAPH6_ORDER = 258047


class FormatError(ValueError):
    """Malformed graph6 or edge-list input."""


def _printable(bits: str) -> str:
    """Zero-pad to 6-bit chunks; one character (offset 63) per chunk."""
    bits += "0" * (-len(bits) % 6)
    return "".join(
        [chr(int(bits[p : p + 6], 2) + 63) for p in range(0, len(bits), 6)]
    )


def _chunk_bits(text: str) -> str:
    """The 6-bit chunks of graph6 characters, as one bit string."""
    return "".join([format(ord(ch) - 63, "06b") for ch in text])


def encode_graph6(g: Graph) -> str:
    n = g.order
    if n > MAX_GRAPH6_ORDER:
        raise FormatError(f"graph6 supports order <= {MAX_GRAPH6_ORDER}")
    head = chr(n + 63) if n <= 62 else "~" + _printable(format(n, "018b"))
    return head + _printable(triangle_bits(g.rows))


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER) :]
    if not s:
        raise FormatError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"invalid graph6 character {ch!r}")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise FormatError("graph6 orders above 258047 not supported")
        if len(s) < 4:
            raise FormatError("truncated graph6 order field")
        n = int(_chunk_bits(s[1:4]), 2)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    expected = (n * (n - 1) // 2 + 5) // 6
    if len(body) != expected:
        raise FormatError(
            f"graph6 body has {len(body)} chunks, expected {expected} "
            f"for order {n}"
        )
    return Graph(rows_from_triangle(n, _chunk_bits(body)))


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
