"""Simple undirected graphs with the constructive algebra used throughout.

Vertices are dense integer labels 0..n-1.  Adjacency is stored row-wise as
bit vectors (Python ints), so degree queries are popcounts and neighborhood
intersections are single AND operations.  Graphs are immutable: every
"modification" returns a new value, which lets verification jobs compare
many variants side by side without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


class GraphError(ValueError):
    """Raised when a graph construction violates simplicity or labeling."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..order-1.

    rows[u] is the neighbor bitmask of u; bit v is set iff u ~ v.
    """

    order: int
    rows: tuple[int, ...]

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(bits_of(self.rows[u]))

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self.order):
            higher = self.rows[u] >> (u + 1)
            v = u + 1
            while higher:
                if higher & 1:
                    out.append((u, v))
                higher >>= 1
                v += 1
        return tuple(out)

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabeled by the given vertex order."""
        verts = list(vertices)
        pos = {v: i for i, v in enumerate(verts)}
        if len(pos) != len(verts):
            raise GraphError("duplicate vertex in subgraph selection")
        # Rows are masked to the selection, so only kept neighbours are walked.
        mask = sum(1 << v for v in pos)
        rows = []
        for v in verts:
            r = 0
            for w in bits_of(self.rows[v] & mask):
                r |= 1 << pos[w]
            rows.append(r)
        return Graph(len(verts), tuple(rows))

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given edges added (duplicates rejected)."""
        rows = list(self.rows)
        for u, v in pairs:
            _check_endpoint(u, self.order)
            _check_endpoint(v, self.order)
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if (rows[u] >> v) & 1:
                raise GraphError(f"edge ({u},{v}) already present")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(self.order, tuple(rows))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count})"


class Component(NamedTuple):
    """A connected piece together with its original vertex labels."""

    graph: Graph
    labels: tuple[int, ...]


@dataclass(frozen=True)
class DegreeClassification:
    max_degree: int
    is_regular: bool
    is_nearly_regular: bool
    deficient_vertex: int | None


def bits_of(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def triangle_bits(n: int, rows: Sequence[int]) -> str:
    """The upper triangle of the adjacency matrix as a '0'/'1' string,
    column by column: bits (0,1), (0,2), (1,2), (0,3), ...  Column j holds
    the adjacencies of vertex j to vertices 0..j-1, lowest first.

    This one string is the body of a graph6 line (`formats`) and of a
    code (`kernels`); the two differ only in header and padding."""
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


def _check_endpoint(u: int, order: int) -> None:
    if not 0 <= u < order:
        raise GraphError(f"vertex {u} out of range for order {order}")


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, rejecting loops and repeated pairs outright.

    A pair repeated in either orientation is an error, not a silent dedup:
    the callers that matter feed machine-generated edge lists, where a
    duplicate signals a bug upstream.
    """
    if order < 0:
        raise GraphError("order must be non-negative")
    rows = [0] * order
    for u, v in edges:
        _check_endpoint(u, order)
        _check_endpoint(v, order)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if (rows[u] >> v) & 1:
            raise GraphError(f"duplicate edge ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    rows = tuple((full ^ r) & ~(1 << u) for u, r in enumerate(g.rows))
    return Graph(g.order, rows)


def disjoint_union(parts: list[Graph]) -> Graph:
    """Disjoint union; vertex labels of part i are offset by the total
    order of parts 0..i-1."""
    if not parts:
        raise GraphError("disjoint_union of an empty list")
    rows: list[int] = []
    offset = 0
    for p in parts:
        rows.extend(r << offset for r in p.rows)
        offset += p.order
    return Graph(offset, tuple(rows))


def join(parts: list[Graph]) -> Graph:
    """Chain join: disjoint union plus all edges between consecutive parts.

    Only consecutive parts are connected; an all-pairs join is expressible
    by nesting.  join([K1, M, K2]) therefore leaves the K1 vertex and the
    K2 vertices non-adjacent, which several constructions depend on.
    """
    g = disjoint_union(parts)
    rows = list(g.rows)
    offsets = []
    off = 0
    for p in parts:
        offsets.append(off)
        off += p.order
    for i in range(len(parts) - 1):
        a0, a1 = offsets[i], offsets[i] + parts[i].order
        b0, b1 = offsets[i + 1], offsets[i + 1] + parts[i + 1].order
        bmask = ((1 << (b1 - b0)) - 1) << b0
        amask = ((1 << (a1 - a0)) - 1) << a0
        for u in range(a0, a1):
            rows[u] |= bmask
        for v in range(b0, b1):
            rows[v] |= amask
    return Graph(g.order, tuple(rows))


def _component_mask(rows, start: int) -> int:
    """Mask of the vertices reachable from `start` (breadth-first), also
    when the rows are not symmetric (a directed reach)."""
    comp = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in bits_of(frontier):
            nxt |= rows[v]
        frontier = nxt & ~comp
        comp |= nxt
    return comp


def _pieces(rows, mask: int | None = None, co: bool = False):
    """Vertex masks of the connected pieces of the graph induced on
    `mask` (every vertex when None), or of its complement when `co` is
    set, ordered by minimum label (breadth-first)."""
    rest = (1 << len(rows)) - 1 if mask is None else mask
    flip = -1 if co else 0
    while rest:
        piece = front = rest & -rest
        rest ^= piece
        while front and rest:
            reach = 0
            for v in bits_of(front):
                reach |= rows[v] ^ flip
            front = reach & rest
            rest ^= front
            piece |= front
        yield piece


def components(g: Graph) -> list[Component]:
    """Maximal connected pieces, ordered by minimum original label.

    Each piece is returned relabeled 0..k-1 together with the tuple of
    original labels (position i holds the original label of new vertex i).
    """
    out: list[Component] = []
    for comp in _pieces(g.rows):
        labels = tuple(bits_of(comp))
        out.append(Component(g.subgraph(labels), labels))
    return out


def is_connected(g: Graph) -> bool:
    return g.order == 0 or next(_pieces(g.rows)) == (1 << g.order) - 1


def classify_degrees(g: Graph) -> DegreeClassification:
    """Classify the degree multiset: regular, nearly regular, or neither.

    Nearly regular means exactly one vertex of degree max-1 and all others
    of degree max.
    """
    degs = g.degrees()
    if not degs:
        return DegreeClassification(0, True, False, None)
    dmax = max(degs)
    regular = all(d == dmax for d in degs)
    deficient = [u for u, d in enumerate(degs) if d == dmax - 1]
    nearly = (not regular) and len(deficient) == 1 and all(
        d in (dmax, dmax - 1) for d in degs
    )
    return DegreeClassification(
        max_degree=dmax,
        is_regular=regular,
        is_nearly_regular=nearly,
        deficient_vertex=deficient[0] if nearly else None,
    )


class EquitablePartition(NamedTuple):
    """A vertex partition in which every vertex of cell i has exactly
    quotient[i][j] neighbours in cell j (Godsil & Royle, Algebraic Graph
    Theory, ch. 9)."""

    cells: tuple[int, ...]  # vertex mask of each cell
    cell_of: tuple[int, ...]  # cell index of each vertex
    quotient: tuple[tuple[int, ...], ...]


def equitable_partition(
    g: Graph, colours: Sequence[int] | None = None
) -> EquitablePartition:
    """The coarsest equitable partition finer than a colouring, by colour
    refinement.

    The start is `colours`, one integer per vertex (the one-cell colouring
    when omitted), with the cells in increasing colour order.  Every round
    splits each cell by its vertices' neighbour counts into the current
    cells, until no cell splits.  New cells are ordered by (parent cell,
    count row), both invariants, so the cell order and the quotient do not
    depend on the vertex labelling, and a cell's refinements take its place
    in the order.  Callers certify the result with `certify_equitable`
    before they rely on it.

    There is one refinement loop, `_refine`; here every cell starts fresh,
    and the search nodes of `automorphism_generators` enter it with only
    the vertex they split off fresh.  The quotient rows are read once at
    the end, from the lowest vertex of each cell.
    """
    if colours is not None and len(colours) != g.order:
        raise ValueError(
            f"colouring has {len(colours)} entries for {g.order} vertices"
        )
    if g.order == 0:
        return EquitablePartition((), (), ())
    rows = g.rows
    if colours is None:
        cells = [(1 << g.order) - 1]
        cells, cell_of = _refine(rows, cells, [0] * g.order, cells)
    else:
        # The first round has no cells to count against: it only orders
        # the colours into cells.
        cells, cell_of = _refine(rows, [], list(colours), [])
    reps = [rows[(c & -c).bit_length() - 1] for c in cells]
    return EquitablePartition(
        tuple(cells),
        tuple(cell_of),
        tuple([tuple([(r & c).bit_count() for c in cells]) for r in reps]),
    )


def _refine(rows, cells, cell_of, fresh):
    """Refine the partition (cells, cell_of) until it is equitable, with
    `fresh` the cells it may not yet be equitable against; return the new
    (cells, cell_of) lists.

    A round counts only against the fresh cells, which are then the cells
    the round made.  By induction, every current cell has one count
    against each cell of the partition the last round started from: that
    round split the cells by the columns it counted, and the columns it
    left out were constant already.  A cell the last round left as it was
    is one of those, so its column is constant within each current cell:
    it can split no cell, and among the signatures of one parent cell it
    compares equal, so leaving it out changes neither the split nor the
    order.  A discrete partition ends the refinement at once, as no cell
    of one vertex can split.
    """
    n = len(rows)
    base = n + 1  # above every neighbour count
    while True:
        # Signature of v: its cell, then its neighbour count in each fresh
        # cell, as the digits of one integer in base n + 1 (the cell, any
        # integer, leading), so signatures order as the tuples of their
        # digits do.
        sigs = cell_of
        for c in fresh:
            sigs = [s * base + (r & c).bit_count() for s, r in zip(sigs, rows)]
        keys = sorted(set(sigs))
        if len(keys) == len(cells):
            return cells, cell_of
        index = {key: i for i, key in enumerate(keys)}
        cell_of = [index[s] for s in sigs]
        old = set(cells)
        cells = [0] * len(keys)
        for v, i in enumerate(cell_of):
            cells[i] |= 1 << v
        if len(cells) == n:
            return cells, cell_of
        fresh = [c for c in cells if c not in old]


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """The image of the vertex set `mask` under the map v -> perm[v]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    """Exact certificate: perm is a permutation of the vertices of g with
    rows[perm[u]] == perm(rows[u]) for every u."""
    rows = g.rows
    return (
        len(perm) == g.order
        and sorted(perm) == list(range(g.order))
        and all(
            rows[perm[u]] == permute_mask(r, perm) for u, r in enumerate(rows)
        )
    )


def _individualize(rows, node, v: int):
    """The search node below `node`, a (cells, cell_of) pair of an
    equitable partition, with v split off its cell as a cell just ahead of
    the rest of it, refined from there.

    Only {v} is fresh.  Every other cell's count is constant on each cell
    already, and the count against the rest of v's cell is its whole
    count, constant too, less the count against {v}, which comes first.
    So the rounds split and order the cells as refinement from the
    individualized colouring, counting against every cell, does.
    """
    cells, cell_of = node
    i = cell_of[v]
    cells = [*cells[:i], 1 << v, cells[i] ^ (1 << v), *cells[i + 1:]]
    cell_of = [j + (j >= i) for j in cell_of]
    cell_of[v] = i
    return _refine(rows, cells, cell_of, [1 << v])


def _target_cell(cells) -> int:
    """The first cell of more than one vertex, or 0 when the partition is
    discrete."""
    return next((c for c in cells if c & (c - 1)), 0)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def set_orbit(s: int, gens: Sequence[Sequence[int]]) -> set[int]:
    """The orbit of the vertex set s under the group generated by gens."""
    orbit = {s}
    frontier = [s]
    while frontier:
        t = frontier.pop()
        for p in gens:
            u = permute_mask(t, p)
            if u not in orbit:
                orbit.add(u)
                frontier.append(u)
    return orbit


def _leaf_below(
    g: Graph, node, w: int, first_leaf
) -> tuple[int, ...] | None:
    """Depth-first search of the subtree below `node` with w split off,
    for a leaf that read position by position against the first leaf
    gives a certified automorphism."""
    stack = [(node, w)]
    while stack:
        above, x = stack.pop()
        part = _individualize(g.rows, above, x)
        cells = part[0]
        below = _target_cell(cells)
        if below:
            stack.extend((part, y) for y in reversed(list(bits_of(below))))
            continue
        perm = tuple([cells[i].bit_length() - 1 for i in first_leaf])
        if is_automorphism(g, perm):
            return perm
    return None


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of g, each a tuple perm with
    perm[v] the image of v, each certified by `is_automorphism`.

    Individualization-refinement (McKay, "Practical graph isomorphism",
    Congr. Numer. 30 (1981)).  A node of the search tree is the coarsest
    equitable partition finer than its parent's with one vertex of the
    parent's first non-singleton cell split off; a leaf is discrete, and
    orders the vertices.  A node is refined from its parent by the one
    refinement loop, with only the split-off vertex fresh
    (`_individualize`), and is kept as (cells, cell_of) lists without a
    quotient.  The first path always splits off the lowest vertex.
    Refinement keeps every cell in its place in the order, and a vertex
    split off goes just ahead of the rest of its cell, so a leaf below a
    node, read position by position against the first leaf, fixes the
    vertices split off above the node and maps the first path's vertex v
    there to the vertex split off below it.  An automorphism that fixes
    those vertices and maps v to w maps the first leaf to a leaf below w,
    whose reading gives it back.  From the deepest level up, each vertex
    w of the node's target cell outside the orbit of v under the
    generators found so far has its subtree searched depth first for a
    leaf whose permutation is certified.  The orbits then grow level by
    level to the orbits of the pointwise stabilizers, so the generators
    found generate the whole group (Schreier's lemma).  Iterative: no
    recursion, no closures.
    """
    rows = g.rows
    part = equitable_partition(g)
    node = part.cells, part.cell_of
    path = [node]
    while cell := _target_cell(node[0]):
        node = _individualize(rows, node, _lowest(cell))
        path.append(node)
    first_leaf = node[1]
    gens: list[tuple[int, ...]] = []
    for node in reversed(path[:-1]):
        cell = _target_cell(node[0])
        v = _lowest(cell)
        orbit = sum(set_orbit(1 << v, gens))
        for w in bits_of(cell & ~orbit):
            if (orbit >> w) & 1:
                continue
            perm = _leaf_below(g, node, w, first_leaf)
            if perm is not None:
                gens.append(perm)
                orbit = sum(set_orbit(1 << v, gens))
    return gens


def certify_equitable(g: Graph, part: EquitablePartition) -> None:
    """Check exactly that `part` partitions the vertices of g, with
    cell_of and the cell masks in agreement and no cell empty, and that
    every vertex has its cell's row of neighbour counts; raise GraphError
    otherwise."""
    cells, cell_of, q = part
    c = len(cells)
    if len(cell_of) != g.order or len(q) != c or any(len(r) != c for r in q):
        raise GraphError("partition shape does not match the graph")
    masks = [0] * c
    for v, i in enumerate(cell_of):
        if not 0 <= i < c:
            raise GraphError(f"vertex {v} has no cell")
        masks[i] |= 1 << v
    if masks != list(cells) or not all(masks):
        raise GraphError("cell masks disagree with cell_of or a cell is empty")
    for j, mask in enumerate(cells):
        want = [row[j] for row in q]
        got = [(r & mask).bit_count() for r in g.rows]
        if got != [want[i] for i in cell_of]:
            v = next(v for v, i in enumerate(cell_of) if got[v] != want[i])
            raise GraphError(
                f"partition is not equitable: vertex {v} has {got[v]} "
                f"neighbours in cell {j}, its cell's row says "
                f"{want[cell_of[v]]}"
            )
