"""Simple undirected graphs with the constructive algebra used throughout.

Vertices are dense integer labels 0..n-1.  Adjacency is stored row-wise as
bit vectors (Python ints), so degree queries are popcounts and neighborhood
intersections are single AND operations.  Graphs are immutable: every
"modification" returns a new value, which lets verification jobs compare
many variants side by side without defensive copies.

Twin classes (`twin_classes`, of the graph or of a vertex set) and
certified equitable quotients (`quotient`) are computed here alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


class GraphError(ValueError):
    """Raised when a graph construction violates simplicity or labeling."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..order-1, built from its
    rows alone: the order is their number.

    rows[u] is the neighbor bitmask of u; bit v is set iff u ~ v.
    """

    rows: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.rows)

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
        return Graph(tuple(rows))

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
        return Graph(tuple(rows))

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


# Byte b with its eight bits in reverse order.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse_bits(value: int, width: int) -> int:
    """The low `width` bits of `value` in reverse order: bit p goes to bit
    width - 1 - p.  `value` must fit in the whole bytes that hold `width`
    bits; its bits at width or above are dropped."""
    size = (width + 7) // 8
    flipped = value.to_bytes(size, "little").translate(_REVERSED)
    return int.from_bytes(flipped, "big") >> (8 * size - width)


def triangle_value(rows: Sequence[int]) -> int:
    """The upper triangle of the adjacency matrix as one int of
    n(n-1)/2 bits, column by column: bits (0,1), (0,2), (1,2), (0,3), ...
    from the most significant down.  Column j holds the adjacencies of
    vertex j to vertices 0..j-1, lowest first.

    This one number is the body of a graph6 line (`formats`), of a code
    (`kernels`) and of a union code (`enumerate.union_code`); they differ
    only in header and padding."""
    low_first = 0  # bit p is triangle bit p, counted from the first
    offset = 0
    for j in range(1, len(rows)):
        low_first |= (rows[j] & ((1 << j) - 1)) << offset
        offset += j
    return _reverse_bits(low_first, offset)


def rows_from_triangle(n: int, value: int) -> tuple[int, ...]:
    """The adjacency rows of the order-n graph whose `triangle_value` is
    `value`, which has at most n(n-1)/2 bits."""
    rows = [0] * n
    pending = _reverse_bits(value, n * (n - 1) // 2)  # first bit lowest
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
    return Graph((0,) * order).add_edges(edges)


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    rows = tuple((full ^ r) & ~(1 << u) for u, r in enumerate(g.rows))
    return Graph(rows)


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
    return Graph(tuple(rows))


def join(parts: list[Graph]) -> Graph:
    """Chain join: disjoint union plus all edges between consecutive parts.

    Only consecutive parts are connected; an all-pairs join is expressible
    by nesting.  join([K1, M, K2]) therefore leaves the K1 vertex and the
    K2 vertices non-adjacent, which several constructions depend on.

    One pass: each row is its part's row shifted into place, OR'd with
    the vertex masks of the neighbouring parts.
    """
    if not parts:
        raise GraphError("join of an empty list")
    masks = [0]  # vertex mask of each part, between two empty ends
    offset = 0
    for p in parts:
        masks.append(((1 << p.order) - 1) << offset)
        offset += p.order
    masks.append(0)
    rows: list[int] = []
    offset = 0
    for i, p in enumerate(parts):
        outer = masks[i] | masks[i + 2]
        if offset:  # a row with no neighbour in its part reuses `outer`
            rows += [outer | r << offset if r else outer for r in p.rows]
        else:  # the first part's rows are in place already
            rows += [outer | r for r in p.rows]
        offset += p.order
    return Graph(tuple(rows))


def reachable(rows, start: int) -> int:
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
    pieces = list(_pieces(g.rows))
    if len(pieces) == 1:  # connected: the graph is its own piece, as labelled
        return [Component(g, tuple(range(g.order)))]
    out: list[Component] = []
    for comp in pieces:
        labels = tuple(bits_of(comp))
        out.append(Component(g.subgraph(labels), labels))
    return out


class TwinClasses(NamedTuple):
    """Twin classes of a graph: open twins have equal rows, closed twins
    equal rows plus self.  Classes are numbered by their lowest vertex."""

    class_of: list[int]  # class index of each vertex of the set, in order
    masks: list[int]  # vertex mask of each class


def twin_classes(rows, alive: int | None = None) -> TwinClasses:
    """The twin classes of the graph with adjacency `rows` induced on the
    vertex mask `alive` (every vertex when None), in one pass over the
    rows masked to `alive`; class masks keep the labels of `rows`.

    In a simple graph the twin relation is an equivalence.  A vertex v
    with an open twin u and a closed twin w would have w in rows[v] =
    rows[u], so u in rows[w], which is inside rows[v] plus v: u would be
    in its own row.  So each class is an independent set or a clique, and
    any permutation of a class is an automorphism.

    Open keys (rows) and closed keys (rows plus self) have a dict each,
    so a row never meets a closed key.  Rows need not be simple (`Graph`
    takes a loop or an asymmetric bit): a vertex joins a class through a
    row equal to the first member's, or through an equal row plus self
    with both loop-free.  Either way, in every vertex set that holds both
    of them or neither, it has the first member's neighbour count, which
    is what colour refinement and `certify_equitable` rely on.
    """
    opens: dict[int, int] = {}
    closeds: dict[int, int] = {}
    class_of: list[int] = []
    masks: list[int] = []
    if alive is None:
        rest, keys = (1 << len(rows)) - 1, rows
    else:
        rest, keys = alive, [rows[v] & alive for v in bits_of(alive)]
    for r in keys:
        low = rest & -rest  # 1 << v, v the next vertex of the set
        rest ^= low
        i = opens.get(r)
        if i is None:
            if r & low:  # a loop: equal rows only
                i = opens[r] = len(masks)
                masks.append(low)
            else:
                i = closeds.get(r | low)
                if i is None:
                    i = opens[r] = closeds[r | low] = len(masks)
                    masks.append(low)
                else:
                    masks[i] |= low
        else:
            masks[i] |= low
        class_of.append(i)
    return TwinClasses(class_of, masks)


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
    g: Graph, twins: TwinClasses | None = None
) -> EquitablePartition:
    """The coarsest equitable partition of g, by colour refinement.

    The start is one cell.  Every round splits each cell by its
    vertices' neighbour counts into the current cells, until no cell
    splits.  New cells are ordered by (parent cell, count row), both
    invariants, so the cell order and the quotient do not depend on the
    vertex labelling, and a cell's refinements take its place in the
    order.  `quotient` certifies the result before anything relies on it.

    The rounds count per twin class (`twins`, or g's `twin_classes` when
    None), from its lowest vertex's row.  Twins lie in one cell from the
    start, and while they do they have the same count in every cell, so
    they never part: the cells, their order and the quotient are the ones
    the rounds give vertex by vertex.  There is one refinement loop,
    `_refine`; here and at the root of `automorphism_generators` every
    cell starts fresh, and the search nodes below that root enter it
    with only the vertex they split off fresh.  The quotient rows are
    read once at the end, from the lowest vertex of each cell.
    """
    if g.order == 0:
        return EquitablePartition((), (), ())
    if twins is None:
        twins = twin_classes(g.rows)
    rows = g.rows
    class_of, masks = twins
    cells = [(1 << g.order) - 1]
    cells, cell_of = _refine(
        [rows[(m & -m).bit_length() - 1] for m in masks], masks, cells,
        [0] * len(masks), cells,
    )
    reps = [rows[(c & -c).bit_length() - 1] for c in cells]
    return EquitablePartition(
        tuple(cells),
        tuple([cell_of[i] for i in class_of]),
        tuple([tuple([(r & c).bit_count() for c in cells]) for r in reps]),
    )


def _refine(rows, units, cells, cell_of, fresh):
    """Refine the partition (cells, cell_of) until it is equitable, with
    `fresh` the cells it may not yet be equitable against; return the new
    (cells, cell_of) lists.

    The items refined are sets of vertices that share every count: twin
    classes, or single vertices.  `units` holds each item's vertex mask,
    `rows` one member's row and `cell_of` its cell index; the cells are
    vertex masks.

    A round counts only against the fresh cells, which are then the cells
    the round made.  By induction, every current cell has one count
    against each cell of the partition the last round started from: that
    round split the cells by the columns it counted, and the columns it
    left out were constant already.  A cell the last round left as it was
    is one of those, so its column is constant within each current cell:
    it can split no cell, and among the signatures of one parent cell it
    compares equal, so leaving it out changes neither the split nor the
    order.  A partition with one item per cell ends the refinement at
    once, as no such cell can split.
    """
    n = len(rows)
    while True:
        # Signature of an item: its cell, then its neighbour count in each
        # fresh cell c, as the digits of one integer, the count in c in
        # base |c| + 1 and the cell, any integer, leading; so signatures
        # order as the tuples of their digits do.
        sigs = cell_of
        for c in fresh:
            base = c.bit_count() + 1
            sigs = [s * base + (r & c).bit_count() for s, r in zip(sigs, rows)]
        keys = sorted(set(sigs))
        if len(keys) == len(cells):
            return cells, cell_of
        index = {key: i for i, key in enumerate(keys)}
        cell_of = [index[s] for s in sigs]
        old = set(cells)
        cells = [0] * len(keys)
        for unit, i in zip(units, cell_of):
            cells[i] |= unit
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


def _individualize(rows, units, node, v: int):
    """The search node below `node`, a (cells, cell_of) pair of an
    equitable partition, with v split off its cell as a cell just ahead of
    the rest of it, refined from there; `units` holds 1 << u for each
    vertex u.

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
    return _refine(rows, units, cells, cell_of, [1 << v])


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
    g: Graph, units, node, w: int, first_leaf
) -> tuple[int, ...] | None:
    """Depth-first search of the subtree below `node` with w split off,
    for a leaf that read position by position against the first leaf
    gives a certified automorphism."""
    stack = [(node, w)]
    while stack:
        above, x = stack.pop()
        part = _individualize(g.rows, units, above, x)
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
    orders the vertices.  Each node is refined by the one loop: the root
    from one fresh cell, a node below from its parent with only the
    split-off vertex fresh (`_individualize`).  Nodes are (cells, cell_of)
    lists without a quotient; the first path splits off the lowest vertex.
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
    units = [1 << v for v in range(g.order)]
    full = (1 << g.order) - 1
    node = _refine(rows, units, [full], [0] * g.order, [full])
    path = [node]
    while cell := _target_cell(node[0]):
        node = _individualize(rows, units, node, _lowest(cell))
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
            perm = _leaf_below(g, units, node, w, first_leaf)
            if perm is not None:
                gens.append(perm)
                orbit = sum(set_orbit(1 << v, gens))
    return gens


def certify_equitable(
    g: Graph, part: EquitablePartition, twins: TwinClasses | None = None
) -> None:
    """Check exactly that `part` partitions the vertices of g, with
    cell_of and the cell masks in agreement and no cell empty, and that
    every vertex has its cell's row of neighbour counts; raise GraphError
    otherwise.

    The counts are taken once per twin class and cell (`twins`, or g's
    `twin_classes` when None): a twin in the cell of its class's lowest
    vertex has that vertex's counts, which holds for open twins (equal
    rows) and for loop-free closed twins alike, and that vertex's row of
    the quotient.  A class split across cells has every member counted.
    A failure names the lowest vertex that fails, as a vertex-by-vertex
    count would: every twin skipped fails with its class's lowest
    vertex.
    """
    if twins is None:
        twins = twin_classes(g.rows)
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
    counted = 0
    for cls in twins.masks:
        low = cls & -cls
        whole = not cls & ~cells[cell_of[low.bit_length() - 1]]
        counted |= low if whole else cls
    verts = list(bits_of(counted))
    rows = [g.rows[v] for v in verts]
    wants = [q[cell_of[v]] for v in verts]
    for j, mask in enumerate(cells):
        got = [(r & mask).bit_count() for r in rows]
        want = [w[j] for w in wants]
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            raise GraphError(
                f"partition is not equitable: vertex {verts[i]} has "
                f"{got[i]} neighbours in cell {j}, its cell's row says "
                f"{want[i]}"
            )


def quotient(g: Graph) -> EquitablePartition:
    """The coarsest equitable partition of g and its integer quotient
    matrix, derived by colour refinement (`equitable_partition`) and
    certified exactly (`certify_equitable`), both from one pass of
    `twin_classes`.  Entry (i, j) is the number of neighbours in cell
    j of every vertex of cell i.  Cells are ordered by their lowest
    vertex, so a constructed candidate's matrix reads in construction
    order; for the balanced candidate that is the core's single vertex,
    its matching-complement block, its edge pair, the rest of L, the
    embedded R edge and the rest of R.  `walks` counts on it and
    `spectral` re-exports it."""
    twins = twin_classes(g.rows)
    cells, cell_of, q = equitable_partition(g, twins)
    # a cell's lowest set bit is its lowest vertex
    order = sorted(range(len(cells)), key=lambda i: cells[i] & -cells[i])
    rank = {old: new for new, old in enumerate(order)}
    part = EquitablePartition(
        tuple(cells[i] for i in order),
        tuple(rank[i] for i in cell_of),
        tuple(tuple(q[i][j] for j in order) for i in order),
    )
    certify_equitable(g, part, twins)
    return part
