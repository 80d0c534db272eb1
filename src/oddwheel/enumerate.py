"""Isomorph-free exhaustive graph enumeration (canonical augmentation).

Graphs are generated by adding one vertex at a time.  Each graph has one
canonical deletion vertex: in its canonical copy, the highest-labelled
vertex among those whose key is maximal.  The key of a vertex v
(`_vertex_key`) is

    (deg v, the degrees of v's neighbours in descending order,
     the number of triangles through v),

with the neighbour degrees held as an integer histogram that orders
them as the descending list does.

A child built from a parent by attaching a new vertex v is kept only when
deleting v leaves the same canonical form as deleting the canonical
deletion vertex.  Children of one parent are deduped by canonical form;
across parents the deletion rule guarantees each isomorphism class
appears exactly once, because accepted parents are forced isomorphic to
the child's canonical-deletion graph.

The key is deletion-invariant: G-u isomorphic to G-v forces equal keys,
because each part is f(G) - f(G-v) for an isomorphism invariant f, the
step behind Kelly's lemma (the copies of a subgraph through v are its
copies in G less those in G-v):
- deg v is |E(G)| - |E(G-v)|;
- the neighbour degrees follow from the degree sequences of G and G-v:
  deleting v drops deg v and lowers each neighbour's degree by one, so
  the number of neighbours of each degree is solved for from the highest
  degree down;
- the triangles through v are the triangles of G less those of G-v.
So a child can pass the deletion test only when its new vertex has the
maximal key, and every other child is skipped before it is
canonicalized.  When the new vertex is the only vertex of maximal key it
is the canonical deletion vertex, deleting it gives back the parent, and
the child is kept without the deletion test.

The same holds when every other vertex v of maximal key is a twin of the
new vertex n (same neighbours apart from each other: `rows[v]` in the
parent is s without v).  Then the swap (n v) is an automorphism of the
child, so the whole maximal-key class is one orbit, the orbit of n.  The
canonical deletion vertex u lies in that class, so G-u is isomorphic to
G-n, the parent, and the child is kept without the deletion test too
(the twin rule).  Twins have equal keys, so a twin's key is never
computed.

Siblings that are isomorphic through the parent are canonicalized once
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26 (1998)).
If pi is an automorphism of the parent, attaching the new vertex to pi(s)
gives a child isomorphic to attaching it to s: pi, extended by fixing the
new vertex, maps one child onto the other.  So both children have one
canonical form, one key rank and one outcome of the deletion test, and
once s is canonicalized every other set in its orbit is skipped.  The
generators of Aut(parent) come from `graphs.automorphism_generators`, and
each is certified exactly as a row permutation (`graphs.is_automorphism`)
before it is used, so every permutation composed from them is an
automorphism, and a skipped set always has the code of a set already
canonicalized.  The generators need not generate the whole group: orbits
under a subgroup are smaller and skip fewer sets, which costs time and
never a class.  The `seen` set of codes stays, because sets in different
orbits can still give isomorphic children (through an isomorphism that
moves the new vertex).  The generators are computed only once a second
set of a parent reaches canonicalization.  The skip comes after the
budget is spent and after the key test, so the budget still counts every
child that passes the degree prune, skipped or not.

Degree-constrained enumeration (regular and one-deficient-vertex targets
of order N and degree d) prunes partial graphs that cannot reach the
target (`_prune`).  `_children` attaches the new vertex only to the sets
that can pass: every vertex whose gap d - deg exceeds what the vertices
still to come can fill is forced into the set, and the set's size must
leave the new vertex a fillable gap.

`_children` reads everything it needs to decide a set s off per-parent
tables (`_Parent`), built once per parent, and builds the child's rows
only for the sets that reach canonicalization:
- the prune of the child is the prune of its degree list, and that list
  is the parent's with one added to each vertex of s and |s| appended.
  Each gap inside s drops by one, so the prune's tests become tests on
  the parent's vertices by gap (0, r+1, r+2 and beyond, for r the
  vertices still to come after the child) against s, and the gap sum is
  the parent's less 2|s| plus d: the same predicate, decided with a few
  popcounts;
- the key of a child vertex is its parent entry (degree, neighbour-degree
  histogram at the child's field width, triangles) moved by s: each
  neighbour in s moves one histogram field up, and a vertex in s gains
  the new vertex as a neighbour of degree |s| and a triangle with each
  of its neighbours in s.  Only vertices of the child degree |s| can tie
  with the new vertex, those of degree |s| outside s and |s|-1 inside
  it, and they are compared one at a time up to the first larger key.

The prune is monotone: if G passes it at order m, then every G-v passes
it at order m-1.  Every gap rises by at most one and one more vertex is
still to come; the gap sum changes by 2 deg v - d <= d, which the extra
vertex can fill; and the one gap the deficient vertex may leave open
carries over.  Canonical parents are some G-v, so by induction level m of
the pruned tree is exactly the set of order-m graphs that pass the prune.
That set only grows with N, and at equal N the deficient prune is the
weaker one.  So one stored tree per degree bound d, the largest built so
far (`_tree_cache`), answers every target (order, d, deficient) with
order < N, or order = N when the tree is at least as weak, by its level
`order` and the exact degree and connectivity filter; a larger target
builds a new tree, which replaces the stored one once it is complete.
For the same reason level m of any pruned tree is the cached
`all_graphs(m)` filtered by the prune, so a new tree starts from the
highest cached `all_graphs` level instead of from order 1.

`all_graphs` reads the unpruned tree, which `_pruned_levels` builds
without a target by the same level loop.  Levels are stored only once the
whole tree is built, so an exhausted budget stores no partial levels,
pruned or not.
"""

from __future__ import annotations

from oddwheel import kernels
from oddwheel.graphs import (
    Graph,
    automorphism_generators,
    bits_of,
    components,
    is_connected,
    set_orbit,
)
from oddwheel.kernels import BudgetExceededError, _Budget


_deletion_cache: dict[bytes, bytes] = {}
_all_cache: dict[int, list[bytes]] = {}
_degree_cache: dict[tuple[int, int, bool], list[Graph]] = {}
# Per degree bound d, the (order, deficient, levels) of the largest pruned
# tree built so far; it answers every target it covers (module docstring).
_tree_cache: dict[int, tuple[int, bool, list[list[bytes]]]] = {}


def graph_code(g: Graph) -> bytes:
    """Canonical form: order byte + packed canonical bit-string.

    Each component gets the lexicographically minimal bit-string over its
    vertex orderings, and `union_code` reassembles them; a connected graph
    is its own one piece.  Minimizing over all orderings at once would
    interleave components through their independent sets and blow up
    combinatorially, and the per-component form is the same complete
    isomorphism invariant either way.
    """
    return union_code([kernels.canon_code(c.graph.rows) for c in components(g)])


def union_code(piece_codes: list[bytes]) -> bytes:
    """`graph_code` of a disjoint union, from the canonical codes of its
    connected pieces: the pieces in sorted code order, each labelled after
    the ones before it.  Column offset + j of the union's triangle value
    is offset zeros, then column j of the piece at that offset, so it is
    the piece's column, as an int, shifted into place."""
    pieces = sorted(piece_codes)
    order = sum([piece[0] for piece in pieces])
    shift = order * (order - 1) // 2  # union bits after column c
    value = c = 0
    for piece in pieces:
        m = piece[0]
        bits = int.from_bytes(piece[1:], "big")
        rest = m * (m - 1) // 2  # piece bits after column j
        for j in range(m):
            shift -= c
            rest -= j
            value |= ((bits >> rest) & ((1 << j) - 1)) << shift
            c += 1
    return kernels.frame_code(order, value)


def _vertex_key(rows: list[int], v: int, degs: list[int]) -> tuple:
    """Deletion-invariant key of v: its degree, its neighbours' degree
    histogram and the number of triangles through it.  Vertices u and v
    with G-u isomorphic to G-v have equal keys (module docstring).

    The histogram is the integer sum of 1 << (deg w * b) over the
    neighbours w, with b = len(rows).bit_length(): each count is below
    len(rows) < 2**b, so the fields never carry.  Comparing two
    histograms compares the counts from the top degree down, which orders
    the neighbour degrees exactly as their lists sorted in descending
    order do: at the first position where two such lists differ, the one
    with the larger entry x has more neighbours of degree x and as many
    of every higher degree."""
    b = len(rows).bit_length()
    nbrs = rows[v]
    hist = tri = 0
    for w in bits_of(nbrs):
        hist += 1 << (degs[w] * b)
        tri += (rows[w] & nbrs).bit_count()
    return (degs[v], hist, tri // 2)


def _deletion_code(child_code: bytes) -> bytes:
    """Canonical form after deleting the canonical deletion vertex: in the
    canonical copy, the highest-labelled vertex among those of maximal
    `_vertex_key`.

    The key is an isomorphism invariant of the vertex, so the choice is
    too, and each class has exactly one canonical parent class.  A child
    passes the deletion test only if its new vertex v has G-v isomorphic
    to G-u for this vertex u, which forces equal keys, so `_children`
    skips, before canonicalizing, every child whose new vertex's key is
    not maximal.  Completeness still holds: a class is reached once its
    canonical parent is, and the degree-constrained prune holds on every
    induced subgraph of a valid final graph, canonical parents included.
    Cached: the value depends on the class alone.
    """
    k = _deletion_cache.get(child_code)
    if k is None:
        rows = kernels.code_to_rows(child_code)
        degs = [r.bit_count() for r in rows]
        top = max(degs)
        u = max(
            (v for v in range(len(rows)) if degs[v] == top),
            key=lambda v: (_vertex_key(rows, v, degs), v),
        )
        low = (1 << u) - 1
        sub = [(r & low) | ((r >> 1) & ~low) for i, r in enumerate(rows) if i != u]
        k = kernels.canon_code(sub)
        _deletion_cache[child_code] = k
    return k


def _prune(degs: list[int], order: int, d: int, deficient: bool) -> bool:
    """Whether a graph with degree list `degs` can still grow into a
    target of `order` vertices, every degree d except (when deficient) one
    d-1: no degree is above d, every gap d - deg is at most the number r
    of vertices still to come (one gap may be r+1 when deficient), and the
    gap sum, less the deficient vertex's missing edge, is at most r*d.

    Monotone (module docstring): if G passes at order m, every G-v passes
    at order m-1."""
    r = order - len(degs)
    slack = deficient
    total = 0
    for deg in degs:
        gap = d - deg
        if gap < 0:
            return False
        if gap > r:
            if not slack or gap > r + 1:
                return False
            slack = False
        total += gap
    return total - deficient <= r * d


class _Parent:
    """One parent's tables, from which `_children` decides each attachment
    set s with a few big-int operations (module docstring).

    `forced`, `free`, `low` and `high` bound the sets worth trying.  With
    a target (order, d, deficient) the prune tables hold the parent's
    vertices by gap g = d - deg: `zero` (g = 0), `one` (g = r+1) and
    `two` (g = r+2), for r the vertices still to come after the child;
    `dead` when some g is negative or above r+2; and `need`, the least
    2|s| the child's gap sum allows.  The key tables hold the vertices by
    degree (`by_deg`), each vertex's histogram field 1 << (deg * b) at the
    child's field width b (`unit`), and, filled in as they are first
    asked for, each vertex's neighbour-degree histogram and triangle
    count in the parent (`entries`)."""

    __slots__ = ("n", "rows", "target", "forced", "free", "low", "high",
                 "zero", "one", "two", "dead", "need", "top", "by_deg",
                 "b", "unit", "entries")

    def __init__(self, rows: list[int], target: tuple[int, int, bool] | None):
        n = len(rows)
        degs = [r.bit_count() for r in rows]
        self.n, self.rows, self.target = n, rows, target
        self.forced, self.free, self.low, self.high = 0, (1 << n) - 1, 0, n
        if target is not None:
            order, d, deficient = target
            r = order - n - 1
            forced = free = zero = one = two = 0
            dead = False
            for v, deg in enumerate(degs):
                gap = d - deg
                # A vertex whose gap exceeds r + deficient must gain an
                # edge now; one with no gap can gain none.
                if gap > r + deficient:
                    forced |= 1 << v
                elif gap > 0:
                    free |= 1 << v
                if gap == 0:
                    zero |= 1 << v
                if gap == r + 1:
                    one |= 1 << v
                elif gap == r + 2:
                    two |= 1 << v
                dead |= gap < 0 or gap > r + 2
            self.forced, self.free = forced, free
            self.zero, self.one, self.two, self.dead = zero, one, two, dead
            self.need = sum(d - deg for deg in degs) + d - deficient - r * d
            # The new vertex's own gap d - |s| may exceed r only by the
            # deficient slack.
            self.low, self.high = d - r - deficient, d
        self.top = max(degs)
        by_deg = [0] * (n + 2)
        for v, deg in enumerate(degs):
            by_deg[deg] |= 1 << v
        self.by_deg = by_deg
        b = self.b = (n + 1).bit_length()
        self.unit = [1 << (deg * b) for deg in degs]
        self.entries: list[tuple[int, int] | None] = [None] * n

    def passes(self, s: int) -> bool:
        """`_prune` of the child that attaches the new vertex to s.

        Each old gap g drops by one inside s.  The child fails when a gap
        goes negative (s meets `zero`), when a gap stays above r+1 (`two`
        outside s), when more gaps than the deficient slack sit at r+1
        (`one` outside s, `two` inside it, and the new vertex's gap
        d - |s| counted by its excess over r), or when the gap sum, the
        parent's less 2|s| plus d, less the slack, is above r*d."""
        order, d, deficient = self.target
        k = s.bit_count()
        excess = d - k - (order - self.n - 1)
        return not (
            self.dead or s & self.zero or self.two & ~s or k > d
            or ((self.one & ~s) | (self.two & s)).bit_count()
            + max(excess, 0) > deficient
            or 2 * k < self.need
        )

    def key(self, s: int, v: int) -> tuple:
        """`_vertex_key` of v in the child that attaches the new vertex
        n to s.  A neighbour's degree rises by one inside s, which moves
        its histogram count one field up: h becomes h << b.  So the new
        vertex's histogram is h(s) << b, for h(x) the sum of `unit` over
        x, and an old vertex's is its parent entry plus (h << b) - h for
        h that of its neighbours in s; in s, it also gains the new
        vertex, of degree |s|, and a triangle with each of those
        neighbours."""
        rows, unit, b = self.rows, self.unit, self.b
        k = s.bit_count()
        if v == self.n:
            hist = tri = 0
            for w in bits_of(s):
                hist += unit[w]
                tri += (rows[w] & s).bit_count()
            return (k, hist << b, tri // 2)
        entry = self.entries[v]
        if entry is None:
            nbrs = rows[v]
            hist = tri = 0
            for w in bits_of(nbrs):
                hist += unit[w]
                tri += (rows[w] & nbrs).bit_count()
            entry = self.entries[v] = (hist, tri // 2)
        hist, tri = entry
        common = rows[v] & s
        moved = 0
        for w in bits_of(common):
            moved += unit[w]
        hist += (moved << b) - moved
        deg = rows[v].bit_count()
        if s >> v & 1:
            return (deg + 1, hist + (1 << (k * b)), tri + common.bit_count())
        return (deg, hist, tri)

    def rank(self, s: int) -> int:
        """Where the new vertex's key stands in the child that attaches
        it to s: -1 when some vertex's key is larger, 1 when every other
        vertex of maximal key, if any, is a twin of the new vertex, and 0
        when it shares the maximal key with a vertex that is not.

        The key's first part is the degree.  So |s| must be at least the
        parent's top degree, and equal to it only while s misses every
        top-degree vertex; and only the vertices of degree k = |s| in the
        child can tie: those of degree k outside s and of degree k-1 in
        it.  A twin v of the new vertex (`rows[v]` is s without v) has
        its key, the swap of the two being an automorphism, so that key
        is not computed.  The ties are compared one at a time, up to the
        first larger key."""
        k = s.bit_count()
        by_deg, rows, top = self.by_deg, self.rows, self.top
        if k < top or (k == top and s & by_deg[top]):
            return -1
        ties = (by_deg[k] & ~s) | (by_deg[k - 1] & s)
        key = None
        rank = 1
        for v in bits_of(ties):
            if rows[v] == s & ~(1 << v):
                continue
            if key is None:
                key = self.key(s, self.n)
            other = self.key(s, v)
            if other > key:
                return -1
            if other == key:
                rank = 0
        return rank


def _children(
    parent_code: bytes,
    target: tuple[int, int, bool] | None,
    budget: _Budget,
) -> list[bytes]:
    """Canonical children of a parent: every graph, or with a degree
    target (order, d, deficient) the children that pass `_prune`."""
    rows = list(kernels.code_to_rows(parent_code))
    n = len(rows)
    parent = _Parent(rows, target)
    seen: set[bytes] = set()
    # Attachment sets in the orbit, under the parent's certified
    # automorphisms, of a set already canonicalized; the generators are
    # computed once a second set reaches canonicalization.
    done: set[int] = set()
    gens = None
    out: list[bytes] = []
    # Only sets that can pass the prune are tried, in descending order.
    for s in _subsets_descending(parent.forced, parent.free):
        if not parent.low <= s.bit_count() <= parent.high:
            continue
        if target is not None and not parent.passes(s):
            continue
        if not budget.spend(1):
            raise BudgetExceededError("enumeration budget exhausted")
        rank = parent.rank(s)
        if rank >= 0 and gens is None and done:
            gens = automorphism_generators(Graph(tuple(rows)))
            done = set_orbit(done.pop(), gens)
        # A set in the orbit of one canonicalized before gives an
        # isomorphic child: same code, same rank (module docstring).
        if rank >= 0 and s not in done:
            done |= set_orbit(s, gens or [])
            child = rows + [s]
            for v in bits_of(s):
                child[v] |= 1 << n
            code = kernels.canon_code(child)
            if code not in seen:
                seen.add(code)
                if rank or _deletion_code(code) == parent_code:
                    out.append(code)
    return out


def _subsets_descending(forced: int, free: int):
    """forced | sub for every subset sub of free, in descending order."""
    sub = free
    while True:
        yield forced | sub
        if not sub:
            return
        sub = (sub - 1) & free


def all_graphs(n: int, budget: int | None = None) -> list[Graph]:
    """Every isomorphism class of simple graphs on exactly n vertices,
    ordered by canonical form.

    The levels are those of the unpruned augmentation tree, generated from
    the highest cached level up and cached once all are complete; an
    exhausted budget caches none of the new ones."""
    if n < 0:
        raise ValueError("order must be non-negative")
    b = _Budget(budget)
    if n == 0:
        return [Graph(())]
    if n not in _all_cache:
        levels = _pruned_levels(n, None, b)
        _all_cache.update((m, levels[m]) for m in range(1, n + 1))
    return [Graph(kernels.code_to_rows(c)) for c in _all_cache[n]]


def connected_with_degrees(
    order: int, d: int, deficient: bool, budget: int | None = None
) -> list[Graph]:
    """Connected graphs on `order` vertices in which every vertex has
    degree d, except (when deficient) exactly one vertex of degree d-1.

    Ordered by canonical form.  Infeasible parameters give an empty list.
    The budget counts the children that pass the degree prune in the
    levels this call generates; a target read from a stored tree (module
    docstring) or from the result cache generates none and spends
    nothing, and a tree started from a cached `all_graphs` level spends
    nothing on the levels up to it.
    """
    if order < 0 or d < 0:
        raise ValueError("order and degree must be non-negative")
    b = _Budget(budget)
    key = (order, d, deficient)
    cached = _degree_cache.get(key)
    if cached is not None:
        return list(cached)

    if order == 0:
        _degree_cache[key] = []
        return []
    targets = ([d - 1] if deficient else []) + [d] * (order - (1 if deficient else 0))
    if sum(targets) % 2 or min(targets) < 0 or max(targets) > order - 1:
        _degree_cache[key] = []
        return []

    top, weak, levels = _tree_cache.get(d, (0, False, []))
    if not (order < top or (order == top and weak >= deficient)):
        levels = _pruned_levels(order, key, b)
        _tree_cache[d] = (order, deficient, levels)

    out = []
    want_deficient = 1 if deficient else 0
    for code in levels[order]:
        g = Graph(kernels.code_to_rows(code))
        degs = g.degrees()
        if sum(1 for x in degs if x == d - 1) != want_deficient:
            continue
        if sum(1 for x in degs if x == d) != order - want_deficient:
            continue
        if not is_connected(g):
            continue
        out.append(g)
    _degree_cache[key] = out
    return list(out)


def _pruned_levels(
    order: int, target: tuple[int, int, bool] | None, budget: _Budget
) -> list[list[bytes]]:
    """Levels 0..order of the augmentation tree, unpruned when target is
    None and otherwise pruned for the target (order, d, deficient): level m
    holds, in code order, every graph on m vertices, or every one that
    passes `_prune` (module docstring).  Levels up to the highest cached
    `all_graphs` level are read off it; the rest are generated.  Nothing
    is stored here, so an exhausted budget leaves no partial tree behind."""
    seed = _all_cache or {1: [kernels.canon_code([0])]}
    start = min(max(seed), order)
    levels: list[list[bytes]] = [[]]
    for m in range(1, start + 1):
        levels.append(seed[m] if target is None else [
            code for code in seed[m]
            if _prune([r.bit_count() for r in kernels.code_to_rows(code)],
                      *target)
        ])
    for m in range(start, order):
        nxt: list[bytes] = []
        for pcode in levels[m]:
            nxt.extend(_children(pcode, target, budget))
        levels.append(sorted(nxt))
    return levels
