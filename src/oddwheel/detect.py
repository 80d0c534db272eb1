"""Forbidden-subgraph decisions: cycles of a given length, odd wheels,
longest paths, star-freeness.

The cycle and path searches are exact; a node-expansion budget guards
pathological inputs, and an overrun raises BudgetExceededError rather
than returning a guess.

There is one twin mechanism: `graphs.twin_classes` on a vertex set,
and a cut of each class to its lowest `cap` members (`_above_lowest`).
Twins are interchangeable inside any subgraph on at most `cap`
vertices, so the cut keeps every such subgraph.

A cycle query, and each odd-wheel hub's neighbourhood, is reduced to a
fixed point (`_reduced`): classes of the graph induced on what is left,
cut, until nothing drops.  The kept set does not depend on the order of
the drops: a vertex with `cap` lower-labelled twins still has them
after any other vertex is dropped, since a dropped twin of it leaves
its own `cap` lower twins behind.  Only the kept vertices' subgraph is
built, labelled by decreasing degree: the cycle search anchors each
cycle at its lowest label and then drops that anchor, so a vertex
joined to everything is searched first and then removed instead of
widening every later anchor's paths.

The odd-wheel scan first cuts the whole graph once, with cap 2k + 1: a
wheel W_{2k+1} has 2k + 1 vertices, so the kept graph holds one iff the
graph does.  Then one hub per class is scanned, its lowest member.
Swapping two kept twins is an automorphism of the graph that maps the
kept set to itself, so it is one of the kept graph too, and it maps the
wheels centred at one twin onto those centred at the other.  On the
candidates, K_{L,R} with sparse graphs in the parts, R is one class cut
to 2k + 1 vertices, so each L hub's neighbourhood has O(k) vertices
however large n is, and each K_k filler in L is one class with one hub.

Whether a reduced graph holds C_l is decided down its cotree (Corneil,
Lerchs and Stewart Burlingham, "Complement reducible graphs", Discrete
Appl. Math. 3 (1981)).  A disconnected graph holds C_l iff a connected
piece does.  A join A_1 v ... v A_m (the complement is disconnected)
holds C_l iff one part does, or a cycle crosses the parts: its runs in
A_i form a linear forest on a_i vertices, and any runs of different
parts can be chained, so such a cycle exists iff some sizes a_i have
sum l, a_i <= |A_i|, at least two a_i > 0, and m_i(a_i) <= l - a_i
for the (at most one) a_i above l/2, where m_i(a) is the fewest paths
of a linear forest of A_i covering exactly a vertices.  Without an a_i
above l/2 this asks only sum min(|A_i|, floor(l/2)) >= l.  Path-cover
profiles m(0..top) follow the cotree as in the cograph path-cover
algorithm of Lin, Olariu and Pruesse (Comput. Math. Appl. 30 (1995)):
a disjoint union takes the min-plus convolution of its pieces'
profiles, a join X v Y has m(b + c) = min max(1, m_X(b) - c,
m_Y(c) - b) (m_X(b) when c = 0, m_Y(c) when b = 0), and a prime piece
(connected, with connected complement) gets an exact search over
(covered set, path end) states.  The backtracking kernel decides only
a prime piece's cycle question, and a join whose needed profile
search could outgrow `PROFILE_STATES`.  Graphs of order at most
`KERNEL_ORDER` go to the kernel whole: on them the search is cheaper
than the decomposition.

One budget covers a whole `contains_cycle_of_length` or
`contains_odd_wheel` call: every kernel node expansion and every state
a prime-piece profile search expands draws on it.
"""

from __future__ import annotations

from math import comb

from oddwheel import kernels
from oddwheel.graphs import Graph, _pieces, bits_of, twin_classes
from oddwheel.kernels import BudgetExceededError, _Budget

DEFAULT_BUDGET = 10_000_000

# Up to this order the backtracking kernel decides a reduced graph whole.
# The hub neighbourhoods of order-7 graphs have order 4 to 6; there a
# kernel call takes about 4 us and the cotree rule about 15 us, while on
# the order 12-27 neighbourhoods of the n = 50 candidates the rule is 7
# to 140 times faster (benchmarks/bench_kernels.py).
KERNEL_ORDER = 7

# The most states one level of a prime piece's profile search may hold.
# Level a of a p-vertex piece holds at most C(p, a) * a states, so the
# search runs only when no level up to `top` can pass this; otherwise the
# join that needs the profile is searched by the kernel whole, in linear
# memory.  Every piece of up to 14 vertices fits at any `top`.
PROFILE_STATES = 50_000


class _LargePrime(Exception):
    """A needed profile's search could pass PROFILE_STATES."""


def _reduced(rows, alive: int, cap: int) -> Graph:
    """The graph with adjacency `rows` induced on the vertex mask `alive`,
    its twin classes cut to `cap` members until nothing drops (module
    docstring), labelled by degree (`_by_degree`).  Nothing drops from
    `cap` vertices or fewer."""
    while alive.bit_count() > cap:
        cut = _above_lowest(twin_classes(rows, alive).masks, cap)
        if not cut:
            break
        alive ^= cut
    return _by_degree(rows, alive)


def _above_lowest(masks, cap: int) -> int:
    """The members of each class in `masks` above its lowest `cap`, as one
    vertex mask."""
    out = 0
    for cls in masks:
        if cls.bit_count() > cap:
            for _ in range(cap):
                cls &= cls - 1
            out |= cls
    return out


def _by_degree(rows, mask: int) -> Graph:
    """The subgraph induced on `mask`, labelled by decreasing degree in
    it, ties broken by the original label."""
    kept = sorted(
        bits_of(mask), key=lambda v: (-(rows[v] & mask).bit_count(), v)
    )
    return Graph(tuple(rows)).subgraph(kept)


def _twin_reduce(g: Graph, cap: int) -> Graph:
    return _reduced(g.rows, (1 << g.order) - 1, cap)


def _search(rows, mask: int, length: int, budget: _Budget) -> int:
    """The kernel's verdict on the piece induced on `mask`, labelled by
    decreasing degree in the piece (`_by_degree`)."""
    if mask != (1 << len(rows)) - 1:
        rows = _by_degree(rows, mask).rows
    return kernels.has_cycle_of_length(rows, length, budget)


def _cycle(rows, mask: int, length: int, budget: _Budget) -> int:
    """1 if the graph induced on `mask` holds a cycle on exactly `length`
    vertices, 0 if not, -1 if the budget ran out first (module
    docstring: the cotree rule).  A cycle lies in one component, and in
    a join it crosses the parts or lies in one part, so the pieces still
    to decide are kept on a stack; the answer is 1 if any piece holds
    the cycle."""
    verdict = 0
    todo = [mask]
    while todo:
        mask = todo.pop()
        if mask.bit_count() < length:
            continue
        comps = list(_pieces(rows, mask))
        if len(comps) > 1:
            todo.extend(comps)
            continue
        parts = list(_pieces(rows, mask, co=True))
        if len(parts) == 1:
            result = _search(rows, mask, length, budget)
        else:
            try:
                result = _crossing(rows, parts, length, budget)
                todo.extend(parts)
            except _LargePrime:
                result = _search(rows, mask, length, budget)
        if result > 0:
            return 1
        verdict = min(verdict, result)
    return verdict


def _crossing(rows, parts: list[int], length: int, budget: _Budget) -> int:
    """Whether a cycle on `length` vertices meets two or more of the
    joined `parts` (1/0/-1, as `_cycle`)."""
    half = length // 2
    sizes = [p.bit_count() for p in parts]
    if sum(min(s, half) for s in sizes) >= length:
        return 1
    total = sum(sizes)
    verdict = 0
    for part, size in zip(parts, sizes):
        # a = the part's share, above l/2; the others supply l - a >= 1
        lo = max(half + 1, length - (total - size))
        hi = min(size, length - 1)
        if lo > hi:
            continue
        # The bound first: it needs no search, and rules out most parts.
        for search in (None, budget):
            m = _profile(rows, part, hi, search)
            if m is None:
                verdict = -1
                break
            if not any(m[a] <= length - a for a in range(lo, hi + 1)):
                break
        else:
            return 1
    return verdict


def _profile(
    rows, mask: int, top: int, budget: _Budget | None
) -> list[int] | None:
    """m(a) for a = 0..min(|mask|, top): the fewest paths of a linear
    forest covering exactly a vertices of the graph induced on `mask`;
    None if the budget ran out.  With no budget, a lower bound on m
    without any search: each prime piece counts as complete, one path
    through any number of its vertices (union and join only combine
    the pieces' values monotonically).

    The cotree is walked without recursion, which a chain of joins and
    unions as deep as the graph is large would exhaust: nodes are listed
    parents first, then folded children first."""
    nodes = []  # (mask, pieces, joined); one piece for a vertex or prime
    todo = [mask]
    while todo:
        node = todo.pop()
        pieces = list(_pieces(rows, node))
        joined = len(pieces) == 1
        if joined and node & (node - 1):
            pieces = list(_pieces(rows, node, co=True))
        nodes.append((node, pieces, joined))
        if len(pieces) > 1:
            todo.extend(pieces)
    done: dict[int, list[int]] = {}
    for node, pieces, joined in reversed(nodes):
        size = node.bit_count()
        if len(pieces) > 1:
            m = done.pop(pieces[0])
            for piece in pieces[1:]:
                m = _combine(m, done.pop(piece), top, joined)
        elif size == 1:
            m = [0, 1]
        elif budget is None:
            m = [0] + [1] * min(size, top)
        elif max(
            comb(size, a) * a for a in range(1, min(size, top) + 1)
        ) > PROFILE_STATES:
            raise _LargePrime
        else:
            m = _prime_profile(rows, node, top, budget)
            if m is None:
                return None
        done[node] = m
    return done[mask]


def _combine(x: list[int], y: list[int], top: int, joined: bool) -> list[int]:
    """The profile of the disjoint union of X and Y (min-plus
    convolution) or of their join, cut at `top` vertices.  In the join,
    b > 0 vertices of X in p paths and c > 0 of Y in q paths chain into
    max(1, p - c, q - b) paths, and no fewer."""
    out = [top + 1] * min(len(x) + len(y) - 1, top + 1)
    for b, mb in enumerate(x):
        for c in range(min(len(y), len(out) - b)):
            if joined and b and c:
                m = max(1, mb - c, y[c] - b)
            else:
                m = mb + y[c]
            if m < out[b + c]:
                out[b + c] = m
    return out


def _prime_profile(rows, mask: int, top: int, budget: _Budget):
    """`_profile` of a prime piece by exact search: level a holds, per
    (covered set of a vertices, end of the last path), the fewest paths;
    a state grows by a neighbour of its end or by a new path."""
    level = {(1 << v, v): 1 for v in bits_of(mask)}
    out = [0, 1]
    for _ in range(min(mask.bit_count(), top) - 1):
        if not budget.spend(len(level)):
            return None
        nxt: dict[tuple[int, int], int] = {}
        fewest: dict[int, int] = {}
        for (covered, end), paths in level.items():
            free = mask & ~covered
            for w in bits_of(free & rows[end]):
                key = (covered | 1 << w, w)
                if nxt.get(key, paths + 1) > paths:
                    nxt[key] = paths
            if fewest.get(covered, paths + 1) > paths:
                fewest[covered] = paths
        for covered, paths in fewest.items():
            for w in bits_of(mask & ~covered):
                key = (covered | 1 << w, w)
                if nxt.get(key, paths + 2) > paths + 1:
                    nxt[key] = paths + 1
        level = nxt
        out.append(min(level.values()))
    return out


def _decide(g: Graph, length: int, budget: _Budget) -> int:
    """1/0/-1 (as the kernel) for C_length in a reduced graph."""
    if g.order <= KERNEL_ORDER:
        return kernels.has_cycle_of_length(g.rows, length, budget)
    return _cycle(g.rows, (1 << g.order) - 1, length, budget)


def contains_cycle_of_length(
    g: Graph, length: int, budget: int | None = DEFAULT_BUDGET
) -> bool:
    """True iff g contains a (not necessarily induced) cycle on exactly
    `length` vertices."""
    if length < 3:
        raise ValueError("cycles have at least 3 vertices")
    left = _Budget(budget)
    result = _decide(_twin_reduce(g, length), length, left)
    if result < 0:
        raise BudgetExceededError(
            f"cycle search budget {budget} exhausted at length {length}"
        )
    return bool(result)


def contains_odd_wheel(
    g: Graph, k: int, budget: int | None = DEFAULT_BUDGET
) -> bool:
    """True iff g contains W_{2k+1}, i.e. some vertex whose neighborhood
    induces a cycle on 2k vertices.

    The scan runs on g with each twin class cut to its lowest 2k + 1
    members, and takes one hub per class (module docstring).  Hubs are
    taken in decreasing degree order; hubs of degree below 2k cannot
    work.  Each hub's neighbourhood is twin-reduced on its neighbour mask
    and labelled by degree, and each distinct reduced neighbourhood is
    decided once per call: the decision is deterministic, so a repeat
    has the same answer.  The budget covers the whole call: all searches
    draw on one count of `budget` node expansions.  An overrun is only an
    error when no hub certifies containment; once the budget is spent,
    neighbourhoods that still need a search overrun at once, but the
    others are still decided.
    """
    if k < 2:
        raise ValueError("odd wheels need k >= 2")
    left = _Budget(budget)
    length = 2 * k
    rows = g.rows
    if max(map(int.bit_count, rows), default=0) < length:
        return False  # no hub: nothing to scan, no classes needed
    masks = twin_classes(rows).masks
    kept = ~_above_lowest(masks, length + 1)
    # Each class's lowest vertex; stable, so ties keep label order.
    hubs = sorted(
        [rows[(cls & -cls).bit_length() - 1] & kept for cls in masks],
        key=int.bit_count,
        reverse=True,
    )
    exhausted = False
    decided: set[tuple[int, ...]] = set()
    for mask in hubs:
        if mask.bit_count() < length:
            break
        nbhd = _reduced(rows, mask, length)
        if nbhd.rows in decided:
            continue
        decided.add(nbhd.rows)
        result = _decide(nbhd, length, left)
        if result > 0:
            return True
        if result < 0:
            exhausted = True
    if exhausted:
        raise BudgetExceededError(
            f"odd-wheel search budget {budget} exhausted (k={k})"
        )
    return False


def longest_path_order(g: Graph, budget: int | None = DEFAULT_BUDGET) -> int:
    """Maximum number of vertices on a simple path of g."""
    if g.order < 1:
        raise ValueError("longest path needs at least one vertex")
    result = kernels.longest_path_order(g.rows, _Budget(budget))
    if result < 0:
        raise BudgetExceededError(f"path search budget {budget} exhausted")
    return result


def is_star_free(g: Graph, k: int) -> bool:
    """True iff g contains no K_{1,k}, i.e. max degree <= k-1."""
    if k < 1:
        raise ValueError("k >= 1 required")
    return g.max_degree() <= k - 1
