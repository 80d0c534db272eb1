"""Forbidden-subgraph decisions: cycles of a given length, odd wheels,
longest paths, star-freeness.

The cycle and path searches are exact backtracking with bitset pruning; a
configurable node-expansion budget guards pathological inputs, and an
overrun raises BudgetExceededError rather than returning a guess.

Cycle queries first collapse twin classes.  Vertices with identical open
(or closed) neighborhoods are interchangeable inside any subgraph on at
most `cap` vertices, so keeping min(class size, cap) representatives per
class preserves the existence of every such subgraph.  On the near
complete-bipartite candidate graphs this shrinks the search space from
hundreds of vertices to a handful.

The odd-wheel scan reduces each hub's neighbourhood on the hub's
neighbour mask, before any subgraph is built, and builds only the kept
vertices' subgraph, through `Graph.subgraph`.  Reduced graphs are
labelled by decreasing degree: the cycle search anchors each cycle at its
lowest label and then drops that anchor, so a vertex joined to everything
is searched first and then removed instead of widening every later
anchor's paths.
"""

from __future__ import annotations

from oddwheel import kernels
from oddwheel.enumerate import BudgetExceededError, check_budget
from oddwheel.graphs import Graph, bits_of

DEFAULT_BUDGET = 10_000_000


def _reduced(rows, alive: int, cap: int) -> Graph:
    """Twin-reduced subgraph of the graph with adjacency `rows`, induced
    on the vertex mask `alive`.

    Each pass caps one twin family (open, then closed) at `cap` members
    per class, keeping the lowest labels; its keys are the rows masked to
    `alive` as it stood when the pass began.  Passes repeat until nothing
    is dropped.  Only the kept vertices' subgraph is built, labelled by
    decreasing degree in it, ties broken by the original label.
    """
    while True:
        before = alive
        for closed in (False, True):
            counts: dict[int, int] = {}
            drop = 0
            for v in bits_of(alive):
                key = rows[v] & alive
                if closed:
                    key |= 1 << v
                c = counts.get(key, 0)
                if c < cap:
                    counts[key] = c + 1
                else:
                    drop |= 1 << v
            alive &= ~drop
        if alive == before:
            break
    kept = sorted(
        bits_of(alive), key=lambda v: (-(rows[v] & alive).bit_count(), v)
    )
    return Graph(len(rows), tuple(rows)).subgraph(kept)


def _twin_reduce(g: Graph, cap: int) -> Graph:
    return _reduced(g.rows, (1 << g.order) - 1, cap)


def contains_cycle_of_length(
    g: Graph, length: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """True iff g contains a (not necessarily induced) cycle on exactly
    `length` vertices."""
    if length < 3:
        raise ValueError("cycles have at least 3 vertices")
    check_budget(budget)
    reduced = _twin_reduce(g, length)
    result = kernels.has_cycle_of_length(
        reduced.order, list(reduced.rows), length, budget
    )
    if result < 0:
        raise BudgetExceededError(
            f"cycle search budget {budget} exhausted at length {length}"
        )
    return bool(result)


def contains_odd_wheel(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff g contains W_{2k+1}, i.e. some vertex whose neighborhood
    induces a cycle on 2k vertices.

    Hubs are taken in decreasing degree order; hubs of degree below 2k
    cannot work.  Each hub's neighbourhood is twin-reduced on its
    neighbour mask and labelled by degree, and each distinct reduced
    neighbourhood is searched once per call: the search is
    deterministic, so a repeat has the same answer or the same overrun.
    The reduction depends only on the rows, the neighbour mask and the
    cap, so a hub whose neighbour mask was already reduced is skipped.
    The budget applies per distinct reduced neighbourhood searched: each
    search gets `budget` node expansions of its own, so a full scan may
    expand up to budget times the number of distinct neighbourhoods.  A
    budget overrun on one neighbourhood is only an error when no other
    hub certifies containment.
    """
    if k < 2:
        raise ValueError("odd wheels need k >= 2")
    check_budget(budget)
    length = 2 * k
    hubs = sorted(range(g.order), key=g.degree, reverse=True)
    exhausted = False
    reduced: set[int] = set()
    searched: set[tuple[int, ...]] = set()
    for v in hubs:
        if g.degree(v) < length:
            break
        mask = g.rows[v]
        if mask in reduced:
            continue
        reduced.add(mask)
        nbhd = _reduced(g.rows, mask, length)
        if nbhd.rows in searched:
            continue
        searched.add(nbhd.rows)
        result = kernels.has_cycle_of_length(
            nbhd.order, list(nbhd.rows), length, budget
        )
        if result > 0:
            return True
        if result < 0:
            exhausted = True
    if exhausted:
        raise BudgetExceededError(
            f"odd-wheel search budget {budget} exhausted (k={k})"
        )
    return False


def longest_path_order(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Maximum number of vertices on a simple path of g."""
    if g.order < 1:
        raise ValueError("longest path needs at least one vertex")
    check_budget(budget)
    result = kernels.longest_path_order(g.order, list(g.rows), budget)
    if result < 0:
        raise BudgetExceededError(f"path search budget {budget} exhausted")
    return result


def is_star_free(g: Graph, k: int) -> bool:
    """True iff g contains no K_{1,k}, i.e. max degree <= k-1."""
    if k < 1:
        raise ValueError("k >= 1 required")
    return g.max_degree() <= k - 1
