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
"""

from __future__ import annotations

from oddwheel import kernels
from oddwheel.enumerate import BudgetExceededError
from oddwheel.graphs import Graph

DEFAULT_BUDGET = 10_000_000


def _drop_twin_surplus(rows: list[int], cap: int, closed: bool) -> list[int]:
    """One capping pass over one twin family (open or closed classes)."""
    groups: dict[int, list[int]] = {}
    for v in range(len(rows)):
        key = rows[v] | (1 << v) if closed else rows[v]
        groups.setdefault(key, []).append(v)
    kept = []
    for v in range(len(rows)):
        members = groups[rows[v] | (1 << v) if closed else rows[v]]
        if members.index(v) < cap:
            kept.append(v)
    if len(kept) == len(rows):
        return rows
    pos = {v: i for i, v in enumerate(kept)}
    new_rows = []
    for v in kept:
        r = 0
        m = rows[v]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            if w in pos:
                r |= 1 << pos[w]
        new_rows.append(r)
    return new_rows


def _twin_reduce(g: Graph, cap: int) -> Graph:
    rows = list(g.rows)
    while True:
        n = len(rows)
        rows = _drop_twin_surplus(rows, cap, closed=False)
        rows = _drop_twin_surplus(rows, cap, closed=True)
        if len(rows) == n:
            return Graph(len(rows), tuple(rows))


def contains_cycle_of_length(
    g: Graph, length: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """True iff g contains a (not necessarily induced) cycle on exactly
    `length` vertices."""
    if length < 3:
        raise ValueError("cycles have at least 3 vertices")
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

    Hubs are scanned in decreasing degree order; hubs of degree below 2k
    cannot work.  A hub with the same neighbourhood as a hub already
    scanned is skipped: its neighbourhood subgraph, and so its answer or
    its budget overrun, is the same.  The budget applies per scanned hub:
    each hub's cycle search gets `budget` node expansions of its own, so
    a full scan may expand up to budget times the number of hubs scanned.
    A budget overrun on one hub is only an error when no other hub
    certifies containment.
    """
    if k < 2:
        raise ValueError("odd wheels need k >= 2")
    hubs = sorted(range(g.order), key=g.degree, reverse=True)
    exhausted = False
    scanned: set[int] = set()
    for v in hubs:
        if g.degree(v) < 2 * k:
            break
        if g.rows[v] in scanned:
            continue
        scanned.add(g.rows[v])
        nbhd = g.subgraph(g.neighbors(v))
        try:
            if contains_cycle_of_length(nbhd, 2 * k, budget):
                return True
        except BudgetExceededError:
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
    result = kernels.longest_path_order(g.order, list(g.rows), budget)
    if result < 0:
        raise BudgetExceededError(f"path search budget {budget} exhausted")
    return result


def is_star_free(g: Graph, k: int) -> bool:
    """True iff g contains no K_{1,k}, i.e. max degree <= k-1."""
    if k < 1:
        raise ValueError("k >= 1 required")
    return g.max_degree() <= k - 1
