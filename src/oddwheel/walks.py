"""Exact walk counting, the walk-count order, and iterated maximizer
selection over finite families.

All counts are exact Python integers: totals grow like radius**level and
overflow any fixed width well inside desk scale, and the lexicographic
order the selection rests on does not survive a single rounding.

Counts run on the coarsest equitable partition of the graph, derived and
certified exactly by `graphs.quotient` before use: the number of walks
from a vertex is constant on each cell, so with c cells and integer
quotient Q, level l costs the nonzero entries of Q (at most c**2)
big-integer products, W^l = s^T Q^l 1 with s the cell sizes, instead of
one addition per edge end (Godsil & Royle, Algebraic Graph Theory, ch. 9).
The adjacency matrix of a disjoint union is block diagonal, so every
total is the sum of the totals of the connected pieces, in exact ints.
The maximizer selection therefore counts walks once per distinct
connected piece of its family, as placed in its member, and adds the
pieces' totals up per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add

from oddwheel.graphs import (
    EquitablePartition,
    Graph,
    _pieces,
    bits_of,
    classify_degrees,
    components,
    quotient,
)


@dataclass(frozen=True)
class WalkProfile:
    """Totals W^1..W^L of walks of each length, all starting vertices."""

    counts: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.counts)


class Relation(Enum):
    SUCC = "SUCC"
    EQUIV = "EQUIV"
    PREC = "PREC"


@dataclass(frozen=True)
class OrderResult:
    relation: Relation
    witness_level: int | None


def _cell_walks(part: EquitablePartition, levels: int) -> list[list[int]]:
    """Walk counts per cell: entry [l-1][i] is the number of walks of
    length l starting at any vertex of cell i.

    The partition is a certified one from `quotient`: a vertex of cell i
    has quotient[i][j] neighbours in each cell j, so by induction on l its
    count is sum_j quotient[i][j] * (count of length l-1 from cell j):
    the same for every vertex of the cell, and exact in Python ints."""
    if levels < 1:
        raise ValueError("levels >= 1 required")
    rows = [[(j, q) for j, q in enumerate(row) if q] for row in part.quotient]
    cur = [1] * len(rows)
    out = []
    for _ in range(levels):
        cur = [sum([q * cur[j] for j, q in row]) for row in rows]
        out.append(cur)
    return out


def vertex_walks(g: Graph, levels: int) -> list[tuple[int, ...]]:
    """Per-vertex walk counts: entry [l-1][u] is the number of walks of
    length l starting at u (length-1 counts are the degrees)."""
    part = quotient(g)
    return [
        tuple([row[i] for i in part.cell_of])
        for row in _cell_walks(part, levels)
    ]


def _profile_counts(part: EquitablePartition, levels: int) -> tuple[int, ...]:
    """Totals W^1..W^levels from the cell walk counts of the certified
    partition `part`, cross-checked through the splitting identity
    W^l = sum_u w^i(u) * w^(l-i)(u) at i = l // 2, both summed over the
    cells weighted by cell size."""
    table = _cell_walks(part, levels)
    sizes = [cell.bit_count() for cell in part.cells]
    counts = tuple(sum([s * w for s, w in zip(sizes, row)]) for row in table)
    for level in range(2, levels + 1):
        i = level // 2
        split = sum([
            s * a * b
            for s, a, b in zip(sizes, table[i - 1], table[level - i - 1])
        ])
        if split != counts[level - 1]:
            raise RuntimeError(
                f"walk count self-check failed at level {level}: "
                f"{split} != {counts[level - 1]}"
            )
    return counts


def walk_profile(g: Graph, levels: int) -> WalkProfile:
    """Graph totals W^1..W^levels, counted on the coarsest equitable
    partition and cross-checked through the splitting identity."""
    return WalkProfile(_profile_counts(quotient(g), levels))


def closed_form_profile(
    delta: int, n: int, q: int, e12: int, sum_d2sq: int, sum_d1sq: int
) -> tuple[int, int, int, int, int, int]:
    """W^1..W^6 for a graph of order n whose vertices all have degree
    delta except one of degree delta-1, whose deficient component has
    order q and diameter 2.

    N1/N2 are the distance classes from the deficient vertex inside its
    component; e12 counts edges between them, sum_d2sq is the sum over N1
    of squared neighbor counts into N2, sum_d1sq the sum over N2 of
    squared neighbor counts into N1.  Levels 1-4 need none of that
    structure; level 5 subtracts e12 and level 6 brings in the square
    sums.
    """
    if delta < 3 or delta % 2 == 0:
        raise ValueError("delta must be odd and >= 3")
    if q % 2 == 0 or not (delta + 2 <= q <= 2 * delta - 1):
        raise ValueError("deficient component order q must be odd in "
                         f"[delta+2, 2*delta-1], got {q}")
    if n < q:
        raise ValueError("total order n below component order q")
    n2 = q - delta
    lower = max(n2 * (delta + 1 - n2), 2 * (delta - 1))
    if e12 < lower:
        raise ValueError(f"e12={e12} below its lower bound {lower}")
    if e12 > (delta - 1) * n2:
        raise ValueError(f"e12={e12} above |N1|*|N2|")
    d = delta
    w1 = n * d - 1
    w2 = (n - 1) * d * d + (d - 1) ** 2
    w3 = n * d**3 - 3 * d * d + 2 * d
    w4 = n * d**4 - 4 * d**3 + 3 * d * d + d - 1
    w5 = (
        (n - d) * d**5
        + d * (d + 1) * (d - 1) ** 3
        + (d * d - 1) * (d - 1) * (d**3 - 2 * d + 1)
        - e12
    )
    w6 = (
        (n - d) * d**6
        + (d - 1) ** 2 * (d * d - 1) ** 2
        + (d - 1) * (d**3 - 2 * d + 1) ** 2
        - (4 * d - 2) * e12
        + sum_d2sq
        + sum_d1sq
    )
    return (w1, w2, w3, w4, w5, w6)


@dataclass(frozen=True)
class DeficientStructure:
    q: int
    e12: int
    sum_d2sq: int
    sum_d1sq: int


def extract_deficient_structure(g: Graph) -> DeficientStructure:
    """Locate the unique vertex of degree max-1, take its component, and
    measure the N1/N2 structure that the closed forms consume.  Errors
    when the graph is not of the expected one-deficient-vertex shape or
    the component has diameter above 2."""
    cls = classify_degrees(g)
    if not cls.is_nearly_regular or cls.deficient_vertex is None:
        raise ValueError("graph has no unique deficient vertex")
    comp = next(
        c for c in components(g) if cls.deficient_vertex in c.labels
    )
    sub = comp.graph
    u = comp.labels.index(cls.deficient_vertex)
    n1_mask = sub.rows[u]
    all_mask = (1 << sub.order) - 1
    n2_mask = all_mask & ~n1_mask & ~(1 << u)
    for v in bits_of(n2_mask):
        if not (sub.rows[v] & n1_mask):
            raise ValueError("deficient component has diameter above 2")
    e12 = sum((sub.rows[v] & n2_mask).bit_count() for v in bits_of(n1_mask))
    sum_d2sq = sum(
        (sub.rows[v] & n2_mask).bit_count() ** 2 for v in bits_of(n1_mask)
    )
    sum_d1sq = sum(
        (sub.rows[v] & n1_mask).bit_count() ** 2 for v in bits_of(n2_mask)
    )
    return DeficientStructure(sub.order, e12, sum_d2sq, sum_d1sq)


def default_horizon(*graphs: Graph) -> int:
    """Comparison horizon 2 * max order, and at least 2.  Walk totals
    obey a linear recurrence of order at most n (from the characteristic
    polynomial of the adjacency matrix), so two graphs of order <= n whose
    totals agree through 2n agree forever."""
    return 2 * max([1, *(g.order for g in graphs)])


def walk_compare(g1: Graph, g2: Graph, levels: int | None = None) -> OrderResult:
    """Lexicographic comparison of walk profiles through `levels`
    (default: the shared horizon `default_horizon`)."""
    if levels is None:
        levels = default_horizon(g1, g2)
    if levels < 1:
        raise ValueError("levels >= 1 required")
    p1 = walk_profile(g1, levels).counts
    p2 = walk_profile(g2, levels).counts
    for i, (a, b) in enumerate(zip(p1, p2), start=1):
        if a > b:
            return OrderResult(Relation.SUCC, i)
        if a < b:
            return OrderResult(Relation.PREC, i)
    return OrderResult(Relation.EQUIV, None)


@dataclass(frozen=True)
class ExInfinityTrace:
    """Survivors of the selection, the last level at which the survivor
    set shrank, the survivor count after each level, and the walk totals
    W^1..W^levels of every family member, in family order."""

    survivors: tuple[Graph, ...]
    stabilization_level: int
    survivor_counts: tuple[int, ...]
    profiles: tuple[tuple[int, ...], ...]


def ex_infinity_trace(
    family: list[Graph], levels: int | None = None
) -> ExInfinityTrace:
    """Iterated walk-total maximizer selection: at each level keep the
    members maximizing W^level among the current survivors, through
    `levels` (default `default_horizon`).  Records the last level at
    which the survivor set shrank.

    Totals are counted once per connected piece.  W^l of a member is the
    sum of W^l over its pieces (block-diagonal adjacency), so each member
    is split into pieces with `graphs._pieces`, and each piece is keyed
    by its rows as placed in the member.  For a piece of two or more
    vertices the union of those rows is its vertex set, so the key fixes
    the labelled piece; every one-vertex piece is K_1.  A piece not seen
    before is relabelled, refined and certified (`quotient`) and counted
    once (`_profile_counts`, with its splitting self-check); a member's totals
    are the elementwise sum of its pieces', starting from zeros, so an
    order-0 member has all-zero totals.  Members with equal totals share
    one tuple."""
    if not family:
        raise ValueError("family must be non-empty")
    if levels is None:
        levels = default_horizon(*family)
    if levels < 1:
        raise ValueError("levels >= 1 required")
    by_piece: dict[tuple[int, ...], tuple[int, ...]] = {}
    by_total: dict[tuple[int, ...], tuple[int, ...]] = {}
    profiles = []
    for g in family:
        rows = g.rows
        total = [0] * levels
        for mask in _pieces(rows):
            verts = list(bits_of(mask))
            key = tuple([rows[v] for v in verts])
            counts = by_piece.get(key)
            if counts is None:
                counts = by_piece[key] = _profile_counts(
                    quotient(g.subgraph(verts)), levels
                )
            total = list(map(add, total, counts))
        total = tuple(total)
        profiles.append(by_total.setdefault(total, total))
    alive = list(range(len(family)))
    stabilized = 0
    counts = []
    for level in range(1, levels + 1):
        best = max(profiles[i][level - 1] for i in alive)
        nxt = [i for i in alive if profiles[i][level - 1] == best]
        if len(nxt) != len(alive):
            stabilized = level
        alive = nxt
        counts.append(len(alive))
    return ExInfinityTrace(
        survivors=tuple(family[i] for i in alive),
        stabilization_level=stabilized,
        survivor_counts=tuple(counts),
        profiles=tuple(profiles),
    )
