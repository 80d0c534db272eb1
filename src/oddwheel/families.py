"""Named graph constructions and the finite families they generate.

Covers the primitive graphs (complete, cycle, matching, empty), odd
wheels, the one-deficient core component K1 v complement(matching) v K2,
the families of (nearly) regular graphs with bounded component order, and
`candidate(k, n)`, the one builder of the candidates whose spectral radii
the verification harness compares: K_{|L|,|R|} with a maximum matching in
each side at k = 2, and a U member in L and one edge in R above.

Every family member, and every standard member, is a head piece plus
d-regular fillers: connected d-regular pieces of orders d+1..2d on the
rest of its order.  One table of the totals those pieces cover exactly
(`_covered_totals`) decides which piece orders a filler may use, for the
enumeration and for the one deterministic filler, `regular_filler`.
"""

from __future__ import annotations

from dataclasses import dataclass

from oddwheel import kernels
from oddwheel.enumerate import connected_with_degrees, graph_code, union_code
from oddwheel.graphs import (
    Graph,
    GraphError,
    build_graph,
    complement,
    disjoint_union,
    join,
)
from oddwheel.kernels import _Budget

U_KIND = "U"
V_KIND = "V"
G_KIND = "GFAM"


def _matching(m: int) -> list[tuple[int, int]]:
    """The edges of a maximum matching on m vertices."""
    return [(2 * i, 2 * i + 1) for i in range(m // 2)]


def primitive(kind: str, m: int) -> Graph:
    """complete/cycle/matching/empty graph on m labeled vertices."""
    if m < 0:
        raise ValueError("order must be non-negative")
    if kind == "complete":
        return build_graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])
    if kind == "cycle":
        if m < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return build_graph(m, [(i, (i + 1) % m) for i in range(m)])
    if kind == "matching":
        if m % 2:
            raise ValueError("perfect matching needs an even order")
        return build_graph(m, _matching(m))
    if kind == "empty":
        return build_graph(m, [])
    raise ValueError(f"unknown primitive kind {kind!r}")


def odd_wheel(k: int) -> Graph:
    """Hub joined to a cycle of order 2k; the forbidden subgraph W_{2k+1}."""
    if k < 2:
        raise ValueError("odd wheel needs k >= 2")
    return join([primitive("complete", 1), primitive("cycle", 2 * k)])


def core_component(k: int) -> Graph:
    """K1 v complement(M_{k-2}) v K2 on k+1 vertices (chain join).

    The unique vertex of degree k-2 is vertex 0; all others have degree
    k-1.  Vertex layout: 0 the hub-side single vertex, 1..k-2 the
    matching complement, k-1 and k the edge pair.
    """
    if k < 4 or k % 2:
        raise ValueError("core component needs even k >= 4")
    return join(
        [
            primitive("complete", 1),
            complement(primitive("matching", k - 2)),
            primitive("complete", 2),
        ]
    )


def circulant(m: int, d: int) -> Graph:
    """Connected d-regular circulant on m vertices (d < m; d*m even)."""
    if d >= m or d < 0 or (d * m) % 2:
        raise ValueError(f"no d-regular graph on {m} vertices for d={d}")
    edges = set()
    half = d // 2
    for v in range(m):
        for off in range(1, half + 1):
            edges.add(tuple(sorted((v, (v + off) % m))))
    if d % 2:
        for v in range(m // 2):
            edges.add(tuple(sorted((v, v + m // 2))))
    return build_graph(m, sorted(edges))


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of a finite family of (nearly) regular graphs.

    kind U: (k-1)-regular or nearly (k-1)-regular graphs in which every
    component has at most 2k-2 vertices (degree_param = k >= 3).
    kind V: nearly (k-1)-regular graphs with the core component fixed to
    core_component(k) (degree_param = k >= 4 even, order odd).
    kind GFAM: graphs with all degrees Delta except one vertex of degree
    Delta-1 and components of order at most 2*Delta (degree_param =
    Delta odd >= 3, order odd >= 3*Delta+4).
    """

    kind: str
    degree_param: int
    order: int

    def validate(self) -> None:
        k = self.degree_param
        n = self.order
        if self.kind == U_KIND:
            if k < 3:
                raise ValueError("U family needs degree_param >= 3")
        elif self.kind == V_KIND:
            if k < 4 or k % 2:
                raise ValueError("V family needs even degree_param >= 4")
            if n % 2 == 0 or n < k + 1:
                raise ValueError("V family needs odd order >= degree_param+1")
        elif self.kind == G_KIND:
            if k < 3 or k % 2 == 0:
                raise ValueError("GFAM needs odd degree_param >= 3")
            if n % 2 == 0 or n < 3 * k + 4:
                raise ValueError("GFAM needs odd order >= 3*degree_param+4")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if n < 1:
            raise ValueError("order must be positive")
        if n > 255:
            # Members are ordered by canonical codes, which hold one order
            # byte; reject before enumerating rather than after.
            raise ValueError(
                f"family order {n} (a candidate's side size) exceeds 255, "
                f"the largest order a canonical code holds"
            )


def _regular_component_orders(d: int) -> list[int]:
    # d-regular components of order m exist iff d*m even and m >= d+1;
    # the families cap components at 2d vertices.
    return [m for m in range(d + 1, 2 * d + 1) if (d * m) % 2 == 0]


def _covered_totals(total: int, d: int) -> dict[int, int]:
    """The totals 0..total that connected d-regular pieces of orders
    d+1..2d cover exactly, each mapped to the smallest piece order that
    leaves a covered rest (0 for the total 0)."""
    orders = _regular_component_orders(d)
    covered = {0: 0}
    for t in range(1, total + 1):
        for m in orders:
            if t - m in covered:
                covered[t] = m
                break
    return covered


def _cover_orders(rest: int, d: int, covered: dict[int, int]) -> list[int]:
    """The piece orders that some cover of `rest` uses, largest first;
    `covered` must reach `rest`."""
    return [m for m in reversed(_regular_component_orders(d))
            if rest - m in covered]


def _coded(g: Graph) -> tuple[bytes, Graph]:
    """A canonically labelled graph with its code, read off without
    re-canonicalizing."""
    return kernels.pack_code(g.rows), g


def _regular_multisets(
    total: int, d: int, covered: dict[int, int], budget: int | None = None
) -> list[list[tuple[bytes, Graph]]]:
    """All multisets of connected d-regular pieces (orders <= 2d) covering
    `total` vertices, one list of (code, Graph) per multiset.  The pieces
    are asked for largest order first: its pruned tree answers the
    smaller ones."""
    pieces = [
        (m, _coded(g))
        for m in _cover_orders(total, d, covered)
        for g in connected_with_degrees(m, d, False, budget=budget)
    ]
    out: list[list[tuple[bytes, Graph]]] = []

    def rec(rest: int, start: int, acc: list[tuple[bytes, Graph]]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for i in range(start, len(pieces)):
            m, piece = pieces[i]
            if rest - m in covered:
                rec(rest - m, i, acc + [piece])

    rec(total, 0, [])
    return out


def _assemble(
    head: tuple[bytes, Graph] | None, regulars: list[tuple[bytes, Graph]]
) -> tuple[list[bytes], Graph]:
    """A member from (code, connected piece) pairs: the head piece first,
    then the regular ones by code.  Returns the pieces' codes with it;
    their `union_code` is the member's `graph_code` (orders <= 255)."""
    parts = ([] if head is None else [head]) + sorted(
        regulars, key=lambda p: p[0]
    )
    return [c for c, _ in parts], disjoint_union([g for _, g in parts])


def enumerate_family(spec: FamilySpec, budget: int | None = None) -> list[Graph]:
    """All family members up to isomorphism, ordered by canonical form.

    A member is a head piece plus d-regular fillers (d = k - 1 for U and
    V, Delta for GFAM): the head is the core component for V, nothing at
    an even degree sum, else each connected piece with one vertex of
    degree d - 1.

    Parameters that simply admit no member give an empty list; invalid
    FamilySpec combinations and a negative budget raise ValueError, the
    budget even when the family needs no enumeration.  Each enumeration
    call gets the whole budget.
    """
    spec.validate()
    _Budget(budget)
    n = spec.order
    d = spec.degree_param - (spec.kind != G_KIND)
    # GFAM's odd order and odd Delta make every degree sum odd.
    deficient = spec.kind != V_KIND and (d * n) % 2 == 1
    if spec.kind == V_KIND:
        core = core_component(spec.degree_param)
        head_orders = [core.order]
    elif deficient:  # then d is odd, and so is the head's order
        head_orders = [q for q in range(d + 2, 2 * d + 1, 2) if q <= n]
    else:
        head_orders = [0]
    covered = _covered_totals(n, d)
    # Ask for the largest degree target first: its pruned tree answers
    # every smaller one (`enumerate` module docstring).  At equal order the
    # deficient target, whose tree is weaker, wins.
    targets = [(q, True) for q in head_orders if deficient] + [
        (m, False) for q in head_orders for m in _cover_orders(n - q, d, covered)
    ]
    if targets:
        top, weak = max(targets)
        connected_with_degrees(top, d, weak, budget=budget)

    members: list[tuple[list[bytes], Graph]] = []
    for q in head_orders:
        if deficient:
            heads = [_coded(g) for g in
                     connected_with_degrees(q, d, True, budget=budget)]
        else:
            heads = [(graph_code(core), core)] if spec.kind == V_KIND else [None]
        fillers = _regular_multisets(n - q, d, covered, budget)
        members += [_assemble(head, regs) for head in heads for regs in fillers]
    members.sort(key=lambda m: union_code(m[0]))
    return [g for _, g in members]


@dataclass(frozen=True)
class CandidateSpec:
    """`candidate(k, n, n/2 + s, inner, r_edge)` at even n."""

    n: int
    k: int
    s: int
    inner: Graph
    r_edge: bool


def bipartite_candidate(h_left: Graph, h_right: Graph) -> Graph:
    """K_{|L|,|R|} with `h_left` on L (vertices 0..|L|-1) and `h_right` on
    R (the rest), each keeping its labels: the join of the two sides, whose
    orders are the side sizes.  Every candidate is built here."""
    if not h_left.order or not h_right.order:
        raise ValueError("both sides must be non-empty")
    return join([h_left, h_right])


def spex_candidate(spec: CandidateSpec) -> Graph:
    if spec.n % 2:
        raise ValueError(
            "spex_candidate uses |L| = n/2 + s; build odd orders through "
            "candidate"
        )
    return candidate(
        spec.k, spec.n, spec.n // 2 + spec.s, spec.inner, spec.r_edge
    )


def check_sides(k: int, n: int, left: int, r_edge: bool) -> None:
    """Raise ValueError unless `candidate(k, n, left, r_edge=r_edge)` has
    room on both sides: |L| and |R| = n - |L| non-empty, and |R| >= 2 for
    the R edge.  Builds no member."""
    right = n - left
    if left < 1 or right < 1:
        raise ValueError(
            f"both sides must be non-empty; n={n} and |L| = {left} leave "
            f"|R| = {right}"
        )
    if r_edge and k != 2 and right < 2:
        raise ValueError(
            f"the R edge needs |R| >= 2; n={n} and |L| = {left} leave "
            f"|R| = {right}"
        )


def candidate(k: int, n: int, left: int | None = None,
              member: Graph | None = None, r_edge: bool = True) -> Graph:
    """The candidate `bipartite_candidate(H_L, H_R)` for W_{2k+1} on n
    vertices, its sides checked (`check_sides`) before any member is built.

    H_L is `member`, else a maximum matching at k = 2 and
    `standard_member(U_KIND, k, |L|)` above.  |L| is the member's order,
    which `left`, if also given, must equal; else `left`; else, at n >= 4,
    `auto_left_sizes(n, k)[0]`.  H_R, on the other n - |L| vertices, is
    edgeless without `r_edge`, else a maximum matching at k = 2 and the
    edge (0, 1) above."""
    if member is not None:
        if left is not None and left != member.order:
            raise GraphError(
                f"member has order {member.order}, expected |L| = {left}"
            )
        left = member.order
    elif left is None:
        if n < 4:
            raise ValueError("candidate needs at least 4 vertices")
        left = auto_left_sizes(n, k)[0]
    check_sides(k, n, left, r_edge)
    if member is None:
        member = (build_graph(left, _matching(left)) if k == 2
                  else standard_member(U_KIND, k, left))
    edges = (_matching(n - left) if k == 2 else [(0, 1)]) if r_edge else []
    return bipartite_candidate(member, build_graph(n - left, edges))


def auto_left_sizes(n: int, k: int) -> list[int]:
    """Candidate side sizes |L| for the extremal graphs, by residue of n.

    Entry 0 is the predicted side.  Entry 1, present only for even k >= 4
    and n = 2 mod 4, is its competitor: there n/2 carries a nearly
    regular embedding and n/2+1 a regular one.
    """
    if k < 2:
        raise ValueError("k >= 2 required")
    if k == 2:
        return [n // 2 + 1] if n % 4 == 2 else [(n + 1) // 2]
    if k % 2 == 1:
        return [(n + 1) // 2]
    if n % 4 in (0, 1):
        return [n // 2]
    if n % 4 == 2:
        return [n // 2, n // 2 + 1]
    return [(n + 1) // 2]


def regular_filler(total: int, d: int) -> list[Graph]:
    """Deterministic multiset of connected d-regular circulant components
    with orders in [d+1, 2d] covering `total` vertices (empty list for
    total 0); components of equal order are one shared graph.  Raises
    when no decomposition exists."""
    covered = _covered_totals(total, d)
    if total not in covered:
        raise ValueError(
            f"{total} vertices cannot be covered by {d}-regular components"
        )
    # The list holds the table's steps down from `total` last first.
    orders: list[int] = []
    while total:
        orders.append(covered[total])
        total -= orders[-1]
    built = {m: circulant(m, d) for m in set(orders)}
    return [built[m] for m in reversed(orders)]


def standard_member(kind: str, k: int, order: int) -> Graph:
    """One deterministic family member without full enumeration; used for
    large candidate constructions where any member serves.

    A U member at even degree sum is the (k-1)-regular circulant filler
    alone; at odd degree sum it is `core_component(k)` and the filler on
    the rest.  A V member is that same graph: V asks for an odd order and
    an even k, which make the degree sum odd, and it validates that."""
    if kind not in (U_KIND, V_KIND):
        raise ValueError("standard_member supports kinds U and V")
    d = k - 1
    core: Graph | None = None
    if kind == V_KIND or (d * order) % 2:
        core = core_component(k)
        if kind == V_KIND and (order % 2 == 0 or order < core.order):
            raise ValueError("V member needs odd order >= k+1")
        if order < core.order:
            raise ValueError("no nearly-regular member this small")
    filler = regular_filler(order - (0 if core is None else core.order), d)
    # The core first, then the fillers by code, as `_assemble` orders them.
    # A code starts with its order byte, and fillers of one order are one
    # shared graph, so the order sorts them as their codes do.  No member
    # code is formed: orders above 255 are built here and the format stops
    # there.
    pieces = sorted(filler, key=lambda g: g.order)
    return disjoint_union(([] if core is None else [core]) + pieces)
