import hashlib
import random
import re

import pytest

from oddwheel import enumerate as enum_mod
from oddwheel import families as families_mod
from oddwheel import verify as verify_mod
from oddwheel.enumerate import graph_code
from oddwheel.formats import encode_graph6
from oddwheel.families import (
    U_KIND,
    V_KIND,
    CandidateSpec,
    FamilySpec,
    auto_left_sizes,
    bipartite_candidate,
    candidate,
    check_sides,
    circulant,
    core_component,
    enumerate_family,
    odd_wheel,
    primitive,
    regular_filler,
    spex_candidate,
    standard_member,
)
from oddwheel.graphs import (
    Graph,
    GraphError,
    build_graph,
    classify_degrees,
    complement,
    components,
    disjoint_union,
    is_connected,
    join,
)
from oddwheel.spectral import claim1_comparison


def test_primitives():
    assert primitive("cycle", 4).edge_count == 4
    assert all(d == 2 for d in primitive("cycle", 4).degrees())
    assert primitive("matching", 6).edge_count == 3
    assert primitive("complete", 5).edge_count == 10
    assert primitive("empty", 3).edge_count == 0
    with pytest.raises(ValueError):
        primitive("matching", 5)
    with pytest.raises(ValueError):
        primitive("cycle", 2)
    with pytest.raises(ValueError):
        primitive("torus", 4)


def test_odd_wheel_shapes():
    w5 = odd_wheel(2)
    assert w5.order == 5 and w5.edge_count == 8
    w7 = odd_wheel(3)
    assert max(w7.degrees()) == 6
    w9 = odd_wheel(4)
    assert w9.order == 9 and w9.edge_count == 16
    with pytest.raises(ValueError):
        odd_wheel(1)


def test_core_component_degree_sequences():
    c4 = core_component(4)
    assert c4.order == 5 and sorted(c4.degrees()) == [2, 3, 3, 3, 3]
    c6 = core_component(6)
    assert c6.order == 7 and sorted(c6.degrees()) == [4, 5, 5, 5, 5, 5, 5]
    with pytest.raises(ValueError):
        core_component(5)
    # unique graph with its degree sequence on 5 vertices: complement check
    comp = complement(c4)
    assert sorted(comp.degrees()) == [1, 1, 1, 1, 2]


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("U", 2, 8).validate()
    with pytest.raises(ValueError):
        FamilySpec("V", 5, 11).validate()
    with pytest.raises(ValueError):
        FamilySpec("V", 4, 12).validate()
    with pytest.raises(ValueError):
        FamilySpec("GFAM", 4, 17).validate()
    with pytest.raises(ValueError):
        FamilySpec("GFAM", 3, 11).validate()
    with pytest.raises(ValueError):
        FamilySpec("X", 4, 8).validate()
    FamilySpec("U", 4, 8).validate()
    FamilySpec("GFAM", 3, 13).validate()


def test_u48_is_exactly_two_k4():
    fam = enumerate_family(FamilySpec("U", 4, 8))
    want = disjoint_union([primitive("complete", 4)] * 2)
    assert [graph_code(g) for g in fam] == [graph_code(want)]


def test_v411_members():
    fam = enumerate_family(FamilySpec("V", 4, 11))
    assert len(fam) == 2
    for g in fam:
        comps = components(g)
        orders = sorted(c.graph.order for c in comps)
        assert orders == [5, 6]
        cls = classify_degrees(g)
        assert cls.is_nearly_regular and cls.max_degree == 3
        # the deficient component is the fixed core
        deficient = next(
            c for c in comps if cls.deficient_vertex in c.labels
        )
        assert graph_code(deficient.graph) == graph_code(core_component(4))


def test_gfam_contains_v():
    g13 = {graph_code(g) for g in enumerate_family(FamilySpec("GFAM", 3, 13))}
    v13_fam = enumerate_family(FamilySpec("V", 4, 13))
    v13 = {graph_code(g) for g in v13_fam}
    assert v13 <= g13
    assert len(v13) == 1
    # the unique member is core + two K4 components
    want = disjoint_union(
        [core_component(4), primitive("complete", 4), primitive("complete", 4)]
    )
    assert graph_code(v13_fam[0]) == graph_code(want)


def test_family_members_pairwise_distinct():
    fam = enumerate_family(FamilySpec("GFAM", 3, 15))
    codes = [graph_code(g) for g in fam]
    assert len(set(codes)) == len(codes)


def test_empty_family_is_empty_list():
    assert enumerate_family(FamilySpec("V", 6, 11)) == []


def test_u_members_component_bound_and_path():
    # component order cap and the path-freeness view select the same set
    from oddwheel.detect import longest_path_order

    for k, n in [(3, 10), (4, 8), (4, 11)]:
        for g in enumerate_family(FamilySpec("U", k, n)):
            assert max(c.graph.order for c in components(g)) <= 2 * k - 2
            assert longest_path_order(g) < 2 * k - 1
            assert max(g.degrees()) == k - 1


def test_spex_candidate_construction():
    inner = standard_member("V", 4, 11)
    g = spex_candidate(CandidateSpec(22, 4, 0, inner, True))
    assert g.order == 22
    assert g.edge_count == 11 * 11 + inner.edge_count + 1
    # r edge sits between the first two right-side vertices
    assert g.has_edge(11, 12)
    for r_edge in (True, False):
        spec = CandidateSpec(22, 4, 0, inner, r_edge)
        assert spex_candidate(spec) == _parent_embedded(inner, 22, r_edge)
    with pytest.raises(GraphError):
        spex_candidate(CandidateSpec(22, 4, 1, inner, True))  # size mismatch
    with pytest.raises(ValueError):
        spex_candidate(CandidateSpec(21, 4, 0, inner, True))  # odd order
    with pytest.raises(ValueError, match=r"n=4 and \|L\| = 3 leave \|R\| = 1"):
        spex_candidate(CandidateSpec(4, 3, 1, primitive("cycle", 3), True))


@pytest.mark.parametrize(
    "k, n, left, r_edge, message",
    [
        (3, 22, 21, True, "the R edge needs |R| >= 2"),
        (4, 0, 0, False, "both sides must be non-empty"),
        (5, 22, 22, True, "both sides must be non-empty"),
        (6, 22, -1, False, "both sides must be non-empty"),
    ],
)
def test_candidate_checks_both_sides_before_it_builds_a_member(
    monkeypatch, k, n, left, r_edge, message
):
    def built(*args):
        raise AssertionError(f"standard_member{args} ran")

    monkeypatch.setattr(families_mod, "standard_member", built)
    with pytest.raises(ValueError, match=re.escape(message)):
        candidate(k, n, left, r_edge=r_edge)
    with pytest.raises(ValueError, match=re.escape(message)):
        check_sides(k, n, left, r_edge)


def test_matching_candidate_sizes():
    g = candidate(2, 22)  # 22 = 2 mod 4 -> |L| = 12
    degs = sorted(g.degrees())
    assert g.order == 22
    assert g.edge_count == 12 * 10 + 6 + 5
    g2 = candidate(2, 20)  # 0 mod 4 -> |L| = 10
    assert g2.edge_count == 10 * 10 + 5 + 5
    g3 = candidate(2, 5)
    assert g3.order == 5 and g3.edge_count == 2 * 3 + 1 + 1
    g4 = candidate(2, 22, 11)  # explicit side size
    assert g4.edge_count == 11 * 11 + 5 + 5
    assert sorted(g4.degrees()) == [11, 11] + [12] * 20
    _ = degs


def test_auto_left_sizes():
    assert auto_left_sizes(20, 2) == [10]
    assert auto_left_sizes(22, 2) == [12]
    assert auto_left_sizes(20, 3) == [10]
    assert auto_left_sizes(21, 3) == [11]
    assert auto_left_sizes(20, 4) == [10]
    assert auto_left_sizes(21, 4) == [10]
    assert auto_left_sizes(22, 4) == [11, 12]
    assert auto_left_sizes(23, 4) == [12]


def test_circulant_and_filler():
    g = circulant(6, 3)
    assert all(d == 3 for d in g.degrees()) and is_connected(g)
    with pytest.raises(ValueError):
        circulant(5, 3)
    parts = regular_filler(14, 3)
    assert sum(p.order for p in parts) == 14
    assert all(4 <= p.order <= 6 for p in parts)
    assert regular_filler(0, 3) == []
    with pytest.raises(ValueError):
        regular_filler(2, 3)


@pytest.mark.parametrize(
    "d, total",
    [(d, t) for d in (2, 3, 4) for t in range(1, 25) if d * t % 2 == 0],
)
def test_filler_exists_exactly_where_the_regular_family_has_a_member(d, total):
    # At even degree sum a U(d + 1, total) member is d-regular fillers
    # alone, so the standard filler and the enumeration answer the same
    # covering question, and the filler's orders are some member's.
    members = enumerate_family(FamilySpec(U_KIND, d + 1, total))
    try:
        filler = regular_filler(total, d)
    except ValueError:
        assert members == []
        return
    orders = sorted(p.order for p in filler)
    assert orders in [
        sorted(c.graph.order for c in components(m)) for m in members
    ]


def test_standard_members():
    m = standard_member("V", 4, 25)
    cls = classify_degrees(m)
    assert m.order == 25 and cls.is_nearly_regular and cls.max_degree == 3
    u = standard_member("U", 4, 12)
    assert classify_degrees(u).is_regular
    u2 = standard_member("U", 3, 50)
    assert classify_degrees(u2).is_regular
    assert max(c.graph.order for c in components(u2)) <= 4
    # beyond the 255-vertex code format: no member code may be formed
    big = standard_member("V", 4, 301)
    cls = classify_degrees(big)
    assert big.order == 301 and cls.is_nearly_regular and cls.max_degree == 3


# The one degree target each family asks the enumerator to build a tree
# for, recorded before members were built as a head piece plus fillers.
ONE_TREE_TARGETS = {
    ("GFAM", 5, 19): (10, 5, False),
    ("U", 6, 15): (9, 5, True),
    ("U", 6, 16): (10, 5, False),
    ("V", 6, 19): (6, 5, False),
    ("U", 4, 25): (6, 3, False),
    ("U", 5, 25): (8, 4, False),
}


@pytest.mark.parametrize(
    "key", list(ONE_TREE_TARGETS), ids=lambda key: "-".join(map(str, key))
)
def test_family_builds_one_tree_per_degree(fresh_caches, monkeypatch, key):
    # The largest degree target a family needs is asked for first; its
    # pruned tree answers the rest (GFAM(5, 19) needs (6, F), (7, T),
    # (9, T) and (10, F)).
    built = []
    pruned_levels = enum_mod._pruned_levels

    def recording(order, target, budget):
        built.append(target)
        return pruned_levels(order, target, budget)

    monkeypatch.setattr(enum_mod, "_pruned_levels", recording)
    fam = enumerate_family(FamilySpec(*key))
    assert fam
    if key in GOLDEN_FAMILIES:
        assert len(fam) == GOLDEN_FAMILIES[key][0]
    assert built == [ONE_TREE_TARGETS[key]]


def test_v_member_is_the_u_member_at_odd_order():
    # V asks for even k and odd order, where the U member also starts from
    # the core component: both are the core, then the (k-1)-regular
    # circulant filler by code, or both fail on a filler that cannot be
    # built.
    def build(kind, k, m):
        try:
            return standard_member(kind, k, m)
        except ValueError as exc:
            return str(exc)

    built = 0
    for k in (4, 6, 8):
        for m in range(k + 1, 4 * k, 2):
            v = build(V_KIND, k, m)
            assert v == build(U_KIND, k, m), (k, m)
            if isinstance(v, str):
                assert "cannot be covered" in v, (k, m)
                continue
            built += 1
            filler = regular_filler(m - k - 1, k - 1)
            assert v == disjoint_union(
                [core_component(k)] + sorted(filler, key=graph_code)
            ), (k, m)
    assert built == 21


def test_standard_member_canonicalizes_no_filler(monkeypatch):
    # The fillers are sorted by order, which sorts them as their codes do;
    # the reference above sorts by code.
    from oddwheel import families

    def no_code(g):
        raise AssertionError("graph_code called")

    monkeypatch.setattr(families, "graph_code", no_code)
    for kind, k, order in [("U", 4, 50), ("U", 5, 51), ("V", 4, 101)]:
        assert standard_member(kind, k, order).order == order


def test_negative_budget_is_rejected_without_enumeration():
    # U(3, 1) has no member and needs no enumeration; the budget is
    # still checked first, as in every other entry point.
    assert enumerate_family(FamilySpec("U", 3, 1)) == []
    with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
        enumerate_family(FamilySpec("U", 3, 1), budget=-1)


@pytest.mark.parametrize(
    "k, order, message",
    [
        (4, 12, "V member needs odd order >= k\\+1"),
        (6, 5, "V member needs odd order >= k\\+1"),
        (5, 11, "core component needs even k >= 4"),
    ],
)
def test_v_member_validation(k, order, message):
    with pytest.raises(ValueError, match=message):
        standard_member(V_KIND, k, order)


def test_bipartite_candidate_validation():
    inner = standard_member("U", 3, 10)
    g = bipartite_candidate(inner, build_graph(10, [(0, 1)]))
    assert g.order == 20 and g.edge_count == 100 + inner.edge_count + 1
    for h_left, h_right in ((inner, Graph(())), (Graph(()), inner)):
        with pytest.raises(ValueError, match="both sides must be non-empty"):
            bipartite_candidate(h_left, h_right)
    with pytest.raises(GraphError):
        bipartite_candidate(inner, build_graph(1, [(0, 1)]))  # one R vertex


@pytest.mark.parametrize("left", [0, 10])
def test_matching_candidate_rejects_an_empty_side(left):
    with pytest.raises(ValueError, match="both sides must be non-empty"):
        candidate(2, 10, left)


def _four_argument_candidate(n, left, inner, r_edge):
    # The builder as it stood before it took the two sides as graphs.
    right = n - left
    if left <= 0 or right <= 0:
        raise ValueError("both sides must be non-empty")
    if inner.order != left:
        raise GraphError(
            f"inner graph has order {inner.order}, expected |L| = {left}"
        )
    if r_edge and right < 2:
        raise ValueError("R edge needs at least two right vertices")
    l_mask = (1 << left) - 1
    r_mask = ((1 << right) - 1) << left
    rows = [0] * n
    for v in range(left):
        rows[v] = r_mask | inner.rows[v]
    for v in range(left, n):
        rows[v] = l_mask
    if r_edge:
        rows[left] |= 1 << (left + 1)
        rows[left + 1] |= 1 << left
    return Graph(tuple(rows))


def _edge_list_matching_candidate(n, left):
    # The k = 2 candidate as it was built from an edge list.
    right = n - left
    edges = [(i, j) for i in range(left) for j in range(left, n)]
    edges += [(2 * i, 2 * i + 1) for i in range(left // 2)]
    edges += [(left + 2 * i, left + 2 * i + 1) for i in range(right // 2)]
    return build_graph(n, edges)


def test_two_sided_builder_matches_the_old_builders():
    # The matching candidate on every side size for n = 4..119, and the
    # standard U members at k = 3..8 on every side the spex-structure
    # sweep visits, with and without the R edge.
    for n in range(4, 120):
        for left in range(1, n):
            assert candidate(2, n, left).rows == (
                _edge_list_matching_candidate(n, left).rows
            )
    for k in range(3, 9):
        for n in range(4, 120):
            for left in {n // 2 - 1, n // 2, n - n // 2, n // 2 + 1}:
                try:
                    inner = standard_member(U_KIND, k, left)
                except ValueError:
                    continue  # no standard member on this side
                for r_edge in (False, True):
                    if r_edge and n - left < 2:
                        continue  # an R edge needs two R vertices
                    r_side = build_graph(n - left, [(0, 1)] if r_edge else [])
                    assert bipartite_candidate(inner, r_side).rows == (
                        _four_argument_candidate(n, left, inner, r_edge).rows
                    )


def _parent_join(parts):
    # `graphs.join` as it stood before the one-pass join: a disjoint
    # union, then both masks OR'd in for each consecutive pair of parts.
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
    return Graph(tuple(rows))


def _parent_bipartite_candidate(h_left, h_right):
    # `bipartite_candidate` with its own row loop, before it was `join`.
    left, right = h_left.order, h_right.order
    if not left or not right:
        raise ValueError("both sides must be non-empty")
    l_mask = (1 << left) - 1
    r_mask = ((1 << right) - 1) << left
    rows = [r_mask | r for r in h_left.rows]
    rows += [l_mask | r << left if r else l_mask for r in h_right.rows]
    return Graph(tuple(rows))


def test_join_matches_the_parent_builders_on_the_claim1_sides():
    # The 192 claim-1 side pairs: k = 4, n = 22..402 step 4, |L| = n/2
    # and n/2 + 1, each with the R edge.
    pairs = 0
    for n in range(22, 403, 4):
        for left in (n // 2, n // 2 + 1):
            h_left = standard_member(U_KIND, 4, left)
            h_right = build_graph(n - left, [(0, 1)])
            want = _parent_bipartite_candidate(h_left, h_right).rows
            assert _parent_join([h_left, h_right]).rows == want
            assert join([h_left, h_right]).rows == want
            assert bipartite_candidate(h_left, h_right).rows == want
            pairs += 1
    assert pairs == 192


def test_join_matches_the_parent_join_on_seeded_parts():
    rng = random.Random(31)
    kinds = {"empty": 0, "complete": 0, "random": 0}
    for _ in range(3000):
        parts = []
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(0, 9)
            kind = rng.choice(sorted(kinds))
            kinds[kind] += 1
            if kind == "random":
                p = rng.random()
                edges = [(u, v) for u in range(m) for v in range(u + 1, m)
                         if rng.random() < p]
                parts.append(build_graph(m, edges))
            else:
                parts.append(primitive(kind, m))
        assert join(parts).rows == _parent_join(parts).rows
    assert min(kinds.values()) > 1000
    with pytest.raises(GraphError):
        join([])


def test_one_set_hosts_match_the_parent_join(monkeypatch):
    # `verify_one_set` at (40, 6) joins K_34 to each embedded graph; the
    # parent joined K_34 to six isolated vertices and added the shifted
    # edges.  The hosts are the graphs whose radii it takes.
    c6 = primitive("cycle", 6)
    c3c3 = disjoint_union([primitive("cycle", 3)] * 2)
    hosts = []
    radius = verify_mod.spectral_radius
    monkeypatch.setattr(
        verify_mod, "spectral_radius",
        lambda g, tol: hosts.append(g) or radius(g, tol),
    )
    assert verify_mod.verify_one_set(40, 6, c6, c3c3).outcome == "PASS"
    base = _parent_join([primitive("complete", 34), primitive("empty", 6)])
    assert [g.rows for g in hosts] == [
        base.add_edges((u + 34, v + 34) for u, v in h.edges()).rows
        for h in (c6, c3c3)
    ]


def _parent_embedded(h_left, n, r_edge=True):
    # The candidate as each call site spelled it out before
    # `embedded_candidate`: the member on L, |R| = n - |L| with the R edge.
    h_right = build_graph(n - h_left.order, [(0, 1)] if r_edge else [])
    return _parent_bipartite_candidate(h_left, h_right)


@pytest.mark.parametrize("n, k", [(26, 3), (50, 4), (50, 5), (30, 6)])
def test_spex_structure_candidates_match_the_parent_construction(
    monkeypatch, n, k
):
    # Every swept U candidate reaches the wheel scan, and every V member
    # of the tie check its quotient, with the parent's rows.  The scan is
    # skipped: the graphs, not the outcome, are under test.
    scanned, tied = [], []
    monkeypatch.setattr(
        verify_mod, "contains_odd_wheel", lambda g, k: scanned.append(g)
    )
    quotient = verify_mod.quotient
    monkeypatch.setattr(
        verify_mod, "quotient", lambda g: tied.append(g) or quotient(g)
    )
    verify_mod.verify_spex_structure(n, k)
    sweep = sorted({n // 2 - 1, n // 2, n - n // 2, n // 2 + 1})
    assert [g.rows for g in scanned] == [
        _parent_embedded(inner, n).rows
        for left in sweep
        for inner in enumerate_family(FamilySpec(U_KIND, k, left))
    ]
    lefts = auto_left_sizes(n, k)
    v_members = (
        enumerate_family(FamilySpec(V_KIND, k, lefts[0]))
        if len(lefts) == 2 else []
    )
    assert [g.rows for g in tied] == [
        _parent_embedded(inner, n).rows for inner in v_members
    ]
    assert bool(tied) == (k % 2 == 0)


def test_claim1_sides_match_the_parent_construction():
    # Both sides of claim 1 at k = 4, n = 22..402 step 4.
    for n in range(22, 403, 4):
        res = claim1_comparison(4, n)
        assert res.graph1.rows == _parent_embedded(
            standard_member(U_KIND, 4, n // 2), n
        ).rows
        assert res.graph2.rows == _parent_embedded(
            standard_member(U_KIND, 4, n // 2 + 1), n
        ).rows


@pytest.mark.parametrize("k, n, left", [(3, 100, 50), (4, 1002, 501)])
def test_fact1_candidate_matches_the_parent_construction(
    monkeypatch, k, n, left
):
    built = []
    quotient = verify_mod.quotient
    monkeypatch.setattr(
        verify_mod, "quotient", lambda g: built.append(g) or quotient(g)
    )
    assert verify_mod.verify_fact1(k, n).outcome == "PASS"
    assert [g.rows for g in built] == [
        _parent_embedded(standard_member(U_KIND, k, left), n).rows
    ]


def test_left_sizes_compete_exactly_at_even_k_and_n_2_mod_4():
    # `auto_left_sizes` alone decides the case split that claim 1,
    # spex-structure and `construct candidate` read.
    for k in range(2, 30):
        for n in range(800):
            competing = k >= 4 and k % 2 == 0 and n % 4 == 2
            assert (len(auto_left_sizes(n, k)) == 2) == competing, (n, k)


# sha256 of the graph6 lines (each ending in a newline) of the graphs in
# the order returned: pins each member's labelling and position, not only
# its class.
GOLDEN_FAMILIES = {
    ("GFAM", 5, 19): (
        1681, "bb9a28e17ef1eedaa6b498ffbc6c93bafe8da66c6d5c12bde15b710a17b8d9bf"
    ),
    ("V", 6, 19): (
        1, "8e4f036b38599593166761a2b6cfb5be95b40a9357dea6ac64149591131dc5c0"
    ),
    ("U", 4, 12): (
        4, "5fd694965d362dcecfd042c975200a698fe0e1bf6721656f776d230e53d02440"
    ),
    # U at odd degree sum: a deficient head piece, then fillers.
    ("U", 4, 25): (
        4, "cb8552e8216ae6ba9619d25a41e6015af248d9b482b7faa8dfb5a2e86864d91e"
    ),
    ("U", 6, 15): (
        31, "70cc13f2951624cc532eb04fd7de765cf403932575caf67178b25331ea98e077"
    ),
    ("U", 6, 16): (
        66, "d58e3d800d72a6ade16604f6adf043d6fe2e0e583c639dd1b38f6b508b0cf3e6"
    ),
    ("GFAM", 5, 21): (
        31, "6424eb9997da9458e16f0a8719781bb7c033ba9d1c039971c7f3c2b76b7e072b"
    ),
    ("V", 4, 25): (
        4, "62a01695e2d72e8f21885dad0e149f4ddee3f8392747ebbe47ee7858c5ea0555"
    ),
    # The head alone, with no vertex left for a filler.
    ("V", 4, 5): (
        1, "b6fbcc307c7dd118bdfc5818b8201bc9bfce46db398c130aaa9a1d5ed1c13db5"
    ),
    ("V", 6, 7): (
        1, "87c3e6bf6ea7e2373f8e7ad966d0e45afdac30b31adb47a50c9af594700787da"
    ),
    ("U", 4, 5): (
        1, "dd07a2245d27d910155fdf2914f20ecdf738439e2ca187dd24c826ceeee00b06"
    ),
}
GOLDEN_STANDARD_MEMBERS = {
    ("V", 4, 101): "27d3f843959a86dc7025b0408f4142405bf3db87d70ccf8dbaa4f3c84a156ac9",
    ("U", 5, 51): "7da86d290670cba7e7468b13f79d7302ed732fc9c6e3ba5ae6b30807fc14df3e",
}


def graph6_digest(graphs):
    text = "".join(encode_graph6(g) + "\n" for g in graphs)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN_FAMILIES))
def test_family_golden_graph6(key):
    count, digest = GOLDEN_FAMILIES[key]
    fam = enumerate_family(FamilySpec(*key))
    assert len(fam) == count
    assert graph6_digest(fam) == digest


@pytest.mark.parametrize("key", sorted(GOLDEN_STANDARD_MEMBERS))
def test_standard_member_golden_graph6(key):
    assert graph6_digest([standard_member(*key)]) == GOLDEN_STANDARD_MEMBERS[key]
