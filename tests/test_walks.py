import hashlib
import random

import pytest

from oddwheel import graphs, walks
from oddwheel.enumerate import graph_code
from oddwheel.families import (
    V_KIND,
    CandidateSpec,
    FamilySpec,
    core_component,
    enumerate_family,
    primitive,
    spex_candidate,
    standard_member,
)
from oddwheel.graphs import (
    EquitablePartition,
    GraphError,
    bits_of,
    build_graph,
    classify_degrees,
    components,
    disjoint_union,
    equitable_partition,
    quotient,
)
from oddwheel.walks import (
    Relation,
    _cell_walks,
    closed_form_profile,
    default_horizon,
    ex_infinity_trace,
    extract_deficient_structure,
    vertex_walks,
    walk_compare,
    walk_profile,
)


def random_graph(rng, n, p):
    return build_graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


def brute_walk_count(g, u, length):
    """Count walks of the given length from u by explicit expansion."""
    if length == 0:
        return 1
    total = 0
    for v in g.neighbors(u):
        total += brute_walk_count(g, v, length - 1)
    return total


def reference_vertex_walks(g, levels):
    """Per-vertex walk counts by one addition per edge end and level."""
    nbrs = [tuple(bits_of(r)) for r in g.rows]
    cur = [1] * g.order
    out = []
    for _ in range(levels):
        cur = [sum([cur[v] for v in nb]) for nb in nbrs]
        out.append(tuple(cur))
    return out


def relabel(g, perm):
    return build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def test_walks_match_the_per_vertex_reference():
    rng = random.Random(21)
    for trial in range(200):
        # a few random pieces, some edgeless, in shuffled labels: the
        # graphs are often disconnected and have isolated vertices
        pieces = []
        order = rng.randint(0, 130)
        while order > 0:
            m = rng.randint(1, order)
            p = rng.choice([0.0, 2 / max(m, 1), 0.1, 0.5])
            pieces.append(random_graph(rng, m, p))
            order -= m
        g = disjoint_union(pieces) if pieces else build_graph(0, [])
        perm = list(range(g.order))
        rng.shuffle(perm)
        g = relabel(g, perm)
        levels = rng.randint(1, 2 * g.order + 2 if trial % 10 == 0 else 12)
        want = reference_vertex_walks(g, levels)
        assert vertex_walks(g, levels) == want
        assert walk_profile(g, levels).counts == tuple(sum(r) for r in want)


# sha256 of the per-vertex counts and of the totals of the n=202, k=4
# balanced candidate at L=404, recorded with the per-vertex loop.
CANDIDATE_TABLE_SHA = (
    "908284153f61fec1d17bcf5ba1a79edcc74cd6fb7cdd4325e08a0eaf1623ac84"
)
CANDIDATE_PROFILE_SHA = (
    "5b4e1a1627c32aed4c699b80089b09f4ee32ab244bf906de852fd8cb9e2f962c"
)


def test_candidate_walks_are_unchanged_under_relabelling():
    n, levels = 202, 404
    g = spex_candidate(
        CandidateSpec(n, 4, 0, standard_member(V_KIND, 4, n // 2), True)
    )
    rng = random.Random(22)
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        table = vertex_walks(relabel(g, perm), levels)
        # back to the labels of g: vertex u of g is perm[u]
        table = [[row[perm[u]] for u in range(n)] for row in table]
        text = "\n".join(",".join(map(str, row)) for row in table)
        assert hashlib.sha256(text.encode()).hexdigest() == CANDIDATE_TABLE_SHA
        counts = walk_profile(relabel(g, perm), levels).counts
        text = ",".join(map(str, counts))
        assert hashlib.sha256(text.encode()).hexdigest() == CANDIDATE_PROFILE_SHA


def test_walk_step_rejects_a_non_equitable_partition(monkeypatch):
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    part = quotient(g)
    assert _cell_walks(part, 3) == [[1, 2], [2, 3], [3, 5]]
    with pytest.raises(ValueError):
        _cell_walks(part, 0)
    # Every walk count reads its partition through `quotient`, which
    # certifies what the refinement returns; hand it wrong partitions.
    for wrong in (
        # one cell for P_4, whose degrees differ
        EquitablePartition((15,), (0, 0, 0, 0), ((2,),)),
        # the right cells with a wrong quotient
        part._replace(quotient=((1, 1), (1, 1))),
    ):
        monkeypatch.setattr(
            graphs, "equitable_partition", lambda g, twins=None: wrong
        )
        for count in (
            quotient,
            lambda g: walk_profile(g, 3),
            lambda g: vertex_walks(g, 3),
            lambda g: ex_infinity_trace([g], 3),
        ):
            with pytest.raises(GraphError):
                count(g)


def test_k3_profile():
    assert walk_profile(primitive("complete", 3), 3).counts == (6, 12, 24)


def test_level_one_is_degree_sum():
    rng = random.Random(2)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        assert walk_profile(g, 1).counts[0] == 2 * g.edge_count


def test_vertex_walks_against_brute():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        table = vertex_walks(g, 4)
        for level in range(1, 5):
            for u in range(g.order):
                assert table[level - 1][u] == brute_walk_count(g, u, level)


def test_split_identity_explicitly():
    # W^l == sum_u w^i(u) w^(l-i)(u) for every split point, not just l//2
    rng = random.Random(4)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 12), 0.5)
        levels = 9
        table = vertex_walks(g, levels)
        totals = walk_profile(g, levels).counts
        for level in range(2, levels + 1):
            for i in range(1, level):
                split = sum(
                    table[i - 1][u] * table[level - i - 1][u]
                    for u in range(g.order)
                )
                assert split == totals[level - 1]


def test_monotone_counts_with_min_degree_one():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), 0.6)
        if min(g.degrees()) < 1:
            continue
        counts = walk_profile(g, 12).counts
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_deficient_vertex_walk_values():
    fam = enumerate_family(FamilySpec("GFAM", 3, 13))
    g = fam[0]
    d = 3
    u = classify_degrees(g).deficient_vertex
    table = vertex_walks(g, 3)
    assert table[1][u] == d * d - d
    assert table[2][u] == (d * d - 1) * (d - 1)
    # vertices of regular components count d^level walks
    from oddwheel.graphs import components

    comp = next(c for c in components(g) if u not in c.labels)
    v = comp.labels[0]
    for level in range(1, 4):
        assert table[level - 1][v] == d**level


def test_closed_forms_match_direct_counts():
    for delta, n in [(3, 13), (3, 15)]:
        for g in enumerate_family(FamilySpec("GFAM", delta, n)):
            st = extract_deficient_structure(g)
            cf = closed_form_profile(
                delta, n, st.q, st.e12, st.sum_d2sq, st.sum_d1sq
            )
            assert cf == walk_profile(g, 6).counts


def test_closed_form_levels_3_4_structure_independent():
    d, n = 3, 13
    cf = closed_form_profile(d, n, 5, 4, 8, 8)
    assert cf[2] == n * d**3 - 3 * d * d + 2 * d
    assert cf[3] == n * d**4 - 4 * d**3 + 3 * d * d + d - 1


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_profile(3, 13, 5, 3, 8, 8)  # e12 below 2(d-1)
    with pytest.raises(ValueError):
        closed_form_profile(3, 13, 6, 4, 8, 8)  # even q
    with pytest.raises(ValueError):
        closed_form_profile(4, 13, 5, 6, 8, 8)  # even delta
    with pytest.raises(ValueError):
        closed_form_profile(3, 4, 5, 4, 8, 8)  # n below q


def test_extract_structure_of_core():
    g = disjoint_union([core_component(4), primitive("complete", 4),
                        primitive("complete", 4)])
    st = extract_deficient_structure(g)
    assert st.q == 5 and st.e12 == 4
    assert st.sum_d2sq == 8 and st.sum_d1sq == 8
    with pytest.raises(ValueError):
        extract_deficient_structure(primitive("cycle", 5))


def test_walk_compare_examples():
    c3c3 = disjoint_union([primitive("cycle", 3)] * 2)
    c6 = primitive("cycle", 6)
    res = walk_compare(c3c3, c6)
    assert res.relation is Relation.EQUIV and res.witness_level is None

    k3k1 = disjoint_union([primitive("complete", 3), primitive("empty", 1)])
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    res = walk_compare(k3k1, p4)
    assert res.relation is Relation.SUCC and res.witness_level == 2
    res = walk_compare(p4, k3k1)
    assert res.relation is Relation.PREC and res.witness_level == 2

    g = primitive("cycle", 5)
    assert walk_compare(g, g).relation is Relation.EQUIV


def test_regular_equivalence():
    rng = random.Random(6)
    from oddwheel.enumerate import connected_with_degrees

    cubic8 = connected_with_degrees(8, 3, False)
    for a in cubic8:
        for b in cubic8:
            assert walk_compare(a, b).relation is Relation.EQUIV
    _ = rng


def test_truncation_stability_samples():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(2, 10)
        g1 = random_graph(rng, n, 0.45)
        g2 = random_graph(rng, n, 0.45)
        short = walk_compare(g1, g2, 2 * n)
        long = walk_compare(g1, g2, 2 * n + 20)
        assert short.relation is long.relation
        if short.relation is not Relation.EQUIV:
            assert short.witness_level == long.witness_level


def test_default_horizon():
    assert default_horizon(primitive("cycle", 5), primitive("cycle", 9)) == 18
    # at least 2, so the empty graph compares at the default horizon
    empty = build_graph(0, [])
    assert default_horizon(empty) == default_horizon() == 2
    assert walk_compare(empty, empty).relation is Relation.EQUIV


def test_ex_infinity_trivia():
    c5 = primitive("cycle", 5)
    assert ex_infinity_trace([c5]).survivors == (c5,)
    # pairwise EQUIV family survives whole
    from oddwheel.enumerate import connected_with_degrees

    cubic8 = connected_with_degrees(8, 3, False)
    assert len(ex_infinity_trace(cubic8).survivors) == len(cubic8)
    with pytest.raises(ValueError):
        ex_infinity_trace([])


def test_ex_infinity_matches_fixed_core_family():
    for delta, n in [(3, 13), (3, 15)]:
        fam = enumerate_family(FamilySpec("GFAM", delta, n))
        got = {graph_code(g) for g in ex_infinity_trace(fam).survivors}
        want = {
            graph_code(g)
            for g in enumerate_family(FamilySpec("V", delta + 1, n))
        }
        assert got == want


def test_ex_infinity_separates_at_level_six():
    fam = enumerate_family(FamilySpec("GFAM", 5, 19))
    trace = ex_infinity_trace(fam)
    assert trace.stabilization_level == 6
    assert len(trace.survivors) == 1
    want = enumerate_family(FamilySpec("V", 6, 19))
    assert graph_code(trace.survivors[0]) == graph_code(want[0])


def test_levels_one_to_four_constant_and_level_five_tracks_e12():
    # within the one-deficient family: W^1..W^4 identical across members,
    # and W^5 is maximized exactly by the members with minimal e(N1,N2)
    fam = enumerate_family(FamilySpec("GFAM", 5, 19))
    profiles = [walk_profile(g, 5).counts for g in fam]
    for level in range(4):
        assert len({p[level] for p in profiles}) == 1
    e12s = [extract_deficient_structure(g).e12 for g in fam]
    w5_max = max(p[4] for p in profiles)
    e12_min = min(e12s)
    for p, e in zip(profiles, e12s):
        assert (p[4] == w5_max) == (e == e12_min)
    assert e12_min == 2 * (5 - 1)


def _random_family(rng, cubic10):
    """Members that share quotients in every way the selection meets:
    relabelled copies, disjoint unions, isolated vertices, and
    non-isomorphic graphs with one key (the cubic graphs of order 10)."""
    family = []
    for _ in range(rng.randint(1, 8)):
        pick = rng.randrange(5)
        if pick == 0 or not family:
            # order 0 only next to others: horizon 2 * max order >= 2
            g = random_graph(rng, rng.randint(0 if family else 1, 9),
                             rng.random())
        elif pick == 1:
            g = rng.choice(family)
            g = relabel(g, rng.sample(range(g.order), g.order))
        elif pick == 2:
            g = disjoint_union([rng.choice(family), rng.choice(family)])
        elif pick == 3:
            g = disjoint_union(
                [rng.choice(family), primitive("empty", rng.randint(1, 3))]
            )
        else:
            g = relabel(rng.choice(cubic10), rng.sample(range(10), 10))
        family.append(g)
    return family


def test_ex_infinity_profiles_match_walk_profile_per_member():
    from oddwheel.enumerate import connected_with_degrees

    cubic10 = connected_with_degrees(10, 3, False)
    assert len(cubic10) > 1
    rng = random.Random(11)
    families = [
        enumerate_family(FamilySpec("GFAM", delta, n))
        for delta, n in [(5, 19), (3, 13), (3, 17)]
    ]
    families += [_random_family(rng, cubic10) for _ in range(200)]
    for fam in families:
        horizon = default_horizon(*fam)
        assert ex_infinity_trace(fam).profiles == tuple(
            walk_profile(g, horizon).counts for g in fam
        )


def _counting_walk_steps(monkeypatch):
    """Record the levels of every walk table and the graph of every
    certification that `ex_infinity_trace` makes (in `quotient`, through
    `graphs.certify_equitable`)."""
    tables, certified = [], []
    cell_walks, certify = walks._cell_walks, graphs.certify_equitable

    def counting_table(part, levels):
        tables.append(levels)
        return cell_walks(part, levels)

    def counting_certify(g, part, twins=None):
        certified.append(g)
        return certify(g, part, twins)

    monkeypatch.setattr(walks, "_cell_walks", counting_table)
    monkeypatch.setattr(graphs, "certify_equitable", counting_certify)
    return tables, certified


def _placed_pieces(family):
    """Distinct connected pieces of the members, each as its rows in the
    member's labels, with the piece relabelled 0..k-1."""
    return {
        tuple(g.rows[v] for v in c.labels): c.graph.rows
        for g in family
        for c in components(g)
    }


def test_ex_infinity_counts_walks_once_per_placed_piece(monkeypatch):
    tables, certified = _counting_walk_steps(monkeypatch)
    fam = enumerate_family(FamilySpec("GFAM", 5, 19))
    ex_infinity_trace(fam)
    placed = _placed_pieces(fam)
    assert len(fam) == 1681
    assert len(placed) == 91
    # one table per distinct placed piece, and each such piece, relabelled,
    # certified exactly once
    assert tables == [38] * len(placed)
    assert sorted(g.rows for g in certified) == sorted(placed.values())


def test_ex_infinity_sums_pieces_in_any_labels(monkeypatch):
    pieces = [
        build_graph(4, [(0, 1), (1, 2), (2, 3)]),
        primitive("cycle", 5),
        primitive("complete", 4),
        build_graph(1, []),
        primitive("complete", 2),
    ]
    g = disjoint_union(pieces)
    perm = list(range(g.order))
    random.Random(23).shuffle(perm)
    h = relabel(g, perm)
    # the relabelled pieces are not runs of consecutive labels
    assert any(
        c.labels != tuple(range(c.labels[0], c.labels[-1] + 1))
        for c in components(h)
    )
    horizon = default_horizon(g)
    want = tuple(
        sum(col)
        for col in zip(*(walk_profile(p, horizon).counts for p in pieces))
    )
    tables, _ = _counting_walk_steps(monkeypatch)
    trace = ex_infinity_trace([g, h])
    assert trace.profiles == (want, want)
    # equal totals share one tuple
    assert trace.profiles[0] is trace.profiles[1]
    assert len(tables) == len(_placed_pieces([g, h]))


def test_ex_infinity_order_zero_members():
    empty, k2 = build_graph(0, []), primitive("complete", 2)
    trace = ex_infinity_trace([empty, k2, empty])
    assert trace.profiles == ((0,) * 4, (2,) * 4, (0,) * 4)
    assert trace.survivors == (k2,)
    assert trace.profiles[0] == walk_profile(empty, 4).counts
    with pytest.raises(ValueError):
        ex_infinity_trace([k2], 0)
    with pytest.raises(ValueError):
        ex_infinity_trace([empty, k2], 0)
    # all members of order 0: the default horizon is still 2 levels
    trace = ex_infinity_trace([empty, empty])
    assert trace.profiles == ((0, 0), (0, 0))
    assert trace.survivors == (empty, empty)
    with pytest.raises(ValueError):
        ex_infinity_trace([empty], 0)


def test_ex_infinity_certifies_members_that_share_a_profile(monkeypatch):
    # P_4 and a relabelled copy share a key; hand the copy the first
    # member's partition, which is not equitable for it
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    copy = build_graph(4, [(1, 0), (0, 2), (2, 3)])
    part = equitable_partition(p4)
    assert equitable_partition(copy).quotient == part.quotient
    monkeypatch.setattr(
        graphs, "equitable_partition", lambda g, twins=None: part
    )
    assert ex_infinity_trace([p4, p4], 4).profiles[1] == (6, 10, 16, 26)
    with pytest.raises(GraphError):
        ex_infinity_trace([p4, copy])
    with pytest.raises(GraphError):
        ex_infinity_trace([copy, p4])
