"""Exhaustive enumeration cross-checks.

Small orders are checked against a brute-force oracle (all labeled
graphs, deduped by the minimal-code canonicalizer); larger counts are
frozen from the standard enumeration references and double-checked by the
independent structure of the generator (degree filters, connectivity,
pairwise-distinct canonical forms).
"""

import collections
import itertools
import random

import pytest

from oddwheel import kernels
from oddwheel import enumerate as enum_mod
from oddwheel.enumerate import (
    BudgetExceededError,
    all_graphs,
    connected_with_degrees,
    graph_code,
)
from oddwheel.graphs import (
    Graph,
    bits_of,
    build_graph,
    is_automorphism,
    is_connected,
    permute_mask,
)

KNOWN_CLASS_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
KNOWN_CUBIC_CONNECTED = {4: 1, 6: 2, 8: 5, 10: 19}
KNOWN_QUARTIC_CONNECTED = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16, 10: 59}
KNOWN_QUINTIC_CONNECTED = {6: 1, 8: 3, 10: 60}


def brute_class_count(n, degree_filter=None):
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (bits >> i) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if degree_filter is not None and not degree_filter(rows):
            continue
        seen.add(kernels.canon_code(rows))
    return len(seen)


def test_all_graphs_counts_small():
    for n in range(8):
        assert len(all_graphs(n)) == KNOWN_CLASS_COUNTS[n]


def test_all_graphs_against_brute_oracle():
    for n in range(6):
        assert len(all_graphs(n)) == brute_class_count(n)


def test_all_graphs_order_eight():
    assert len(all_graphs(8)) == KNOWN_CLASS_COUNTS[8]


def test_all_graphs_pairwise_distinct_and_sorted():
    gs = all_graphs(7)
    codes = [graph_code(g) for g in gs]
    assert len(set(codes)) == len(codes)
    internal = [kernels.canon_code(g.rows) for g in gs]
    assert internal == sorted(internal)


def test_regular_connected_counts():
    for m, want in KNOWN_CUBIC_CONNECTED.items():
        assert len(connected_with_degrees(m, 3, False)) == want
    for m, want in KNOWN_QUARTIC_CONNECTED.items():
        assert len(connected_with_degrees(m, 4, False)) == want
    for m, want in KNOWN_QUINTIC_CONNECTED.items():
        assert len(connected_with_degrees(m, 5, False)) == want


def test_cubic_against_brute_oracle():
    def cubic(rows):
        return all(r.bit_count() == 3 for r in rows)

    # brute count includes disconnected classes; at order 6 all are connected
    assert brute_class_count(6, cubic) == 2
    got = connected_with_degrees(6, 3, False)
    assert len(got) == 2


def test_deficient_enumeration():
    # exactly one vertex of degree d-1, the rest d, connected
    got = connected_with_degrees(5, 3, True)
    assert len(got) == 1
    degs = sorted(got[0].degrees())
    assert degs == [2, 3, 3, 3, 3]

    def near_cubic(rows):
        degs = sorted(r.bit_count() for r in rows)
        return degs == [2, 3, 3, 3, 3]

    assert brute_class_count(5, near_cubic) == 1


def test_enumeration_output_properties():
    rng = random.Random(0)
    for m, d, dec in [(7, 3, True), (8, 3, False), (9, 4, False), (7, 5, True)]:
        out = connected_with_degrees(m, d, dec)
        for g in out:
            assert is_connected(g)
            degs = sorted(g.degrees())
            if dec:
                assert degs == [d - 1] + [d] * (m - 1)
            else:
                assert degs == [d] * m
        codes = [graph_code(g) for g in out]
        assert len(set(codes)) == len(codes)
        # determinism
        again = connected_with_degrees(m, d, dec)
        assert [graph_code(g) for g in again] == codes
    _ = rng


def test_infeasible_degree_targets_empty():
    assert connected_with_degrees(5, 3, False) == []  # odd degree sum
    assert connected_with_degrees(3, 3, False) == []  # order too small
    assert connected_with_degrees(6, 3, True) == []  # parity
    assert connected_with_degrees(0, 3, False) == []


def test_budget_raises():
    # an uncached, nontrivial target so the budget is actually consumed
    with pytest.raises(BudgetExceededError):
        connected_with_degrees(11, 4, False, budget=5)


@pytest.mark.parametrize(
    "run, counts",
    [
        (lambda: all_graphs(7), KNOWN_CLASS_COUNTS),
        (lambda: connected_with_degrees(10, 4, False), None),
        (lambda: connected_with_degrees(9, 5, True), None),
    ],
    ids=["all_graphs_7", "quartic_10", "quintic_deficient_9"],
)
def test_each_class_generated_once(fresh_caches, monkeypatch, run, counts):
    # The callers dedup each level with set() or sorting; record what
    # _children itself accepts, before any of that, and require every
    # child class of every level to come from exactly one parent.
    accepted = {}
    original = enum_mod._children

    def recording(*args):
        out = original(*args)
        for code in out:
            accepted.setdefault(code[0], []).append(code)
        return out

    monkeypatch.setattr(enum_mod, "_children", recording)
    run()
    assert accepted
    for order, codes in accepted.items():
        assert len(set(codes)) == len(codes), f"duplicate at order {order}"
        if counts is not None:
            assert len(codes) == counts[order]


# Smallest budget at which connected_with_degrees(8, 3, False) completes
# from empty caches: the number of children that pass the degree prune.
# Skipping children that cannot pass the deletion test must not change
# what the budget counts.
CUBIC_8_BUDGET = 459


def test_budget_counts_pruned_children(fresh_caches):
    with pytest.raises(BudgetExceededError):
        connected_with_degrees(8, 3, False, budget=CUBIC_8_BUDGET - 1)
    got = connected_with_degrees(8, 3, False, budget=CUBIC_8_BUDGET)
    assert len(got) == KNOWN_CUBIC_CONNECTED[8]


# canon_code calls made directly by _children, not through _deletion_code,
# on all_graphs(7) from empty caches: one per orbit, under the parent's
# automorphism group, of the attachment sets that pass the key test (2,411
# when every such set was canonicalized).
ALL_7_CHILD_CANON = 1267


def test_children_canonicalize_one_set_per_parent_orbit(
    fresh_caches, monkeypatch
):
    canon = kernels.canon_code
    deletion_code = enum_mod._deletion_code
    children = enum_mod._children
    generators = enum_mod.automorphism_generators
    parents = []
    canonicalized = {}
    in_deletion = []

    def recording_children(parent_code, *args):
        parents.append(parent_code)
        canonicalized[parent_code] = []
        return children(parent_code, *args)

    def recording_deletion(code):
        in_deletion.append(code)
        try:
            return deletion_code(code)
        finally:
            in_deletion.pop()

    def recording_canon(rows):
        if parents and not in_deletion:
            canonicalized[parents[-1]].append(rows[-1])
        return canon(rows)

    def checked_generators(g):
        gens = generators(g)
        assert all(is_automorphism(g, p) for p in gens)
        return gens

    monkeypatch.setattr(enum_mod, "_children", recording_children)
    monkeypatch.setattr(enum_mod, "_deletion_code", recording_deletion)
    monkeypatch.setattr(kernels, "canon_code", recording_canon)
    monkeypatch.setattr(
        enum_mod, "automorphism_generators", checked_generators
    )
    assert len(all_graphs(7)) == KNOWN_CLASS_COUNTS[7]
    assert sum(map(len, canonicalized.values())) == ALL_7_CHILD_CANON
    for parent_code, sets in canonicalized.items():
        parent = Graph(kernels.code_to_rows(parent_code))
        n = parent.order
        auts = [
            p for p in itertools.permutations(range(n))
            if is_automorphism(parent, p)
        ]
        covered = set()
        for s in sets:
            assert s not in covered, (parent_code, s)
            covered.update(permute_mask(s, p) for p in auts)


def test_children_need_only_a_subgroup(fresh_caches, monkeypatch):
    # Orbits under a subgroup of Aut(parent), the trivial one or the group
    # of the first generator alone, skip fewer children and keep the
    # same classes.
    want = [graph_code(g) for g in all_graphs(7)]
    generators = enum_mod.automorphism_generators
    for subgroup in (lambda g: [], lambda g: generators(g)[:1]):
        for name in ("_deletion_cache", "_all_cache"):
            monkeypatch.setattr(enum_mod, name, {})
        monkeypatch.setattr(enum_mod, "automorphism_generators", subgroup)
        assert [graph_code(g) for g in all_graphs(7)] == want


def test_vertex_key_is_deletion_invariant():
    # Vertices u, v with G-u isomorphic to G-v must have equal keys, or
    # the deletion rule is not a function of the class and the skip in
    # _children drops children that would pass.
    for n in range(2, 8):
        for g in all_graphs(n):
            rows = list(g.rows)
            degs = [r.bit_count() for r in rows]
            by_deck_card = {}
            for v in range(n):
                card = graph_code(g.subgraph(u for u in range(n) if u != v))
                by_deck_card.setdefault(card, []).append(v)
            for same in by_deck_card.values():
                keys = [enum_mod._vertex_key(rows, v, degs) for v in same]
                assert all(k == keys[0] for k in keys), (rows, same, keys)


def _list_vertex_key(rows, v, degs):
    """The vertex key with its neighbour degrees as a list sorted in
    descending order: the reference order for the histogram key."""
    nbrs = rows[v]
    ws = list(bits_of(nbrs))
    return (
        degs[v],
        sorted([degs[w] for w in ws], reverse=True),
        sum([(rows[w] & nbrs).bit_count() for w in ws]) // 2,
    )


def _sign(a, b):
    return (a > b) - (a < b)


def test_vertex_key_orders_as_the_sorted_list_key():
    rng = random.Random(19)
    graphs = [list(g.rows) for n in range(8) for g in all_graphs(n)]
    for _ in range(3000):
        n, p = rng.randint(1, 30), rng.random()
        rows = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        graphs.append(rows)
    pairs = 0
    for rows in graphs:
        degs = [r.bit_count() for r in rows]
        new = [enum_mod._vertex_key(rows, v, degs) for v in range(len(rows))]
        old = [_list_vertex_key(rows, v, degs) for v in range(len(rows))]
        # one field of b bits per degree, holding that degree's count
        b = len(rows).bit_length()
        for key, (_, nbr_degs, _) in zip(new, old):
            counts = collections.Counter(nbr_degs)
            assert key[1] == sum(c << (d * b) for d, c in counts.items())
        for u, v in itertools.combinations(range(len(rows)), 2):
            assert _sign(new[u], new[v]) == _sign(old[u], old[v]), (rows, u, v)
            pairs += 1
    assert pairs > 400_000


# canon_code calls from empty caches: the child canonicalizations and the
# deletion tests' misses.  The twin rule keeps some rank-0 children
# without the deletion test; with every rank-0 child tested (and with the
# sorted-list key) the counts were 1,737 and 2,814.
COLD_CANON_CALLS = [
    (lambda: all_graphs(7), 1467),
    (lambda: connected_with_degrees(10, 5, False), 2558),
]


def test_canon_code_calls_unchanged_by_the_key(fresh_caches, monkeypatch):
    canon_code = kernels.canon_code
    calls = []

    def counting(*args):
        calls.append(args[0])
        return canon_code(*args)

    monkeypatch.setattr(kernels, "canon_code", counting)
    for run, want in COLD_CANON_CALLS:
        fresh_caches()
        calls.clear()
        run()
        assert len(calls) == want


@pytest.mark.parametrize(
    "run",
    [lambda: all_graphs(7), lambda: connected_with_degrees(10, 3, False)],
    ids=["all_graphs_7", "cubic_10"],
)
def test_unique_key_children_delete_to_their_parent(
    fresh_caches, monkeypatch, run
):
    # A child whose new vertex alone has the maximal key is kept without
    # the deletion test; deleting its canonical deletion vertex must still
    # give back the parent.
    deletion_code = enum_mod._deletion_code
    children = enum_mod._children
    asked = []
    shortcut = []

    def recording_deletion(code):
        asked.append(code)
        return deletion_code(code)

    def recording_children(parent_code, *args):
        start = len(asked)
        out = children(parent_code, *args)
        tested = set(asked[start:])
        shortcut.extend((parent_code, c) for c in out if c not in tested)
        return out

    monkeypatch.setattr(enum_mod, "_deletion_code", recording_deletion)
    monkeypatch.setattr(enum_mod, "_children", recording_children)
    run()
    assert shortcut and asked
    for parent_code, code in shortcut:
        assert deletion_code(code) == parent_code


# Children kept by the twin rule from empty caches: the new vertex shares
# its maximal key only with twins of it.
TWIN_RULE_ACCEPTS = [
    (lambda: all_graphs(7), 270),
    (lambda: connected_with_degrees(10, 5, False), 256),
]


@pytest.mark.parametrize(
    "run, want", TWIN_RULE_ACCEPTS, ids=["all_graphs_7", "quintic_10"]
)
def test_twin_rule_children_delete_to_their_parent(
    fresh_caches, monkeypatch, run, want
):
    # A child whose new vertex shares the maximal key only with twins of
    # it is kept without the deletion test; deleting its canonical
    # deletion vertex must still give back the parent.  The rule is read
    # off each kept child's own keys, not off _children.
    canon = kernels.canon_code
    deletion_code = enum_mod._deletion_code
    children = enum_mod._children
    asked = []
    built = []
    in_deletion = []
    twin_kept = []

    def recording_deletion(code):
        asked.append(code)
        in_deletion.append(code)
        try:
            return deletion_code(code)
        finally:
            in_deletion.pop()

    def recording_canon(rows):
        code = canon(rows)
        if not in_deletion:
            built.append((code, rows))
        return code

    def recording_children(parent_code, *args):
        first_asked, first_built = len(asked), len(built)
        out = children(parent_code, *args)
        tested = set(asked[first_asked:])
        child_rows = {}
        for code, rows in built[first_built:]:
            child_rows.setdefault(code, rows)
        for code in out:
            if code in tested:
                continue
            rows = child_rows[code]
            n = len(rows) - 1
            degs = [r.bit_count() for r in rows]
            keys = [enum_mod._vertex_key(rows, v, degs) for v in range(n + 1)]
            assert keys[n] == max(keys)
            shared = [v for v in range(n) if keys[v] == keys[n]]
            if shared:
                assert all(
                    rows[v] & ~(1 << n) == rows[n] & ~(1 << v) for v in shared
                )
                twin_kept.append((parent_code, code))
        return out

    monkeypatch.setattr(enum_mod, "_deletion_code", recording_deletion)
    monkeypatch.setattr(kernels, "canon_code", recording_canon)
    monkeypatch.setattr(enum_mod, "_children", recording_children)
    run()
    assert len(twin_kept) == want
    for parent_code, code in twin_kept:
        assert deletion_code(code) == parent_code


def _child_rows(rows, s):
    n = len(rows)
    return [r | ((s >> v & 1) << n) for v, r in enumerate(rows)] + [s]


def test_parent_keys_are_the_child_keys():
    # Over every child of order at most 7, as a parent of order at most 6
    # and an attachment set: the keys read off the parent's tables are
    # _vertex_key of the child, and the rank follows from those keys (-1
    # below the maximum, 1 when every other vertex of maximal key is a
    # twin of the new vertex, 0 otherwise).
    ranks = collections.Counter()
    for m in range(1, 7):
        for g in all_graphs(m):
            rows = list(g.rows)
            parent = enum_mod._Parent(rows, None)
            for s in range(1 << m):
                child = _child_rows(rows, s)
                degs = [r.bit_count() for r in child]
                keys = [enum_mod._vertex_key(child, v, degs) for v in range(m + 1)]
                assert [parent.key(s, v) for v in range(m + 1)] == keys
                shared = [v for v in range(m) if keys[v] == keys[m]]
                if keys[m] < max(keys):
                    want = -1
                else:
                    want = int(all(
                        child[v] & ~(1 << m) == s & ~(1 << v) for v in shared
                    ))
                assert parent.rank(s) == want, (rows, s)
                ranks[want] += 1
    assert min(ranks[-1], ranks[0], ranks[1]) > 400, ranks


PRUNE_TREES = [
    (10, 5, False),
    (9, 5, True),
    (12, 3, False),
    (11, 3, True),
    (9, 4, True),
    (11, 6, True),
]


def _prune_agrees(rows, target, sets):
    parent = enum_mod._Parent(rows, target)
    degs = [r.bit_count() for r in rows]
    passed = 0
    for s in sets(parent):
        child = [x + (s >> v & 1) for v, x in enumerate(degs)] + [s.bit_count()]
        want = enum_mod._prune(child, *target)
        assert parent.passes(s) == want, (rows, target, s)
        passed += want
    return passed


def test_parent_read_prune_is_the_prune(fresh_caches):
    # For every parent of each pruned tree, every set _children tries
    # (the forced vertices and any of the free ones) gives the prune of
    # the child's degree list; the prune tables read only the degrees, so
    # one parent per degree list is enough.  Every graph of order at most
    # 6, pruned or not, is also tried as a parent with every attachment
    # set, for each target.
    passed = 0
    for target in PRUNE_TREES:
        levels = enum_mod._pruned_levels(target[0], target, enum_mod._Budget(None))
        by_degrees = {}
        for level in levels[:-1]:
            for code in level:
                rows = kernels.code_to_rows(code)
                by_degrees.setdefault(tuple(r.bit_count() for r in rows), rows)
        for rows in by_degrees.values():
            passed += _prune_agrees(
                list(rows), target,
                lambda p: enum_mod._subsets_descending(p.forced, p.free),
            )
    small = [list(g.rows) for m in range(1, 7) for g in all_graphs(m)]
    for target in PRUNE_TREES:
        for rows in small:
            passed += _prune_agrees(
                rows, target, lambda p: range(1 << p.n)
            )
    assert passed


def test_all_graphs_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        atlas.setdefault(n, []).append(graph_code(build_graph(n, h.edges())))
    for n in range(8):
        ours = [graph_code(g) for g in all_graphs(n)]
        assert len(atlas[n]) == len(ours) == KNOWN_CLASS_COUNTS[n]
        assert set(atlas[n]) == set(ours)


def test_degree_prune_is_monotone():
    # The lemma the shared trees rest on: if G passes the prune for a
    # target of order N at its own order m, every G-v passes it at m-1.
    # So each level of a pruned tree is every graph of its order that
    # passes the prune, and a tree answers every smaller target.
    passed = failed = 0
    for m in range(1, 8):
        for g in all_graphs(m):
            degs = list(g.degrees())
            cards = [
                [degs[u] - ((g.rows[v] >> u) & 1) for u in range(m) if u != v]
                for v in range(m)
            ]
            for d in range(2, 6):
                for order in range(m, m + 4):
                    for deficient in (False, True):
                        if not enum_mod._prune(degs, order, d, deficient):
                            failed += 1
                            continue
                        passed += 1
                        for card in cards:
                            assert enum_mod._prune(card, order, d, deficient), (
                                g, d, order, deficient, card
                            )
    assert passed and failed


DIFFERENTIAL_TARGETS = [
    (order, d, deficient)
    for d in range(2, 5)
    for order in range(10)
    for deficient in (False, True)
]


def test_shared_trees_match_single_target_enumeration(fresh_caches):
    # Whatever was asked before and whatever all_graphs levels are cached,
    # each target gives the list that enumerating it alone from empty
    # caches gives, graph for graph and in the same order.
    want = {}
    for target in DIFFERENTIAL_TARGETS:
        fresh_caches()
        want[target] = connected_with_degrees(*target)
    assert len(want[(8, 3, False)]) == KNOWN_CUBIC_CONNECTED[8]
    assert len(want[(9, 4, False)]) == KNOWN_QUARTIC_CONNECTED[9]
    fresh_caches()
    all_graphs(7)
    levels = dict(enum_mod._all_cache)
    rng = random.Random(14)
    for top in (None, 5, 6, 7):
        cached = {m: levels[m] for m in range(1, (top or 0) + 1)}
        for _ in range(2):
            order = list(DIFFERENTIAL_TARGETS)
            rng.shuffle(order)
            fresh_caches(cached)
            for target in order:
                assert connected_with_degrees(*target) == want[target], (
                    top, target
                )


def test_target_read_from_a_stored_tree_spends_nothing(fresh_caches):
    connected_with_degrees(9, 3, True)
    assert enum_mod._tree_cache[3][:2] == (9, True)
    for order, deficient in [(8, False), (7, True), (6, False), (4, False)]:
        got = connected_with_degrees(order, 3, deficient, budget=0)
        if not deficient:
            assert len(got) == KNOWN_CUBIC_CONNECTED[order]
    assert enum_mod._tree_cache[3][:2] == (9, True)


def test_interrupted_all_graphs_stores_no_levels(fresh_caches):
    # all_graphs is the unpruned tree: like a pruned one, it is cached
    # only once every level is built
    with pytest.raises(BudgetExceededError):
        all_graphs(7, budget=200)
    assert enum_mod._all_cache == {}
    assert [len(all_graphs(n)) for n in range(8)] == KNOWN_CLASS_COUNTS[:8]
    assert sorted(enum_mod._all_cache) == list(range(1, 8))


def test_interrupted_tree_stores_no_levels(fresh_caches):
    with pytest.raises(BudgetExceededError):
        connected_with_degrees(10, 4, False, budget=5)
    assert enum_mod._tree_cache == {}
    connected_with_degrees(8, 3, False)
    stored = enum_mod._tree_cache[3]
    # a larger target needs a new tree; exhausting its budget keeps the
    # stored one, which still answers what it answered
    with pytest.raises(BudgetExceededError):
        connected_with_degrees(10, 3, False, budget=CUBIC_8_BUDGET)
    assert enum_mod._tree_cache[3] is stored
    assert len(connected_with_degrees(6, 3, False, budget=0)) == 2


@pytest.mark.parametrize(
    "run",
    [
        lambda: enum_mod._Budget(-1),
        lambda: connected_with_degrees(8, 3, False, budget=-1),
        lambda: all_graphs(5, budget=-1),
    ],
    ids=["budget", "connected_with_degrees", "all_graphs"],
)
def test_negative_budget_is_rejected(run):
    with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
        run()
