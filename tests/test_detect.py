import itertools
import random
from math import comb

import pytest

from oddwheel import detect, kernels
from oddwheel.detect import (
    _reduced,
    contains_cycle_of_length,
    contains_odd_wheel,
    is_star_free,
    longest_path_order,
)
from oddwheel.enumerate import BudgetExceededError
from oddwheel.families import (
    U_KIND,
    V_KIND,
    CandidateSpec,
    bipartite_candidate,
    candidate,
    core_component,
    odd_wheel,
    primitive,
    spex_candidate,
    standard_member,
)
from oddwheel.enumerate import all_graphs, connected_with_degrees
from oddwheel.graphs import (
    Graph,
    build_graph,
    complement,
    disjoint_union,
    is_connected,
    join,
)


def spans_odd_wheel(g, k, subset):
    """Brute oracle: does the subset carry a spanning W_{2k+1}?"""
    for hub in subset:
        rest = [v for v in subset if v != hub]
        if not all(g.has_edge(hub, v) for v in rest):
            continue
        first = rest[0]
        for perm in itertools.permutations(rest[1:]):
            seq = [first, *perm]
            if all(
                g.has_edge(seq[i], seq[(i + 1) % len(seq)])
                for i in range(len(seq))
            ):
                return True
    return False


def oracle_contains_odd_wheel(g, k):
    size = 2 * k + 1
    if g.order < size:
        return False
    return any(
        spans_odd_wheel(g, k, sub)
        for sub in itertools.combinations(range(g.order), size)
    )


def test_cycle_examples():
    c6 = primitive("cycle", 6)
    assert contains_cycle_of_length(c6, 6)
    assert not contains_cycle_of_length(c6, 4)
    k5 = primitive("complete", 5)
    assert all(contains_cycle_of_length(k5, m) for m in (3, 4, 5))
    k33 = build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert not contains_cycle_of_length(k33, 5)
    with pytest.raises(ValueError):
        contains_cycle_of_length(c6, 2)


def test_odd_wheel_examples():
    assert contains_odd_wheel(odd_wheel(2), 2)
    assert contains_odd_wheel(primitive("complete", 6), 2)
    assert not contains_odd_wheel(primitive("cycle", 8), 2)
    cand = candidate(2, 20)
    assert not contains_odd_wheel(cand, 2)


def test_odd_wheel_against_oracle_random():
    rng = random.Random(42)
    for _ in range(120):
        n = rng.randint(5, 8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.4, 0.6, 0.8])
        ]
        g = build_graph(n, edges)
        assert contains_odd_wheel(g, 2) == oracle_contains_odd_wheel(g, 2)


def test_odd_wheel_candidates_free():
    v22 = spex_candidate(CandidateSpec(22, 4, 0, standard_member("V", 4, 11), True))
    assert not contains_odd_wheel(v22, 4)
    u20 = bipartite_candidate(
        standard_member("U", 3, 10), build_graph(10, [(0, 1)])
    )
    assert not contains_odd_wheel(u20, 3)


def test_longest_path_examples():
    assert longest_path_order(primitive("cycle", 7)) == 7
    two_k4 = disjoint_union([primitive("complete", 4)] * 2)
    assert longest_path_order(two_k4) == 4
    assert longest_path_order(core_component(4)) == 5


def test_longest_path_against_permutation_oracle():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 7)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        ]
        g = build_graph(n, edges)
        best = 1
        for k in range(2, n + 1):
            found = any(
                all(g.has_edge(seq[i], seq[i + 1]) for i in range(k - 1))
                for seq in itertools.permutations(range(n), k)
            )
            if not found:
                break
            best = k
        assert longest_path_order(g) == best


def test_star_free():
    assert is_star_free(primitive("cycle", 9), 3)
    k14 = build_graph(5, [(0, i) for i in range(1, 5)])
    assert not is_star_free(k14, 4)
    assert is_star_free(core_component(4), 4)
    with pytest.raises(ValueError):
        is_star_free(k14, 0)


def test_monotonicity_under_edge_addition():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(5, 8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = build_graph(n, edges)
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        g2 = g.add_edges([rng.choice(non_edges)])
        assert longest_path_order(g2) >= longest_path_order(g)
        if contains_odd_wheel(g, 2):
            assert contains_odd_wheel(g2, 2)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def test_budget_exhaustion_raises():
    # The Petersen graph is prime (connected, with a connected
    # complement) and twin-free, so its cycle question reaches the
    # kernel, which needs more than 2 expansions to rule out C_10.
    with pytest.raises(BudgetExceededError):
        contains_cycle_of_length(petersen(), 10, budget=2)
    assert not contains_cycle_of_length(petersen(), 10)
    # K12 is a join of 12 single vertices: decided without a search.
    k12 = primitive("complete", 12)
    assert contains_cycle_of_length(k12, 12, budget=0)
    with pytest.raises(BudgetExceededError):
        longest_path_order(k12, budget=2)


@pytest.mark.parametrize(
    "run",
    [
        lambda: longest_path_order(primitive("complete", 9), budget=-1),
        lambda: contains_cycle_of_length(
            primitive("complete", 9), 9, budget=-1
        ),
        lambda: contains_odd_wheel(odd_wheel(2), 2, budget=-1),
    ],
    ids=["path", "cycle", "odd_wheel"],
)
def test_negative_budget_is_rejected(run):
    with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
        run()


@pytest.mark.parametrize(
    "run",
    [
        lambda b: contains_cycle_of_length(petersen(), 10, budget=b),
        lambda b: contains_odd_wheel(
            join([primitive("complete", 1), petersen()]), 5, budget=b
        ),
        lambda b: longest_path_order(primitive("cycle", 6), b),
        lambda b: all_graphs(5, budget=b),
        lambda b: connected_with_degrees(8, 3, False, budget=b),
    ],
    ids=["cycle", "odd_wheel", "path", "all_graphs", "connected_with_degrees"],
)
def test_budget_none_zero_and_negative(run, fresh_caches):
    # None is no limit, 0 is overrun at the first node expansion (or
    # enumerated child), and a negative budget is rejected up front.
    want = run(10**9)
    fresh_caches()
    assert run(None) == want
    fresh_caches()
    with pytest.raises(BudgetExceededError):
        run(0)
    with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
        run(-1)


def test_lemma_path_guarantee_small():
    # connected, all degrees D except at most one D-1, order >= 2D+1
    # implies a path on 2D+1 vertices; exhaustive at D=2
    from oddwheel.enumerate import connected_with_degrees

    for order in range(5, 10):
        for g in connected_with_degrees(order, 2, False) + \
                connected_with_degrees(order, 2, True):
            assert longest_path_order(g) >= 5


def reference_contains_odd_wheel(g, k):
    """Plain hub scan: every hub of degree >= 2k, its whole neighbourhood
    subgraph, the unreduced pure cycle search without a budget."""
    for hub in range(g.order):
        if g.degree(hub) < 2 * k:
            continue
        nbhd = g.subgraph(g.neighbors(hub))
        if kernels.has_cycle_of_length(nbhd.rows, 2 * k):
            return True
    return False


def relabelled(g, seed):
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    return build_graph(g.order, ((perm[u], perm[v]) for u, v in g.edges()))


def test_odd_wheel_against_reference_scan_random():
    rng = random.Random(2024)
    seen = {(k, answer): 0 for k in (2, 3) for answer in (False, True)}
    for _ in range(150):
        n = rng.randint(9, 14)
        p = rng.choice([0.3, 0.5, 0.7, 0.85])
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = build_graph(n, edges)
        for k in (2, 3):
            want = reference_contains_odd_wheel(g, k)
            assert contains_odd_wheel(g, k) == want
            seen[k, want] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "k, g",
    [
        (3, bipartite_candidate(
            standard_member(U_KIND, 3, 10), build_graph(10, [(0, 1)]))),
        (4, spex_candidate(
            CandidateSpec(22, 4, 0, standard_member(V_KIND, 4, 11), True))),
        (5, bipartite_candidate(
            standard_member(U_KIND, 5, 11), build_graph(11, [(0, 1)]))),
    ],
    ids=["k3-n20", "k4-n22", "k5-n22"],
)
def test_odd_wheel_against_reference_scan_candidates(k, g):
    assert not reference_contains_odd_wheel(g, k)
    assert not contains_odd_wheel(g, k)
    non_edges = [
        (u, v)
        for u in range(g.order)
        for v in range(u + 1, g.order)
        if not g.has_edge(u, v)
    ]
    random.Random(k).shuffle(non_edges)
    for edge in non_edges:
        h = g.add_edges([edge])
        if reference_contains_odd_wheel(h, k):
            assert contains_odd_wheel(h, k)
            break
        assert not contains_odd_wheel(h, k)
    else:
        pytest.fail("no single added edge creates a wheel")


def test_odd_wheel_budget_independent_of_labelling():
    # Degree-ordered labels make the per-neighbourhood work independent
    # of the input labelling: 10,000 expansions suffice under every
    # relabelling of the order-202 candidate.
    n, k = 202, 4
    g = spex_candidate(
        CandidateSpec(n, k, 0, standard_member(V_KIND, k, n // 2), True)
    )
    for seed in (0, 1, 2):
        assert not contains_odd_wheel(relabelled(g, seed), k, budget=10_000)


def is_prime_piece(rows):
    """Connected, with a connected complement."""
    g = Graph(tuple(rows))
    return is_connected(g) and is_connected(complement(g))


def test_odd_wheel_searches_each_neighbourhood_once(monkeypatch):
    n, k = 202, 4
    g = relabelled(
        spex_candidate(
            CandidateSpec(n, k, 0, standard_member(V_KIND, k, n // 2), True)
        ),
        7,
    )
    decided, searched = [], []
    decide, search = detect._decide, kernels.has_cycle_of_length

    def recording_decide(nbhd, length, budget):
        decided.append(nbhd.rows)
        return decide(nbhd, length, budget)

    def recording_search(rows, length, budget=None):
        searched.append(tuple(rows))
        return search(rows, length, budget)

    monkeypatch.setattr(detect, "_decide", recording_decide)
    monkeypatch.setattr(kernels, "has_cycle_of_length", recording_search)
    assert not contains_odd_wheel(g, k)
    distinct = {
        _reduced(g.rows, g.rows[v], 2 * k).rows
        for v in range(n)
        if g.degree(v) >= 2 * k
    }
    assert len(decided) == len(set(decided)) == len(distinct)
    assert all(is_prime_piece(rows) for rows in searched)
    # Above KERNEL_ORDER the kernel sees only prime pieces; on random
    # graphs it is reached, so the check is not vacuous.
    rng = random.Random(77)
    searched.clear()
    for _ in range(60):
        m = rng.randint(10, 14)
        h = build_graph(m, [
            (u, v) for u in range(m) for v in range(u + 1, m)
            if rng.random() < 0.55
        ])
        contains_odd_wheel(h, 3)
    big = [rows for rows in searched if len(rows) > detect.KERNEL_ORDER]
    assert big and all(is_prime_piece(rows) for rows in big)


def brute_twin_classes(g):
    """Twin classes by definition: u and v are twins iff their rows agree
    off {u, v}; each class as a sorted list, by lowest member."""
    classes = []
    for v in range(g.order):
        for cls in classes:
            u = cls[0]
            off = ~((1 << u) | (1 << v))
            if g.rows[u] & off == g.rows[v] & off:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def capped_hub_masks(g, k):
    """The neighbour masks of one hub per twin class (its lowest member)
    in g with each class cut to its lowest 2k + 1 members, for the hubs of
    degree >= 2k there."""
    classes = brute_twin_classes(g)
    kept = sum(1 << v for cls in classes for v in cls[: 2 * k + 1])
    masks = [g.rows[cls[0]] & kept for cls in classes]
    return [m for m in masks if m.bit_count() >= 2 * k]


def recorded_reductions(monkeypatch):
    """The neighbour masks `_reduced` is called on, as they come."""
    masks = []
    reduce = detect._reduced

    def recording(rows, alive, cap):
        masks.append(alive)
        return reduce(rows, alive, cap)

    monkeypatch.setattr(detect, "_reduced", recording)
    return masks


def test_odd_wheel_reduces_each_neighbour_mask_once(monkeypatch):
    # One hub per twin class of the capped graph (each class cut to its
    # lowest 2k + 1 members), each hub's mask reduced once, and the answer
    # stays.  The 103 distinct neighbour masks of this input fall into 29
    # hub classes: the 99 R vertices off the R edge are one class, and
    # each K_4 filler of L is one.
    n, k = 202, 4
    g = relabelled(
        spex_candidate(
            CandidateSpec(n, k, 0, standard_member(V_KIND, k, n // 2), True)
        ),
        7,
    )
    masks = recorded_reductions(monkeypatch)
    assert not contains_odd_wheel(g, k)
    hubs = capped_hub_masks(g, k)
    assert len(masks) == len(set(masks)) == len(hubs) == 29
    assert set(masks) == set(hubs)
    assert len({g.rows[v] for v in range(n)}) == 103
    # two twin hubs over a path on 2k vertices: one reduction, no wheel;
    # closing the path into a cycle makes both hubs wheel hubs
    path = [(v, v + 1) for v in range(2, 2 * k + 1)]
    spokes = [(h, v) for h in (0, 1) for v in range(2, 2 * k + 2)]
    twins = build_graph(2 * k + 2, path + spokes)
    masks.clear()
    assert not contains_odd_wheel(twins, k)
    assert masks == [twins.rows[0]] and twins.rows[0] == twins.rows[1]
    assert contains_odd_wheel(twins.add_edges([(2, 2 * k + 1)]), k)


def unbalanced_k4_candidate(n):
    left = n // 2 + 1
    return bipartite_candidate(
        standard_member(U_KIND, 4, left), build_graph(n - left, [(0, 1)])
    )


def test_odd_wheel_scan_work_per_hub_is_flat_in_n(monkeypatch):
    # On the unbalanced k = 4 candidate the R class is cut to 9 members,
    # so each L hub's reduction sees its 3 filler neighbours and 11 R
    # vertices at every n, and the distinct neighbourhoods decided are the
    # same four.  Only the number of hub classes (one per K_4 filler)
    # grows with n.
    decided = []
    decide = detect._decide

    def recording_decide(nbhd, length, budget):
        decided.append(nbhd.order)
        return decide(nbhd, length, budget)

    masks = recorded_reductions(monkeypatch)
    monkeypatch.setattr(detect, "_decide", recording_decide)
    l_hubs = []
    for n in (1002, 10002):
        g = unbalanced_k4_candidate(n)
        masks.clear()
        decided.clear()
        assert not contains_odd_wheel(g, 4)
        left = n // 2 + 1
        # the two R hub classes see all of L, and the R edge's ends each
        # other too; every L hub reduces to one of two 13-vertex graphs
        assert decided == [left + 1, left, 13, 13]
        small = [m for m in masks if m.bit_count() < left]
        assert len(masks) == len(set(masks)) == len(small) + 2
        assert {m.bit_count() for m in small} == {14}
        l_hubs.append(len(small))
    assert l_hubs[1] > 9 * l_hubs[0]


def blow_up(rng, k):
    """A seeded G(m, 1/2), m = 4..8, with one vertex replaced by 2k + 2 to
    2k + 5 open or closed twins, relabelled at random."""
    m = rng.randint(4, 8)
    base = [
        (u, v) for u in range(m) for v in range(u + 1, m)
        if rng.random() < 0.5
    ]
    x = rng.randrange(m)
    size = rng.randint(2 * k + 2, 2 * k + 5)
    copies = [x] + list(range(m, m + size - 1))
    edges = set(base)
    for u, v in base:
        for end, other in ((u, v), (v, u)):
            if end == x:
                edges.update((min(c, other), max(c, other)) for c in copies)
    if rng.random() < 0.5:
        edges.update(itertools.combinations(copies, 2))
    return relabelled(build_graph(m + size - 1, sorted(edges)), rng.random())


def test_odd_wheel_against_reference_scan_on_twin_blow_ups():
    # A class above 2k + 1 members, which the whole-graph cap cuts.
    rng = random.Random(28)
    seen = {(k, answer): 0 for k in (2, 3) for answer in (False, True)}
    for _ in range(80):
        for k in (2, 3):
            g = blow_up(rng, k)
            assert max(map(len, brute_twin_classes(g))) > 2 * k + 1
            want = reference_contains_odd_wheel(g, k)
            assert contains_odd_wheel(g, k) == want
            seen[k, want] += 1
    assert all(seen.values()), seen


def old_twin_kept(rows, cap):
    """The kept labels of the earlier twin reduction: per pass rebuild the
    rows on the survivors, open classes then closed, to a fixed point."""
    labels = list(range(len(rows)))
    rows = list(rows)
    while True:
        size = len(rows)
        for closed in (False, True):
            keys = [
                rows[v] | (1 << v) if closed else rows[v]
                for v in range(len(rows))
            ]
            taken: dict[int, int] = {}
            kept = []
            for v, key in enumerate(keys):
                taken[key] = taken.get(key, 0) + 1
                if taken[key] <= cap:
                    kept.append(v)
            pos = {v: i for i, v in enumerate(kept)}
            rows = [
                sum(1 << pos[w] for w in range(len(rows))
                    if (rows[v] >> w) & 1 and w in pos)
                for v in kept
            ]
            labels = [labels[v] for v in kept]
        if len(rows) == size:
            return labels


def random_blow_up(rng):
    """A small random graph with each vertex replaced by a class of open
    or closed twins, plus a few stray edges."""
    base = rng.randint(2, 5)
    sizes = [rng.randint(1, 5) for _ in range(base)]
    starts = [sum(sizes[:i]) for i in range(base)]
    n = sum(sizes)
    edges = set()
    for i in range(base):
        cls = range(starts[i], starts[i] + sizes[i])
        if rng.random() < 0.5:
            edges.update(itertools.combinations(cls, 2))
        for j in range(i + 1, base):
            if rng.random() < 0.6:
                other = range(starts[j], starts[j] + sizes[j])
                edges.update(itertools.product(cls, other))
    for _ in range(rng.randint(0, 2)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, ((perm[u], perm[v]) for u, v in edges))


def test_reduced_keeps_the_old_vertex_set():
    rng = random.Random(31)
    for _ in range(200):
        g = random_blow_up(rng)
        cap = rng.randint(1, 4)
        masks = [(1 << g.order) - 1] + [g.rows[v] for v in range(g.order)]
        for alive in masks:
            verts = [v for v in range(g.order) if (alive >> v) & 1]
            sub = g.subgraph(verts)
            kept = [verts[i] for i in old_twin_kept(sub.rows, cap)]
            kept_mask = sum(1 << v for v in kept)
            order = sorted(
                kept, key=lambda v: (-(g.rows[v] & kept_mask).bit_count(), v)
            )
            assert _reduced(g.rows, alive, cap) == g.subgraph(order)


def drop_one_at_a_time(rows, alive, cap, rng):
    """The vertex set left when, one vertex at a time and in a random
    order, a vertex with `cap` lower-labelled twins in the graph induced on
    what is left is dropped, until no vertex has (twins as in
    `brute_twin_classes`: rows equal off the pair)."""
    while True:
        verts = [v for v in range(len(rows)) if (alive >> v) & 1]
        droppable = [
            v for v in verts
            if sum(
                u < v
                and rows[u] & alive & ~(1 << v) == rows[v] & alive & ~(1 << u)
                for u in verts
            ) >= cap
        ]
        if not droppable:
            return alive
        alive ^= 1 << rng.choice(droppable)


def test_reduced_does_not_depend_on_the_order_of_drops():
    # A vertex with `cap` lower-labelled twins keeps that many after any
    # other vertex is dropped, so every order of single drops ends at the
    # set `_reduced` keeps with its whole-class passes.
    rng = random.Random(30)
    for n in range(7):
        for g in all_graphs(n):
            for alive in range(1 << n):
                for cap in range(1, 5):
                    kept = drop_one_at_a_time(g.rows, alive, cap, rng)
                    order = sorted(
                        (v for v in range(n) if (kept >> v) & 1),
                        key=lambda v: (-(g.rows[v] & kept).bit_count(), v),
                    )
                    assert _reduced(g.rows, alive, cap) == g.subgraph(order)


def test_budget_covers_the_whole_call():
    # Two prime neighbourhoods without C_10 (two labellings of the
    # Petersen graph, so they reduce to different graphs), each under
    # its own hub: each fits the budget alone, together they overrun it.
    p1 = petersen()
    p2 = relabelled(p1, 3)
    spent = []
    for p in (p1, p2):
        nbhd = _reduced(p.rows, (1 << 10) - 1, 10)
        used = detect._Budget(10**9)
        assert not kernels.has_cycle_of_length(nbhd.rows, 10, used)
        spent.append(10**9 - used.left)
    assert nbhd.rows != _reduced(p1.rows, (1 << 10) - 1, 10).rows
    budget = max(spent)
    assert 0 < min(spent) and budget < sum(spent)
    wheel1, wheel2 = (join([primitive("complete", 1), p]) for p in (p1, p2))
    for wheel in (wheel1, wheel2):
        assert not contains_odd_wheel(wheel, 5, budget=budget)
    both = disjoint_union([wheel1, wheel2])
    with pytest.raises(BudgetExceededError):
        contains_odd_wheel(both, 5, budget=budget)
    assert not contains_odd_wheel(both, 5, budget=sum(spent))
    # The same for the pieces of one cycle question.
    pieces = disjoint_union([p1, p2])
    with pytest.raises(BudgetExceededError):
        contains_cycle_of_length(pieces, 10, budget=budget)
    assert not contains_cycle_of_length(pieces, 10, budget=sum(spent))


def unlimited():
    return detect._Budget(None)


def test_cycle_rule_matches_kernel_on_all_graphs_up_to_8():
    pairs = 0
    for n in range(3, 9):
        for g in all_graphs(n):
            full = (1 << n) - 1
            for length in range(3, n + 1):
                want = kernels.has_cycle_of_length(g.rows, length)
                assert detect._cycle(g.rows, full, length, unlimited()) == want
                assert contains_cycle_of_length(g, length) == bool(want)
                pairs += 1
    assert pairs == 80_048


def random_cograph(rng, n):
    """One vertex, or the disjoint union or join of two random cographs."""
    if n == 1:
        return primitive("empty", 1)
    a = rng.randint(1, n - 1)
    parts = [random_cograph(rng, a), random_cograph(rng, n - a)]
    return join(parts) if rng.random() < 0.5 else disjoint_union(parts)


def random_join(rng, n):
    """A join of two to four random parts, each G(m, p), so parts may be
    prime; the parts' sizes add up to n."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
    g = None
    for a, b in zip([0, *cuts], [*cuts, n]):
        p = rng.choice([0.2, 0.5, 0.8])
        part = build_graph(b - a, [
            (u, v) for u in range(b - a) for v in range(u + 1, b - a)
            if rng.random() < p
        ])
        g = part if g is None else join([g, part])
    return g


@pytest.mark.parametrize("make", [random_join, random_cograph],
                         ids=["joins", "cographs"])
def test_cycle_rule_on_random_joins_and_cographs(make):
    nx = pytest.importorskip("networkx")
    rng = random.Random(2026)
    answers = set()
    for _ in range(150):
        n = rng.randint(4, 9)
        g = relabelled(make(rng, n), rng.randrange(10**6))
        full = (1 << n) - 1
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        lengths = {len(c) for c in nx.simple_cycles(h, length_bound=n)}
        for length in range(3, n + 1):
            want = kernels.has_cycle_of_length(g.rows, length)
            assert want == (length in lengths)
            assert detect._cycle(g.rows, full, length, unlimited()) == want
            assert contains_cycle_of_length(g, length) == bool(want)
            answers.add(want)
    # larger ones against the kernel alone
    for _ in range(60):
        n = rng.randint(10, 13)
        g = relabelled(make(rng, n), rng.randrange(10**6))
        for length in range(3, n + 1):
            want = kernels.has_cycle_of_length(g.rows, length)
            assert contains_cycle_of_length(g, length) == bool(want)
    assert answers == {0, 1}


def brute_path_cover(g):
    """m(a) for a = 0..n from every ordering of every vertex set: an
    ordering splits into paths at its non-adjacent consecutive pairs."""
    best = list(range(g.order + 1))
    for a in range(2, g.order + 1):
        for chosen in itertools.combinations(range(g.order), a):
            for seq in itertools.permutations(chosen):
                breaks = sum(
                    not g.has_edge(seq[i], seq[i + 1]) for i in range(a - 1)
                )
                best[a] = min(best[a], breaks + 1)
    return best


def test_path_cover_profile_against_brute_force():
    rng = random.Random(8)
    graphs = [random_cograph(rng, rng.randint(1, 7)) for _ in range(40)]
    graphs += [random_join(rng, rng.randint(2, 7)) for _ in range(40)]
    for _ in range(60):
        n = rng.randint(1, 7)
        graphs.append(build_graph(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < rng.choice([0.3, 0.5, 0.7])
        ]))
    graphs += [petersen().subgraph(range(7)), primitive("cycle", 7)]
    for g in graphs:
        full = (1 << g.order) - 1
        want = brute_path_cover(g)
        assert detect._profile(g.rows, full, g.order, unlimited()) == want
        top = rng.randint(1, g.order)
        cut = detect._profile(g.rows, full, top, unlimited())
        assert cut == want[:top + 1]
        bound = detect._profile(g.rows, full, g.order, None)
        assert all(b <= m for b, m in zip(bound, want))


def alternating_threshold(n):
    """Vertex v joined to every earlier vertex when v is odd, to none
    when v is even: no twins, so the cotree is a chain n levels deep."""
    return build_graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])


def test_cycle_rule_on_a_deep_cotree():
    g = alternating_threshold(41)
    for length in range(3, 42):
        want = kernels.has_cycle_of_length(g.rows, length)
        assert contains_cycle_of_length(g, length) == bool(want)
    # deeper than the interpreter's recursion limit
    deep = alternating_threshold(1200)
    assert _reduced(deep.rows, (1 << 1200) - 1, 8).order == 1200
    assert contains_cycle_of_length(deep, 8)


def test_join_with_a_large_prime_part_goes_to_the_kernel(monkeypatch):
    # A spider with legs of 6, 6 and 4 vertices is prime and its longest
    # path has 13 vertices, so a hub over it closes C_3..C_14 and nothing
    # longer.  Each answer needs the spider's profile up to l - 1
    # vertices; from l = 7 on its search could pass PROFILE_STATES, and
    # the kernel decides the whole join instead.
    legs = [(0, 1), (0, 7), (0, 13)] + [
        (v, v + 1) for v in (*range(1, 6), *range(7, 12), 13, 14, 15)
    ]
    spider = build_graph(17, legs)
    assert longest_path_order(spider) == 13
    assert comb(17, 6) * 6 > detect.PROFILE_STATES >= comb(17, 5) * 5
    hub = join([primitive("complete", 1), spider])
    searched = []
    search = kernels.has_cycle_of_length

    def recording(rows, length, budget=None):
        searched.append(length)
        return search(rows, length, budget)

    monkeypatch.setattr(kernels, "has_cycle_of_length", recording)
    for length in range(3, 19):
        want = search(hub.rows, length)
        assert contains_cycle_of_length(hub, length) == bool(want) == (
            length <= 14
        )
    assert searched == list(range(7, 19))
