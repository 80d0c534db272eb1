import itertools
import random

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
    core_component,
    matching_embedded_candidate,
    odd_wheel,
    primitive,
    spex_candidate,
    standard_member,
)
from oddwheel.graphs import build_graph, disjoint_union


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
    cand = matching_embedded_candidate(20)
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
    from oddwheel.families import bipartite_candidate

    u20 = bipartite_candidate(20, 10, standard_member("U", 3, 10), True)
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


def test_budget_exhaustion_raises():
    k12 = primitive("complete", 12)
    with pytest.raises(BudgetExceededError):
        contains_cycle_of_length(k12, 12, budget=2)
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
    # -1 is the kernels' "no limit"; the detectors do not pass it through
    with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
        run()


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
        if kernels.has_cycle_of_length(
            nbhd.order, list(nbhd.rows), 2 * k, -1
        ):
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
        (3, bipartite_candidate(20, 10, standard_member(U_KIND, 3, 10), True)),
        (4, spex_candidate(
            CandidateSpec(22, 4, 0, standard_member(V_KIND, 4, 11), True))),
        (5, bipartite_candidate(22, 11, standard_member(U_KIND, 5, 11), True)),
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


def test_odd_wheel_searches_each_neighbourhood_once(monkeypatch):
    n, k = 202, 4
    g = relabelled(
        spex_candidate(
            CandidateSpec(n, k, 0, standard_member(V_KIND, k, n // 2), True)
        ),
        7,
    )
    searched = []
    search = kernels.has_cycle_of_length

    def recording(order, rows, length, budget):
        searched.append(tuple(rows))
        return search(order, rows, length, budget)

    monkeypatch.setattr(kernels, "has_cycle_of_length", recording)
    assert not contains_odd_wheel(g, k)
    distinct = {
        _reduced(g.rows, g.rows[v], 2 * k).rows
        for v in range(n)
        if g.degree(v) >= 2 * k
    }
    assert len(searched) == len(set(searched)) == len(distinct)


def test_odd_wheel_reduces_each_neighbour_mask_once(monkeypatch):
    # The reduction is a function of (rows, mask, cap), so hubs with one
    # neighbour mask (twins) are reduced once, and the answer stays.
    n, k = 202, 4
    g = relabelled(
        spex_candidate(
            CandidateSpec(n, k, 0, standard_member(V_KIND, k, n // 2), True)
        ),
        7,
    )
    masks = []
    reduce = detect._reduced

    def recording(rows, alive, cap):
        masks.append(alive)
        return reduce(rows, alive, cap)

    monkeypatch.setattr(detect, "_reduced", recording)
    assert not contains_odd_wheel(g, k)
    distinct = {g.rows[v] for v in range(n) if g.degree(v) >= 2 * k}
    assert len(masks) == len(set(masks)) == len(distinct)
    assert len(distinct) < sum(1 for v in range(n) if g.degree(v) >= 2 * k)
    # two twin hubs over a path on 2k vertices: one reduction, no wheel;
    # closing the path into a cycle makes both hubs wheel hubs
    path = [(v, v + 1) for v in range(2, 2 * k + 1)]
    spokes = [(h, v) for h in (0, 1) for v in range(2, 2 * k + 2)]
    twins = build_graph(2 * k + 2, path + spokes)
    masks.clear()
    assert not contains_odd_wheel(twins, k)
    assert masks == [twins.rows[0]] and twins.rows[0] == twins.rows[1]
    assert contains_odd_wheel(twins.add_edges([(2, 2 * k + 1)]), k)


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
