"""The kernels must agree with independent oracles: brute force at small
orders, test-local copies of two earlier canonical-form searches, networkx
cycle enumeration and a subset-DP longest path."""

import hashlib
import itertools
import random
import time

import pytest

from oddwheel import kernels
from oddwheel.kernels import frame_code
from oddwheel.enumerate import _Budget, all_graphs, connected_with_degrees
from oddwheel.graphs import bits_of


def random_rows(rng, n, p):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def brute_min_code(n, rows):
    """Minimal column-major upper-triangle bit-string over all orders."""
    if n <= 1:
        return bytes([n])
    best = None
    for perm in itertools.permutations(range(n)):
        code = 0
        for j in range(1, n):
            for i in range(j):
                code = (code << 1) | ((rows[perm[i]] >> perm[j]) & 1)
        if best is None or code < best:
            best = code
    total = n * (n - 1) // 2
    return bytes([n]) + best.to_bytes((total + 7) // 8, "big")


def oracle_canon_code(n: int, rows) -> bytes:
    """The pure min-lex canonical code as it was before each frontier
    entry carried its minimal set: every child of a tying entry is built
    and keyed, with the planes as a tuple, and each entry is rescanned."""
    if n > 255:
        raise ValueError("canonical form limited to order <= 255")
    full = (1 << n) - 1

    frontier = dict.fromkeys(
        (1 << v, (rows[v] & ~(1 << v),)) for v in range(n)
    )
    code = 0
    for pos in range(1, n):
        best = -1
        chosen = []
        for entry in frontier:
            used, planes = entry
            cand = full & ~used
            c = 0
            for p in planes:
                rest = cand & ~p
                if rest:
                    cand = rest
                    c <<= 1
                else:
                    c = (c << 1) | 1
            if best < 0 or c < best:
                best = c
                chosen = [(entry, cand)]
            elif c == best:
                chosen.append((entry, cand))
        code = (code << pos) | best
        nxt = {}
        for (used, planes), cand in chosen:
            for v in bits_of(cand):
                now_used = used | (1 << v)
                keep = ~now_used
                nxt[
                    now_used,
                    tuple([p & keep for p in planes]) + (rows[v] & keep,),
                ] = None
        frontier = nxt
        if len(frontier) > 1_000_000:
            raise RuntimeError(
                "canonical-form frontier explosion; canonicalize per "
                "component instead of the whole graph"
            )
    return frame_code(n, code)


def untwinned_canon_code(rows) -> bytes:
    """The canonical code as it was before the twin rule: every frontier
    entry tries every vertex of its minimal set, twins in any order."""
    n = len(rows)
    full = (1 << n) - 1
    frontier = {(0, 0): full}
    best = 0
    rep = 0
    code = 0
    for pos in range(1, n):
        shift = (pos - 1) * n
        rep |= 1 << shift
        nxt = {}
        b = 1
        for (used, packed), cand in frontier.items():
            if not cand & (cand - 1):
                continue
            for v in bits_of(cand):
                low = 1 << v
                rest = cand ^ low
                zero = rest & ~rows[v]
                if zero:
                    if b:
                        nxt = {}
                        b = 0
                    rest = zero
                elif not b:
                    continue
                now = used | low
                planes = (packed | rows[v] << shift) & (full ^ now) * rep
                nxt[now, planes] = rest
        if nxt:
            best = best << 1 | b
        else:
            best = -1
            for (used, packed), single in frontier.items():
                now = used | single
                cand = full ^ now
                row = rows[single.bit_length() - 1]
                planes = (packed | row << shift) & cand * rep
                c = 0
                for i in range(0, pos * n, n):
                    rest = cand & ~(planes >> i)
                    if rest:
                        cand = rest
                        c <<= 1
                    else:
                        c = (c << 1) | 1
                if best < 0 or c < best:
                    best = c
                    nxt = {(now, planes): cand}
                elif c == best:
                    nxt[now, planes] = cand
        code = (code << pos) | best
        frontier = nxt
    return frame_code(n, code)


def brute_has_cycle(n, rows, length):
    for sub in itertools.combinations(range(n), length):
        first = sub[0]
        for perm in itertools.permutations(sub[1:]):
            seq = (first,) + perm
            if all(
                (rows[seq[i]] >> seq[(i + 1) % length]) & 1
                for i in range(length)
            ):
                return 1
    return 0


def brute_longest_path(n, rows):
    best = 1 if n else 0
    for k in range(2, n + 1):
        found = any(
            all((rows[seq[i]] >> seq[i + 1]) & 1 for i in range(k - 1))
            for seq in itertools.permutations(range(n), k)
        )
        if not found:
            break
        best = k
    return best


def relabel(n, rows, perm):
    """Copy of the graph with vertex u renamed perm[u]."""
    out = [0] * n
    for u in range(n):
        for v in range(n):
            if (rows[u] >> v) & 1:
                out[perm[u]] |= 1 << perm[v]
    return out


def circulant(n, offsets):
    return [
        sum((1 << ((u + o) % n)) | (1 << ((u - o) % n)) for o in offsets)
        for u in range(n)
    ]


def complete_bipartite(a, b):
    left, right = (1 << a) - 1, ((1 << b) - 1) << a
    return [right if u < a else left for u in range(a + b)]


def petersen():
    rows = [0] * 10
    for i in range(5):
        for u, v in ((i, (i + 1) % 5), (i, i + 5), (i + 5, 5 + (i + 2) % 5)):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def hypercube(d):
    return [sum(1 << (u ^ (1 << i)) for i in range(d)) for u in range(1 << d)]


def complete_multipartite(*sizes):
    full = (1 << sum(sizes)) - 1
    rows, start = [], 0
    for size in sizes:
        part = ((1 << size) - 1) << start
        rows += [full ^ part] * size
        start += size
    return rows


def blow_up(rows, t, closed):
    """Each vertex u of the graph replaced by t twins u + i*n, open
    (non-adjacent) or closed (adjacent)."""
    n = len(rows)
    out = []
    for u in range(t * n):
        nbrs = rows[u % n] | (1 << u % n if closed else 0)
        r = sum(nbrs << i * n for i in range(t))
        out.append(r & ~(1 << u))
    return out


def test_pure_matches_brute_canon():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(0, 7)
        rows = random_rows(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert kernels.canon_code(rows) == brute_min_code(n, rows)


def test_canon_invariant_under_relabeling():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 8)
        rows = random_rows(rng, n, 0.5)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = relabel(n, rows, perm)
        assert kernels.canon_code(rows) == kernels.canon_code(shuffled)


# sha256 of the sorted pure canonical codes of every graph in the list,
# each canonicalized from its reversed labelling (u -> n-1-u).  Orders 1-7
# and the cubic digest were recorded with the earlier per-vertex
# contribution frontier, order 8 with the tuple-plane frontier that built
# every child; they pin the codes of the current frontier to both byte
# for byte.
GOLDEN_ALL_GRAPHS = {
    1: "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    2: "e14b77bb203317724ad98b20cf058c977a65f1fbb20c40b5b71b9f063f68c64a",
    3: "4baf3bbd7d9d9c85b869d826c8d834a5c0f4f20f80dd1e5743a3b195210fa833",
    4: "36aae959a2f5d52433edea3c64bf7dd30283d8441398217ad4577344c745680f",
    5: "859f46efecd46312016052c63d001b25967af7b67b1251143dbc795ec4ff43d4",
    6: "9a4165fc39443def0e1a304144703837e1c3805ed276020000b8fc295d110e57",
    7: "f13b5d9342945face76d4008b29c7aa211b48bfd9e8501739d5f230a12e1a199",
    8: "5c492e6c82ac0d0f121104418034e6d94949c955bfe574a48f4535821051b474",
}
GOLDEN_CUBIC_10 = (
    "cd287a973c497f493dedbe7a5a7016d19ca3b5ee6a5b128eb0c394dadf8e5b20"
)


def golden_digest(graphs):
    codes = sorted(
        kernels.canon_code(
            relabel(g.order, g.rows, range(g.order - 1, -1, -1))
        )
        for g in graphs
    )
    return hashlib.sha256(b"".join(codes)).hexdigest()


def test_canon_codes_match_golden_digests():
    for n, digest in GOLDEN_ALL_GRAPHS.items():
        assert golden_digest(all_graphs(n)) == digest, n
    cubic = connected_with_degrees(10, 3, False)
    assert len(cubic) == 19
    assert golden_digest(cubic) == GOLDEN_CUBIC_10


@pytest.mark.parametrize(
    "n, rows",
    [
        (12, circulant(12, [1])),
        (10, complete_bipartite(5, 5)),
        (10, petersen()),
        (16, hypercube(4)),
    ],
    ids=["C12", "K5,5", "Petersen", "Q4"],
)
def test_canon_invariant_on_vertex_transitive_graphs(n, rows):
    # every vertex ties at the first level and automorphic placements
    # keep tying after it; only the frontier dedup keeps these from
    # growing factorially
    rng = random.Random(n)
    code = kernels.canon_code(rows)
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = relabel(n, rows, perm)
        assert kernels.canon_code(shuffled) == code
        assert oracle_canon_code(n, shuffled) == code


def test_pure_canon_matches_oracle_on_random_graphs():
    rng = random.Random(18)
    for n in range(8, 15):
        for p in (0.2, 0.5, 0.8):
            rows = random_rows(rng, n, p)
            assert kernels.canon_code(rows) == oracle_canon_code(
                n, rows
            ), (n, p)


def test_pure_canon_matches_oracle_on_cubic_12():
    cubic = connected_with_degrees(12, 3, False)
    assert len(cubic) == 85
    rng = random.Random(19)
    for g in cubic:
        for _ in range(2):
            perm = list(range(g.order))
            rng.shuffle(perm)
            shuffled = relabel(g.order, g.rows, perm)
            assert kernels.canon_code(shuffled) == oracle_canon_code(
                g.order, shuffled
            )


def test_pure_canon_matches_oracle_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(
        max_examples=100, deadline=None, database=None, derandomize=True
    )
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(0, 12))
        p = data.draw(st.sampled_from([0.2, 0.5, 0.8]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rows = random_rows(random.Random(seed), n, p)
        code = kernels.canon_code(rows)
        assert code == oracle_canon_code(n, rows)
        perm = data.draw(st.permutations(range(n)))
        assert kernels.canon_code(relabel(n, rows, perm)) == code

    check()


def test_twin_rule_matches_untwinned_kernel_on_all_graphs():
    rng = random.Random(24)
    for n in range(1, 8):
        for g in all_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            rows = relabel(n, g.rows, perm)
            assert kernels.canon_code(rows) == untwinned_canon_code(rows)


@pytest.mark.parametrize(
    "rows",
    [
        complete_bipartite(1, 12),
        complete_bipartite(4, 9),
        complete_multipartite(*[1] * 12),
        [0] * 12,
        complete_multipartite(2, 3, 4),
        blow_up(circulant(5, [1]), 2, False),
        blow_up(circulant(5, [1]), 3, True),
        blow_up(petersen(), 2, False),
        blow_up(petersen(), 2, True),
    ],
    ids=["K1,12", "K4,9", "K12", "empty12", "K2,3,4", "C5[2K1]",
         "C5[K3]", "Petersen[2K1]", "Petersen[K2]"],
)
def test_twin_rule_matches_untwinned_kernel_on_twin_heavy_graphs(rows):
    n = len(rows)
    code = untwinned_canon_code(rows)
    assert kernels.canon_code(rows) == code
    rng = random.Random(n)
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        assert kernels.canon_code(relabel(n, rows, perm)) == code


def test_twin_heavy_graphs_of_order_20():
    # Without the twin rule the frontier keeps every order of the twins,
    # and each of these takes seconds (K_{1,20} about 15 s); with it each
    # takes well under a millisecond.
    start = time.perf_counter()
    assert kernels.canon_code(complete_multipartite(*[1] * 20)) == (
        frame_code(20, (1 << 190) - 1)
    )
    assert kernels.canon_code([0] * 20) == frame_code(20, 0)
    # leaves first, then the hubs
    assert kernels.canon_code(complete_bipartite(1, 20)) == (
        kernels.pack_code(21, complete_bipartite(20, 1))
    )
    assert kernels.canon_code(complete_bipartite(3, 17)) == (
        kernels.pack_code(20, complete_bipartite(17, 3))
    )
    assert time.perf_counter() - start < 1.0


def test_frontier_guard_on_long_cycle():
    # C_24: the minimal prefix starts with an independent set, and by its
    # fifth vertex over a million ordered placements of one tie, so the
    # frontier guard must fire
    with pytest.raises(RuntimeError, match="frontier explosion"):
        kernels.canon_code(circulant(24, [1]))


def test_code_roundtrip():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(0, 9)
        rows = random_rows(rng, n, 0.4)
        code = kernels.canon_code(rows)
        n2, rows2 = kernels.code_to_rows(code)
        assert n2 == n
        assert kernels.canon_code(rows2) == code
        # pack of the canonical copy reproduces the code verbatim
        assert kernels.pack_code(n2, rows2) == code


def test_cycle_kernels_match_each_other_and_brute():
    rng = random.Random(15)
    for _ in range(150):
        n = rng.randint(3, 8)
        rows = random_rows(rng, n, 0.4)
        for length in range(3, n + 1):
            expected = brute_has_cycle(n, rows, length)
            assert kernels.has_cycle_of_length(rows, length) == expected


def test_path_kernels_match_each_other_and_brute():
    rng = random.Random(16)
    for _ in range(100):
        n = rng.randint(1, 7)
        rows = random_rows(rng, n, 0.4)
        expected = brute_longest_path(n, rows)
        assert kernels.longest_path_order(rows) == expected


def test_budget_exhaustion_is_signaled():
    # a dense graph with a tiny budget must return -1, not a wrong answer
    n = 12
    rows = [((1 << n) - 1) & ~(1 << u) for u in range(n)]
    assert kernels.has_cycle_of_length(rows, n, _Budget(3)) == -1
    assert kernels.longest_path_order(rows, _Budget(3)) == -1


def test_budget_is_a_threshold():
    # a budget caps node expansions, so for each graph there is one T, the
    # expansions of the unbudgeted search: every budget below T runs out
    # (-1) and every budget from T on returns the unbudgeted answer
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(4, 9)
        rows = random_rows(rng, n, 0.5)
        for search in (
            lambda b: kernels.has_cycle_of_length(rows, n, _Budget(b)),
            lambda b: kernels.longest_path_order(rows, _Budget(b)),
        ):
            answers = [search(b) for b in range(400)]
            assert answers[-1] == search(None) != -1
            t = answers.index(answers[-1])
            assert answers[:t] == [-1] * t
            assert answers[t:] == [answers[-1]] * (400 - t)


def test_cycle_kernel_matches_networkx_property():
    nx = pytest.importorskip("networkx")
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(
        max_examples=150, deadline=None, database=None, derandomize=True
    )
    @given(
        st.integers(3, 11),
        st.sampled_from([0.2, 0.35, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    def check(n, p, seed):
        rows = random_rows(random.Random(seed), n, p)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((u, v) for u in range(n) for v in bits_of(rows[u]))
        lengths = {len(c) for c in nx.simple_cycles(g, length_bound=n)}
        for length in range(3, n + 1):
            assert kernels.has_cycle_of_length(rows, length) == (
                length in lengths
            ), (n, rows, length)

    check()


def held_karp_longest_path(n, rows):
    """Most vertices on a simple path, by DP over (vertex set, end vertex):
    ends[s] is the mask of the vertices at which some path through exactly
    the set s ends."""
    if n == 0:
        return 0
    ends = [0] * (1 << n)
    for v in range(n):
        ends[1 << v] = 1 << v
    best = 1
    for s in range(1, 1 << n):
        if not ends[s]:
            continue
        best = max(best, s.bit_count())
        for v in bits_of(ends[s]):
            for w in bits_of(rows[v] & ~s):
                ends[s | 1 << w] |= 1 << w
    return best


def test_path_kernel_matches_held_karp():
    rng = random.Random(20)
    for _ in range(120):
        n = rng.randint(1, 12)
        rows = random_rows(rng, n, rng.choice([0.15, 0.25, 0.4, 0.6]))
        assert kernels.longest_path_order(rows) == (
            held_karp_longest_path(n, rows)
        ), (n, rows)
