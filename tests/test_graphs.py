import itertools
import random

import pytest

from oddwheel import graphs as graphs_mod
from oddwheel.enumerate import all_graphs, connected_with_degrees
from oddwheel.graphs import (
    EquitablePartition,
    GraphError,
    automorphism_generators,
    build_graph,
    certify_equitable,
    classify_degrees,
    complement,
    components,
    disjoint_union,
    equitable_partition,
    is_automorphism,
    is_connected,
    join,
    permute_mask,
    twin_classes,
)
from oddwheel.families import primitive


def random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert g.degrees() == (2, 2, 2)


def test_build_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(GraphError):
        build_graph(4, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        build_graph(4, [(2, 3), (2, 3)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(-1, 2)])


def test_complement_of_complete_is_empty():
    g = complement(primitive("complete", 4))
    assert g.edge_count == 0 and g.order == 4


def test_complement_involution_and_edge_split():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.random())
        assert complement(complement(g)) == g
        assert g.edge_count + complement(g).edge_count == n * (n - 1) // 2


def test_complement_of_matching_is_cycle_on_four():
    m4 = primitive("matching", 4)
    c = complement(m4)
    # enumerate: 4 vertices, degrees all 2, connected -> the 4-cycle
    assert sorted(c.degrees()) == [2, 2, 2, 2]
    assert is_connected(c)


def test_disjoint_union_offsets_and_counts():
    g = disjoint_union([primitive("complete", 3), primitive("complete", 3)])
    assert g.order == 6 and g.edge_count == 6
    assert len(components(g)) == 2
    single = disjoint_union([primitive("cycle", 4)])
    assert single == primitive("cycle", 4)
    with pytest.raises(GraphError):
        disjoint_union([])


def test_join_is_chainwise():
    p3 = join([primitive("complete", 1)] * 3)
    assert p3.order == 3
    assert p3.has_edge(0, 1) and p3.has_edge(1, 2) and not p3.has_edge(0, 2)


def test_join_wheel_degrees():
    w5 = join([primitive("complete", 1), primitive("cycle", 4)])
    assert sorted(w5.degrees()) == [3, 3, 3, 3, 4]


def test_join_core_shape():
    g = join(
        [
            primitive("complete", 1),
            complement(primitive("matching", 2)),
            primitive("complete", 2),
        ]
    )
    assert g.order == 5
    assert sorted(g.degrees()) == [2, 3, 3, 3, 3]
    # chain join: the single vertex is not adjacent to the edge pair
    assert not g.has_edge(0, 3) and not g.has_edge(0, 4)


def test_components_order_and_mapping():
    g = disjoint_union([primitive("complete", 3), primitive("complete", 3)])
    comps = components(g)
    assert [c.labels for c in comps] == [(0, 1, 2), (3, 4, 5)]
    assert all(c.graph.order == 3 for c in comps)
    assert len(components(primitive("cycle", 7))) == 1
    empty3 = build_graph(3, [])
    assert [c.graph.order for c in components(empty3)] == [1, 1, 1]


def test_components_conserve_vertices_and_edges():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), 0.25)
        comps = components(g)
        assert sum(c.graph.order for c in comps) == g.order
        assert sum(c.graph.edge_count for c in comps) == g.edge_count
        seen = sorted(l for c in comps for l in c.labels)
        assert seen == list(range(g.order))


def test_classify_degrees():
    c6 = classify_degrees(primitive("cycle", 6))
    assert c6.is_regular and c6.max_degree == 2 and not c6.is_nearly_regular
    core = join(
        [
            primitive("complete", 1),
            complement(primitive("matching", 2)),
            primitive("complete", 2),
        ]
    )
    cls = classify_degrees(core)
    assert cls.is_nearly_regular and not cls.is_regular
    assert cls.max_degree == 3 and cls.deficient_vertex == 0
    p3 = build_graph(3, [(0, 1), (1, 2)])
    cls = classify_degrees(p3)
    assert not cls.is_regular and not cls.is_nearly_regular
    assert cls.deficient_vertex is None


def test_subgraph_relabels():
    g = primitive("cycle", 5)
    sub = g.subgraph([1, 2, 3])
    assert sub.order == 3 and sub.edge_count == 2
    assert sub.has_edge(0, 1) and sub.has_edge(1, 2)


def test_graph_immutability():
    g = primitive("cycle", 4)
    g2 = g.add_edges([(0, 2)])
    assert g.edge_count == 4 and g2.edge_count == 5
    with pytest.raises(GraphError):
        g.add_edges([(0, 1)])


def relabel(g, perm):
    return build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(m):
    return build_graph(m + 1, [(0, i) for i in range(1, m + 1)])


def complete_bipartite(a, b):
    return build_graph(
        a + b, [(u, a + v) for u in range(a) for v in range(b)]
    )


PETERSEN = build_graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def assert_equitable(g, part):
    """Check equitability from neighbour lists, independently of
    certify_equitable."""
    cell_sets = [set(
        v for v in range(g.order) if (mask >> v) & 1) for mask in part.cells
    ]
    assert sorted(v for cs in cell_sets for v in cs) == list(range(g.order))
    for i, cs in enumerate(cell_sets):
        assert cs, "empty cell"
        for v in cs:
            assert part.cell_of[v] == i
            for j, other in enumerate(cell_sets):
                count = sum(1 for w in g.neighbors(v) if w in other)
                assert count == part.quotient[i][j]


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def is_equitable(g, blocks):
    for block in blocks:
        for other in blocks:
            mask = sum(1 << w for w in other)
            if len({(g.rows[v] & mask).bit_count() for v in block}) != 1:
                return False
    return True


def test_equitable_partition_is_equitable():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(0, 40)
        g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.5, 0.9]))
        part = equitable_partition(g)
        assert_equitable(g, part)
        certify_equitable(g, part)


@pytest.mark.parametrize(
    "g, cells",
    [
        (build_graph(0, []), 0),
        (build_graph(1, []), 1),
        (primitive("empty", 5), 1),
        (primitive("complete", 6), 1),
        (primitive("cycle", 9), 1),
        (primitive("matching", 8), 1),
        (PETERSEN, 1),
        (complete_bipartite(3, 3), 1),
        (complete_bipartite(2, 5), 2),
        (complete_bipartite(7, 1), 2),
        (star(1), 1),
        (star(2), 2),
        (star(6), 2),
        (path_graph(2), 1),
        (path_graph(3), 2),
        (path_graph(8), 4),
        (path_graph(9), 5),
    ],
)
def test_equitable_partition_cell_counts(g, cells):
    part = equitable_partition(g)
    assert len(part.cells) == cells
    assert_equitable(g, part)


def test_equitable_partition_quotients_of_known_graphs():
    assert equitable_partition(build_graph(0, [])) == EquitablePartition(
        (), (), ()
    )
    assert equitable_partition(PETERSEN).quotient == ((3,),)
    assert equitable_partition(complete_bipartite(2, 5)).quotient == (
        (0, 2),
        (5, 0),
    )
    assert equitable_partition(star(4)).quotient == ((0, 1), (4, 0))
    # P_n: the cells are the mirror pairs {i, n-1-i}
    for n in range(2, 12):
        part = equitable_partition(path_graph(n))
        assert len(part.cells) == (n + 1) // 2
        assert all(
            part.cell_of[i] == part.cell_of[n - 1 - i] for i in range(n)
        )


def test_equitable_partition_is_the_coarsest():
    # the coarsest equitable partition is the unique one with fewest cells
    # among all set partitions (every equitable partition refines it)
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.random())
        fewest = None
        best = []
        for blocks in set_partitions(list(range(n))):
            if not is_equitable(g, blocks):
                continue
            if fewest is None or len(blocks) < fewest:
                fewest, best = len(blocks), []
            if len(blocks) == fewest:
                best.append({frozenset(b) for b in blocks})
        assert len(best) == 1
        part = equitable_partition(g)
        got = {
            frozenset(v for v in range(n) if (m >> v) & 1) for m in part.cells
        }
        assert got == best[0]


def test_equitable_partition_is_labelling_invariant():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 90)
        g = random_graph(rng, n, rng.choice([0.03, 0.1, 0.3]))
        part = equitable_partition(g)
        sizes = sorted(m.bit_count() for m in part.cells)
        quotient_rows = sorted(part.quotient)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            other = equitable_partition(relabel(g, perm))
            assert sorted(m.bit_count() for m in other.cells) == sizes
            assert sorted(other.quotient) == quotient_rows
            # cells are ordered by invariants, so the quotient is identical
            # and each vertex keeps its cell index
            assert other.quotient == part.quotient
            assert all(
                other.cell_of[perm[v]] == part.cell_of[v] for v in range(n)
            )


def test_equitable_partition_above_64_vertices():
    assert len(equitable_partition(primitive("cycle", 100)).cells) == 1
    assert len(equitable_partition(path_graph(101)).cells) == 51
    assert len(equitable_partition(complete_bipartite(40, 50)).cells) == 2
    g = disjoint_union([PETERSEN] * 7 + [star(20)])
    part = equitable_partition(g)
    assert g.order == 91 and len(part.cells) == 3
    assert_equitable(g, part)
    rng = random.Random(14)
    for n in (65, 100, 130):
        g = random_graph(rng, n, 0.05)
        assert_equitable(g, equitable_partition(g))


def test_certify_equitable_rejects():
    g = path_graph(4)  # cells {0, 3} and {1, 2}
    good = equitable_partition(g)
    certify_equitable(g, good)
    bad = [
        # a wrong quotient entry
        good._replace(quotient=((0, 1), (1, 0))),
        # the discrete partition of the wrong graph
        EquitablePartition(
            (1, 2, 4, 8), (0, 1, 2, 3),
            ((0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 0, 1)),
        ),
        # one cell: not equitable, the degrees differ
        EquitablePartition((15,), (0, 0, 0, 0), ((1,),)),
        # cell_of disagrees with the masks
        good._replace(cell_of=(0, 0, 1, 1)),
        # overlapping cells
        good._replace(cells=(0b1001, 0b0111)),
        # an empty cell
        EquitablePartition(
            (good.cells[0], good.cells[1], 0), good.cell_of,
            ((0, 1, 0), (1, 1, 0), (0, 0, 0)),
        ),
        # a vertex with no cell
        good._replace(cell_of=(0, 1, 1, 2)),
        # shapes that do not match
        good._replace(cell_of=(0, 1, 1)),
        good._replace(quotient=((0, 1),)),
    ]
    for part in bad:
        with pytest.raises(GraphError):
            certify_equitable(g, part)


def brute_twin_classes(g):
    """u and v are twins iff their rows agree off {u, v}; the classes as
    vertex masks, by lowest member."""
    masks = []
    for v in range(g.order):
        for i, m in enumerate(masks):
            u = (m & -m).bit_length() - 1
            off = ~((1 << u) | (1 << v))
            if g.rows[u] & off == g.rows[v] & off:
                masks[i] |= 1 << v
                break
        else:
            masks.append(1 << v)
    return masks


def test_twin_classes_are_the_twin_classes():
    rng = random.Random(28)
    graphs = [g for n in range(8) for g in all_graphs(n)]
    graphs += [primitive("complete", 20), build_graph(20, []),
               complete_bipartite(3, 17), star(16)]
    graphs += [
        relabel(g, rng.sample(range(g.order), g.order))
        for g in graphs[-4:] for _ in range(3)
    ]
    for g in graphs:
        classes = twin_classes(g.rows)
        assert classes.masks == brute_twin_classes(g)
        assert classes.class_of == [
            next(i for i, m in enumerate(classes.masks) if (m >> v) & 1)
            for v in range(g.order)
        ]
        for m in classes.masks:
            # a clique or an independent set; swapping two members is an
            # automorphism
            u = (m & -m).bit_length() - 1
            inside = {(g.rows[v] & m).bit_count() for v in bits(m)}
            assert inside in ({0}, {m.bit_count() - 1})
            for v in bits(m & (m - 1)):
                perm = list(range(g.order))
                perm[u], perm[v] = v, u
                assert is_automorphism(g, perm)


def bits(mask):
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def pairwise_twin_classes(rows, alive):
    """The twin classes of the graph induced on `alive`, pair by pair:
    u and v are open twins when their rows masked to `alive` are equal,
    closed twins when those rows plus self are; each vertex's class is the
    mask of all its twins and itself, in the original labels, and the
    distinct classes are listed by lowest member."""
    masked = {v: rows[v] & alive for v in bits(alive)}
    classes = []
    for v, rv in masked.items():
        cls = sum(
            1 << u for u, ru in masked.items()
            if ru == rv or ru | (1 << u) == rv | (1 << v)
        )
        if cls not in classes:
            classes.append(cls)
    return classes


def test_twin_classes_on_a_vertex_set():
    for n in range(7):
        full = (1 << n) - 1
        for g in all_graphs(n):
            assert twin_classes(g.rows) == twin_classes(g.rows, full)
            for alive in range(1 << n):
                classes = twin_classes(g.rows, alive)
                # the classes partition `alive` and are the pairwise ones,
                # so those do not overlap either: the relation is an
                # equivalence on the induced graph
                assert sum(classes.masks) == alive
                assert classes.masks == pairwise_twin_classes(g.rows, alive)
                masks = classes.masks
                assert classes.class_of == [
                    next(i for i, m in enumerate(masks) if (m >> v) & 1)
                    for v in bits(alive)
                ]


def test_twin_classes_of_rows_that_are_not_simple():
    # `Graph` takes any rows.  Open twins need equal rows; closed twins
    # need both loop-free, so a looped vertex and its neighbour with the
    # same closed row, or a row equal to another's closed row through an
    # asymmetric bit, stay apart.
    looped = (0b111, 0b101, 0b011)  # K_3 with a loop at 0
    assert twin_classes(looped).masks == [0b001, 0b110]
    # 1 sees 0 and 0 sees 2, but neither back: row 1 is row 0 plus 0
    asymmetric = (0b100, 0b101, 0b010)
    assert twin_classes(asymmetric).masks == [0b001, 0b010, 0b100]
    # loop-free closed twins through asymmetric bits elsewhere still join
    assert twin_classes((0b100, 0b101, 0b011)).masks == [0b001, 0b110]
    two_loops = (0b011, 0b011, 0b000)  # equal rows: open twins
    assert twin_classes(two_loops).masks == [0b011, 0b100]


def test_components_of_a_connected_graph_is_the_graph():
    g = PETERSEN
    (piece,) = components(g)
    assert piece.graph is g and piece.labels == tuple(range(10))
    assert components(build_graph(0, [])) == []


def test_is_automorphism():
    c5 = primitive("cycle", 5)
    assert is_automorphism(c5, (1, 2, 3, 4, 0))
    assert is_automorphism(c5, (0, 4, 3, 2, 1))
    assert not is_automorphism(c5, (1, 0, 2, 3, 4))
    assert not is_automorphism(c5, (0, 0, 2, 3, 4))  # not a permutation
    assert not is_automorphism(c5, (0, 1, 2, 3))
    assert permute_mask(0b10011, (1, 2, 3, 4, 0)) == 0b00111


def generated_group(gens, n):
    """Every element of the group generated by gens, by closure."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        a = frontier.pop()
        for p in gens:
            b = tuple(p[x] for x in a)
            if b not in group:
                group.add(b)
                frontier.append(b)
    return group


def vertex_orbits(perms, n):
    return {frozenset(p[v] for p in perms) for v in range(n)}


def test_automorphism_generators_match_brute_force():
    # On every graph of order <= 6: each generator is certified, and the
    # generated group is the whole automorphism group, found by trying all
    # n! permutations.
    for n in range(7):
        for g in all_graphs(n):
            gens = automorphism_generators(g)
            assert all(is_automorphism(g, p) for p in gens)
            auts = [
                p for p in itertools.permutations(range(n))
                if is_automorphism(g, p)
            ]
            group = generated_group(gens, n)
            assert vertex_orbits(group, n) == vertex_orbits(auts, n), g.rows
            assert group == set(auts), g.rows


@pytest.mark.parametrize(
    "g, order",
    [
        (build_graph(0, []), 1),
        (primitive("empty", 6), 720),
        (primitive("complete", 5), 120),
        (primitive("cycle", 9), 18),
        (path_graph(7), 2),
        (star(5), 120),
        (complete_bipartite(3, 3), 72),
        (complete_bipartite(2, 4), 48),
        (PETERSEN, 120),
        (disjoint_union([PETERSEN, primitive("cycle", 5)]), 1200),
    ],
)
def test_automorphism_group_orders(g, order):
    gens = automorphism_generators(g)
    assert all(is_automorphism(g, p) for p in gens)
    assert len(generated_group(gens, g.order)) == order


def _parent_automorphism_generators(g):
    # `automorphism_generators` as it stood when its root node came from
    # `equitable_partition`, twin pass and quotient rows included.
    rows = g.rows
    units = [1 << v for v in range(g.order)]
    part = equitable_partition(g)
    node = part.cells, part.cell_of
    path = [node]
    while cell := graphs_mod._target_cell(node[0]):
        node = graphs_mod._individualize(
            rows, units, node, graphs_mod._lowest(cell)
        )
        path.append(node)
    first_leaf = node[1]
    gens = []
    for node in reversed(path[:-1]):
        cell = graphs_mod._target_cell(node[0])
        v = graphs_mod._lowest(cell)
        orbit = sum(graphs_mod.set_orbit(1 << v, gens))
        for w in graphs_mod.bits_of(cell & ~orbit):
            if (orbit >> w) & 1:
                continue
            perm = graphs_mod._leaf_below(g, units, node, w, first_leaf)
            if perm is not None:
                gens.append(perm)
                orbit = sum(graphs_mod.set_orbit(1 << v, gens))
    return gens


def test_automorphism_root_is_the_equitable_partition(monkeypatch):
    # The search starts from the refinement loop on single vertices, not
    # from `equitable_partition`; its root and its generators are the
    # ones that start gave, on the 1,331 graphs of all_graphs(1..7) and
    # the connected 5- and 3-regular graphs of order 10.
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    graphs += connected_with_degrees(10, 5, False)
    graphs += connected_with_degrees(10, 3, False)
    assert len(graphs) == 1331
    want = [_parent_automorphism_generators(g) for g in graphs]
    for g in graphs:
        part = equitable_partition(g)
        full = (1 << g.order) - 1
        units = [1 << v for v in range(g.order)]
        root = graphs_mod._refine(g.rows, units, [full], [0] * g.order, [full])
        assert root == (list(part.cells), list(part.cell_of)), g.rows

    def no_partition(*args):
        raise AssertionError("the search read equitable_partition")

    monkeypatch.setattr(graphs_mod, "equitable_partition", no_partition)
    assert [automorphism_generators(g) for g in graphs] == want


def test_automorphism_generators_of_a_rigid_graph():
    # the smallest asymmetric graphs have 6 vertices
    rigid = build_graph(6, [(0, 5), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5)])
    assert automorphism_generators(rigid) == []
    rigid_6 = [g for g in all_graphs(6) if not automorphism_generators(g)]
    assert len(rigid_6) == 8
