"""Colour refinement, the automorphism search and root bracketing against
the straightforward versions they replaced: refinement that counts every
vertex against every cell in every round, the search that refined every
node afresh from an individualized colouring, and bisection on `Fraction`
midpoints through `CharPoly.evaluate`.  The faster code must return the
same values bit for bit: partitions, search nodes, automorphism
generators, quotients and brackets."""

import random
import re
from fractions import Fraction

import pytest

from oddwheel import graphs as graphs_mod
from oddwheel import spectral as spectral_mod
from oddwheel.enumerate import all_graphs, connected_with_degrees
from oddwheel.graphs import (
    EquitablePartition,
    Graph,
    automorphism_generators,
    bits_of,
    equitable_partition,
    is_automorphism,
    permute_mask,
)
from oddwheel.spectral import (
    CharPoly,
    SpectralError,
    bracket_largest_root,
    char_poly,
    claim1_comparison,
    quotient,
)

CLAIM1_NS = range(22, 403, 4)


def oracle_equitable_partition(g, colours=None):
    """Colour refinement as it was before a round counted only against
    the cells new since the round before: every round counts every vertex
    against every current cell, and the quotient is the signatures of the
    last round."""
    if g.order == 0:
        return EquitablePartition((), (), ())
    rows = g.rows
    if colours is None:
        cells, cell_of = [(1 << g.order) - 1], [0] * g.order
    else:
        cells, cell_of = [], list(colours)
    while True:
        sigs = list(zip(
            cell_of, *[[(r & c).bit_count() for r in rows] for c in cells]
        ))
        keys = sorted(set(sigs))
        if len(keys) == len(cells):
            break
        index = {key: i for i, key in enumerate(keys)}
        cell_of = [index[s] for s in sigs]
        cells = [0] * len(keys)
        for v, i in enumerate(cell_of):
            cells[i] |= 1 << v
    return EquitablePartition(
        tuple(cells), tuple(cell_of), tuple(key[1:] for key in keys)
    )


def oracle_colouring(part, v):
    """The colouring the earlier search refined a node from: v split off
    its cell, as a cell just ahead of the rest of it."""
    return [2 * i + (u != v) for u, i in enumerate(part.cell_of)]


def sum_permute_mask(mask, perm):
    """`permute_mask` as it was, a sum over a generator."""
    return sum(1 << perm[v] for v in bits_of(mask))


def oracle_automorphism_generators(g):
    """The automorphism search as it was before a node was refined from
    its parent: every node is `equitable_partition` of the individualized
    colouring of its parent, quotient included."""

    def target(part):
        return next((c for c in part.cells if c & (c - 1)), 0)

    def lowest(mask):
        return next(bits_of(mask))

    def orbit_of(v, gens):
        orbit, frontier = 1 << v, [v]
        while frontier:
            u = frontier.pop()
            for p in gens:
                if not (orbit >> p[u]) & 1:
                    orbit |= 1 << p[u]
                    frontier.append(p[u])
        return orbit

    def leaf_below(node, w, first_leaf):
        stack = [(node, w)]
        while stack:
            above, x = stack.pop()
            part = equitable_partition(g, oracle_colouring(above, x))
            below = target(part)
            if below:
                stack.extend((part, y) for y in reversed(list(bits_of(below))))
                continue
            at = [lowest(c) for c in part.cells]
            perm = tuple(at[i] for i in first_leaf)
            if is_automorphism(g, perm):
                return perm
        return None

    part = equitable_partition(g)
    path = [part]
    while cell := target(part):
        part = equitable_partition(g, oracle_colouring(part, lowest(cell)))
        path.append(part)
    first_leaf = part.cell_of
    gens = []
    for node in reversed(path[:-1]):
        cell = target(node)
        v = lowest(cell)
        orbit = orbit_of(v, gens)
        for w in bits_of(cell & ~orbit):
            if (orbit >> w) & 1:
                continue
            perm = leaf_below(node, w, first_leaf)
            if perm is not None:
                gens.append(perm)
                orbit = orbit_of(v, gens)
    return gens


def relabelled(g, perm):
    rows = [0] * g.order
    for u, r in enumerate(g.rows):
        rows[perm[u]] = sum_permute_mask(r, perm)
    return Graph(g.order, tuple(rows))


def circulant(n, offsets):
    return Graph(n, tuple(
        sum((1 << (u + o) % n) | (1 << (u - o) % n) for o in offsets)
        for u in range(n)
    ))


def ir_graphs():
    """All graphs of order <= 7, the connected cubic graphs of orders 4 to
    12, Petersen, Q_4, C_12 and K_{3,3}, and three seeded relabellings of
    each of the last four."""
    petersen = [0] * 10
    for i in range(5):
        for u, v in ((i, (i + 1) % 5), (i, i + 5), (i + 5, 5 + (i + 2) % 5)):
            petersen[u] |= 1 << v
            petersen[v] |= 1 << u
    named = [
        Graph(10, tuple(petersen)),
        Graph(16, tuple(
            sum(1 << (u ^ (1 << i)) for i in range(4)) for u in range(16)
        )),
        circulant(12, [1]),
        circulant(6, [1, 3]),
    ]
    rng = random.Random(24)
    moved = []
    for g in named:
        for _ in range(3):
            perm = list(range(g.order))
            rng.shuffle(perm)
            moved.append(relabelled(g, perm))
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    graphs += [
        g for n in range(4, 13, 2) for g in connected_with_degrees(n, 3, False)
    ]
    return graphs + named + moved


def oracle_bracket(poly, approx, width):
    """Bisection as it was before it ran on integer numerators: Fraction
    midpoints, each sign read from `CharPoly.evaluate`."""
    hi = Fraction(max(abs(c) for c in poly.coefficients) + 1)
    if Fraction(approx) + 1 > hi:
        hi = Fraction(approx) + 1
    if poly.evaluate(hi) <= 0:
        raise SpectralError("upper bracket failed; root bound too small")
    lo = Fraction(approx) - Fraction(1, 10_000)
    if poly.evaluate(lo) >= 0:
        raise SpectralError(
            "lower bracket failed; approximation not below the root"
        )
    while hi - lo > width:
        mid = (lo + hi) / 2
        if poly.evaluate(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def rational_horner(coefficients, x):
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def random_graph(rng, n, p):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


@pytest.fixture(scope="module")
def claim1_results():
    """`claim1_comparison(4, n)` at the 96 n of the claim-1 sweep."""
    return [claim1_comparison(4, n) for n in CLAIM1_NS]


def test_equitable_partition_matches_oracle_on_random_graphs():
    rng = random.Random(181)
    for _ in range(600):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.3, 0.5, 0.9]))
        assert equitable_partition(g) == oracle_equitable_partition(g)
        colours = [rng.randint(-2, rng.randint(0, 4)) for _ in range(n)]
        assert equitable_partition(g, colours) == oracle_equitable_partition(
            g, colours
        )


def test_automorphism_generators_match_oracle_on_all_graphs(monkeypatch):
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    assert len(graphs) == 1252
    got = [automorphism_generators(g) for g in graphs]
    monkeypatch.setattr(
        graphs_mod, "equitable_partition", oracle_equitable_partition
    )
    assert got == [automorphism_generators(g) for g in graphs]


def test_automorphism_generators_match_colour_search():
    graphs = ir_graphs()
    assert len(graphs) == 1252 + 112 + 4 + 12
    for g in graphs:
        assert automorphism_generators(g) == oracle_automorphism_generators(
            g
        ), g.rows


def test_individualized_nodes_match_colour_refinement():
    # Every node of each first path, with each vertex of a cell of more
    # than one vertex split off: refined from the parent, the cells and
    # cell_of equal refinement from the individualized colouring.
    for g in ir_graphs():
        part = equitable_partition(g)
        node = part.cells, part.cell_of
        while True:
            for c in node[0]:
                if not c & (c - 1):
                    continue
                for v in bits_of(c):
                    want = equitable_partition(g, oracle_colouring(part, v))
                    got = graphs_mod._individualize(g.rows, node, v)
                    assert got == (list(want.cells), list(want.cell_of))
            cell = graphs_mod._target_cell(node[0])
            if not cell:
                break
            v = graphs_mod._lowest(cell)
            node = graphs_mod._individualize(g.rows, node, v)
            part = equitable_partition(g, oracle_colouring(part, v))


def test_permute_mask_matches_sum_form():
    rng = random.Random(240)
    for _ in range(500):
        n = rng.randint(0, 70)
        perm = list(range(n))
        rng.shuffle(perm)
        mask = rng.getrandbits(n) if n else 0
        assert permute_mask(mask, perm) == sum_permute_mask(mask, perm)


def test_claim1_quotients_match_oracle(claim1_results, monkeypatch):
    candidates = [
        (g, m)
        for res in claim1_results
        for g, m in ((res.graph1, res.matrix1), (res.graph2, res.matrix2))
    ]
    assert len(candidates) == 192
    got = [quotient(g) for g, _ in candidates]
    assert [part.quotient for part in got] == [m for _, m in candidates]
    monkeypatch.setattr(
        spectral_mod, "equitable_partition", oracle_equitable_partition
    )
    assert got == [quotient(g) for g, _ in candidates]


def test_claim1_brackets_match_oracle(claim1_results):
    width = Fraction(1, 10**12)
    for n, res in zip(CLAIM1_NS, claim1_results):
        lo, hi = oracle_bracket(char_poly(res.matrix2), res.radius2, width)
        assert res.bracket == (lo, hi), n
        f1 = char_poly(res.matrix1).coefficients
        v_lo, v_hi = rational_horner(f1, lo), rational_horner(f1, hi)
        assert v_lo * v_hi > 0, n
        assert res.sign_at_root == (1 if v_lo > 0 else -1), n


def test_bracket_matches_oracle_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(
        max_examples=200, deadline=None, database=None, derandomize=True
    )
    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=7),
        st.floats(-2e-5, 2e-5),
        st.integers(0, 16),
    )
    def check(roots, offset, digits):
        # monic integer polynomial prod (x - r), constant first
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        poly = CharPoly(tuple(Fraction(c) for c in coeffs))
        approx = max(roots) + offset
        width = Fraction(1, 10**digits)
        try:
            want = oracle_bracket(poly, approx, width)
        except SpectralError as exc:
            with pytest.raises(SpectralError, match=re.escape(str(exc))):
                bracket_largest_root(poly, approx, width)
            return
        assert bracket_largest_root(poly, approx, width) == want

    check()
