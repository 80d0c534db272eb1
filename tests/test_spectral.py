import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oddwheel.enumerate import all_graphs
from oddwheel.families import (
    U_KIND,
    V_KIND,
    CandidateSpec,
    bipartite_candidate,
    primitive,
    spex_candidate,
    standard_member,
)
from oddwheel.graphs import build_graph, disjoint_union, join
from oddwheel.spectral import (
    SpectralError,
    bracket_largest_root,
    char_poly,
    claim1_comparison,
    matrix_radius,
    quotient,
    radius_upper_bounds,
    spectral_radius,
)


def dense_radius(g):
    a = np.zeros((g.order, g.order))
    for u in range(g.order):
        for v in range(g.order):
            if (g.rows[u] >> v) & 1:
                a[u, v] = 1.0
    return float(np.linalg.eigvalsh(a)[-1]) if g.order else 0.0


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


def test_named_radii():
    assert spectral_radius(primitive("complete", 5)).radius == pytest.approx(4.0, abs=1e-9)
    assert spectral_radius(primitive("cycle", 8)).radius == pytest.approx(2.0, abs=1e-9)
    k34 = build_graph(7, [(i, 3 + j) for i in range(3) for j in range(4)])
    assert spectral_radius(k34).radius == pytest.approx(math.sqrt(12), abs=1e-9)


def test_radius_matches_dense_solver():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 15), 0.5)
        res = spectral_radius(g, tol=1e-11)
        assert res.radius == pytest.approx(dense_radius(g), abs=1e-8)
        assert res.residual <= 1e-11


def test_perron_properties():
    g = primitive("cycle", 9)
    res = spectral_radius(g)
    assert max(res.perron) == pytest.approx(1.0, abs=1e-12)
    assert all(x > 0 for x in res.perron)


def test_disconnected_takes_component_max():
    g = disjoint_union([primitive("complete", 4), primitive("cycle", 5)])
    res = spectral_radius(g)
    assert res.radius == pytest.approx(3.0, abs=1e-9)
    assert "component 0" in res.note
    # vector supported on the achieving component
    assert all(x > 0 for x in res.perron[:4])
    assert all(x == 0 for x in res.perron[4:])


def test_iteration_budget_error():
    # irregular graph: the all-ones start is far from the Perron vector
    path = build_graph(12, [(i, i + 1) for i in range(11)])
    with pytest.raises(SpectralError):
        spectral_radius(path, tol=1e-13, max_iter=3)


def test_radius_upper_bounds_cover_every_small_graph():
    for n in range(1, 8):
        graphs = all_graphs(n)
        bounds = radius_upper_bounds(graphs)
        assert bounds.shape == (len(graphs),)
        for g, bound in zip(graphs, bounds):
            assert bound >= spectral_radius(g).radius


def test_radius_upper_bounds_with_isolated_vertices_and_components():
    k4, c5 = primitive("complete", 4), primitive("cycle", 5)
    path = build_graph(12, [(i, i + 1) for i in range(11)])
    graphs = [
        primitive("empty", 1),
        primitive("empty", 6),
        disjoint_union([k4, primitive("empty", 3)]),
        disjoint_union([primitive("empty", 2), c5]),
        disjoint_union([k4, c5]),
        disjoint_union([c5, path, k4]),
        disjoint_union([path, primitive("complete", 2)]),
    ]
    # mixed orders share a zero-padded batch; each graph alone as well
    together = radius_upper_bounds(graphs)
    for g, bound in zip(graphs, together):
        (alone,) = radius_upper_bounds([g])
        assert min(bound, alone) >= spectral_radius(g).radius
        assert min(bound, alone) >= dense_radius(g)
    assert together[0] == together[1] == 0.0
    assert together[2] == pytest.approx(3.0, abs=1e-8)


def test_radius_upper_bounds_edge_cases():
    assert radius_upper_bounds([]).shape == (0,)
    with pytest.raises(ValueError):
        radius_upper_bounds([primitive("cycle", 3), build_graph(0, [])])


def test_matrix_radius_closed_form_2x2():
    for left, right in [(10, 10), (7, 12), (1, 1)]:
        res = matrix_radius([[3, right], [left, 1]])
        assert res.radius == pytest.approx(
            2 + math.sqrt(1 + left * right), abs=1e-8
        )


def test_matrix_radius_diagonal_and_identity():
    assert matrix_radius(np.eye(3)).radius == pytest.approx(1.0, abs=1e-9)
    res = matrix_radius([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert res.radius == pytest.approx(5.0, abs=1e-8)
    assert "reducible" in res.note
    # upper triangular: row 0 reaches every row, row 2 only itself
    res = matrix_radius([[1, 1, 1], [0, 2, 1], [0, 0, 3]])
    assert res.radius == pytest.approx(3.0, abs=1e-8)
    assert "reducible" in res.note


def test_matrix_radius_rejects_negative():
    with pytest.raises(ValueError):
        matrix_radius([[1, -1], [0, 1]])


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_radius_rejects_a_tol_that_is_not_positive(tol):
    # no residual can meet a tol <= 0; no iteration may start
    with pytest.raises(ValueError, match="tol must be positive"):
        matrix_radius([[0, 1], [1, 0]], tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        spectral_radius(primitive("complete", 2), tol)


@pytest.mark.parametrize("k, n", [(4, 22), (6, 30)])
def test_quotient_six_classes_of_balanced_candidate(k, n):
    g = spex_candidate(CandidateSpec(n, k, 0, standard_member("V", k, n // 2), True))
    qs = quotient(g)
    h = n // 2
    want = [
        [0, k - 2, 0, 0, 2, h - 2],
        [1, k - 4, 2, 0, 2, h - 2],
        [0, k - 2, 1, 0, 2, h - 2],
        [0, 0, 0, k - 1, 2, h - 2],
        [1, k - 2, 2, h - k - 1, 1, 0],
        [1, k - 2, 2, h - k - 1, 0, 0],
    ]
    assert [list(row) for row in qs.quotient] == want
    # row sums equal the vertex degrees of each class
    sums = [sum(row) for row in qs.quotient]
    assert sums == [k - 2 + h, k - 1 + h, k - 1 + h, k - 1 + h, h + 1, h]


@pytest.mark.parametrize("k, n", [(4, 22), (6, 30)])
def test_quotient_three_classes_of_unbalanced_candidate(k, n):
    g = bipartite_candidate(
        standard_member("U", k, n // 2 + 1), build_graph(n // 2 - 1, [(0, 1)])
    )
    qs = quotient(g)
    h = n // 2
    assert [list(row) for row in qs.quotient] == [
        [k - 1, 2, h - 3],
        [h + 1, 1, 0],
        [h + 1, 0, 0],
    ]


def test_quotient_is_labelling_invariant():
    k, n = 4, 22
    g = spex_candidate(CandidateSpec(n, k, 0, standard_member("V", k, n // 2), True))
    perm = list(range(n))
    random.Random(47).shuffle(perm)
    relabelled = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    want, got = quotient(g), quotient(relabelled)
    sizes = [sorted(c.bit_count() for c in p.cells) for p in (want, got)]
    assert sizes[0] == sizes[1] == [1, 2, 2, 2, 6, 9]
    assert char_poly(got.quotient) == char_poly(want.quotient)


def test_equitable_quotient_shares_radius():
    k, n = 4, 22
    g = spex_candidate(CandidateSpec(n, k, 0, standard_member("V", k, n // 2), True))
    rq = matrix_radius(quotient(g).quotient, tol=1e-11)
    rg = spectral_radius(g, tol=1e-11)
    assert abs(rq.radius - rg.radius) <= 1e-9


def test_char_poly_examples():
    assert char_poly([[0, 1], [1, 0]]).coefficients == (
        Fraction(-1), Fraction(0), Fraction(1),
    )
    cp = char_poly([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert cp.coefficients == (
        Fraction(-30), Fraction(31), Fraction(-10), Fraction(1),
    )
    with pytest.raises(ValueError):
        char_poly([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        char_poly([[0] * 13 for _ in range(13)])


def test_char_poly_against_numpy_roots():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
        cp = char_poly(m)
        eigs = np.linalg.eigvals(np.array(m, dtype=float))
        for lam in eigs:
            if abs(lam.imag) < 1e-9:
                val = np.polyval(
                    [float(c) for c in reversed(cp.coefficients)], lam.real
                )
                assert abs(val) < 1e-5 * max(
                    1.0, float(np.abs(eigs).max()) ** n
                )


def test_bracket_largest_root():
    cp = char_poly([[0, 1], [1, 0]])  # roots -1, 1
    lo, hi = bracket_largest_root(cp, 1.0000001, Fraction(1, 10**9))
    assert lo < 1 < hi and hi - lo <= Fraction(1, 10**9)
    with pytest.raises(SpectralError):
        # approximation above the root: the lower bracket sign check fires
        bracket_largest_root(cp, 5.0, Fraction(1, 10**9))


@pytest.mark.parametrize("width", [0, Fraction(0), Fraction(-1, 10**9), -1])
def test_bracket_rejects_a_width_that_is_not_positive(width):
    # no bisection can reach a width <= 0; it must not start
    cp = char_poly([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="width must be positive"):
        bracket_largest_root(cp, 1.0, width)


def test_matrix_radius_agrees_with_exact_root():
    # same comparison route the sign test uses, at one desk-scale point
    n, k = 102, 4
    g = bipartite_candidate(
        standard_member("U", k, n // 2 + 1), build_graph(n // 2 - 1, [(0, 1)])
    )
    m = quotient(g).quotient
    res = matrix_radius(m, tol=1e-11)
    cp = char_poly(m)
    lo, hi = bracket_largest_root(cp, res.radius, Fraction(1, 10**14))
    assert Fraction(res.radius) - Fraction(1, 10**8) < hi
    assert lo < Fraction(res.radius) + Fraction(1, 10**8)


def test_claim1_internal_consistency():
    res = claim1_comparison(4, 22)
    # the sign decision and the numeric radii must tell the same story
    assert res.sign_at_root != 0
    if res.sign_at_root < 0:
        assert res.radius1 > res.radius2
    else:
        assert res.radius1 < res.radius2


@pytest.mark.parametrize("k, n", [(2, 22), (3, 22), (5, 22), (4, 24), (4, 14)])
def test_claim1_needs_two_competing_sides_and_n_at_least_4k(k, n):
    # one side size from `auto_left_sizes` (k = 2, odd k, n = 0 mod 4),
    # or n < 4k
    with pytest.raises(ValueError, match=f"k={k}, n={n}"):
        claim1_comparison(k, n)


@pytest.mark.parametrize(
    "k, n", [(4, 22), (4, 26), (4, 30), (6, 26), (6, 30), (6, 34)]
)
def test_claim1_graphs_are_the_two_candidates(k, n):
    # the balanced candidate with the V member, the unbalanced one with
    # the U member on n/2 + 1 vertices
    res = claim1_comparison(k, n)
    assert res.graph1 == spex_candidate(
        CandidateSpec(n, k, 0, standard_member(V_KIND, k, n // 2), True)
    )
    unbalanced_left = standard_member(U_KIND, k, n // 2 + 1)
    assert res.graph2 == bipartite_candidate(
        unbalanced_left, build_graph(n // 2 - 1, [(0, 1)])
    )


def test_edge_addition_increases_radius():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(4, 12)
        g = random_graph(rng, n, 0.5)
        from oddwheel.graphs import is_connected

        if not is_connected(g):
            continue
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        g2 = g.add_edges([rng.choice(non_edges)])
        assert spectral_radius(g2).radius > spectral_radius(g).radius + 1e-10


def test_join_bound_small_sample():
    rng = random.Random(33)
    for _ in range(30):
        h1 = random_graph(rng, rng.randint(1, 12), 0.5)
        h2 = random_graph(rng, rng.randint(1, 12), 0.5)
        joined = join([h1, h2])
        bound = matrix_radius(
            [[h1.max_degree(), h2.order], [h1.order, h2.max_degree()]]
        ).radius
        assert spectral_radius(joined).radius <= bound + 1e-9


def test_core_quotient_note_mentions_computed_entry():
    from oddwheel.spectral import core_quotient_note

    note = core_quotient_note(6)
    assert "2" in note and "k-4" in note


@pytest.mark.parametrize("n", [22, 102, 402])
def test_claim1_quotients_certified_by_dense_pair(n):
    # both quotients certify without iteration, and each radius lies in
    # the exact bracket of its characteristic polynomial widened by the
    # radius bound sqrt(c * n) * tol of a c-class quotient
    tol = 1e-10
    res = claim1_comparison(4, n)
    for m in (res.matrix1, res.matrix2):
        got = matrix_radius(m, tol)
        assert got.iterations == 0
        assert got.residual <= tol
        assert max(got.perron) == 1.0 and min(got.perron) > 0
        lo, hi = bracket_largest_root(
            char_poly(m), got.radius, Fraction(1, 10**14)
        )
        slack = Fraction(math.sqrt(len(m) * n) * tol)
        assert lo - slack <= Fraction(got.radius) <= hi + slack


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_matrix_radius_cyclic_permutation(order):
    # eigenvalues are the order-th roots of unity, complex from order 3
    m = [[int(j == (i + 1) % order) for j in range(order)] for i in range(order)]
    res = matrix_radius(m)
    assert res.radius == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-10
    assert res.perron == pytest.approx((1.0,) * order, abs=1e-12)
    # irreducible but not symmetric
    assert res.note == ""


def test_matrix_radius_falls_back_to_iteration():
    # no dense pair meets tol=1e-300, so power iteration runs and its
    # budget of 3 steps is exhausted
    m = claim1_comparison(4, 22).matrix2
    assert len(m) == 3
    with pytest.raises(SpectralError, match="budget 3 exhausted"):
        matrix_radius(m, tol=1e-300, max_iter=3)


def reference_char_poly(m):
    """The rational Faddeev-LeVerrier recurrence, entry by entry in
    Fraction arithmetic."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    work = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [
            [sum(rows[i][t] * work[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(prod[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        work = [
            [prod[i][j] + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return tuple(coeffs)


def reference_evaluate(coefficients, x):
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def random_rational_matrix(rng, n):
    def entry():
        if rng.random() < 0.3:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-6, 9)
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    return [[entry() for _ in range(n)] for _ in range(n)]


def test_char_poly_matches_sympy_and_rational_recurrence():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for n in range(1, 13):
        for _ in range(3 if n <= 8 else 1):
            m = random_rational_matrix(rng, n)
            got = char_poly(m).coefficients
            assert all(type(c) is Fraction for c in got)
            assert got == reference_char_poly(m)
            poly = sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator)
                  for x in map(Fraction, row)] for row in m]
            ).charpoly()
            want = tuple(
                Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())
            )
            assert got == want


def test_evaluate_matches_rational_horner():
    rng = random.Random(43)
    for _ in range(60):
        m = random_rational_matrix(rng, rng.randint(1, 7))
        cp = char_poly(m)
        for _ in range(5):
            x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            got = cp.evaluate(x)
            assert type(got) is Fraction
            assert got == reference_evaluate(cp.coefficients, x)
        assert cp.evaluate(3) == reference_evaluate(cp.coefficients, Fraction(3))
