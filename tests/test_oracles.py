"""Colour refinement and root bracketing against the straightforward
versions they replaced: refinement that counts every vertex against every
cell in every round, and bisection on `Fraction` midpoints through
`CharPoly.evaluate`.  The faster code must return the same values bit for
bit: partitions, automorphism generators, quotients and brackets."""

import random
import re
from fractions import Fraction

import pytest

from oddwheel import graphs as graphs_mod
from oddwheel import spectral as spectral_mod
from oddwheel.enumerate import all_graphs
from oddwheel.graphs import (
    EquitablePartition,
    Graph,
    automorphism_generators,
    equitable_partition,
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
