"""Property tests: format round trips, labelling invariance of the
canonical code, the automorphism generators and the certified radius
upper bounds on generated graphs."""

import random
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from oddwheel.enumerate import graph_code, union_code  # noqa: E402
from oddwheel.formats import (  # noqa: E402
    decode_edge_list,
    decode_graph6,
    encode_edge_list,
    encode_graph6,
    read_graph_text,
)
from oddwheel.graphs import (  # noqa: E402
    Graph,
    automorphism_generators,
    build_graph,
    components,
    disjoint_union,
    is_automorphism,
)
from oddwheel.kernels import code_to_rows, pack_code  # noqa: E402
from oddwheel.spectral import (  # noqa: E402
    radius_upper_bounds,
    spectral_radius,
)

import string_codec as ref  # noqa: E402
from string_codec import assert_codec_matches  # noqa: E402

# Derandomized, so every run draws the same examples, and no example
# database.
FIXED = settings(
    max_examples=150, deadline=None, database=None, derandomize=True
)

# Hypothesis also caches the constants it reads from the sources under its
# home directory, by default .hypothesis/ in the working directory, and its
# pytest plugin fills that cache while collecting; set the home directory at
# import, before collection ends, to one removed when the session exits.
_HOME = tempfile.TemporaryDirectory(prefix="oddwheel-hypothesis-")
set_hypothesis_home_dir(_HOME.name)


@st.composite
def graphs(draw, max_order, min_order=0):
    """A graph of order min_order..max_order at one of a spread of
    densities; the graph6 header boundary (orders 62, 63, 64) is drawn on
    purpose."""
    boundary = [n for n in (62, 63, 64) if min_order <= n <= max_order]
    orders = st.integers(min_order, max_order)
    if boundary:
        orders = st.one_of(orders, st.sampled_from(boundary))
    n = draw(orders)
    p = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return build_graph(
        n,
        [(u, v) for v in range(n) for u in range(v) if rng.random() < p],
    )


@FIXED
@given(graphs(130))
def test_graph6_round_trip(g):
    text = encode_graph6(g)
    header = 1 if g.order <= 62 else 4
    assert len(text) == header + (g.order * (g.order - 1) // 2 + 5) // 6
    assert (text[0] == "~") == (g.order > 62)
    assert decode_graph6(text) == g
    assert read_graph_text(text + "\n") == g
    code = pack_code(g.rows)
    assert code_to_rows(code) == g.rows
    # One bit string under two framings: graph6 pads it at the back to
    # 6-bit chunks, the code at the front to whole bytes.
    nbits = g.order * (g.order - 1) // 2
    g6 = "".join(format(ord(ch) - 63, "06b") for ch in text[header:])
    packed = "".join(format(b, "08b") for b in code[1:])
    pad = len(packed) - nbits
    assert g6[:nbits] == packed[pad:] == ref.triangle_bits(g.rows)
    assert set(g6[nbits:] + packed[:pad]) <= {"0"}
    assert_codec_matches(g)


@pytest.mark.parametrize("order", [0, 1, 2, 62, 63, 64])
@FIXED
@given(st.data())
def test_codec_matches_reference_at_boundary_orders(order, data):
    assert_codec_matches(data.draw(graphs(order, min_order=order)))


@FIXED
@given(graphs(130))
def test_edge_list_round_trip(g):
    text = encode_edge_list(g)
    assert decode_edge_list(text) == g
    assert read_graph_text(text) == g


@FIXED
@given(st.data())
def test_graph_code_ignores_labelling(data):
    g = data.draw(graphs(9))
    perm = data.draw(st.permutations(range(g.order)))
    relabelled = build_graph(
        g.order, [(perm[u], perm[v]) for u, v in g.edges()]
    )
    assert graph_code(relabelled) == graph_code(g)
    if g.order:
        # The union code is the packed disjoint union of the canonically
        # labelled pieces, in code order, single vertices included.
        codes = sorted(graph_code(c.graph) for c in components(g))
        union = disjoint_union([Graph(code_to_rows(c)) for c in codes])
        assert union_code(codes) == pack_code(union.rows)


def maps_to(g, u, v):
    """Whether some automorphism of g maps u to v: backtracking over
    partial maps that keep adjacency to the vertices already mapped."""
    n = g.order
    order = [u] + [w for w in range(n) if w != u]
    image = [v]
    tried = [0]
    while image:
        if len(image) == n:
            return True
        a = order[len(image)]
        b = next(
            (
                b for b in range(tried[-1], n)
                if b not in image
                and all(
                    g.has_edge(a, order[i]) == g.has_edge(b, image[i])
                    for i in range(len(image))
                )
            ),
            None,
        )
        if b is None:
            image.pop()
            tried.pop()
            if tried:
                tried[-1] += 1
            continue
        tried[-1] = b
        image.append(b)
        tried.append(0)
    return False


@FIXED
@given(graphs(8))
def test_automorphism_generators_give_the_orbits(g):
    gens = automorphism_generators(g)
    assert all(is_automorphism(g, p) for p in gens)
    for u in range(g.order):
        orbit = {u}
        frontier = [u]
        while frontier:
            x = frontier.pop()
            for p in gens:
                if p[x] not in orbit:
                    orbit.add(p[x])
                    frontier.append(p[x])
        assert orbit == {v for v in range(g.order) if maps_to(g, u, v)}


@FIXED
@given(st.lists(graphs(8, min_order=1), min_size=1, max_size=6))
def test_radius_upper_bounds_cover_the_radius(batch):
    for g, bound in zip(batch, radius_upper_bounds(batch)):
        assert bound >= spectral_radius(g).radius
