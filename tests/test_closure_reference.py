"""The square closure, which lists each chordless square once from its
highest-ranked corner, gives the same EdgeColoring as the reference closure
in helpers.py, which reads every square of a digraph's shadow at all four
corners.  undirected_cartesian_pfd, the closure of the shadow whatever the
arcs' directions, matches it on every connected labelled undirected graph
with at most 5 vertices, on Cartesian skeletons and benchmark-style
products, on hub shapes, on every connected digraph with at most 4
vertices and on oriented products.  With the arcs of a digraph the closure
gives the reference closure coarsened by direction conflicts until none is
left."""

from itertools import combinations

from digraph_pfd import (
    Digraph,
    cartesian_product,
    cartesian_skeleton,
    enumerate_connected_digraphs,
    random_connected_digraph,
    random_thin_digraph,
    strong_product,
    undirected_cartesian_pfd,
)
from digraph_pfd.cartesian_pfd import _closure_coloring
from digraph_pfd.oracle import SplitMix64

from helpers import (
    hub_shapes,
    merge_conflicts,
    oriented_products,
    random_orientation,
    reference_closure_coloring,
    relabelled,
)


def assert_same_closure(g):
    assert undirected_cartesian_pfd(g) == reference_closure_coloring(g)


def test_every_connected_graph_up_to_five_vertices():
    checked = 0
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Digraph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
            if g.is_connected():
                assert_same_closure(g)
                checked += 1
    assert checked == 1 + 1 + 4 + 38 + 728


def test_wheel_w4_is_one_color():
    # Hub 0 on the rim 1-3-2-4-1.  At the rim vertex 3, the chord pair
    # (0, 1) has exactly one common neighbour outside N[3], the vertex 4, yet
    # 30 ~ 31 still holds: a chord pair always joins its two edges.
    g = Digraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
    coloring = undirected_cartesian_pfd(g)
    assert coloring.count == 1
    assert coloring == reference_closure_coloring(g)


def test_skeleton_shadows():
    for s in range(40):
        factors = [random_thin_digraph((2, 4), s * 10 + k) for k in range(2 + s % 2)]
        g = strong_product(factors).graph
        assert_same_closure(g)
        skeleton = cartesian_skeleton(g).skeleton
        assert_same_closure(relabelled(skeleton, s))


def test_product_shadows():
    arc = Digraph(2, [(0, 1)])
    graphs = [cartesian_product([arc] * k).graph for k in range(2, 9)]
    for m in (3, 4, 8, 16):
        cycle = Digraph(m, [(i, (i + 1) % m) for i in range(m)])
        graphs.append(cartesian_product([cycle, cycle]).graph)
    graphs.append(Digraph(400, [(i, i + 1) for i in range(399)]))
    for s, g in enumerate(graphs):
        assert_same_closure(g)
        assert_same_closure(relabelled(g, s))


def assert_same_oriented_closure(g):
    assert _closure_coloring(g) == merge_conflicts(g, reference_closure_coloring(g))


def test_every_connected_digraph_up_to_four_vertices():
    checked = 0
    for n in range(1, 5):
        for g in enumerate_connected_digraphs(n):
            assert_same_closure(g)
            assert_same_oriented_closure(g)
            checked += 1
    assert checked == 1 + 2 + 13 + 199


def test_oriented_products():
    merged = 0
    for g in oriented_products(60, seed=8):
        assert_same_closure(g)
        assert_same_oriented_closure(g)
        oriented, undirected = _closure_coloring(g), undirected_cartesian_pfd(g)
        merged += oriented.count < undirected.count
    assert merged >= 30


def test_hub_shapes():
    # A hub has many neighbours and few squares: the ranked listing credits
    # the squares to corners it does not list them from, and the fallback
    # joins the pairs of a hub through one pivot.  Each shape is relabelled
    # and taken with its own arcs, with a seeded orientation of its shadow,
    # and, up to 8 vertices, times a small random digraph.
    for i, (_, g) in enumerate(hub_shapes((3, 5, 8, 13, 20))):
        rng = SplitMix64(9000 + i)
        graphs = [g, random_orientation(g, rng)]
        if g.n <= 8:
            small = random_connected_digraph((2, 4), rng.next64())
            graphs.append(cartesian_product([g, small]).graph)
        for h in graphs:
            h = relabelled(h, rng.next64())
            assert_same_closure(h)
            assert_same_oriented_closure(h)
