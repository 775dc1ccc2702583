"""The colouring check of direction_conflicts (the shadow certificate plus
the colour rule) and its local-square conflict test agree with the reference
loops in helpers.py: the same placements and rejections, the same
direction_conflicts lists, and the same factors and coordinates from
cartesian_pfd."""

import pytest

from digraph_pfd import (
    Digraph,
    EdgeColoring,
    cartesian_pfd,
    cartesian_product,
    direction_conflicts,
    enumerate_connected_digraphs,
    random_connected_digraph,
    undirected_cartesian_pfd,
)
from digraph_pfd.cartesian_pfd import _check_coloring
from digraph_pfd.errors import InvalidColoringError
from digraph_pfd.oracle import SplitMix64

from helpers import (
    c3,
    conflict_square,
    merge_colors,
    oriented_products,
    p2,
    reference_cartesian_pfd,
    reference_coordinatize,
    reference_direction_conflicts,
    reference_placement,
    shadow,
)


@pytest.fixture(scope="module")
def corpus():
    return [g for n in range(2, 5) for g in enumerate_connected_digraphs(n)]


def relabelled_products(count, seed):
    """Seeded Cartesian products of 2-4 connected factors on 2-3 vertices,
    with their vertices shuffled."""
    graphs = []
    for s in range(count):
        rng = SplitMix64(seed * 1000 + s)
        k = 2 + rng.below(3)
        factors = [random_connected_digraph((2, 3), rng.next64()) for _ in range(k)]
        g = cartesian_product(factors).graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabel(perm))
    return graphs


def perturbed_products(count, seed):
    """(g, coloring) pairs: a product of two factors on 2-4 vertices, colored
    by the coordinate each edge moves along, after one edge was deleted, or
    one edge added inside a layer, or both.  Without the shadow certificate
    some of these pass as product colorings."""

    def moved(u, v):
        return [i for i, (a, b) in enumerate(zip(coords[u], coords[v])) if a != b]

    cases = []
    for s in range(count):
        rng = SplitMix64(seed * 1000 + s)
        factors = [random_connected_digraph((2, 4), rng.next64()) for _ in range(2)]
        cg = cartesian_product(factors)
        g, coords = cg.graph, cg.coords
        arcs = set(g.arcs)
        change = 1 + rng.below(3)  # bit 0: delete an edge, bit 1: add one
        if change & 1:
            u, v = g.arcs[rng.below(len(g.arcs))]
            arcs -= {(u, v), (v, u)}
        if change & 2:
            adj = shadow(g)[1]
            pairs = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if v not in adj[u] and len(moved(u, v)) == 1
            ]
            if pairs:
                arcs.add(pairs[rng.below(len(pairs))])
        h = Digraph(g.n, arcs)
        colors = {(u, v): moved(u, v)[0] for u, v in shadow(h)[0]}
        cases.append((h, EdgeColoring(colors, 2)))
    return cases


def coarsenings(coloring):
    """The coloring itself and every coloring with two of its colors merged."""
    yield coloring
    for i in range(coloring.count):
        for j in range(i + 1, coloring.count):
            yield merge_colors(coloring, [(i, j)])


def random_colorings(g, rng, count):
    edges = shadow(g)[0]
    for _ in range(count):
        k = 1 + rng.below(3)
        yield EdgeColoring({e: rng.below(k) for e in edges}, k)


def outcome(check, g, coloring):
    try:
        return check(g, coloring)
    except InvalidColoringError as exc:
        return ("invalid", str(exc))


def placement(g, coloring):
    """The placement that _check_coloring accepts, with the coordinates as
    vertex ids of the layers through vertex 0, as the reference gives them."""
    positions, coords = _check_coloring(g, coloring)
    return positions, tuple(tuple(positions[i][r] for i, r in enumerate(c)) for c in coords)


def reference(g, coloring):
    positions, coords, _ = reference_placement(g, coloring)
    return positions, coords


def assert_same_checks(g, coloring):
    assert outcome(placement, g, coloring) == outcome(reference, g, coloring)
    assert outcome(direction_conflicts, g, coloring) == outcome(
        reference_direction_conflicts, g, coloring
    )


def assert_same_pfd(g):
    f = cartesian_pfd(g)
    assert (f.factors, f.coords) == reference_cartesian_pfd(g)
    for coloring in coarsenings(undirected_cartesian_pfd(g)):
        assert_same_checks(g, coloring)


def test_exhaustive_corpus_matches_reference(corpus):
    for g in corpus:
        assert_same_pfd(g)


def test_relabelled_products_match_reference():
    graphs = relabelled_products(40, seed=8)
    assert {len(cartesian_pfd(g).factors) for g in graphs} >= {2, 3, 4}
    for g in graphs:
        assert_same_pfd(g)


def test_random_digraphs_match_reference():
    for seed in range(60):
        assert_same_pfd(random_connected_digraph((5, 8), seed))


def test_oriented_products_match_reference():
    graphs = oriented_products(60, seed=8)
    merged = 0
    for g in graphs:
        assert_same_pfd(g)
        finest = undirected_cartesian_pfd(g)
        merged += len(cartesian_pfd(g).factors) < finest.count
    assert merged >= 30


def test_random_colorings_match_reference(corpus):
    rng = SplitMix64(8)
    graphs = corpus[-40:] + relabelled_products(10, seed=9)
    verdicts = set()
    for g in graphs:
        for coloring in random_colorings(g, rng, 5):
            assert_same_checks(g, coloring)
            verdicts.add(outcome(placement, g, coloring)[0] == "invalid")
    assert verdicts == {True, False}


def test_perturbed_product_colorings_match_reference():
    verdicts = []
    for g, coloring in perturbed_products(80, seed=8):
        assert_same_checks(g, coloring)
        verdicts.append(reference_coordinatize(g, coloring))
    assert sum(v is None for v in verdicts) >= 40


def test_invalid_colorings_match_reference():
    g = cartesian_product([p2(), c3()]).graph
    edges = shadow(g)[0]
    square = conflict_square()
    cases = [
        (g, EdgeColoring({e: i % 3 for i, e in enumerate(edges)}, 3)),
        (g, EdgeColoring({}, 0)),
        (square, EdgeColoring({e: 0 for e in shadow(square)[0]}, 1)),
    ]
    for graph, coloring in cases:
        assert_same_checks(graph, coloring)
