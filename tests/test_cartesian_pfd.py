import time
import tracemalloc

import pytest
from hypothesis import given, settings

from digraph_pfd import (
    Digraph,
    cartesian_pfd,
    cartesian_product,
    complete_digraph,
    direction_conflicts,
    reconstruct_cartesian,
    strong_pfd,
    strong_product,
    undirected_cartesian_pfd,
)
from digraph_pfd.cartesian_pfd import EdgeColoring
from digraph_pfd.errors import InvalidColoringError, NotConnectedError

from helpers import c3, conflict_square, factor_forms, k1, k2, p2, relabelled, shadow, star, two_k2
from strategies import connected_digraphs, graph_with_permutation


def test_square_gets_two_colors_with_opposite_edges_paired():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    coloring = undirected_cartesian_pfd(g)
    assert coloring.count == 2
    assert coloring.colors[(0, 1)] == coloring.colors[(2, 3)]
    assert coloring.colors[(0, 3)] == coloring.colors[(1, 2)]


def _moved_coordinate(cg, arc):
    """The one coordinate along which an arc of a Cartesian product moves."""
    (j,) = (j for j, (a, b) in enumerate(zip(cg.coords[arc[0]], cg.coords[arc[1]])) if a != b)
    return j


def test_triangle_is_prime():
    g = Digraph(3, [(0, 1), (1, 2), (0, 2)])
    assert undirected_cartesian_pfd(g).count == 1


def test_cube_gets_three_colors():
    cg = cartesian_product([complete_digraph(2)] * 3)
    coloring = undirected_cartesian_pfd(cg.graph)
    assert coloring.count == 3
    # colors must match the construction's coordinate classes
    by_coord = {}
    for u, v in cg.graph.arcs:
        if u < v:
            by_coord[(u, v)] = _moved_coordinate(cg, (u, v))
    grouping = {}
    for e, color in coloring.colors.items():
        grouping.setdefault(color, set()).add(by_coord[e])
    assert all(len(dims) == 1 for dims in grouping.values())


def test_undirected_pfd_requires_connected():
    with pytest.raises(NotConnectedError):
        undirected_cartesian_pfd(Digraph(2, []))


def test_color_classes_partition_into_equal_layers():
    g = cartesian_product([p2(), c3()]).graph
    coloring = undirected_cartesian_pfd(g)
    for color in range(coloring.count):
        comps = _components(g.n, [e for e, c in coloring.colors.items() if c == color])
        sizes = {len(c) for c in comps}
        assert len(sizes) == 1


def _components(n, edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def _natural_coloring(cg):
    colors = {}
    for arc in cg.graph.arcs:
        e = (min(arc), max(arc))
        colors[e] = _moved_coordinate(cg, arc)
    return EdgeColoring(colors, len(cg.factors))


def test_no_conflicts_on_genuine_product():
    cg = cartesian_product([p2(), c3()])
    assert direction_conflicts(cg.graph, _natural_coloring(cg)) == []


def test_conflict_square_has_conflict():
    g = conflict_square()
    coloring = undirected_cartesian_pfd(g)
    assert coloring.count == 2
    assert direction_conflicts(g, coloring) != []


def test_single_color_never_conflicts():
    g = conflict_square()
    colors = {e: 0 for e in shadow(g)[0]}
    assert direction_conflicts(g, EdgeColoring(colors, 1)) == []


def test_invalid_coloring_rejected():
    g = cartesian_product([p2(), c3()]).graph
    edges = shadow(g)[0]
    colors = {e: i % 3 for i, e in enumerate(edges)}
    with pytest.raises(InvalidColoringError):
        direction_conflicts(g, EdgeColoring(colors, 3))


def test_missing_edges_rejected():
    g = cartesian_product([p2(), c3()]).graph
    with pytest.raises(InvalidColoringError):
        direction_conflicts(g, EdgeColoring({}, 0))


def test_disconnected_coloring_rejected():
    # The layer sizes 2 * 2 match n = 4, so only the unreached vertex 3
    # shows that this is no product coloring.
    g = Digraph(4, [(0, 1), (0, 2)])
    with pytest.raises(InvalidColoringError, match="not a product coloring"):
        direction_conflicts(g, EdgeColoring({(0, 1): 0, (0, 2): 1}, 2))


@pytest.mark.parametrize(
    "colors, count",
    [
        ({(0, 1): 5}, 2),
        ({(0, 1): 0}, 0),
        ({(0, 1): -1}, 1),
        ({(0, 1): 1}, 1),
        ({(0, 1): 0.0}, 1),
        ({(0, 1): 0}, 1.0),
    ],
    ids=["above_count", "zero_count", "negative", "equal_to_count", "not_an_int", "count_not_an_int"],
)
def test_color_outside_the_count_rejected(colors, count):
    with pytest.raises(InvalidColoringError, match="not a product coloring"):
        direction_conflicts(p2(), EdgeColoring(colors, count))


@pytest.mark.parametrize("count", [0, 1, 2])
def test_empty_graph_has_no_product_coloring(count):
    with pytest.raises(InvalidColoringError, match="not a product coloring"):
        direction_conflicts(Digraph(0), EdgeColoring({}, count))


def test_k1_factors_to_itself():
    f = cartesian_pfd(k1())
    assert [x.n for x in f.factors] == [1]


def test_round_trip_p2_c3():
    g = cartesian_product([p2(), c3()]).graph
    perm = [3, 0, 4, 1, 5, 2]
    f = cartesian_pfd(g.relabel(perm))
    assert factor_forms(f.factors) == factor_forms([p2(), c3()])


def test_conflict_square_is_prime():
    f = cartesian_pfd(conflict_square())
    assert len(f.factors) == 1
    assert f.factors[0] == conflict_square()


def test_requires_connected():
    for g in (Digraph(3, [(0, 1)]), two_k2()):
        with pytest.raises(NotConnectedError):
            cartesian_pfd(g)


@settings(max_examples=25)
@given(connected_digraphs(min_n=1, max_n=5))
def test_reconstruction_exact(g):
    f = cartesian_pfd(g)
    assert reconstruct_cartesian(f) == g


@settings(max_examples=20)
@given(graph_with_permutation(connected_digraphs(min_n=1, max_n=5)))
def test_factor_multiset_invariant_under_relabeling(gp):
    g, perm = gp
    assert factor_forms(cartesian_pfd(g).factors) == factor_forms(
        cartesian_pfd(g.relabel(perm)).factors
    )


@settings(max_examples=15)
@given(connected_digraphs(min_n=2, max_n=5), connected_digraphs(min_n=2, max_n=5))
def test_factors_are_prime(a, b):
    g = cartesian_product([a, b]).graph
    for factor in cartesian_pfd(g).factors:
        assert len(cartesian_pfd(factor).factors) == 1


@settings(max_examples=15)
@given(connected_digraphs(min_n=2, max_n=4), connected_digraphs(min_n=2, max_n=4))
def test_digraph_colors_refine_undirected_colors(a, b):
    g = cartesian_product([a, b]).graph
    f = cartesian_pfd(g)
    undirected = undirected_cartesian_pfd(g)
    # the factor index of an arc is the coordinate it moves along
    arc_factor = {}
    for u, v in g.arcs:
        diff = [
            j for j in range(len(f.factors)) if f.coords[u][j] != f.coords[v][j]
        ]
        arc_factor[(min(u, v), max(u, v))] = diff[0]
    for color in range(undirected.count):
        targets = {
            arc_factor[e] for e, c in undirected.colors.items() if c == color
        }
        assert len(targets) == 1


def _relabelled_path(n, seed):
    return relabelled(Digraph(n, [(v, v + 1) for v in range(n - 1)]), seed)


def _best_seconds(g, repeats=3, factorize=cartesian_pfd):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        factorize(g)
        best = min(best, time.perf_counter() - start)
    return best


def _ladder(n, seed):
    """P_n times K2 under the Cartesian product, relabelled: every edge lies
    on a square, so the closure runs."""
    path = Digraph(n, [(v, v + 1) for v in range(n - 1)])
    return relabelled(cartesian_product([path, k2()]).graph, seed)


def test_near_linear_on_relabelled_paths():
    # A path leaves cartesian_pfd before the closure; a ladder goes through it.
    for small, large in [
        (_relabelled_path(500, 1), _relabelled_path(4000, 2)),
        (_ladder(250, 4), _ladder(2000, 5)),
    ]:
        time_ratio = _best_seconds(large) / _best_seconds(small)
        arc_ratio = large.arc_count / small.arc_count
        assert time_ratio <= 3 * arc_ratio, (
            f"{large.n} vertices: time ratio {time_ratio:.1f} exceeds 3x arc ratio {arc_ratio:.1f}"
        )
    g = _relabelled_path(20000, 3)
    tracemalloc.start()
    try:
        cartesian_pfd(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_near_linear_on_relabelled_hubs():
    # A hub's neighbours span few squares, so the closure must list squares
    # from ranked wedges and join the hub's pairs through one pivot: walking
    # every wedge or every pair at the hub is quadratic.  Out-, in- and
    # bidirected stars go through cartesian_pfd, and a star times P2 through
    # strong_pfd, whose skeleton is the star times P2 under the Cartesian
    # product.  A star leaves cartesian_pfd before the closure, so a star
    # times K2 under the Cartesian product goes through it too.
    pairs = [(cartesian_pfd, star(500, kind), star(4000, kind)) for kind in ("out", "in", "both")]
    star_p2 = [strong_product([star(n // 2, "out"), p2()]).graph for n in (500, 4000)]
    pairs.append((strong_pfd, *star_p2))
    star_k2 = [cartesian_product([star(n // 2, "out"), k2()]).graph for n in (500, 4000)]
    pairs.append((cartesian_pfd, *star_k2))
    for seed, (factorize, small, large) in enumerate(pairs):
        small, large = relabelled(small, 2 * seed), relabelled(large, 2 * seed + 1)
        small_s = large_s = float("inf")
        for _ in range(3):  # interleaved, so that a busy spell of the host slows both sizes
            small_s = min(small_s, _best_seconds(small, 2, factorize))
            large_s = min(large_s, _best_seconds(large, 1, factorize))
        time_ratio = large_s / small_s
        arc_ratio = large.arc_count / small.arc_count
        assert time_ratio <= 3 * arc_ratio, (
            f"{factorize.__name__} on {large.n} vertices: time ratio {time_ratio:.1f}"
            f" exceeds 3x arc ratio {arc_ratio:.1f}"
        )
