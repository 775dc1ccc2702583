import random

import pytest
from hypothesis import given

from digraph_pfd import (
    Digraph,
    blowup,
    cartesian_product,
    complete_digraph,
    dispensability,
    enumerate_connected_digraphs,
    parse_edge_list,
    random_connected_digraph,
    random_prime_digraph,
    random_thin_digraph,
    serialize_edge_list,
    strong_product,
)
from digraph_pfd.errors import LoopArcError, VertexOutOfRangeError, ZeroMultiplicityError

from helpers import c3, k2, p2
from strategies import digraphs


def test_build_single_arc():
    g = p2()
    assert g.n == 2
    assert g.arcs == ((0, 1),)
    assert g.out_adj == ((1,), ())
    assert g.in_adj == ((), (0,))


def test_build_rejects_loops():
    with pytest.raises(LoopArcError):
        Digraph(2, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        Digraph(2, [(0, 2)])


@pytest.mark.parametrize(
    "n, arcs",
    [
        (2, [(0, True), (True, 0)]),  # a bool is not a vertex, though True == 1
        (2.5, []),
        (3, [(0, 1.5)]),
        (3, [(0, 1, 2)]),
        (True, []),
        (3, [(1, 1.0)]),
        (3, [0]),
    ],
)
def test_build_accepts_int_vertices_only(n, arcs):
    with pytest.raises(VertexOutOfRangeError):
        Digraph(n, arcs)


# Counts, multiplicities and vertices given to the public entry points are
# exact ints, as in Digraph(n, arcs): a float or a bool raises the package's
# error instead of a bare TypeError or a silent result.
NOT_INTS = {
    "blowup-float": (lambda: blowup(p2(), [1.5, 1]), ZeroMultiplicityError),
    "blowup-bool": (lambda: blowup(p2(), [True, 2]), ZeroMultiplicityError),
    "complete-float": (lambda: complete_digraph(2.5), VertexOutOfRangeError),
    "enumerate-float": (lambda: list(enumerate_connected_digraphs(2.5)), VertexOutOfRangeError),
    "connected-float": (lambda: random_connected_digraph((2.0, 4), 0), VertexOutOfRangeError),
    "connected-bool": (lambda: random_connected_digraph((True, 3), 0), VertexOutOfRangeError),
    "thin-float": (lambda: random_thin_digraph((2, 4.5), 0), VertexOutOfRangeError),
    "prime-float": (lambda: random_prime_digraph((2, 3.0), 0), VertexOutOfRangeError),
    "dispensability-float": (lambda: dispensability(p2(), 0.0, 1), VertexOutOfRangeError),
    "dispensability-bool": (lambda: dispensability(p2(), 0, True), VertexOutOfRangeError),
    "dispensability-range": (lambda: dispensability(p2(), 5, 6), VertexOutOfRangeError),
}


@pytest.mark.parametrize("call, error", NOT_INTS.values(), ids=NOT_INTS)
def test_entry_points_take_exact_ints(call, error):
    with pytest.raises(error):
        call()


def test_build_complete_k2():
    g = Digraph(2, [(0, 1), (1, 0)])
    assert g == k2()


def test_build_deduplicates():
    g = Digraph(2, [(0, 1), (0, 1)])
    assert g.arc_count == 1


def test_out_nbhd_is_closed():
    g = p2()
    assert g.out_nbhd(0) == {0, 1}
    assert g.out_nbhd(1) == {1}


def test_c3_neighborhoods():
    g = c3()
    assert g.out_nbhd(1) == {1, 2}
    assert g.in_nbhd(1) == {0, 1}


def test_k2_neighborhoods():
    g = k2()
    assert g.out_nbhd(0) == g.in_nbhd(0) == {0, 1}


def test_nbhd_rejects_bad_vertex():
    with pytest.raises(VertexOutOfRangeError):
        p2().out_nbhd(2)


@given(digraphs())
def test_neighborhoods_contain_vertex(g):
    for v in range(g.n):
        assert v in g.out_nbhd(v)
        assert v in g.in_nbhd(v)


def test_is_connected():
    assert p2().is_connected()
    assert not Digraph(2, []).is_connected()
    assert c3().is_connected()


def _union_find_connected(n, arcs) -> bool:
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in arcs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) <= 1


def _check_connectivity(g: Digraph) -> None:
    expected = _union_find_connected(g.n, g.arcs)
    assert g.is_connected() == expected, g


def test_is_connected_matches_union_find_up_to_four_vertices():
    for n in range(5):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in range(1 << len(pairs)):
            _check_connectivity(Digraph(n, [p for i, p in enumerate(pairs) if bits >> i & 1]))


@pytest.mark.parametrize("seed", range(40))
def test_is_connected_finds_or_misses_the_last_vertex(seed):
    # A dense core on 0..k that the search exhausts first, then vertex n-1
    # either isolated or at the far end of a path of random orientations.
    rng = random.Random(seed)
    k, n = rng.randrange(1, 8), rng.randrange(10, 20)
    core = [(u, v) for u in range(k + 1) for v in range(k + 1) if u != v and rng.random() < 0.7]
    core += [(u, u + 1) for u in range(k)]
    path = [(u, u + 1) if rng.random() < 0.5 else (u + 1, u) for u in range(k, n - 1)]
    _check_connectivity(Digraph(n, core + path))
    _check_connectivity(Digraph(n, core + path[:-1]))
    _check_connectivity(Digraph(n, core + path[:-1] + [(n - 1, rng.randrange(n - 1))]))


def test_complete_digraph():
    g = complete_digraph(4)
    assert g.arc_count == 12
    assert all(g.has_arc(u, v) for u in range(4) for v in range(4) if u != v)


def test_relabel_swaps():
    g = p2().relabel([1, 0])
    assert g.arcs == ((1, 0),)


def test_relabel_requires_permutation():
    with pytest.raises(VertexOutOfRangeError):
        p2().relabel([0, 0])
    with pytest.raises(VertexOutOfRangeError):
        Digraph(2).relabel([5, 6])


@given(digraphs())
def test_masks_match_neighborhoods(g):
    for v in range(g.n):
        members = {w for w in range(g.n) if (g.out_mask[v] >> w) & 1}
        assert members == g.out_nbhd(v)
        members = {w for w in range(g.n) if (g.in_mask[v] >> w) & 1}
        assert members == g.in_nbhd(v)


def test_value_equality_and_hash():
    assert Digraph(2, [(0, 1)]) == p2()
    assert hash(Digraph(2, [(0, 1)])) == hash(p2())
    assert Digraph(2, [(1, 0)]) != p2()


def _cube():
    """A validated build on 512 vertices, most ids above the small-int cache."""
    return cartesian_product([p2()] * 9).graph


ID_BUILDS = {
    "cartesian_product": _cube,
    "strong_product": lambda: strong_product([p2()] * 9).graph,
    "parse_edge_list": lambda: parse_edge_list(serialize_edge_list(_cube())),
    "relabel": lambda: _cube().relabel(random.Random(5).sample(range(512), 512)),
    "complete_digraph": lambda: complete_digraph(300),
}


@pytest.mark.parametrize("build", ID_BUILDS.values(), ids=ID_BUILDS)
def test_one_int_object_per_vertex(build):
    g = build()
    objects = {}
    for row in (*g.out_adj, *g.in_adj, *g.arcs):
        for v in row:
            objects.setdefault(v, set()).add(id(v))
    assert len(objects) == g.n
    assert all(len(ids) == 1 for ids in objects.values())
