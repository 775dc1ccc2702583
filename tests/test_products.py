import itertools

import pytest
from hypothesis import given, settings

from digraph_pfd import Digraph, cartesian_product, is_isomorphic, strong_product
from digraph_pfd.errors import EmptyFactorListError, VertexOutOfRangeError
from digraph_pfd.products import _layers

from helpers import c3, k1, k2, p2
from strategies import digraphs


def test_unit_factor_strong():
    g = c3()
    cg = strong_product([k1(), g])
    assert cg.graph == g
    assert cg.coords == ((0, 0), (0, 1), (0, 2))


def test_unit_factor_cartesian():
    g = c3()
    assert cartesian_product([k1(), g]).graph == g


def test_strong_p2_p2_arcs():
    # vertices row-major: (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3
    cg = strong_product([p2(), p2()])
    assert cg.graph.arcs == ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))


def test_strong_neighborhood_identity_example():
    cg = strong_product([p2(), p2()])
    assert cg.graph.out_nbhd(0) == {0, 1, 2, 3}


def test_cartesian_p2_p2_arcs():
    cg = cartesian_product([p2(), p2()])
    assert cg.graph.arcs == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_cartesian_arc_count_formula():
    cg = cartesian_product([p2(), c3()])
    assert cg.graph.n == 6
    assert cg.graph.arc_count == 1 * 3 + 2 * 3


def test_empty_factor_list():
    with pytest.raises(EmptyFactorListError):
        strong_product([])
    with pytest.raises(EmptyFactorListError):
        cartesian_product([])


@given(digraphs(max_n=4), digraphs(max_n=4))
@settings(max_examples=30)
def test_neighborhood_product_identity(a, b):
    cg = strong_product([a, b])
    for v in range(cg.graph.n):
        x, y = cg.coords[v]
        expected = {
            cg.coords.index((p, q)) for p in a.out_nbhd(x) for q in b.out_nbhd(y)
        }
        assert cg.graph.out_nbhd(v) == expected


@given(digraphs(max_n=4), digraphs(max_n=4))
@settings(max_examples=30)
def test_cartesian_arcs_subset_of_strong(a, b):
    assert cartesian_product([a, b]).graph.arc_set <= strong_product([a, b]).graph.arc_set


@given(digraphs(min_n=1, max_n=4), digraphs(min_n=1, max_n=4))
@settings(max_examples=25)
def test_commutativity_up_to_iso(a, b):
    assert is_isomorphic(strong_product([a, b]).graph, strong_product([b, a]).graph)
    assert is_isomorphic(
        cartesian_product([a, b]).graph, cartesian_product([b, a]).graph
    )


def test_associativity_up_to_iso():
    triple = [p2(), k2(), c3()]
    nary = strong_product(triple).graph
    nested = strong_product([strong_product(triple[:2]).graph, triple[2]]).graph
    assert is_isomorphic(nary, nested)


@given(digraphs(min_n=1, max_n=4), digraphs(min_n=1, max_n=4))
@settings(max_examples=30)
def test_connected_iff_factors_connected(a, b):
    both = a.is_connected() and b.is_connected()
    assert strong_product([a, b]).graph.is_connected() == both
    assert cartesian_product([a, b]).graph.is_connected() == both


@pytest.mark.parametrize("factors", [[p2(), p2()], [p2(), c3()], [c3(), k2(), p2()]])
def test_layers_through_every_vertex_equal_the_factors(factors):
    cg = strong_product(factors)
    sizes = [f.n for f in factors]
    for v in range(cg.graph.n):
        assert _layers(cg.graph, cg.coords, sizes, v) == list(cg.factors)


@pytest.mark.parametrize("missing", list(itertools.product(range(2), range(3))))
def test_layers_need_every_point_of_their_layers(missing):
    # P2 x C3 without the vertex at `missing`: the layers through v fail
    # exactly when that point lies on one of them, else they are the factors.
    cg = strong_product([p2(), c3()])
    keep = {u: i for i, u in enumerate(u for u, c in enumerate(cg.coords) if c != missing)}
    arcs = [(keep[u], keep[v]) for u, v in cg.graph.arcs if u in keep and v in keep]
    g = Digraph(len(keep), arcs)
    coords = [cg.coords[u] for u in keep]
    for v, c in enumerate(coords):
        if c[0] == missing[0] or c[1] == missing[1]:
            with pytest.raises(VertexOutOfRangeError):
                _layers(g, coords, [2, 3], v)
        else:
            assert _layers(g, coords, [2, 3], v) == list(cg.factors)


def test_layers_vertex_disjoint():
    cg = strong_product([p2(), c3()])
    def members(j, x):
        return {
            v
            for v in range(cg.graph.n)
            if all(
                cg.coords[v][i] == cg.coords[x][i]
                for i in range(len(cg.factors))
                if i != j
            )
        }
    m0 = members(1, 0)
    m3 = members(1, 3)
    assert 3 not in m0
    assert m0 & m3 == set()


def test_classify_edges():
    # The arcs of P2 x P2 by the coordinates they move: one for a Cartesian
    # arc, both for the diagonal; 1 -> 2 is no arc.
    cg = strong_product([p2(), p2()])
    moved = {
        (u, v): tuple(i for i, (a, b) in enumerate(zip(cg.coords[u], cg.coords[v])) if a != b)
        for u, v in cg.graph.arcs
    }
    assert moved == {(0, 1): (1,), (0, 2): (0,), (0, 3): (0, 1), (1, 3): (0,), (2, 3): (1,)}


@given(digraphs(min_n=1, max_n=4), digraphs(min_n=1, max_n=4))
@settings(max_examples=25)
def test_cartesian_products_have_only_cartesian_arcs(a, b):
    cg = cartesian_product([a, b])
    for u, v in cg.graph.arcs:
        assert sum(a != b for a, b in zip(cg.coords[u], cg.coords[v])) == 1


def test_row_major_vertex_ids():
    cg = strong_product([p2(), c3()])
    assert cg.coords == tuple(itertools.product(range(2), range(3)))
