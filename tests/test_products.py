import itertools

import pytest
from hypothesis import given, settings

from digraph_pfd import (
    Digraph,
    cartesian_product,
    classify_edge,
    complete_digraph,
    is_isomorphic,
    layer,
    strong_product,
)
from digraph_pfd.errors import (
    ArcNotPresentError,
    EmptyFactorListError,
    IndexOutOfRangeError,
    VertexOutOfRangeError,
)

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
            cg.vertex_at((p, q)) for p in a.out_nbhd(x) for q in b.out_nbhd(y)
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


def test_layer_equals_factor():
    cg = strong_product([p2(), p2()])
    assert layer(cg, 0, 1) == p2()  # through (0,1)
    assert layer(cg, 1, 2) == p2()


def test_layers_through_same_layer_coincide():
    cg = strong_product([p2(), c3()])
    members = [v for v in range(cg.graph.n) if cg.coords[v][1] == cg.coords[4][1]]
    for y in members:
        assert layer(cg, 0, y) == layer(cg, 0, 4)


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


def test_layer_index_errors():
    cg = strong_product([p2(), p2()])
    with pytest.raises(IndexOutOfRangeError):
        layer(cg, 2, 0)


def test_classify_edges():
    cg = strong_product([p2(), p2()])
    assert classify_edge(cg, (0, 2)) == 0  # (0,0) -> (1,0)
    assert classify_edge(cg, (0, 1)) == 1
    assert classify_edge(cg, (0, 3)) is None  # diagonal
    with pytest.raises(ArcNotPresentError):
        classify_edge(cg, (1, 2))


@given(digraphs(min_n=1, max_n=4), digraphs(min_n=1, max_n=4))
@settings(max_examples=25)
def test_cartesian_products_have_only_cartesian_arcs(a, b):
    cg = cartesian_product([a, b])
    assert all(classify_edge(cg, arc) is not None for arc in cg.graph.arcs)


def test_row_major_vertex_ids():
    cg = strong_product([p2(), c3()])
    assert cg.coords == tuple(itertools.product(range(2), range(3)))
    for v, coord in enumerate(cg.coords):
        assert cg.vertex_at(coord) == v


@pytest.mark.parametrize("coord", [(0, 5), (1,), (-1, 0), (0, 2), (0, 0, 0), ()])
def test_vertex_at_rejects_coordinates_off_the_grid(coord):
    cg = strong_product([p2(), p2()])
    with pytest.raises(VertexOutOfRangeError):
        cg.vertex_at(coord)
