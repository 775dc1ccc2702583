"""Every graph that a pipeline stage derives without validation (skeleton,
quotient, layer, symmetric shadow) has the fields, masks, S classes,
equality and hash of the same graph built through the validating
constructor."""

import pytest

from digraph_pfd import (
    Digraph,
    cartesian_pfd,
    cartesian_skeleton,
    complete_digraph,
    enumerate_connected_digraphs,
    is_thin,
    quotient,
    random_prime_digraph,
    strong_pfd,
    strong_product,
)
from digraph_pfd.cartesian_pfd import _symmetric
from digraph_pfd.products import _layers

from helpers import relabelled

SMALL = [g for n in range(1, 5) for g in enumerate_connected_digraphs(n)]


def _products():
    """Seeded strong products of two or three primes, every second one times K2."""
    for s in range(12):
        primes = [random_prime_digraph((2, 3), 100 * s + j) for j in range(2 + s % 3 // 2)]
        yield strong_product(primes + [complete_digraph(2)] * (s % 2))


PRODUCTS = list(_products())


def _assert_as_validated(x: Digraph) -> None:
    ref = Digraph(x.n, x.arcs)
    assert type(x.arcs) is tuple and type(x.arc_set) is frozenset
    assert (x.n, x.arcs, x.arc_set) == (ref.n, ref.arcs, ref.arc_set)
    assert (x.out_adj, x.in_adj) == (ref.out_adj, ref.in_adj)
    assert (x.out_mask, x.in_mask) == (ref.out_mask, ref.in_mask)
    assert x.classes == ref.classes
    assert x == ref and hash(x) == hash(ref)


def _derived(g: Digraph) -> list[Digraph]:
    """The graphs the pipeline derives from g: its shadow, its quotient, the
    skeleton of the quotient, and the factors strong_pfd and cartesian_pfd
    read off as layers."""
    q = quotient(g).quotient
    out = [_symmetric(g), q]
    if q.is_connected():
        out += strong_pfd(g).factors
        if is_thin(q):
            sk = cartesian_skeleton(q).skeleton
            out += [sk, *cartesian_pfd(sk).factors]
    return out


@pytest.mark.parametrize("g", SMALL, ids=lambda g: repr(g.arcs))
def test_small_derived_graphs_equal_validated(g):
    for x in _derived(g):
        _assert_as_validated(x)


@pytest.mark.parametrize("i", range(len(PRODUCTS)))
def test_product_derived_graphs_equal_validated(i):
    cg = PRODUCTS[i]
    g = relabelled(cg.graph, i)
    derived = _derived(g)
    # The product's own layers through a few vertices, one per factor.
    sizes = [f.n for f in cg.factors]
    derived += [f for x in (0, cg.graph.n - 1) for f in _layers(cg.graph, cg.coords, sizes, x)]
    for x in derived:
        _assert_as_validated(x)


def test_corpus_has_skeletons_that_drop_arcs():
    quotients = [quotient(cg.graph).quotient for cg in PRODUCTS]
    dropped = [cartesian_skeleton(q).skeleton.arc_set < q.arc_set for q in quotients]
    assert sum(dropped) >= len(PRODUCTS) // 2

