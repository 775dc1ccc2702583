import pytest
from hypothesis import given, settings

from digraph_pfd import (
    blowup,
    complete_digraph,
    is_thin,
    quotient,
    s_partition,
    strong_product,
)
from digraph_pfd.errors import NonThinQuotientError, ZeroMultiplicityError

from helpers import blowup_mapping, c3, k1, k2, p2, quotient_product_mapping, respects_arcs
from strategies import digraphs


def test_thin_graph_has_singleton_classes():
    part = s_partition(c3())
    assert part.classes == ((0,), (1,), (2,))


def test_complete_graph_single_class():
    part = s_partition(complete_digraph(4))
    assert part.classes == ((0, 1, 2, 3),)


def test_product_with_k2_classes():
    g = strong_product([p2(), k2()]).graph
    part = s_partition(g)
    assert part.classes == ((0, 1), (2, 3))


def test_is_thin():
    assert is_thin(c3())
    assert not is_thin(k2())


@given(digraphs(max_n=4), digraphs(max_n=4))
@settings(max_examples=30)
def test_thinness_of_product_iff_factors(a, b):
    g = strong_product([a, b]).graph
    assert is_thin(g) == (is_thin(a) and is_thin(b))


def test_quotient_of_thin_is_identity():
    q = quotient(c3())
    assert q.quotient == c3()
    assert q.mult == (1, 1, 1)


def test_quotient_of_product_with_k2():
    q = quotient(strong_product([p2(), k2()]).graph)
    assert q.quotient == p2()
    assert q.mult == (2, 2)


def test_quotient_of_complete():
    q = quotient(complete_digraph(6))
    assert q.quotient == k1()
    assert q.mult == (6,)


@given(digraphs())
def test_quotient_is_thin(g):
    assert is_thin(quotient(g).quotient)


@given(digraphs())
def test_classes_induce_complete_subgraphs(g):
    for members in s_partition(g).classes:
        for u in members:
            for v in members:
                if u != v:
                    assert g.has_arc(u, v)


def test_blowup_ones_is_identity():
    assert blowup(c3(), [1, 1, 1]) == c3()


def test_blowup_k1_gives_complete():
    assert blowup(k1(), [6]) == complete_digraph(6)


def test_blowup_rejects_non_thin():
    with pytest.raises(NonThinQuotientError):
        blowup(k2(), [2, 2])


def test_blowup_rejects_zero_multiplicity():
    with pytest.raises(ZeroMultiplicityError):
        blowup(c3(), [1, 0, 1])


@given(digraphs())
def test_blowup_of_quotient_reconstructs(g):
    q = quotient(g)
    rebuilt = blowup(q.quotient, list(q.mult))
    assert respects_arcs(g, rebuilt, blowup_mapping(g))


@given(digraphs(max_n=4), digraphs(max_n=4))
@settings(max_examples=30)
def test_quotient_commutes_with_product(a, b):
    left = quotient(strong_product([a, b]).graph).quotient
    right = strong_product(
        [quotient(a).quotient, quotient(b).quotient]
    ).graph
    assert respects_arcs(left, right, quotient_product_mapping(a, b))
