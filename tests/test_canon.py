import itertools

import pytest
from hypothesis import given

from digraph_pfd import Digraph, canonical_form, complete_digraph, is_isomorphic
from digraph_pfd.errors import SizeLimitExceededError

from helpers import c3, k2, p2
from strategies import digraphs, graph_with_permutation


def test_p2_isomorphic_to_reversal():
    assert is_isomorphic(p2(), Digraph(2, [(1, 0)]))


def test_c3_isomorphic_to_arc_reversal():
    reversed_c3 = Digraph(3, [(v, u) for u, v in c3().arcs])
    # witnessed by 0 -> 0, 1 -> 2, 2 -> 1
    assert is_isomorphic(c3(), reversed_c3)


def test_p2_not_isomorphic_to_k2():
    assert not is_isomorphic(p2(), k2())


def test_size_limit():
    with pytest.raises(SizeLimitExceededError):
        canonical_form(Digraph(65, []))


def test_complete_graph_canonical():
    assert canonical_form(complete_digraph(6)) == canonical_form(
        complete_digraph(6).relabel([3, 1, 4, 5, 0, 2])
    )


@given(graph_with_permutation(digraphs()))
def test_invariant_under_relabeling(gp):
    g, perm = gp
    assert is_isomorphic(g, g.relabel(perm))
    assert canonical_form(g) == canonical_form(g.relabel(perm))


@given(digraphs())
def test_canonical_form_is_realized(g):
    form = canonical_form(g)
    assert form.n == g.n
    assert is_isomorphic(g, Digraph(form.n, form.arcs))


def test_equivalence_relation_on_corpus():
    corpus = [
        p2(),
        k2(),
        c3(),
        Digraph(3, [(0, 1), (1, 2)]),
        Digraph(3, [(1, 0), (2, 1)]),
        Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ]
    for g in corpus:
        assert is_isomorphic(g, g)
    for g, h in itertools.permutations(corpus, 2):
        assert is_isomorphic(g, h) == is_isomorphic(h, g)
    for g, h, i in itertools.permutations(corpus, 3):
        if is_isomorphic(g, h) and is_isomorphic(h, i):
            assert is_isomorphic(g, i)


def test_distinct_forms_for_distinct_classes():
    path = Digraph(3, [(0, 1), (1, 2)])
    shifted = Digraph(3, [(1, 2), (2, 0)])
    assert canonical_form(path) == canonical_form(shifted)
    assert canonical_form(path) != canonical_form(c3())
