"""Two exact facts let the factorizers stop early, and each exit returns
the one-factor result that the oracle confirms.

- Every edge of a strong product of connected factors with two or more
  vertices each lies in a triangle, so strong_pfd returns an input whose
  edge from vertex 0 to its least neighbour has no common neighbour as its
  own factor, before any mask is built.
- Two edges at a vertex from two factors of such a Cartesian product span
  exactly one chordless square, so cartesian_pfd returns an input as its
  own factor when its search's star test leaves one class at the root r,
  before any union-find past r; an edge at r on no 4-cycle joins every
  other edge at r.  That is the Cartesian stage's only prime exit, also
  when the proposal past r joins every down-edge into one class.

Each check is read against a brute-force reference over the n <= 4 corpus,
a relabelled copy of it, and seeded products."""

import importlib
from itertools import permutations

from digraph_pfd import (
    brute_force_strong_pfd,
    cartesian_pfd,
    cartesian_product,
    complete_digraph,
    enumerate_connected_digraphs,
    random_connected_digraph,
    strong_pfd,
    strong_product,
)
from digraph_pfd.oracle import SplitMix64

from cartesian_oracle import brute_force_cartesian_factors
from helpers import oriented_products, relabelled, shadow

strong_pfd_mod = importlib.import_module("digraph_pfd.strong_pfd")
cartesian_pfd_mod = importlib.import_module("digraph_pfd.cartesian_pfd")


def _least_edge(g):
    """Vertex 0, its least shadow neighbour and the shadow's neighbour sets."""
    adj = shadow(g)[1]
    return 0, min(adj[0]), adj


def _in_no_triangle(v, u, adj):
    return not any(w not in (v, u) for w in adj[v] & adj[u])


def _on_no_square(v, u, adj):
    return not any(
        u in adj[x] and w in adj[x] and v in adj[w]
        for x, w in permutations(set(range(len(adj))) - {v, u}, 2)
    )


def _corpus():
    """Every connected digraph on 2-4 vertices, then a relabelled copy of
    each, so that vertex 0 is not always the same corner."""
    graphs = [g for n in range(2, 5) for g in enumerate_connected_digraphs(n)]
    return graphs + [relabelled(g, 70_000 + i) for i, g in enumerate(graphs)]


def _is_itself(g, f):
    return f.factors == (g,) and f.coords == tuple((v,) for v in range(g.n))


def _strong_products():
    """Relabelled strong products of 2-3 seeded connected digraphs on 2-4
    vertices, every third one times K2."""
    for s in range(60):
        rng = SplitMix64(71_000 + s)
        count = 2 + rng.below(2)
        factors = [random_connected_digraph((2, 4), 72_000 + 10 * s + j) for j in range(count)]
        if s % 3 == 0:
            factors.append(complete_digraph(2))
        yield relabelled(strong_product(factors).graph, 73_000 + s)


def _cartesian_products():
    """Relabelled Cartesian products of 2-3 seeded connected digraphs on
    2-4 vertices, and seeded orientations of products of paths and cycles."""
    for s in range(60):
        rng = SplitMix64(74_000 + s)
        count = 2 + rng.below(2)
        factors = [random_connected_digraph((2, 4), 75_000 + 10 * s + j) for j in range(count)]
        yield relabelled(cartesian_product(factors).graph, 76_000 + s)
    yield from oriented_products(60, seed=77)


def test_triangle_exit_is_exact_on_the_corpus():
    exits = 0
    for g in _corpus():
        verdict = strong_pfd_mod._edge_in_no_triangle(g)
        assert verdict == _in_no_triangle(*_least_edge(g)), g
        if verdict:
            exits += 1
            assert len(brute_force_strong_pfd(g).factors) == 1, g
            assert _is_itself(g, strong_pfd(g))
    assert exits > 100


def test_no_strong_product_has_an_edge_in_no_triangle():
    for g in _strong_products():
        adj = shadow(g)[1]
        assert not any(_in_no_triangle(v, u, adj) for v, u in shadow(g)[0]), g
        assert not strong_pfd_mod._edge_in_no_triangle(g)


def _star_classes(g, monkeypatch):
    """The classes at the root r of g's search after the star test: the
    proposal's one call of _join_unsquared, at r."""
    classes = []
    join = cartesian_pfd_mod._join_unsquared

    def recorded(parent, ev, pairs, n):
        join(parent, ev, pairs, n)
        classes.append(len({cartesian_pfd_mod._find(parent, e) for e in ev.values()}))

    with monkeypatch.context() as m:
        m.setattr(cartesian_pfd_mod, "_join_unsquared", recorded)
        cartesian_pfd_mod._propose(g, cartesian_pfd_mod._search(g))
    (count,) = classes
    return count


def test_star_exit_is_exact_on_the_corpus(monkeypatch):
    stars = 0
    for g in _corpus():
        count = cartesian_pfd_mod._propose(g, cartesian_pfd_mod._search(g))[1]
        prime = len(brute_force_cartesian_factors(g)) == 1
        assert (count < 2) == prime == _is_itself(g, cartesian_pfd(g)), g
        if _star_classes(g, monkeypatch) < 2:
            stars += 1
            assert count == 1, g
    assert stars > 100


def test_an_edge_at_the_root_on_no_square_leaves_one_class(monkeypatch):
    exits = 0
    for g in _corpus():
        r, adj = cartesian_pfd_mod._search(g)[0][0], shadow(g)[1]
        if any(_on_no_square(r, u, adj) for u in adj[r]):
            exits += 1
            assert _star_classes(g, monkeypatch) == 1, g
    assert exits > 100


def test_no_cartesian_product_leaves_one_class_at_the_root(monkeypatch):
    for g in _cartesian_products():
        assert _star_classes(g, monkeypatch) >= 2, g
