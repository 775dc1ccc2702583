"""cartesian_pfd first certifies the proposal of one breadth-first search
and runs the square closure only when the certificate refuses it.

Every join of the proposal holds in the input's own prime factorization,
so an accepted proposal, a one-class proposal included, is the unique one:
it must give the Factorization of the closure path, its classes grouped
into factors where the certificate refuses them, factor for factor and
coordinate for coordinate.  That is checked on every labelling of every
connected digraph with two to four vertices, on oriented and relabelled
products, on the Cartesian and strong oracle corpora, and on the skeletons
that strong_pfd hands to cartesian_pfd.  The products and primes below,
the oriented K_{2,n} and strong-prime random digraphs among them, never
reach the closure.  No proposal rule reads an edge inside one level of the
search, so a misoriented square with such an edge, or a triangle, can
send an input there, a product or a prime: a relabelled K2 x F5 does."""

import importlib
from itertools import permutations

import pytest

from digraph_pfd import (
    Digraph,
    cartesian_product,
    complete_digraph,
    enumerate_connected_digraphs,
    random_connected_digraph,
)

from helpers import (
    bidirected,
    factor_forms,
    oriented_k2n,
    oriented_products,
    relabelled,
    sparse_random_digraph,
)
from test_cartesian_oracle import small_products
from test_cartesian_reference import relabelled_products
from test_strong_oracle import product_quotient_blowups, seeded_products, thin_blowups

strong_pfd_mod = importlib.import_module("digraph_pfd.strong_pfd")
cartesian_pfd_mod = importlib.import_module("digraph_pfd.cartesian_pfd")

K2 = complete_digraph(2)
ARC = Digraph(2, [(0, 1)])


def _path(n):
    return Digraph(n, [(v, v + 1) for v in range(n - 1)])


def _cycle(m):
    return Digraph(m, [(v, (v + 1) % m) for v in range(m)])


def proposal_and_closure(g):
    """The Factorization of the proposal if the certificate accepts it,
    else None, and the Factorization of the closure path, its classes
    grouped if the certificate refuses them as they are."""
    search = cartesian_pfd_mod._search(g)
    accepted = cartesian_pfd_mod._placed(g, search, *cartesian_pfd_mod._propose(g, search))
    coloring = cartesian_pfd_mod._closure_coloring(g)
    colour = cartesian_pfd_mod._down_colours(search, coloring.colors)
    closure = cartesian_pfd_mod._placed(g, search, colour, coloring.count)
    if closure is None:
        group = cartesian_pfd_mod._grouped(g, search, colour, coloring.count)
        colour = [group[c] for c in colour]
        closure = cartesian_pfd_mod._placed(g, search, colour, max(group) + 1)
    return accepted, closure


def assert_accepted_proposals_exact(graphs):
    """Every accepted proposal equals the closure path's result; returns
    how many proposals were accepted and how many refused."""
    accepted = refused = 0
    for g in graphs:
        if g.n < 2:
            continue  # no edge to colour
        proposed, closure = proposal_and_closure(g)
        if proposed is None:
            refused += 1
        else:
            accepted += 1
            assert (proposed.factors, proposed.coords) == (closure.factors, closure.coords), g
    return accepted, refused


def every_labelling_up_to_four_vertices():
    graphs = {}
    for n in range(2, 5):
        for g in enumerate_connected_digraphs(n):
            for perm in permutations(range(n)):
                h = g.relabel(list(perm))
                graphs[h.arc_set] = h
    return list(graphs.values())


def skeletons_handed_to_cartesian_pfd(graphs, monkeypatch):
    handed = []
    original = strong_pfd_mod.cartesian_pfd

    def recorded(g):
        handed.append(g)
        return original(g)

    with monkeypatch.context() as m:
        m.setattr(strong_pfd_mod, "cartesian_pfd", recorded)
        for g in graphs:
            strong_pfd_mod.strong_pfd(g)
    return handed


def test_every_labelling_up_to_four_vertices():
    assert assert_accepted_proposals_exact(every_labelling_up_to_four_vertices())[0] >= 2000


def test_oriented_and_relabelled_products():
    graphs = oriented_products(200, seed=8) + relabelled_products(100, seed=13)
    accepted, refused = assert_accepted_proposals_exact(graphs)
    assert accepted >= 290 and refused >= 1


def test_cartesian_oracle_corpus():
    graphs = small_products(400, seed=6)
    graphs += [random_connected_digraph((2, 8), seed) for seed in range(300)]
    assert assert_accepted_proposals_exact(graphs)[0] >= 550


def test_skeletons_from_strong_pfd(monkeypatch):
    graphs = seeded_products(200, seed=7) + thin_blowups(100, seed=8)
    graphs += product_quotient_blowups(60, seed=9)
    graphs += [random_connected_digraph((5, 13), seed) for seed in range(200)]
    handed = skeletons_handed_to_cartesian_pfd(graphs, monkeypatch)
    assert assert_accepted_proposals_exact(handed)[0] >= 150


def _counted_closures(monkeypatch):
    counts = {"closures": 0}
    closure = cartesian_pfd_mod._closure_coloring

    def counted(g):
        counts["closures"] += 1
        return closure(g)

    monkeypatch.setattr(cartesian_pfd_mod, "_closure_coloring", counted)
    return counts


# (label, factorizer, input, factor count)
NO_CLOSURE = [
    *[(f"K2^{k}", "cartesian_pfd", relabelled(cartesian_product([ARC] * k).graph, k), k)
      for k in range(2, 8)],
    *[(f"C{m}^2", "cartesian_pfd", relabelled(cartesian_product([_cycle(m)] * 2).graph, m), 2)
      for m in (3, 4, 5, 8, 16)],
    *[(f"P{n}xK2", "cartesian_pfd", relabelled(cartesian_product([_path(n), K2]).graph, n), 2)
      for n in (2, 3, 7, 40)],
    *[(f"K2,{n} hub at 0", "cartesian_pfd", oriented_k2n(n), 1) for n in (3, 10, 100)],
    *[(f"K2,{n} leaf at 0", "cartesian_pfd", oriented_k2n(n, hub_first=False), 1)
      for n in (3, 10, 100)],
    *[(f"K2,{n}xK2", "cartesian_pfd", cartesian_product([oriented_k2n(n), K2]).graph, 2)
      for n in (3, 10, 50)],
    *[(f"random{n} p=0.1", "strong_pfd", sparse_random_digraph(n, seed), 1)
      for n, seed in ((40, 1), (60, 3), (80, 2))],
]


@pytest.mark.parametrize(
    "factorizer, g, factors", [case[1:] for case in NO_CLOSURE], ids=[case[0] for case in NO_CLOSURE]
)
def test_products_and_primes_skip_the_closure(monkeypatch, factorizer, g, factors):
    counts = _counted_closures(monkeypatch)
    module = strong_pfd_mod if factorizer == "strong_pfd" else cartesian_pfd_mod
    assert len(getattr(module, factorizer)(g).factors) == factors
    assert counts["closures"] == 0


def test_random_strong_primes_reach_the_cartesian_stage(monkeypatch):
    # The closure count above means something only if strong_pfd hands
    # their skeletons to cartesian_pfd, past the triangle exit.
    graphs = [g for label, _, g, _ in NO_CLOSURE if label.startswith("random")]
    assert len(skeletons_handed_to_cartesian_pfd(graphs, monkeypatch)) == len(graphs)


def test_refused_proposal_runs_the_closure(monkeypatch):
    # An orientation of the prism K3 x K2: its misoriented square has an
    # edge inside level 1 of the search and one inside level 2, which no
    # proposal rule reads, so the proposal splits a prime digraph and is
    # refused.
    g = Digraph(6, [(0, 2), (0, 3), (1, 0), (1, 2), (1, 4), (2, 5), (3, 5), (4, 3), (4, 5), (5, 4)])
    assert proposal_and_closure(g)[0] is None
    counts = _counted_closures(monkeypatch)
    assert cartesian_pfd_mod.cartesian_pfd(g).factors == (g,)
    assert counts["closures"] == 1


def test_refused_symmetric_product_runs_the_closure(monkeypatch):
    # K2 x F5, F5 a triangle 0-1-2 and a square 0-2-3-4 on one edge: no
    # proposal rule reads the triangle's edge inside one level of this
    # labelling's search, so the proposal has 3 classes and is refused, and
    # the closure's 2 classes are the factors.
    f5 = bidirected(5, [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (3, 4)])
    g = relabelled(cartesian_product([K2, f5]).graph, 0)
    search = cartesian_pfd_mod._search(g)
    colour, count = cartesian_pfd_mod._propose(g, search)
    assert count == 3 and cartesian_pfd_mod._placed(g, search, colour, count) is None
    assert cartesian_pfd_mod._closure_coloring(g).count == 2
    counts = _counted_closures(monkeypatch)
    assert factor_forms(cartesian_pfd_mod.cartesian_pfd(g).factors) == factor_forms([K2, f5])
    assert counts["closures"] == 1


def test_proposal_with_a_one_vertex_layer_is_refused():
    # The cube's last vertex has three down-edges.  Its labels come from
    # the first two, so a fourth colour on the third changes no label: its
    # layer through vertex 0 is vertex 0 alone, and the cube times K1 passes
    # the certificate.  Such a proposal has a class that is no factor.
    g = cartesian_product([ARC] * 3).graph
    search = cartesian_pfd_mod._search(g)
    colour, count = cartesian_pfd_mod._propose(g, search)
    assert count == 3 and cartesian_pfd_mod._placed(g, search, colour, count) is not None
    colour[-1] = count
    assert cartesian_pfd_mod._placed(g, search, colour, count + 1) is None
