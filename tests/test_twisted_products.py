"""Möbius ladders and twisted tori are Cartesian products at every square
but twisted globally, and so are their products with other factors.  Their
square closure is finer than their prime factors, the certificate refuses
it, and cartesian_pfd groups its classes: the first set of classes,
smallest then lexicographic, that splits off from the rest is a factor.
Each result is read against the brute-force oracle, on the inputs and on
relabelled copies, and strong_pfd factors the thin twisted strong tori,
whose skeletons take the same path."""

import importlib

import pytest

from digraph_pfd import cartesian_pfd, cartesian_product, complete_digraph, strong_pfd
from digraph_pfd import direction_conflicts, undirected_cartesian_pfd

from cartesian_oracle import brute_force_cartesian_factors
from helpers import (
    bidirected,
    factor_forms,
    mobius_ladder,
    relabelled,
    twisted_strong_torus,
    twisted_torus,
)

cartesian_pfd_mod = importlib.import_module("digraph_pfd.cartesian_pfd")
strong_pfd_mod = importlib.import_module("digraph_pfd.strong_pfd")

K2 = complete_digraph(2)
P3 = bidirected(3, [(0, 1), (1, 2)])
M8, M10 = mobius_ladder(8), mobius_ladder(10)

PRIMES = [(f"M{n}", mobius_ladder(n)) for n in range(8, 23, 2)]
PRIMES += [
    (f"T{a},{b},{t}", twisted_torus(a, b, t))
    for a, b, t in ((4, 4, 1), (5, 5, 2), (6, 4, 1), (7, 5, 3), (6, 6, 3))
]
PRODUCTS = [
    ("M8xK2", cartesian_product([M8, K2]).graph),
    ("M10xP3", cartesian_product([M10, P3]).graph),
    ("M8xM10", cartesian_product([M8, M10]).graph),
]
CASES = [
    *PRIMES,
    *[(f"{label}~{seed}", relabelled(g, seed)) for seed in (1, 2) for label, g in PRIMES],
    *PRODUCTS,
    *[(f"{label}~{seed}", relabelled(g, seed)) for seed in range(8) for label, g in PRODUCTS],
]


def _counted_groupings(monkeypatch):
    counts = {"groupings": 0}
    grouped = cartesian_pfd_mod._grouped

    def counted(*args):
        counts["groupings"] += 1
        return grouped(*args)

    monkeypatch.setattr(cartesian_pfd_mod, "_grouped", counted)
    return counts


@pytest.mark.parametrize("g", [case[1] for case in CASES], ids=[case[0] for case in CASES])
def test_matches_the_oracle(g):
    f = cartesian_pfd(g)
    assert factor_forms(f.factors) == factor_forms(brute_force_cartesian_factors(g))


def test_each_input_as_drawn_groups_the_closure(monkeypatch):
    # Some relabelled copies are settled by their proposal instead.
    counts = _counted_groupings(monkeypatch)
    for _, g in PRIMES + PRODUCTS:
        cartesian_pfd_mod.cartesian_pfd(g)
    assert counts["groupings"] == len(PRIMES + PRODUCTS)


def test_ladder_times_k2_splits_off_k2():
    for seed in range(8):
        f = cartesian_pfd(relabelled(PRODUCTS[0][1], seed))
        assert sorted(h.n for h in f.factors) == [2, 8]
        assert K2 in f.factors


@pytest.mark.parametrize("a, b, t", [(5, 5, 1), (6, 6, 1), (7, 5, 2)])
def test_twisted_strong_torus_is_strong_prime(monkeypatch, a, b, t):
    counts = _counted_groupings(monkeypatch)
    g = twisted_strong_torus(a, b, t)
    for h in (g, relabelled(g, a)):
        assert strong_pfd_mod.strong_pfd(h).factors == (h,)
    assert counts["groupings"] == 2


@pytest.mark.parametrize("g", [M8, PRODUCTS[0][1], relabelled(PRODUCTS[2][1], 3)])
def test_undirected_coloring_is_grouped_into_the_factors(g):
    coloring = undirected_cartesian_pfd(g)
    assert coloring.count == len(brute_force_cartesian_factors(g))
    assert direction_conflicts(g, coloring) == []  # certifies a product colouring
    firsts = []
    for e in sorted(coloring.colors):
        if coloring.colors[e] not in firsts:
            firsts.append(coloring.colors[e])
    assert firsts == list(range(coloring.count))  # numbered by their least edge
