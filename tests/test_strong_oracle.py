"""strong_pfd against the brute-force strong factorizer of oracle.py: the
same factor multisets, up to isomorphism, on seeded thin and non-thin
digraphs with at most 16 vertices."""

import pytest

from digraph_pfd import (
    blowup,
    brute_force_strong_pfd,
    random_connected_digraph,
    random_thin_digraph,
    strong_pfd,
    strong_product,
)
from digraph_pfd.oracle import SplitMix64

from helpers import factor_forms

# Factor sizes of the seeded products.  (3, 4), (4, 4) and (2, 2, 4) have
# smaller sets of their own: the oracle's split search on some of them takes
# about half a second.
SIZES = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 5), (2, 2, 2), (2, 2, 3)]
# Largest product-quotient blow-up, for the same reason.
MAX_BLOWUP = 12


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def seeded_products(count, seed, size_choices=SIZES):
    """Relabelled strong products of 2-3 random connected factors."""
    graphs = []
    for s in range(count):
        rng = SplitMix64(seed * 1000 + s)
        sizes = size_choices[rng.below(len(size_choices))]
        factors = [random_connected_digraph((m, m), rng.next64()) for m in sizes]
        graphs.append(relabelled(strong_product(factors).graph, rng))
    return graphs


def thin_blowups(count, seed):
    """Relabelled blow-ups of random thin graphs, multiplicities 1-3."""
    graphs = []
    for s in range(count):
        rng = SplitMix64(seed * 1000 + s)
        q = random_thin_digraph((2, 5), rng.next64())
        graphs.append(relabelled(blowup(q, [1 + rng.below(3) for _ in range(q.n)]), rng))
    return graphs


def product_quotient_blowups(count, seed):
    """Relabelled blow-ups of thin products A x B with at most MAX_BLOWUP
    vertices.  Odd draws take multiplicities ma[a] * mb[b], so the sizes
    split over the two factors; even draws take them per vertex, so the
    result is mostly prime over a composite quotient."""
    graphs = []
    s = 0
    while len(graphs) < count:
        rng = SplitMix64(seed * 1000 + s)
        a, b = (random_thin_digraph((2, 3), rng.next64()) for _ in range(2))
        prod = strong_product([a, b])
        if s % 2:
            ma = [1 + rng.below(3) for _ in range(a.n)]
            mb = [1 + rng.below(3) for _ in range(b.n)]
            mult = [ma[x] * mb[y] for x, y in prod.coords]
        else:
            mult = [1 + rng.below(3) for _ in range(prod.graph.n)]
        s += 1
        if sum(mult) <= MAX_BLOWUP:
            graphs.append(relabelled(blowup(prod.graph, mult), rng))
    return graphs


def assert_matches_oracle(graphs):
    counts = set()
    for g in graphs:
        expected = factor_forms(brute_force_strong_pfd(g, max_vertices=16).factors)
        assert factor_forms(strong_pfd(g).factors) == expected, g
        counts.add(len(expected))
    return counts


def test_seeded_random_digraphs_match_oracle():
    graphs = [random_connected_digraph((5, 13), seed) for seed in range(200)]
    assert_matches_oracle(graphs)


def test_seeded_products_match_oracle():
    assert assert_matches_oracle(seeded_products(200, seed=7)) >= {2, 3}


def test_seeded_3x4_products_match_oracle():
    assert assert_matches_oracle(seeded_products(50, seed=11, size_choices=[(3, 4)])) >= {2}


@pytest.mark.parametrize("sizes, count", [((4, 4), 2), ((2, 2, 4), 3)], ids=["4x4", "2x2x4"])
def test_seeded_16_vertex_products_match_oracle(sizes, count):
    assert assert_matches_oracle(seeded_products(60, seed=1, size_choices=[sizes])) == {count}


def test_thin_blowups_match_oracle():
    assert assert_matches_oracle(thin_blowups(200, seed=8)) >= {1, 2}


def test_product_quotient_blowups_match_oracle():
    assert assert_matches_oracle(product_quotient_blowups(150, seed=9)) >= {1, 2, 3}
