"""cartesian_pfd against the brute-force Cartesian splitter of
cartesian_oracle.py: the same factor multisets, up to isomorphism, on
seeded digraphs with at most 8 vertices."""

from digraph_pfd import (
    cartesian_pfd,
    cartesian_product,
    enumerate_connected_digraphs,
    random_connected_digraph,
)
from digraph_pfd.oracle import SplitMix64

from cartesian_oracle import brute_force_cartesian_factors
from helpers import factor_forms, random_orientation

# Factor sizes of the seeded products; every product has at most 8 vertices.
SIZES = [(2, 2), (2, 3), (3, 2), (2, 4), (2, 2, 2)]


def small_products(count, seed):
    """Relabelled products of random connected factors, half of them
    reoriented edge by edge so that the shadow factors but the digraph
    mostly does not."""
    graphs = []
    for s in range(count):
        rng = SplitMix64(seed * 1000 + s)
        sizes = SIZES[rng.below(len(SIZES))]
        factors = [random_connected_digraph((m, m), rng.next64()) for m in sizes]
        g = cartesian_product(factors).graph
        if s % 2:
            g = random_orientation(g, rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabel(perm))
    return graphs


def assert_matches_oracle(graphs):
    counts = set()
    for g in graphs:
        expected = factor_forms(brute_force_cartesian_factors(g))
        assert factor_forms(cartesian_pfd(g).factors) == expected
        counts.add(len(expected))
    return counts


def test_oracle_splits_known_products():
    g = cartesian_product([random_connected_digraph((3, 3), 1)] * 2).graph
    assert len(brute_force_cartesian_factors(g)) == 2


def test_exhaustive_corpus_matches_oracle():
    graphs = [g for n in range(1, 5) for g in enumerate_connected_digraphs(n)]
    assert assert_matches_oracle(graphs) == {1, 2}


def test_seeded_products_match_oracle():
    assert assert_matches_oracle(small_products(400, seed=6)) >= {1, 2, 3}


def test_seeded_random_digraphs_match_oracle():
    graphs = [random_connected_digraph((5, 8), seed) for seed in range(300)]
    assert_matches_oracle(graphs)
