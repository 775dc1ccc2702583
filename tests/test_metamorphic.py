"""Relations between factorizations that need no oracle."""

import itertools

import pytest

from digraph_pfd import (
    cartesian_pfd,
    cartesian_product,
    cartesian_skeleton,
    enumerate_connected_digraphs,
    is_thin,
    random_connected_digraph,
    strong_pfd,
    strong_product,
)
from digraph_pfd.oracle import SplitMix64

from helpers import converse, factor_forms


@pytest.mark.parametrize(
    "product, factorize", [(strong_product, strong_pfd), (cartesian_product, cartesian_pfd)]
)
def test_factors_of_converse_are_converses_of_factors(product, factorize):
    # Reversing every arc of a product reverses every arc of each factor.
    for s in range(150):
        rng = SplitMix64(4700 + s)
        factors = [random_connected_digraph((2, 4), rng.next64()) for _ in range(1 + rng.below(3))]
        g = product(factors).graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.relabel(perm)
        want = factor_forms(converse(h) for h in factorize(g).factors)
        assert factor_forms(factorize(converse(g)).factors) == want, g


def test_every_labelling_up_to_four_vertices():
    # The enumeration holds one labelling per isomorphism class, so a fault
    # that depends on which corner of a square gets the least label shows
    # only under the other labellings.
    labellings = 0
    for n in range(1, 5):
        for g in enumerate_connected_digraphs(n):
            strong = factor_forms(strong_pfd(g).factors)
            cartesian = factor_forms(cartesian_pfd(g).factors)
            skeleton = cartesian_skeleton(g).skeleton if is_thin(g) else None
            for perm in itertools.permutations(range(n)):
                h = g.relabel(perm)
                assert factor_forms(strong_pfd(h).factors) == strong, (g, perm)
                assert factor_forms(cartesian_pfd(h).factors) == cartesian, (g, perm)
                if skeleton is not None:
                    assert cartesian_skeleton(h).skeleton == skeleton.relabel(perm), (g, perm)
                labellings += 1
    assert labellings == 4859
