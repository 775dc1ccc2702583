"""Relations between factorizations that need no oracle."""

import pytest

from digraph_pfd import (
    cartesian_pfd,
    cartesian_product,
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
