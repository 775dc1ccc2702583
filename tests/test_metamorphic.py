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

from helpers import converse, factor_forms, hub_shapes, random_orientation, undirected_shape


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


def oriented_grid(rng):
    """An orientation of the product of two undirected paths or cycles, on
    5-8 vertices: its shadow factors, so its misoriented squares decide
    whether the digraph does."""
    while True:
        shapes = [undirected_shape(rng) for _ in range(2)]
        if 5 <= shapes[0].n * shapes[1].n <= 8:
            return random_orientation(cartesian_product(shapes).graph, rng)


def small_digraph(rng):
    if rng.below(2):
        return oriented_grid(rng)
    return random_connected_digraph((5, 8), rng.next64())


def assert_relabellings_agree(g, rng, count=4):
    strong = factor_forms(strong_pfd(g).factors)
    cartesian = factor_forms(cartesian_pfd(g).factors)
    skeleton = cartesian_skeleton(g).skeleton if is_thin(g) else None
    for _ in range(count):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert factor_forms(strong_pfd(h).factors) == strong, (g, perm)
        assert factor_forms(cartesian_pfd(h).factors) == cartesian, (g, perm)
        if skeleton is not None:
            assert cartesian_skeleton(h).skeleton == skeleton.relabel(perm), (g, perm)


def test_seeded_relabellings_beyond_four_vertices():
    # Above four vertices not every labelling can be tried, so each input
    # gets seeded relabellings instead: connected digraphs on 5-8 vertices,
    # half of them oriented grids, and strong or Cartesian products of two:
    # 200 relabellings in all.  Hub shapes follow, each with its own arcs,
    # with a seeded orientation of its shadow and times a small random
    # digraph: the degree ranking and the hub's pivot then hang on labels.
    for s in range(50):
        rng = SplitMix64(5300 + s)
        g = small_digraph(rng)
        if s % 5 >= 3:
            product = strong_product if s % 5 == 3 else cartesian_product
            g = product([g, small_digraph(rng)]).graph
        assert_relabellings_agree(g, rng)
    for i, (_, g) in enumerate(hub_shapes((3, 4, 5))):
        rng = SplitMix64(5400 + i)
        small = random_connected_digraph((2, 4), rng.next64())
        for h in (g, random_orientation(g, rng), cartesian_product([g, small]).graph):
            assert_relabellings_agree(h, rng, count=2)


@pytest.mark.parametrize(
    "product, factorize", [(strong_product, strong_pfd), (cartesian_product, cartesian_pfd)]
)
def test_factors_of_a_product_are_the_factors_of_both_sides(product, factorize):
    # Prime factorization is unique for connected digraphs under either
    # product, so the factors of G x H are those of G together with those of
    # H.  The pairs reach the (4, 4) products, and a third of them have a
    # non-thin side, whose strong factors come through the lift.
    shapes, non_thin = set(), 0
    for s in range(120):
        rng = SplitMix64(5100 + s)
        g, h = (random_connected_digraph((2, 4), rng.next64()) for _ in range(2))
        gh = product([g, h]).graph
        perm = list(range(gh.n))
        rng.shuffle(perm)
        want = factor_forms([*factorize(g).factors, *factorize(h).factors])
        assert factor_forms(factorize(gh.relabel(perm)).factors) == want, (g, h)
        shapes.add((g.n, h.n))
        non_thin += not (is_thin(g) and is_thin(h))
    assert (4, 4) in shapes
    assert non_thin >= 30
