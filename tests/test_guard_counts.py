"""Each public factorizer guards its input once per stage that needs it and
certifies only the result it returns: connectivity searches, breadth-first
searches of the Cartesian stage and product certificates counted on a thin
strong product, the same product times K2, a non-thin prime over a
composite quotient, and a Cartesian product.  strong_pfd searches for
connectivity on entry and in the skeleton; the Cartesian stage's one
breadth-first search is its guard.  The Cartesian stage reads the digraph
it factors and builds no symmetric shadow digraph; direction_conflicts
builds one, to certify the placement on the digraph it checks.
cartesian_pfd places the vertices once per call when its proposal is
accepted, also when misoriented squares join some factors of the shadow,
and not at all when its star test proves the input prime.  An input with
an edge in no triangle leaves strong_pfd after one connectivity search and
one certificate, with no neighbourhood mask built, and a path leaves
cartesian_pfd before the closure."""

import importlib

import pytest

from digraph_pfd import blowup, cartesian_product, strong_product
from digraph_pfd.digraph import Digraph

from cartesian_oracle import brute_force_cartesian_factors
from helpers import bidirected_cube, c3, conflict_square, k2, oriented_products, p2, relabelled

strong_pfd_mod = importlib.import_module("digraph_pfd.strong_pfd")
cartesian_pfd_mod = importlib.import_module("digraph_pfd.cartesian_pfd")

# (factorizer, input, connectivity searches, Cartesian-stage searches,
# strong certificates outside the grouping, Cartesian certificates, factor
# count)
CASES = {
    "strong_thin": ("strong_pfd", strong_product([p2(), c3()]).graph, 2, 1, 1, 1, 2),
    "strong_non_thin": ("strong_pfd", strong_product([p2(), c3(), k2()]).graph, 2, 1, 1, 1, 3),
    "strong_non_thin_prime": (
        "strong_pfd",
        blowup(strong_product([p2(), p2()]).graph, [1, 2, 2, 2]),
        2,
        1,
        1,
        1,
        1,
    ),
    "cartesian": ("cartesian_pfd", cartesian_product([p2(), c3()]).graph, 0, 1, 0, 1, 2),
}


def _count(monkeypatch, owner, attr, counts, key, when=lambda: True):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        if when():
            counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


@pytest.mark.parametrize("case", CASES)
def test_one_guard_per_stage_and_one_certificate(monkeypatch, case):
    fn, g, bfs, searches, strong, cartesian, factors = CASES[case]
    counts = {"bfs": 0, "searches": 0, "strong": 0, "cartesian": 0, "shadows": 0}
    in_verify = [0]
    verify = strong_pfd_mod.verify_strong_grouping

    def counted_verify(*args):
        in_verify[0] += 1
        try:
            return verify(*args)
        finally:
            in_verify[0] -= 1

    monkeypatch.setattr(strong_pfd_mod, "verify_strong_grouping", counted_verify)
    _count(monkeypatch, Digraph, "is_connected", counts, "bfs")
    _count(monkeypatch, cartesian_pfd_mod, "_search", counts, "searches")
    _count(monkeypatch, cartesian_pfd_mod, "_symmetric", counts, "shadows")
    _count(
        monkeypatch, strong_pfd_mod, "is_strong_product", counts, "strong", lambda: not in_verify[0]
    )
    _count(monkeypatch, cartesian_pfd_mod, "is_cartesian_product", counts, "cartesian")

    module = strong_pfd_mod if fn == "strong_pfd" else cartesian_pfd_mod
    assert len(getattr(module, fn)(g).factors) == factors
    assert (counts["bfs"], counts["searches"]) == (bfs, searches)
    assert (counts["strong"], counts["cartesian"]) == (strong, cartesian)
    assert counts["shadows"] == 0


@pytest.mark.parametrize(
    "g",
    [
        conflict_square(),
        cartesian_product([p2(), c3()]).graph,
        # The shadow is the cube: the misoriented squares join two of its
        # three factors, into the prime conflict square, and not the third.
        relabelled(cartesian_product([conflict_square(), p2()]).graph, 5),
        *oriented_products(10, seed=3),
    ],
)
def test_cartesian_pfd_places_once(monkeypatch, g):
    counts = {"placements": 0}
    _count(monkeypatch, cartesian_pfd_mod, "_coordinatize", counts, "placements")
    factors = cartesian_pfd_mod.cartesian_pfd(g).factors
    assert len(factors) == len(brute_force_cartesian_factors(g))
    assert counts["placements"] == (0 if len(factors) == 1 else 1)


@pytest.mark.parametrize("g", [conflict_square(), cartesian_product([p2(), c3()]).graph])
def test_direction_conflicts_builds_no_shadow(monkeypatch, g):
    # No shadow beyond the one symmetric digraph that certifies the placement.
    finest = cartesian_pfd_mod.undirected_cartesian_pfd(g)
    counts = {"shadows": 0}
    _count(monkeypatch, cartesian_pfd_mod, "_symmetric", counts, "shadows")
    cartesian_pfd_mod.direction_conflicts(g, finest)
    assert counts["shadows"] == 1


@pytest.mark.parametrize("g", [bidirected_cube(3), relabelled(bidirected_cube(5), 4)])
def test_triangle_free_input_builds_no_mask(monkeypatch, g):
    g = Digraph(g.n, g.arcs)  # no mask read yet
    counts = {"bfs": 0, "strong": 0}
    _count(monkeypatch, Digraph, "is_connected", counts, "bfs")
    _count(monkeypatch, strong_pfd_mod, "is_strong_product", counts, "strong")
    assert strong_pfd_mod.strong_pfd(g).factors == (g,)
    assert counts == {"bfs": 1, "strong": 1}
    assert g._out_mask is None and g._in_mask is None


@pytest.mark.parametrize(
    "g",
    [Digraph(3, [(1, 0), (0, 2)]), relabelled(Digraph(50, [(v, v + 1) for v in range(49)]), 5)],
)
def test_path_skips_the_closure(monkeypatch, g):
    counts = {"closures": 0, "cartesian": 0}
    _count(monkeypatch, cartesian_pfd_mod, "_closure_coloring", counts, "closures")
    _count(monkeypatch, cartesian_pfd_mod, "is_cartesian_product", counts, "cartesian")
    assert cartesian_pfd_mod.cartesian_pfd(g).factors == (g,)
    assert counts == {"closures": 0, "cartesian": 1}
