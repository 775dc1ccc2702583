"""A thin graph whose Cartesian skeleton deletes no arc is strong-prime, and
every strong-prime input comes back as its own single factor with vertex v
at coordinate (v,), whichever path of strong_pfd finds it."""

import importlib

import pytest

from digraph_pfd import (
    Digraph,
    DispensabilityWitness,
    SkeletonResult,
    blowup,
    brute_force_strong_pfd,
    cartesian_skeleton,
    complete_digraph,
    enumerate_connected_digraphs,
    is_strong_product,
    is_thin,
    parse_edge_list,
    random_thin_digraph,
    serialize_edge_list,
    strong_pfd,
    strong_pfd_thin,
    strong_product,
)
from digraph_pfd.cli import main

from helpers import bidirected_cube, c3, c4_bidirected, factor_forms, k2, p2

# The package binds the name strong_pfd to the function, so fetch the module.
strong_pfd_mod = importlib.import_module("digraph_pfd.strong_pfd")
products_mod = importlib.import_module("digraph_pfd.products")
relations_mod = importlib.import_module("digraph_pfd.relations")
digraph_mod = importlib.import_module("digraph_pfd.digraph")


def _is_itself(g: Digraph, f) -> bool:
    return f.factors == (g,) and f.coords == tuple((v,) for v in range(g.n))


def _thin_graphs():
    """The thin graphs of the exhaustive n <= 4 corpus, then seeded thin
    graphs on 5-9 vertices, every third one symmetric."""
    for n in range(1, 5):
        yield from (g for g in enumerate_connected_digraphs(n) if is_thin(g))
    for seed in range(400):
        yield random_thin_digraph((5, 9), 80_000 + seed, symmetric=seed % 3 == 0)


def test_empty_ledger_implies_oracle_prime():
    exits = 0
    for g in _thin_graphs():
        if cartesian_skeleton(g).removed:
            continue
        exits += 1
        assert len(brute_force_strong_pfd(g).factors) == 1, g
        assert _is_itself(g, strong_pfd_thin(g))
    assert exits > 200


def test_thin_strong_products_have_a_nonempty_ledger():
    for seed in range(120):
        count = 2 + seed % 2
        factors = [random_thin_digraph((2, 4), 90_000 + 10 * seed + j) for j in range(count)]
        g = strong_product(factors).graph
        assert is_thin(g)
        assert cartesian_skeleton(g).removed, factors


def _refuse(*args, **kwargs):
    raise AssertionError("a strong-prime input reached a stage after the skeleton")


# Bidirected hypercubes are triangle-free, so strong-prime, while their
# skeletons split into k Cartesian factors; c3 is a prime of the n <= 4 corpus.
EMPTY_LEDGER_PRIMES = [bidirected_cube(k) for k in (3, 4, 5, 6)] + [c3()]


@pytest.mark.parametrize("g", EMPTY_LEDGER_PRIMES, ids=["Q3", "Q4", "Q5", "Q6", "c3"])
def test_empty_ledger_skips_cartesian_and_grouping(monkeypatch, g):
    assert cartesian_skeleton(g).removed == ()
    monkeypatch.setattr(strong_pfd_mod, "cartesian_pfd", _refuse)
    monkeypatch.setattr(strong_pfd_mod, "verify_strong_grouping", _refuse)
    assert _is_itself(g, strong_pfd(g))
    assert _is_itself(g, strong_pfd_thin(g))


def test_unchanged_skeleton_is_the_input():
    g = bidirected_cube(4)
    assert cartesian_skeleton(g).skeleton is g


def test_one_group_returns_the_input(monkeypatch):
    # c4's ledger is empty, so a stand-in entry sends it through the Cartesian
    # stage and the grouping, which rejects both of its skeleton factors.  Its
    # skeleton is an equal copy, since the input itself means an empty ledger.
    # c4 is triangle-free, so strong_pfd's triangle exit is switched off too.
    g = c4_bidirected()
    monkeypatch.setattr(strong_pfd_mod, "_edge_in_no_triangle", lambda h: False)

    def with_ledger(h):
        return SkeletonResult(Digraph(h.n, h.arcs), ((h.arcs[0], DispensabilityWitness("D1")),))

    monkeypatch.setattr(strong_pfd_mod, "cartesian_skeleton", with_ledger)
    verify, tried = strong_pfd_mod.verify_strong_grouping, []

    def counted_verify(*args):
        tried.append(verify(*args))
        return tried[-1]

    monkeypatch.setattr(strong_pfd_mod, "verify_strong_grouping", counted_verify)
    for factorize in (strong_pfd_thin, strong_pfd):
        tried.clear()
        assert _is_itself(g, factorize(g))
        assert tried == [None, None]


def test_transitive_triangle_is_one_group():
    # A thin prime whose ledger is not empty: one skeleton factor, one group.
    g = Digraph(3, [(1, 0), (2, 0), (2, 1)])
    assert cartesian_skeleton(g).removed
    assert _is_itself(g, strong_pfd_thin(g))
    assert _is_itself(g, strong_pfd(g))


def test_non_thin_prime_returns_the_input(monkeypatch):
    # One group over the quotient and no K_p: the exit comes before the lift.
    # A composite non-thin input is lifted to coordinates alone and its
    # factors are read off the input: no product, blow-up or complete graph
    # is built on either path.
    prime = blowup(strong_product([p2(), p2()]).graph, [1, 2, 2, 2])
    a, b = blowup(p2(), [1, 2]), blowup(p2(), [1, 3])
    composites = [
        (strong_product([p2(), c3(), k2()]).graph, [p2(), c3(), k2()]),
        (strong_product([a, b]).graph, [a, b]),
        (strong_product([prime, c3()]).graph, [prime, c3()]),
        (strong_product([a, complete_digraph(6)]).graph, [a, k2(), complete_digraph(3)]),
    ]
    assert not any(is_thin(g) for g in [prime] + [g for g, _ in composites])
    calls = {"strong_product": 0, "blowup": 0, "complete_digraph": 0}
    for module in (products_mod, relations_mod, digraph_mod, strong_pfd_mod):
        for name in calls:
            if not hasattr(module, name):
                continue
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    assert _is_itself(prime, strong_pfd(prime))
    for g, factors in composites:
        f = strong_pfd(g)
        assert factor_forms(f.factors) == factor_forms(factors)
        assert is_strong_product(g, f)
    assert calls == {"strong_product": 0, "blowup": 0, "complete_digraph": 0}


def test_cli_factor_prints_a_prime_as_itself(tmp_path, capsys):
    g = c4_bidirected()
    path = tmp_path / "g.txt"
    path.write_text(serialize_edge_list(g), encoding="utf-8")
    assert main(["factor", str(path)]) == 0
    count, factor, coords = capsys.readouterr().out.split("---\n")
    assert count == "1\n"
    assert parse_edge_list(factor) == g
    assert coords == "".join(f"{v} {v}\n" for v in range(g.n))
