#!/usr/bin/env python3
"""Print the outputs of strong_pfd, cartesian_pfd, the skeleton's removal
ledger, direction_conflicts, the class partition S, the quotient by it and
the brute-force strong factorizer over a fixed seeded corpus, one line per
input.

The corpus is every connected digraph on at most 4 vertices, seeded random
connected digraphs, relabelled strong products of seeded primes, half of
them times K2, and hub shapes with a relabelled copy of each: out-, in- and
bidirected stars, brooms (a directed path with a star at its end) and
stars times P2 under the strong product, at most 40 vertices each.
direction_conflicts checks the input against the finest colouring of its
shadow, from undirected_cartesian_pfd.  brute_force_strong_pfd runs at its
default limit, so inputs above 10 vertices print its SizeLimitExceededError.
Each line holds the input's label and, for each of the seven calls, the repr
of its result or the type and message of the exception it raised.  Two trees,
or one tree under `python` and `python -O`, give the same outputs exactly
when the printed text is identical:

    PYTHONPATH=src python scripts/output_digest.py > a.txt
    PYTHONPATH=src python -O scripts/output_digest.py > b.txt
    cmp a.txt b.txt
"""

from digraph_pfd import (
    Digraph,
    SplitMix64,
    brute_force_strong_pfd,
    cartesian_pfd,
    cartesian_skeleton,
    complete_digraph,
    direction_conflicts,
    enumerate_connected_digraphs,
    quotient,
    random_connected_digraph,
    random_prime_digraph,
    s_partition,
    strong_pfd,
    strong_product,
    undirected_cartesian_pfd,
)

RANDOM_GRAPHS = 300
PRODUCTS = 200
HUB_SIZES = (3, 6, 13, 20)


def star(n: int, kind: str) -> Digraph:
    """Hub 0 and n - 1 leaves, with arcs out of the hub, into it, or both."""
    out = [(0, v) for v in range(1, n)]
    into = [(v, 0) for v in range(1, n)]
    return Digraph(n, {"out": out, "in": into, "both": out + into}[kind])


def broom(n: int) -> Digraph:
    """A directed path 0 -> ... -> n - 1 whose end is the hub of a star on
    n more vertices, its arcs alternately out of the hub and into it."""
    path = [(v, v + 1) for v in range(n - 1)]
    bristles = [(n - 1, w) if w % 2 else (w, n - 1) for w in range(n, 2 * n)]
    return Digraph(2 * n, path + bristles)


def hubs():
    p2 = Digraph(2, [(0, 1)])
    for n in HUB_SIZES:
        for kind in ("out", "in", "both"):
            yield f"{kind}star{n}", star(2 * n, kind)
            yield f"{kind}star{n}xP2", strong_product([star(n, kind), p2]).graph
        yield f"broom{n}", broom(n)


def corpus():
    for n in range(1, 5):
        for i, g in enumerate(enumerate_connected_digraphs(n)):
            yield f"n{n}#{i}", g
    for seed in range(RANDOM_GRAPHS):
        yield f"random#{seed}", random_connected_digraph((2, 7), seed)
    for i in range(PRODUCTS):
        rng = SplitMix64(10_000 + i)
        factors = [random_prime_digraph((2, 4), rng.next64()) for _ in range(2 + rng.below(2))]
        if i % 2:
            factors.append(complete_digraph(2))
        g = strong_product(factors).graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield f"product#{i}", g.relabel(perm)
    for i, (label, g) in enumerate(hubs()):
        yield label, g
        perm = list(range(g.n))
        SplitMix64(20_000 + i).shuffle(perm)
        yield f"{label}#relabelled", g.relabel(perm)


def outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # every failure is part of the output
        return f"{type(exc).__name__}: {exc}"


def main() -> None:
    for label, g in corpus():
        print(
            label,
            outcome(lambda: strong_pfd(g)),
            outcome(lambda: cartesian_pfd(g)),
            outcome(lambda: cartesian_skeleton(g).removed),
            outcome(lambda: direction_conflicts(g, undirected_cartesian_pfd(g))),
            outcome(lambda: s_partition(g)),
            outcome(lambda: quotient(g)),
            outcome(lambda: brute_force_strong_pfd(g)),
            sep="\t",
        )


if __name__ == "__main__":
    main()
