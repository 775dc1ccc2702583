#!/usr/bin/env python3
"""Print the outputs of strong_pfd, cartesian_pfd and the skeleton's removal
ledger over a fixed seeded corpus, one line per input.

The corpus is every connected digraph on at most 4 vertices, seeded random
connected digraphs, and relabelled strong products of seeded primes, half of
them times K2.  Each line holds the input's label and, for each of the three
calls, the repr of its result or the type and message of the exception it
raised.  Two trees, or one tree under `python` and `python -O`, give the same
outputs exactly when the printed text is identical:

    PYTHONPATH=src python scripts/output_digest.py > a.txt
    PYTHONPATH=src python -O scripts/output_digest.py > b.txt
    cmp a.txt b.txt
"""

from digraph_pfd import (
    SplitMix64,
    cartesian_pfd,
    cartesian_skeleton,
    complete_digraph,
    enumerate_connected_digraphs,
    random_connected_digraph,
    random_prime_digraph,
    strong_pfd,
    strong_product,
)

RANDOM_GRAPHS = 300
PRODUCTS = 200


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
            sep="\t",
        )


if __name__ == "__main__":
    main()
