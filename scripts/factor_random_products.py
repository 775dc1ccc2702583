#!/usr/bin/env python3
"""Round-trip experiment: build seeded strong products of certified primes,
relabel them, factor them back, and report recovery statistics.  Exits 1
when any instance factors to other primes than it was built from."""

import argparse
import sys
import time

from digraph_pfd import (
    SplitMix64,
    canonical_form,
    random_prime_digraph,
    strong_pfd,
    strong_product,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-factor-size", type=int, default=6)
    args = parser.parse_args()

    recovered = 0
    total_time = 0.0
    largest = 0
    for i in range(args.instances):
        rng = SplitMix64(args.seed * 1_000_003 + i)
        count = 2 + rng.below(2)
        factors = [
            random_prime_digraph((2, args.max_factor_size), rng.next64())
            for _ in range(count)
        ]
        g = strong_product(factors).graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.relabel(perm)
        largest = max(largest, g.n)

        start = time.perf_counter()
        result = strong_pfd(g)
        total_time += time.perf_counter() - start

        want = sorted(canonical_form(f) for f in factors)
        got = sorted(canonical_form(f) for f in result.factors)
        recovered += got == want
        status = "ok" if got == want else "MISMATCH"
        print(
            f"[{i:>3}] n={g.n:>3} arcs={g.arc_count:>5} "
            f"factors={'x'.join(str(f.n) for f in factors):<8} {status}"
        )

    print(
        f"\nrecovered {recovered}/{args.instances}"
        f" (largest instance {largest} vertices,"
        f" total factoring time {total_time:.2f}s)"
    )
    if recovered != args.instances:
        sys.exit(1)


if __name__ == "__main__":
    main()
