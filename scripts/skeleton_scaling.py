#!/usr/bin/env python3
"""Measure skeleton and Cartesian PFD time on large sparse digraphs.

The first table times skeleton construction on Cartesian powers of the
single arc.  The family has |V| = 2^k vertices, k * 2^(k-1) arcs and total
degree k at every vertex, so the per-arc work should stay near-linear in |E|
with a polylog drift from the growing degree.  It prints one row per power
and the ratio of consecutive times next to the ratio of consecutive arc
counts.

The second table times cartesian_pfd on directed paths with seeded
relabelled vertices, on relabelled directed paths times K2 under the
Cartesian product (ladders), on directed hypercubes Q_k (Cartesian powers
of the single arc), and on relabelled out-stars and bidirected stars, whose
hub has every other vertex as its neighbour.  A path or a star is a tree:
its edge at vertex 0 lies on no 4-cycle, which proves it Cartesian-prime,
so those rows time that exit and not the closure.  Every edge of a ladder
lies on a square, so the ladder rows time the closure and the placement on
long sparse inputs.  Each row gives the best wall time of --repeats calls
and the tracemalloc peak of one more call, counting only that call's
allocations.

The third table times strong_pfd the same way on bidirected hypercubes Q_k
on relabelled strong products of a directed path on 2000 vertices with
K3 or with the directed path P3, and on relabelled out-stars times P2.  The
cubes are triangle-free, so strong-prime: strong_pfd returns each one as
its own factor at its first edge in no triangle, before any neighbourhood
mask or skeleton, so those rows time that exit.
The product with K3 is non-thin: strong_pfd factors its quotient, the path,
and lifts the coordinates back through the neighbourhood classes.  The
skeleton of a star times P2 is the star times P2 under the Cartesian
product, whose two hubs the Cartesian stage must handle in linear time.

Every timed call is also checked: the skeleton of an arc power is the power
itself, cartesian_pfd returns a path or a star as its own one factor, a
ladder as a directed path and K2, and Q_k as k single arcs, strong_pfd
returns a bidirected Q_k as its own one factor, the factors of the path
products are a directed path on 2000 vertices and K3 (or P3), and those of
a star times P2 are the star and P2.  A mismatch is reported on stderr and
the script exits with status 1.

    PYTHONPATH=src python scripts/skeleton_scaling.py --min-k 6 --max-k 12
"""

import argparse
import random
import sys
import time
import tracemalloc

from digraph_pfd import (
    Digraph,
    cartesian_pfd,
    cartesian_product,
    cartesian_skeleton,
    complete_digraph,
    strong_pfd,
    strong_product,
)

PFD_PATHS = (5000, 20000)
PFD_CUBES = range(9, 13)
STRONG_CUBES = range(9, 12)
STRONG_PATH = 2000
HUBS = (2000, 8000)
ARC = Digraph(2, [(0, 1)])
K2 = complete_digraph(2)
K3 = complete_digraph(3)


def arc_power(k: int) -> Digraph:
    return cartesian_product([ARC] * k).graph


def measure(k: int, repeats: int) -> tuple[int, int, float, bool]:
    """Size, arc count, best skeleton time of the k-th arc power, and
    whether its skeleton is the power itself."""
    g = arc_power(k)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        same = cartesian_skeleton(g).skeleton is g
        best = min(best, time.perf_counter() - start)
    return g.n, g.arc_count, best, same


def relabelled(g: Digraph) -> Digraph:
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    return g.relabel(perm)


def directed_path(n: int) -> Digraph:
    return Digraph(n, [(v, v + 1) for v in range(n - 1)])


def relabelled_path(n: int) -> Digraph:
    return relabelled(directed_path(n))


def relabelled_ladder(n: int) -> Digraph:
    """The directed path on n vertices times K2 under the Cartesian product."""
    return relabelled(cartesian_product([directed_path(n), K2]).graph)


def star(n: int, both: bool = False) -> Digraph:
    """The star on n vertices, its arcs out of hub 0, or both ways."""
    out = [(0, v) for v in range(1, n)]
    return Digraph(n, out + [(v, 0) for v in range(1, n)] if both else out)


def is_out_star(g: Digraph) -> bool:
    """One vertex has an arc to every other vertex, and there is no other arc."""
    return g.arc_count == g.n - 1 and max(map(len, g.out_adj)) == g.n - 1


def is_directed_path(g: Digraph, n: int) -> bool:
    """A connected digraph on n vertices with n - 1 arcs and no in- or
    out-degree above 1 is the directed path P_n."""
    degrees = [*map(len, g.out_adj), *map(len, g.in_adj)]
    return g.n == n and g.arc_count == n - 1 and g.is_connected() and max(degrees) <= 1


def relabelled_path_product(small: Digraph) -> Digraph:
    return relabelled(strong_product([relabelled_path(STRONG_PATH), small]).graph)


def bidirected_cube(k: int) -> Digraph:
    n = 1 << k
    return Digraph(n, [(v, v ^ (1 << i)) for v in range(n) for i in range(k)])


def time_and_peak(fn, g: Digraph, repeats: int):
    """The result of fn(g), the best wall time in seconds of `repeats`
    calls and the tracemalloc peak in MB of one more call."""
    seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(g)
        seconds = min(seconds, time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, seconds, peak / 2**20


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--min-k", type=int, default=6)
    parser.add_argument("--max-k", type=int, default=12)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    mismatches = []

    print(f"{'k':>3} {'|V|':>6} {'|E|':>8} {'time':>10} {'t-ratio':>8} {'E-ratio':>8}")
    prev = None
    for k in range(args.min_k, args.max_k + 1):
        n, m, t, same = measure(k, args.repeats)
        if not same:
            mismatches.append(f"cartesian_skeleton of the arc power k={k} is not the power")
        if prev is None:
            print(f"{k:>3} {n:>6} {m:>8} {t * 1e3:>8.1f}ms {'':>8} {'':>8}")
        else:
            print(
                f"{k:>3} {n:>6} {m:>8} {t * 1e3:>8.1f}ms"
                f" {t / prev[1]:>8.2f} {m / prev[0]:>8.2f}"
            )
        prev = (m, t)

    # (label, input, whether the call returned the right factors)
    paths = [relabelled_path(n) for n in PFD_PATHS]
    rows = [(f"P{g.n}", g, lambda fs, g=g: fs == (g,)) for g in paths]
    rows += [
        (
            f"P{n // 2}xK2",
            relabelled_ladder(n // 2),
            lambda fs, n=n: len(fs) == 2
            and K2 in fs
            and any(is_directed_path(f, n // 2) for f in fs),
        )
        for n in PFD_PATHS
    ]
    rows += [(f"Q{k}", arc_power(k), lambda fs, k=k: fs == (ARC,) * k) for k in PFD_CUBES]
    stars = [(kind, relabelled(star(n, kind == "bi"))) for n in HUBS for kind in ("out", "bi")]
    rows += [(f"{kind}star{g.n}", g, lambda fs, g=g: fs == (g,)) for kind, g in stars]
    cubes = [bidirected_cube(k) for k in STRONG_CUBES]
    strong_rows = [(f"Q{k}", g, lambda fs, g=g: fs == (g,)) for k, g in zip(STRONG_CUBES, cubes)]
    p3 = Digraph(3, [(0, 1), (1, 2)])
    strong_rows += [
        (
            f"P{STRONG_PATH}xK3",
            relabelled_path_product(K3),
            lambda fs: len(fs) == 2 and fs[1] == K3 and is_directed_path(fs[0], STRONG_PATH),
        ),
        (
            f"P{STRONG_PATH}xP3",
            relabelled_path_product(p3),
            lambda fs: sorted(f.n for f in fs) == [3, STRONG_PATH]
            and all(is_directed_path(f, f.n) for f in fs),
        ),
    ]
    strong_rows += [
        (
            f"star{n // 2}xP2",
            relabelled(strong_product([star(n // 2), ARC]).graph),
            lambda fs, n=n: sorted(f.n for f in fs) == [2, n // 2] and all(map(is_out_star, fs)),
        )
        for n in HUBS
    ]
    for fn, table in ((cartesian_pfd, rows), (strong_pfd, strong_rows)):
        print()
        print(f"{fn.__name__:<13} {'|V|':>6} {'|E|':>8} {'time':>10} {'peak':>10}")
        for label, g, ok in table:
            f, t, peak = time_and_peak(fn, g, args.repeats)
            print(f"{label:<13} {g.n:>6} {g.arc_count:>8} {t * 1e3:>8.1f}ms {peak:>8.1f}MB")
            if not ok(f.factors):
                mismatches.append(f"{fn.__name__} of {label}: {len(f.factors)} unexpected factors")
    for line in mismatches:
        print(f"error: {line}", file=sys.stderr)
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    main()
