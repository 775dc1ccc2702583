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
hub has every other vertex as its neighbour, then on K_{2,n} oriented
hub 0 -> leaf -> hub 1, with its Theta(n^2) squares, on that graph times K2
under the Cartesian product, on a seeded connected random digraph with
each ordered pair an arc with probability 0.1, on relabelled Möbius
ladders (a cycle on n vertices and the rungs i - (i + n/2), bidirected) and
on relabelled Möbius ladders on 8 vertices times bidirected paths.  Every
input pays one breadth-first search from a vertex of least degree.  A path
or a star is a tree: its edges at that root lie on no 4-cycle, so the
search's star test proves it Cartesian-prime, and those rows time that
exit.  Every edge of a ladder lies on a square, so the ladder rows time the
placement of the search's proposal on long sparse inputs.  K_{2,n} and the
random digraph are proved prime by the proposal, and K_{2,n} times K2 is
placed from it, so none of them lists its squares.  A Möbius ladder is a
product at every square but twisted: the certificate refuses the proposal
and the square closure, whose classes are finer than the factors, and the
closure's classes are grouped into factors, so those rows time the closure
and its grouping.  Each row gives the best wall time of --repeats calls
and the tracemalloc peak of one more call, counting only that call's
allocations.

The third table times strong_pfd the same way on bidirected hypercubes Q_k
on relabelled strong products of a directed path on 2000 vertices with
K3 or with the directed path P3, on relabelled out-stars times P2, on
the random digraphs above, which are strong-prime, and on a relabelled
twisted strong torus: the grid C40 x C50 with its last column joined to
its first one row on, bidirected, with both diagonals of each square.  The
cubes are triangle-free, so strong-prime: strong_pfd returns each one as
its own factor at its first edge in no triangle, before any neighbourhood
mask or skeleton, so those rows time that exit.
The product with K3 is non-thin: strong_pfd factors its quotient, the path,
and lifts the coordinates back through the neighbourhood classes.  The
skeleton of a star times P2 is the star times P2 under the Cartesian
product, whose two hubs the Cartesian stage must handle in linear time.
The skeleton of the twisted strong torus is the twisted torus, which takes
the closure and its grouping.

Every timed call is also checked: the skeleton of an arc power is the power
itself, cartesian_pfd returns a path or a star as its own one factor, a
ladder as a directed path and K2, Q_k as k single arcs, K_{2,n}, the
random digraph and a Möbius ladder as their own one factor, K_{2,n} times
K2 as K_{2,n} and K2, and the Möbius ladder on 8 vertices times a path as
those two, strong_pfd returns a bidirected Q_k, the random digraph and the
twisted strong torus as their own one factor, the factors of the path
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
    is_isomorphic,
    strong_pfd,
    strong_product,
)

PFD_PATHS = (5000, 20000)
PFD_CUBES = range(9, 13)
STRONG_CUBES = range(9, 12)
STRONG_PATH = 2000
HUBS = (2000, 8000)
K2N = (500, 1000)
K2N_K2 = (250, 500)
RANDOM = (200, 400)
MOBIUS = (2000, 8000)
MOBIUS_PATHS = (250, 1000)
TWISTED = (40, 50, 1)
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


def oriented_k2n(n: int) -> Digraph:
    """K_{2,n} oriented hub 0 -> leaf -> hub 1, the leaves 2..n+1."""
    leaves = range(2, n + 2)
    return Digraph(n + 2, [(0, v) for v in leaves] + [(v, 1) for v in leaves])


def sparse_random(n: int) -> Digraph:
    """A connected digraph on n vertices, each ordered pair an arc with
    probability 0.1, drawn from random.Random(n) until connected."""
    rng = random.Random(n)
    while True:
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.1]
        g = Digraph(n, arcs)
        if g.is_connected():
            return g


def bidirected(n: int, edges) -> Digraph:
    return Digraph(n, [arc for u, v in edges for arc in ((u, v), (v, u))])


def mobius_ladder(n: int) -> Digraph:
    """The cycle on n vertices and the rungs i - (i + n/2), bidirected."""
    k = n // 2
    return bidirected(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + k) for i in range(k)])


def bidirected_path(n: int) -> Digraph:
    return bidirected(n, [(v, v + 1) for v in range(n - 1)])


def twisted_strong_torus(a: int, b: int, t: int) -> Digraph:
    """Vertex (i, j), i mod a and j < b, joins (i + 1, j) and its step, which
    is (i, j + 1), or (i + t, 0) for j = b - 1; both diagonals of each square
    (i, j), (i + 1, j) and their steps are edges too.  All bidirected."""

    def at(i, j):
        return i % a * b + j

    def step(i, j):
        return (i, j + 1) if j < b - 1 else (i + t, 0)

    edges = []
    for i in range(a):
        for j in range(b):
            i2, j2 = step(i, j)
            edges += [(at(i, j), at(i + 1, j)), (at(i, j), at(i2, j2))]
            edges += [(at(i, j), at(i2 + 1, j2)), (at(i + 1, j), at(i2, j2))]
    return bidirected(a * b, edges)


def is_out_star(g: Digraph) -> bool:
    """One vertex has an arc to every other vertex, and there is no other arc."""
    return g.arc_count == g.n - 1 and max(map(len, g.out_adj)) == g.n - 1


def is_directed_path(g: Digraph, n: int) -> bool:
    """A connected digraph on n vertices with n - 1 arcs and no in- or
    out-degree above 1 is the directed path P_n."""
    degrees = [*map(len, g.out_adj), *map(len, g.in_adj)]
    return g.n == n and g.arc_count == n - 1 and g.is_connected() and max(degrees) <= 1


def is_bidirected_path(g: Digraph) -> bool:
    """A connected symmetric digraph with n - 1 edges and no degree above 2
    is the bidirected path."""
    symmetric = all((v, u) in g.arc_set for u, v in g.arcs)
    degrees = map(len, g.out_adj)
    return symmetric and g.arc_count == 2 * (g.n - 1) and g.is_connected() and max(degrees) <= 2


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
    rows += [(f"K2,{g.n - 2}", g, lambda fs, g=g: fs == (g,)) for g in map(oriented_k2n, K2N)]
    rows += [
        (
            f"K2,{n}xK2",
            cartesian_product([oriented_k2n(n), K2]).graph,
            lambda fs, n=n: fs in ((oriented_k2n(n), K2), (K2, oriented_k2n(n))),
        )
        for n in K2N_K2
    ]
    randoms = [(f"random{n}", sparse_random(n)) for n in RANDOM]
    rows += [(label, g, lambda fs, g=g: fs == (g,)) for label, g in randoms]
    ladders = [relabelled(mobius_ladder(n)) for n in MOBIUS]
    rows += [(f"M{g.n}", g, lambda fs, g=g: fs == (g,)) for g in ladders]
    m8 = mobius_ladder(8)
    rows += [
        (
            f"M8xP{n}",
            relabelled(cartesian_product([m8, bidirected_path(n)]).graph),
            lambda fs, n=n: sorted(f.n for f in fs) == [8, n]
            and is_isomorphic(min(fs, key=lambda f: f.n), m8)
            and is_bidirected_path(max(fs, key=lambda f: f.n)),
        )
        for n in MOBIUS_PATHS
    ]
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
    strong_rows += [(label, g, lambda fs, g=g: fs == (g,)) for label, g in randoms]
    torus = relabelled(twisted_strong_torus(*TWISTED))
    strong_rows += [("twisted40x50", torus, lambda fs: fs == (torus,))]
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
