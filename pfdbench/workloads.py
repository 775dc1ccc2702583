"""Seeded workload corpora.

Each workload is a list of slots.  A slot fixes the shape of one input (the
factor sizes, arc counts and thinness of its generating primes, or the size
of a path, cycle or cube); the seed picks the primes of that shape and the
vertex permutation that relabels the product.  Fixing the shape keeps every
slot's cost alike from seed to seed, so the corpus medians are steady.

Every slot builds ``VARIANTS[workload] * copies`` distinct inputs of its
shape, so that one odd draw moves the corpus figures less, and every input is
called once per round.  Every workload has nine cheaper slots and a costliest
slot with two copies, so the 90th percentile falls inside the costliest
slot's samples, and the median inside a run of slots of one shape or of
like cost, rather than on the edge between two costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

import checks

# (vertex count, arc count) of the generating primes; the arc count fixes
# the product's arc count, as |A(G x H)| + |V| multiplies over the factors.
PRIME_ARCS = {3: 4, 4: 6}


@dataclass
class Instance:
    """One input of the corpus together with what its factorization must be."""

    label: str
    kind: str  # "strong" or "cartesian"
    graph: object
    expected: list[checks.Matcher]
    input_ok: bool = True  # a property the input itself must have

    @property
    def arcs(self) -> int:
        return len(self.graph.arcs)


@dataclass(frozen=True)
class Slot:
    label: str
    build: Callable  # (lib, rng) -> Instance
    copies: int = 1


def _relabel(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _prime(lib, rng: random.Random, n: int, thin: bool):
    """Oracle-certified prime on n vertices with PRIME_ARCS[n] arcs and the
    requested thinness; redrawn with fresh seeds until one fits."""
    while True:
        g = lib.oracle.random_prime_digraph((n, n), rng.getrandbits(62))
        if len(g.arcs) == PRIME_ARCS[n] and checks.thin(g) == thin:
            return g


def _prime_factors(value: int) -> list[int]:
    out, d = [], 2
    while d * d <= value:
        while value % d == 0:
            out.append(d)
            value //= d
        d += 1
    return out + [value] if value > 1 else out


def strong_of_primes(
    sizes: tuple[int, ...], non_thin: int = 0, complete_l: int = 1, copies: int = 1
) -> Slot:
    """Strong product of certified primes of the given sizes (the first
    ``non_thin`` of them non-thin, marked * in the label) times K_l."""
    label = "x".join(f"{s}{'*' if i < non_thin else ''}" for i, s in enumerate(sizes))
    if complete_l > 1:
        label += f"xK{complete_l}"

    def build(lib, rng: random.Random) -> Instance:
        primes = [_prime(lib, rng, s, i >= non_thin) for i, s in enumerate(sizes)]
        factors = list(primes)
        if complete_l > 1:
            factors.append(lib.digraph.complete_digraph(complete_l))
        g = _relabel(lib.products.strong_product(factors).graph, rng)
        expected = [checks.isomorphic_to(p) for p in primes]
        expected += [checks.complete(p) for p in _prime_factors(complete_l)]
        return Instance(label, "strong", g, expected)

    return Slot(label, build, copies)


def bidirected_cube(k: int, copies: int = 1) -> Slot:
    """Q_k with every edge in both directions: triangle-free, so strong-prime."""

    def build(lib, rng: random.Random) -> Instance:
        arc = lib.digraph.Digraph(2, [(0, 1)])
        cube = lib.products.cartesian_product([arc] * k).graph
        g = lib.digraph.Digraph(cube.n, list(cube.arcs) + [(v, u) for u, v in cube.arcs])
        g = _relabel(g, rng)
        return Instance(
            f"Q{k}", "strong", g, [checks.same_size(g.n, len(g.arcs))],
            input_ok=checks.triangle_free(g),
        )

    return Slot(f"Q{k}", build, copies)


def directed_path(n: int, copies: int = 1) -> Slot:
    def build(lib, rng: random.Random) -> Instance:
        g = _relabel(lib.digraph.Digraph(n, [(i, i + 1) for i in range(n - 1)]), rng)
        return Instance(f"P{n}", "cartesian", g, [checks.directed_path(n)])

    return Slot(f"P{n}", build, copies)


def cycle_square(m: int, copies: int = 1) -> Slot:
    def build(lib, rng: random.Random) -> Instance:
        cycle = lib.digraph.Digraph(m, [(i, (i + 1) % m) for i in range(m)])
        g = _relabel(lib.products.cartesian_product([cycle, cycle]).graph, rng)
        return Instance(f"C{m}^2", "cartesian", g, [checks.directed_cycle(m)] * 2)

    return Slot(f"C{m}^2", build, copies)


def arc_power(k: int, copies: int = 1) -> Slot:
    def build(lib, rng: random.Random) -> Instance:
        arc = lib.digraph.Digraph(2, [(0, 1)])
        g = _relabel(lib.products.cartesian_product([arc] * k).graph, rng)
        return Instance(f"K2^{k}", "cartesian", g, [checks.single_arc()] * k)

    return Slot(f"K2^{k}", build, copies)


# Distinct inputs per slot.  Products of random primes of one shape differ in
# cost by about 7% from draw to draw, so those workloads need the most.
VARIANTS = {"strong_dense": 6, "strong_prime_sparse": 1, "cartesian_sparse": 2, "strong_blowup": 6}

WORKLOADS: dict[str, list[Slot]] = {
    # strong_pfd on dense products of 3-4 primes; 4 of 10 slots are non-thin.
    "strong_dense": [
        strong_of_primes((3, 3, 3), non_thin=1),
        strong_of_primes((3, 3, 4), non_thin=1),
        strong_of_primes((3, 4, 4), non_thin=1),
        strong_of_primes((3, 3, 4)),
        strong_of_primes((3, 4, 4)),
        strong_of_primes((3, 4, 4)),
        strong_of_primes((3, 4, 4)),
        strong_of_primes((4, 4, 4)),
        strong_of_primes((3, 3, 3, 3), non_thin=1),
        strong_of_primes((3, 3, 3, 3), copies=2),
    ],
    # strong_pfd on strong-prime bidirected hypercubes.
    "strong_prime_sparse": [
        *[bidirected_cube(k) for k in (5, 5, 5, 6, 6, 6, 7, 7, 7)],
        bidirected_cube(8, copies=2),
    ],
    # cartesian_pfd on paths, squares of cycles and powers of the arc.  Paths
    # stop at 800 vertices: the time of P1200 grew 1.5-1.6x from the host's
    # fast to its slow state, more than the reference kernel's 1.45x, so its
    # calibrated time did not repeat.
    "cartesian_sparse": [
        cycle_square(8),
        arc_power(6),
        arc_power(7),
        directed_path(400),
        cycle_square(16),
        cycle_square(16),
        cycle_square(16),
        arc_power(8),
        directed_path(800),
        arc_power(9, copies=2),
    ],
    # strong_pfd on small thin quotients blown up by K_l.
    "strong_blowup": [
        strong_of_primes((3, 3), non_thin=1, complete_l=3),
        strong_of_primes((3, 3), complete_l=8),
        strong_of_primes((3, 4), non_thin=1, complete_l=6),
        strong_of_primes((3, 3), complete_l=7),
        strong_of_primes((4, 4), complete_l=4),
        strong_of_primes((4, 4), non_thin=1, complete_l=5),
        strong_of_primes((3, 3, 3), non_thin=1, complete_l=2),
        strong_of_primes((3, 3, 3), complete_l=5),
        strong_of_primes((3, 3, 4), complete_l=3),
        strong_of_primes((3, 3, 4), non_thin=1, complete_l=6, copies=2),
    ],
}


def build_corpus(lib, workload: str, seed: int) -> Iterator[Instance]:
    """Build every input of the workload from the seed, one per step; the
    same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    for slot in WORKLOADS[workload]:
        for _ in range(VARIANTS[workload] * slot.copies):
            yield slot.build(lib, rng)
