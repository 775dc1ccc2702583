"""Brute-force ground truth and seeded graph generators.

Everything here exists to check the real algorithms, so it is deliberately
simple.  The factorizer places vertices on a grid exhaustively (with
degree-product pruning), deducing both factors' arcs into one store; a full
placement is accepted only if the product of those factors is the input,
pair by pair.  The enumerator walks all arc-state vectors on up to four
vertices.  The random generators draw from a splitmix64 stream so fixtures
are byte-identical across platforms and Python versions.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque

from .canon import canonical_form
from .digraph import Digraph
from .errors import (
    NotConnectedError,
    SizeLimitExceededError,
    TimeBudgetExceededError,
    VertexOutOfRangeError,
)
from .factorization import Factorization
from .relations import is_thin

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 with the reference constants; stable on every platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in 0..n-1 (rejection sampling, no modulo bias)."""
        if type(n) is not int or n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % n
        while True:
            u = self.next64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


MAX_VERTICES = 10
TIME_BUDGET_S = 120.0


class _Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1
        if self.ticks % 1024 == 0 and time.monotonic() > self.deadline:
            raise TimeBudgetExceededError("oracle search exceeded its time budget")


def _bfs_order(g: Digraph) -> list[int]:
    order = [0]
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in sorted(set(g.out_adj[v]) | set(g.in_adj[v])):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def _split_strong(g: Digraph, a: int, b: int, budget: _Budget):
    """Search for factors A, B with |A|=a, |B|=b and g = A boxtimes B.

    Returns ((A, B), cells), where cells[v] is v's (row, column), or None.
    Arc variables of A and B are deduced while vertices are placed in BFS
    order; rows and columns are introduced in canonical order, which is
    enough because factors are only needed up to isomorphism.
    """
    n = g.n
    closed_degrees = {len(adj) + 1 for adj in g.out_adj + g.in_adj}
    if not closed_degrees <= {s * t for s in range(1, a + 1) for t in range(1, b + 1)}:
        return None

    order = _bfs_order(g)
    pos: dict[int, tuple[int, int]] = {}
    grid: set[tuple[int, int]] = set()
    row_count = [0] * a
    col_count = [0] * b
    # known[f, s, t]: whether factor f (0 for A, 1 for B) has the arc s -> t.
    known: dict[tuple[int, int, int], bool] = {}
    # nand[key]: the other factor's variables that cannot hold with key.  They
    # only prune: the check of a full placement decides.
    nand: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}

    def deduce(key, val, trail) -> bool:
        was = known.get(key)
        if was is not None:
            return was == val
        known[key] = val
        trail.append(key)
        return not val or all(deduce(other, False, trail) for other in nand.get(key, ()))

    def exclude(ka, kb, trail) -> bool:
        va, vb = known.get(ka), known.get(kb)
        if va is False or vb is False:
            return True
        if va:
            return deduce(kb, False, trail)
        if vb:
            return deduce(ka, False, trail)
        nand.setdefault(ka, []).append(kb)
        nand.setdefault(kb, []).append(ka)
        trail.append((ka, kb))
        return True

    def try_place(v, x, y, trail) -> bool:
        for u, (ux, uy) in pos.items():
            for arc, ka, kb in (
                ((u, v) in g.arc_set, (0, ux, x), (1, uy, y)),
                ((v, u) in g.arc_set, (0, x, ux), (1, y, uy)),
            ):
                if ux == x:
                    ok = deduce(kb, arc, trail)
                elif uy == y:
                    ok = deduce(ka, arc, trail)
                elif arc:
                    ok = deduce(ka, True, trail) and deduce(kb, True, trail)
                else:
                    ok = exclude(ka, kb, trail)
                if not ok:
                    return False
        return True

    def undo(trail) -> None:
        while trail:
            entry = trail.pop()
            if len(entry) == 2:  # a pair excluded by exclude()
                nand[entry[0]].pop()
                nand[entry[1]].pop()
            else:
                del known[entry]

    def place(k: int, rows_used: int, cols_used: int) -> bool:
        budget.tick()
        if k == n:  # every variable is known: accept only if A boxtimes B is g
            return all(
                ((u, w) in g.arc_set)
                == all(s == t or known[f, s, t] for f, s, t in zip((0, 1), pos[u], pos[w]))
                for u, w in itertools.permutations(range(n), 2)
            )
        v = order[k]
        xs = [x for x in range(rows_used) if row_count[x] < b]
        if rows_used < a:
            xs.append(rows_used)
        ys = [y for y in range(cols_used) if col_count[y] < a]
        if cols_used < b:
            ys.append(cols_used)
        for x, y in itertools.product(xs, ys):
            if (x, y) in grid:
                continue
            trail: list = []
            if try_place(v, x, y, trail):
                pos[v] = (x, y)
                grid.add((x, y))
                row_count[x] += 1
                col_count[y] += 1
                if place(
                    k + 1,
                    max(rows_used, x + 1),
                    max(cols_used, y + 1),
                ):
                    return True
                del pos[v]
                grid.remove((x, y))
                row_count[x] -= 1
                col_count[y] -= 1
            undo(trail)
        return False

    if not place(0, 0, 0):
        return None
    factors = tuple(
        Digraph(m, [(s, t) for (f, s, t), arc in known.items() if f == i and arc])
        for i, m in enumerate((a, b))
    )
    return factors, [pos[v] for v in range(n)]


def _factor_recursive(g: Digraph, budget: _Budget) -> Factorization:
    n = g.n
    if n == 1:
        return Factorization((g,), ((0,),))
    for a in range(2, math.isqrt(n) + 1):
        if n % a:
            continue
        found = _split_strong(g, a, n // a, budget)
        if found is None:
            continue
        factors, cells = found
        sub_a, sub_b = (_factor_recursive(f, budget) for f in factors)
        coords = tuple(sub_a.coords[x] + sub_b.coords[y] for x, y in cells)
        return Factorization(sub_a.factors + sub_b.factors, coords)
    return Factorization((g,), tuple((v,) for v in range(n)))


def brute_force_strong_pfd(g: Digraph, max_vertices: int = MAX_VERTICES) -> Factorization:
    """Exhaustive strong-product factorization; ground truth for small graphs."""
    if g.n > max_vertices:
        raise SizeLimitExceededError(
            f"oracle limited to {max_vertices} vertices, got {g.n}"
        )
    if not g.is_connected():
        raise NotConnectedError("oracle factorization requires a connected graph")
    if g.n == 0:
        return Factorization((), ())
    return _factor_recursive(g, _Budget(TIME_BUDGET_S))


def enumerate_connected_digraphs(n: int):
    """All connected digraphs on n vertices, one canonical representative per
    isomorphism class, in enumeration order."""
    if type(n) is not int or n < 1:
        raise VertexOutOfRangeError(f"enumeration needs an int n >= 1, got {n!r}")
    if n > 4:
        raise SizeLimitExceededError("exhaustive enumeration limited to n <= 4")
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for states in itertools.product(range(4), repeat=len(pairs)):
        arcs = []
        for (u, v), state in zip(pairs, states):
            if state & 1:
                arcs.append((u, v))
            if state & 2:
                arcs.append((v, u))
        g = Digraph(n, arcs)
        if not g.is_connected():
            continue
        form = canonical_form(g)
        if form not in seen:
            seen.add(form)
            yield Digraph(form.n, form.arcs)


_MAX_DRAWS = 100_000


def _vertex_range(n_range: tuple[int, int]) -> tuple[int, int]:
    lo, hi = n_range
    if not (type(lo) is type(hi) is int and 0 <= lo <= hi):
        raise VertexOutOfRangeError(f"vertex range {lo!r}..{hi!r} needs ints 0 <= lo <= hi")
    return lo, hi


def _random_digraph(rng: SplitMix64, n: int, symmetric: bool) -> Digraph:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if symmetric:
                if rng.below(2):
                    arcs.append((u, v))
                    arcs.append((v, u))
            else:
                state = rng.below(4)
                if state & 1:
                    arcs.append((u, v))
                if state & 2:
                    arcs.append((v, u))
    return Digraph(n, arcs)


def _rejection_sample(n_range: tuple[int, int], seed: int, symmetric: bool, accept) -> Digraph:
    """First connected draw that accept(g) takes from the seed's stream; each
    draw picks its size in n_range, then its arcs."""
    lo, hi = n_range
    rng = SplitMix64(seed)
    for _ in range(_MAX_DRAWS):
        g = _random_digraph(rng, lo + rng.below(hi - lo + 1), symmetric)
        if g.is_connected() and accept(g):
            return g
    raise TimeBudgetExceededError("rejection sampling failed to produce a graph")


def random_connected_digraph(
    n_range: tuple[int, int], seed: int, *, symmetric: bool = False
) -> Digraph:
    """Seeded rejection sampler for connected digraphs; deterministic per seed."""
    return _rejection_sample(_vertex_range(n_range), seed, symmetric, lambda g: True)


def random_thin_digraph(
    n_range: tuple[int, int], seed: int, *, symmetric: bool = False
) -> Digraph:
    """Connected thin digraph, redrawn until every neighborhood class is
    trivial."""
    return _rejection_sample(_vertex_range(n_range), seed, symmetric, is_thin)


def random_prime_digraph(n_range: tuple[int, int], seed: int) -> Digraph:
    """Connected digraph certified prime by the brute-force factorizer, so of
    at most MAX_VERTICES vertices."""
    lo, hi = _vertex_range(n_range)
    if lo < 2:
        raise VertexOutOfRangeError("prime graphs need at least 2 vertices")
    if hi > MAX_VERTICES:
        raise SizeLimitExceededError(
            f"prime sampler limited to {MAX_VERTICES} vertices, got {hi}"
        )
    return _rejection_sample(
        (lo, hi), seed, False, lambda g: len(brute_force_strong_pfd(g).factors) == 1
    )
