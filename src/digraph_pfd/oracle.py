"""Brute-force ground truth and seeded graph generators.

Everything here exists to check the real algorithms, so it is deliberately
simple: the factorizer searches over coordinate assignments exhaustively
(with degree-product pruning), and the enumerator walks all arc-state vectors
on up to four vertices.  The random generators draw from a splitmix64 stream
so fixtures are byte-identical across platforms and Python versions.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass

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
        if n <= 0:
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


@dataclass(frozen=True)
class OracleConfig:
    max_vertices: int = 10
    time_budget: float = 120.0


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
    """Search for coordinates realizing g as A boxtimes B with |A|=a, |B|=b.

    Returns (row, col) coordinate lists or None.  Arc variables of the two
    candidate factors are deduced incrementally while vertices are placed in
    BFS order; rows and columns are introduced in canonical order, which is
    enough because factors are only needed up to isomorphism.
    """
    n = g.n
    feasible = {s * t for s in range(1, a + 1) for t in range(1, b + 1)}
    for v in range(n):
        if len(g.out_adj[v]) + 1 not in feasible or len(g.in_adj[v]) + 1 not in feasible:
            return None

    order = _bfs_order(g)
    pos: dict[int, tuple[int, int]] = {}
    grid: dict[tuple[int, int], int] = {}
    row_count = [0] * a
    col_count = [0] * b
    arc_a: dict[tuple[int, int], bool] = {}
    arc_b: dict[tuple[int, int], bool] = {}
    pending_a: dict[tuple[int, int], list[tuple[int, int]]] = {}
    pending_b: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def set_arc(arcs, pending_own, other_arcs, pair, val, trail) -> bool:
        known = arcs.get(pair)
        if known is not None:
            return known == val
        arcs[pair] = val
        trail.append((arcs, pair))
        if val:
            for other in pending_own.get(pair, ()):  # NAND partners forced off
                if not set_arc(other_arcs, {}, arcs, other, False, trail):
                    return False
        return True

    def add_nand(pa, pb, trail) -> bool:
        ka, kb = arc_a.get(pa), arc_b.get(pb)
        if ka is False or kb is False:
            return True
        if ka and kb:
            return False
        if ka:
            return set_arc(arc_b, pending_b, arc_a, pb, False, trail)
        if kb:
            return set_arc(arc_a, pending_a, arc_b, pa, False, trail)
        pending_a.setdefault(pa, []).append(pb)
        pending_b.setdefault(pb, []).append(pa)
        trail.append(("nand", pa, pb))
        return True

    def try_place(v, x, y, trail) -> bool:
        for u, (ux, uy) in pos.items():
            fwd = g.has_arc(u, v)
            bwd = g.has_arc(v, u)
            if ux == x:
                if not set_arc(arc_b, pending_b, arc_a, (uy, y), fwd, trail):
                    return False
                if not set_arc(arc_b, pending_b, arc_a, (y, uy), bwd, trail):
                    return False
            elif uy == y:
                if not set_arc(arc_a, pending_a, arc_b, (ux, x), fwd, trail):
                    return False
                if not set_arc(arc_a, pending_a, arc_b, (x, ux), bwd, trail):
                    return False
            else:
                if fwd:
                    if not set_arc(arc_a, pending_a, arc_b, (ux, x), True, trail):
                        return False
                    if not set_arc(arc_b, pending_b, arc_a, (uy, y), True, trail):
                        return False
                elif not add_nand((ux, x), (uy, y), trail):
                    return False
                if bwd:
                    if not set_arc(arc_a, pending_a, arc_b, (x, ux), True, trail):
                        return False
                    if not set_arc(arc_b, pending_b, arc_a, (y, uy), True, trail):
                        return False
                elif not add_nand((x, ux), (y, uy), trail):
                    return False
        return True

    def undo(trail) -> None:
        while trail:
            entry = trail.pop()
            if entry[0] == "nand":
                _, pa, pb = entry
                pending_a[pa].pop()
                pending_b[pb].pop()
            else:
                store, pair = entry
                del store[pair]

    def place(k: int, rows_used: int, cols_used: int) -> bool:
        budget.tick()
        if k == n:
            return True
        v = order[k]
        xs = [x for x in range(rows_used) if row_count[x] < b]
        if rows_used < a:
            xs.append(rows_used)
        ys = [y for y in range(cols_used) if col_count[y] < a]
        if cols_used < b:
            ys.append(cols_used)
        for x in xs:
            for y in ys:
                if (x, y) in grid:
                    continue
                trail: list = []
                if try_place(v, x, y, trail):
                    pos[v] = (x, y)
                    grid[(x, y)] = v
                    row_count[x] += 1
                    col_count[y] += 1
                    if place(
                        k + 1,
                        max(rows_used, x + 1),
                        max(cols_used, y + 1),
                    ):
                        return True
                    del pos[v]
                    del grid[(x, y)]
                    row_count[x] -= 1
                    col_count[y] -= 1
                undo(trail)
        return False

    if not place(0, 0, 0):
        return None
    return [pos[v][0] for v in range(n)], [pos[v][1] for v in range(n)]


def _factor_recursive(g: Digraph, budget: _Budget) -> Factorization:
    n = g.n
    if n == 1:
        return Factorization((g,), ((0,),))
    for a in range(2, n + 1):
        if a * a > n:
            break
        if n % a:
            continue
        found = _split_strong(g, a, n // a, budget)
        if found is None:
            continue
        row, col = found
        arcs_a = {
            (row[u], row[v])
            for u, v in g.arcs
            if row[u] != row[v] and col[u] == col[v]
        }
        arcs_b = {
            (col[u], col[v])
            for u, v in g.arcs
            if col[u] != col[v] and row[u] == row[v]
        }
        sub_a = _factor_recursive(Digraph(a, arcs_a), budget)
        sub_b = _factor_recursive(Digraph(n // a, arcs_b), budget)
        coords = tuple(
            sub_a.coords[row[v]] + sub_b.coords[col[v]] for v in range(n)
        )
        return Factorization(sub_a.factors + sub_b.factors, coords)
    return Factorization((g,), tuple((v,) for v in range(n)))


def brute_force_strong_pfd(g: Digraph, cfg: OracleConfig | None = None) -> Factorization:
    """Exhaustive strong-product factorization; ground truth for small graphs."""
    cfg = cfg or OracleConfig()
    if g.n > cfg.max_vertices:
        raise SizeLimitExceededError(
            f"oracle limited to {cfg.max_vertices} vertices, got {g.n}"
        )
    if not g.is_connected():
        raise NotConnectedError("oracle factorization requires a connected graph")
    if g.n == 0:
        return Factorization((), ())
    return _factor_recursive(g, _Budget(cfg.time_budget))


def enumerate_connected_digraphs(n: int):
    """All connected digraphs on n vertices, one canonical representative per
    isomorphism class, in enumeration order."""
    if n < 1:
        raise VertexOutOfRangeError("enumeration needs n >= 1")
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
    if not 0 <= lo <= hi:
        raise VertexOutOfRangeError(f"vertex range {lo}..{hi} needs 0 <= lo <= hi")
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
    at most OracleConfig.max_vertices vertices."""
    lo, hi = _vertex_range(n_range)
    if lo < 2:
        raise VertexOutOfRangeError("prime graphs need at least 2 vertices")
    if hi > OracleConfig.max_vertices:
        raise SizeLimitExceededError(
            f"prime sampler limited to {OracleConfig.max_vertices} vertices, got {hi}"
        )
    return _rejection_sample(
        (lo, hi), seed, False, lambda g: len(brute_force_strong_pfd(g).factors) == 1
    )
