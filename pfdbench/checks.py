"""Output checks made apart from the factorizer.

Nothing here calls the package's own reconstruction, isomorphism or
thinness code.  A factorization is accepted only when

* its coordinates are a bijection onto the product of the factor sizes,
* the product of the returned factors, rebuilt here and carried through the
  returned coordinates, equals the input arc for arc, and
* its factor multiset matches what the input was built from: each returned
  factor is claimed by one expected factor, and none is left over.

Graphs are read through ``.n`` and ``.arcs`` only.
"""

from __future__ import annotations

import itertools
from typing import Callable

Matcher = Callable[[object], bool]

# Factors up to this size are compared by trying every vertex permutation.
MAX_BRUTE_FORCE_N = 6


def _successors(n: int, arcs) -> list[list[int]]:
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
    return succ


def coordinate_error(factors, coords, n: int) -> str | None:
    """Why ``coords`` is not a bijection from 0..n-1 onto the factor grid."""
    sizes = [f.n for f in factors]
    grid = 1
    for s in sizes:
        grid *= s
    if grid != n or len(coords) != n:
        return f"grid {sizes} holds {grid} vertices, input has {n}, coords {len(coords)}"
    for v, c in enumerate(coords):
        if len(c) != len(sizes) or any(not 0 <= x < s for x, s in zip(c, sizes)):
            return f"vertex {v} has coordinate {c} outside grid {sizes}"
    if len(set(coords)) != n:
        return "two vertices share a coordinate"
    return None


def rebuild(kind: str, factors, coords) -> set[tuple[int, int]]:
    """Arc set of the strong or Cartesian product of ``factors``, expressed
    over the vertex ids that ``coords`` assigns."""
    vertex_of = {c: v for v, c in enumerate(coords)}
    succ = [_successors(f.n, f.arcs) for f in factors]
    arcs: set[tuple[int, int]] = set()
    for v, c in enumerate(coords):
        if kind == "strong":
            choices = [[x] + succ[j][x] for j, x in enumerate(c)]
            for w in itertools.product(*choices):
                if w != c:
                    arcs.add((v, vertex_of[w]))
        else:
            for j, x in enumerate(c):
                for y in succ[j][x]:
                    arcs.add((v, vertex_of[c[:j] + (y,) + c[j + 1 :]]))
    return arcs


def isomorphic_to(h) -> Matcher:
    """Matcher for graphs isomorphic to the small graph ``h``."""
    if h.n > MAX_BRUTE_FORCE_N:
        raise ValueError(f"brute-force isomorphism limited to {MAX_BRUTE_FORCE_N} vertices")
    target = frozenset(h.arcs)

    def match(g) -> bool:
        if g.n != h.n or len(g.arcs) != len(target):
            return False
        arcs = g.arcs
        return any(
            all((p[u], p[v]) in target for u, v in arcs)
            for p in itertools.permutations(range(g.n))
        )

    return match


def complete(p: int) -> Matcher:
    """Matcher for K_p: every ordered pair of distinct vertices is an arc."""
    return lambda g: g.n == p and len(set(g.arcs)) == p * (p - 1)


def single_arc() -> Matcher:
    return lambda g: g.n == 2 and len(g.arcs) == 1


def directed_path(n: int) -> Matcher:
    """Matcher for the directed path on n vertices."""

    def match(g) -> bool:
        if g.n != n or len(g.arcs) != n - 1:
            return False
        nxt = [-1] * n
        indeg = [0] * n
        for u, v in g.arcs:
            if nxt[u] != -1:
                return False
            nxt[u] = v
            indeg[v] += 1
        starts = [v for v in range(n) if indeg[v] == 0]
        if len(starts) != 1 or max(indeg) > 1:
            return False
        v, seen = starts[0], 1
        while nxt[v] != -1:
            v, seen = nxt[v], seen + 1
        return seen == n

    return match


def directed_cycle(m: int) -> Matcher:
    """Matcher for the directed cycle on m vertices."""

    def match(g) -> bool:
        if g.n != m or len(g.arcs) != m:
            return False
        nxt = [-1] * m
        indeg = [0] * m
        for u, v in g.arcs:
            if nxt[u] != -1:
                return False
            nxt[u] = v
            indeg[v] += 1
        if min(indeg) != 1:
            return False
        v, steps = nxt[0], 1
        while v != 0:
            v, steps = nxt[v], steps + 1
        return steps == m

    return match


def same_size(n: int, m: int) -> Matcher:
    """Matcher for a factor the size of a prime input.  Together with the
    rebuild check it proves the factor isomorphic to the input."""
    return lambda g: g.n == n and len(g.arcs) == m


def triangle_free(g) -> bool:
    """True when the underlying undirected graph of ``g`` has no triangle."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.arcs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return all(not (nbrs[u] & nbrs[v]) for u, v in g.arcs)


def thin(g) -> bool:
    """True when no two vertices share both closed neighborhoods."""
    out = [{v} for v in range(g.n)]
    inn = [{v} for v in range(g.n)]
    for u, v in g.arcs:
        out[u].add(v)
        inn[v].add(u)
    keys = {(frozenset(o), frozenset(i)) for o, i in zip(out, inn)}
    return len(keys) == g.n


def factorization_error(kind: str, g, result, expected: list[Matcher]) -> str | None:
    """Why ``result`` is not the prime factorization of ``g``, or None."""
    factors, coords = tuple(result.factors), tuple(result.coords)
    problem = coordinate_error(factors, coords, g.n)
    if problem:
        return problem
    if rebuild(kind, factors, coords) != set(g.arcs):
        return f"{kind} product of the factors differs from the input"
    unclaimed = list(expected)
    for f in factors:
        hit = next((i for i, match in enumerate(unclaimed) if match(f)), None)
        if hit is None:
            return f"factor on {f.n} vertices with {len(f.arcs)} arcs is not expected"
        del unclaimed[hit]
    if unclaimed:
        return f"{len(unclaimed)} expected factors missing"
    return None
