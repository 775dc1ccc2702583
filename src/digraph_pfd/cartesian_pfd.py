"""Prime factorization of connected digraphs over the Cartesian product.

The undirected shadow is factored first: edges are merged by the equivalence
closure of (a) opposite edges of any chordless square and (b) incident edges
spanning zero or at least two chordless squares, and the resulting coloring
is verified to be a genuine product coloring (merging further if it is not).
Directions are then reconciled: whenever two parallel copies of a factor
disagree on arc orientations across an edge of another factor, the two colors
cannot belong to different factors and are merged; this repeats until no
conflict remains, at which point the color classes are exactly the prime
factors of the digraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .digraph import Arc, Digraph, UndirectedGraph
from .errors import InvalidColoringError, NotConnectedError, ReconstructionError
from .factorization import Factorization, reconstruct_cartesian

Edge = tuple[int, int]


class _DisjointSet:
    """Union-find with smallest-member representatives."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class EdgeColoring:
    """Map from undirected edges (u, v) with u < v to factor colors 0..k-1."""

    colors: Mapping[Edge, int]
    count: int


def _closure_coloring(ug: UndirectedGraph) -> EdgeColoring:
    """Equivalence closure of the chordless-square relation."""
    edges = ug.edges
    eidx = {e: i for i, e in enumerate(edges)}
    dsu = _DisjointSet(len(edges))

    def edge(a: int, b: int) -> int:
        return eidx[(a, b) if a < b else (b, a)]

    for v in range(ug.n):
        nbrs = sorted(ug.adj[v])
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                a, b = nbrs[ai], nbrs[bi]
                if a in ug.adj[b]:
                    # The chord ab rules out any chordless square on (va, vb).
                    dsu.union(edge(v, a), edge(v, b))
                    continue
                fourth = sorted((ug.adj[a] & ug.adj[b]) - ug.adj[v] - {v})
                if len(fourth) != 1:
                    dsu.union(edge(v, a), edge(v, b))
                for x in fourth:
                    dsu.union(edge(v, a), edge(b, x))
                    dsu.union(edge(v, b), edge(a, x))

    roots = sorted({dsu.find(i) for i in range(len(edges))})
    relabel = {r: i for i, r in enumerate(roots)}
    return EdgeColoring(
        {e: relabel[dsu.find(i)] for i, e in enumerate(edges)}, len(roots)
    )


def _merge_colors(coloring: EdgeColoring, pairs) -> EdgeColoring:
    dsu = _DisjointSet(coloring.count)
    for i, j in pairs:
        dsu.union(i, j)
    order: dict[int, int] = {}
    colors = {}
    for e in sorted(coloring.colors):
        root = dsu.find(coloring.colors[e])
        if root not in order:
            order[root] = len(order)
        colors[e] = order[root]
    return EdgeColoring(colors, len(order))


def _coordinatize(ug: UndirectedGraph, coloring: EdgeColoring):
    """Product coordinates induced by a coloring, or None when invalid.

    Returns (positions, coords, factor_edges): positions[i] lists the
    vertices of the factor-i layer through vertex 0, coords[v] gives the
    position of v in every factor, and factor_edges[i] holds the factor-i
    edges as position pairs.
    """
    n = ug.n
    count = coloring.count
    by_color: list[list[Edge]] = [[] for _ in range(count)]
    for e, i in coloring.colors.items():
        by_color[i].append(e)

    positions: list[list[int]] = []
    total = 1
    for i in range(count):
        dsu = _DisjointSet(n)
        for u, v in by_color[i]:
            dsu.union(u, v)
        layer = sorted(v for v in range(n) if dsu.find(v) == dsu.find(0))
        positions.append(layer)
        total *= len(layer)
    if total != n:
        return None

    coords = [[0] * count for _ in range(n)]
    for i in range(count):
        dsu = _DisjointSet(n)
        for j in range(count):
            if j != i:
                for u, v in by_color[j]:
                    dsu.union(u, v)
        anchor: dict[int, list[int]] = {}
        for p in positions[i]:
            anchor.setdefault(dsu.find(p), []).append(p)
        for v in range(n):
            hits = anchor.get(dsu.find(v), ())
            if len(hits) != 1:
                return None
            coords[v][i] = hits[0]
    coord_tuples = tuple(tuple(c) for c in coords)
    index = {c: v for v, c in enumerate(coord_tuples)}
    if len(index) != n:
        return None

    factor_edges: list[list[Edge]] = []
    for i in range(count):
        members = set(positions[i])
        factor_edges.append(
            sorted(e for e in by_color[i] if e[0] in members and e[1] in members)
        )

    expected = set()
    for v in range(n):
        c = coord_tuples[v]
        for i in range(count):
            for s, t in factor_edges[i]:
                here = c[i]
                if here == s:
                    w = index[c[:i] + (t,) + c[i + 1 :]]
                elif here == t:
                    w = index[c[:i] + (s,) + c[i + 1 :]]
                else:
                    continue
                expected.add((min(v, w), max(v, w)))
    if expected != ug.edge_set:
        return None
    return positions, coord_tuples, factor_edges


def undirected_cartesian_pfd(ug: UndirectedGraph) -> EdgeColoring:
    """Finest product coloring of a connected undirected graph: color classes
    correspond to its Cartesian prime factors."""
    if not ug.is_connected():
        raise NotConnectedError("undirected PFD requires a connected graph")
    if ug.n <= 1:
        return EdgeColoring({}, 0)
    coloring = _closure_coloring(ug)
    while _coordinatize(ug, coloring) is None:
        # The square-relation closure of a connected graph is already a
        # product coloring; this fallback only guards the theory.
        coloring = _merge_colors(coloring, [(0, 1)])
    return coloring


def _check_coloring(g: Digraph, coloring: EdgeColoring):
    ug = g.underlying_undirected()
    if set(coloring.colors) != set(ug.edges):
        raise InvalidColoringError("coloring does not cover the underlying edges")
    placed = _coordinatize(ug, coloring)
    if placed is None:
        raise InvalidColoringError("coloring is not a product coloring")
    return placed


def direction_conflicts(g: Digraph, coloring: EdgeColoring) -> list[tuple[int, int]]:
    """Color pairs (i, j) such that two copies of factor i adjacent along a
    j-edge differ as digraphs under the coordinate bijection."""
    positions, coords, factor_edges = _check_coloring(g, coloring)
    index = {c: v for v, c in enumerate(coords)}
    conflicts = set()
    for (u, w), j in coloring.colors.items():
        cu, cw = coords[u], coords[w]
        for i in range(coloring.count):
            if i == j or (i, j) in conflicts:
                continue
            for s, t in factor_edges[i]:
                au = index[cu[:i] + (s,) + cu[i + 1 :]]
                bu = index[cu[:i] + (t,) + cu[i + 1 :]]
                aw = index[cw[:i] + (s,) + cw[i + 1 :]]
                bw = index[cw[:i] + (t,) + cw[i + 1 :]]
                if (
                    g.has_arc(au, bu) != g.has_arc(aw, bw)
                    or g.has_arc(bu, au) != g.has_arc(bw, aw)
                ):
                    conflicts.add((i, j))
                    break
    return sorted(conflicts)


def cartesian_pfd(g: Digraph) -> Factorization:
    """Unique prime factorization of a connected digraph over the Cartesian
    product: undirected PFD of the shadow, then direction-conflict merging."""
    if not g.is_connected():
        raise NotConnectedError("cartesian PFD requires a connected graph")
    if g.n == 0:
        return Factorization((), ())
    if g.n == 1:
        return Factorization((g,), ((0,),))
    ug = g.underlying_undirected()
    coloring = undirected_cartesian_pfd(ug)
    while True:
        conflicts = direction_conflicts(g, coloring)
        if not conflicts:
            break
        coloring = _merge_colors(coloring, conflicts)
    positions, coords, factor_edges = _coordinatize(ug, coloring)

    factors = []
    base = coords[0]
    index = {c: v for v, c in enumerate(coords)}
    for i in range(coloring.count):
        rank = {p: r for r, p in enumerate(positions[i])}
        arcs: list[Arc] = []
        for s, t in factor_edges[i]:
            a = index[base[:i] + (s,) + base[i + 1 :]]
            b = index[base[:i] + (t,) + base[i + 1 :]]
            if g.has_arc(a, b):
                arcs.append((rank[s], rank[t]))
            if g.has_arc(b, a):
                arcs.append((rank[t], rank[s]))
        factors.append(Digraph(len(positions[i]), arcs))

    ranks = [{p: r for r, p in enumerate(positions[i])} for i in range(coloring.count)]
    fcoords = tuple(
        tuple(ranks[i][coords[v][i]] for i in range(coloring.count)) for v in range(g.n)
    )
    result = Factorization(tuple(factors), fcoords)
    if reconstruct_cartesian(result) != g:
        raise ReconstructionError("cartesian reconstruction mismatch")
    return result
