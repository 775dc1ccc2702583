"""Prime factorization of connected digraphs over the Cartesian product.

One equivalence closure colours the edges of the undirected shadow.  It
joins (a) the opposite edges of every chordless square, (b) two edges va, vb
at a vertex v unless (a, b) spans exactly one chordless square, and (c) the
two edges at a corner of every misoriented chordless square, where an edge
and its opposite edge carry different arcs: the two copies of a factor that
such a square joins differ as digraphs, so its edges lie in one factor.  Each
square is read once, at its least corner, and there are no merge rounds.  One
breadth-first placement then checks the colouring edge by edge, and its
colour classes are the prime factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Mapping

from .digraph import Digraph, UndirectedGraph
from .errors import InvalidColoringError, NotConnectedError, ReconstructionError
from .factorization import Factorization, is_cartesian_product
from .factorization import reconstruct_cartesian  # noqa: F401  pfdbench/tracing.py hooks this name

Edge = tuple[int, int]


def _find(parent: list[int], a: int) -> int:
    """Root of a in the flat union-find parent list, halving the path."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    return a


def _union(parent: list[int], a: int, b: int) -> None:
    """Join the sets of a and b; the smaller root becomes the root."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra < rb:
        parent[rb] = ra
    elif rb < ra:
        parent[ra] = rb


@dataclass(frozen=True)
class EdgeColoring:
    """Map from undirected edges (u, v) with u < v to factor colors 0..k-1."""

    colors: Mapping[Edge, int]
    count: int


def _closure_coloring(ug: UndirectedGraph, arcs: frozenset[Edge]) -> EdgeColoring:
    """Equivalence closure of the chordless-square relation of the shadow ug
    of a digraph with arc set arcs.

    At v, mid[x] lists the neighbours of v adjacent to x, for x outside N[v];
    a non-adjacent pair (a, b) in mid[x] is the chordless square v-a-x-b,
    whose unions are made at its least corner only: va ~ bx and vb ~ ax, and
    va ~ vb when va and bx, or vb and ax, carry different arcs.  va ~ vb also
    unless (a, b) spans exactly one chordless square."""
    adj = ug.adj
    eid: list[dict[int, int]] = [{} for _ in range(ug.n)]
    for k, (u, w) in enumerate(ug.edges):
        eid[u][w] = eid[w][u] = k
    parent = list(range(len(ug.edges)))

    for v in range(ug.n):
        nbrs = sorted(adj[v])
        closed = adj[v] | {v}
        mid: dict[int, list[int]] = {}
        for a in nbrs:
            for x in adj[a] - closed:
                mid.setdefault(x, []).append(a)
        ev = eid[v]
        squares: dict[Edge, int] = {}
        for x, corners in mid.items():
            least = v < x and v < corners[0]
            for a, b in combinations(corners, 2):
                if b in adj[a]:
                    continue
                squares[a, b] = squares.get((a, b), 0) + 1
                if least:
                    _union(parent, ev[a], eid[b][x])
                    _union(parent, ev[b], eid[a][x])
                    if ((v, a) in arcs, (a, v) in arcs, (v, b) in arcs, (b, v) in arcs) != (
                        (b, x) in arcs, (x, b) in arcs, (a, x) in arcs, (x, a) in arcs
                    ):
                        _union(parent, ev[a], ev[b])
        if len(squares) == sum(squares.values()) == len(nbrs) * (len(nbrs) - 1) // 2:
            continue  # every pair of neighbours spans exactly one square
        for a, b in combinations(nbrs, 2):
            if squares.get((a, b)) != 1:
                _union(parent, ev[a], ev[b])

    roots = [_find(parent, i) for i in range(len(ug.edges))]
    relabel = {r: i for i, r in enumerate(sorted(set(roots)))}
    return EdgeColoring({e: relabel[r] for e, r in zip(ug.edges, roots)}, len(relabel))


def _coordinatize(ug: UndirectedGraph, coloring: EdgeColoring):
    """Product coordinates induced by a coloring, or None when invalid.

    Returns (positions, coords, gid, factor_edges): positions[i] lists the
    vertices of the factor-i layer through vertex 0, coords[v][i] is the rank
    in positions[i] of the projection of v onto that layer, gid[v] is the
    mixed-radix grid id of coords[v] (last factor fastest), and
    factor_edges[i] holds the factor-i edges as rank pairs.

    One breadth-first search from 0 places every vertex v: it copies the
    coordinates of an earlier-level neighbour across an i-edge, then takes
    coordinate i from an earlier-level neighbour across an edge of another
    color, or else from its rank in positions[i].  In a product every
    non-zero coordinate j of v gives v an earlier-level j-neighbour, so these
    are the product coordinates.  The result certifies itself: a bijection
    onto the grid, every i-edge changing coordinate i alone along a factor-i
    edge, and |E| = sum_i |E_i| * n / |V_i| make the edges exactly those of
    the product of the factors.
    """
    n = ug.n
    count = coloring.count
    colors = coloring.colors
    by_color: list[list[Edge]] = [[] for _ in range(count)]
    for e, i in colors.items():
        by_color[i].append(e)

    positions: list[list[int]] = []
    for i in range(count):
        parent = list(range(n))
        for u, v in by_color[i]:
            _union(parent, u, v)
        positions.append([v for v in range(n) if _find(parent, v) == 0])
    if prod(map(len, positions)) != n:
        return None
    ranks = [{p: r for r, p in enumerate(layer)} for layer in positions]
    stride = [prod(map(len, positions[i + 1 :])) for i in range(count)]

    coords: list[list[int]] = [[0] * count] * n  # each v > 0 gets its own copy
    gid = [0] * n
    adj = ug.adj
    level = [-1] * n
    level[0] = 0
    order = [0]
    for v in order:
        below, j = level[v] - 1, None
        for w in adj[v]:
            lw = level[w]
            if lw < 0:
                level[w] = below + 2
                order.append(w)
            elif lw == below:
                i = colors.get((v, w) if v < w else (w, v))
                if i is None:
                    return None
                if j is None:
                    u, j, r = w, i, ranks[i].get(v)
                elif i != j:
                    r = coords[w][j]
        if j is not None:
            if r is None:
                return None
            coords[v] = c = coords[u][:]
            c[j] = r
            gid[v] = gid[u] + (r - coords[u][j]) * stride[j]
    if len(order) != n or len(set(gid)) != n:
        return None

    factor_edges: list[list[Edge]] = []
    copies = 0
    for i, edges in enumerate(by_color):
        rank, step = ranks[i], stride[i]
        inside = {(rank[u], rank[v]) for u, v in edges if u in rank}
        for u, v in edges:
            s, t = coords[u][i], coords[v][i]
            if gid[u] - gid[v] != (s - t) * step or ((s, t) if s < t else (t, s)) not in inside:
                return None
        factor_edges.append(sorted(inside))
        copies += len(inside) * (n // len(positions[i]))
    if copies != len(ug.edges):
        return None
    return positions, coords, gid, factor_edges


def undirected_cartesian_pfd(ug: UndirectedGraph) -> EdgeColoring:
    """Finest product coloring of a connected undirected graph: color classes
    correspond to its Cartesian prime factors."""
    if not ug.is_connected():
        raise NotConnectedError("Cartesian PFD requires a connected graph")
    if ug.n <= 1:
        return EdgeColoring({}, 0)
    return _closure_coloring(ug, frozenset())


def _check_coloring(ug: UndirectedGraph, coloring: EdgeColoring):
    if coloring.colors.keys() != ug.edge_set:
        raise InvalidColoringError("coloring does not cover the underlying edges")
    placed = _coordinatize(ug, coloring)
    if placed is None:
        raise InvalidColoringError("coloring is not a product coloring")
    return placed


def _conflicts(g: Digraph, ug: UndirectedGraph, coloring: EdgeColoring, placed):
    """Sorted color pairs (i, j) such that some square of i- and j-edges has
    its two i-edges oriented differently.  Every square is read once, at
    its least corner v, where its fourth corner has grid id
    gid[a] + gid[b] - gid[v] for the neighbours a and b of v on it."""
    _, _, gid, _ = placed
    vid = [0] * ug.n
    for v, x in enumerate(gid):
        vid[x] = v
    arcs = g.arc_set
    colors = coloring.colors
    conflicts = set()
    for v in range(ug.n):
        up = [(a, colors[(v, a)]) for a in ug.adj[v] if a > v]
        for k, (a, i) in enumerate(up):
            for b, j in up[k + 1 :]:
                if i == j:
                    continue
                c = vid[gid[a] + gid[b] - gid[v]]
                if c < v:
                    continue
                if ((v, a) in arcs) != ((b, c) in arcs) or ((a, v) in arcs) != ((c, b) in arcs):
                    conflicts.add((i, j))
                if ((v, b) in arcs) != ((a, c) in arcs) or ((b, v) in arcs) != ((c, a) in arcs):
                    conflicts.add((j, i))
    return sorted(conflicts)


def direction_conflicts(g: Digraph, coloring: EdgeColoring) -> list[tuple[int, int]]:
    """Color pairs (i, j) such that two copies of factor i adjacent along a
    j-edge differ as digraphs under the coordinate bijection."""
    ug = g.underlying_undirected()
    return _conflicts(g, ug, coloring, _check_coloring(ug, coloring))


def cartesian_pfd(g: Digraph) -> Factorization:
    """Unique prime factorization of a connected digraph over the Cartesian
    product: one closure of the shadow with its arcs, one placement, and the
    factors read off that placement."""
    if g.n == 0:
        return Factorization((), ())
    if g.n == 1:
        return Factorization((g,), ((0,),))
    ug = g.underlying_undirected()
    if not ug.is_connected():
        raise NotConnectedError("Cartesian PFD requires a connected graph")
    arcs = g.arc_set
    positions, coords, _, factor_edges = _check_coloring(ug, _closure_coloring(ug, arcs))

    # The factor-i layer through vertex 0 holds positions[i] itself, so a
    # factor arc is read straight off the arcs between those vertices.
    factors = []
    for layer, edges in zip(positions, factor_edges):
        fa = [(s, t) for s, t in edges if (layer[s], layer[t]) in arcs]
        fa += [(t, s) for s, t in edges if (layer[t], layer[s]) in arcs]
        factors.append(Digraph(len(layer), fa))
    result = Factorization(tuple(factors), tuple(map(tuple, coords)))
    if not is_cartesian_product(g, result):
        raise ReconstructionError("result is not the Cartesian product of its factors")
    return result
