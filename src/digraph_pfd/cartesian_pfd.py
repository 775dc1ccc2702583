"""Prime factorization of connected digraphs over the Cartesian product.

One equivalence closure, read off the digraph's adjacency lists and arc set,
colours the edges of its shadow.  It joins (a) the opposite edges of every
chordless square, (b) two edges va, vb at a vertex v unless (a, b) spans
exactly one chordless square, and (c) the two edges at a corner of every
misoriented chordless square, where an edge and its opposite edge carry
different arcs: the two copies of a factor that such a square joins differ
as digraphs, so its edges lie in one factor.  Each square is listed once,
from its highest-ranked corner in degree order, and there are no merge
rounds: on a shadow with m edges, arboricity a and s chordless squares the
closure costs O(a·m + s).  One breadth-first search over the digraph
places the vertices, the layers through vertex 0 are read off as the
factors, and is_cartesian_product certifies the placement.  It is the only
check, also in direction_conflicts, which certifies a caller's colouring on
the symmetric shadow digraph and reads each arc against its translates
across the edges of other colours.

Every edge of a nontrivial Cartesian product of connected factors lies on
a 4-cycle, so an input whose edge from vertex 0 to its least neighbour lies
on none is returned as its own factor before the closure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Mapping

from .digraph import Digraph
from .errors import InvalidColoringError, NotConnectedError, ReconstructionError
from .errors import VertexOutOfRangeError
from .factorization import Factorization, is_cartesian_product
from .factorization import reconstruct_cartesian  # noqa: F401  pfdbench/tracing.py hooks this name
from .products import _layers

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


def _closure_coloring(g: Digraph) -> EdgeColoring:
    """Equivalence closure of the chordless-square relation of g's shadow.

    Vertices are ranked by degree, highest first, ties by id.  At v, mid[x]
    lists the neighbours of v adjacent to x, both ranked below v, for x
    outside N[v]: a non-adjacent pair (a, b) in mid[x] is the chordless
    square v-a-x-b, listed only from this highest-ranked corner (Chiba and
    Nishizeki's C4 listing).  Its unions are made here: va ~ bx, vb ~ ax, and
    va ~ vb when va and bx, or vb and ax, carry different arcs, a verdict
    that is the same at every corner.  It credits (a, b) to v and x and
    (v, x) to a and b, so each vertex holds all its credits when its turn
    comes.  va ~ vb also unless (a, b) is in E1, the pairs credited once:
    every neighbour outside the E1 partners of the pivot, the one with
    fewest, joins it, and each partner joins every neighbour outside its
    own, in O(deg + |E1|)."""
    n = g.n
    edges = sorted({(u, v) if u < v else (v, u) for u, v in g.arcs})
    arcs = g.arc_set
    eid: list[dict[int, int]] = [{} for _ in range(n)]  # ascending keys: the neighbours
    for k, (u, w) in enumerate(edges):
        eid[u][w] = eid[w][u] = k
    parent = list(range(len(edges)))
    order = sorted(range(n), key=lambda v: -len(eid[v]))
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    credits: dict[int, list[int]] = {}  # pair keys a * n + b, a < b, of vertices not yet reached

    for v in order:
        ev, rv = eid[v], rank[v]
        mid: dict[int, list[int]] = {}
        for a in ev:
            if rank[a] > rv:
                for x in eid[a]:
                    if rank[x] > rv and x not in ev:
                        mid.setdefault(x, []).append(a)
        pairs = credits.pop(v, [])
        for x, corners in mid.items():
            ex, vx = eid[x], v * n + x if v < x else x * n + v
            for a, b in combinations(corners, 2):
                if b in eid[a]:
                    continue
                pairs.append(ab := a * n + b)
                credits.setdefault(x, []).append(ab)
                credits.setdefault(a, []).append(vx)
                credits.setdefault(b, []).append(vx)
                _union(parent, ev[a], ex[b])
                _union(parent, ev[b], ex[a])
                if ((v, a) in arcs, (a, v) in arcs, (v, b) in arcs, (b, v) in arcs) != (
                    (b, x) in arcs, (x, b) in arcs, (a, x) in arcs, (x, a) in arcs
                ):
                    _union(parent, ev[a], ev[b])
        if len(pairs) == len(ev) * (len(ev) - 1) // 2 == len(set(pairs)):
            continue  # every pair of neighbours spans exactly one square
        partners: dict[int, set[int]] = {}
        for k, times in Counter(pairs).items():
            if times == 1:
                a, b = divmod(k, n)
                partners.setdefault(a, set()).add(b)
                partners.setdefault(b, set()).add(a)
        pivot = min(ev, key=lambda a: len(partners.get(a, ())))
        for q in (pivot, *partners.get(pivot, ())):
            near = partners.get(q, ())
            for a in ev:
                if a != q and a not in near:
                    _union(parent, ev[q], ev[a])

    roots = [_find(parent, i) for i in range(len(edges))]
    relabel = {r: i for i, r in enumerate(sorted(set(roots)))}
    return EdgeColoring({e: relabel[r] for e, r in zip(edges, roots)}, len(relabel))


def _coordinatize(g: Digraph, coloring: EdgeColoring):
    """Product coordinates that a coloring of g's shadow proposes.

    Returns (positions, coords): positions[i] lists the vertices of the
    colour-i layer through vertex 0, and coords[v][i] is the rank in
    positions[i] of the projection of v onto that layer.  Raises
    InvalidColoringError when the layers cannot hold n vertices.

    One breadth-first search from 0 labels each coordinate of a vertex v by
    the vertex of the layer through 0 that v projects to: v copies the labels
    of an earlier-level neighbour across an i-edge, then takes label i from
    an earlier-level neighbour across an edge of another colour, or else is
    its own label i.  In a product every non-zero coordinate j of v gives v
    an earlier-level j-neighbour, so these are the product coordinates, and
    one last pass turns the labels into ranks.  Nothing here checks them:
    each caller certifies the placement with is_cartesian_product.
    """
    colors = coloring.colors
    labels: list[list[int]] = [[0] * coloring.count] * g.n  # each v > 0 gets its own copy
    level = [-1] * g.n
    level[0] = 0
    order = [0]
    for v in order:
        below, j = level[v] - 1, None
        for w in g.out_adj[v] + g.in_adj[v]:
            lw = level[w]
            if lw < 0:
                level[w] = below + 2
                order.append(w)
            elif lw == below:
                i = colors[(v, w) if v < w else (w, v)]
                if j is None:
                    u, j, r = w, i, v
                elif i != j:
                    r = labels[w][j]
        if j is not None:
            labels[v] = c = labels[u][:]
            c[j] = r
    positions = [sorted(set(column)) for column in zip(*labels)]
    if prod(map(len, positions)) != g.n:
        raise InvalidColoringError("coloring is not a product coloring")
    ranks = [{p: r for r, p in enumerate(layer)} for layer in positions]
    return positions, tuple(tuple(map(dict.__getitem__, ranks, c)) for c in labels)


def _symmetric(g: Digraph) -> Digraph:
    """g's shadow as a digraph: both arcs on every edge, so no misoriented
    square."""
    return Digraph._derived(tuple(tuple(sorted({*o, *i})) for o, i in zip(g.out_adj, g.in_adj)))


def undirected_cartesian_pfd(g: Digraph) -> EdgeColoring:
    """Finest product coloring of a connected digraph's shadow, whatever the
    arcs' directions: the color classes are the shadow's Cartesian prime
    factors."""
    if not g.is_connected():
        raise NotConnectedError("Cartesian PFD requires a connected graph")
    return _closure_coloring(_symmetric(g))


def _check_coloring(g: Digraph, coloring: EdgeColoring):
    """The placement (positions, coords) of a product coloring of g's shadow.

    Raises InvalidColoringError unless g has a vertex, the coloring covers
    the shadow's edges with int colours in 0..count-1, is_cartesian_product
    certifies its placement on the symmetric shadow, and every i-edge moves
    coordinate i.  As an edge then moves one coordinate alone, the colour
    classes are the edges of the layers: the factors of the shadow."""
    shadow = _symmetric(g)
    if coloring.colors.keys() != {(u, v) for u, v in shadow.arcs if u < v}:
        raise InvalidColoringError("coloring does not cover the underlying edges")
    colors, count = coloring.colors.values(), coloring.count
    ints = isinstance(count, int) and all(isinstance(i, int) for i in colors)
    if not g.n or not ints or not all(0 <= i < count for i in colors):
        raise InvalidColoringError("coloring is not a product coloring")
    positions, coords = _coordinatize(shadow, coloring)
    try:
        layers = _layers(shadow, coords, list(map(len, positions)), 0)
        certified = is_cartesian_product(shadow, Factorization(tuple(layers), coords))
    except VertexOutOfRangeError:  # the coordinates are not a bijection onto the grid
        certified = False
    if certified and all(coords[u][i] != coords[v][i] for (u, v), i in coloring.colors.items()):
        return positions, coords
    raise InvalidColoringError("coloring is not a product coloring")


def _conflicts(g: Digraph, coloring: EdgeColoring, coords):
    """Sorted colour pairs (i, j) such that an arc ua of colour i has no
    translate wc across some j-edge uw at its tail, j != i.  c has a's
    coordinates but w's coordinate j: read as base-n digits, c = a + w - u."""
    pos = [sum(r * g.n**k for k, r in enumerate(c)) for c in coords]
    at = {p: v for v, p in enumerate(pos)}
    arcs = g.arc_set
    colors = coloring.colors
    conflicts = set()
    for u in range(g.n):
        nbrs = [(w, colors[(u, w) if u < w else (w, u)]) for w in g.out_adj[u] + g.in_adj[u]]
        for a, i in nbrs[: len(g.out_adj[u])]:
            for w, j in nbrs:
                if j != i and (w, at[pos[a] + pos[w] - pos[u]]) not in arcs:
                    conflicts.add((i, j))
    return sorted(conflicts)


def direction_conflicts(g: Digraph, coloring: EdgeColoring) -> list[tuple[int, int]]:
    """Color pairs (i, j) such that two copies of factor i adjacent along a
    j-edge differ as digraphs under the coordinate bijection."""
    return _conflicts(g, coloring, _check_coloring(g, coloring)[1])


def _edge_on_no_square(g: Digraph) -> bool:
    """The edge from vertex 0 to its least neighbour u is on no 4-cycle
    0-u-x-w.  No adjacency tuples are joined: CPython keeps freed tuples."""
    near = {*g.out_adj[0], *g.in_adj[0]}
    u = min(near)
    near.discard(u)
    for adj in (g.out_adj, g.in_adj):
        for x in adj[u]:
            if x and not (near.isdisjoint(g.out_adj[x]) and near.isdisjoint(g.in_adj[x])):
                return False
    return True


def cartesian_pfd(g: Digraph) -> Factorization:
    """Unique prime factorization of a connected digraph over the Cartesian
    product: one closure of its shadow's squares, one placement, and the
    factors read off that placement, unless an edge proves g prime first."""
    if g.n == 0:
        return Factorization((), ())
    if not g.is_connected():
        raise NotConnectedError("Cartesian PFD requires a connected graph")
    if g.n == 1 or _edge_on_no_square(g):
        result = Factorization((g,), tuple((v,) for v in range(g.n)))
    else:
        positions, coords = _coordinatize(g, _closure_coloring(g))
        result = Factorization(tuple(_layers(g, coords, list(map(len, positions)), 0)), coords)
    if not is_cartesian_product(g, result):
        raise ReconstructionError("result is not the Cartesian product of its factors")
    return result
