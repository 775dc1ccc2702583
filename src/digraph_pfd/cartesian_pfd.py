"""Prime factorization of connected digraphs over the Cartesian product.

One breadth-first search of the shadow from r, the least vertex of least
degree, guards connectivity and proposes the factors: a union-find over its
down-edges, to the level below, joins only edges that lie in one prime
factor, as distances add up over the factors:
- at r, ra ~ rb unless a and b span exactly one chordless square, as two
  edges at a vertex from two factors do, so an edge at r on no 4-cycle
  joins every other edge at r;
- at each u two or more levels from r, with down-edges ux and then uy and
  a common down-neighbour z of x and y: ux ~ yz and uy ~ xz, as opposite
  edges of a square lie in one factor, and ux ~ uy if the square is
  misoriented, an edge and its opposite on different arcs, as the copies
  of a factor carry the same arcs; with no such z, ux ~ uy, as edges of
  two factors down from u meet two levels below;
- when no pair at u has a z, u and its first down-neighbour x differ from
  r in one factor alone, so ux joins a down-edge of x.
Each factor has an edge at r, so there are at least as many classes as
prime factors, and one class at r (the star test) proves the input prime:
the only prime exit, taken before any union-find past r.  If every layer
through vertex 0 has two vertices or more and is_cartesian_product
certifies the proposal, it is the unique factorization (Feigenbaum, 1986).

No rule reads an edge inside one search level, of a triangle or of a
misoriented square, so the certificate can refuse the proposal.  The
closure of the shadow's chordless squares then joins (a) opposite edges,
(b) two edges va, vb unless (a, b) spans exactly one chordless square, and
(c) two edges at a corner of a misoriented square, in O(a·m + s) for
arboricity a, m edges and s chordless squares.  Its classes can be finer
than the factors, as on a Möbius ladder, a product locally but twisted:
if refused, they are grouped into the factors.  Either colouring is placed
from the search, factors ordered by their least edge, at vertex 0, and
coordinates ranked over the layers through vertex 0, so both give one
Factorization.  is_cartesian_product is the only check, also in
direction_conflicts, which certifies a caller's colouring on the symmetric
shadow and reads each arc against its translates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from operator import add, itemgetter, ne
from typing import Callable, Iterable, Mapping

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


def _join_unsquared(parent: list[int], ev: dict[int, int], pairs: list[int], n: int) -> None:
    """At v, with edge ids ev[a] to its neighbours, va ~ vb unless the key
    a * n + b, a < b, is in pairs once: every neighbour outside the partners
    of the pivot, the one with fewest, joins it, and each partner joins every
    neighbour outside its own, in O(deg + |E1|) for E1 the pairs seen once."""
    if len(pairs) == len(ev) * (len(ev) - 1) // 2 == len(set(pairs)):
        return  # every pair of neighbours spans exactly one square
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


def _closure_coloring(g: Digraph) -> EdgeColoring:
    """Equivalence closure of the chordless-square relation of g's shadow.
    At v, ranked by degree, mid[x] lists v's neighbours adjacent to x, all
    ranked below v, x outside N[v]: each square v-a-x-b is made there
    (Chiba and Nishizeki's C4 listing), crediting (a, b) to v and x and
    (v, x) to a and b before their turns come."""
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
        _join_unsquared(parent, ev, pairs, n)

    roots = [_find(parent, i) for i in range(len(edges))]
    relabel = {r: i for i, r in enumerate(sorted(set(roots)))}
    return EdgeColoring({e: relabel[r] for e, r in zip(edges, roots)}, len(relabel))


def _search(g: Digraph):
    """(order, down, lo, hi): a breadth-first search of g's shadow from r,
    the least vertex of least degree.  order lists the vertices level by
    level, v's neighbours one level nearer r are down[lo[v]:hi[v]], and e is
    the id of the down-edge (v, down[e])."""
    degree = list(map(add, map(len, g.out_adj), map(len, g.in_adj)))
    r = degree.index(min(degree))
    level, mark, lo, hi = [-1] * g.n, [-1] * g.n, [0] * g.n, [0] * g.n
    level[r], order, down = 0, [r], []
    for v in order:
        lo[v], below = len(down), level[v] - 1
        for w in g.out_adj[v] + g.in_adj[v]:
            lw = level[w]
            if lw < 0:
                level[w] = below + 2
                order.append(w)
            elif lw == below and mark[w] != v:  # a two-way edge is listed twice
                mark[w] = v
                down.append(w)
        hi[v] = len(down)
    return order, down, lo, hi


def _propose(g: Digraph, search) -> tuple[list[int], int]:
    """(colour, count): the classes of the search's down-edges that the
    proposal's rules join, in the module's docstring."""
    order, down, lo, hi = search
    n, arcs, r = g.n, g.arc_set, order[0]
    ev = {a: lo[a] for a in order[1 : len({*g.out_adj[r], *g.in_adj[r]}) + 1]}  # edges ra
    parent = list(range(len(ev)))  # their ids: 0..deg(r) - 1
    upper = order[len(ev) + 1 :]
    pairs = []
    for x in upper:
        if down[lo[x]] not in ev:
            break  # past the second level
        for a, b in combinations(down[lo[x] : hi[x]], 2):
            if (a, b) not in arcs and (b, a) not in arcs:
                pairs.append(a * n + b if a < b else b * n + a)
    _join_unsquared(parent, ev, pairs, n)
    if len({_find(parent, e) for e in ev.values()}) < 2:
        return [0] * len(down), 1  # the star test: g is prime
    parent += range(len(ev), len(down))
    seen = [-1] * n  # seen[z]: the down-edge xz of the current x, if lo[x] <= it < hi[x]
    for u in upper:
        squared = False
        for e in range(lo[u] + 1, hi[u]):
            x, y = down[e - 1], down[e]
            low, high = lo[x], hi[x]
            for h in range(low, high):
                seen[down[h]] = h
            for f in range(lo[y], hi[y]):
                h = seen[down[f]]
                if low <= h < high:
                    break
            else:
                _union(parent, e - 1, e)  # x and y differ from u in one factor
                continue
            squared, z = True, down[f]
            _union(parent, e - 1, f)
            _union(parent, e, h)
            if ((u, x) in arcs, (x, u) in arcs, (u, y) in arcs, (y, u) in arcs) != (
                (y, z) in arcs, (z, y) in arcs, (x, z) in arcs, (z, x) in arcs
            ):
                _union(parent, e - 1, e)
        if not squared:  # u and its first down-neighbour differ from r in one factor alone
            _union(parent, lo[u], lo[down[lo[u]]])
    index: dict[int, int] = {}
    return [index.setdefault(_find(parent, e), len(index)) for e in range(len(down))], len(index)


def _down_colours(search, colors: Mapping[Edge, int]) -> list[int]:
    """The colour of each down-edge of the search in a colouring of the shadow."""
    order, down, lo, hi = search
    return [colors[(v, w) if v < w else (w, v)] for v in order for w in down[lo[v] : hi[v]]]


def _coordinatize(g: Digraph, search, colour: list[int], count: int):
    """(positions, coords) that a colouring of the search's down-edges
    proposes: positions[i] lists the i-layer through vertex 0, and
    coords[v][i] ranks v's projection there.  Label i of v is its projection
    on the i-layer through r: v copies the labels across its first
    down-edge, of colour j, and takes label j across one of another colour,
    or is its own label j.  Raises InvalidColoringError when a label is on
    no layer through 0; the caller certifies the placement."""
    order, down, lo, hi = search
    labels: list[list[int]] = [[order[0]] * count] * g.n  # each v but the root gets its own copy
    for v in order[1:]:
        e = lo[v]
        j, label = colour[e], v
        for f in range(e + 1, hi[v]):
            if colour[f] != j:
                label = labels[down[f]][j]
                break
        labels[v] = c = labels[down[e]][:]
        c[j] = label
    positions: list[list[int]] = [[0] for _ in range(count)]
    for w, c in enumerate(labels):
        moved = list(map(ne, c, labels[0]))
        if moved.count(True) == 1:
            positions[moved.index(True)].append(w)
    ranks = [{labels[w][i]: x for x, w in enumerate(layer)} for i, layer in enumerate(positions)]
    try:
        return positions, tuple(tuple(map(dict.__getitem__, ranks, c)) for c in labels)
    except KeyError:
        raise InvalidColoringError("coloring is not a product coloring") from None


def _placed(g: Digraph, search, colour: list[int], count: int) -> Factorization | None:
    """The Factorization a colouring of the search's down-edges proposes, if
    every factor has two vertices or more and it is certified, else None."""
    try:
        positions, coords = _coordinatize(g, search, colour, count)
        sizes = list(map(len, positions))
        if min(sizes) < 2:
            return None
        near = {*g.out_adj[0], *g.in_adj[0]}
        least = [min((w for w in near if coords[w][i]), default=g.n) for i in range(count)]
        if least != sorted(least):
            pick = itemgetter(*sorted(range(count), key=least.__getitem__))
            sizes, coords = list(pick(sizes)), tuple(map(pick, coords))
        f = Factorization(tuple(_layers(g, coords, sizes, 0)), coords)
        return f if is_cartesian_product(g, f) else None
    except (InvalidColoringError, VertexOutOfRangeError):  # the latter: no grid bijection
        return None


def _greedy_groups(indices: Iterable[int], rest, split: Callable) -> tuple[list, list]:
    """Split the non-empty indices into groups and the factors they split off.
    split(P, rest) gives the factor over the positions P of the remaining
    indices and the rest over the others, or None.  The first proper subset to
    split, smallest first then lexicographic, is the next group; the search
    goes on in its rest, and what no subset splits is the last group and factor."""
    groups: list[tuple[int, ...]] = []
    heads = []
    remaining = tuple(indices)
    while True:
        k = len(remaining)
        for P in chain(*(combinations(range(k), s) for s in range(1, k))):
            if (parts := split(P, rest)) is not None:
                break
        else:
            return groups + [remaining], heads + [rest]
        groups.append(tuple(remaining[p] for p in P))
        head, rest = parts
        heads.append(head)
        remaining = tuple(j for p, j in enumerate(remaining) if p not in P)


def _grouped(g: Digraph, search, colour: list[int], count: int) -> list[int]:
    """group[c] for each of the count colours of the search's down-edges, a
    colouring finer than g's factors: the groups are g's prime factors,
    numbered by their least colour.  A candidate {P, rest} that _placed
    certifies is a union of factors, so the first to split off is one."""

    def split(P: tuple[int, ...], rest: tuple[int, ...]):
        head = {rest[p] for p in P}
        if _placed(g, search, [int(c in head) for c in colour], 2) is not None:
            return None, tuple(c for c in rest if c not in head)
        return None

    groups = sorted(_greedy_groups(range(count), tuple(range(count)), split)[0])
    return [i for c in range(count) for i, J in enumerate(groups) if c in J]


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
    shadow = _symmetric(g)
    coloring = _closure_coloring(shadow)
    if coloring.count < 2:
        return coloring
    search = _search(shadow)
    group = _grouped(shadow, search, _down_colours(search, coloring.colors), coloring.count)
    return EdgeColoring({e: group[c] for e, c in coloring.colors.items()}, max(group) + 1)


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
    search = _search(shadow)
    positions, coords = _coordinatize(shadow, search, _down_colours(search, coloring.colors), count)
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


def cartesian_pfd(g: Digraph) -> Factorization:
    """Unique prime factorization of a connected digraph over the Cartesian
    product: g itself if the star test of one breadth-first search proves
    it prime, else the certified proposal of that search, or else the
    square closure's classes placed from it, grouped into factors if need
    be."""
    if g.n == 0:
        return Factorization((), ())
    search = _search(g)
    if len(search[0]) < g.n:
        raise NotConnectedError("Cartesian PFD requires a connected graph")
    colour, count = _propose(g, search)
    if count < 2:
        del search, colour  # a tree's search outweighs its result
        result = Factorization((g,), tuple((v,) for v in range(g.n)))
        certified = is_cartesian_product(g, result)
    else:
        result = _placed(g, search, colour, count)
        if result is None:
            coloring = _closure_coloring(g)
            colour, count = _down_colours(search, coloring.colors), coloring.count
            result = _placed(g, search, colour, count)
            if result is None:  # the closure's classes are finer than the factors
                group = _grouped(g, search, colour, count)
                result = _placed(g, search, [group[c] for c in colour], max(group) + 1)
        certified = result is not None
    if not certified:
        raise ReconstructionError("result is not the Cartesian product of its factors")
    return result
