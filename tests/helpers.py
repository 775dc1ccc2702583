"""Small graphs and checks shared across the test modules."""

import functools

from digraph_pfd import (
    Digraph,
    canonical_form,
    cartesian_product,
    cartesian_skeleton,
    complete_digraph,
    s_partition,
    strong_product,
)
from digraph_pfd.cartesian_pfd import EdgeColoring, _find, _union
from digraph_pfd.errors import ArcNotPresentError, InvalidColoringError
from digraph_pfd.oracle import SplitMix64
from digraph_pfd.skeleton import DispensabilityWitness


def p2() -> Digraph:
    """Single directed edge 0 -> 1."""
    return Digraph(2, [(0, 1)])


def c3() -> Digraph:
    """Directed 3-cycle."""
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def k2() -> Digraph:
    return complete_digraph(2)


def k1() -> Digraph:
    return Digraph(1)


def two_k2() -> Digraph:
    """Two disjoint copies of K2: disconnected and not thin."""
    return Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])


def c4_bidirected() -> Digraph:
    """Undirected 4-cycle as a digraph; strong-prime, skeleton splits."""
    arcs = []
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        arcs += [(u, v), (v, u)]
    return Digraph(4, arcs)


def bidirected_cube(k: int) -> Digraph:
    """Hypercube Q_k with both arcs on every edge; triangle-free, so
    strong-prime, while its skeleton is the whole cube (k Cartesian factors)."""
    n = 1 << k
    return Digraph(n, [(v, v ^ (1 << i)) for v in range(n) for i in range(k)])


def conflict_square() -> Digraph:
    """4-cycle whose two horizontal arcs point oppositely: the shadow is
    K2 box K2 but the digraph is Cartesian-prime.  Vertices are laid out as
    0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1)."""
    return Digraph(4, [(0, 2), (3, 1), (0, 1), (2, 3)])


def undirected_shape(rng):
    """A path or cycle on 2-4 vertices with both arcs on every edge."""
    n = 2 + rng.below(3)
    ring = n > 2 and rng.below(2)
    edges = [(v, (v + 1) % n) for v in range(n if ring else n - 1)]
    return Digraph(n, edges + [(v, u) for u, v in edges])


def shadow(g):
    """(edges, adj) of g's shadow, read off its arcs: the sorted edges (u, v)
    with u < v and the set of neighbours of each vertex."""
    edges = sorted({(u, v) if u < v else (v, u) for u, v in g.arcs})
    adj = [set() for _ in range(g.n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return edges, adj


def random_orientation(g, rng):
    """The shadow of g with each edge given one arc or both, drawn from rng."""
    arcs = []
    for u, v in shadow(g)[0]:
        state = 1 + rng.below(3)  # bit 0: u -> v, bit 1: v -> u
        if state & 1:
            arcs.append((u, v))
        if state & 2:
            arcs.append((v, u))
    return Digraph(g.n, arcs)


def oriented_products(count, seed):
    """Seeded orientations of Cartesian products of 2-3 undirected paths and
    cycles: their shadows factor while most of them do not, so misoriented
    squares join factors of the shadow."""
    graphs = []
    for s in range(count):
        rng = SplitMix64(seed * 1000 + s)
        shapes = [undirected_shape(rng) for _ in range(2 + rng.below(2))]
        graphs.append(random_orientation(cartesian_product(shapes).graph, rng))
    return graphs


def relabelled(g: Digraph, seed: int) -> Digraph:
    """g under a permutation of its vertices shuffled by SplitMix64(seed)."""
    perm = list(range(g.n))
    SplitMix64(seed).shuffle(perm)
    return g.relabel(perm)


def star(n: int, kind: str) -> Digraph:
    """Hub 0 and n - 1 leaves, with arcs out of the hub, into it, or both."""
    out = [(0, v) for v in range(1, n)]
    into = [(v, 0) for v in range(1, n)]
    return Digraph(n, {"out": out, "in": into, "both": out + into}[kind])


def broom(n: int) -> Digraph:
    """A directed path 0 -> ... -> n - 1 whose end is the hub of a star on n
    more vertices, its arcs alternately out of the hub and into it."""
    path = [(v, v + 1) for v in range(n - 1)]
    bristles = [(n - 1, w) if w % 2 else (w, n - 1) for w in range(n, 2 * n)]
    return Digraph(2 * n, path + bristles)


def wheel(n: int) -> Digraph:
    """Hub 0 with an arc to each vertex of the directed cycle 1 -> ... -> n -> 1."""
    spokes = [(0, v) for v in range(1, n + 1)]
    return Digraph(n + 1, spokes + [(v, v % n + 1) for v in range(1, n + 1)])


def hub_shapes(sizes):
    """(label, digraph) for hub shapes: stars of each kind on n vertices and
    the Cartesian skeletons of those stars times P2 under the strong product,
    brooms on 2n vertices and wheels on n + 1, for each n in sizes, and
    K_{2,n} oriented hub 0 -> leaf -> hub 1 for n <= 6."""
    for n in sizes:
        for kind in ("out", "in", "both"):
            yield f"{kind}star{n}", star(n, kind)
            g = strong_product([star(n, kind), p2()]).graph
            yield f"{kind}star{n}xP2 skeleton", cartesian_skeleton(g).skeleton
        yield f"broom{n}", broom(n)
        yield f"wheel{n}", wheel(n)
    for n in range(1, 7):
        yield f"K2,{n}", oriented_k2n(n)


def oriented_k2n(n: int, hub_first: bool = True) -> Digraph:
    """K_{2,n} oriented hub -> leaf -> hub: hubs 0 and 1 and leaves 2..n+1,
    or leaves 0..n-1 and hubs n and n + 1."""
    a, b = (0, 1) if hub_first else (n, n + 1)
    leaves = range(2, n + 2) if hub_first else range(n)
    return Digraph(n + 2, [(a, v) for v in leaves] + [(v, b) for v in leaves])


def sparse_random_digraph(n: int, seed: int) -> Digraph:
    """Connected digraph on n vertices, each ordered pair an arc with
    probability 1/10, redrawn from SplitMix64(seed) until connected."""
    rng = SplitMix64(seed)
    while True:
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and not rng.below(10)]
        g = Digraph(n, arcs)
        if g.is_connected():
            return g


def bidirected(n: int, edges) -> Digraph:
    """The digraph on n vertices with both arcs on every edge."""
    return Digraph(n, [arc for u, v in edges for arc in ((u, v), (v, u))])


def mobius_ladder(n: int) -> Digraph:
    """M_n for even n: the cycle 0..n-1 and the rungs i - (i + n/2), all
    bidirected.  Every edge lies on a square, yet M_n is prime for n >= 8."""
    k = n // 2
    return bidirected(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + k) for i in range(k)])


def _twisted_grid(a: int, b: int, t: int):
    """(at, edges, step) of the twisted torus: vertex (i, j), i mod a and
    j < b, is at(i, j) and joins (i + 1, j) and step(i, j), which is
    (i, j + 1), or (i + t, 0) for j = b - 1."""

    def at(i, j):
        return i % a * b + j

    def step(i, j):
        return (i, j + 1) if j < b - 1 else (i + t, 0)

    cells = [(i, j) for i in range(a) for j in range(b)]
    edges = [(at(i, j), at(*c)) for i, j in cells for c in ((i + 1, j), step(i, j))]
    return at, edges, step


def twisted_torus(a: int, b: int, t: int) -> Digraph:
    """C_a x C_b with column b - 1 joined to column 0 shifted t rows on,
    bidirected: like a product at every square, yet prime for some t."""
    at, edges, _ = _twisted_grid(a, b, t)
    return bidirected(a * b, edges)


def twisted_strong_torus(a: int, b: int, t: int) -> Digraph:
    """The twisted torus with both diagonals of each of its squares, whose
    corners are (i, j), (i + 1, j) and the steps from both."""
    at, edges, step = _twisted_grid(a, b, t)
    for i in range(a):
        for j in range(b):
            i2, j2 = step(i, j)
            edges += [(at(i, j), at(i2 + 1, j2)), (at(i + 1, j), at(i2, j2))]
    return bidirected(a * b, edges)


def converse(g: Digraph) -> Digraph:
    """g with every arc reversed."""
    return Digraph(g.n, [(y, x) for x, y in g.arcs])


def factor_forms(factors):
    """Multiset (sorted tuple) of canonical forms, for up-to-iso comparison."""
    return sorted(canonical_form(f) for f in factors)


def respects_arcs(g: Digraph, h: Digraph, mapping) -> bool:
    """True iff v -> mapping[v] is an isomorphism from g onto h."""
    if g.n != h.n or len(set(mapping)) != g.n:
        return False
    return {(mapping[u], mapping[v]) for u, v in g.arcs} == set(h.arcs)


def blowup_mapping(g):
    """Explicit isomorphism g -> blowup(quotient(g)) by class-block layout."""
    part = s_partition(g)
    offsets = []
    run = 0
    for members in part.classes:
        offsets.append(run)
        run += len(members)
    rank = {}
    for members in part.classes:
        for r, v in enumerate(members):
            rank[v] = r
    return [offsets[part.class_of[v]] + rank[v] for v in range(g.n)]


def quotient_product_mapping(a, b):
    """Explicit isomorphism (A x B)/S -> A/S x B/S via per-factor classes."""
    prod = strong_product([a, b])
    part = s_partition(prod.graph)
    pa = s_partition(a)
    pb = s_partition(b)
    nb = len(pb.classes)
    mapping = []
    for members in part.classes:
        x, y = prod.coords[members[0]]
        mapping.append(pa.class_of[x] * nb + pb.class_of[y])
    return mapping


# Reference Cartesian checks: the quadratic loops that cartesian_pfd used
# before its per-edge coordinate check, local-square conflict test and
# least-corner square closure.  The equivalence tests compare the two on
# every graph set they draw.


def merge_colors(coloring, pairs):
    """The coloring with each pair of colors (i, j) joined, colors numbered
    by their least edge in sorted order."""
    parent = list(range(coloring.count))
    for i, j in pairs:
        _union(parent, i, j)
    order = {}
    colors = {}
    for e in sorted(coloring.colors):
        root = _find(parent, coloring.colors[e])
        if root not in order:
            order[root] = len(order)
        colors[e] = order[root]
    return EdgeColoring(colors, len(order))


def reference_closure_coloring(g):
    """Equivalence closure of the chordless-square relation of g's shadow,
    read at every corner: for each pair (a, b) of neighbours of v, va ~ vb
    unless a and b are non-adjacent with exactly one common neighbour x
    outside N[v], and va ~ bx, vb ~ ax for every such x."""
    edges, adj = shadow(g)
    eidx = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def edge(a, b):
        return eidx[(a, b) if a < b else (b, a)]

    for v in range(g.n):
        nbrs = sorted(adj[v])
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                a, b = nbrs[ai], nbrs[bi]
                if a in adj[b]:
                    # The chord ab rules out any chordless square on (va, vb).
                    _union(parent, edge(v, a), edge(v, b))
                    continue
                fourth = sorted((adj[a] & adj[b]) - adj[v] - {v})
                if len(fourth) != 1:
                    _union(parent, edge(v, a), edge(v, b))
                for x in fourth:
                    _union(parent, edge(v, a), edge(b, x))
                    _union(parent, edge(v, b), edge(a, x))

    roots = sorted({_find(parent, i) for i in range(len(edges))})
    relabel = {r: i for i, r in enumerate(roots)}
    return EdgeColoring(
        {e: relabel[_find(parent, i)] for i, e in enumerate(edges)}, len(roots)
    )


def reference_coordinatize(g, coloring):
    """(positions, coords, factor_edges) with coords and factor edges as
    vertex ids of the layers through vertex 0, or None; the coloring is
    accepted when the product edges it predicts, built in O(n * |E_i|),
    equal the edges of g's shadow."""
    n = g.n
    count = coloring.count
    by_color = [[] for _ in range(count)]
    for e, i in coloring.colors.items():
        by_color[i].append(e)

    positions = []
    total = 1
    for i in range(count):
        parent = list(range(n))
        for u, v in by_color[i]:
            _union(parent, u, v)
        layer = sorted(v for v in range(n) if _find(parent, v) == _find(parent, 0))
        positions.append(layer)
        total *= len(layer)
    if total != n:
        return None

    coords = [[0] * count for _ in range(n)]
    for i in range(count):
        parent = list(range(n))
        for j in range(count):
            if j != i:
                for u, v in by_color[j]:
                    _union(parent, u, v)
        anchor = {}
        for p in positions[i]:
            anchor.setdefault(_find(parent, p), []).append(p)
        for v in range(n):
            hits = anchor.get(_find(parent, v), ())
            if len(hits) != 1:
                return None
            coords[v][i] = hits[0]
    coord_tuples = tuple(tuple(c) for c in coords)
    index = {c: v for v, c in enumerate(coord_tuples)}
    if len(index) != n:
        return None

    factor_edges = []
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
    if expected != set(shadow(g)[0]):
        return None
    return positions, coord_tuples, factor_edges


def reference_placement(g, coloring):
    if set(coloring.colors) != set(shadow(g)[0]):
        raise InvalidColoringError("coloring does not cover the underlying edges")
    placed = reference_coordinatize(g, coloring)
    if placed is None:
        raise InvalidColoringError("coloring is not a product coloring")
    return placed


def reference_direction_conflicts(g, coloring):
    """Conflicting color pairs by the O(m * |E_i|) loop: every j-edge
    against every factor-i edge."""
    positions, coords, factor_edges = reference_placement(g, coloring)
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


def merge_conflicts(g, coloring):
    """The coloring with the two colors of every direction conflict of g
    merged, round after round, until no conflict is left."""
    while conflicts := reference_direction_conflicts(g, coloring):
        coloring = merge_colors(coloring, conflicts)
    return coloring


def reference_cartesian_pfd(g):
    """(factors, coords) as cartesian_pfd computed them with the reference
    checks; g is connected with at least two vertices."""
    coloring = reference_closure_coloring(g)
    while reference_coordinatize(g, coloring) is None:
        coloring = merge_colors(coloring, [(0, 1)])
    coloring = merge_conflicts(g, coloring)
    positions, coords, factor_edges = reference_placement(g, coloring)

    factors = []
    base = coords[0]
    index = {c: v for v, c in enumerate(coords)}
    for i in range(coloring.count):
        rank = {p: r for r, p in enumerate(positions[i])}
        arcs = []
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
    return tuple(factors), fcoords


# Reference skeleton rule: the dispensability body that rescanned per-candidate
# condition lists once per rule, on frozenset closed neighbourhoods rather
# than the package's bitmasks.  The differential in test_skeleton.py checks
# that the skeleton kernel reports the same witness on every arc, through
# dispensability and through cartesian_skeleton's ledger.


# Kept for the last few graphs: the differentials ask for the same graph's
# neighbourhoods once per arc and candidate, which more than doubles
# tests/test_skeleton.py's time when they are rebuilt each call.
@functools.lru_cache(maxsize=4)
def closed_nbhds(g):
    """Closed out- and in-neighbourhoods of every vertex, keyed by sign."""
    return {
        "+": tuple(g.out_nbhd(v) for v in range(g.n)),
        "-": tuple(g.in_nbhd(v) for v in range(g.n)),
    }


def strict_conditions(nbhds, x, y, z):
    """Strict conditions (1, 2, 3) holding for arc xy with z, for the sign
    of nbhds, as the skeleton module's docstring states them."""
    nx, ny, nz = nbhds[x], nbhds[y], nbhds[z]
    conds = []
    if nx < nz < ny:
        conds.append(1)
    if ny < nz < nx:
        conds.append(2)
    if nx & ny < nx & nz and nx & ny < ny & nz:
        conds.append(3)
    return tuple(conds)


def weak_condition(nbhds, x, y, z):
    """The non-strict variant of cond 3 for the sign of nbhds."""
    nx, ny, nz = nbhds[x], nbhds[y], nbhds[z]
    return nx & ny <= nx & nz and nx & ny <= ny & nz


def _candidates(g, x, y, exhaustive):
    if exhaustive:
        return range(g.n)
    nb = closed_nbhds(g)
    return sorted((nb["+"][x] | nb["-"][x]) & (nb["+"][y] | nb["-"][y]))


def reference_dispensability(g, x, y, *, exhaustive=False):
    """Witness for arc xy under the first rule that fires (D1 through D5,
    candidates in ascending vertex id), or None when the arc survives."""
    if (x, y) not in g.arc_set:
        raise ArcNotPresentError(f"arc ({x}, {y}) not present")
    nb = closed_nbhds(g)
    out_n, in_n = nb["+"], nb["-"]
    cands = list(_candidates(g, x, y, exhaustive))
    plus = [strict_conditions(out_n, x, y, z) for z in cands]
    minus = [strict_conditions(in_n, x, y, z) for z in cands]

    for i, z in enumerate(cands):
        if plus[i] and minus[i]:
            tokens = tuple(f"{c}+" for c in plus[i]) + tuple(f"{c}-" for c in minus[i])
            return DispensabilityWitness("D1", z=z, conditions=tokens)

    z1 = next(
        (z for i, z in enumerate(cands) if 3 in plus[i] and weak_condition(in_n, x, y, z)),
        None,
    )
    if z1 is not None:
        z2 = next(
            (z for i, z in enumerate(cands) if 3 in minus[i] and weak_condition(out_n, x, y, z)),
            None,
        )
        if z2 is not None:
            return DispensabilityWitness("D2", z1=z1, z2=z2, conditions=("3+", "3-"))

    for i, z in enumerate(cands):
        if plus[i] and (in_n[z] == in_n[x] or in_n[z] == in_n[y]):
            return DispensabilityWitness(
                "D3", z=z, conditions=tuple(f"{c}+" for c in plus[i])
            )

    for i, z in enumerate(cands):
        if minus[i] and (out_n[z] == out_n[x] or out_n[z] == out_n[y]):
            return DispensabilityWitness(
                "D4", z=z, conditions=tuple(f"{c}-" for c in minus[i])
            )

    for z1 in cands:
        if z1 in (x, y) or out_n[z1] != out_n[x] or in_n[z1] != in_n[y]:
            continue
        for z2 in cands:
            if z2 == z1 or z2 in (x, y):
                continue
            if in_n[z2] == in_n[x] and out_n[z2] == out_n[y]:
                return DispensabilityWitness("D5", z1=z1, z2=z2)

    return None
