"""Small graphs and checks shared across the test modules."""

from digraph_pfd import (
    Digraph,
    canonical_form,
    complete_digraph,
    s_partition,
    strong_product,
)


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
    part = s_partition(g, "both")
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
    part = s_partition(prod.graph, "both")
    pa = s_partition(a, "both")
    pb = s_partition(b, "both")
    nb = len(pb.classes)
    mapping = []
    for members in part.classes:
        x, y = prod.coords[members[0]]
        mapping.append(pa.class_of[x] * nb + pb.class_of[y])
    return mapping
