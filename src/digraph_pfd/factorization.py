"""Factorization records, product certificates and exact reconstructions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .digraph import Digraph
from .errors import VertexOutOfRangeError
from .products import CoordGraph, cartesian_product, strong_product


@dataclass(frozen=True)
class Factorization:
    """Ordered factor list plus the coordinate tuple of every input vertex.

    The product of the factors under `coords` must reproduce the original
    arc set exactly; every factor is prime for the product kind it was
    produced for and has at least two vertices unless the input was K_1.
    """

    factors: tuple[Digraph, ...]
    coords: tuple[tuple[int, ...], ...]


def _vertex_index(f: Factorization) -> dict[tuple[int, ...], int]:
    """The vertex at every grid point; raises VertexOutOfRangeError unless the
    coordinates are a bijection onto the grid of the factors' vertex sets."""
    sizes = [h.n for h in f.factors]
    index = {c: v for v, c in enumerate(f.coords)}
    if any(len(c) != len(sizes) for c in index) or not all(
        0 <= min(column) and max(column) < s for column, s in zip(zip(*index), sizes)
    ):
        raise VertexOutOfRangeError("coordinates lie off the factor grid")
    if len(index) != len(f.coords) or len(index) != math.prod(sizes):
        raise VertexOutOfRangeError("coordinate map is not a bijection onto the factor grid")
    return index


def is_strong_product(g: Digraph, f: Factorization) -> bool:
    """Certificate that g is the strong product of f's factors under f's
    coordinates, without building the product.

    With the coordinates a bijection onto the grid, N+[v] is the product of
    the factor neighbourhoods N+_j[c_j(v)] exactly when every out-neighbour
    w of v has c_j(w) in N+_j[c_j(v)] for every j and |N+[v]| is the
    product of their sizes.  The vertices of one class of `g.out_mask`
    share N+[r], r the first of them, so its projection P_j, which holds
    c_j(r), is built once and each member v is checked by
    P_j <= N+_j[c_j(v)].  A complete factor's N+_j[x] holds every grid
    coordinate, so it only scales the sizes.  With `g.out_mask` cached, as
    it is inside `strong_pfd`, this costs
    O(n + sum over classes of deg k + n sum_j |N+_j|); on a graph whose
    masks were never read it first builds them, Theta(n^2) bits on sparse
    input.  When the single factor is g itself and v is at (v,), g passes
    in O(n); a factor equal to g but not g is compared arc by arc first.
    """
    if f.factors == (g,) and f.coords == tuple(zip(range(g.n))):
        return True
    _vertex_index(f)
    if g.n != len(f.coords):
        return False
    classes: dict[int, list[int]] = {}
    for v, key in enumerate(g.out_mask):
        classes.setdefault(key, []).append(v)
    size = [1] * g.n
    for h, column in zip(f.factors, zip(*f.coords)):
        if len(h.arcs) == h.n * (h.n - 1):
            size = [s * h.n for s in size]
            continue
        closed = [frozenset((x,) + h.out_adj[x]) for x in range(h.n)]
        for members in classes.values():
            r = members[0]
            p = {column[w] for w in (r, *g.out_adj[r])}
            if not all(closed[column[v]] >= p for v in members):
                return False
        size = [s * len(closed[x]) for s, x in zip(size, column)]
    return all(len(out) + 1 == s for out, s in zip(g.out_adj, size))


def is_cartesian_product(g: Digraph, f: Factorization) -> bool:
    """Certificate that g is the Cartesian product of f's factors under f's
    coordinates, in O(m k) without building the product.

    With the coordinates a bijection onto the grid, the out-neighbours of v
    are its Cartesian ones exactly when outdeg(v) = sum_j outdeg_j(c_j(v))
    and every out-neighbour w differs from v in one coordinate j alone,
    along a factor-j arc.  Every w differs in some coordinate, so it is
    enough that c_j(w) lies in N+_j[c_j(v)] for every j and that the
    coordinates moved, summed over the out-neighbours, number outdeg(v).
    When the single factor is g itself and v is at (v,), g passes in O(n).
    """
    if f.factors == (g,) and f.coords == tuple(zip(range(g.n))):
        return True
    _vertex_index(f)
    if g.n != len(f.coords):
        return False
    moved = [0] * g.n
    degree = [0] * g.n
    for h, column in zip(f.factors, zip(*f.coords)):
        closed = [frozenset((x,) + h.out_adj[x]) for x in range(h.n)]
        for v, x in enumerate(column):
            ys = list(map(column.__getitem__, g.out_adj[v]))
            if not closed[x].issuperset(ys):
                return False
            moved[v] += len(ys) - ys.count(x)
            degree[v] += len(closed[x]) - 1
    return all(len(out) == m == d for out, m, d in zip(g.out_adj, moved, degree))


def _over_input(cg: CoordGraph, f: Factorization) -> Digraph:
    """The product graph cg relabelled onto the vertices that f places at
    its coordinates."""
    index = _vertex_index(f)
    return cg.graph.relabel([index[c] for c in cg.coords])


def reconstruct_strong(f: Factorization) -> Digraph:
    """Strong product of the factors, expressed over the original vertex ids."""
    return _over_input(strong_product(f.factors), f)


def reconstruct_cartesian(f: Factorization) -> Digraph:
    """Cartesian product of the factors, expressed over the original ids."""
    return _over_input(cartesian_product(f.factors), f)
