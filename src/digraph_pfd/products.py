"""Strong and Cartesian products with coordinatized vertices.

Product vertex ids are assigned in row-major order of the coordinate tuples
(the last factor varies fastest), which makes the n-ary construction agree
with the left-fold of the binary product and keeps all outputs bit-stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .digraph import Arc, Digraph
from .errors import EmptyFactorListError, VertexOutOfRangeError


@dataclass(frozen=True)
class CoordGraph:
    """A product digraph whose vertices carry per-factor coordinates."""

    graph: Digraph
    factors: tuple[Digraph, ...]
    coords: tuple[tuple[int, ...], ...]


def _strides(sizes: Sequence[int]) -> list[int]:
    strides = [1] * len(sizes)
    for j in range(len(sizes) - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    return strides


def _grid(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(*[range(s) for s in sizes]))


def strong_product(factors: Sequence[Digraph]) -> CoordGraph:
    """Arc xy present iff every coordinate stays equal or moves along a
    factor arc, and x != y."""
    if not factors:
        raise EmptyFactorListError("strong product needs at least one factor")
    factors = tuple(factors)
    sizes = [f.n for f in factors]
    coords = _grid(sizes)
    strides = _strides(sizes)
    closed = [
        [(v,) + f.out_adj[v] for v in range(f.n)]  # closed out-neighborhoods
        for f in factors
    ]
    arcs: list[Arc] = []
    for i, c in enumerate(coords):
        for nb in itertools.product(*[closed[j][c[j]] for j in range(len(factors))]):
            if nb != c:
                arcs.append((i, sum(x * s for x, s in zip(nb, strides))))
    return CoordGraph(Digraph(len(coords), arcs), factors, coords)


def cartesian_product(factors: Sequence[Digraph]) -> CoordGraph:
    """Arc present iff exactly one coordinate moves along a factor arc."""
    if not factors:
        raise EmptyFactorListError("cartesian product needs at least one factor")
    factors = tuple(factors)
    sizes = [f.n for f in factors]
    coords = _grid(sizes)
    strides = _strides(sizes)
    arcs: list[Arc] = []
    for i, c in enumerate(coords):
        for j, factor in enumerate(factors):
            for w in factor.out_adj[c[j]]:
                arcs.append((i, i + (w - c[j]) * strides[j]))
    return CoordGraph(Digraph(len(coords), arcs), factors, coords)


def _layers(
    g: Digraph, coords: Sequence[tuple[int, ...]], sizes: Sequence[int], v: int
) -> list[Digraph]:
    """Factor i is the subgraph of g induced on the layer through v along
    coordinate i, each vertex labelled by its coordinate i.  Raises
    VertexOutOfRangeError when a grid point of those layers holds no vertex."""
    at = {c: u for u, c in enumerate(coords)}
    base, factors = coords[v], []
    for i, size in enumerate(sizes):
        label = {at.get((*base[:i], x, *base[i + 1 :])): x for x in range(size)}
        if None in label:
            raise VertexOutOfRangeError(f"a point of the layer {i} through {v} holds no vertex")
        # label lists the layer in coordinate order, so row x is vertex x's.
        rows = (tuple(sorted(label[w] for w in g.out_adj[u] if w in label)) for u in label)
        factors.append(Digraph._derived(tuple(rows)))
    return factors
