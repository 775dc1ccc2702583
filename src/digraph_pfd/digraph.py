"""Core digraph value type, the package's only graph type: an undirected
graph is the digraph with both arcs on every edge.

Vertices are dense integer ids 0..n-1 and every graph is immutable after
construction.  Closed neighborhoods (the vertex itself plus its successors,
respectively predecessors) are the workhorse of the whole package; they are
exposed as frozensets and as integer bitmasks so that the subset and
intersection tests of the dispensability checks run in O(n/w) word
operations.  The bitmasks take Theta(n^2) bits on sparse graphs, so they are
built on first read, as are the classes of S (equal closed out- and
in-neighborhoods), grouped on the masks.  `Digraph(n, arcs)` validates data
from callers: vertices are exact ints in 0..n-1, loops are rejected and
repeated arcs dropped.  Stage outputs derived from such graphs (skeletons,
quotients, layers, shadows) come from `Digraph._derived`, which takes sorted
out-adjacency rows and checks nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import LoopArcError, VertexOutOfRangeError

Arc = tuple[int, int]


def _check_endpoint(v: int, n: int) -> None:
    if type(v) is not int or not 0 <= v < n:
        raise VertexOutOfRangeError(f"vertex {v!r} outside 0..{n - 1}")


def _closed_masks(adj: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(sum(1 << w for w in nbrs) | 1 << v for v, nbrs in enumerate(adj))


class Digraph:
    """Immutable loop-free digraph over vertices 0..n-1."""

    __slots__ = ("n", "arcs", "arc_set", "out_adj", "in_adj", "_out_mask", "_in_mask", "_classes")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if type(n) is not int or n < 0:
            raise VertexOutOfRangeError(f"vertex count must be a non-negative int, got {n!r}")
        ids = list(range(n))  # the one int object of each vertex id
        out_lists: list[list[int]] = [[] for _ in ids]
        for arc in arcs:
            try:
                u, v = arc
            except (TypeError, ValueError):
                raise VertexOutOfRangeError(f"arc {arc!r} is not a pair of vertices") from None
            if u == v and type(u) is type(v) is int:
                raise LoopArcError(f"loop arc ({u}, {v}) not allowed")
            _check_endpoint(u, n)
            _check_endpoint(v, n)
            out_lists[u].append(ids[v])
        self._fill(tuple(tuple(sorted(set(vs))) for vs in out_lists))

    @classmethod
    def _derived(cls, out_adj: tuple[tuple[int, ...], ...]) -> "Digraph":
        """The graph with out_adj[u], ascending and without u, as u's successors."""
        g = cls.__new__(cls)
        g._fill(out_adj)
        return g

    def _fill(self, out_adj: tuple[tuple[int, ...], ...]) -> None:
        # One int object per vertex, the rows' own: dict lookups match identity first.
        ids = list(range(len(out_adj)))
        for vs in out_adj:
            for v in vs:
                ids[v] = v
        in_lists: list[list[int]] = [[] for _ in out_adj]
        arcs = [(u, v) for u, vs in zip(ids, out_adj) for v in vs]
        for u, v in arcs:
            in_lists[v].append(u)
        self.n = len(out_adj)
        self.arcs: tuple[Arc, ...] = tuple(arcs)
        self.arc_set = frozenset(set(arcs))  # a set's copy is sized to fit
        self.out_adj = out_adj
        self.in_adj = tuple(map(tuple, in_lists))
        self._out_mask = self._in_mask = self._classes = None

    @property
    def out_mask(self) -> tuple[int, ...]:
        """Closed out-neighborhood bitmasks; bit v of out_mask[v] is set."""
        if self._out_mask is None:
            self._out_mask = _closed_masks(self.out_adj)
        return self._out_mask

    @property
    def in_mask(self) -> tuple[int, ...]:
        """Closed in-neighborhood bitmasks; bit v of in_mask[v] is set."""
        if self._in_mask is None:
            self._in_mask = _closed_masks(self.in_adj)
        return self._in_mask

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes of S, each ascending, ordered by their first member."""
        if self._classes is None:
            groups: dict[tuple[int, int], list[int]] = {}
            for v, key in enumerate(zip(self.out_mask, self.in_mask)):
                groups.setdefault(key, []).append(v)
            self._classes = tuple(map(tuple, groups.values()))
        return self._classes

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def has_arc(self, u: int, v: int) -> bool:
        _check_endpoint(u, self.n)
        _check_endpoint(v, self.n)
        return (u, v) in self.arc_set

    def out_nbhd(self, v: int) -> frozenset[int]:
        """Closed out-neighborhood: v together with its successors."""
        _check_endpoint(v, self.n)
        return frozenset(self.out_adj[v]) | {v}

    def in_nbhd(self, v: int) -> frozenset[int]:
        """Closed in-neighborhood: v together with its predecessors."""
        _check_endpoint(v, self.n)
        return frozenset(self.in_adj[v]) | {v}

    def is_connected(self) -> bool:
        """Weak connectivity: a search from vertex 0 along arcs of either
        direction reaches all n vertices.  It stops as soon as the last one
        is found, so a dense input is not scanned to its end."""
        n, adjs = self.n, (self.out_adj, self.in_adj)
        if n <= 1:
            return True
        seen = bytearray(n)
        seen[0] = 1
        queue = deque([0])
        count = 1
        while queue:
            v = queue.popleft()
            for adj in adjs:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = 1
                        count += 1
                        if count == n:
                            return True
                        queue.append(w)
        return False

    def relabel(self, perm: Sequence[int]) -> "Digraph":
        """Return the image of this graph under the permutation v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise VertexOutOfRangeError("relabeling must be a permutation of 0..n-1")
        return Digraph(self.n, [(perm[u], perm[v]) for u, v in self.arcs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arc_set == other.arc_set

    def __hash__(self) -> int:
        return hash((self.n, self.arc_set))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={list(self.arcs)!r})"


def complete_digraph(n: int) -> Digraph:
    """K_n: every ordered pair of distinct vertices is an arc."""
    if type(n) is not int:
        raise VertexOutOfRangeError(f"vertex count must be a non-negative int, got {n!r}")
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
