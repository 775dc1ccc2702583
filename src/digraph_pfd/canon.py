"""Canonical forms and isomorphism tests for desk-scale digraphs.

The canonical form is computed by iterated neighborhood refinement plus
backtracking individualization: whenever refinement stalls, one vertex of the
first non-singleton cell is pinned and refinement restarts; the canonical
form is the lexicographically smallest arc encoding over all discrete
colorings reached.  Cells whose members all share identical closed in- and
out-neighborhoods are interchangeable by an automorphism, so only one branch
is explored for them; this keeps complete graphs and blow-ups cheap.  The
worst case is still exponential, which is acceptable because canonical forms
are only used for test assertions and factor deduplication on small graphs.
"""

from __future__ import annotations

from typing import NamedTuple

from .digraph import Arc, Digraph
from .errors import SizeLimitExceededError

MAX_VERTICES = 64


class CanonicalForm(NamedTuple):
    """Arc list under a canonical relabeling; equal iff graphs isomorphic."""

    n: int
    arcs: tuple[Arc, ...]


def _refine(g: Digraph, cells: list[list[int]]) -> list[list[int]]:
    """Split cells by the multiset of neighbor cell indices until stable."""
    while True:
        color = [0] * g.n
        for idx, cell in enumerate(cells):
            for v in cell:
                color[v] = idx
        buckets: dict[tuple, list[int]] = {}
        for idx, cell in enumerate(cells):
            for v in cell:
                sig = (
                    idx,
                    tuple(sorted(color[w] for w in g.out_adj[v])),
                    tuple(sorted(color[w] for w in g.in_adj[v])),
                )
                buckets.setdefault(sig, []).append(v)
        new_cells = [sorted(buckets[sig]) for sig in sorted(buckets)]
        if len(new_cells) == len(cells):
            return new_cells
        cells = new_cells


def _interchangeable(g: Digraph, cell: list[int]) -> bool:
    """True when any transposition inside the cell is an automorphism.

    Covers both true twins (identical closed neighborhoods) and false twins
    such as isolated vertices: u and v swap cleanly iff they agree on all
    neighbors other than themselves and are symmetrically joined."""
    out_m, in_m = g.out_mask, g.in_mask
    u = cell[0]
    bu = 1 << u
    for v in cell[1:]:
        clear = ~(bu | (1 << v))
        if (out_m[u] & clear) != (out_m[v] & clear):
            return False
        if (in_m[u] & clear) != (in_m[v] & clear):
            return False
        if (out_m[u] >> v) & 1 != (out_m[v] >> u) & 1:
            return False
    return True


def canonical_form(g: Digraph) -> CanonicalForm:
    """Canonical arc encoding; two digraphs get equal forms iff isomorphic."""
    if g.n > MAX_VERTICES:
        raise SizeLimitExceededError(
            f"canonical form limited to {MAX_VERTICES} vertices, got {g.n}"
        )
    if g.n == 0:
        return CanonicalForm(0, ())

    initial: dict[tuple[int, int], list[int]] = {}
    for v in range(g.n):
        initial.setdefault((len(g.out_adj[v]), len(g.in_adj[v])), []).append(v)
    start = [initial[key] for key in sorted(initial)]

    best: list[tuple[Arc, ...]] = []

    def descend(cells: list[list[int]]) -> None:
        cells = _refine(g, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            label = [0] * g.n
            for idx, cell in enumerate(cells):
                label[cell[0]] = idx
            arcs = tuple(sorted((label[u], label[v]) for u, v in g.arcs))
            if not best or arcs < best[0]:
                best[:] = [arcs]
            return
        cell = cells[target]
        branches = cell[:1] if _interchangeable(g, cell) else cell
        for v in branches:
            rest = [w for w in cell if w != v]
            descend(cells[:target] + [[v], rest] + cells[target + 1 :])

    descend(start)
    return CanonicalForm(g.n, best[0])


def is_isomorphic(g: Digraph, h: Digraph) -> bool:
    """Isomorphism test via canonical forms, with cheap invariant prefilters."""
    if g.n != h.n or g.arc_count != h.arc_count:
        return False
    deg = sorted((len(g.out_adj[v]), len(g.in_adj[v])) for v in range(g.n))
    if deg != sorted((len(h.out_adj[v]), len(h.in_adj[v])) for v in range(h.n)):
        return False
    return canonical_form(g) == canonical_form(h)
