"""Neighborhood equivalence classes, thinness, quotients and blow-ups.

Two vertices are equivalent (the relation S) when their closed out- and
in-neighborhoods both coincide.  The classes are grouped once per graph, by
`Digraph.classes`, and always ordered by their smallest member so quotient
labelings, and therefore all downstream output, are reproducible.  The
quotient is always taken by S(g) itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .digraph import Digraph
from .errors import NonThinQuotientError, ZeroMultiplicityError


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty classes covering 0..n-1, ordered by smallest member."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


@dataclass(frozen=True)
class QuotientWithMultiplicity:
    """Quotient digraph on class indices plus the class sizes."""

    quotient: Digraph
    mult: tuple[int, ...]


def s_partition(g: Digraph) -> Partition:
    """The classes of S, g.classes, with each vertex's class index."""
    class_of = [0] * g.n
    for idx, members in enumerate(g.classes):
        for v in members:
            class_of[v] = idx
    return Partition(g.classes, tuple(class_of))


def is_thin(g: Digraph) -> bool:
    """True iff all vertices are distinguished by their closed neighborhoods."""
    return len(g.classes) == g.n


def quotient(g: Digraph) -> QuotientWithMultiplicity:
    """Collapse every neighborhood class to a single vertex.

    Between distinct classes adjacency is all-or-nothing per direction, so
    the out-arcs of one representative per class stand for all member arcs;
    the result is always thin.
    """
    part = s_partition(g)
    class_of, adj = part.class_of, g.out_adj
    rows = (sorted({class_of[w] for w in adj[ms[0]]} - {c}) for c, ms in enumerate(part.classes))
    return QuotientWithMultiplicity(Digraph._derived(tuple(map(tuple, rows))), part.sizes)


def blowup(q: Digraph, mult: Sequence[int]) -> Digraph:
    """Replace vertex a of a thin graph by mult[a] pairwise bidirectionally
    adjacent copies which inherit every inter-class arc in each direction."""
    if len(mult) != q.n:
        raise ZeroMultiplicityError(f"expected {q.n} multiplicities, got {len(mult)}")
    if any(type(m) is not int or m < 1 for m in mult):
        raise ZeroMultiplicityError("multiplicities must all be ints >= 1")
    if not is_thin(q):
        raise NonThinQuotientError("blow-up base graph must be thin")
    *offsets, total = itertools.accumulate(mult, initial=0)
    blocks = [range(s, s + m) for s, m in zip(offsets, mult)]
    arcs = [(i, j) for block in blocks for i in block for j in block if i != j]
    arcs += [(i, j) for a, b in q.arcs for i in blocks[a] for j in blocks[b]]
    return Digraph(total, arcs)
