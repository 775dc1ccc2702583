"""Dispensable arcs and the Cartesian skeleton of a thin digraph.

An arc xy can be witnessed as removable ("dispensable") by one of five rules
built from three strict inclusion patterns between closed neighborhoods,
checked per direction sign:

  cond 1:  N[x] < N[z] < N[y]          (all inclusions proper)
  cond 2:  N[y] < N[z] < N[x]
  cond 3:  N[x] & N[y] < N[x] & N[z]   and   N[x] & N[y] < N[y] & N[z]

together with the weak (non-strict) variant of cond 3.  The rules are:

  D1: some z satisfies an out-condition and an in-condition,
  D2: some z1 satisfies out-cond 3 plus the weak in-condition, and some z2
      satisfies in-cond 3 plus the weak out-condition,
  D3: some z satisfies an out-condition and agrees with x or y on closed
      in-neighborhoods,
  D4: the mirror of D3 with signs swapped,
  D5: distinct z1, z2 (both != x, y) with N+[x]=N+[z1], N-[x]=N-[z2],
      N-[z1]=N-[y], N+[z2]=N+[y].

The skeleton is the spanning subgraph left after deleting every dispensable
arc.  Each arc is judged against the original graph only, so the removed set
is independent of processing order.  Every witness z, z1, z2 of xy is a
transitive middle x -> z -> y, so the candidates are N+(x) & N-(y):
  - each rule asks its witnesses for N[x] & N[y] <= N[z] in both signs, the
    weak condition, which a strict condition and D3-D5's equalities imply;
  - y lies in N+[x] & N+[y] and x in N-[x] & N-[y], so y in N+[z], x in N-[z].
Neither x nor y can witness: with z = x or z = y each strict condition
compares a neighborhood with itself, and D5 excludes both, so both are
left out of the candidates.

The removal ledger reports, for each removed arc, the first rule that fires
in the order D1 to D5 and, within that rule, the least candidate.  D2's z1
and z2 are each the least on their own; D5's pair is the first (z1, z2) in
lexicographic order.  One pass over the candidates in ascending order finds
all of them: it skips a candidate that fails a weak condition, and stops at
the first D1 witness.  Conditions are tested inline against per-arc
constants of each sign: cond 1 or 2 asks N[z] to lie strictly between
N[x] & N[y] and N[x] | N[y] when one of N[x], N[y] holds the other, cond 3
to meet N[x] - N[y] and N[y] - N[x] when neither does.  So one strict
condition at most holds per sign, and the nesting of N[x] and N[y] names it
in the ledger's token.  Every rule reads the same with x and y swapped, and
the candidates of xy and of yx each hold every witness, so the skeleton
gives yx the witness of xy, D5's (z1, z2) swapped, and builds its ledger on
first read (see README step 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .digraph import Arc, Digraph
from .errors import ArcNotPresentError, NotConnectedError, NotThinError
from .relations import is_thin


@dataclass(frozen=True)
class DispensabilityWitness:
    """Which rule fired for an arc and the vertices that witnessed it.

    D1, D3 and D4 populate z; D2 and D5 populate z1 and z2.  `conditions`
    records the strict condition variants that fired, as tokens like "2+".
    """

    rule: str
    z: int | None = None
    z1: int | None = None
    z2: int | None = None
    conditions: tuple[str, ...] = ()


class SkeletonResult:
    """Spanning skeleton plus the per-arc removal ledger, in arc order.

    `removed` may be a function that builds the ledger on first read; equality,
    hash and repr read the ledger, as a frozen dataclass's would."""

    def __init__(self, skeleton: Digraph, removed: tuple | Callable[[], tuple]) -> None:
        self.skeleton, self._removed = skeleton, removed

    @property
    def removed(self) -> tuple[tuple[Arc, DispensabilityWitness], ...]:
        if callable(self._removed):
            self._removed = self._removed()
        return self._removed

    def __eq__(self, other) -> bool:
        if other.__class__ is not SkeletonResult:
            return NotImplemented
        return (self.skeleton, self.removed) == (other.skeleton, other.removed)

    def __hash__(self) -> int:
        return hash((self.skeleton, self.removed))

    def __repr__(self) -> str:
        return f"SkeletonResult(skeleton={self.skeleton!r}, removed={self.removed!r})"


def _as_witness(out_m, in_m, x: int, y: int, record: tuple) -> DispensabilityWitness:
    """The ledger entry for a kernel record of arc xy, tokens by nesting."""
    tokens = tuple(
        f"{1 if m[x] & m[y] == m[x] else 2 if m[x] & m[y] == m[y] else 3}{sign}"
        for sign, m, rules in (("+", out_m, ("D1", "D2", "D3")), ("-", in_m, ("D1", "D2", "D4")))
        if record[0] in rules
    )
    return DispensabilityWitness(*record, conditions=tokens)


def _witness(
    out_m: Sequence[int], in_m: Sequence[int], x: int, y: int, cands: int
) -> tuple | None:
    """(rule, z, z1, z2) of the witness for arc xy among cands (no x, y)."""
    ox, oy, ix, iy = out_m[x], out_m[y], in_m[x], in_m[y]
    # Per sign, as the module docstring says; "cross": neither holds the other.
    o_and, o_or, ox_only, oy_only = ox & oy, ox | oy, ox & ~oy, oy & ~ox
    i_and, i_or, ix_only, iy_only = ix & iy, ix | iy, ix & ~iy, iy & ~ix
    o_cross, i_cross = ox_only and oy_only, ix_only and iy_only
    d2_z1 = d2_z2 = d3 = d4 = None
    d5_z1, d5_z2 = [], []
    while cands:
        low = cands & -cands
        cands ^= low
        z = low.bit_length() - 1
        zo, zi = out_m[z], in_m[z]
        if zo & o_and != o_and or zi & i_and != i_and:
            continue  # fails a weak condition, so witnesses no rule
        plus = (
            zo & ox_only and zo & oy_only if o_cross else zo | o_or == o_or and o_and != zo != o_or
        )
        minus = (
            zi & ix_only and zi & iy_only if i_cross else zi | i_or == i_or and i_and != zi != i_or
        )
        if plus and minus:
            return ("D1", z, None, None)
        if plus:
            if d2_z1 is None and o_cross:
                d2_z1 = z
            if d3 is None and (zi == ix or zi == iy):
                d3 = z
        elif minus:
            if d2_z2 is None and i_cross:
                d2_z2 = z
            if d4 is None and (zo == ox or zo == oy):
                d4 = z
        else:
            # D5 twins land only here: they share a mask of each sign with x or y.
            if zo == ox and zi == iy:
                d5_z1.append(z)
            if zi == ix and zo == oy:
                d5_z2.append(z)
    if d2_z1 is not None and d2_z2 is not None:
        return ("D2", None, d2_z1, d2_z2)
    if d3 is not None:
        return ("D3", d3, None, None)
    if d4 is not None:
        return ("D4", d4, None, None)
    return next((("D5", None, a, b) for a in d5_z1 for b in d5_z2 if a != b), None)


def dispensability(g: Digraph, x: int, y: int) -> DispensabilityWitness | None:
    """Witness for arc xy under the first rule that fires, chosen as the
    module docstring states, or None when the arc survives.  Candidates are
    the transitive middles x -> z -> y, which hold every witness: a witness
    has N[x] & N[y] <= N[z] in both signs; y is in the + meet, x in the -."""
    if not g.has_arc(x, y):
        raise ArcNotPresentError(f"arc ({x}, {y}) not present")
    out_m, in_m = g.out_mask, g.in_mask
    record = _witness(out_m, in_m, x, y, out_m[x] & in_m[y] & ~(1 << x | 1 << y))
    return None if record is None else _as_witness(out_m, in_m, x, y, record)


def cartesian_skeleton(g: Digraph) -> SkeletonResult:
    """Delete every dispensable arc of a connected thin digraph.

    Non-thin input is rejected rather than silently quotiented: the skeleton's
    structural guarantees only hold for thin graphs, so callers must go
    through relations.quotient first.  These two checks are also the guards
    of strong_pfd_thin, whose first step this is.
    """
    if not g.is_connected():
        raise NotConnectedError(
            "the Cartesian skeleton and thin strong PFD require a connected graph"
        )
    if not is_thin(g):
        raise NotThinError(
            "the Cartesian skeleton and thin strong PFD require a thin graph; "
            "take the quotient first"
        )
    out_m, in_m, arc_set = g.out_mask, g.in_mask, g.arc_set
    records = []
    for arc in g.arcs:
        x, y = arc
        cands = out_m[x] & in_m[y] & ~(1 << x | 1 << y)
        if not cands or x > y and (y, x) in arc_set:  # judged with yx, which came first
            continue
        record = _witness(out_m, in_m, x, y, cands)
        if record:
            records.append((arc, record))
            if (y, x) in arc_set:
                rule, z, z1, z2 = record
                records.append(((y, x), (rule, z, z2, z1) if rule == "D5" else record))
    removed = {arc for arc, _ in records}
    rows = (tuple(w for w in ws if (u, w) not in removed) for u, ws in enumerate(g.out_adj))
    # Digraph is immutable, so an unchanged skeleton is g itself.
    return SkeletonResult(
        Digraph._derived(tuple(rows)) if records else g,
        lambda: tuple((arc, _as_witness(out_m, in_m, *arc, r)) for arc, r in sorted(records)),
    )
