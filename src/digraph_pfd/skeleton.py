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
is independent of processing order.  Witness candidates z, z1, z2 never need
to leave (N+[x] | N-[x]) & (N+[y] | N-[y]); the optional exhaustive mode
scans all vertices instead so that this pruning stays a testable claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

from .digraph import Arc, Digraph
from .errors import ArcNotPresentError, NotConnectedError, NotThinError
from .relations import is_thin

Sign = Literal["+", "-"]


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


@dataclass(frozen=True)
class SkeletonResult:
    """Spanning skeleton plus the per-arc removal ledger, in arc order."""

    skeleton: Digraph
    removed: tuple[tuple[Arc, DispensabilityWitness], ...]


def _strict_conditions(masks: Sequence[int], x: int, y: int, z: int) -> tuple[int, ...]:
    """Strict conditions (1, 2, 3) holding for xy with z, for one sign."""
    mx, my, mz = masks[x], masks[y], masks[z]
    out = []
    if mx != mz and mx & mz == mx and mz != my and mz & my == mz:
        out.append(1)
    if my != mz and my & mz == my and mz != mx and mz & mx == mz:
        out.append(2)
    mxy = mx & my
    mxz = mx & mz
    myz = my & mz
    if mxy != mxz and mxy & mxz == mxy and mxy != myz and mxy & myz == mxy:
        out.append(3)
    return tuple(out)


def _weak_condition(masks: Sequence[int], x: int, y: int, z: int) -> bool:
    # Both non-strict inclusions collapse to N[x] & N[y] <= N[z].
    mxy = masks[x] & masks[y]
    return mxy & masks[z] == mxy


def _require_arc(g: Digraph, x: int, y: int) -> None:
    if (x, y) not in g.arc_set:
        raise ArcNotPresentError(f"arc ({x}, {y}) not present")


def _masks(g: Digraph, sign: Sign) -> Sequence[int]:
    if sign == "+":
        return g.out_mask
    if sign == "-":
        return g.in_mask
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def n_condition(g: Digraph, x: int, y: int, z: int, sign: Sign) -> int | None:
    """First strict condition (1, 2 or 3) holding for arc xy with z, if any."""
    _require_arc(g, x, y)
    conds = _strict_conditions(_masks(g, sign), x, y, z)
    return conds[0] if conds else None


def weak_n_condition(g: Digraph, x: int, y: int, z: int, sign: Sign) -> bool:
    """Non-strict variant: N[x] & N[y] contained in both N[x] & N[z] and
    N[y] & N[z]."""
    _require_arc(g, x, y)
    return _weak_condition(_masks(g, sign), x, y, z)


def _candidates(g: Digraph, x: int, y: int, exhaustive: bool) -> Iterator[int]:
    if exhaustive:
        yield from range(g.n)
        return
    mask = (g.out_mask[x] | g.in_mask[x]) & (g.out_mask[y] | g.in_mask[y])
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dispensability(
    g: Digraph, x: int, y: int, *, exhaustive: bool = False
) -> DispensabilityWitness | None:
    """Witness for arc xy under the first rule that fires (D1 through D5,
    candidates in ascending vertex id), or None when the arc survives."""
    _require_arc(g, x, y)
    out_m, in_m = g.out_mask, g.in_mask
    cands = list(_candidates(g, x, y, exhaustive))
    plus = [_strict_conditions(out_m, x, y, z) for z in cands]
    minus = [_strict_conditions(in_m, x, y, z) for z in cands]

    for i, z in enumerate(cands):
        if plus[i] and minus[i]:
            tokens = tuple(f"{c}+" for c in plus[i]) + tuple(f"{c}-" for c in minus[i])
            return DispensabilityWitness("D1", z=z, conditions=tokens)

    z1 = next(
        (z for i, z in enumerate(cands) if 3 in plus[i] and _weak_condition(in_m, x, y, z)),
        None,
    )
    if z1 is not None:
        z2 = next(
            (z for i, z in enumerate(cands) if 3 in minus[i] and _weak_condition(out_m, x, y, z)),
            None,
        )
        if z2 is not None:
            return DispensabilityWitness("D2", z1=z1, z2=z2, conditions=("3+", "3-"))

    for i, z in enumerate(cands):
        if plus[i] and (in_m[z] == in_m[x] or in_m[z] == in_m[y]):
            return DispensabilityWitness(
                "D3", z=z, conditions=tuple(f"{c}+" for c in plus[i])
            )

    for i, z in enumerate(cands):
        if minus[i] and (out_m[z] == out_m[x] or out_m[z] == out_m[y]):
            return DispensabilityWitness(
                "D4", z=z, conditions=tuple(f"{c}-" for c in minus[i])
            )

    for z1 in cands:
        if z1 in (x, y) or out_m[z1] != out_m[x] or in_m[z1] != in_m[y]:
            continue
        for z2 in cands:
            if z2 == z1 or z2 in (x, y):
                continue
            if in_m[z2] == in_m[x] and out_m[z2] == out_m[y]:
                return DispensabilityWitness("D5", z1=z1, z2=z2)

    return None


def cartesian_skeleton(g: Digraph, *, exhaustive: bool = False) -> SkeletonResult:
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
    removed = []
    kept = []
    for arc in g.arcs:
        witness = dispensability(g, arc[0], arc[1], exhaustive=exhaustive)
        if witness is None:
            kept.append(arc)
        else:
            removed.append((arc, witness))
    # Digraph is immutable, so an unchanged skeleton is g itself.
    return SkeletonResult(Digraph(g.n, kept) if removed else g, tuple(removed))
