"""Edge-list text format and DOT export.

The format is a header line "n m" followed by m lines "u v", one arc per
line and no arc twice; lines starting with "#" are comments.  Serialization
sorts arcs lexicographically so output bytes are stable and parse/serialize
round-trip exactly on normalized text.
"""

from __future__ import annotations

import re

from .digraph import Arc, Digraph
from .errors import ArityMismatchError, LoopArcError, ParseError
from .errors import SizeLimitExceededError, VertexOutOfRangeError

# An integer of the format: an optional minus sign and ASCII digits, nothing
# else that int() accepts (a plus sign, underscores, non-ASCII digits).
_INTEGER = re.compile(r"-?[0-9]+")

# Largest vertex count a header may declare; checked before anything is
# allocated for the graph.
MAX_VERTICES = 1_000_000


def parse_edge_list(text: str) -> Digraph:
    """Parse the edge-list format; raises with the offending line number."""
    header: tuple[int, int] | None = None
    arcs: dict[Arc, int] = {}  # each arc and the line that gave it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2 or not all(map(_INTEGER.fullmatch, fields)):
            raise ParseError(f"expected two integers, got {line!r}", line=lineno)
        a, b = map(int, fields)
        if header is None:
            if a < 0 or b < 0:
                raise ParseError("header counts must be non-negative", line=lineno)
            if a > MAX_VERTICES:
                raise SizeLimitExceededError(
                    f"line {lineno}: header declares {a} vertices, limit {MAX_VERTICES}"
                )
            header = (a, b)
            continue
        n = header[0]
        if a == b:
            raise LoopArcError(f"line {lineno}: loop arc ({a}, {b}) not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise VertexOutOfRangeError(
                f"line {lineno}: arc ({a}, {b}) outside 0..{n - 1}"
            )
        if (a, b) in arcs:
            raise ParseError(f"arc ({a}, {b}) repeats line {arcs[a, b]}", line=lineno)
        arcs[a, b] = lineno
    if header is None:
        raise ParseError("missing header line")
    if len(arcs) != header[1]:
        raise ArityMismatchError(
            f"header declares {header[1]} arcs but body has {len(arcs)}"
        )
    return Digraph(header[0], list(arcs))


def serialize_edge_list(g: Digraph) -> str:
    lines = [f"{g.n} {g.arc_count}"]
    lines.extend(f"{u} {v}" for u, v in g.arcs)
    return "\n".join(lines) + "\n"


def export_dot(g: Digraph) -> str:
    """Deterministic DOT output: one line per vertex, then one per arc."""
    lines = ["digraph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -> {v};" for u, v in g.arcs)
    lines.append("}")
    return "\n".join(lines) + "\n"
