"""Prime factorization of connected digraphs over the strong product.

Thin graphs are factored through their Cartesian skeleton: the skeleton's
Cartesian prime factors are grouped into minimal index subsets whose layers
give exact strong factors.  Arbitrary graphs first shed their maximal
complete factor, are factored at the quotient level, and the quotient factors
are then regrouped by checking that the neighborhood-class sizes split
multiplicatively (the gcd projection gives the only candidate sizes).
A strong-prime input is returned as its own single factor, with vertex v at
coordinate (v,), whichever path finds it.

Every edge of a nontrivial strong product of connected factors, K_l
included, lies in a triangle, so strong_pfd returns an input as prime, before
any mask, when vertex 0 and its least neighbour have no common neighbour.
strong_pfd_thin keeps its skeleton first, which must still reject the
triangle-free, non-thin bidirected K_2.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence

from .cartesian_pfd import _greedy_groups, cartesian_pfd
from .digraph import Digraph
from .errors import IndexOutOfRangeError, NotConnectedError, ReconstructionError
from .errors import VertexOutOfRangeError
from .factorization import Factorization, is_strong_product
from .factorization import reconstruct_strong  # noqa: F401  pfdbench/tracing.py hooks this name
from .products import _grid, _layers, _strides
from .products import strong_product  # noqa: F401  pfdbench/tracing.py hooks this name
from .relations import blowup  # noqa: F401  pfdbench/tracing.py hooks this name
from .relations import quotient, s_partition
from .skeleton import cartesian_skeleton

Coords = Sequence[tuple[int, ...]]


def _project(x: Sequence[int], idx: Iterable[int]) -> tuple[int, ...]:
    return tuple(x[i] for i in idx)


def _ranks(coords: Coords, sizes: Sequence[int], groups) -> tuple[tuple[int, ...], ...]:
    """Coordinate J of a vertex is the row-major rank of its projection onto J."""
    strides = [(J, _strides([sizes[j] for j in J])) for J in groups]
    return tuple(tuple(sum(c[j] * s for j, s in zip(J, st)) for J, st in strides) for c in coords)


def _indices(J: Iterable[int]) -> tuple[int, ...]:
    """The distinct coordinate indices of J, ascending; raises
    IndexOutOfRangeError for one that is not an exact int, bools included."""
    J = list(J)
    for j in J:
        if type(j) is not int:
            raise IndexOutOfRangeError(f"coordinate index {j!r} is not an int")
    return tuple(sorted(set(J)))


def verify_strong_grouping(
    g: Digraph, coords: Coords, J: Iterable[int]
) -> tuple[Digraph, Digraph] | None:
    """The layers (A, B) of g through vertex 0 over the coordinate set J and
    over the other coordinates, if is_strong_product certifies g = A boxtimes
    B under the row-major ranks of the two projections, else None.

    Raises VertexOutOfRangeError unless coords holds one tuple of one common
    length per vertex and those ranks are a bijection onto the grid of A and
    B, and IndexOutOfRangeError for an index in J that is not an exact int;
    an int outside the coordinates gives None.  The empty graph carries no
    factor.
    """
    if len(coords) != g.n or len(set(map(len, coords))) > 1:
        raise VertexOutOfRangeError("coords must hold one tuple of one length per vertex")
    k = len(coords[0]) if coords else 0
    j_idx = _indices(J)
    if not j_idx or any(j < 0 or j >= k for j in j_idx):
        return None
    c_idx = tuple(j for j in range(k) if j not in j_idx)
    sizes = [max(c[j] for c in coords) + 1 for j in range(k)]
    ranks = _ranks(coords, sizes, (j_idx, c_idx))
    group_sizes = [math.prod(sizes[j] for j in J) for J in (j_idx, c_idx)]
    f = Factorization(tuple(_layers(g, ranks, group_sizes, 0)), ranks)
    return f.factors if is_strong_product(g, f) else None


def _certified(g: Digraph, result: Factorization) -> Factorization:
    if not is_strong_product(g, result):
        raise ReconstructionError("result is not the strong product of its factors")
    return result


def _prime(g: Digraph) -> Factorization:
    """A strong-prime input as its own single factor, vertex v at (v,)."""
    return Factorization((g,), tuple((v,) for v in range(g.n)))


def _edge_in_no_triangle(g: Digraph) -> bool:
    """No vertex is adjacent to both vertex 0 and its least neighbour u: u's
    neighbours are looked up in the arc set, so no set is built."""
    out0, in0 = g.out_adj[0], g.in_adj[0]
    u = min(out0[0], in0[0]) if out0 and in0 else (out0 or in0)[0]
    arcs = g.arc_set
    for adj in (g.out_adj, g.in_adj):
        for w in adj[u]:
            if (0, w) in arcs or (w, 0) in arcs:
                return False
    return True


def strong_pfd_thin(g: Digraph) -> Factorization:
    """Prime factors of a connected thin digraph over the strong product.

    For thin graphs S(H boxtimes K) = S(H) box S(K), so a nontrivial product
    of connected factors has diagonal arcs that the skeleton deletes; a
    skeleton that deletes nothing proves g strong-prime.  The skeleton
    rejects a disconnected or non-thin input."""
    if g.n == 0:
        return Factorization((), ())
    return _certified(g, _thin(g))


def _thin(g: Digraph) -> Factorization:
    """strong_pfd_thin on a non-empty graph, without the final certificate."""
    sk = cartesian_skeleton(g)
    if sk.skeleton is g:
        return _prime(g)
    sk = sk.skeleton  # free the kernel's records, unread, before the Cartesian stage
    cf = cartesian_pfd(sk)

    def split(P: tuple[int, ...], rest):
        # Vertex v of a co-layer lies at the v-th point of its row-major grid.
        b, coords = rest
        parts = verify_strong_grouping(b, coords, P)
        if parts is None:
            return None
        others = [max(column) + 1 for p, column in enumerate(zip(*coords)) if p not in P]
        return parts[0], (parts[1], _grid(others))

    groups, heads = _greedy_groups(range(len(cf.factors)), (g, cf.coords), split)
    if len(groups) == 1:
        return _prime(g)
    last, _ = heads.pop()  # the co-layer left over, with its coordinates
    return Factorization((*heads, last), _ranks(cf.coords, [f.n for f in cf.factors], groups))


def gcd_multiplicity(
    table: Mapping[tuple[int, ...], int], J: Iterable[int]
) -> dict[tuple[int, ...], int]:
    """Project a class-size table onto the J coordinates by gcd; J is read
    as a set of exact int indices into the table's keys, which share one
    length."""
    j_idx = _indices(J)
    lengths = set(map(len, table))
    if len(lengths) > 1:
        raise IndexOutOfRangeError(f"class-size keys of lengths {sorted(lengths)} in one table")
    k = len(next(iter(table), ()))
    if table and j_idx and not 0 <= j_idx[0] <= j_idx[-1] < k:
        raise IndexOutOfRangeError(f"coordinate index outside 0..{k - 1}")
    out: dict[tuple[int, ...], int] = {}
    for key in table:
        proj = tuple(key[j] for j in j_idx)
        out[proj] = math.gcd(out.get(proj, 0), table[key])
    return out


def _prime_factors(value: int) -> list[int]:
    out, d = [], 2
    while value > 1:
        while value % d == 0:
            out.append(d)
            value //= d
        d += 1
    return out


def strong_pfd(g: Digraph) -> Factorization:
    """Prime factors of an arbitrary connected digraph over the strong
    product: peel off the maximal complete factor, factor the thin quotient,
    then accept exactly the index groups whose class sizes multiply back.
    Connectivity is checked here, in O(n + m), before the class partition
    builds its neighbourhood masks; only the returned result is certified."""
    if not g.is_connected():
        raise NotConnectedError("strong PFD requires a connected graph")
    if g.n == 0:
        return Factorization((), ())
    if g.n == 1 or _edge_in_no_triangle(g):
        return _certified(g, _prime(g))

    part = s_partition(g)
    if len(part.classes) == g.n:
        # Thin: the quotient is g itself with every multiplicity 1.
        return strong_pfd_thin(g)
    l = math.gcd(*part.sizes)
    h = quotient(g).quotient
    primes = _prime_factors(l)

    group_sets: list[tuple[int, ...]] = []
    tables: list[dict[tuple[int, ...], int]] = []
    coords_h: Coords = ((),) * h.n
    if h.n > 1:
        thin_f = _thin(h)
        coords_h = thin_f.coords
        table = {x: s // l for x, s in zip(coords_h, part.sizes)}

        def splits(P: tuple[int, ...], rest: dict[tuple[int, ...], int]):
            # Each class size must be its gcd projection over P times the one
            # over the others; a projection of a projection is a projection.
            others = [p for p in range(len(next(iter(rest)))) if p not in P]
            d_j, d_c = gcd_multiplicity(rest, P), gcd_multiplicity(rest, others)
            if all(m == d_j[_project(x, P)] * d_c[_project(x, others)] for x, m in rest.items()):
                return d_j, d_c
            return None

        group_sets, tables = _greedy_groups(range(len(thin_f.factors)), table, splits)
    if len(group_sets) + len(primes) == 1:
        return _certified(g, _prime(g))

    # Factor J holds a block of d_J[y] vertices per point y of the grid of J,
    # in row-major order; K_p is one block of p over no coordinates.  For each
    # factor, a vertex of the class at x takes the next mixed-radix digit of its
    # rank in the class, base |block at x_J|, plus that block's start.
    blocks = []
    for J, d_j in zip(group_sets, tables):
        grid = _grid([thin_f.factors[j].n for j in J])
        starts = itertools.accumulate((d_j[y] for y in grid), initial=0)
        blocks.append((J, {y: (d_j[y], start) for y, start in zip(grid, starts)}))
    blocks += [((), {(): (p, 0)}) for p in primes]

    fcoords: list[tuple[int, ...]] = [()] * g.n
    for members, x in zip(part.classes, coords_h):
        radix = [block[_project(x, J)] for J, block in blocks]
        for r, v in enumerate(members):
            coord = []
            for m, start in radix:
                r, digit = divmod(r, m)
                coord.append(start + digit)
            fcoords[v] = tuple(coord)
    sizes = [sum(m for m, _ in block.values()) for _, block in blocks]
    return _certified(g, Factorization(tuple(_layers(g, fcoords, sizes, 0)), tuple(fcoords)))
