"""Prime factorization of connected digraphs over the strong product.

Thin graphs are factored through their Cartesian skeleton: the skeleton's
Cartesian prime factors are grouped into minimal index subsets whose layers
give exact strong factors.  Arbitrary graphs first shed their maximal
complete factor, are factored at the quotient level, and the quotient factors
are then regrouped by checking that the neighborhood-class sizes split
multiplicatively (the gcd projection gives the only candidate sizes).
A strong-prime input is returned as its own single factor, with vertex v at
coordinate (v,), whichever path finds it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Mapping, Sequence

from .cartesian_pfd import cartesian_pfd
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


def _grouped(g: Digraph, coords: Coords, sizes: Sequence[int], groups) -> Factorization:
    """g over groups of coordinates: coordinate J of a vertex is the row-major
    rank of its projection onto J; the factors are the layers through vertex 0."""
    strides = [(J, _strides([sizes[j] for j in J])) for J in groups]
    ranks = tuple(tuple(sum(c[j] * s for j, s in zip(J, st)) for J, st in strides) for c in coords)
    group_sizes = [math.prod(sizes[j] for j in J) for J in groups]
    return Factorization(tuple(_layers(g, ranks, group_sizes, 0)), ranks)


def verify_strong_grouping(
    g: Digraph, coords: Coords, J: Iterable[int]
) -> tuple[Digraph, Digraph] | None:
    """The layers (A, B) of g through vertex 0 over the coordinate set J and
    over the other coordinates, if is_strong_product certifies g = A boxtimes
    B under the row-major ranks of the two projections, else None.

    Raises VertexOutOfRangeError unless coords holds one tuple of one common
    length per vertex and those ranks are a bijection onto the grid of A and
    B; the empty graph carries no factor.
    """
    if len(coords) != g.n or len(set(map(len, coords))) > 1:
        raise VertexOutOfRangeError("coords must hold one tuple of one length per vertex")
    k = len(coords[0]) if coords else 0
    j_idx = tuple(sorted(set(J)))
    if not j_idx or any(j < 0 or j >= k for j in j_idx):
        return None
    c_idx = tuple(j for j in range(k) if j not in j_idx)
    sizes = [max(c[j] for c in coords) + 1 for j in range(k)]
    f = _grouped(g, coords, sizes, (j_idx, c_idx))
    return f.factors if is_strong_product(g, f) else None


def _greedy_groups(
    indices: Iterable[int], accept: Callable[[tuple[int, ...], tuple[int, ...]], bool]
) -> list[tuple[int, ...]]:
    """Split the indices into groups.  Each group is the first proper subset J
    of the remaining indices, smallest first and then in lexicographic order,
    for which accept(J, remaining) holds; when none does, the remaining
    indices form the last group."""
    groups: list[tuple[int, ...]] = []
    remaining = tuple(indices)
    while remaining:
        found = next(
            (
                J
                for size in range(1, len(remaining))
                for J in itertools.combinations(remaining, size)
                if accept(J, remaining)
            ),
            remaining,
        )
        groups.append(found)
        remaining = tuple(j for j in remaining if j not in found)
    return groups


def _certified(g: Digraph, result: Factorization) -> Factorization:
    if not is_strong_product(g, result):
        raise ReconstructionError("result is not the strong product of its factors")
    return result


def _prime(g: Digraph) -> Factorization:
    """A strong-prime input as its own single factor, vertex v at (v,)."""
    return Factorization((g,), tuple((v,) for v in range(g.n)))


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
    if sk.skeleton is g and not sk.removed:
        return _prime(g)
    sk = sk.skeleton  # free the kernel's records, unread, before the Cartesian stage
    cf = cartesian_pfd(sk)
    coords = cf.coords

    groups = _greedy_groups(
        range(len(cf.factors)),
        lambda J, rest: verify_strong_grouping(g, coords, J) is not None,
    )
    if len(groups) == 1:
        return _prime(g)

    return _grouped(g, coords, [f.n for f in cf.factors], groups)


def gcd_multiplicity(
    table: Mapping[tuple[int, ...], int], J: Iterable[int]
) -> dict[tuple[int, ...], int]:
    """Project a class-size table onto the J coordinates by gcd; J is read
    as a set of indices into the table's keys."""
    j_idx = tuple(sorted(set(J)))
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

    part = s_partition(g, "both")
    if len(part.classes) == g.n:
        # Thin: the quotient is g itself with every multiplicity 1.
        return strong_pfd_thin(g)
    l = math.gcd(*part.sizes)
    mult = [s // l for s in part.sizes]
    h = quotient(g).quotient
    primes = _prime_factors(l)

    group_sets: list[tuple[int, ...]] = []
    coords_h: Coords = ((),) * h.n
    if h.n > 1:
        thin_f = _thin(h)
        coords_h = thin_f.coords
        table = {coords_h[v]: mult[v] for v in range(h.n)}

        def splits(J: tuple[int, ...], rest: tuple[int, ...]) -> bool:
            # The class sizes over rest must be the sizes over J times those
            # over the others; the gcd projections are the only candidates.
            others = tuple(j for j in rest if j not in J)
            d_r, d_j, d_c = (gcd_multiplicity(table, I) for I in (rest, J, others))
            return all(
                d_r[_project(x, rest)] == d_j[_project(x, J)] * d_c[_project(x, others)]
                for x in table
            )

        group_sets = _greedy_groups(range(len(thin_f.factors)), splits)
    if len(group_sets) + len(primes) == 1:
        return _certified(g, _prime(g))

    # Factor J holds a block of d_J[y] vertices per point y of the grid of J,
    # in row-major order; K_p is one block of p over no coordinates.  For each
    # factor, a vertex of the class at x takes the next mixed-radix digit of its
    # rank in the class, base |block at x_J|, plus that block's start.
    blocks = []
    for J in group_sets:
        d_j = gcd_multiplicity(table, J)
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
