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
from .digraph import Digraph, complete_digraph
from .errors import IndexOutOfRangeError, NotConnectedError, ReconstructionError
from .errors import VertexOutOfRangeError
from .factorization import Factorization, is_strong_product
from .factorization import reconstruct_strong  # noqa: F401  pfdbench/tracing.py hooks this name
from .products import _strides, strong_product
from .relations import blowup, quotient, s_partition
from .skeleton import cartesian_skeleton

Coords = Sequence[tuple[int, ...]]


def _project(x: Sequence[int], idx: Iterable[int]) -> tuple[int, ...]:
    return tuple(x[i] for i in idx)


def _layer(
    g: Digraph, coords: Coords, sizes: Sequence[int], idx: Sequence[int]
) -> tuple[Digraph, list[int]]:
    """Induced layer through vertex 0 over the idx coordinates, labelled by
    the row-major rank of the idx projection, and that rank for every vertex."""
    others = [j for j in range(len(sizes)) if j not in idx]
    strides = _strides([sizes[j] for j in idx])
    rank = [sum(c[j] * s for j, s in zip(idx, strides)) for c in coords]
    base = _project(coords[0], others)
    members = {v for v, c in enumerate(coords) if _project(c, others) == base}
    arcs = [(rank[u], rank[w]) for u in members for w in g.out_adj[u] if w in members]
    return Digraph(math.prod(sizes[j] for j in idx), arcs), rank


def verify_strong_grouping(
    g: Digraph, coords: Coords, J: Iterable[int]
) -> tuple[Digraph, Digraph] | None:
    """Test whether the coordinate subset J carries a strong factor of g.

    Candidate A is the induced layer through vertex 0 over the J coordinates,
    B the complement layer; the pair is returned iff g equals A boxtimes B
    arc-for-arc under the projection pair, else None.

    J is read as a set of coordinate indices.  The one check is the full
    certificate, is_strong_product on the two layers.  Raises
    VertexOutOfRangeError unless coords holds one tuple of one common length
    per vertex; the empty graph carries no factor.
    """
    if len(coords) != g.n or len(set(map(len, coords))) > 1:
        raise VertexOutOfRangeError("coords must hold one tuple of one length per vertex")
    k = len(coords[0]) if coords else 0
    j_idx = tuple(sorted(set(J)))
    if not j_idx or any(j < 0 or j >= k for j in j_idx):
        return None
    c_idx = tuple(j for j in range(k) if j not in j_idx)
    sizes = [max(c[j] for c in coords) + 1 for j in range(k)]
    a, rank_a = _layer(g, coords, sizes, j_idx)
    b, rank_b = _layer(g, coords, sizes, c_idx)
    if not is_strong_product(g, Factorization((a, b), tuple(zip(rank_a, rank_b)))):
        return None
    return a, b


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
    sizes = [f.n for f in cf.factors]

    groups = _greedy_groups(
        range(len(cf.factors)),
        lambda J, rest: verify_strong_grouping(g, coords, J) is not None,
    )
    if len(groups) == 1:
        return _prime(g)

    factors, ranks = zip(*(_layer(g, coords, sizes, J) for J in groups))
    return Factorization(factors, tuple(zip(*ranks)))


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

    # One lift entry (J, d_J, offsets) per factor.  A vertex of the class at x
    # takes the next mixed-radix digit of its rank in the class, base d_J[x_J],
    # plus offsets[x_J]; K_p is one block of p over no coordinates.
    factors, lift = [], []
    for J in group_sets:
        d_j = gcd_multiplicity(table, J)
        prod_j = strong_product([thin_f.factors[j] for j in J])
        block_mult = [d_j[c] for c in prod_j.coords]
        factors.append(blowup(prod_j.graph, block_mult))
        lift.append((J, d_j, dict(zip(prod_j.coords, itertools.accumulate(block_mult, initial=0)))))
    factors += [complete_digraph(p) for p in primes]
    lift += [((), {(): p}, {(): 0}) for p in primes]

    fcoords: list[tuple[int, ...]] = [()] * g.n
    for members, x in zip(part.classes, coords_h):
        radix = [(d_j[_project(x, J)], offsets[_project(x, J)]) for J, d_j, offsets in lift]
        for r, v in enumerate(members):
            coord = []
            for m, start in radix:
                r, digit = divmod(r, m)
                coord.append(start + digit)
            fcoords[v] = tuple(coord)

    return _certified(g, Factorization(tuple(factors), tuple(fcoords)))
