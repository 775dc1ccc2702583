"""Prime factorization of connected digraphs over the strong product.

Thin graphs are factored through their Cartesian skeleton: the skeleton's
Cartesian prime factors are grouped into minimal index subsets whose layers
give exact strong factors.  Arbitrary graphs first shed their maximal
complete factor, are factored at the quotient level, and the quotient factors
are then regrouped by checking that the neighborhood-class sizes split
multiplicatively (the gcd projection gives the only candidate sizes).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Mapping, Sequence

from .cartesian_pfd import cartesian_pfd
from .digraph import Arc, Digraph, complete_digraph
from .errors import NotConnectedError, NotThinError, ReconstructionError
from .factorization import Factorization, reconstruct_strong
from .products import strong_product
from .relations import blowup, is_thin, quotient, s_partition
from .skeleton import cartesian_skeleton

Coords = Sequence[tuple[int, ...]]


def _project(x: Sequence[int], idx: Iterable[int]) -> tuple[int, ...]:
    return tuple(x[i] for i in idx)


def _ravel(tup: Sequence[int], sizes: Sequence[int]) -> int:
    vid = 0
    for c, s in zip(tup, sizes):
        vid = vid * s + c
    return vid


def verify_strong_grouping(
    g: Digraph, coords: Coords, J: Iterable[int]
) -> tuple[Digraph, Digraph] | None:
    """Test whether the coordinate subset J carries a strong factor of g.

    Candidate A is the induced layer through vertex 0 over the J coordinates,
    B the complement layer; the pair is returned iff g equals A boxtimes B
    arc-for-arc under the projection pair, else None.

    The check runs vertex by vertex: the closed out-neighbourhood of v must
    be exactly the product of v's closed neighbourhoods in A and B.  Vertex 0
    is tested first, before any O(n) work, with A_0 (B_0) taken as the
    projections of the members of N+[0] that keep vertex 0's complement (J)
    coordinates; for a bijective coordinate map onto a grid, which
    cartesian_pfd returns, these are exactly its neighbourhoods in the two
    layers, so most rejected subsets cost O(d k).
    """
    k = len(coords[0])
    j_idx = tuple(sorted(J))
    if not j_idx or any(j < 0 or j >= k for j in j_idx):
        return None
    c_idx = tuple(j for j in range(k) if j not in j_idx)

    def product_at(v: int, a: set, b: set, fj: Callable, fc: Callable) -> bool:
        """N+[v] is a x b under the projections fj, fc of a bijective map."""
        closed = (v,) + g.out_adj[v]
        return len(closed) == len(a) * len(b) and all(
            fj(w) in a and fc(w) in b for w in closed
        )

    def pj(v: int) -> tuple[int, ...]:
        return _project(coords[v], j_idx)

    def pc(v: int) -> tuple[int, ...]:
        return _project(coords[v], c_idx)

    base_j, base_c = pj(0), pc(0)
    closed0 = (0,) + g.out_adj[0]
    a0 = {pj(w) for w in closed0 if pc(w) == base_c}
    b0 = {pc(w) for w in closed0 if pj(w) == base_j}
    if not product_at(0, a0, b0, pj, pc):
        return None

    proj_j = [pj(v) for v in range(g.n)]
    proj_c = [pc(v) for v in range(g.n)]
    lay_a = {proj_j[v]: v for v in range(g.n) if proj_c[v] == base_c}
    lay_b = {proj_c[v]: v for v in range(g.n) if proj_j[v] == base_j}
    a_closed = {t: {t} for t in lay_a}
    for t, v in lay_a.items():
        a_closed[t].update(proj_j[w] for w in g.out_adj[v] if proj_c[w] == base_c)
    b_closed = {t: {t} for t in lay_b}
    for t, v in lay_b.items():
        b_closed[t].update(proj_c[w] for w in g.out_adj[v] if proj_j[w] == base_j)

    fj, fc = proj_j.__getitem__, proj_c.__getitem__
    if not all(
        product_at(v, a_closed[fj(v)], b_closed[fc(v)], fj, fc) for v in range(g.n)
    ):
        return None

    sizes = [max(c[j] for c in coords) + 1 for j in range(k)]
    sizes_j = [sizes[j] for j in j_idx]
    sizes_c = [sizes[j] for j in c_idx]
    arcs_a = [
        (_ravel(t, sizes_j), _ravel(s, sizes_j))
        for t, others in a_closed.items()
        for s in others
        if s != t
    ]
    arcs_b = [
        (_ravel(t, sizes_c), _ravel(s, sizes_c))
        for t, others in b_closed.items()
        for s in others
        if s != t
    ]
    return Digraph(len(lay_a), arcs_a), Digraph(len(lay_b), arcs_b)


def _group_layer(g: Digraph, coords: Coords, sizes, J) -> Digraph:
    """Induced layer through vertex 0 over the J coordinates, labeled by the
    row-major rank of the J projection."""
    j_idx = tuple(sorted(J))
    c_idx = tuple(j for j in range(len(sizes)) if j not in j_idx)
    sizes_j = [sizes[j] for j in j_idx]
    base_c = tuple(coords[0][j] for j in c_idx)
    members = {
        v: _ravel(tuple(coords[v][j] for j in j_idx), sizes_j)
        for v in range(g.n)
        if tuple(coords[v][j] for j in c_idx) == base_c
    }
    arcs: list[Arc] = [
        (members[u], members[w])
        for u in members
        for w in g.out_adj[u]
        if w in members
    ]
    return Digraph(math.prod(sizes_j), arcs)


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


def strong_pfd_thin(g: Digraph) -> Factorization:
    """Prime factors of a connected thin digraph over the strong product."""
    if not g.is_connected():
        raise NotConnectedError("strong PFD requires a connected graph")
    if not is_thin(g):
        raise NotThinError("strong_pfd_thin requires a thin graph")
    if g.n == 1:
        return Factorization((g,), ((0,),))

    sk = cartesian_skeleton(g).skeleton
    cf = cartesian_pfd(sk)
    coords = cf.coords
    sizes = [f.n for f in cf.factors]

    groups = _greedy_groups(
        range(len(cf.factors)),
        lambda J, rest: verify_strong_grouping(g, coords, J) is not None,
    )

    factors = tuple(_group_layer(g, coords, sizes, J) for J in groups)
    fcoords = tuple(
        tuple(
            _ravel(tuple(coords[v][j] for j in J), [sizes[j] for j in J])
            for J in groups
        )
        for v in range(g.n)
    )
    result = Factorization(factors, fcoords)
    if reconstruct_strong(result) != g:
        raise ReconstructionError("strong reconstruction mismatch")
    return result


def gcd_multiplicity(
    table: Mapping[tuple[int, ...], int], J: Iterable[int]
) -> dict[tuple[int, ...], int]:
    """Project a class-size table onto the J coordinates by gcd."""
    j_idx = tuple(sorted(J))
    out: dict[tuple[int, ...], int] = {}
    for key in sorted(table):
        proj = tuple(key[j] for j in j_idx)
        out[proj] = math.gcd(out.get(proj, 0), table[key])
    return out


def _prime_factors(value: int) -> list[int]:
    out = []
    d = 2
    while d * d <= value:
        while value % d == 0:
            out.append(d)
            value //= d
        d += 1
    if value > 1:
        out.append(value)
    return out


def strong_pfd(g: Digraph) -> Factorization:
    """Prime factors of an arbitrary connected digraph over the strong
    product: peel off the maximal complete factor, factor the thin quotient,
    then accept exactly the index groups whose class sizes multiply back."""
    if not g.is_connected():
        raise NotConnectedError("strong PFD requires a connected graph")
    if g.n == 1:
        return Factorization((g,), ((0,),))

    part = s_partition(g, "both")
    l = math.gcd(*part.sizes)
    mult = [s // l for s in part.sizes]
    h = quotient(g).quotient
    primes = _prime_factors(l)

    group_mults: list[dict[tuple[int, ...], int]] = []
    group_sets: list[tuple[int, ...]] = []
    group_factors: list[Digraph] = []
    group_offsets: list[list[int]] = []
    coords_h: Coords = ((),) * h.n
    if h.n > 1:
        thin_f = strong_pfd_thin(h)
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
        group_mults = [gcd_multiplicity(table, J) for J in group_sets]
        for J, d_j in zip(group_sets, group_mults):
            prod_j = strong_product([thin_f.factors[j] for j in J])
            block_mult = [d_j[c] for c in prod_j.coords]
            offsets = [0] * len(block_mult)
            run = 0
            for i, m in enumerate(block_mult):
                offsets[i] = run
                run += m
            group_factors.append(blowup(prod_j.graph, block_mult))
            group_offsets.append(offsets)

    factors = tuple(group_factors) + tuple(complete_digraph(p) for p in primes)

    sizes_h = [max(c[j] for c in coords_h) + 1 for j in range(len(coords_h[0]))] if h.n > 1 else []
    rank_in_class = {}
    for members in part.classes:
        for r, v in enumerate(members):
            rank_in_class[v] = r
    fcoords = []
    for v in range(g.n):
        x = coords_h[part.class_of[v]]
        r = rank_in_class[v]
        coord = []
        for J, d_j, offsets in zip(group_sets, group_mults, group_offsets):
            proj = tuple(x[j] for j in J)
            block = _ravel(proj, [sizes_h[j] for j in J])
            m = d_j[proj]
            coord.append(offsets[block] + r % m)
            r //= m
        for p in primes:
            coord.append(r % p)
            r //= p
        fcoords.append(tuple(coord))

    result = Factorization(factors, tuple(fcoords))
    if reconstruct_strong(result) != g:
        raise ReconstructionError("strong reconstruction mismatch")
    return result
