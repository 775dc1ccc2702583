import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraph_pfd import (
    Digraph,
    blowup,
    brute_force_strong_pfd,
    cartesian_pfd,
    cartesian_skeleton,
    complete_digraph,
    gcd_multiplicity,
    is_thin,
    quotient,
    random_prime_digraph,
    reconstruct_strong,
    strong_pfd,
    strong_pfd_thin,
    strong_product,
    verify_strong_grouping,
)
from digraph_pfd.errors import (
    IndexOutOfRangeError,
    NotConnectedError,
    NotThinError,
    VertexOutOfRangeError,
)

from helpers import bidirected_cube, c3, c4_bidirected, factor_forms, k1, k2, p2, two_k2
from strategies import graph_with_permutation, thin_connected_digraphs


def _skeleton_coords(g):
    return cartesian_pfd(cartesian_skeleton(g).skeleton).coords


def test_grouping_accepts_true_factor():
    g = strong_product([p2(), p2()]).graph
    coords = _skeleton_coords(g)
    found = verify_strong_grouping(g, coords, {0})
    assert found is not None
    a, b = found
    assert a == p2() and b == p2()


def test_grouping_accepts_full_index_set_trivially():
    coords = _skeleton_coords(c3())
    found = verify_strong_grouping(c3(), coords, {0})
    assert found is not None
    a, b = found
    assert a == c3()
    assert b.n == 1


def test_grouping_reads_J_as_a_set():
    g = strong_product([p2(), p2()]).graph
    coords = _skeleton_coords(g)
    found = verify_strong_grouping(g, coords, [0])
    assert found is not None and verify_strong_grouping(g, coords, [0, 0]) == found


def test_grouping_rejects_empty_set():
    assert verify_strong_grouping(c3(), _skeleton_coords(c3()), set()) is None


def test_grouping_of_the_empty_graph_is_none():
    assert verify_strong_grouping(Digraph(0), (), [0]) is None


@pytest.mark.parametrize(
    "coords",
    [
        ((0, 0), (0, 1), (1,), (1, 1)),  # ragged
        ((0, 0), (0, 1), (1, 0)),  # one vertex short
        ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0)),  # one vertex over
        ((0, 0), (0, 0), (1, 0), (1, 1)),  # a repeated coordinate
        (),
    ],
)
def test_grouping_rejects_malformed_coords(coords):
    g = strong_product([p2(), p2()]).graph
    with pytest.raises(VertexOutOfRangeError):
        verify_strong_grouping(g, coords, [0])


@pytest.mark.parametrize(
    "J", [[0.5], [1.0], ["0"], [None], [True], [False], [0, True]], ids=lambda J: repr(J)
)
def test_coordinate_indices_are_exact_ints(J):
    # A bool is no index either, though it compares and indexes as 0 or 1.
    g = strong_product([p2(), p2()]).graph
    with pytest.raises(IndexOutOfRangeError):
        verify_strong_grouping(g, _skeleton_coords(g), J)
    with pytest.raises(IndexOutOfRangeError):
        gcd_multiplicity({(0, 0): 2, (0, 1): 4, (1, 0): 2, (1, 1): 4}, J)


def test_grouping_rejects_on_prime_with_decomposable_skeleton():
    g = c4_bidirected()
    coords = _skeleton_coords(g)
    assert len(coords[0]) == 2  # skeleton splits as K2 box K2
    assert verify_strong_grouping(g, coords, {0}) is None
    assert verify_strong_grouping(g, coords, {1}) is None


def _layer_product_arcs(g, coords, J):
    """Arcs of the strong product of the two layers through vertex 0 (over J
    and over the other coordinates), mapped back through the coordinates,
    together with the arc counts of the two layers."""
    rest = [j for j in range(len(coords[0])) if j not in J]
    pj = [tuple(c[j] for j in J) for c in coords]
    pc = [tuple(c[j] for j in rest) for c in coords]
    a_arcs = {(pj[u], pj[w]) for u, w in g.arcs if pc[u] == pc[w] == pc[0]}
    b_arcs = {(pc[u], pc[w]) for u, w in g.arcs if pj[u] == pj[w] == pj[0]}
    arcs = {
        (u, w)
        for u in range(g.n)
        for w in range(g.n)
        if u != w
        and (pj[u] == pj[w] or (pj[u], pj[w]) in a_arcs)
        and (pc[u] == pc[w] or (pc[u], pc[w]) in b_arcs)
    }
    return arcs, len(a_arcs), len(b_arcs)


def _grouping_cases():
    cases = [bidirected_cube(k) for k in (3, 4, 5)]
    # Skeletons that split further than the strong factors: some subsets are
    # rejected and some accepted in one graph.
    cases.append(strong_product([c4_bidirected(), p2()]).graph.relabel([7, 2, 5, 0, 3, 6, 1, 4]))
    cases.append(strong_product([bidirected_cube(3), c3()]).graph)
    seed = 40_000
    while len(cases) < 13:
        i = len(cases)
        primes = [random_prime_digraph((2, 4), seed + j) for j in range(2 + i % 2)]
        seed += 10
        g = strong_product(primes).graph
        if is_thin(g):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            cases.append(g.relabel(perm) if i % 2 else g)
    return cases


def test_grouping_verdict_matches_layer_product_check():
    max_k = proper_accepted = 0
    for g in _grouping_cases():
        coords = _skeleton_coords(g)
        k = len(coords[0])
        max_k = max(max_k, k)
        for size in range(1, k + 1):
            for J in itertools.combinations(range(k), size):
                arcs, a_count, b_count = _layer_product_arcs(g, coords, J)
                found = verify_strong_grouping(g, coords, J)
                assert (found is not None) == (arcs == g.arc_set), (g, J)
                if found is not None:
                    assert found[0].n * found[1].n == g.n
                    assert (found[0].arc_count, found[1].arc_count) == (a_count, b_count)
                    proper_accepted += size < k
    assert max_k >= 3 and proper_accepted > 0


def test_co_layer_split_matches_the_split_of_the_whole_input():
    # Once g = A x B under the coordinates, with J the indices of A, a set J2
    # of the other indices splits g exactly when its positions split the
    # co-layer B, whose vertex v lies at the v-th point of its row-major grid.
    co_layers = splits = 0
    for g in _grouping_cases():
        coords = _skeleton_coords(g)
        k = len(coords[0])
        for size in range(1, k):
            for J in itertools.combinations(range(k), size):
                found = verify_strong_grouping(g, coords, J)
                if found is None:
                    continue
                co_layers += 1
                others = [j for j in range(k) if j not in J]
                sizes = [max(c[j] for c in coords) + 1 for j in others]
                grid = tuple(itertools.product(*map(range, sizes)))
                for size2 in range(1, len(others) + 1):
                    for P in itertools.combinations(range(len(others)), size2):
                        whole = verify_strong_grouping(g, coords, [others[p] for p in P])
                        part = verify_strong_grouping(found[1], grid, P)
                        assert (whole is None) == (part is None), (g, J, P)
                        if whole is not None:
                            assert whole[0] == part[0], (g, J, P)
                            splits += size2 < len(others)
    assert co_layers > 0 and splits > 0


@pytest.mark.parametrize("k", [3, 4, 5])
def test_bidirected_cube_is_strong_prime(k):
    g = bidirected_cube(k)
    assert len(_skeleton_coords(g)[0]) == k
    f = strong_pfd(g)
    assert len(f.factors) == 1 and f.factors[0].n == g.n


def test_thin_pfd_round_trip_p2_p2():
    g = strong_product([p2(), p2()]).graph.relabel([2, 0, 3, 1])
    f = strong_pfd_thin(g)
    assert factor_forms(f.factors) == factor_forms([p2(), p2()])


def test_thin_pfd_round_trip_p2_c3():
    g = strong_product([p2(), c3()]).graph.relabel([5, 3, 1, 4, 2, 0])
    f = strong_pfd_thin(g)
    assert factor_forms(f.factors) == factor_forms([p2(), c3()])


def test_thin_pfd_confirms_prime_cycle():
    f = strong_pfd_thin(c3())
    oracle = brute_force_strong_pfd(c3())
    assert factor_forms(f.factors) == factor_forms(oracle.factors)
    assert len(f.factors) == 1


def test_thin_pfd_rejects_non_thin():
    with pytest.raises(NotThinError):
        strong_pfd_thin(k2())


def test_thin_pfd_requires_connected():
    for g in (Digraph(2, []), two_k2()):
        with pytest.raises(NotConnectedError):
            strong_pfd_thin(g)


def test_gcd_multiplicity_examples():
    table = {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 6}
    assert gcd_multiplicity(table, [0]) == {(0,): 1, (1,): 2}
    assert gcd_multiplicity(table, [1]) == {(0,): 1, (1,): 3}
    ones = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert gcd_multiplicity(ones, [0]) == {(0,): 1, (1,): 1}
    assert gcd_multiplicity(table, [1, 0, 1]) == gcd_multiplicity(table, [0, 1]) == table


@given(st.data())
def test_gcd_projections_compose(data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    grid = list(itertools.product(*map(range, sizes)))
    values = data.draw(st.lists(st.integers(1, 60), min_size=len(grid), max_size=len(grid)))
    table = dict(zip(grid, values))
    keep = data.draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    R = [j for j, kept in enumerate(keep) if kept]
    keep = data.draw(st.lists(st.booleans(), min_size=len(R), max_size=len(R)))
    P = [p for p, kept in enumerate(keep) if kept]
    assert gcd_multiplicity(gcd_multiplicity(table, R), P) == gcd_multiplicity(
        table, [R[p] for p in P]
    )


@pytest.mark.parametrize(
    "table, J",
    [
        *(({(0,): 2, (1,): 4}, J) for J in ([1], [-1], [0, 2])),
        # keys of different lengths: index 1 lies outside the shorter key,
        # and index 0 lies inside both but the table has no one grid
        ({(0, 1): 1, (0,): 2}, [1]),
        ({(0, 1): 2, (1,): 4}, [0]),
    ],
    ids=["J0", "J1", "J2", "ragged_outside", "ragged_inside"],
)
def test_gcd_multiplicity_rejects_an_index_outside_the_keys(table, J):
    with pytest.raises(IndexOutOfRangeError):
        gcd_multiplicity(table, J)


def test_strong_pfd_p2_k2():
    f = strong_pfd(strong_product([p2(), k2()]).graph)
    assert factor_forms(f.factors) == factor_forms([p2(), k2()])


def test_strong_pfd_blowup_generators():
    a = blowup(p2(), [1, 2])
    b = blowup(p2(), [1, 3])
    g = strong_product([a, b]).graph
    f = strong_pfd(g)
    assert factor_forms(f.factors) == factor_forms([a, b])


def test_strong_pfd_prime_blowup_with_composite_quotient():
    base = strong_product([p2(), p2()]).graph
    g = blowup(base, [1, 2, 2, 2])
    f = strong_pfd(g)
    assert len(f.factors) == 1
    assert len(strong_pfd(quotient(g).quotient).factors) == 2


def test_lift_lays_blocks_in_row_major_order():
    # A non-thin prime over the quotient factors P2 and C3, times K2: its
    # factor is the blow-up of the product of the quotient's factors, one
    # block per class in the row-major order of the products module.
    prime = blowup(strong_product([p2(), c3()]).graph, [1, 2, 2, 2, 2, 2])
    g = strong_product([prime, k2()]).graph
    q = quotient(g)
    thin = strong_pfd(q.quotient)
    grid = strong_product(thin.factors).coords
    block = dict(zip(thin.coords, q.mult))
    lifted = blowup(strong_product(thin.factors).graph, [block[x] // 2 for x in grid])
    assert strong_pfd(g).factors == (lifted, k2())


def test_strong_pfd_complete_graphs():
    f = strong_pfd(complete_digraph(6))
    assert sorted(x.n for x in f.factors) == [2, 3]
    f = strong_pfd(complete_digraph(4))
    assert sorted(x.n for x in f.factors) == [2, 2]


def test_strong_pfd_k1():
    f = strong_pfd(k1())
    assert [x.n for x in f.factors] == [1]


def test_strong_pfd_requires_connected():
    for g in (Digraph(2, []), two_k2()):
        with pytest.raises(NotConnectedError):
            strong_pfd(g)


@settings(max_examples=20)
@given(thin_connected_digraphs(min_n=1, max_n=5))
def test_thin_path_consistency(g):
    assert factor_forms(strong_pfd(g).factors) == factor_forms(
        strong_pfd_thin(g).factors
    )


@settings(max_examples=20)
@given(thin_connected_digraphs(min_n=2, max_n=4), thin_connected_digraphs(min_n=2, max_n=4))
def test_reconstruction_and_primality(a, b):
    g = strong_product([a, b]).graph
    if not is_thin(g):
        return
    f = strong_pfd(g)
    assert reconstruct_strong(f) == g
    for factor in f.factors:
        assert len(strong_pfd(factor).factors) == 1


@settings(max_examples=20)
@given(graph_with_permutation(thin_connected_digraphs(min_n=1, max_n=5)))
def test_factor_multiset_invariant_under_relabeling(gp):
    g, perm = gp
    assert factor_forms(strong_pfd(g).factors) == factor_forms(
        strong_pfd(g.relabel(perm)).factors
    )


def test_oracle_agreement_on_small_corpus():
    corpus = [
        c3(),
        k2(),
        strong_product([p2(), p2()]).graph,
        blowup(p2(), [2, 3]),
        c4_bidirected(),
        Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ]
    for g in corpus:
        assert factor_forms(strong_pfd(g).factors) == factor_forms(
            brute_force_strong_pfd(g).factors
        )
