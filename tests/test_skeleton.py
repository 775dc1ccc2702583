import importlib
import itertools

import pytest
from hypothesis import given, settings

from digraph_pfd import (
    Digraph,
    DispensabilityWitness,
    cartesian_product,
    cartesian_skeleton,
    dispensability,
    enumerate_connected_digraphs,
    is_thin,
    quotient,
    random_prime_digraph,
    random_thin_digraph,
    strong_pfd,
    strong_pfd_thin,
    strong_product,
)
from digraph_pfd.errors import ArcNotPresentError, NotConnectedError, NotThinError
from digraph_pfd.oracle import SplitMix64

from helpers import (
    c3,
    closed_nbhds,
    converse,
    k2,
    p2,
    reference_dispensability,
    strict_conditions,
    weak_condition,
)
from strategies import graph_with_permutation, thin_connected_digraphs


# The package binds the name cartesian_skeleton to the function, so fetch the module.
skeleton_mod = importlib.import_module("digraph_pfd.skeleton")


def diag_graph():
    """strong product of two single-arc graphs; 0=(0,0) ... 3=(1,1)."""
    return strong_product([p2(), p2()]).graph


def test_strict_conditions_on_diagonal():
    nb = closed_nbhds(diag_graph())
    assert strict_conditions(nb["+"], 0, 3, 1) == (2,)  # N+[3] < N+[1] < N+[0]
    assert strict_conditions(nb["-"], 0, 3, 1) == (1,)  # N-[0] < N-[1] < N-[3]


def test_dispensability_requires_arc():
    with pytest.raises(ArcNotPresentError):
        dispensability(diag_graph(), 1, 2)


def test_no_strict_condition_with_equal_neighborhoods():
    g = k2()  # N+[0] == N+[1]
    for z in range(g.n):
        assert strict_conditions(closed_nbhds(g)["+"], 0, 1, z) == ()


def test_weak_condition_with_z_equal_x():
    g = diag_graph()
    for x, y in g.arcs:
        for nbhds in closed_nbhds(g).values():
            assert weak_condition(nbhds, x, y, x)


def test_weak_condition_example():
    assert weak_condition(closed_nbhds(diag_graph())["+"], 0, 3, 2)


def test_strict_cond3_implies_weak():
    for g in [diag_graph(), *_thin_small()]:
        for x, y in g.arcs:
            for z in range(g.n):
                for nbhds in closed_nbhds(g).values():
                    if 3 in strict_conditions(nbhds, x, y, z):
                        assert weak_condition(nbhds, x, y, z)


def test_diagonal_is_dispensable_by_d1():
    w = dispensability(diag_graph(), 0, 3)
    assert w is not None
    assert w.rule == "D1"
    assert w.z == 1
    assert w.z1 is None and w.z2 is None
    assert w.conditions == ("2+", "1-")


# One thin graph per rule D2-D5 with an arc that rule removes, and the
# witness the rule reports for it.
PINNED_WITNESSES = [
    (
        5,
        [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 1), (2, 3), (3, 0), (3, 2),
         (4, 0), (4, 1), (4, 2), (4, 3)],
        (0, 1),
        DispensabilityWitness("D2", z1=4, z2=2, conditions=("3+", "3-")),
    ),
    (
        4,
        [(2, 1), (2, 3), (3, 0), (3, 1), (3, 2)],
        (3, 1),
        DispensabilityWitness("D3", z=2, conditions=("2+",)),
    ),
    (
        4,
        [(0, 2), (1, 2), (2, 1), (3, 1), (3, 2)],
        (3, 2),
        DispensabilityWitness("D4", z=1, conditions=("1-",)),
    ),
    (
        9,
        [(0, 2), (0, 6), (0, 8), (1, 7), (2, 0), (2, 1), (2, 6), (2, 7), (2, 8),
         (3, 5), (3, 6), (3, 8), (4, 7), (5, 3), (5, 4), (5, 6), (5, 7), (5, 8),
         (6, 3), (6, 5), (6, 8), (7, 4), (8, 3), (8, 4), (8, 5), (8, 6), (8, 7)],
        (3, 8),
        DispensabilityWitness("D5", z1=6, z2=5),
    ),
]


def mirrored_d5():
    """A thin strong product with four D5-removed arcs, each the reverse of
    another; the witness pair of yx is that of xy swapped."""
    p = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    q = Digraph(3, [(0, 2), (1, 2), (2, 0)])
    return strong_product([p, q]).graph


PINNED_WITNESSES += [
    (9, list(mirrored_d5().arcs), (2, 3), DispensabilityWitness("D5", z1=0, z2=5)),
    (9, list(mirrored_d5().arcs), (3, 2), DispensabilityWitness("D5", z1=5, z2=0)),
]


@pytest.mark.parametrize("n, arcs, arc, witness", PINNED_WITNESSES)
def test_pinned_witness_per_rule(n, arcs, arc, witness):
    g = Digraph(n, arcs)
    assert is_thin(g) and g.is_connected()
    assert dispensability(g, *arc) == witness == reference_dispensability(g, *arc, exhaustive=True)
    assert (arc, witness) in cartesian_skeleton(g).removed


def _relabelled_prime_products(count, seed):
    """Relabelled strong products of 2-3 random primes on 2-3 vertices; a
    factor with twins makes the product non-thin."""
    graphs = []
    for s in range(count):
        rng = SplitMix64(seed * 1000 + s)
        factors = [random_prime_digraph((2, 3), rng.next64()) for _ in range(2 + rng.below(2))]
        g = strong_product(factors).graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabel(perm))
    return graphs


def _thin_small():
    return [g for n in range(1, 5) for g in enumerate_connected_digraphs(n) if is_thin(g)]


def _thin_random():
    return [random_thin_digraph((3, 9), s) for s in range(300)]


def _relabellings(g, count, seed):
    rng = SplitMix64(seed)
    graphs = []
    for _ in range(count):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabel(perm))
    return graphs


def test_dispensability_matches_reference_ledger():
    products = _relabelled_prime_products(100, 12)
    corpora = {
        "thin n <= 4": _thin_small(),
        "random thin": _thin_random(),
        "product quotients": [quotient(g).quotient for g in products],
        "products": products,
        "mirrored D5": _relabellings(mirrored_d5(), 201, 16),
    }
    rules = set()
    for name, graphs in corpora.items():
        for g in graphs:
            ledger = []
            for x, y in g.arcs:
                got = dispensability(g, x, y)
                for exhaustive in (False, True):
                    want = reference_dispensability(g, x, y, exhaustive=exhaustive)
                    assert got == want, f"{name}: arc ({x}, {y}) of {g!r}"
                rules.add(got and got.rule)
                if got is not None:
                    ledger.append(((x, y), got))
            if is_thin(g):  # the skeleton takes thin input only
                got = cartesian_skeleton(g).removed
                assert got == tuple(ledger), f"{name}: ledger of {g!r}"
    assert rules == {None, "D1", "D2", "D3", "D4", "D5"}


def test_pipeline_builds_no_witness(monkeypatch):
    # strong_pfd reads only the skeleton; the ledger waits for a reader.
    built = []
    real = skeleton_mod.DispensabilityWitness

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(skeleton_mod, "DispensabilityWitness", counting)
    thin = strong_product([c3(), p2()]).graph
    non_thin = strong_product([k2(), c3(), p2()]).graph
    assert is_thin(thin) and not is_thin(non_thin)
    for f in (strong_pfd_thin(thin), strong_pfd(thin), strong_pfd(non_thin)):
        assert len(f.factors) > 1
    assert built == []
    for g in (thin, quotient(non_thin).quotient):
        want = [((x, y), reference_dispensability(g, x, y)) for x, y in g.arcs]
        assert cartesian_skeleton(g).removed == tuple((a, w) for a, w in want if w)
    assert built


def test_one_strict_condition_per_sign():
    # The ledger's tokens rest on this: the nesting of N[x] and N[y] names
    # the only strict condition that can hold for a sign.
    for g in _thin_small():
        for x, y in g.arcs:
            for nbhds in closed_nbhds(g).values():
                nx, ny = nbhds[x], nbhds[y]
                nesting = () if nx == ny else (1,) if nx < ny else (2,) if ny < nx else (3,)
                for z in range(g.n):
                    assert strict_conditions(nbhds, x, y, z) in ((), nesting)


def test_skeleton_and_rules_follow_every_labelling():
    for g in _thin_small():
        result = cartesian_skeleton(g)
        rules = {arc: w.rule for arc, w in result.removed}
        for perm in itertools.permutations(range(g.n)):
            moved = cartesian_skeleton(g.relabel(perm))
            assert moved.skeleton == result.skeleton.relabel(perm), (g, perm)
            moved_rules = {arc: w.rule for arc, w in moved.removed}
            assert moved_rules == {(perm[x], perm[y]): r for (x, y), r in rules.items()}


def test_skeleton_of_converse_is_converse_of_skeleton():
    for g in _thin_small() + _thin_random():
        assert cartesian_skeleton(converse(g)).skeleton == converse(
            cartesian_skeleton(g).skeleton
        ), g


def _roles(g, x, y, z):
    """The roles of rules D1-D5 that z fills for arc xy, found from the
    conditions on the closed neighbourhoods alone."""
    out_n, in_n = closed_nbhds(g).values()
    plus, minus = strict_conditions(out_n, x, y, z), strict_conditions(in_n, x, y, z)
    roles = {
        "D1 z": bool(plus and minus),
        "D2 z1": 3 in plus and weak_condition(in_n, x, y, z),
        "D2 z2": 3 in minus and weak_condition(out_n, x, y, z),
        "D3 z": bool(plus) and in_n[z] in (in_n[x], in_n[y]),
        "D4 z": bool(minus) and out_n[z] in (out_n[x], out_n[y]),
        "D5 z1": out_n[z] == out_n[x] and in_n[z] == in_n[y],
        "D5 z2": in_n[z] == in_n[x] and out_n[z] == out_n[y],
    }
    return {role for role, fills in roles.items() if fills}


def test_every_witness_is_a_transitive_middle():
    # The kernel's candidates rest on this: y lies in N+[x] & N+[y] and x in
    # N-[x] & N-[y], so a witness z, which holds both weak conditions, has
    # the arcs xz and zy.
    corpora = {
        "thin n <= 4, every labelling": [
            g.relabel(perm) for g in _thin_small() for perm in itertools.permutations(range(g.n))
        ],
        "random thin": _thin_random(),
        "mirrored D5": [mirrored_d5()],
        "products": _relabelled_prime_products(100, 12),
    }
    filled = set()
    for name, graphs in corpora.items():
        for g in graphs:
            for x, y in g.arcs:
                for z in set(range(g.n)) - {x, y}:
                    roles = _roles(g, x, y, z)
                    if roles:
                        filled |= roles
                        assert (x, z) in g.arc_set and (z, y) in g.arc_set, (name, g, x, y, z)
                        for nbhds in closed_nbhds(g).values():
                            assert weak_condition(nbhds, x, y, z), (name, g, x, y, z)
    assert len(filled) == 7


def test_endpoints_never_witness():
    # The kernel drops x and y from the candidates on this fact.
    for g in _thin_small() + _thin_random():
        for x, y in g.arcs:
            for z in (x, y):
                for nbhds in closed_nbhds(g).values():
                    assert strict_conditions(nbhds, x, y, z) == ()


def test_cartesian_arc_survives():
    assert dispensability(diag_graph(), 0, 1) is None


@settings(max_examples=25)
@given(thin_connected_digraphs(min_n=2, max_n=4), thin_connected_digraphs(min_n=2, max_n=4))
def test_non_cartesian_arcs_of_thin_products_dispensable(h, k):
    cg = strong_product([h, k])
    for u, v in cg.graph.arcs:
        cu, cv = cg.coords[u], cg.coords[v]
        if cu[0] != cv[0] and cu[1] != cv[1]:
            assert dispensability(cg.graph, u, v) is not None


# Every thin connected digraph on 2-4 vertices and seeded thin ones on 5:
# a fixed corpus, so a wrong candidate set fails on every run.
PRUNING_CORPUS = [
    *(g for n in range(2, 5) for g in enumerate_connected_digraphs(n) if is_thin(g)),
    *(random_thin_digraph((5, 5), s) for s in range(50)),
]


def test_candidate_pruning_matches_exhaustive_scan():
    assert len(PRUNING_CORPUS) == 181 + 50
    for g in PRUNING_CORPUS:
        for x, y in g.arcs:
            assert dispensability(g, x, y) == reference_dispensability(g, x, y, exhaustive=True)


def test_skeleton_of_p2_p2_is_cartesian_product():
    result = cartesian_skeleton(diag_graph())
    assert result.skeleton == cartesian_product([p2(), p2()]).graph
    assert [arc for arc, _ in result.removed] == [(0, 3)]


def test_skeleton_of_prime_is_connected_spanning():
    result = cartesian_skeleton(c3())
    assert result.skeleton.n == 3
    assert result.skeleton.is_connected()


def test_skeleton_rejects_non_thin():
    with pytest.raises(NotThinError):
        cartesian_skeleton(k2())


def test_skeleton_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        cartesian_skeleton(Digraph(2, []))


@settings(max_examples=20)
@given(thin_connected_digraphs(min_n=2, max_n=6))
def test_skeleton_spans_and_stays_connected(g):
    sk = cartesian_skeleton(g).skeleton
    assert sk.n == g.n
    assert sk.arc_set <= g.arc_set
    assert sk.is_connected()


@settings(max_examples=20)
@given(graph_with_permutation(thin_connected_digraphs(min_n=2, max_n=6)))
def test_skeleton_is_equivariant(gp):
    g, perm = gp
    assert cartesian_skeleton(g.relabel(perm)).skeleton == cartesian_skeleton(
        g
    ).skeleton.relabel(perm)


def test_skeleton_product_identity_on_seeded_pairs():
    for i in range(10):
        h = random_thin_digraph((2, 5), 4200 + i)
        k = random_thin_digraph((2, 5), 4300 + i)
        left = cartesian_skeleton(strong_product([h, k]).graph).skeleton
        right = cartesian_product(
            [cartesian_skeleton(h).skeleton, cartesian_skeleton(k).skeleton]
        ).graph
        assert left == right


def test_symmetric_thin_graphs_only_fire_d1():
    for i in range(10):
        g = random_thin_digraph((2, 12), 7100 + i, symmetric=True)
        for _, witness in cartesian_skeleton(g).removed:
            assert witness.rule == "D1"
