"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Everything is seeded; no tolerance knobs exist because all
checks are exact set/multiset comparisons, except the complexity smoke test
whose factor-of-4 margin is fixed here.
"""

import time

from digraph_pfd import (
    Digraph,
    SplitMix64,
    blowup,
    brute_force_strong_pfd,
    cartesian_pfd,
    cartesian_product,
    cartesian_skeleton,
    enumerate_connected_digraphs,
    is_thin,
    quotient,
    random_connected_digraph,
    random_prime_digraph,
    random_thin_digraph,
    reconstruct_cartesian,
    reconstruct_strong,
    s_partition,
    strong_pfd,
    strong_product,
)

from helpers import (
    blowup_mapping,
    conflict_square,
    factor_forms,
    k2,
    p2,
    quotient_product_mapping,
    respects_arcs,
)


def _random_permutation(n, seed):
    rng = SplitMix64(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def test_criterion_1_oracle_equivalence_up_to_4_vertices():
    checked = 0
    for n in range(1, 5):
        for g in enumerate_connected_digraphs(n):
            mine = factor_forms(strong_pfd(g).factors)
            truth = factor_forms(brute_force_strong_pfd(g).factors)
            assert mine == truth, f"disagreement on {g!r}"
            checked += 1
    assert checked == 215
    print(f"CRITERION 1 PASS: oracle agreement on all {checked} connected classes <= 4 vertices")


def test_criterion_2_round_trip_strong_pfd():
    passed = 0
    for i in range(200):
        k = 2 + i % 2
        factors = [
            random_prime_digraph((2, 6), 210_000 + 10 * i + j) for j in range(k)
        ]
        g = strong_product(factors).graph
        g = g.relabel(_random_permutation(g.n, 220_000 + i))
        f = strong_pfd(g)
        assert factor_forms(f.factors) == factor_forms(factors), f"instance {i}"
        passed += 1
    print(f"CRITERION 2 PASS: {passed}/200 strong round trips recovered the factors")


def test_criterion_3_skeleton_product_identity():
    passed = 0
    for i in range(100):
        h = random_thin_digraph((2, 7), 310_000 + i)
        k_max = min(7, 60 // h.n)
        k = random_thin_digraph((2, k_max), 320_000 + i)
        prod = strong_product([h, k]).graph
        assert prod.n <= 60
        left = cartesian_skeleton(prod).skeleton
        right = cartesian_product(
            [cartesian_skeleton(h).skeleton, cartesian_skeleton(k).skeleton]
        ).graph
        assert left == right, f"pair {i}"
        passed += 1
    print(f"CRITERION 3 PASS: {passed}/100 skeleton product identities exact")


def test_criterion_4_skeleton_connected_spanning_equivariant():
    passed = 0
    for i in range(200):
        g = random_thin_digraph((2, 40), 410_000 + i)
        sk = cartesian_skeleton(g).skeleton
        assert sk.n == g.n
        assert sk.arc_set <= g.arc_set
        assert sk.is_connected()
        perm = _random_permutation(g.n, 420_000 + i)
        assert cartesian_skeleton(g.relabel(perm)).skeleton == sk.relabel(perm)
        passed += 1
    print(f"CRITERION 4 PASS: {passed}/200 skeletons connected, spanning, equivariant")


def _blowup_sample(seed):
    rng = SplitMix64(seed)
    core = quotient(random_connected_digraph((2, 4), rng.next64())).quotient
    mult = [1 + rng.below(3) for _ in range(core.n)]
    return blowup(core, mult)


def test_criterion_5_relations_suite():
    passed = 0
    for i in range(200):
        a = _blowup_sample(510_000 + i)
        b = _blowup_sample(520_000 + i)
        g = strong_product([a, b]).graph

        assert is_thin(g) == (is_thin(a) and is_thin(b))
        q = quotient(g)
        assert is_thin(q.quotient)
        for members in s_partition(g).classes:
            for u in members:
                for v in members:
                    if u != v:
                        assert g.has_arc(u, v)
        right = strong_product([quotient(a).quotient, quotient(b).quotient]).graph
        assert respects_arcs(q.quotient, right, quotient_product_mapping(a, b))
        rebuilt = blowup(q.quotient, list(q.mult))
        assert respects_arcs(g, rebuilt, blowup_mapping(g))
        passed += 1
    print(f"CRITERION 5 PASS: {passed}/200 relation-suite instances")


def test_criterion_6_non_thin_pipeline():
    g = strong_product([p2(), k2()]).graph
    want = factor_forms([p2(), k2()])
    assert factor_forms(strong_pfd(g).factors) == want
    assert factor_forms(brute_force_strong_pfd(g, max_vertices=12).factors) == want

    gen_a = blowup(p2(), [1, 2])
    gen_b = blowup(p2(), [1, 3])
    g = strong_product([gen_a, gen_b]).graph  # class sizes 1, 2, 3, 6
    want = factor_forms([gen_a, gen_b])
    assert factor_forms(strong_pfd(g).factors) == want
    assert factor_forms(brute_force_strong_pfd(g, max_vertices=12).factors) == want

    base = strong_product([p2(), p2()]).graph
    g = blowup(base, [1, 2, 2, 2])
    assert len(strong_pfd(g).factors) == 1
    assert len(brute_force_strong_pfd(g, max_vertices=12).factors) == 1
    assert len(strong_pfd(quotient(g).quotient).factors) == 2
    print("CRITERION 6 PASS: non-thin pipeline exact on all three constructions")


def test_criterion_7_cartesian_pfd_round_trips():
    passed = 0
    for i in range(100):
        k = 2 + i % 2
        factors = [
            random_connected_digraph((2, 6), 710_000 + 10 * i + j) for j in range(k)
        ]
        g = cartesian_product(factors).graph
        g = g.relabel(_random_permutation(g.n, 720_000 + i))
        f = cartesian_pfd(g)
        assert reconstruct_cartesian(f) == g
        whole = factor_forms(f.factors)
        parts = sorted(
            form
            for factor in factors
            for form in factor_forms(cartesian_pfd(factor).factors)
        )
        assert whole == parts, f"instance {i}"
        passed += 1
    assert len(cartesian_pfd(conflict_square()).factors) == 1
    print(f"CRITERION 7 PASS: {passed}/100 cartesian round trips; conflict square prime")


def test_criterion_8_skeleton_complexity_smoke():
    sizes = range(8, 13)  # 256 .. 4096 vertices
    measured = {}
    arcs = {}
    for k in sizes:
        g = cartesian_product([p2()] * k).graph
        arcs[k] = g.arc_count
        best = float("inf")
        for _ in range(3 if k <= 10 else 1):
            start = time.perf_counter()
            cartesian_skeleton(g)
            best = min(best, time.perf_counter() - start)
        measured[k] = best
    for k in list(sizes)[:-1]:
        time_ratio = measured[k + 1] / measured[k]
        arc_ratio = arcs[k + 1] / arcs[k]
        assert time_ratio <= 4 * arc_ratio, (
            f"k={k}: time ratio {time_ratio:.2f} exceeds 4x arc ratio {arc_ratio:.2f}"
        )
    summary = ", ".join(f"2^{k}: {measured[k] * 1e3:.0f}ms" for k in sizes)
    print(f"CRITERION 8 PASS: skeleton runtime within 4x of linear in |E| ({summary})")


def test_criterion_9_symmetric_degeneration_to_d1():
    passed = 0
    for i in range(100):
        g = random_thin_digraph((2, 20), 910_000 + i, symmetric=True)
        result = cartesian_skeleton(g)
        assert all(w.rule == "D1" for _, w in result.removed), f"instance {i}"
        passed += 1
    print(f"CRITERION 9 PASS: {passed}/100 symmetric thin graphs fire only D1")
