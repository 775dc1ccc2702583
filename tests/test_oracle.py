import hashlib

import pytest

from digraph_pfd import (
    Digraph,
    SplitMix64,
    brute_force_strong_pfd,
    canonical_form,
    complete_digraph,
    enumerate_connected_digraphs,
    is_thin,
    random_connected_digraph,
    random_prime_digraph,
    random_thin_digraph,
    reconstruct_strong,
    strong_product,
)
from digraph_pfd.errors import (
    NotConnectedError,
    SizeLimitExceededError,
    TimeBudgetExceededError,
    VertexOutOfRangeError,
)
from digraph_pfd import oracle
from digraph_pfd.oracle import _Budget

from helpers import c3, factor_forms, k2, p2


def test_factors_strong_square():
    g = strong_product([p2(), p2()]).graph
    f = brute_force_strong_pfd(g)
    assert factor_forms(f.factors) == factor_forms([p2(), p2()])


def test_certifies_prime_cycle():
    assert len(brute_force_strong_pfd(c3()).factors) == 1


def test_factors_k4():
    f = brute_force_strong_pfd(complete_digraph(4))
    assert factor_forms(f.factors) == factor_forms([k2(), k2()])


def test_reconstruction_invariant():
    g = strong_product([p2(), c3()]).graph
    f = brute_force_strong_pfd(g)
    assert reconstruct_strong(f) == g


def test_relabeling_invariance():
    g = strong_product([p2(), k2()]).graph
    h = g.relabel([2, 0, 3, 1])
    assert factor_forms(brute_force_strong_pfd(g).factors) == factor_forms(
        brute_force_strong_pfd(h).factors
    )


def test_size_limit():
    with pytest.raises(SizeLimitExceededError):
        brute_force_strong_pfd(complete_digraph(11))


def test_requires_connected():
    with pytest.raises(NotConnectedError):
        brute_force_strong_pfd(Digraph(2, []))


def test_budget_mechanism_trips():
    budget = _Budget(0.0)
    with pytest.raises(TimeBudgetExceededError):
        for _ in range(5000):
            budget.tick()


def test_enumerate_n1():
    assert list(enumerate_connected_digraphs(1)) == [Digraph(1)]


def test_enumerate_n2():
    forms = {canonical_form(g) for g in enumerate_connected_digraphs(2)}
    assert forms == {canonical_form(p2()), canonical_form(k2())}


def test_enumerate_n3_two_pass_crosscheck():
    # filter-then-canonicalize is what the enumerator does; redo it the
    # other way around and compare.
    import itertools

    first = list(enumerate_connected_digraphs(3))
    all_forms = set()
    pairs = list(itertools.combinations(range(3), 2))
    for states in itertools.product(range(4), repeat=len(pairs)):
        arcs = []
        for (u, v), s in zip(pairs, states):
            if s & 1:
                arcs.append((u, v))
            if s & 2:
                arcs.append((v, u))
        all_forms.add(canonical_form(Digraph(3, arcs)))
    connected_forms = {
        f for f in all_forms if Digraph(f.n, f.arcs).is_connected()
    }
    assert {canonical_form(g) for g in first} == connected_forms
    assert len(first) == len(connected_forms)


def test_enumerate_size_limit():
    with pytest.raises(SizeLimitExceededError):
        list(enumerate_connected_digraphs(5))


def test_splitmix_reference_stream():
    rng = SplitMix64(0)
    first = [rng.next64() for _ in range(3)]
    rng2 = SplitMix64(0)
    assert first == [rng2.next64() for _ in range(3)]
    assert all(0 <= x < 2**64 for x in first)


def test_samplers_are_deterministic():
    a = random_connected_digraph((2, 6), 42)
    b = random_connected_digraph((2, 6), 42)
    assert a == b
    assert random_thin_digraph((2, 6), 7) == random_thin_digraph((2, 6), 7)
    assert random_prime_digraph((2, 5), 9) == random_prime_digraph((2, 5), 9)


def test_thin_sampler_postcondition():
    for seed in range(5):
        g = random_thin_digraph((2, 8), seed)
        assert g.is_connected() and is_thin(g)


def test_symmetric_sampler_postcondition():
    g = random_thin_digraph((3, 8), 11, symmetric=True)
    assert all((v, u) in g.arc_set for u, v in g.arcs)


def test_prime_sampler_postcondition():
    for seed in range(5):
        g = random_prime_digraph((2, 5), seed)
        assert len(brute_force_strong_pfd(g).factors) == 1


def test_prime_sampler_rejects_k1_range():
    with pytest.raises(VertexOutOfRangeError):
        random_prime_digraph((1, 1), 0)


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_prime_sampler_refuses_sizes_over_the_oracle_limit(monkeypatch):
    # Refused before the first draw, whatever the range's lower end.
    monkeypatch.setattr(oracle, "_random_digraph", _refuse)
    for n_range in ((oracle.MAX_VERTICES + 1,) * 2, (2, 2000)):
        with pytest.raises(SizeLimitExceededError):
            random_prime_digraph(n_range, 0)


def test_sampler_streams_are_fixed():
    """The seeded draws of every sampler, which many fixtures rely on, hash
    as they were recorded; a change of the size or arc draws changes it."""

    def draws():
        for seed in range(150):
            for symmetric in (False, True):
                yield random_connected_digraph((1, 7), seed, symmetric=symmetric)
                yield random_thin_digraph((2, 7), seed, symmetric=symmetric)
            yield random_prime_digraph((2, 5), seed)

    digest = hashlib.sha256("\n".join(map(repr, draws())).encode()).hexdigest()
    assert digest == "c5153a728511e56913337dd8ac5181417395937d115277b91c6af6156d9958eb"


@pytest.mark.parametrize(
    "sampler", [random_connected_digraph, random_thin_digraph, random_prime_digraph]
)
def test_samplers_reject_inverted_range(sampler):
    with pytest.raises(VertexOutOfRangeError):
        sampler((5, 3), 0)
