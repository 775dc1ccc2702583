"""The relation S (equal closed out- and in-neighbourhoods) is grouped in one
place, `Digraph.classes`, and `s_partition`, `is_thin` and `quotient` read
it.  All four agree with a reference that groups on the neighbourhood
frozensets, and one `strong_pfd(g)` call groups g once and every other graph
at most once."""

import pytest

from digraph_pfd import (
    Digraph,
    blowup,
    complete_digraph,
    enumerate_connected_digraphs,
    is_thin,
    quotient,
    random_prime_digraph,
    random_thin_digraph,
    s_partition,
    strong_pfd,
    strong_product,
)
from digraph_pfd.oracle import SplitMix64

from helpers import bidirected_cube, c3, k2, p2, relabelled


def _small():
    for n in range(1, 5):
        for i, g in enumerate(enumerate_connected_digraphs(n)):
            yield f"n{n}#{i}", g


def _blowups():
    """Relabelled blow-ups of seeded thin graphs, multiplicities 1-3."""
    for s in range(40):
        rng = SplitMix64(30_000 + s)
        q = random_thin_digraph((2, 6), rng.next64())
        yield f"blowup#{s}", relabelled(blowup(q, [1 + rng.below(3) for _ in range(q.n)]), s)


def _products():
    """Relabelled strong products of two or three seeded primes, every second
    one times K2."""
    for s in range(40):
        rng = SplitMix64(40_000 + s)
        factors = [random_prime_digraph((2, 4), rng.next64()) for _ in range(2 + rng.below(2))]
        factors += [complete_digraph(2)] * (s % 2)
        yield f"product#{s}", relabelled(strong_product(factors).graph, s)


CORPUS = [*_small(), *_blowups(), *_products()]


def _reference_classes(g: Digraph) -> list[tuple[int, ...]]:
    """S classes from the neighbourhood frozensets, ordered by first member."""
    groups: dict[tuple[frozenset, frozenset], list[int]] = {}
    for v in range(g.n):
        groups.setdefault((g.out_nbhd(v), g.in_nbhd(v)), []).append(v)
    return sorted(map(tuple, groups.values()))


@pytest.mark.parametrize("g", [g for _, g in CORPUS], ids=[label for label, _ in CORPUS])
def test_classes_partition_thinness_and_quotient_match_reference(g):
    classes = _reference_classes(g)
    class_of = [0] * g.n
    for c, members in enumerate(classes):
        for v in members:
            class_of[v] = c
    rows = [set() for _ in classes]
    for u, v in g.arcs:
        if class_of[u] != class_of[v]:
            rows[class_of[u]].add(class_of[v])

    assert list(Digraph(g.n, g.arcs).classes) == classes
    part = s_partition(Digraph(g.n, g.arcs))
    assert (list(part.classes), part.class_of) == (classes, tuple(class_of))
    assert is_thin(Digraph(g.n, g.arcs)) == (len(classes) == g.n)
    q = quotient(Digraph(g.n, g.arcs))
    assert q.quotient.out_adj == tuple(tuple(sorted(r)) for r in rows)
    assert q.mult == tuple(map(len, classes))


def test_small_graphs_and_products_are_thin_and_non_thin():
    for prefix in ("n", "product#"):
        thin = {is_thin(g) for label, g in CORPUS if label.startswith(prefix)}
        assert thin == {True, False}, prefix


# Input, and how often strong_pfd groups it: the class partition of the
# input, read again by the quotient or the skeleton's thinness guard.
CASES = {
    "thin_product": (lambda: strong_product([p2(), c3()]).graph, 1),
    "non_thin_product": (lambda: strong_product([p2(), c3(), k2()]).graph, 1),
    "non_thin_prime": (lambda: blowup(strong_product([p2(), p2()]).graph, [1, 2, 2, 2]), 1),
    "triangle_free": (lambda: bidirected_cube(4), 0),
}


@pytest.mark.parametrize("case", CASES)
def test_strong_pfd_groups_each_graph_at_most_once(monkeypatch, case):
    make, groupings = CASES[case]
    grouped = []
    classes = Digraph.classes

    def counted(self):
        if self._classes is None:
            grouped.append(self)  # kept alive, so no two entries share an id
        return classes.fget(self)

    g = make()
    monkeypatch.setattr(Digraph, "classes", property(counted))
    strong_pfd(g)
    assert sum(x is g for x in grouped) == groupings
    assert len(set(map(id, grouped))) == len(grouped)
