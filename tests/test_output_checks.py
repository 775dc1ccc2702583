"""Every returned factorization is checked against its input by code that
`python -O` keeps, the product certificates agree with rebuilding the
product, and the empty graph has one contract for both products."""

import importlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import digraph_pfd
from digraph_pfd import (
    Digraph,
    Factorization,
    blowup,
    brute_force_strong_pfd,
    cartesian_pfd,
    cartesian_product,
    complete_digraph,
    is_cartesian_product,
    is_strong_product,
    random_connected_digraph,
    reconstruct_cartesian,
    reconstruct_strong,
    strong_pfd,
    strong_pfd_thin,
    strong_product,
)
from digraph_pfd.cli import main
from digraph_pfd.errors import GraphError, ReconstructionError, VertexOutOfRangeError

from helpers import c3, k2, mobius_ladder, p2

# (module, product certificate it looks up, factorizer, input)
CASES = [
    (
        "digraph_pfd.strong_pfd",
        "is_strong_product",
        "strong_pfd",
        strong_product([p2(), c3()]).graph,
    ),
    (
        "digraph_pfd.cartesian_pfd",
        "is_cartesian_product",
        "cartesian_pfd",
        cartesian_product([p2(), c3()]).graph,
    ),
]


def _reject(g: Digraph, f: Factorization) -> bool:
    """A certificate that fails every factorization."""
    return False


@pytest.mark.parametrize("module, attr, fn, g", CASES, ids=[c[2] for c in CASES])
def test_wrong_reconstruction_raises(monkeypatch, module, attr, fn, g):
    mod = importlib.import_module(module)
    monkeypatch.setattr(mod, attr, _reject)
    with pytest.raises(ReconstructionError):
        getattr(mod, fn)(g)


def test_one_group_of_the_closure_goes_through_the_certificate(monkeypatch):
    # The closure of the Möbius ladder M8 is refused as it is and its
    # classes group into one factor, which the certificate also refuses.
    mod = importlib.import_module("digraph_pfd.cartesian_pfd")
    monkeypatch.setattr(mod, "is_cartesian_product", _reject)
    with pytest.raises(ReconstructionError):
        mod.cartesian_pfd(mobius_ladder(8))


def test_wrong_reconstruction_raises_under_optimize():
    script = textwrap.dedent(
        """
        import importlib, sys
        from digraph_pfd.errors import ReconstructionError
        from test_output_checks import CASES, _reject

        if __debug__:
            sys.exit("asserts are on; the checks must be run under -O")
        for module, attr, fn, g in CASES:
            mod = importlib.import_module(module)
            setattr(mod, attr, _reject)
            try:
                getattr(mod, fn)(g)
            except ReconstructionError:
                continue
            sys.exit(fn + " returned a factorization that does not rebuild its input")
        """
    )
    paths = [str(Path(digraph_pfd.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("kind, factorize", [("strong", strong_pfd), ("cartesian", cartesian_pfd)])
def test_empty_graph_has_no_factors(tmp_path, capsys, kind, factorize):
    assert factorize(Digraph(0)) == Factorization((), ())
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n", encoding="utf-8")
    assert main(["factor", "--kind", kind, str(path)]) == 0
    assert capsys.readouterr().out == "0\n---\n"


def test_oracle_empty_graph_has_no_factors(tmp_path, capsys):
    assert brute_force_strong_pfd(Digraph(0)) == Factorization((), ())
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n", encoding="utf-8")
    assert main(["oracle-factor", str(path)]) == 0
    assert capsys.readouterr().out == "0\n---\n"


def test_empty_graph_has_no_thin_factors():
    assert strong_pfd_thin(Digraph(0)) == Factorization((), ())


# (product, its certificate, its reconstruction)
KINDS = [
    (strong_product, is_strong_product, reconstruct_strong),
    (cartesian_product, is_cartesian_product, reconstruct_cartesian),
]


def _holds(check) -> bool:
    """The verdict of check(), with a GraphError counting as False."""
    try:
        return check()
    except GraphError:
        return False


def _mutants(g: Digraph, f: Factorization, rng: random.Random):
    """g and f as they are, then one mutation of each kind."""
    yield g, f
    yield Digraph(g.n, g.arc_set - {rng.choice(g.arcs)}), f
    u, w = rng.sample(range(g.n), 2)
    yield Digraph(g.n, g.arc_set | {(u, w)}), f
    yield Digraph(g.n + 1, g.arcs), f
    coords = list(f.coords)
    coords[u], coords[w] = coords[w], coords[u]
    yield g, Factorization(f.factors, tuple(coords))
    j = rng.randrange(len(f.factors))
    h = f.factors[j]
    x, y = rng.sample(range(h.n), 2)
    toggled = Digraph(h.n, h.arc_set ^ {(x, y)})
    yield g, Factorization(f.factors[:j] + (toggled,) + f.factors[j + 1 :], f.coords)
    off = list(f.coords[u])
    off[j] = h.n
    yield g, Factorization(f.factors, f.coords[:u] + (tuple(off),) + f.coords[u + 1 :])
    yield g, Factorization(f.factors, f.coords[:u] + (f.coords[w],) + f.coords[u + 1 :])


def _verdicts(seed, rng, product, factors):
    """Both certificates' verdicts on a relabelled product and each of its
    mutants, each checked against rebuilding the product."""
    cg = product(factors)
    perm = list(range(cg.graph.n))
    rng.shuffle(perm)
    coords = [()] * len(perm)
    for v, c in enumerate(cg.coords):
        coords[perm[v]] = c
    f = Factorization(cg.factors, tuple(coords))
    verdicts = []
    for g, f in _mutants(cg.graph.relabel(perm), f, rng):
        for _, certify, reconstruct in KINDS:
            verdict = _holds(lambda: certify(g, f))
            assert verdict == _holds(lambda: reconstruct(f) == g), (seed, g, f)
            verdicts.append(verdict)
    return verdicts


def test_certificate_agrees_with_reconstruction():
    verdicts = []
    for seed in range(320):
        rng = random.Random(seed)
        factors = [random_connected_digraph((2, 4), 10 * seed + j) for j in range(1 + seed % 3)]
        verdicts += _verdicts(seed, rng, KINDS[seed % 2][0], factors)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_certificate_agrees_with_reconstruction_on_complete_factors():
    # The strong certificate takes a complete factor on its size alone.
    verdicts = []
    for seed in range(240):
        rng = random.Random(seed)
        factors = [random_connected_digraph((2, 4), 10 * seed + j) for j in range(seed % 3)]
        factors.insert(rng.randrange(len(factors) + 1), complete_digraph(2 + seed // 2 % 2))
        verdicts += _verdicts(seed, rng, KINDS[seed % 2][0], factors)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def _p3() -> Digraph:
    return Digraph(3, [(0, 1), (1, 2)])


# Inputs with closed out-neighbourhood classes of more than one vertex.
NON_THIN = {
    "p3_blowup_211": lambda: blowup(_p3(), [2, 1, 1]),
    "p2p2_blowup_1222": lambda: blowup(strong_product([p2(), p2()]).graph, [1, 2, 2, 2]),
    "p2_c3_k2": lambda: strong_product([p2(), c3(), k2()]).graph,
    "c3_k2": lambda: strong_product([c3(), k2()]).graph,
    "p3_k2": lambda: strong_product([_p3(), k2()]).graph,
}


def _flips(h: Digraph, count: int):
    """h with each set of `count` ordered vertex pairs toggled."""
    pairs = [(x, y) for x in range(h.n) for y in range(h.n) if x != y]
    for toggled in itertools.combinations(pairs, count):
        yield Digraph(h.n, h.arc_set ^ set(toggled))


def _class_cases(g: Digraph):
    """strong_pfd(g) with one or two arcs of one factor toggled; g as its
    own factor over identity coordinates with one arc toggled in the factor
    or in the input; and g as its own factor with two coordinates swapped."""
    f = strong_pfd(g)
    yield g, f
    for j, h in enumerate(f.factors):
        for flipped in itertools.chain(_flips(h, 1), _flips(h, 2)):
            yield g, Factorization(f.factors[:j] + (flipped,) + f.factors[j + 1 :], f.coords)
    identity = tuple((v,) for v in range(g.n))
    for flipped in _flips(g, 1):
        yield g, Factorization((flipped,), identity)
        yield flipped, Factorization((g,), identity)
    for u, w in itertools.combinations(range(g.n), 2):
        swapped = list(identity)
        swapped[u], swapped[w] = identity[w], identity[u]
        yield g, Factorization((g,), tuple(swapped))


@pytest.mark.parametrize("build", NON_THIN.values(), ids=NON_THIN)
def test_certificate_agrees_with_reconstruction_on_classes(build):
    # A class's projection must hold the coordinates of its first member,
    # and the one-factor exit must see identity coordinates.
    verdicts = []
    for g, f in _class_cases(build()):
        verdict = _holds(lambda: is_strong_product(g, f))
        assert verdict == _holds(lambda: reconstruct_strong(f) == g), (g, f)
        verdicts.append(verdict)
    assert verdicts[0] and not all(verdicts)


K2 = complete_digraph(2)
OFF_GRID = [
    Factorization((K2, K2), ((0, 0), (0, 1), (1, 0))),
    Factorization((K2,), ((0,), (5,))),
]


@pytest.mark.parametrize("f", OFF_GRID, ids=["uncovered", "out_of_range"])
@pytest.mark.parametrize("_, certify, reconstruct", KINDS, ids=["strong", "cartesian"])
def test_coordinates_off_the_grid_raise(f, _, certify, reconstruct):
    with pytest.raises(VertexOutOfRangeError):
        reconstruct(f)
    with pytest.raises(VertexOutOfRangeError):
        certify(Digraph(len(f.coords)), f)
