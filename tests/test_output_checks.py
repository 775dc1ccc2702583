"""Every returned factorization is checked against its input by code that
`python -O` keeps, and the empty graph has one contract for both products."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import digraph_pfd
from digraph_pfd import (
    Digraph,
    Factorization,
    cartesian_pfd,
    cartesian_product,
    strong_pfd,
    strong_product,
)
from digraph_pfd.cli import main
from digraph_pfd.errors import ReconstructionError

from helpers import c3, p2

# (module, reconstruction it looks up, factorizer, input)
CASES = [
    (
        "digraph_pfd.strong_pfd",
        "reconstruct_strong",
        "strong_pfd",
        strong_product([p2(), c3()]).graph,
    ),
    (
        "digraph_pfd.cartesian_pfd",
        "reconstruct_cartesian",
        "cartesian_pfd",
        cartesian_product([p2(), c3()]).graph,
    ),
]


def _arcless(f: Factorization) -> Digraph:
    """A wrong reconstruction: the right vertex count, no arcs."""
    return Digraph(len(f.coords))


@pytest.mark.parametrize("module, attr, fn, g", CASES, ids=[c[2] for c in CASES])
def test_wrong_reconstruction_raises(monkeypatch, module, attr, fn, g):
    mod = importlib.import_module(module)
    monkeypatch.setattr(mod, attr, _arcless)
    with pytest.raises(ReconstructionError):
        getattr(mod, fn)(g)


def test_wrong_reconstruction_raises_under_optimize():
    script = textwrap.dedent(
        """
        import importlib, sys
        from digraph_pfd.errors import ReconstructionError
        from test_output_checks import CASES, _arcless

        if __debug__:
            sys.exit("asserts are on; the checks must be run under -O")
        for module, attr, fn, g in CASES:
            mod = importlib.import_module(module)
            setattr(mod, attr, _arcless)
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
