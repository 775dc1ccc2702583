"""Every name that the README's "Retired name" table retires stays out of
the package: out of `digraph_pfd.__all__`, off every module of the package,
and off every class those modules define.

A row retires the name it calls (the identifier before the first "(" of
each code span in its first column) unless some replacement in the table
still uses that name; such a row retires an argument or an option only."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import digraph_pfd

README = Path(__file__).resolve().parent.parent / "README.md"
CODE = re.compile(r"`([^`]*)`")
CALLEE = re.compile(r"([A-Za-z_]\w*)\(")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _table_rows():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| Retired name"))
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        retired, replacement = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((retired, replacement))
    return rows


def retired_names():
    rows = _table_rows()
    still_used = {
        name for _, cell in rows for span in CODE.findall(cell) for name in IDENTIFIER.findall(span)
    }
    called = {
        match.group(1)
        for cell, _ in rows
        for span in CODE.findall(cell)
        if (match := CALLEE.search(span))
    }
    return sorted(called - still_used)


def _modules():
    yield digraph_pfd
    for info in pkgutil.iter_modules(digraph_pfd.__path__):
        yield importlib.import_module(f"digraph_pfd.{info.name}")


def test_table_retires_the_probes_and_the_undirected_type():
    names = set(retired_names())
    assert {"classify_edge", "layer", "vertex_at", "n_condition", "weak_n_condition"} <= names
    assert {"degree", "max_degree", "UndirectedGraph", "extract_complete_factor"} <= names
    assert "OracleConfig" in names
    assert not {"export_dot", "s_partition", "quotient", "dispensability"} & names


def test_retired_names_are_gone():
    names = retired_names()
    for module in _modules():
        classes = [
            cls
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]
        for name in names:
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)
            assert not hasattr(module, name), (module.__name__, name)
            for cls in classes:
                assert not hasattr(cls, name), (cls.__qualname__, name)
