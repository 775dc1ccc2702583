"""The library and the test helper modules hold no `assert` statement:
`python -O` strips them, so every check there must be an explicit one."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + [
    ROOT / "tests" / "helpers.py",
    ROOT / "tests" / "cartesian_oracle.py",
]


def test_library_modules_are_found():
    assert any(path.name == "strong_pfd.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.relative_to(ROOT)}: assert on line(s) {lines}"
