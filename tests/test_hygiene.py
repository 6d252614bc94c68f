"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polyaccess"


def unused_imports(tree):
    """Names the module's imports bind that nothing reads, sorted.  A name
    listed in __all__ counts as read; __future__ imports bind no name."""
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_checker_flags_a_leftover():
    """A name imported and never read is reported; a module read through an
    attribute, a re-export in __all__ and a __future__ import are not."""
    source = ("from __future__ import annotations\n"
              "import heapq\n"
              "from typing import NamedTuple\n"
              "from .poly import Polynomial\n"
              "__all__ = ['Polynomial']\n"
              "heapq.heapify([])\n")
    assert unused_imports(ast.parse(source)) == ["NamedTuple"]
