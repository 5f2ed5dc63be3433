"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "homlab").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, sorted.  Names listed in
    its ``__all__`` count as read."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_unused_imports_found():
    assert unused_imports("import os, math as m\nfrom x import a, b\nb\n") == ["a", "m", "os"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
