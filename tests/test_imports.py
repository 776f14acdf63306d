"""Every name a module of the package imports is referenced in it, and
every import sits at module level.

A stdlib ``ast`` scan in place of a linter: an imported name counts as
used when it appears as a name anywhere in the module (attribute bases
included) or in its ``__all__``.  ``from __future__`` imports are exempt.
An import inside a function body hides a dependency from the top of the
module, so none is allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "f2alg"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}"
            for line, name in sorted((line, name) for name, line in imported.items())
            if name not in used]


def nested_imports(source: str) -> list[str]:
    """Imports inside a function body, as ``line N: function``."""
    found: dict[int, str] = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.setdefault(node.lineno, fn.name)
    return [f"line {line}: {name}" for line, name in sorted(found.items())]


def test_scan_finds_an_unused_import():
    src = "import re\nfrom typing import Optional, NamedTuple\nx: NamedTuple\n"
    assert unused_imports(src) == ["line 1: re", "line 2: Optional"]


def test_scan_counts_attribute_bases_and_all():
    src = "from . import cobar\nfrom .x import y\n__all__ = ['y']\ncobar.f()\n"
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_imports_in_function_bodies():
    src = ("import re\n"
           "def f():\n    import json\n"
           "class C:\n    def m(self):\n        def g():\n"
           "            from .x import y\n")
    assert nested_imports(src) == ["line 3: f", "line 7: m"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_in_function_bodies(path):
    assert nested_imports(path.read_text()) == []
