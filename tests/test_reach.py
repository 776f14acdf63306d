"""Every definition of the package is reached from a program path.

A stdlib ``ast`` scan in the style of ``test_options.py``.  The roots are
the console script ``f2alg.cli:main`` (read from ``pyproject.toml``), the
benchmark (``perfbench/``), the demos (``demos/``) and the acceptance
criteria (``tests/test_acceptance.py``).  A definition is a module-level
function, class or assigned name, or a method or class-level constant
of a class in ``src/f2alg``.  Reach is by name alone: a reached body
reaches every name it mentions, as a bare name, an attribute, an
imported name or a string constant (``perfbench/tracer.py`` names the
methods it wraps by string), and a name reaches every definition that
bears it, in any module or class.  A method or class-level constant is
reached only through an attribute or a string, never by a bare name,
which in Python cannot name it.  A class body outside its methods,
and its dunder methods, which Python calls by protocol, are reached
with the class.  Module-level statements other than definitions and
imports run on import, so they are roots too.
"""

import ast
import re
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "f2alg"
ROOT_FILES = [ROOT / "tests" / "test_acceptance.py",
              *sorted((ROOT / "perfbench").rglob("*.py")),
              *sorted((ROOT / "demos").rglob("*.py"))]
TRACER = ROOT / "perfbench" / "tracer.py"

# definitions kept although no program path reaches them
ALLOWED = {
    "grouphom.assert_resolution": "the exactness check of a resolution, run by the tests",
    "hopf.HopfAlgebra.from_json": "the reader paired with to_json, so the JSON form round-trips",
    "__init__.__version__": "the package version, read by tooling rather than by code",
}

# definitions that only the method names in perfbench/tracer.py's SPANS
# reach: the benchmark times them, and no other program path calls them
TRACED_ONLY = {
    "cobar.BigradedComplex.boundary_bits": "row i of d at (g, s); program paths read rows through row_fn",
    "cobar.CobarComplex.boundary_bits": "the class-dict alias the tracer wraps as cobar.rows_s",
    "cobar.ConeComplex.boundary_bits": "the class-dict alias the tracer wraps as cobar.rows_s",
    "cobar.CobarComplex.word_index": "the tests' word model; timed as cobar.words_s",
    "f2linalg.F2Matrix.solve": "the tests' lift reference; timed as f2linalg.solve_s",
    "f2linalg.F2Matrix.transpose": "read by the tests only; timed as f2linalg.transpose_s",
    "f2linalg.Subspace.intersect": "read by the tests only; timed as f2linalg.span_s",
    "f2linalg.Subspace.sum": "read by the tests only; timed as f2linalg.span_s",
}


class Definition(NamedTuple):
    qualname: str  # module.name or module.Class.name
    name: str  # "name" at module level, ".name" for a class member
    refs: frozenset  # the names its body mentions


def names_in(nodes) -> set:
    """The names mentioned: a bare or imported name as "name", which only
    a module-level definition bears; an attribute or a string as both
    "name" and ".name", which a class member bears too."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute):
                out |= {node.attr, "." + node.attr}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out |= {node.value, "." + node.value}
    return out


def _defined(node) -> list[str]:
    """The names a statement defines: a function or class, or the names
    an assignment with a value binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(module: str, source: str) -> tuple[list[Definition], set]:
    """The definitions of one module and the names its import-time
    statements mention."""
    defs: list[Definition] = []
    roots: set = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            own = [*node.bases, *node.keywords, *node.decorator_list]
            for item in node.body:
                names = [n for n in _defined(item) if not _is_dunder(n)]
                defs += [Definition(f"{module}.{node.name}.{n}", "." + n, frozenset(names_in([item])))
                         for n in names]
                if not names:
                    own.append(item)
            defs.append(Definition(f"{module}.{node.name}", node.name, frozenset(names_in(own))))
        elif names := _defined(node):
            defs += [Definition(f"{module}.{n}", n, frozenset(names_in([node]))) for n in names]
        elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            roots |= names_in([node])  # runs on import; docstrings do not
    return defs, roots


def unreached(defs: list[Definition], roots: set) -> list[str]:
    by_name: dict = {}
    for d in defs:
        by_name.setdefault(d.name, []).append(d)
    seen: set = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for d in by_name.get(name, ()):
            todo.extend(d.refs)
    return sorted(d.qualname for d in defs if d.name not in seen)


def package_scan(root_files=tuple(ROOT_FILES)) -> tuple[list[Definition], set]:
    roots = set(re.findall(r'^\w+ = "f2alg\.cli:(\w+)"$',
                           (ROOT / "pyproject.toml").read_text(), re.M))
    defs: list[Definition] = []
    for path in sorted(SRC.glob("*.py")):
        mod_defs, mod_roots = definitions(path.stem, path.read_text())
        defs += mod_defs
        roots |= mod_roots
    for path in root_files:
        roots |= names_in([ast.parse(path.read_text())])
    return defs, roots


def test_scan_follows_names_transitively():
    src = ("def main():\n    helper()\n"
           "def helper():\n    return K().used\n"
           "def dead():\n    return gone()\n"
           "def gone():\n    pass\n"
           "class K:\n    LIMIT = 3\n"
           "    def __init__(self):\n        self.x = aux()\n"
           "    def used(self):\n        pass\n"
           "    def spare(self):\n        pass\n"
           "def aux():\n    pass\n")
    defs, roots = definitions("m", src)
    assert roots == set()
    assert unreached(defs, {"main"}) == ["m.K.LIMIT", "m.K.spare", "m.dead", "m.gone"]


def test_scan_reaches_members_only_through_attributes_and_strings():
    src = ("class K:\n    LIMIT = 3\n"
           "    def inv(self):\n        pass\n"
           "    def named(self):\n        pass\n"
           "def inv():\n    pass\n")
    defs, _ = definitions("m", src)
    # a local variable called inv reaches the function inv, not K.inv
    use = names_in([ast.parse("K\ninv = [0]\nLIMIT = 1\nSPANS = [(K, 'named')]\n")])
    assert unreached(defs, use) == ["m.K.LIMIT", "m.K.inv"]
    # an attribute reaches both: m.inv may be a module's function
    assert unreached(defs, names_in([ast.parse("K().inv()\nK.LIMIT\n")])) == ["m.K.named"]


def test_scan_counts_strings_attributes_and_import_time_code():
    src = ("import os\n"
           "def wrapped():\n    pass\n"
           "def through_attr():\n    pass\n"
           "TABLE = {'k': tabled}\n"
           "def tabled():\n    pass\n"
           "def at_import():\n    pass\n"
           "at_import()\n")
    defs, roots = definitions("m", src)
    assert roots == {"at_import"}
    use = names_in([ast.parse("SPANS = [(m, 'wrapped')]\nm.through_attr()\nTABLE\n")])
    assert unreached(defs, roots | use) == []


def test_every_definition_is_reached():
    defs, roots = package_scan()
    missing = [q for q in unreached(defs, roots) if q not in ALLOWED]
    assert not missing, "unreached: " + ", ".join(missing)


def test_allowlist_names_unreached_definitions():
    """An allowlisted name that a program path reaches, or that no longer
    exists, should leave the allowlist."""
    defs, roots = package_scan()
    assert set(ALLOWED) <= set(unreached(defs, roots))


def test_tracer_only_definitions_are_pinned():
    """What the tracer alone keeps reachable is named above with a
    reason, so that the set cannot grow unnoticed."""
    defs, roots = package_scan()
    _, untraced = package_scan([p for p in ROOT_FILES if p != TRACER])
    only = set(unreached(defs, untraced)) - set(unreached(defs, roots))
    assert only == set(TRACED_ONLY)
