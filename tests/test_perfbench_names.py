"""The benchmark's hooks into the package still resolve.

``perfbench/tracer.py`` wraps the functions and methods listed in its
``SPANS`` table, and ``perfbench/workloads.py`` calls the package through
module attributes (``cobar.build_cobar``).  A renamed or deleted name
would break the benchmark only when it runs; these tests catch it here.
They only read ``perfbench/``.
"""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "cobar", "grouphom", "hopf", "mayss")


def dotted_names(source: str) -> set[str]:
    """Every dotted name ``m.a`` or ``m.a.b`` rooted at one of MODULES."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in MODULES:
            out.add(".".join([node.id, *reversed(parts)]))
    return out


def resolves(dotted: str) -> bool:
    root, *attrs = dotted.split(".")
    obj = importlib.import_module(f"f2alg.{root}")
    for a in attrs:
        if not hasattr(obj, a):
            return False
        obj = getattr(obj, a)
    return True


def test_scan_reads_dotted_names():
    src = "cobar.build_cobar(h)\ncobar.CobarComplex.words\nx.cobar.y\nre.sub\n"
    assert dotted_names(src) == {"cobar.build_cobar", "cobar.CobarComplex",
                                 "cobar.CobarComplex.words"}
    assert resolves("cobar.CobarComplex.words") and not resolves("cobar.chart_tsv")


def test_workload_names_exist():
    names = dotted_names((PERFBENCH / "workloads.py").read_text())
    assert {"cli.main", "cobar.build_cobar", "grouphom.resolve"} <= names
    assert sorted(n for n in names if not resolves(n)) == []


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracer.SPANS]
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert [(o, a) for o, a, raw in originals if vars(o)[a] is not raw] == []
