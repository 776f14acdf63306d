"""Every defaulted parameter of the package is passed by some program call.

A stdlib ``ast`` scan in the style of ``test_imports.py``: a parameter
with a default that no call in ``src/``, ``demos/`` or ``perfbench/``
ever sets is an option with one value, and should be a constant.  Calls
in ``tests/`` do not count, so a test cannot be an option's only
setter.  Calls are matched to definitions by function name alone (a
class name or ``cls`` stands for its ``__init__``), so a parameter counts
as passed when any call of that name passes it, by position or by
keyword, or spreads ``*args`` / ``**kwargs`` over it.
"""

import ast
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "f2alg"
CALLERS = [ROOT / d for d in ("src", "demos", "perfbench")]


class Option(NamedTuple):
    """A defaulted parameter: the call names that reach its function, its
    index among the positional parameters a caller fills (None for
    keyword-only) and its name."""

    func: str
    names: set
    position: Optional[int]
    param: str


def options(source: str) -> list[Option]:
    tree = ast.parse(source)
    out: list[Option] = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]  # self or cls
                names = {node.name}
                if node.name == "__init__":
                    names = {cls, "cls", "__init__"}
                first_default = len(positional) - len(args.defaults)
                for i, a in enumerate(positional[first_default:], first_default):
                    out.append(Option(node.name, names, i, a.arg))
                for a, d in zip(args.kwonlyargs, args.kw_defaults):
                    if d is not None:
                        out.append(Option(node.name, names, None, a.arg))

    visit(tree.body, None)
    return out


def calls(source: str) -> list[tuple[str, int, set, bool, bool]]:
    """(name, positional count, keywords, *args, **kwargs) per call."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name is None:
            continue
        star = any(isinstance(a, ast.Starred) for a in node.args)
        out.append((
            name,
            sum(not isinstance(a, ast.Starred) for a in node.args),
            {k.arg for k in node.keywords if k.arg},
            star,
            any(k.arg is None for k in node.keywords),
        ))
    return out


def unpassed(defs: list[Option], call_list) -> list[str]:
    def passes(call, opt: Option) -> bool:
        name, npos, kws, star, dstar = call
        return name in opt.names and (
            opt.param in kws or dstar
            or (opt.position is not None and (star or npos > opt.position)))

    return [f"{o.func}({o.param}=)" for o in defs
            if not any(passes(c, o) for c in call_list)]


def test_scan_finds_an_unpassed_default():
    src = ("def f(a, b=1, *, c=2):\n    pass\n"
           "class K:\n    def m(self, x, y=0):\n        pass\n")
    use = "f(1, 2)\nK().m(3)\n"
    assert unpassed(options(src), calls(use)) == ["f(c=)", "m(y=)"]


def test_scan_counts_keywords_stars_and_constructors():
    src = ("def f(a, b=1, c=2):\n    pass\n"
           "class K:\n    def __init__(self, x=None):\n        pass\n")
    use = "f(0, c=3)\nf(*xs)\nK(4)\n"
    assert unpassed(options(src), calls(use)) == []


def test_every_default_is_passed_somewhere():
    defs = [o for p in sorted(SRC.glob("*.py")) for o in options(p.read_text())]
    call_list = [c for d in CALLERS for p in sorted(d.rglob("*.py"))
                 for c in calls(p.read_text())]
    assert unpassed(defs, call_list) == []
