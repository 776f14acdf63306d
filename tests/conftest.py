"""Shared fixtures."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from f2alg.cli import main
from f2alg.cobar import CobarComplex


@pytest.fixture
def table_lines():
    """Run f2alg on argv; return its exit code and its table lines, the
    '# ' note lines left out."""
    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code, [ln for ln in buf.getvalue().splitlines() if not ln.startswith("#")]
    return run


@pytest.fixture
def run_optimized():
    """Run a statement in a python -O subprocess, with this directory and
    src/ importable, and require it to succeed: a check written as an
    assert statement would be stripped there."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")]))

    def run(statement):
        code = f"import sys; sys.path.insert(0, {str(here)!r}); {statement}"
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    return run


@pytest.fixture
def word_calls(monkeypatch):
    """Spy on CobarComplex.words and word_index: the list returned records
    (method name, g, s) for every call made after the fixture is set up."""
    calls = []

    def spy(name):
        method = getattr(CobarComplex, name)

        def wrapped(cx, g, s):
            calls.append((name, g, s))
            return method(cx, g, s)
        return wrapped

    for name in ("words", "word_index"):
        monkeypatch.setattr(CobarComplex, name, spy(name))
    return calls
