"""Shared fixtures."""

import io
from contextlib import redirect_stdout

import pytest

from f2alg.cli import main


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
