"""Tests for the minimal-resolution Ext engine.

Its charts are checked against the cobar complexes, the other model of
the same Ext groups: here for the truncated cgl Hopf algebra, and in the
acceptance suite for A(1) at g <= 17 and the h10 cone at g <= 8, where
the cobar complexes are already built.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from f2alg.cobar import WindowError, build_cobar
from f2alg.f2linalg import Echelon
from f2alg.hopf import HopfAlgebra, build_a1_star, build_delta_cgl
from f2alg.minres import MinimalResolution, complement


def test_cgl_matches_cobar():
    cgl = build_delta_cgl()
    res = MinimalResolution(cgl.dualize(), 0, 5)
    cx = build_cobar(cgl, 5, 5)
    dims = {(g, d): res.homology_dim(g, d) for g in range(6) for d in range(g + 2)}
    assert dims == {(g, d): cx.homology_dim(g, d) for g, d in dims}
    assert dims[(4, 3)] == 2  # Ext^{1,4}: the primitives rho and sb^4


def test_window_errors():
    with pytest.raises(WindowError):
        MinimalResolution(build_delta_cgl().dualize(), 0, 6)
    res = MinimalResolution(build_a1_star().dualize(), 0, 4)
    with pytest.raises(WindowError):
        res.homology_dim(5, 0)
    assert res.homology_dim(4, 5) == 0  # s < 0


def test_complement_adds_translates_of_new_generators():
    span = Echelon()
    span.add(0b001)
    rows = complement(span, [0b001, 0b010, 0b011, 0b100], 3, lambda v: [v, v << 4])
    # 0b001 is already in the span; 0b010 and its translate bring it to
    # dimension 3, so the loop stops before 0b011 and 0b100
    assert rows == [0b010, 0b0100000]
    assert span.rank == 3


# ---------------------------------------------------------------- exactness under -O

def non_associative(a_times_c: int) -> HopfAlgebra:
    """Letters a, b, c in gradings 1, 2, 3 and e, f in grading 4 with
    a.a = b, a.b = c, c.a = e, b.a = 0 and a.c = a_times_c (a bitset over
    e, f), so (a.b).a = e but a.(b.a) = 0.  On the resolution of F2, F_1
    has generators e1 -> a.e0 and e1' -> c.e0, F_2 one generator
    e2 -> b.e1 in degree 3, and d_1 sends a.e2 -> c.e1 to e.e0, not 0.
    With a.c = 0 the kernel of d_1 in degree 4 is spanned by a.e1',
    which the image misses; with a.c = f the kernel is 0 and the image
    is not."""
    mult = {(0, 0, g, i): 1 << i for g, n in enumerate((1, 1, 1, 1, 2)) for i in range(n)}
    mult.update({(g, i, 0, 0): v for (_, _, g, i), v in list(mult.items())})
    mult.update({(1, 0, 1, 0): 1, (1, 0, 2, 0): 1, (3, 0, 1, 0): 1, (1, 0, 3, 0): a_times_c})
    return HopfAlgebra([["1"], ["a"], ["b"], ["c"], ["e", "f"]], mult, {})


@pytest.mark.parametrize("a_times_c", [0, 0b10])
def test_exactness_check_raises(a_times_c):
    MinimalResolution(non_associative(a_times_c), 0, 3)
    with pytest.raises(AssertionError, match=r"im d_2 != ker d_1 in degree 4"):
        MinimalResolution(non_associative(a_times_c), 0, 4)


def test_exactness_check_survives_optimize_flag():
    """The test above, run again in a python -O subprocess."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")]))
    code = (f"import sys; sys.path.insert(0, {str(here)!r}); import test_minres; "
            "[test_minres.test_exactness_check_raises(x) for x in (0, 0b10)]")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
