"""Tests for the cell-specification to Hopf-presentation pipeline.

The headline fixture: the shipped eight-cell specification reproduces,
entrywise, the directly constructed polynomial Hopf algebra on sb,
delta, rho through grading 5.
"""

import pytest

from f2alg.cellhopf import (
    bracket_coproduct,
    delta_of_cells,
    load_cells,
    parse_cells,
)
from f2alg.dyer_lashof import SIGMA, parse
from f2alg.hopf import PolyHopf, build_delta_cgl


@pytest.fixture(scope="module")
def cgl():
    return delta_of_cells(load_cells("cgl.cells"), 5)


# ---------------------------------------------------------------- headline

def test_cgl_cells_reproduce_direct_construction(cgl):
    ref = build_delta_cgl()
    assert cgl.hopf.same_tables(ref)
    assert cgl.hopf.to_json() == ref.to_json()
    assert cgl.generators == (("sb", 1), ("delta", 3), ("rho", 4))


def test_cgl_flags(cgl):
    # both bracket cells flag the rule-reading disagreement, and the
    # second one additionally flags its off-hypothesis pair
    delta_flags = [f for f in cgl.flags if f.startswith("delta:")]
    rho_flags = [f for f in cgl.flags if f.startswith("rho:")]
    assert len(delta_flags) == 1 and "cell bidegree (3,2)" in delta_flags[0]
    assert len(rho_flags) == 2
    assert any("off the d+1=g hypothesis" in f for f in rho_flags)
    assert any("cell bidegree (4,3)" in f for f in rho_flags)


def test_cgl_log_accounts_for_every_cell(cgl):
    assert len(cgl.log) == 8
    noops = [l for l in cgl.log if "no effect" in l]
    assert len(noops) == 5  # x2, n1, n2, r1, r2


# ---------------------------------------------------------------- small specs

def test_x1_two_cell_presentation():
    pres = delta_of_cells(load_cells("x1.cells"), 5)
    z, sb, sb2, d = (0, 0), (1, 0), (2, 0), (0, 1)
    ref = PolyHopf(
        [("sb", 1, None), ("delta", 3, None)],
        [[(sb, z), (z, sb)], [(d, z), (sb, sb2), (z, d)]],
        max_grading=5,
        truncated=True,
    )
    assert pres.hopf.same_tables(ref)


def test_y1_agrees_with_x1_through_bound():
    x1 = delta_of_cells(load_cells("x1.cells"), 3)
    y1 = delta_of_cells(load_cells("y1.cells"), 3)
    assert y1.hopf.same_tables(x1.hopf)
    assert y1.generators == x1.generators == (("sb", 1), ("delta", 3))
    # the two-term right factor stays on-hypothesis: only the reading flag
    assert len(y1.flags) == 1 and "cell bidegree (3,2)" in y1.flags[0]


def test_above_diagonal_cells_are_inert(cgl):
    base = open_text("cgl.cells")
    for extra in ["gen w (2,5)", "gen w (4,4)", "rel w (3,3) attach=s*q[3](s)"]:
        pres = delta_of_cells(parse_cells(base + extra + "\n"), 5)
        assert pres.hopf.same_tables(cgl.hopf)


def test_inert_cell_order_robustness(cgl):
    lines = [
        "gen s (1,0)",
        "rel delta (3,1) attach=s*q[1](s) q=s:q[1](s)",
        "rel rho (4,2) attach=s^2*q[2](s) q=s^2:q[2](s)",
    ]
    tail = ["rel x2 (3,3) attach=s*q[3](s)", "gen n1 (3,3)", "gen n2 (3,3)"]
    for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        text = "\n".join(lines + [tail[i] for i in perm]
                         + ["rel r1 (4,3) attach=s*n1", "rel r2 (4,3) attach=s*n2"])
        assert delta_of_cells(parse_cells(text), 5).hopf.same_tables(cgl.hopf)


def test_quotient_removes_generator():
    pres = delta_of_cells(parse_cells("gen s (1,0)\nrel k (1,0) attach=s\n"), 4)
    assert pres.generators == ()
    assert [pres.hopf.dim(g) for g in range(5)] == [1, 0, 0, 0, 0]


# ---------------------------------------------------------------- parser

def test_parser_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_cells("gen s (1,0)\ngen s (2,1)\n")  # duplicate name
    with pytest.raises(ValueError):
        parse_cells("cell s (1,0)\n")  # unknown keyword
    with pytest.raises(ValueError):
        parse_cells("gen s (1,0)\nrel d (3,1) attach=s*q[1](s) q=q[1](s)\n")
        # decomposition must start with an a:b pair


def test_parser_comments_and_blanks():
    spec = parse_cells("# header\n\ngen s (1,0)  # trailing\n")
    assert [c.name for c in spec] == ["s"]


# ---------------------------------------------------------------- diagnostics

def test_generator_below_diagonal_rejected():
    with pytest.raises(ValueError, match="below the diagonal"):
        delta_of_cells(parse_cells("gen w (3,1)\n"), 4)


def test_attach_bidegree_mismatch_rejected():
    with pytest.raises(ValueError, match="declared"):
        delta_of_cells(parse_cells("gen s (1,0)\nrel k (3,2) attach=s*q[1](s)\n"), 4)


def test_bracket_requires_decomposition():
    with pytest.raises(ValueError, match="needs a decomposition"):
        delta_of_cells(parse_cells("gen s (1,0)\nrel k (3,1) attach=s*q[1](s)\n"), 4)


def test_bracket_decomposition_must_recompose():
    with pytest.raises(ValueError, match="multiplies to"):
        delta_of_cells(
            parse_cells("gen s (1,0)\nrel k (3,1) attach=s*q[1](s) q=s:s^2\n"), 4
        )


def test_quotient_by_non_generator_rejected():
    with pytest.raises(ValueError, match="outside the worked rules"):
        delta_of_cells(parse_cells("gen s (1,0)\nrel k (2,1) attach=q[1](s)\n"), 4)


def test_relation_far_below_diagonal_rejected():
    with pytest.raises(ValueError, match="violates"):
        delta_of_cells(parse_cells("gen s (1,0)\nrel k (4,1) attach=s^2*q[1](s)\n"), 4)


def test_bracket_referencing_removed_generator_rejected():
    text = (
        "gen s (1,0)\n"
        "rel k (1,0) attach=s\n"
        "rel w (3,1) attach=s*q[1](s) q=s:q[1](s)\n"
    )
    with pytest.raises(ValueError, match="removed generator"):
        delta_of_cells(parse_cells(text), 4)


def test_second_quotient_by_removed_generator_rejected():
    text = (
        "gen s (1,0)\n"
        "rel r1 (1,0) attach=s\n"
        "rel r2 (1,0) attach=s\n"
    )
    with pytest.raises(ValueError, match="r2"):
        delta_of_cells(parse_cells(text), 4)


@pytest.mark.parametrize("bound", [2, 5])
def test_bracket_terms_of_another_grading_rejected(bound):
    # s*t + t*s cancels in the attaching class, but its bars sb|tb + tb|sb,
    # of grading 2, would join the coproduct of k, of grading 3 (they are
    # coassociative, so no axiom fails on them)
    text = ("gen s (1,0)\ngen t (1,0)\n"
            "rel k (3,1) attach=s*q[1](s) q=s:q[1](s)+s:t+t:s\n")
    with pytest.raises(ValueError, match="coproduct of k is not of grading 3"):
        delta_of_cells(parse_cells(text), bound)


def test_off_hypothesis_pair_with_nonzero_bars_rejected():
    al = {"s": SIGMA}
    a, b = parse("q[2](s)", al), parse("q[1](s)", al)
    with pytest.raises(ValueError, match="nonzero bar"):
        bracket_coproduct(((a, b),))


def test_off_hypothesis_pair_with_vanishing_bar_flags():
    al = {"s": SIGMA}
    terms, flags = bracket_coproduct(((parse("s^2", al), parse("q[2](s)", al)),))
    assert terms == []
    assert len(flags) == 1 and "term dropped" in flags[0]


# ---------------------------------------------------------------- helpers

def open_text(name):
    from importlib import resources

    return resources.files("f2alg.data").joinpath(name).read_text()
