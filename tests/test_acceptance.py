"""Acceptance gate: the twelve headline results, one test per criterion.

Every check is exact F2 arithmetic with zero tolerance.  Each test ends
by printing a single PASS line (visible under ``pytest -s``); a failing
assertion is the corresponding FAIL.  The three long-running criteria
carry wall-clock budgets measured around the expensive computation only,
never around fixture setup shared with other tests.
"""

import io
import itertools
import time
from contextlib import redirect_stdout

import pytest

from f2alg.cellfilt import (
    TABLE_12_8,
    TABLE_13_8,
    build_chart,
    e1_basis_mod_sigma,
    load_declarations,
    propagate,
    reading_report,
    tri,
)
from f2alg.cellhopf import delta_of_cells, load_cells
from f2alg.cli import eval_expr, main
from f2alg.cobar import build_cobar, build_cone, induced_map
from f2alg.dyer_lashof import (
    NU1,
    NU2,
    SIGMA,
    dual_steenrod,
    free_basis,
    ideal_quotient_dims,
    is_normal,
    mono_sorted,
    parse,
    render,
    factor_bidegree,
)
from f2alg.grouphom import (
    abelianization_f2_dim,
    builtin_group,
    homology_dims,
    induced_map as group_induced_map,
    resolve,
    stabilization_hom,
)
from f2alg.hopf import (
    build_a1_star,
    build_cgl_to_a1_map,
    build_delta_cgl,
    check_hopf_map,
    dualize,
)
from f2alg.mayss import build_filtered, einfty_report, page
from f2alg.minres import MinimalResolution

FLASH = {(0, 0), (2, 1), (4, 2), (3, 2), (5, 3), (7, 4)}


@pytest.fixture(scope="session")
def a1():
    return build_a1_star()


@pytest.fixture(scope="session")
def cx(a1):
    # one complex serves the chart, the ring relations, periodicity,
    # the cone, and the family detectors; construction is lazy, so the
    # rank work lands inside whichever criterion asks for it first
    return build_cobar(a1, g_max=20, s_max=20)


@pytest.fixture(scope="session")
def cone(cx):
    return build_cone(cx, cx.unique_class(1, 0))


@pytest.fixture(scope="session")
def named(cx):
    return {
        "h10": cx.unique_class(1, 0),
        "h11": cx.unique_class(2, 1),
        "y74": cx.unique_class(7, 4),
        "y128": cx.unique_class(12, 8),
    }


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------- 1: chart

def chart_dim_oracle(g, d):
    """Count reduced monomials h10^a h11^b y74^c y128^k at (g, d):
    b <= 2, c <= 1, a*b = 0, b*c = 0 after rewriting y74^2 -> h10^2 y128."""
    count = 0
    for k in range(0, d // 8 + 1):
        for c in (0, 1):
            for b in (0, 1, 2):
                if b and c:
                    continue
                a = g - 12 * k - 7 * c - 2 * b
                if a < 0 or d - 8 * k - 4 * c - b != 0:
                    continue
                if a and b:
                    continue
                count += 1
    return count


def test_criterion_01_cotor_chart(cx):
    t0 = time.monotonic()
    dims = {(g, d): cx.homology_dim(g, d)
            for g in range(18) for d in range(11)}
    elapsed = time.monotonic() - t0
    for spot, dim in dims.items():
        assert dim == chart_dim_oracle(*spot), spot
    for spot in [(7, 4), (12, 8), (14, 9), (16, 10)]:
        assert dims[spot] == 1
    for spot in [(3, 1), (5, 2)]:
        assert dims[spot] == 0
    assert elapsed < 30.0, f"chart took {elapsed:.1f}s"
    print(f"PASS criterion  1: cotor chart g<=17 d<=10 matches the "
          f"four-generator ring oracle ({elapsed:.1f}s)")


def test_criterion_01_resolution_matches_cobar(cx):
    """The chart the cotor command prints, from a minimal resolution,
    against the cobar chart of criterion 1 (cached ranks, no rebuild)."""
    res = MinimalResolution(cx.h.dualize(), 0, 17)
    for g in range(18):
        for d in range(11):
            assert res.homology_dim(g, d) == cx.homology_dim(g, d), (g, d)


# ---------------------------------------------------------------- 2: relations

def test_criterion_02_ring_relations(cx, named):
    h10, h11, y74, y128 = (named[k] for k in ("h10", "h11", "y74", "y128"))
    assert not cx.class_nonzero(3, 1, cx.product_chain(h10, h11))
    h11sq = cx.cotor_product(h11, h11)
    assert not cx.class_nonzero(6, 3, cx.product_chain(h11sq, h11))
    assert not cx.class_nonzero(9, 5, cx.product_chain(h11, y74))
    lhs = cx.product_chain(y74, y74)
    rhs = cx.product_chain(cx.cotor_product(h10, h10), y128)
    assert cx.class_nonzero(14, 8, lhs)
    assert cx.classes_agree(14, 8, lhs, rhs)
    print("PASS criterion  2: chain-level ring relations "
          "h10*h11 = h11^3 = h11*y74 = 0, y74^2 = h10^2*y128 != 0")


# ---------------------------------------------------------------- 3: periodicity

def test_criterion_03_periodicity(cx, named):
    y128 = named["y128"]
    for g in range(0, 6):
        for d in range(0, 11):
            basis = cx.cotor_basis(g, d)
            images = [cx.product_chain(y128, b) for b in basis]
            rank = cx.map_rank_mod_boundaries(g + 12, d + 8, images)
            assert rank == len(basis) == cx.homology_dim(g + 12, d + 8), (g, d)
    print("PASS criterion  3: y128 multiplication is a bijection "
          "(g,d) -> (g+12,d+8) for g<=5 across the window")


# ---------------------------------------------------------------- 4: cone

def test_criterion_04_lightning_flash(cx, cone, named):
    for g in range(0, 8):
        for d in range(0, 5):
            want = 1 if (g, d) in FLASH else 0
            assert cone.homology_dim(g, d) == want, (g, d)
    z00 = cone.unique_class(0, 0)
    z32 = cone.unique_class(3, 2)
    g1, d1, c1 = cone.module_action(named["h10"], 3, 2, z32.chain)
    h11sq = cx.cotor_product(named["h11"], named["h11"])
    g2, d2, c2 = cone.module_action(h11sq, 0, 0, z00.chain)
    assert (g1, d1) == (g2, d2) == (4, 2)
    assert cone.class_nonzero(4, 2, c1)
    assert cone.classes_agree(4, 2, c1, c2)
    # the 12-shifted copy: every flash spot reappears, and the shifted
    # zero spots stay zero as far as the window allows cheaply
    for (g, d) in sorted(FLASH):
        assert cone.homology_dim(g + 12, d + 8) == 1, (g + 12, d + 8)
    for g in range(0, 6):
        for d in range(0, 5):
            if (g, d) not in FLASH:
                assert cone.homology_dim(g + 12, d + 8) == 0, (g + 12, d + 8)
    print("PASS criterion  4: cone flash pattern exact in g<=7 d<=4, "
          "hidden extension h10.z32 = h11^2.z00 != 0, 12-shifted flash present")


def test_criterion_04_resolution_matches_cone(cone):
    """The two-cell module's Ext, as the cone command prints it, against
    the homology of the cobar cone on h10."""
    res = MinimalResolution(cone.base.h.dualize(), 1, 8)
    for g in range(9):
        for d in range(g + 2):
            assert res.homology_dim(g, d) == cone.homology_dim(g, d), (g, d)


# ---------------------------------------------------------------- 5: spectral sequence

def ss_e1_oracle(g_max, d_max):
    """Monomial count of F2[h10, h11, h20] with tridegrees
    (1,0,-1), (2,1,-2), (3,2,-1)."""
    dims = {}
    for a in range(g_max + 1):
        for b in range(g_max // 2 + 1):
            for c in range(g_max // 3 + 1):
                g, d, f = a + 2 * b + 3 * c, b + 2 * c, -a - 2 * b - c
                if g <= g_max and d <= d_max:
                    dims[(g, d, f)] = dims.get((g, d, f), 0) + 1
    return dims


def test_criterion_05_filtration_spectral_sequence(a1, cx):
    t0 = time.monotonic()
    fc = build_filtered(a1, g_max=14, s_max=14)
    assert page(fc, 1, 14, 10).dims == ss_e1_oracle(14, 10)
    for r in (1, 3, 5):
        pr = page(fc, r, 10, 8)
        for (g, d, f), dim in pr.dims.items():
            if fc.page_dim(r, g, d - 1, f - r):
                m = fc.differential_matrix(r, g, d, f)
                assert all(row == 0 for row in m.data), (r, g, d, f)
    m2 = fc.differential_matrix(2, 3, 2, -1)
    assert (m2.rows, m2.cols, m2.data) == (1, 1, [1])  # d2(h20) = h10*h11
    m4 = fc.differential_matrix(4, 6, 4, -2)
    assert (m4.rows, m4.cols, m4.data) == (1, 1, [1])  # d4([h20^2]) = h11^3
    assert page(fc, 5, 14, 10).dims == page(fc, 9, 14, 10).dims
    rows = einfty_report(fc, 14, 10)
    for row in rows:
        assert row.total == cx.homology_dim(row.g, row.d), (row.g, row.d)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"spectral sequence took {elapsed:.1f}s"
    print(f"PASS criterion  5: E1 = F2[h10,h11,h20], odd differentials "
          f"vanish, d2(h20) and d4([h20^2]) hit, E5 = E9, sum E-infty = "
          f"cotor dims ({elapsed:.1f}s)")


# ---------------------------------------------------------------- 6: quotient dims

# column dims per homological degree row, g = 0..6, read off the charts
QUOTIENT_DIMS = {
    0: [1, 1, 1, 1, 1, 1, 1],
    1: [0, 0, 1, 0, 0, 0, 0],
    2: [0, 0, 1, 1, 1, 0, 0],
    3: [0, 0, 1, 2, 2, 1, 1],
}


def test_criterion_06_quotient_dims():
    gens = {"s": SIGMA, "n1": NU1, "n2": NU2}
    rels = [parse(t, gens) for t in
            ("s*Q[1](s)", "s*Q[3](s)", "s^2*Q[2](s)", "s*n1", "s*n2")]
    table = ideal_quotient_dims([SIGMA, NU1, NU2], rels, 6, 3)
    for d, row in QUOTIENT_DIMS.items():
        for g in range(7):
            assert table[(g, d)] == row[g], (g, d)
    print("PASS criterion  6: quotient by the five stability relations "
          "reproduces every charted dimension for g<=6 d<=3")


# ---------------------------------------------------------------- 7: rewriting pins

def test_criterion_07_rewriting_pins():
    assert render(eval_expr("Q[2](s*Q[1](s))")) == "Q[1](s)^3 + s^2*Q[2,1](s)"
    assert render(eval_expr("Q[3,1](s)")) == "0"
    sq1 = dual_steenrod(1, eval_expr("Q[2,1](s)"))
    assert sq1 == eval_expr("Q[1](s)^2")
    assert sq1 == dual_steenrod(1, eval_expr("Q[1](s)*Q[2](s)"))
    assert dual_steenrod(2, eval_expr("Q[2](s)^2")) == eval_expr("Q[1](s)^2")
    assert dual_steenrod(2, eval_expr("s^2*Q[4](s)")) == eval_expr("s^2*Q[2](s)")
    print("PASS criterion  7: Adem and dual Steenrod pins all hold")


# ---------------------------------------------------------------- 8: basis oracle

def brute_force_basis(g, d, box_g=8, box_d=8):
    """Generate-then-filter over all operation sequences, no pruning."""
    factors = [(SIGMA, ())]
    for r in range(1, box_g.bit_length()):
        if 1 << r > box_g:
            break
        for seq in itertools.product(range(1, box_d + 1), repeat=r):
            if sum(seq) <= box_d and is_normal(seq, SIGMA):
                factors.append((SIGMA, seq))
    out = set()

    def rec(start, acc, rg, rd):
        if rg == 0 and rd == 0:
            out.add(mono_sorted(acc))
        if rg <= 0:
            return
        for k in range(start, len(factors)):
            fg, fd = factor_bidegree(factors[k])
            if fg <= rg and fd <= rd:
                rec(k, acc + [factors[k]], rg - fg, rd - fd)

    rec(0, [], g, d)
    return out


def test_criterion_08_free_basis_oracle():
    for g in range(1, 9):
        for d in range(0, 9):
            assert set(free_basis([SIGMA], g, d)) == brute_force_basis(g, d), (g, d)
    print("PASS criterion  8: free basis over sigma agrees with the "
          "unpruned enumeration everywhere in g<=8 d<=8")


# ---------------------------------------------------------------- 9: survivor tables

def test_criterion_09_survivor_tables():
    assert {t.m for t in e1_basis_mod_sigma(12, 8)} == \
        {tri(expr).m for _, expr, _ in TABLE_12_8}
    assert len(TABLE_12_8) == 7
    assert {t.m for t in e1_basis_mod_sigma(13, 8)} == \
        {tri(expr).m for _, expr, _ in TABLE_13_8}
    assert len(TABLE_13_8) == 3
    decls = load_declarations()
    chart = propagate(build_chart(12, 8, -4), decls)
    assert sorted(c.label for c in chart.survivors()) == [
        "b^4",
        "tau^8*Q[1](s)^2*Q[2,1](s)^2",
    ]
    chart_13_8 = propagate(build_chart(13, 8, -5), decls)
    assert chart_13_8.survivors() == []
    rep = reading_report([chart, chart_13_8], decls)
    assert rep["agree"]
    assert rep["discrepancies"] == [("chi2", "b^2*Q[1](s)^2*Q[2](s)", -6, -8)]
    print("PASS criterion  9: tri-graded tables at (12,8) and (13,8) match, "
          "survivors {[b^4], tau^8[...]} and {}, stable under both "
          "filtration readings with the discrepancy reported")


# ---------------------------------------------------------------- 10: stability Hopf algebra

def test_criterion_10_stability_hopf_algebra(a1, cx):
    ref = build_delta_cgl()
    pres = delta_of_cells(load_cells("cgl.cells"), 5)
    assert pres.hopf.same_tables(ref)
    assert pres.hopf.to_json() == ref.to_json()
    assert sum(ref.dim(g) for g in range(1, 6)) == 10
    assert [sorted(ref.basis[g]) for g in range(1, 6)] == [
        ["sb"], ["sb^2"], ["delta", "sb^3"],
        ["rho", "sb*delta", "sb^4"], ["sb*rho", "sb^2*delta", "sb^5"],
    ]

    d = dualize(ref)
    s1, s2 = d.index(1, "sb~"), d.index(2, "sb^2~")
    assert d.product(1, 1 << s1, 1, 1 << s1) == 0
    s2s1 = d.product(2, 1 << s2, 1, 1 << s1)
    assert d.combo_labels(3, s2s1) == ["sb^3~"]
    assert d.product(2, 1 << s2, 2, 1 << s2) == \
        d.product(1, 1 << s1, 3, s2s1)

    f = build_cgl_to_a1_map(ref, a1)
    assert all(ok for _, ok, _ in check_hopf_map(f))
    src = build_cobar(ref, g_max=5)
    m = induced_map(f, src, cx)
    gen = src.unique_class(1, 0)
    img = m.map_chain(1, 1, gen.chain)
    assert cx.class_nonzero(1, 0, img)
    assert cx.classes_agree(1, 0, img, cx.unique_class(1, 0).chain)
    print("PASS criterion 10: cell assembly equals the direct construction "
          "through grading 5, dual relations hold, the comparison map is a "
          "Hopf map and carries the degree-(1,0) generator to h10")


# ---------------------------------------------------------------- 11: group homology

def test_criterion_11_group_homology():
    assert homology_dims(resolve(builtin_group("GL(2,2)"), 6)) == \
        (1, 1, 1, 1, 1, 1, 1)
    gl3 = builtin_group("GL(3,2)")
    t0 = time.monotonic()
    r_gl3 = resolve(gl3, 4)
    assert homology_dims(r_gl3) == (1, 0, 1, 2, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"GL(3,2) took {elapsed:.1f}s"

    gl2 = builtin_group("GL(2,2)")
    r_gl2 = resolve(gl2, 4)
    stab = stabilization_hom(gl2, gl3, 2)
    for i in range(5):
        m = group_induced_map(stab, r_gl2, r_gl3, i)
        if i % 2 == 0:
            assert m.rank() == homology_dims(r_gl2)[i] == homology_dims(r_gl3)[i]
        else:
            assert m.rank() == 0

    for name in ["1", "C2", "C4", "S2", "S3", "D8",
                 "GL(2,2)", "GL(3,2)", "UT(3,2)"]:
        g = builtin_group(name)
        assert homology_dims(resolve(g, 1))[1] == abelianization_f2_dim(g), name
    print(f"PASS criterion 11: GL2 and GL3 homology dims, even/odd "
          f"stabilization pattern, H_1 = abelianization for every built-in "
          f"group ({elapsed:.1f}s for GL3)")


# ---------------------------------------------------------------- 12: families

def test_criterion_12_families():
    code, out = run_cli(["families", "--max-i", "4", "--no-verify"])
    assert code == 0
    spots = set()
    for line in out.splitlines()[1:]:
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        spots.add((int(cols[3]), int(cols[4])))
    for i in range(0, 4):
        for spot in [(12 * i + 2, 8 * i + 1), (12 * i + 4, 8 * i + 2),
                     (12 * i + 6, 8 * i + 3), (12 * i + 11, 8 * i + 7)]:
            assert spot in spots, spot

    # every detector that fits the window is checked; rows beyond it are
    # marked, never silently dropped
    code, out = run_cli(["families", "--max-i", "4"])
    assert code == 0
    statuses = set()
    for line in out.splitlines()[1:]:
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        want = "nonzero" if int(cols[1]) <= 3 else "unverified (outside window)"
        assert cols[6] == want, line
        statuses.add(cols[6])
    assert statuses == {"nonzero", "unverified (outside window)"}
    print("PASS criterion 12: family bidegrees match for i<=3 and every "
          "detecting class with i<=3 is nonzero; i=4 is marked unverified")


def test_criterion_12_detectors_match_cobar(cone, named):
    """Every i <= 1 family detector y128^i*h11^j.z, as ``families`` checks
    it (Yoneda products on minimal resolutions), against the cobar cone's
    module action and class_nonzero; likewise its h10 multiple where that
    lands in g <= 19, which vanishes for 9 of the 11 (h10.z00 = 0 and
    h10*h11 = 0)."""
    a1 = cone.base.h.dualize()
    ring, res = MinimalResolution(a1, 0, 12), MinimalResolution(a1, 1, 20)
    engine = {name: ring.unique_class(named[name].g, named[name].d)
              for name in ("h10", "h11", "y128")}
    zeros = 0
    for spot in [(0, 0), (3, 2)]:
        for i in (0, 1):
            for j in (0, 1, 2):
                z = res.unique_class(*spot)
                g, d, c = *spot, cone.unique_class(*spot).chain
                for name in ["h11"] * j + ["y128"] * i:
                    z = res.yoneda(ring, engine[name], z)
                    g, d, c = cone.module_action(named[name], g, d, c)
                assert (z.t, z.t - z.s) == (g, d)
                assert bool(z.bits) == cone.class_nonzero(g, d, c), (spot, i, j)
                if g < 19:
                    x = res.yoneda(ring, engine["h10"], z)
                    g, d, c = cone.module_action(named["h10"], g, d, c)
                    assert bool(x.bits) == cone.class_nonzero(g, d, c), (spot, i, j)
                    zeros += not x.bits
    assert zeros == 9
