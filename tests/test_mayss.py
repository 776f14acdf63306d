"""Tests for the augmentation-filtration spectral sequence.

Independent oracles: restricted ranks recomputed by direct masked-matrix
elimination (no rank profiles), and page dims recomputed through the
explicit subquotient path (ztilde/left-kernel), which shares no code with
the rank-profile formula.
"""

import pytest

from f2alg.f2linalg import F2Matrix, bits_of
from f2alg.hopf import build_a1_star
from f2alg.mayss import (
    augmentation_depths,
    build_filtered,
    einfty_report,
    filtered_cone,
    page,
)


@pytest.fixture(scope="module")
def a1():
    return build_a1_star()


@pytest.fixture(scope="module")
def fc(a1):
    return build_filtered(a1, g_max=13, s_max=13)


# ---------------------------------------------------------------- depths / filtration

def test_depths(a1):
    depth = augmentation_depths(a1)
    by_label = {a1.label(g, i): k for (g, i), k in depth.items()}
    assert by_label == {
        "x1": 1, "x1^2": 2, "x1^3": 3,
        "x2": 1, "x1*x2": 2, "x1^2*x2": 3, "x1^3*x2": 4,
    }


def test_word_filtrations(fc, a1):
    base = fc.complex
    lid = {base.letter_label(k): k for k in range(len(base.letters))}
    wi = base.word_index(3, 1)
    assert fc.filt_of(3, 1, wi[(lid["x2"],)]) == -1
    wi2 = base.word_index(3, 2)
    assert fc.filt_of(3, 2, wi2[(lid["x1^2"], lid["x1"])]) == -3
    wi3 = base.word_index(3, 3)
    assert fc.filt_of(3, 3, wi3[(lid["x1"],) * 3]) == -3
    assert fc.filt_of(0, 0, 0) == 0


def test_differential_never_raises_filtration(fc):
    base = fc.complex
    for g in range(0, 7):
        for s in range(0, g + 1):
            for i in range(base.chain_dim(g, s)):
                fi = fc.filt_of(g, s, i)
                for w in base.boundary_words(base.words(g, s)[i]):
                    j = base.word_index(g, s + 1)[w]
                    assert fc.filt_of(g, s + 1, j) <= fi


# ---------------------------------------------------------------- rank oracle

def oracle_restricted_rank(fc, g, s, p, q):
    base = fc.complex
    n = base._dim(g, s)
    keep = 0
    for j in range(base._dim(g, s + 1)):
        if fc.filt_of(g, s + 1, j) > q:
            keep |= 1 << j
    rows = [
        base.boundary_bits(g, s, i) & keep
        for i in range(n)
        if fc.filt_of(g, s, i) <= p
    ]
    return F2Matrix(len(rows), base._dim(g, s + 1), rows).rank()


def test_rank_profile_matches_bruteforce(fc):
    for g in range(1, 7):
        for s in range(0, g + 1):
            rng = fc.filt_range(g, s)
            if rng is None:
                continue
            for p in range(rng[0] - 1, rng[1] + 2):
                for q in range(p - 5, p + 2):
                    assert fc.restricted_rank(g, s, p, q) == oracle_restricted_rank(
                        fc, g, s, p, q
                    ), (g, s, p, q)


def test_cone_rank_profile_matches_bruteforce(fc):
    # the y-part of the cone carries the shifted filtration filt(y) - 1
    fcc = filtered_cone(fc, fc.complex.unique_class(1, 0))
    for g in range(1, 7):
        for s in range(0, g + 1):
            rng = fcc.filt_range(g, s)
            if rng is None:
                continue
            filts = fcc.layer(g, s).filts
            for p in range(rng[0] - 1, rng[1] + 2):
                assert fcc.fil_dim(g, s, p) == sum(1 for f in filts if f <= p), (g, s, p)
                for q in range(p - 5, p + 2):
                    assert fcc.restricted_rank(g, s, p, q) == oracle_restricted_rank(
                        fcc, g, s, p, q
                    ), (g, s, p, q)


def reference_pivots(fc, g, s):
    """The rank profile with unmirrored columns: position j of the
    descending-filtration column order at bit j, lowest-set-bit pivots."""
    base = fc.complex
    src, tgt = fc.layer(g, s), fc.layer(g, s + 1)
    pos = {c: j for j, c in enumerate(tgt.col_order)}
    table, out = {}, []
    for i in src.row_order:
        v = 0
        for b in bits_of(base.boundary_bits(g, s, i)):
            v |= 1 << pos[b]
        while v:
            low = v & -v
            if low not in table:
                table[low] = v
                col = tgt.col_order[low.bit_length() - 1]
                out.append((src.filts[i], tgt.filts[col]))
                break
            v ^= table[low]
    return out


def test_mirrored_pivots_match_unmirrored_reference(a1):
    small = build_filtered(a1, g_max=8, s_max=8)
    for g in range(9):
        for s in range(g + 1):
            assert small.pivots(g, s) == reference_pivots(small, g, s), (g, s)


def test_page_dims_match_subquotient_path(fc):
    # fc.spot() computes representatives via left-kernel subquotients and
    # asserts agreement with the rank-profile formula internally
    for r in range(1, 6):
        for g in range(0, 7):
            for d in range(0, 5):
                s = g - d
                if s < 0:
                    continue
                rng = fc.filt_range(g, s)
                if rng is None:
                    continue
                for f in range(rng[0], rng[1] + 1):
                    reps, _ = fc.spot(r, g, d, f)
                    assert len(reps) == fc.page_dim(r, g, d, f)


# ---------------------------------------------------------------- E1 and differentials

def e1_polynomial_oracle(g_max, d_max):
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


def test_e1_is_polynomial_algebra(fc):
    assert page(fc, 1, 9, 7).dims == e1_polynomial_oracle(9, 7)


def test_d2_of_h20(fc):
    m = fc.differential_matrix(2, 3, 2, -1)
    assert (m.rows, m.cols, m.data) == (1, 1, [1])


def test_d4_of_h20_squared(fc):
    m = fc.differential_matrix(4, 6, 4, -2)
    assert (m.rows, m.cols, m.data) == (1, 1, [1])


def test_odd_differentials_vanish(fc):
    p1 = page(fc, 1, 8, 6)
    for (g, d, f) in p1.dims:
        assert (g + f) % 2 == 0  # parity forces odd-r differentials to die
    for r in (1, 3, 5):
        pr = page(fc, r, 8, 6)
        for (g, d, f), dim in pr.dims.items():
            if fc.page_dim(r, g, d - 1, f - r):
                m = fc.differential_matrix(r, g, d, f)
                assert all(row == 0 for row in m.data), (r, g, d, f)


def test_collapse_small_window(fc):
    for g in range(0, 9):
        for d in range(0, 7):
            s = g - d
            if s < 0:
                continue
            rng = fc.filt_range(g, s)
            if rng is None:
                continue
            for f in range(rng[0], rng[1] + 1):
                dims = [fc.page_dim(r, g, d, f) for r in range(5, 10)]
                assert len(set(dims)) == 1, (g, d, f)


# ---------------------------------------------------------------- E-infinity

def test_einfty_convergence_and_representative_filtrations(fc):
    rows = {(row.g, row.d): row for row in einfty_report(fc, 13, 9)}
    assert rows[(0, 0)].f_dims == {0: 1}
    assert rows[(7, 4)].f_dims == {-3: 1}
    assert rows[(12, 8)].f_dims == {-4: 1}
    # convergence assert runs inside einfty_report; spot-check a few dims
    assert rows[(3, 1)].total == 0
    assert rows[(2, 1)].total == 1


# ---------------------------------------------------------------- filtered cone

def test_cone_d4_pattern(fc):
    base = fc.complex
    fcc = filtered_cone(fc, base.unique_class(1, 0))
    m = fcc.differential_matrix(4, 6, 4, -2)
    assert (m.rows, m.cols, m.data) == (1, 1, [1])


# ---------------------------------------------------------------- page table

def test_page_tsv(table_lines):
    code, lines = table_lines(["may", "--page", "2", "--gmax", "3", "--dmax", "2"])
    assert code == 0
    assert lines[0] == "r\tg\td\tf\tdim"
    assert "2\t1\t0\t-1\t1" in lines
