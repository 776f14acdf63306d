"""Tests for the cobar/Cotor engine on small windows.

The Cotor-dimension oracle below enumerates the additive monomial basis of
F2[h10,h11,y74,y128]/(h10h11, h11^3, h11y74, y74^2+h10^2y128) directly by
exponent search with rewriting, independently of the package's
ring_chart_names enumeration.  The big-window chart and the heavy cone
computations live in the acceptance suite.
"""

import itertools
from collections import Counter
from functools import lru_cache, partial

import pytest

from f2alg.cobar import (
    BigradedComplex,
    CobarComplex,
    CobarMap,
    ConeComplex,
    CotorClass,
    WindowError,
    build_cobar,
)
from f2alg.f2linalg import Echelon, F2Matrix, Subspace, bits_of, pair_rows
from f2alg.grouphom import TensoredComplex, builtin_group, resolve, tensored_boundary
from f2alg.minres import ring_chart_names
from f2alg.hopf import HopfAlgebra, build_a1_star, build_cgl_to_a1_map, build_delta_cgl


@pytest.fixture(scope="module")
def a1():
    return build_a1_star()


@pytest.fixture(scope="module")
def cx(a1):
    return build_cobar(a1)


@pytest.fixture(scope="module")
def cone(cx):
    return ConeComplex(cx, cx.unique_class(1, 0))


# ---------------------------------------------------------------- oracle

def oracle_cotor_dim(g, d):
    """Count reduced monomials h10^a h11^b y74^c y128^k at (g, d):
    b <= 2, c <= 1, a*b = 0, b*c = 0 after rewriting y74^2 -> h10^2 y128."""
    count = 0
    for k in range(0, d // 8 + 1):
        for c in (0, 1):
            for b in (0, 1, 2):
                if b and c:
                    continue
                rest_g = g - 12 * k - 7 * c - 2 * b
                rest_d = d - 8 * k - 4 * c - b
                a = rest_g
                if a < 0 or rest_d != 0:
                    continue
                if a and b:
                    continue
                count += 1
    return count


# ---------------------------------------------------------------- chains

def test_word_basis_3_1(cx):
    assert sorted(cx.word_label(w) for w in cx.words(3, 1)) == ["[x1^3]", "[x2]"]


def test_word_basis_0_0(cx):
    assert cx.words(0, 0) == [()]
    assert cx.boundary_bits(0, 0, 0) == 0


@pytest.mark.parametrize("build,g_max", [(build_a1_star, 10), (build_delta_cgl, 5)])
def test_words_are_sorted_letter_tuples(build, g_max):
    # listing words by first letter and then by tail is lexicographic
    # order: (g, s) lists the sorted tuples of s letter ids whose gradings
    # sum to g, here built apart from the offsets that words decodes
    cx = build_cobar(build(), g_max, g_max)
    grading = cx.letter_grading
    for s in range(g_max + 1):
        letters = [a for a, lg in enumerate(grading) if lg <= g_max - s + 1]
        by_g = {}
        for w in itertools.product(letters, repeat=s):
            by_g.setdefault(sum(grading[a] for a in w), []).append(w)
        for g in range(g_max + 1):
            assert cx.words(g, s) == sorted(by_g.get(g, [])), (g, s)


@pytest.mark.parametrize("g,s", [(3, -1), (0, -1), (-1, -1), (5, -3)])
def test_no_words_in_negative_length(cx, g, s):
    assert cx.words(g, s) == []
    assert cx.chain_dim(g, s) == 0


def test_differential_of_x2(cx, a1):
    lid = cx._letter_index[(3, a1.index(3, "x2"))]
    i = cx.word_index(3, 1)[(lid,)]
    img = cx.boundary_bits(3, 1, i)
    assert [cx.word_label(cx.word_of(3, 2, j)) for j in bits_of(img)] == ["[x1^2|x1]"]


def test_primitive_letter_closed(cx, a1):
    lid = cx._letter_index[(1, 0)]
    i = cx.word_index(1, 1)[(lid,)]
    assert cx.boundary_bits(1, 1, i) == 0


def test_d_squared_zero_window(cx):
    for g in range(0, 9):
        for s in range(0, g + 1):
            for i in range(cx.chain_dim(g, s)):
                v = cx.boundary_bits(g, s, i)
                assert cx.apply_boundary(g, s + 1, v) == 0


# ---------------------------------------------------------------- rows from tails

# the word model lists each layer's words and word index once per complex
layer_words = lru_cache(maxsize=256)(CobarComplex.words)
layer_index = lru_cache(maxsize=256)(CobarComplex.word_index)


def word_model_row(cx, g, s, w):
    """d(w) through the symbolic terms and the word index of (g, s + 1)."""
    idx, out = layer_index(cx, g, s + 1), 0
    for nw in cx.boundary_words(w):
        out ^= 1 << idx[nw]
    return out


def cone_model_row(cone, g, s, i):
    """Row i of the cone at (g, s) from the word model: d(x) for the x-part,
    z.y + d(y) for the y-part."""
    base = cone.base
    nx = base.chain_dim(g, s)
    if i < nx:
        return word_model_row(base, g, s, layer_words(base, g, s)[i])
    w, idx = layer_words(base, g - 1, s)[i - nx], layer_index(base, g, s + 1)
    zw = 0
    for zl in cone.z_letters:
        zw ^= 1 << idx[(zl,) + w]
    return zw ^ (word_model_row(base, g - 1, s, w) << base.chain_dim(g, s + 1))


def test_cone_y_rows_match_word_model(a1):
    base = build_cobar(a1, 10, 10)
    cone = ConeComplex(base, base.unique_class(1, 0))
    for g in range(1, 11):
        for s in range(g + 1):
            nx = base.chain_dim(g, s)
            for i in range(nx, nx + base.chain_dim(g - 1, s)):
                assert cone.boundary_bits(g, s, i) == cone_model_row(cone, g, s, i), (g, s, i)


@pytest.mark.parametrize("build,g_max", [(build_a1_star, 10), (build_delta_cgl, 5)])
def test_rows_from_tails_match_word_model(build, g_max):
    # every chain of every layer, read through the row functions of the
    # cobar complex and of its cone: first with no layer kept, when each
    # row is built from its tails' rows, kept or built the same way, then
    # once the layers below g_max - 1 are kept and their row functions are
    # their lists' lookups; g_max - 1 and g_max are never kept
    cx = build_cobar(build(), g_max, g_max)
    cone = ConeComplex(cx, cx.unique_class(1, 0))
    assert not cx._rows_cache
    for kept in (False, True):
        for g in range(g_max + 1):
            for s in range(g + 2):
                assert ((g, s) in cx._rows_cache) == (kept and 1 <= s <= g < g_max - 1), (g, s)
                row = cx.row_fn(g, s)
                if (g, s) in cx._rows_cache:
                    assert row == cx._rows_cache[(g, s)].__getitem__, (g, s)
                words = cx.words(g, s)
                assert cx.chain_dim(g, s) == len(words), (g, s)
                for i, w in enumerate(words):
                    assert row(i) == word_model_row(cx, g, s, w), (g, s, i)
                crow = cone.row_fn(g, s)
                for i in range(cone.chain_dim(g, s)):
                    assert crow(i) == cone_model_row(cone, g, s, i), (g, s, i)
        for g in range(g_max - 1):
            for s in range(1, g + 1):
                cx._tail_rows(g, s)
    assert all(key[0] < g_max - 1 for key in cx._rows_cache)


def test_row_fn_tensored_matches_boundaries():
    # d = top + 1 - s: the tensored boundary of degree d, and at s = 0 the
    # incoming boundaries of the top degree
    res = resolve(builtin_group("S3"), 4)
    cx = res.tensored
    g = cx.g_max
    for s in range(g + 1):
        want = tensored_boundary(res, g - s).data if s else res.top_kernel
        row = cx.row_fn(g, s)
        assert cx.chain_dim(g, s) == len(want)
        assert [row(i) for i in range(len(want))] == want, s
        assert all(cx.boundary_bits(g, s, i) == v for i, v in enumerate(want))


def test_window_errors(cx):
    with pytest.raises(WindowError):
        cx.boundary_matrix(27, 3)
    with pytest.raises(WindowError):
        build_cobar(build_delta_cgl(), g_max=6)


# ---------------------------------------------------------------- streamed ranks

def _assert_streamed_ranks(fresh, other, g_max):
    """rank_d on ``fresh`` (computed by its own streamed elimination, not
    served from the columns that image_echelon keeps) equals the rank of
    the stored boundary matrix of ``other``."""
    for g in range(g_max + 1):
        for s in range(g + 1):
            assert (g, s) not in fresh._paired_cache, (g, s)
            expected = other.boundary_matrix(g, s).rank() if other._dim(g, s) else 0
            assert fresh.rank_d(g, s) == expected, (g, s)


def test_rank_d_matches_matrix_rank(a1):
    _assert_streamed_ranks(build_cobar(a1, g_max=10), build_cobar(a1, g_max=10), 10)


def test_cone_rank_d_matches_matrix_rank(a1):
    cones = []
    for _ in range(2):
        base = build_cobar(a1, g_max=8)
        cones.append(ConeComplex(base, base.unique_class(1, 0)))
    _assert_streamed_ranks(cones[0], cones[1], 8)


def _assert_clearing_keeps_pairs(cx):
    """For each (g, s), in ascending s: the pairs of every row equal the
    pairs left after skipping the columns paired at (g, s - 1), and
    rank_d, which clears with its own columns of (g, s - 1), keeps the
    same columns."""
    skipped = 0
    for g in range(cx.g_max + 1):
        below: list[int] = []
        for s in range(g + 1):
            rows, order = partial(cx.boundary_bits, g, s), range(cx._dim(g, s))
            full = pair_rows(rows, [(order, [])], ())
            assert Counter(pair_rows(rows, [(order, [])], below)) == Counter(full), (g, s)
            assert s == 0 or (g, s - 1) in cx._paired_cache
            assert cx.rank_d(g, s) == len(full), (g, s)
            assert sorted(cx._paired_cache[(g, s)]) == sorted(c for _, c in full), (g, s)
            skipped += len(below)
            below = [c for _, c in full]
    assert skipped


def test_clearing_keeps_pairs_cobar(a1):
    _assert_clearing_keeps_pairs(build_cobar(a1, g_max=9))


def test_clearing_keeps_pairs_cone(a1):
    base = build_cobar(a1, g_max=8)
    _assert_clearing_keeps_pairs(ConeComplex(base, base.unique_class(1, 0)))


def test_clearing_keeps_pairs_tensored():
    _assert_clearing_keeps_pairs(resolve(builtin_group("S3"), 4).tensored)


def _assert_kept_pairs_clear(make, first=BigradedComplex.image_echelon):
    """After first(cx, g, s) on a fresh complex from make(), the columns
    kept at (g, s - 1) are those of an uncleared pair_rows run, and
    rank_d(g, s) then fetches none of their rows and equals the rank on a
    complex of its own."""
    fresh = make()
    skipped = 0
    for g in range(fresh.g_max + 1):
        for s in range(1, g + 1):
            cx = make()
            first(cx, g, s)
            assert (g, s) not in cx._paired_cache, (g, s)
            full = pair_rows(cx.row_fn(g, s - 1), [(range(cx._dim(g, s - 1)), [])], ())
            paired = set(cx._paired_cache.get((g, s - 1), ()))
            assert sorted(paired) == sorted(c for _, c in full), (g, s)
            fetched, row = [], cx.row_fn(g, s)

            def counted(i):
                fetched.append(i)
                return row(i)

            # every fetch of a row of (g, s) goes through its row function
            cx._row_fns[(g, s)] = counted
            assert cx.rank_d(g, s) == fresh.rank_d(g, s), (g, s)
            assert not paired & set(fetched), (g, s)
            if fetched:
                skipped += len(paired)
    assert skipped


def test_image_echelon_clears_cobar(a1):
    _assert_kept_pairs_clear(lambda: build_cobar(a1, g_max=9))


def test_image_echelon_clears_cone(a1):
    def make():
        base = build_cobar(a1, g_max=8)
        return ConeComplex(base, base.unique_class(1, 0))
    _assert_kept_pairs_clear(make)


def test_image_echelon_clears_tensored():
    res = resolve(builtin_group("S3"), 4)
    _assert_kept_pairs_clear(lambda: TensoredComplex(res))


def _assert_image_echelon_matches_uncleared(make):
    """The pivots of image_echelon(g, s), which skips the chains paired at
    (g, s - 2), equal those of an echelon of every row of d(g, s - 1),
    with s taken ascending on one complex (the pairs come from the image
    echelon one degree down) and descending on another (from rank_d)."""
    skipped = 0
    for order in (lambda g: range(1, g + 2), lambda g: range(g + 1, 0, -1)):
        cx = make()
        for g in range(cx.g_max + 1):
            for s in order(g):
                ref = Echelon()
                for v in map(cx.row_fn(g, s - 1), range(cx._dim(g, s - 1))):
                    ref.add(v, 0)
                assert cx.image_echelon(g, s).pivots == ref.pivots, (g, s)
                skipped += len(cx._paired_cache.get((g, s - 2), ()))
    assert skipped


def test_image_echelon_matches_uncleared_cobar(a1):
    _assert_image_echelon_matches_uncleared(lambda: build_cobar(a1, g_max=12))


def test_image_echelon_matches_uncleared_cone(a1):
    def make():
        base = build_cobar(a1, g_max=12)
        return ConeComplex(base, base.unique_class(1, 0))
    _assert_image_echelon_matches_uncleared(make)


def test_rank_d_clears_after_homology(a1):
    # homology at (g, s - 1) keeps the columns paired there by rank_d
    _assert_kept_pairs_clear(lambda: build_cobar(a1, g_max=7),
                             lambda cx, g, s: cx.homology(g, g - s + 1))


def _assert_homology_check_catches_short_kernel(monkeypatch, make, g_max):
    """With left_kernel dropping its last basis vector, homology raises
    at exactly the spots where the representatives the short kernel
    leaves are fewer than homology_dim of an unpatched complex; returns
    their number."""
    ref, cx, short_kernel = make(), make(), F2Matrix.left_kernel
    want = {}
    for g in range(g_max + 1):
        for s in range(g + 1):
            if ref._dim(g, s):
                kernel = ref.boundary_matrix(g, s).left_kernel().basis
                want[(g, g - s)] = (ref.map_rank_mod_boundaries(g, g - s, kernel[:-1])
                                    != ref.homology_dim(g, g - s))
    monkeypatch.setattr(F2Matrix, "left_kernel",
                        lambda m: Subspace(m.rows, short_kernel(m).basis[:-1]))
    raised = {}
    for g, d in want:
        try:
            cx.homology(g, d)
            raised[(g, d)] = False
        except AssertionError as e:
            assert str(e) == f"homology bookkeeping off at ({g},{d})"
            raised[(g, d)] = True
    assert raised == want
    return sum(want.values())


def test_homology_check_catches_short_kernel_cobar(monkeypatch, a1):
    assert _assert_homology_check_catches_short_kernel(
        monkeypatch, lambda: build_cobar(a1, g_max=12), 12) >= 1


def test_homology_check_catches_short_kernel_cone(monkeypatch, a1):
    def make():
        base = build_cobar(a1, g_max=8)
        return ConeComplex(base, base.unique_class(1, 0))
    _assert_homology_check_catches_short_kernel(monkeypatch, make, 8)


def test_homology_check_catches_short_kernel_tensored(monkeypatch):
    res = resolve(builtin_group("S3"), 4)
    _assert_homology_check_catches_short_kernel(monkeypatch, lambda: TensoredComplex(res), 4)


# ---------------------------------------------------------------- cotor dims

def test_cotor_dim_examples(cx):
    assert cx.homology_dim(0, 0) == 1
    assert cx.homology_dim(7, 4) == 1
    assert cx.homology_dim(3, 1) == 0
    assert cx.homology_dim(5, 2) == 0


def test_cotor_chart_small_window_matches_oracle(cx):
    for g in range(0, 11):
        for d in range(0, 9):
            assert cx.homology_dim(g, d) == oracle_cotor_dim(g, d), (g, d)


def test_ring_chart_names_counts_match_oracle():
    names = ring_chart_names(17, 10)
    for g in range(0, 18):
        for d in range(0, 11):
            assert len(names.get((g, d), [])) == oracle_cotor_dim(g, d), (g, d)


def test_representatives_are_cycles_off_boundaries(cx):
    for g in range(0, 9):
        for d in range(0, 7):
            for i, c in enumerate(cx.cotor_basis(g, d)):
                assert cx.class_nonzero(g, d, c.chain)
                assert cx.coords(g, d, c.chain) == 1 << i


# ---------------------------------------------------------------- products

@pytest.fixture(scope="module")
def named(cx):
    return {
        "h10": cx.unique_class(1, 0),
        "h11": cx.unique_class(2, 1),
        "y74": cx.unique_class(7, 4),
        "y128": cx.unique_class(12, 8),
    }


def test_relation_h10_h11(cx, named):
    assert cx.cotor_product(named["h10"], named["h11"]).chain == 0


def test_relation_h11_cubed(cx, named):
    h11sq = cx.cotor_product(named["h11"], named["h11"])
    assert h11sq.chain != 0
    assert cx.cotor_product(h11sq, named["h11"]).chain == 0


def test_relation_h11_y74(cx, named):
    assert cx.cotor_product(named["h11"], named["y74"]).chain == 0


def test_relation_y74_squared(cx, named):
    lhs = cx.product_chain(named["y74"], named["y74"])
    h10sq = cx.cotor_product(named["h10"], named["h10"])
    rhs = cx.product_chain(h10sq, named["y128"])
    assert cx.classes_agree(14, 8, lhs, rhs)
    assert not cx.is_boundary(14, 8, lhs)


def test_product_with_unit(cx, named):
    one = cx.unique_class(0, 0)
    p = cx.cotor_product(one, named["y74"])
    assert cx.classes_agree(7, 4, p.chain, named["y74"].chain)


def test_periodicity_small_gradings(cx, named):
    for g in range(0, 3):
        for d in range(0, 5):
            src = cx.cotor_basis(g, d)
            assert len(src) == cx.homology_dim(g + 12, d + 8)
            if src:
                chains = [cx.product_chain(b, named["y128"]) for b in src]
                assert cx.map_rank_mod_boundaries(g + 12, d + 8, chains) == len(src)


def word_model_concat(cx, g, s, chain, y):
    """x.y through word tuples: every word of the chain concatenated with
    every word of y's chain, indexed by the word index of the target."""
    idx, ws = layer_index(cx, g + y.g, s + y.s), layer_words(cx, g, s)
    yws = [layer_words(cx, y.g, y.s)[j] for j in bits_of(y.chain)]
    out = 0
    for i in bits_of(chain):
        for b in yws:
            out ^= 1 << idx[ws[i] + b]
    return out


def pattern(n, k):
    """Every k-th chain of n, from chain k - 1: a mixed chain."""
    return sum(1 << i for i in range(k - 1, n, k))


def test_word_of_and_index_of_match_words(a1):
    cx = build_cobar(a1, 10, 10)
    for g in range(11):
        for s in range(g + 1):
            for i, w in enumerate(cx.words(g, s)):
                assert cx.word_of(g, s, i) == w, (g, s, i)
                assert cx.index_of(g, s, w) == i, (g, s, i)


@pytest.mark.parametrize("build,g_max", [(build_a1_star, 9), (build_delta_cgl, 5)])
def test_concat_chain_matches_word_model(build, g_max):
    # mixed chains on both sides over every pair of layers that fits the
    # window, the unit at (0, 0) on either side included
    cx = build_cobar(build(), g_max, g_max)
    for g1 in range(g_max + 1):
        for s1 in range(g1 + 1):
            n1 = cx.chain_dim(g1, s1)
            for g2 in range(g_max + 1 - g1):
                for s2 in range(g2 + 1):
                    n2 = cx.chain_dim(g2, s2)
                    for k1, k2 in ((1, 1), (2, 3), (3, 1)):
                        x, y = pattern(n1, k1), CotorClass(g2, g2 - s2, pattern(n2, k2))
                        assert cx.concat_chain(g1, s1, x, y) == \
                            word_model_concat(cx, g1, s1, x, y), (g1, s1, g2, s2, k1, k2)


def test_products_match_word_model(cx, named):
    classes = [cx.unique_class(0, 0), *named.values(), *cx.cotor_basis(4, 2)]
    for x in classes:
        for y in classes:
            if x.g + y.g <= 14:
                assert cx.product_chain(x, y) == word_model_concat(cx, x.g, x.s, x.chain, y)


def test_module_action_matches_word_model(cone, named):
    # cone chains with nonzero x- and y-parts, and the unit acting
    base = cone.base
    for r in (base.unique_class(0, 0), named["h10"], named["h11"], named["y74"]):
        for g in range(6):
            for s in range(g + 1):
                nx, ny = base.chain_dim(g, s), base.chain_dim(g - 1, s)
                for x, y in ((pattern(nx, 1), pattern(ny, 1)), (0, pattern(ny, 2)),
                             (pattern(nx, 2), 0)):
                    gt, dt, c = cone.module_action(r, g, g - s, cone.join_chain(g, s, x, y))
                    want = cone.join_chain(gt, gt - dt, word_model_concat(base, g, s, x, r),
                                           word_model_concat(base, g - 1, s, y, r) if y else 0)
                    assert (gt, dt, c) == (g + r.g, g - s + r.d, want), (r, g, s)


def test_concat_chain_refuses_targets_past_the_window(a1):
    # past g_max the letters are cut, so the offsets undercount: a product
    # landing there would be misindexed, so it raises; an empty chain is 0
    small = build_cobar(a1, 4, 4)
    assert small._offsets(8, 2)[-1] == 1 != build_cobar(a1, 8, 8)._offsets(8, 2)[-1] == 7
    h11 = small.unique_class(2, 1)
    h11sq = CotorClass(4, 2, small.product_chain(h11, h11))
    assert small.class_nonzero(4, 2, h11sq.chain)
    with pytest.raises(WindowError):
        small.product_chain(h11sq, h11)
    with pytest.raises(WindowError):
        small.concat_chain(2, 1, h11.chain, h11sq)
    assert small.concat_chain(2, 1, 0, h11sq) == 0
    assert small.concat_chain(-1, 0, 0, h11) == 0
    short = build_cobar(a1, 8, 2)
    h11 = short.unique_class(2, 1)
    with pytest.raises(WindowError):
        short.product_chain(CotorClass(4, 2, short.product_chain(h11, h11)), h11)


def test_products_list_no_target_words(a1, request):
    # criterion 3's products on a fresh complex: the bases are computed
    # first, and the products and their ranks then list no layer's words
    # and build no word index
    cx = build_cobar(a1, 20, 20)
    y128 = cx.unique_class(12, 8)
    bases = {(g, d): cx.cotor_basis(g, d) for g in range(6) for d in range(11)}
    calls = request.getfixturevalue("word_calls")
    for (g, d), basis in bases.items():
        images = [cx.product_chain(y128, b) for b in basis]
        assert cx.map_rank_mod_boundaries(g + 12, d + 8, images) == len(basis), (g, d)
    assert calls == []


# ---------------------------------------------------------------- cone

def test_cone_requires_1_0_cycle(cx, named):
    with pytest.raises(ValueError):
        ConeComplex(cx, named["h11"])
    with pytest.raises(ValueError):
        ConeComplex(cx, CotorClass(1, 0, 0))


def test_flash_dims(cone):
    expected = {(0, 0), (2, 1), (3, 2), (4, 2), (5, 3), (7, 4)}
    for g in range(0, 8):
        for d in range(0, 5):
            assert cone.homology_dim(g, d) == (1 if (g, d) in expected else 0), (g, d)


def test_cone_dim_zero_at_1_0(cone):
    assert cone.homology_dim(1, 0) == 0


def test_cone_d_squared_zero_window(cone):
    for g in range(0, 8):
        for s in range(0, g + 1):
            for i in range(cone.chain_dim(g, s)):
                assert cone.apply_boundary(g, s + 1, cone.boundary_bits(g, s, i)) == 0


def test_hidden_extension(cx, cone, named):
    z00 = cone.unique_class(0, 0)
    z32 = cone.unique_class(3, 2)
    g1, d1, c1 = cone.module_action(named["h10"], 3, 2, z32.chain)
    h11sq = cx.cotor_product(named["h11"], named["h11"])
    g2, d2, c2 = cone.module_action(h11sq, 0, 0, z00.chain)
    assert (g1, d1) == (g2, d2) == (4, 2)
    assert cone.class_nonzero(4, 2, c1)
    assert cone.classes_agree(4, 2, c1, c2)


def test_flash_height_three(cx, cone, named):
    z00 = cone.unique_class(0, 0)
    h11sq = cx.cotor_product(named["h11"], named["h11"])
    h11cu_chain = cx.product_chain(h11sq, named["h11"])
    cube = CotorClass(6, 3, h11cu_chain)
    g, d, c = cone.module_action(cube, 0, 0, z00.chain)
    assert cone.is_cycle(g, d, c) and cone.is_boundary(g, d, c)


def test_unit_acts_as_identity(cx, cone):
    z00 = cone.unique_class(0, 0)
    g, d, c = cone.module_action(cx.unique_class(0, 0), 0, 0, z00.chain)
    assert (g, d) == (0, 0) and cone.classes_agree(0, 0, c, z00.chain)


def test_long_exact_sequence_dimension_count(cx, cone, named):
    """dim Hcone(g,d) = dim H(g,d) - rank(z mult from (g-1,d))
    + dim ker(z mult from (g-1,d-1))."""
    z = named["h10"]

    def z_rank(g, d):
        src = cx.cotor_basis(g, d)
        if not src:
            return 0
        chains = [cx.product_chain(b, z) for b in src]
        return cx.map_rank_mod_boundaries(g + 1, d, chains)

    for g in range(0, 7):
        for d in range(0, 5):
            lhs = cone.homology_dim(g, d)
            rk_in = z_rank(g - 1, d) if g >= 1 else 0
            ker_below = (
                cx.homology_dim(g - 1, d - 1) - z_rank(g - 1, d - 1)
                if g >= 1 and d >= 1
                else 0
            )
            assert lhs == cx.homology_dim(g, d) - rk_in + ker_below, (g, d)


# ---------------------------------------------------------------- induced maps

def test_identity_induces_identity(cx, a1):
    from f2alg.hopf import CoalgebraMap

    images = {
        (g, i): 1 << i for g in range(a1.max_grading + 1) for i in range(a1.dim(g))
    }
    f = CoalgebraMap(a1, a1, images)
    m = CobarMap(f, cx, cx)
    for g in range(0, 6):
        for d in range(0, 4):
            for i, c in enumerate(cx.cotor_basis(g, d)):
                assert cx.coords(g, d, m.map_chain(g, c.s, c.chain)) == 1 << i, (g, d)


def test_comparison_map_hits_h10_and_h11(cx, a1):
    cgl = build_delta_cgl()
    src = build_cobar(cgl, g_max=5)
    f = build_cgl_to_a1_map(cgl, a1)
    m = CobarMap(f, src, cx)
    gen = src.unique_class(1, 0)
    img = m.map_chain(1, 1, gen.chain)
    assert cx.classes_agree(1, 0, img, cx.unique_class(1, 0).chain)
    assert cx.class_nonzero(1, 0, img)
    (c21,) = src.cotor_basis(2, 1)
    img2 = m.map_chain(2, 1, c21.chain)
    assert cx.classes_agree(2, 1, img2, cx.unique_class(2, 1).chain)
    assert cx.class_nonzero(2, 1, img2)


def test_map_chain_matches_word_model(a1):
    cgl = build_delta_cgl()
    src, tgt = build_cobar(cgl, g_max=5), build_cobar(a1, 5, 5)
    m = CobarMap(build_cgl_to_a1_map(cgl, a1), src, tgt)
    for g in range(6):
        for s in range(g + 1):
            idx = tgt.word_index(g, s)
            for i, w in enumerate(src.words(g, s)):
                want = 0
                for nw in itertools.product(*(m.letter_images[lid] for lid in w)):
                    want ^= 1 << idx[nw]
                assert m.map_chain(g, s, 1 << i) == want, (g, s, i)
    assert m.map_chain(6, 1, 0) == 0
    with pytest.raises(WindowError):
        m.map_chain(6, 1, 1)


# ---------------------------------------------------------------- chart table

def test_chart_tsv_shape(table_lines):
    code, lines = table_lines(["cotor", "--gmax", "3", "--dmax", "2"])
    assert code == 0
    assert lines[0] == "g\td\tdim\tclass_names"
    assert f"1\t0\t1\th10" in lines
    assert len(lines) == 1 + 4 * 3


# ---------------------------------------------------------------- invariants under -O

def non_coassociative() -> HopfAlgebra:
    """Letters a, b, c in gradings 1, 2, 3 with reduced coproducts b -> a|a
    and c -> a|b; not coassociative: d[c] = [a|b], d[a|b] = [a|a|a]."""
    def psi(g, *reduced):
        return (((0, 0), (g, 0)),) + reduced + (((g, 0), (0, 0)),)

    comult = {(0, 0): (((0, 0), (0, 0)),), (1, 0): psi(1),
              (2, 0): psi(2, ((1, 0), (1, 0))), (3, 0): psi(3, ((1, 0), (2, 0)))}
    return HopfAlgebra([["1"], ["a"], ["b"], ["c"]], {}, comult)


def test_d_squared_check_raises():
    with pytest.raises(AssertionError, match=r"d\*d != 0 on \[c\]"):
        CobarComplex(non_coassociative(), 3, 3).boundary_matrix(3, 1)


def test_d_squared_check_survives_optimize_flag(run_optimized):
    """The test above, run again in a python -O subprocess."""
    run_optimized("import test_cobar; test_cobar.test_d_squared_check_raises()")
