"""Tests for the mod-2 Dyer-Lashof calculus.

The free-basis oracle enumerates every positive integer sequence with
bidegree inside the box and filters by is_normal, with no slope pruning,
independently of the package's pruned enumeration.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from f2alg import dyer_lashof as dl
from f2alg.dyer_lashof import (
    BETA,
    NU1,
    NU2,
    SIGMA,
    ZERO,
    apply_q,
    bar_class,
    barred,
    cartan_splits,
    dual_steenrod,
    eval_expr,
    factor_bidegree,
    free_basis,
    gen_mono,
    ideal_quotient_dims,
    is_normal,
    lower_form,
    mono_bidegree,
    mono_sorted,
    parse,
    poly,
    poly_mul,
    q_mono_of,
    render,
    upper_form,
)
from f2alg.f2linalg import F2Matrix

GENS = {"s": SIGMA, "n1": NU1, "n2": NU2, "b": BETA}


def P(text):
    return parse(text, GENS)


# ---------------------------------------------------------------- normality

def test_normal_21_on_sigma():
    assert is_normal((2, 1), SIGMA)
    assert lower_form((2, 1), SIGMA) == (1, 1)


def test_not_normal_31_on_sigma():
    assert not is_normal((3, 1), SIGMA)


def test_empty_sequence_normal():
    assert is_normal((), SIGMA)
    assert is_normal((), BETA)


def test_single_entry_normality_threshold():
    assert not is_normal((1,), BETA)  # d(b) = 2
    assert not is_normal((2,), BETA)
    assert is_normal((3,), BETA)


def test_index_conversion_roundtrip():
    for seq in [(1,), (2, 1), (4, 2, 1), (5, 3)]:
        for x in (SIGMA, BETA):
            assert upper_form(lower_form(seq, x), x) == seq


# ---------------------------------------------------------------- Q action

def test_q2_of_sigma_q1_sigma():
    assert apply_q(2, P("s*Q[1](s)")) == P("Q[1](s)^3 + s^2*Q[2,1](s)")


def test_q31_vanishes():
    assert apply_q(3, P("Q[1](s)")) == ZERO


def test_q_on_unit_vanishes():
    assert apply_q(5, poly(())) == ZERO


def test_q_below_degree_vanishes():
    assert apply_q(1, P("Q[2,1](s)")) == ZERO  # degree 3 > 1


def test_q_at_degree_squares():
    assert apply_q(1, P("Q[1](s)")) == P("Q[1](s)^2")
    assert apply_q(3, P("Q[2,1](s)")) == P("Q[2,1](s)^2")


def test_q_output_is_normal():
    for text in ["s*Q[1](s)", "Q[2](s)", "s^3", "Q[2,1](s)*s"]:
        for s in range(1, 7):
            for m in apply_q(s, P(text)):
                for gen, seq in m:
                    assert is_normal(seq, gen)


def test_adem_printing_pin():
    assert render(apply_q(2, P("s*Q[1](s)"))) == "Q[1](s)^3 + s^2*Q[2,1](s)"


# ---------------------------------------------------------------- dual Steenrod

def test_sq1_on_q21():
    assert dual_steenrod(1, P("Q[2,1](s)")) == P("Q[1](s)^2")


def test_sq1_on_product():
    assert dual_steenrod(1, P("Q[1](s)*Q[2](s)")) == P("Q[1](s)^2")


def test_sq2_on_q2_squared():
    assert dual_steenrod(2, P("Q[2](s)^2")) == P("Q[1](s)^2")


def test_sq2_on_q1q3():
    assert dual_steenrod(2, P("Q[1](s)*Q[3](s)")) == ZERO


def test_sq2_on_sigma2_q4():
    assert dual_steenrod(2, P("s^2*Q[4](s)")) == P("s^2*Q[2](s)")


def test_sq_on_degree_zero_generator():
    assert dual_steenrod(1, P("s")) == ZERO


def sq_uncut(a, f):
    """Sq^a_* on one tower by the Nishida relation alone, with no cutoff
    at the tower's degree."""
    if a == 0:
        return poly((f,))
    gen, seq = f
    if not seq:
        return ZERO
    out = ZERO
    for t in range(a // 2 + 1):
        if dl.binom_odd(seq[0] - a, a - 2 * t):
            out ^= dl._q_poly(seq[0] - a + t, sq_uncut(t, (gen, seq[1:])))
    return out


def test_sq_vanishes_past_the_degree():
    # Sq^a_* lowers the homological degree by a; dual_steenrod stops at
    # the degree, the uncut recursion reaches the same values the long way
    monos = [m for g in range(1, 13) for d in range(9)
             for m in free_basis([SIGMA, BETA, NU1], g, d)]
    assert len(monos) == 1186
    for m in monos:
        d = mono_bidegree(m)[1]
        for a in range(1, 12):
            got = dual_steenrod(a, poly(m))
            assert got == dl._linear(sq_uncut, a, poly(m)), (render(poly(m)), a)
            assert a <= d or got == ZERO, (render(poly(m)), a)


def test_cartan_splits_count_bounded_tuples():
    three = P("Q[1000](s)*Q[1001](s)*Q[1002](s)")
    assert [cartan_splits(a, three) for a in (25, 50)] == [351, 1326]
    # a bare generator takes only the split 0: every Sq^a_*, a > 0, kills it
    assert cartan_splits(12, P("n1^8")) == cartan_splits(20, P("n1^10")) == 0
    for text in ("Q[2](s)*Q[3](s)*s^2", "Q[4](s)^2 + Q[2,1](s)*b", "Q[4](n1)*n1^2", "s", "0"):
        p = P(text)
        for a in range(-1, 9):
            tuples = sum(sum(t) == a for m in p for t in itertools.product(
                *(range(factor_bidegree(f)[1] + 1 if f[1] else 1) for f in m)))
            assert cartan_splits(a, p) == tuples, (text, a)


def test_cartan_calls_op_once_on_one_factor():
    # only op^s of the one factor pairs with the empty rest
    calls = []

    def op(i, f):
        calls.append(i)
        return dl._q_factor(i, f)

    (m,) = P("Q[2,1](s)")
    assert dl._cartan(op, 7, m) == apply_q(7, poly(m))
    assert calls == [7]


# ---------------------------------------------------------------- free basis

def test_free_basis_4_3():
    got = {render(poly(m)) for m in free_basis([SIGMA], 4, 3)}
    assert got == {"Q[2,1](s)", "Q[1](s)*Q[2](s)", "s^2*Q[3](s)"}


@pytest.mark.parametrize("g,d", [(0, 0), (6, 4), (9, 9), (12, 8)])
def test_free_basis_walks_in_factor_key_order(g, d):
    basis = free_basis([SIGMA, BETA, NU1, NU2], g, d)
    keys = [tuple(dl.factor_key(f) for f in m) for m in basis]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(list(m) == sorted(m, key=dl.factor_key) for m in basis)


def test_free_basis_trivial():
    assert free_basis([SIGMA], 1, 0) == [gen_mono(SIGMA)]
    assert free_basis([SIGMA], 1, 4) == []


def oracle_basis_sigma(g, d, box_g=8, box_d=8):
    """Generate-then-filter: all sequences, no slope pruning."""
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


def test_free_basis_matches_oracle_in_box():
    for g in range(1, 9):
        for d in range(0, 9):
            got = set(free_basis([SIGMA], g, d))
            assert got == oracle_basis_sigma(g, d), (g, d)


# ---------------------------------------------------------------- Cartan / consistency

basis_pool = [
    m for g in range(1, 5) for d in range(0, 4) for m in free_basis([SIGMA], g, d)
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(basis_pool),
    st.sampled_from(basis_pool),
    st.integers(1, 5),
)
def test_cartan_consistency(m1, m2, s):
    p, q = poly(m1), poly(m2)
    lhs = apply_q(s, poly_mul(p, q))
    rhs = ZERO
    for i in range(s + 1):
        a = apply_q(i, p) if i >= 1 else _square_if_flat(p)
        b = apply_q(s - i, q) if s - i >= 1 else _square_if_flat(q)
        if a and b:
            rhs = frozenset(rhs ^ poly_mul(a, b))
    assert lhs == rhs


def _square_if_flat(p):
    # Q^0: squares degree-0 classes, kills positive degree
    out = set()
    for m in p:
        if mono_bidegree(m)[1] == 0:
            out ^= {mono_sorted(m + m)}
    return frozenset(out)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(basis_pool), st.integers(1, 5))
def test_normalization_idempotent(m, s):
    # re-applying the normalizer to its own output changes nothing: every
    # output monomial is already in the free basis at its bidegree
    img = apply_q(s, poly(m))
    for mm in img:
        g, d = mono_bidegree(mm)
        assert mm in free_basis([SIGMA], g, d)


# ---------------------------------------------------------------- ideal quotient

@pytest.fixture(scope="module")
def quotient_table():
    rels = [P("s*Q[1](s)"), P("s*Q[3](s)"), P("s^2*Q[2](s)"), P("s*n1"), P("s*n2")]
    return ideal_quotient_dims([SIGMA, NU1, NU2], rels, 6, 3)


def test_quotient_dim_4_3(quotient_table):
    assert quotient_table[(4, 3)] == 2


def test_quotient_dim_3_1(quotient_table):
    assert quotient_table[(3, 1)] == 0


def test_quotient_dim_5_1(quotient_table):
    assert quotient_table[(5, 1)] == 0


def test_quotient_dims_row3(quotient_table):
    assert quotient_table[(3, 3)] == 2  # n1, n2 survive; Q^{3}... killed
    assert quotient_table[(5, 3)] == 1
    assert quotient_table[(6, 3)] == 1


def test_quotient_checks_relations_before_the_box(monkeypatch):
    # s*n1 is not a class on s, b; the 20 x 12 box would take seconds
    calls = []
    monkeypatch.setattr(dl, "box_bases", lambda *a: calls.append(a) or ([], {}))
    with pytest.raises(ValueError, match="not a class on the given generators"):
        ideal_quotient_dims([SIGMA, BETA], [P("s*Q[1](s)"), P("s*n1")], 20, 12)
    assert calls == []


def test_quotient_lists_each_generators_towers_once(monkeypatch):
    # the box is walked once and its closure reads the walk's tower list
    calls = []
    normal_factors = dl.normal_factors

    def counted(gen, g_max, d_max):
        calls.append(gen)
        return normal_factors(gen, g_max, d_max)

    monkeypatch.setattr(dl, "normal_factors", counted)
    rels = [P("s*Q[1](s)"), P("s*Q[3](s)"), P("s^2*Q[2](s)"), P("s*n1"), P("s*n2")]
    ideal_quotient_dims([SIGMA, NU1, NU2], rels, 6, 3)
    assert calls == [SIGMA, NU1, NU2]


def quotient_reference(gens, relations, g_max, d_max):
    """The ideal spanned by the relations and closed under multiplication
    by every monomial of the box and every Q^s, grown to a fixed point."""
    span = {}
    for p in relations:
        span.setdefault(dl.poly_bidegree(p), set()).add(p)
    while True:
        grown = {bd: set(ps) for bd, ps in span.items()}
        for (g, d), ps in span.items():
            for p in ps:
                for g2 in range(g_max - g + 1):
                    for d2 in range(d_max - d + 1):
                        for m in free_basis(gens, g2, d2) if g2 or d2 else []:
                            grown.setdefault((g + g2, d + d2), set()).add(poly_mul(p, poly(m)))
                for s in range(1, d_max - d + 1):
                    if 2 * g <= g_max:
                        grown.setdefault((2 * g, d + s), set()).add(apply_q(s, p))
        if grown == span:
            break
        span = grown
    dims = {}
    for g in range(g_max + 1):
        for d in range(d_max + 1):
            index = {m: i for i, m in enumerate(free_basis(gens, g, d))}
            rows = [sum(1 << index[m] for m in p) for p in span.get((g, d), ())]
            dims[(g, d)] = len(index) - F2Matrix(len(rows), len(index), rows).rank()
    return dims


@pytest.mark.parametrize("names,g_max,d_max", [("s,n1,n2", 8, 4), ("s,b", 9, 6)])
def test_quotient_matches_closure_under_all_monomials(names, g_max, d_max):
    gens = [dl.ALPHABET[n] for n in names.split(",")]
    # the last relation is not a monomial
    rels = [P(r) for r in ("s*Q[1](s)", "s*Q[3](s)", "s^2*Q[2](s)", "s*n1", "s*n2",
                           "Q[2,1](s) + s*n1")]
    rels = [p for p in rels if all(gen in gens for m in p for gen, _ in m)]
    assert ideal_quotient_dims(gens, rels, g_max, d_max) == quotient_reference(
        gens, rels, g_max, d_max)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("names", ["s", "s,b", "s,n1", "s,n1,n2"])
def test_quotient_of_random_sums_matches_closure(names, seed):
    # Q is applied only to seeds; sums of monomials test that on ideals
    # that are not monomial
    gens = [dl.ALPHABET[n] for n in names.split(",")]
    rng = random.Random(f"{names}/{seed}")
    spots = [b for g in range(1, 9) for d in range(6) if len(b := free_basis(gens, g, d)) > 1]
    rels = []
    for _ in range(rng.randint(1, 3)):
        basis = rng.choice(spots)
        rels.append(poly(*rng.sample(basis, rng.randint(2, len(basis)))))
    assert ideal_quotient_dims(gens, rels, 8, 5) == quotient_reference(gens, rels, 8, 5)


def test_quotient_applies_q_to_residues_of_q_images():
    # Q[4,2,1](s) at (8, 7) is Q^4 of Q[2,1](s), the image of the relation
    # under Q^2, and no product: it dies only if Q-images are seeds too
    rels = [P("Q[1](s)")]
    assert ideal_quotient_dims([SIGMA], rels, 8, 7) == quotient_reference([SIGMA], rels, 8, 7)


def test_quotient_applies_q_only_to_seeds(monkeypatch):
    # s,n1,n2 at (14, 8) took 323 calls when every residue was a seed; the
    # count depends on the order of the work list, so only a ceiling is pinned
    calls = []
    q = dl.apply_q
    monkeypatch.setattr(dl, "apply_q", lambda s, p: calls.append(s) or q(s, p))
    rels = [P(r) for r in ("s*Q[1](s)", "s*Q[3](s)", "s^2*Q[2](s)", "s*n1", "s*n2")]
    ideal_quotient_dims([SIGMA, NU1, NU2], rels, 14, 8)
    assert 0 < len(calls) < 100


def test_quotient_free_when_no_relations():
    table = ideal_quotient_dims([SIGMA], [], 2, 2)
    assert table[(2, 2)] == 1  # Q^2(s)


# ---------------------------------------------------------------- bar

def test_bar_kills_decomposables():
    assert bar_class(P("s*Q[1](s)")) == ZERO
    assert bar_class(P("s^2")) == ZERO


def test_bar_of_q1():
    sb = barred(SIGMA)
    assert bar_class(P("Q[1](s)")) == poly(mono_sorted([(sb, ()), (sb, ())]))


def test_bar_of_lower_tower():
    sb = barred(SIGMA)
    assert bar_class(P("q[1,1](s)")) == poly(mono_sorted([(sb, ())] * 4))


def test_bar_of_q2_is_tower_above_diagonal():
    sb = barred(SIGMA)
    got = bar_class(P("Q[2](s)"))
    assert got == poly(q_mono_of(sb, (2,)))
    (m,) = got
    assert mono_bidegree(m) == (2, 3)


def test_bar_additive_on_sums():
    p = P("Q[1](s) + s*Q[1](s)")
    assert bar_class(p) == bar_class(P("Q[1](s)"))


# ---------------------------------------------------------------- slope

def test_slopes():
    # the slope d/g of a class, read off its bidegree (g, d)
    (m11,) = P("q[1,1](s)")
    assert mono_bidegree(m11) == (4, 3)  # 3/4
    (mb,) = P("b")
    assert mono_bidegree(mb) == (3, 2)  # 2/3
    lower = (1, 1, 1)
    (m111,) = poly(q_mono_of(SIGMA, upper_form(lower, SIGMA)))
    assert mono_bidegree(m111) == (8, 7)  # 7/8


# ---------------------------------------------------------------- syntax

def test_parse_lower_equals_upper():
    assert P("q[1,1](s)") == P("Q[2,1](s)")


def test_parse_rejects_non_normal():
    with pytest.raises(ValueError):
        P("Q[3,1](s)")


@pytest.mark.parametrize("text", ["Q[1](s*s)", "(s)", "Q[1](Q[1](s))"])
def test_parse_refuses_nesting(text):
    # a literal class puts towers on bare generators only
    with pytest.raises(ValueError):
        P(text)


def test_render_zero_and_unit():
    assert render(ZERO) == "0"
    assert render(poly(())) == "1"


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(basis_pool), min_size=0, max_size=3))
def test_parse_render_roundtrip(monos):
    p = ZERO
    for m in monos:
        p = frozenset(p ^ poly(m))
    assert parse(render(p), GENS) == p
    assert eval_expr(render(p)) == p
