"""Tests for the mod-2 Dyer-Lashof calculus.

The free-basis oracle enumerates every positive integer sequence with
bidegree inside the box and filters by is_normal, with no slope pruning,
independently of the package's pruned enumeration.
"""

import itertools
from fractions import Fraction

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
    slope,
    upper_form,
)

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


def test_sq_registered_generator_value():
    reg = {("b", 1): P("s^3")}
    assert dual_steenrod(1, P("b"), reg) == P("s^3")
    assert dual_steenrod(1, P("b")) == ZERO


# ---------------------------------------------------------------- free basis

def test_free_basis_4_3():
    got = {render(poly(m)) for m in free_basis([SIGMA], 4, 3)}
    assert got == {"Q[2,1](s)", "Q[1](s)*Q[2](s)", "s^2*Q[3](s)"}


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
    monkeypatch.setattr(dl, "free_basis", lambda *a: calls.append(a) or [])
    with pytest.raises(ValueError, match="not a class on the given generators"):
        ideal_quotient_dims([SIGMA, BETA], [P("s*Q[1](s)"), P("s*n1")], 20, 12)
    assert calls == []


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
    (m11,) = P("q[1,1](s)")
    assert slope(m11) == Fraction(3, 4)
    (mb,) = P("b")
    assert slope(mb) == Fraction(2, 3)
    lower = (1, 1, 1)
    (m111,) = poly(q_mono_of(SIGMA, upper_form(lower, SIGMA)))
    assert slope(m111) == Fraction(7, 8)


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
