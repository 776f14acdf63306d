"""Tests for the tri-graded survivor bookkeeping module.

The (12,8) and (13,8) chart fixtures and both survivor sets are fixed
values; the enumeration is cross-checked against a brute-force
generate-then-filter oracle that shares no code with free_basis.
"""

import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from f2alg.cellfilt import (
    TABLE_12_8,
    TABLE_13_8,
    DeclaredDifferential,
    build_chart,
    chart_reconciliation,
    e1_basis_mod_sigma,
    enumerate_mod_sigma,
    filtration,
    filtration_discrepancies,
    load_declarations,
    parse_declarations,
    propagate,
    reading_report,
    table_monomials,
    tri,
    validate_declarations,
)
from f2alg.dyer_lashof import (
    BETA,
    SIGMA,
    factor_bidegree,
    is_normal,
    mono_bidegree,
    mono_mul,
    mono_sorted,
    render_mono,
)


@pytest.fixture(scope="module")
def decls():
    return load_declarations()


# ---------------------------------------------------------------- filtration rule

def test_filtration_fixed_values():
    assert tri("b^4").f == -4
    assert tri("q[1](s)^3*q[1](b)").f == -8
    assert tri("q[1](s)^2*q[1,1](s)^2").f == -12
    assert tri("q[1](s)^2*b^3").f == -7
    assert tri("s").f == -1
    assert filtration(()) == 0


def test_filtration_additive_over_products():
    a = tri("q[1](s)^2*b").m
    b = tri("q[1,1](s)*q[2](s)").m
    assert filtration(mono_mul(a, b)) == filtration(a) + filtration(b)


# ---------------------------------------------------------------- chart bases

def test_basis_12_8_matches_recorded_table():
    got = {t.m: t.f for t in e1_basis_mod_sigma(12, 8, enumerate_mod_sigma(12, 8))}
    want = {}
    for _, expr, _ in TABLE_12_8:
        t = tri(expr)
        want[t.m] = t.f
    assert got == want
    assert len(got) == 7


def test_basis_13_8():
    got = {t.m: t.f for t in e1_basis_mod_sigma(13, 8, enumerate_mod_sigma(13, 8))}
    want = {tri(expr).m: f for _, expr, f in TABLE_13_8}
    assert got == want  # all three rows match the doubling rule
    assert sorted(got.values()) == [-11, -11, -7]


def test_basis_0_0():
    assert e1_basis_mod_sigma(0, 0, enumerate_mod_sigma(0, 0)) == [((), 0)]


def oracle_mod_sigma(g, d):
    """Generate-then-filter: all sorted products of brute-force normal
    towers at (g, d), no bare sigma."""
    facs = []
    for gen in (SIGMA, BETA):
        if gen is not SIGMA:
            facs.append((gen, ()))
        for length in range(1, 4):
            for seq in itertools.product(range(d + 1), repeat=length):
                f = (gen, seq)
                fg, fd = factor_bidegree(f)
                if fg <= g and fd <= d and is_normal(seq, gen):
                    facs.append(f)
    out = set()

    def rec(i, acc, rg, rd):
        if rg == 0 and rd == 0:
            out.add(mono_sorted(acc))
            return
        if rg <= 0 and (rg, rd) != (0, 0):
            return
        if i == len(facs):
            return
        rec(i + 1, acc, rg, rd)
        fg, fd = factor_bidegree(facs[i])
        k = 1
        while k * fg <= rg and k * fd <= rd:
            rec(i + 1, acc + [facs[i]] * k, rg - k * fg, rd - k * fd)
            k += 1

    rec(0, [], g, d)
    return out


def test_enumeration_matches_bruteforce_oracle():
    for g in range(0, 10):
        for d in range(0, 7):
            assert {t.m for t in enumerate_mod_sigma(g, d)} == oracle_mod_sigma(
                g, d
            ), (g, d)


def test_reconciliation_reports_the_extra_normal_monomial():
    rec = chart_reconciliation(TABLE_12_8, enumerate_mod_sigma(12, 8))
    assert rec["enumerated_only"] == ["b^2*Q[1](s)*Q[2,1](s)"]
    assert rec["recorded_only"] == []
    assert len(rec["matched"]) == 7
    # the excluded monomial is genuinely normal and mod-sigma
    assert tri("q[1](s)*b^2*q[1,1](s)").m in oracle_mod_sigma(12, 8)


def test_reconciliation_13_8_clean():
    rec = chart_reconciliation(TABLE_13_8, enumerate_mod_sigma(13, 8))
    assert rec["enumerated_only"] == [] and rec["recorded_only"] == []


# ---------------------------------------------------------------- declarations

def test_shipped_declarations_validate(decls):
    assert len(decls) == 8
    assert sorted(d.r for d in decls) == [2, 4, 4, 4, 4, 4, 4, 4]
    validate_declarations(decls)  # bidegrees, tags, filtration balance


def test_declaration_parse_errors():
    with pytest.raises(ValueError):
        parse_declarations("d2 b -> b + s^3")  # sum on one side
    with pytest.raises(ValueError):
        parse_declarations("q[1](s) -> b")  # no page


def test_validation_rejects_bad_bidegree():
    bad = parse_declarations("d2 q[1](s)^2 -> b")
    with pytest.raises(ValueError):
        validate_declarations(bad)


def test_validation_rejects_unbalanced_tags():
    bad = parse_declarations("d2 tau^3 q[1](s)^2 -> s^2*q[1](s)")
    with pytest.raises(ValueError):
        validate_declarations(bad)


# ---------------------------------------------------------------- propagation

def test_survivors_12_8(decls):
    chart = propagate(build_chart(12, 8, -4, enumerate_mod_sigma(12, 8)), decls)
    assert sorted(c.label for c in chart.survivors()) == [
        "b^4",
        "tau^8*Q[1](s)^2*Q[2,1](s)^2",
    ]


def test_survivors_13_8_empty(decls):
    chart = propagate(build_chart(13, 8, -5, enumerate_mod_sigma(13, 8)), decls)
    assert chart.survivors() == []
    assert all(st == "killed" for st, _ in chart.status.values())


def test_empty_declarations_all_survive():
    chart = propagate(build_chart(12, 8, -4, enumerate_mod_sigma(12, 8)), [])
    assert len(chart.survivors()) == len(chart.entries) == 7


def test_source_killed_earlier_page_raises():
    decls = parse_declarations(
        "d2 q[1](s)^2 -> s^2*q[1](s)\n"
        "d4 tau^2 q[1](s)^2 -> tau^6 s^2*q[1](s)\n"
    )
    with pytest.raises(ValueError):
        propagate(build_chart(4, 2, 0, enumerate_mod_sigma(4, 2)), decls)


def test_same_page_double_kill_allowed():
    decls = parse_declarations(
        "d4 q[1](s)^2 -> s^2*q[1](s)\n"
        "d4 tau^2 q[1](s)^2 -> tau^2 s^2*q[1](s)\n"
    )
    propagate(build_chart(4, 2, 0, enumerate_mod_sigma(4, 2)), decls)


# ---------------------------------------------------------------- reports

def report(spots, decls):
    """reading_report on the charts the survivor table is printed from."""
    charts = [build_chart(g, d, f, enumerate_mod_sigma(g, d)) for g, d, f in spots]
    return reading_report([propagate(c, decls) for c in charts], decls)


def test_reading_report(decls):
    rep = report([(12, 8, -4), (13, 8, -5)], decls)
    assert rep["discrepancies"] == [("chi2", "b^2*Q[1](s)^2*Q[2](s)", -6, -8)]
    assert rep["agree"]
    per = rep["spots"][(12, 8, -4)]
    assert per["rule"] == per["table"] == ["Q[1](s)^2*Q[2,1](s)^2", "b^4"]
    assert rep["spots"][(13, 8, -5)] == {"rule": [], "table": []}


def _reference_report(spots, decls):
    """The reading report as a plain rerun: the survivor analysis done
    once with the rule filtrations and again with the recorded (12, 8)
    values, each declared tag rebalanced to the reading in use."""
    recorded = {m: listed for _, m, listed in table_monomials(TABLE_12_8)}
    readings = {"rule": filtration,
                "table": lambda m: recorded.get(m, filtration(m))}
    basis = functools.cache(lambda g, d: e1_basis_mod_sigma(g, d, enumerate_mod_sigma(g, d)))
    out = {}
    for g, d, f in spots:
        per = {}
        for label, fil in readings.items():
            dead = {}  # m -> (threshold, page)
            for decl in sorted(decls, key=lambda dd: dd.r):
                sg, sd = mono_bidegree(decl.source)
                j = decl.j + filtration(decl.source) - fil(decl.source)
                k = decl.k + filtration(decl.target) - fil(decl.target)
                if (mono_bidegree(decl.target) != (sg, sd - 1) or j < 0 or k < 0
                        or fil(decl.source) + j != fil(decl.target) + k):
                    raise ValueError(decl.describe())
                prior = dead.get(decl.source)
                if prior is not None and prior[1] < decl.r and prior[0] <= j:
                    raise ValueError(decl.describe())
                for m, tag in ((decl.source, j), (decl.target, k)):
                    if m not in dead or tag < dead[m][0]:
                        dead[m] = (tag, decl.r)
            per[label] = sorted(
                render_mono(t.m) for t in basis(g, d)
                if f - fil(t.m) >= 0
                and not (t.m in dead and f - fil(t.m) >= dead[t.m][0])
            )
        out[(g, d, f)] = per
    return {
        "discrepancies": filtration_discrepancies(TABLE_12_8),
        "spots": out,
        "agree": all(per["rule"] == per["table"] for per in out.values()),
    }


CHI2 = tri("q[1](s)^2*b^2*q[2](s)").m
SOURCES = [CHI2] + [t.m for gd in [(12, 8), (12, 9), (13, 8), (13, 9)]
                    for t in enumerate_mod_sigma(*gd)]


@st.composite
def balanced_declaration(draw):
    """A declaration with its target one degree below its source and
    tags balanced under the rule: f(source) + j = f(target) + k."""
    src = draw(st.one_of(st.just(CHI2), st.sampled_from(SOURCES)))
    sg, sd = mono_bidegree(src)
    tgt = draw(st.sampled_from([t.m for t in enumerate_mod_sigma(sg, sd - 1)]))
    j = max(0, filtration(tgt) - filtration(src)) + draw(st.integers(0, 6))
    k = filtration(src) + j - filtration(tgt)
    return DeclaredDifferential(draw(st.sampled_from([2, 4])), src, j, tgt, k)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.lists(balanced_declaration(), max_size=4),
    st.lists(st.tuples(st.sampled_from([12, 13]), st.just(8), st.integers(-14, 1)),
             min_size=1, max_size=2),
)
# the readings disagree: chi2 sits at tag 1 under the rule, off the table chart
@example([], [(12, 8, -7)])
# valid under the rule, a negative tag on chi2 under the recorded filtration
@example(parse_declarations("d2 q[1](s)^2*b^2*q[2](s) -> tau^4 q[1](s)^5*q[2](s)"),
         [(12, 8, -4)])
# the same with chi2 as the target
@example(parse_declarations("d4 b^2*q[1](s)*q[2](s)^2 -> q[1](s)^2*b^2*q[2](s)"),
         [(12, 8, -4)])
def test_reading_report_matches_rerun(decls, spots):
    try:
        want = _reference_report(spots, decls)
    except ValueError:
        with pytest.raises(ValueError):
            report(spots, decls)
        return
    assert report(spots, decls) == want


def test_filtration_discrepancies_clean_table():
    assert filtration_discrepancies(TABLE_13_8) == []


def test_survivor_tsv(table_lines):
    # the default spots are the charts at (12, 8, -4) and (13, 8, -5)
    code, lines = table_lines(["cellss"])
    assert code == 0
    assert lines[0] == "g\td\tf\tp\tclass\tstatus\tkilled_by"
    assert len(lines) == 1 + 7 + 3
    assert any("b^4\tsurvives" in ln for ln in lines)
    killed = [ln for ln in lines if "\tkilled\t" in ln]
    assert len(killed) == 8
    assert all(ln.split("\t")[-1] for ln in killed)  # every kill names its cause
