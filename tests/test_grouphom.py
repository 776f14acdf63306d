"""Tests for group homology via free resolutions.

Dimension fixtures are cross-checked by independent oracles: the UT3
ring monomial count, the abelianization subgroup closure for H_1, and
reversed greedy tie-breaking for choice independence.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2alg import grouphom
from f2alg.cobar import WindowError
from f2alg.f2linalg import bits_of
from f2alg.grouphom import (
    GroupHom,
    PermGroup,
    abelianization_f2_dim,
    assert_resolution,
    builtin_group,
    compose,
    homology_dims,
    induced_map,
    parse_group,
    resolve,
    stabilization_hom,
)

BUILTINS = ["1", "C2", "C4", "S2", "S3", "D8", "GL(2,2)", "GL(3,2)", "UT(3,2)"]


@pytest.fixture(scope="module")
def gl2():
    return builtin_group("GL(2,2)")


@pytest.fixture(scope="module")
def gl3():
    return builtin_group("GL(3,2)")


@pytest.fixture(scope="module")
def r_gl2(gl2):
    return resolve(gl2, 4)


@pytest.fixture(scope="module")
def r_gl3(gl3):
    return resolve(gl3, 4)


# ---------------------------------------------------------------- resolutions

def test_trivial_group_resolution():
    res = resolve(builtin_group("1"), 4)
    assert res.ranks == (1, 0, 0, 0, 0)
    assert homology_dims(res) == (1, 0, 0, 0, 0)


def test_c2_periodic_resolution():
    res = resolve(builtin_group("C2"), 6)
    assert res.ranks == (1, 1, 1, 1, 1, 1, 1)
    assert_resolution(res)
    assert homology_dims(res) == (1, 1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize("name", ["S3", "UT(3,2)", "D8", "C4"])
def test_resolutions_exact(name):
    assert_resolution(resolve(builtin_group(name), 4))


# ---------------------------------------------------------------- dimensions

def test_gl2_dims_all_one():
    res = resolve(builtin_group("GL(2,2)"), 6)
    assert homology_dims(res) == (1, 1, 1, 1, 1, 1, 1)


def test_degree_budget_enforced():
    with pytest.raises(WindowError, match="degree exceeds budget"):
        resolve(builtin_group("C2"), grouphom.MAX_DEGREE + 1)


def test_gl3_dims(r_gl3):
    assert homology_dims(r_gl3) == (1, 0, 1, 2, 1)


def ut3_ring_dims(d_max):
    """Monomial count in F2[a,b,c]/(ac), |a| = |c| = 1, |b| = 2."""
    dims = [0] * (d_max + 1)
    for i in range(d_max + 1):
        for j in range(d_max + 1):
            for k in range(d_max + 1):
                if i * k == 0 and i + 2 * j + k <= d_max:
                    dims[i + 2 * j + k] += 1
    return tuple(dims)


def test_ut3_dims_match_ring_oracle():
    res = resolve(builtin_group("UT(3,2)"), 4)
    assert homology_dims(res) == ut3_ring_dims(4) == (1, 2, 3, 4, 5)


def test_gl2_s3_isomorphic_dims(r_gl2):
    # the same group on 7 points (vector action) and 3 points
    assert homology_dims(resolve(builtin_group("S3"), 4)) == homology_dims(r_gl2)


@pytest.mark.parametrize("name", ["S3", "UT(3,2)", "D8"])
def test_dims_independent_of_greedy_ties(name):
    g = builtin_group(name)
    assert homology_dims(resolve(g, 4)) == homology_dims(
        resolve(g, 4, reverse_ties=True)
    )


# ---------------------------------------------------------------- top degree

def truncated(res, d):
    """The resolution through degree d; resolve builds degree by degree,
    so this is what resolve(group, d) returns."""
    return res._replace(ranks=res.ranks[:d + 1], boundaries=res.boundaries[:d + 1])


@pytest.mark.parametrize("reverse_ties", [False, True])
@pytest.mark.parametrize("name", BUILTINS + ["S4", "S5", "UT(4,2)"])
def test_top_degree_matches_one_degree_further(name, reverse_ties):
    # H_top is read off ker d_top; one degree further it is read off the
    # tensored image of d_{top+1}
    g = builtin_group(name)
    top = 5 if g.order <= 60 else 3
    further = resolve(g, top + 1, reverse_ties=reverse_ties)
    res = resolve(g, top, reverse_ties=reverse_ties)
    assert (res.ranks, res.boundaries) == truncated(further, top)[1:]
    dims = homology_dims(further)
    for d in range(top + 1):
        assert homology_dims(truncated(further, d)) == dims[:d + 1], d


def test_gl3_top_degree_reads_h4(r_gl3):
    # the H_4 of test_gl3_dims, read at the top with no F_5 built
    assert len(r_gl3.ranks) == 5
    assert homology_dims(r_gl3)[4] == 1


def test_top_degree_induced_map_matches_one_degree_further(gl2, gl3):
    ut3 = builtin_group("UT(3,2)")
    c2, s3 = builtin_group("C2"), builtin_group("S3")
    cases = [
        (stabilization_hom(gl2, gl3, 2), resolve(gl2, 5), resolve(gl3, 5)),
        (GroupHom(c2, s3, lambda p: tuple(p) + (2,)), resolve(c2, 5), resolve(s3, 5)),
        # a change of homology basis, so the coordinates are not all unit
        (GroupHom.identity(ut3), resolve(ut3, 5), resolve(ut3, 5, reverse_ties=True)),
    ]
    for hom, r_src, r_tgt in cases:
        for d in range(5):
            at_top = induced_map(hom, truncated(r_src, d), truncated(r_tgt, d), d)
            assert at_top == induced_map(hom, r_src, r_tgt, d), (hom.source.name, d)


def act_reference(group, e, v):
    """Left translation by e, one set bit at a time."""
    n = group.order
    out = 0
    for bit in bits_of(v):
        k, x = divmod(bit, n)
        out |= 1 << (k * n + group.mult(e, x))
    return out


TRANSLATE_GROUPS = {name: builtin_group(name) for name in ["C2", "S3", "D8", "GL(3,2)", "S4"]}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(TRANSLATE_GROUPS)), st.integers(1, 4), st.data())
def test_batched_translates_match_one_element_at_a_time(name, rank, data):
    g = TRANSLATE_GROUPS[name]
    v = data.draw(st.integers(0, (1 << (rank * g.order)) - 1))
    elements = data.draw(st.lists(st.integers(0, g.order - 1), max_size=8))
    assert grouphom._translates(g, v, range(g.order)) == \
        [act_reference(g, e, v) for e in range(g.order)]
    assert grouphom._translates(g, v, elements) == [act_reference(g, e, v) for e in elements]


# greedy ranks under both tie orders, recorded before the kernel-complement
# step was shared with the minimal-resolution engine; the greedy choice
# must not move
GREEDY_RANKS = {
    ("D8", 6): ((1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 6, 7, 8)),
    ("S3", 6): ((1, 2, 4, 5, 4, 5, 6), (1, 2, 3, 3, 2, 2, 2)),
    ("S4", 5): ((1, 3, 5, 6, 6, 9), (1, 3, 6, 7, 7, 8)),
    ("UT(3,2)", 6): ((1, 2, 4, 7, 10, 13, 16), (1, 3, 4, 6, 9, 13, 16)),
    ("GL(3,2)", 3): ((1, 2, 3, 6), (1, 4, 9, 19)),
}


@pytest.mark.parametrize("name,d_max", sorted(GREEDY_RANKS))
def test_greedy_ranks_pinned(name, d_max):
    g = builtin_group(name)
    got = tuple(resolve(g, d_max, reverse_ties=rev).ranks for rev in (False, True))
    assert got == GREEDY_RANKS[(name, d_max)]


def abelianization_reference(group):
    """log2 of the index of the subgroup generated by all squares and
    all pairwise commutators, by closure under multiplication."""
    n = group.order
    seeds = {group.mult(i, i) for i in range(n)}
    for i in range(n):
        for j in range(n):
            seeds.add(group.mult(group.mult(i, j), group.mult(group.inv(i), group.inv(j))))
    sub = {group.identity}
    while True:
        grown = sub | {group.mult(a, s) for a in sub for s in seeds}
        if grown == sub:
            return (n // len(sub)).bit_length() - 1
        sub = grown


@pytest.mark.parametrize("name", BUILTINS + ["S4", "UT(4,2)"])
def test_abelianization_squares_suffice(name):
    g = builtin_group(name)
    assert abelianization_f2_dim(g) == abelianization_reference(g)


@pytest.mark.parametrize("name", BUILTINS + ["S4", "UT(4,2)"])
def test_mult_table_matches_composition(name):
    g = builtin_group(name)
    for i, p in enumerate(g.elements):
        for j, q in enumerate(g.elements):
            assert g.mult(i, j) == g.index[compose(p, q)], (name, i, j)


def test_h0_and_h1_against_abelianization():
    for name in BUILTINS:
        g = builtin_group(name)
        dims = homology_dims(resolve(g, 1))
        assert dims[0] == 1, name
        assert dims[1] == abelianization_f2_dim(g), name


# ---------------------------------------------------------------- induced maps

def test_identity_induces_identity(gl2, r_gl2):
    ih = GroupHom.identity(gl2)
    for d in range(5):
        m = induced_map(ih, r_gl2, r_gl2, d)
        assert m.rows == m.cols == 1 and m.rank() == 1


def test_identity_induces_identity_matrix():
    # H_d(UT(3,2)) has dims 1..5, so coordinates over several classes count
    ut3 = builtin_group("UT(3,2)")
    res = resolve(ut3, 5)
    for d, dim in enumerate(homology_dims(res)):
        m = induced_map(GroupHom.identity(ut3), res, res, d)
        assert m.data == [1 << i for i in range(dim)]


def test_identity_across_tie_breaks(gl2, r_gl2):
    other = resolve(gl2, 4, reverse_ties=True)
    m = induced_map(GroupHom.identity(gl2), r_gl2, other, 3)
    assert m.rank() == 1


def test_stabilization_gl2_gl3(gl2, gl3, r_gl2, r_gl3):
    stab = stabilization_hom(gl2, gl3, 2)
    for d in range(5):
        m = induced_map(stab, r_gl2, r_gl3, d)
        src = homology_dims(r_gl2)[d]
        tgt = homology_dims(r_gl3)[d]
        assert (m.rows, m.cols) == (src, tgt)
        if d % 2 == 0:
            assert m.rank() == src == tgt  # isomorphism
        else:
            assert m.rank() == 0  # zero map


def test_stabilization_gl2_gl3_entries(gl2, gl3, r_gl2, r_gl3):
    stab = stabilization_hom(gl2, gl3, 2)
    got = [induced_map(stab, r_gl2, r_gl3, d).data for d in range(5)]
    assert got == [[1], [0], [1], [0], [1]]


def test_sylow_c2_into_s3_entries():
    c2, s3 = builtin_group("C2"), builtin_group("S3")
    incl = GroupHom(c2, s3, lambda p: tuple(p) + (2,))
    r2, r3 = resolve(c2, 4), resolve(s3, 4)
    for d in range(5):
        assert induced_map(incl, r2, r3, d).data == [1]


@pytest.mark.parametrize("d", [5, 6])
def test_induced_map_needs_a_higher_degree(gl2, r_gl2, d):
    # H_d needs resolutions built through degree d; resolve(_, 4) stops at 4
    with pytest.raises(ValueError):
        induced_map(GroupHom.identity(gl2), r_gl2, r_gl2, d)


def test_s2_into_gl2_iso(gl2, r_gl2):
    s2 = builtin_group("S2")

    def perm_mat(p):
        out = []
        for v in range(1, 4):
            w = 0
            for i in range(2):
                if v >> i & 1:
                    w |= 1 << p[i]
            out.append(w - 1)
        return tuple(out)

    incl = GroupHom(s2, gl2, perm_mat)
    r_s2 = resolve(s2, 4)
    for d in range(5):
        m = induced_map(incl, r_s2, r_gl2, d)
        assert m.rows == m.cols == m.rank() == 1


def test_non_homomorphism_rejected():
    s3, c2 = builtin_group("S3"), builtin_group("C2")
    ident = tuple(range(2))
    with pytest.raises(ValueError):
        GroupHom(s3, c2, lambda p: ident if p == (0, 1, 2) else (1, 0))


# ---------------------------------------------------------------- group input

def test_parse_cycle_notation():
    g = parse_group("(0 1)\n(0 1 2)\n")
    assert g.order == 6
    assert homology_dims(resolve(g, 2)) == (1, 1, 1)


@pytest.mark.parametrize("text", ["(0 1)(0 2)", "(0 1)(1 2 2)", "(a b)", "(0 1)(2"])
def test_parse_refuses_bad_cycles(text):
    with pytest.raises(ValueError, match=re.escape(text)):
        parse_group(f"(0 1 2)\n{text}\n")


def test_parse_builtin_names():
    assert parse_group("GL(2,2)").order == 6
    assert parse_group("UT(3,2)").order == 8
    with pytest.raises(ValueError):
        parse_group("E8")


def test_order_budget_enforced():
    with pytest.raises(ValueError):
        builtin_group("C2000")


@pytest.mark.parametrize("name", ["GL(12,2)", "UT(12,2)", "S12", "GL(4,2)", "UT(5,2)", "S7"])
def test_order_budget_checked_before_generators(name, monkeypatch):
    # the order is known in closed form, so no generator may be built
    def refuse(g):
        raise AssertionError("generators built for an over-budget group")
    monkeypatch.setattr(grouphom, "_gl_gens", refuse)
    monkeypatch.setattr(grouphom, "_ut_gens", refuse)
    monkeypatch.setattr(grouphom, "PermGroup", refuse)
    with pytest.raises(WindowError, match="group order exceeds budget"):
        builtin_group(name)


@pytest.mark.parametrize("name, order", [
    ("GL(3,2)", 168), ("UT(4,2)", 64), ("S6", 720), ("C1000", 1000), ("GL(0,2)", 1), ("S0", 1),
])
def test_closed_form_order_matches_enumeration(name, order):
    assert builtin_group(name).order == order


# ---------------------------------------------------------------- properties

S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0), (0, 2, 1, 3), (0, 1, 3, 2)]


@settings(max_examples=15, deadline=None)
@given(st.sets(st.sampled_from(S4_GENS), max_size=3))
def test_random_subgroups_of_s4(gens):
    g = PermGroup(4, sorted(gens))
    res = resolve(g, 3)
    assert_resolution(res)
    dims = homology_dims(res)
    assert dims[0] == 1
    assert dims[1] == abelianization_f2_dim(g)
