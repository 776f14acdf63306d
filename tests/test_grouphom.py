"""Tests for group homology via free resolutions.

Dimension fixtures are cross-checked by independent oracles: the UT3
ring monomial count, the abelianization subgroup closure for H_1, and,
for choice independence, a relabelled copy of the group, whose greedy
resolution picks other generators.
"""

import re
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2alg import grouphom
from f2alg.cobar import WindowError
from f2alg.f2linalg import Echelon, F2Matrix, Subspace, bits_of
from f2alg.grouphom import (
    GroupHom,
    PermGroup,
    Resolution,
    TensoredComplex,
    abelianization_f2_dim,
    assert_resolution,
    augmentation_kernel,
    builtin_group,
    chain_lift,
    compose,
    double_cosets,
    homology_dims,
    induced_map,
    parse_group,
    resolve,
    stabilization_hom,
    sylow_homology_dims,
    sylow_subgroup,
)
from f2alg.minres import complement

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


def cycle_line(p):
    """A permutation in cycle notation, fixed points written as 1-cycles
    so that the line keeps the degree."""
    seen, out = set(), []
    for start in range(len(p)):
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = p[x]
        if cycle:
            out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out)


def relabelled(group):
    """The group in its regular representation (element i acts on the
    indices by left multiplication), with the points 1..|G|-1 cycled
    (x -> x + 1, |G| - 1 -> 1), read back by parse_group from its
    generator lines, and the relabelling isomorphism onto it.  The image
    of element i sends the identity's point 0 to the cycled i, so the
    copy's elements sort in another order and its greedy resolution picks
    other generators; a group of order at most 2 has one order."""
    n = group.order
    pi = [0, *range(2, n), 1][:n]

    def image(p):
        row = group.table[group.index[tuple(p)]]
        out = [0] * n
        for x in range(n):
            out[pi[x]] = pi[row[x]]
        return tuple(out)

    lines = [cycle_line(image(p)) for p in group.generators] or [cycle_line(range(n))]
    other = parse_group("\n".join(lines))
    return other, GroupHom(group, other, image)


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
    other, _ = relabelled(g)
    res, res_other = resolve(g, 4), resolve(other, 4)
    assert res.boundaries != res_other.boundaries
    assert homology_dims(res) == homology_dims(res_other)


# ---------------------------------------------------------------- top degree

def truncated(res, d):
    """The resolution through degree d; resolve builds degree by degree,
    so this is what resolve(group, d) returns."""
    return Resolution(res.group, res.ranks[:d + 1], res.boundaries[:d + 1], res.kernels[:d + 1])


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name", BUILTINS + ["S4", "S5", "UT(4,2)"])
def test_top_degree_matches_one_degree_further(name, relabel):
    # H_top is read off ker d_top; one degree further it is read off the
    # tensored image of d_{top+1}
    g = builtin_group(name)
    top = 5 if g.order <= 60 else 3
    if relabel:
        base = g
        g, _ = relabelled(base)
    further = resolve(g, top + 1)
    res = resolve(g, top)
    if relabel:
        # a group of order at most 2 sorts its elements one way only, so
        # its greedy resolution is unique
        assert (res.boundaries != resolve(base, top).boundaries) is (base.order > 2)
    head = truncated(further, top)
    assert (res.ranks, res.boundaries) == (head.ranks, head.boundaries)
    dims = homology_dims(further)
    for d in range(top + 1):
        assert homology_dims(truncated(further, d)) == dims[:d + 1], d


def test_gl3_top_degree_reads_h4(r_gl3):
    # the H_4 of test_gl3_dims, read at the top with no F_5 built
    assert len(r_gl3.ranks) == 5
    assert homology_dims(r_gl3)[4] == 1


def test_top_degree_induced_map_matches_one_degree_further(gl2, gl3):
    ut3 = builtin_group("UT(3,2)")
    ut3_other, relabel = relabelled(ut3)
    c2, s3 = builtin_group("C2"), builtin_group("S3")
    r_ut3, r_ut3_other = resolve(ut3, 5), resolve(ut3_other, 5)
    assert r_ut3.boundaries != r_ut3_other.boundaries
    cases = [
        (stabilization_hom(gl2, gl3, 2), resolve(gl2, 5), resolve(gl3, 5)),
        (GroupHom(c2, s3, lambda p: tuple(p) + (2,)), resolve(c2, 5), resolve(s3, 5)),
        # another greedy choice, so the coordinates change basis
        (relabel, r_ut3, r_ut3_other),
    ]
    permutations = []
    for hom, r_src, r_tgt in cases:
        for d in range(5):
            at_top = induced_map(hom, truncated(r_src, d), truncated(r_tgt, d), d)
            assert at_top == induced_map(hom, r_src, r_tgt, d), (hom.source.name, d)
            if hom is relabel:
                permutations.append(sorted(at_top.data) == [1 << i for i in range(at_top.cols)])
    assert not all(permutations)


def kernel_reference(res, d):
    """pi(ker d_d) by its own elimination: row i of d_d tagged pi(e_i),
    its generator block, so each zero residue's tag is pi of a kernel
    vector."""
    n = res.group.order
    span, out = Echelon(), []
    for i, row in enumerate(res.boundaries[d].data):
        r, tag = span.add(row, 1 << (i // n))
        if not r:
            out.append(tag)
    return out


@pytest.mark.parametrize("name,relabel", [(name, False) for name in BUILTINS]
                         + [(name, True) for name in ("S3", "D8", "UT(3,2)")])
def test_resolve_kernels_match_left_kernel(monkeypatch, name, relabel):
    # the kernels resolve reads off each boundary's own elimination are
    # the reduced-echelon left kernels, and the kept pi(ker d_d) span
    # what an elimination of d_d tagged by generator blocks spans
    g = builtin_group(name)
    if relabel:
        g, _ = relabelled(g)
    passed = []

    def recorded(rows, vectors, dim, translates):
        passed.append(list(vectors))
        return complement(rows, passed[-1], dim, translates)

    monkeypatch.setattr(grouphom, "complement", recorded)
    res = resolve(g, 4)
    assert len(passed) == 4 and len(res.kernels) == 5
    for d, kernel in enumerate(passed):
        assert kernel == res.boundaries[d].left_kernel().basis, (name, d)
    for d, rank in enumerate(res.ranks):
        assert Subspace.span(rank, res.kernels[d]) == \
            Subspace.span(rank, kernel_reference(res, d)), (name, d)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 168])
def test_augmentation_kernel_closed_form(n):
    assert augmentation_kernel(n).basis == F2Matrix(n, 1, [1] * n).left_kernel().basis


def test_incoming_runs_once_per_resolution(monkeypatch, gl2, gl3):
    # every top-degree read of one resolution shares its tensored complex
    incoming = TensoredComplex.incoming.func
    built = []

    def counted(c):
        built.append(c.res)
        return incoming(c)

    prop = cached_property(counted)
    prop.__set_name__(TensoredComplex, "incoming")
    monkeypatch.setattr(TensoredComplex, "incoming", prop)
    stab = stabilization_hom(gl2, gl3, 2)
    r_src, r_tgt = resolve(gl2, 3), resolve(gl3, 3)
    maps = [induced_map(stab, r_src, r_tgt, 3) for _ in range(3)]
    assert maps[0] == maps[1] == maps[2]
    assert homology_dims(r_src) == (1, 1, 1, 1) and homology_dims(r_tgt) == (1, 0, 1, 2)
    assert sorted(map(id, built)) == sorted([id(r_src), id(r_tgt)])


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


# greedy ranks, recorded before the kernel-complement step was shared with
# the minimal-resolution engine; the greedy choice must not move
GREEDY_RANKS = {
    ("D8", 6): (1, 2, 3, 4, 5, 6, 7),
    ("S3", 6): (1, 2, 4, 5, 4, 5, 6),
    ("S4", 5): (1, 3, 5, 6, 6, 9),
    ("UT(3,2)", 6): (1, 2, 4, 7, 10, 13, 16),
    ("GL(3,2)", 3): (1, 2, 3, 6),
}


@pytest.mark.parametrize("name,d_max", sorted(GREEDY_RANKS))
def test_greedy_ranks_pinned(name, d_max):
    assert resolve(builtin_group(name), d_max).ranks == GREEDY_RANKS[(name, d_max)]


def abelianization_reference(group):
    """log2 of the index of the subgroup generated by all squares and
    all pairwise commutators, by closure under multiplication."""
    n = group.order
    inv = [row.index(group.identity) for row in group.table]
    seeds = {group.mult(i, i) for i in range(n)}
    for i in range(n):
        for j in range(n):
            seeds.add(group.mult(group.mult(i, j), group.mult(inv[i], inv[j])))
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
    ih = GroupHom(gl2, gl2, lambda p: p)
    for d in range(5):
        m = induced_map(ih, r_gl2, r_gl2, d)
        assert m.rows == m.cols == 1 and m.rank() == 1


def test_identity_induces_identity_matrix():
    # H_d(UT(3,2)) has dims 1..5, so coordinates over several classes count
    ut3 = builtin_group("UT(3,2)")
    res = resolve(ut3, 5)
    for d, dim in enumerate(homology_dims(res)):
        m = induced_map(GroupHom(ut3, ut3, lambda p: p), res, res, d)
        assert m.data == [1 << i for i in range(dim)]


def test_identity_across_tie_breaks(gl3, r_gl3):
    # H_3(GL(3,2)) has dim 2; the relabelled copy's greedy resolution
    # picks other generators, and the isomorphism changes basis on H_3
    other, relabel = relabelled(gl3)
    r_other = resolve(other, 3)
    assert r_other.boundaries != r_gl3.boundaries[:4]
    m = induced_map(relabel, r_gl3, r_other, 3)
    assert m.rank() == m.rows == m.cols == 2
    assert sorted(m.data) != [1, 2]


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
        induced_map(GroupHom(gl2, gl2, lambda p: p), r_gl2, r_gl2, d)


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
    monkeypatch.setattr(grouphom, "_transvections", refuse)
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


# ---------------------------------------------------------------- Sylow route

# (0 1 2) and (0 1)(2 3): its Sylow 2-subgroup is normal
A4 = PermGroup(4, [(1, 2, 0, 3), (1, 0, 3, 2)], "A4")
ROUTE_BUILTINS = ["1", "C1", "C3", "C4", "C5", "C6", "C9", "C10", "S3", "D8", "UT(3,2)"]


def route_group(name):
    if name == "A4":
        return A4
    if name.startswith("relabelled "):
        return relabelled(builtin_group(name.split()[1]))[0]
    return builtin_group(name)


ROUTE_GROUPS = ROUTE_BUILTINS + ["A4", "S4", "S5", "GL(3,2)",
                                 "relabelled S3", "relabelled D8", "relabelled GL(3,2)"]


@pytest.mark.parametrize("name", ROUTE_BUILTINS + ["A4", "relabelled S3", "relabelled D8",
                                                   "relabelled GL(3,2)"])
def test_sylow_route_matches_direct_resolution(name):
    g = route_group(name)
    d_max = 3 if g.order > 100 else 4
    assert sylow_homology_dims(g, d_max) == homology_dims(resolve(g, d_max))


def test_sylow_route_gl3_through_h6():
    assert sylow_homology_dims(builtin_group("GL(3,2)"), 6) == (1, 0, 1, 2, 1, 2, 3)


@pytest.mark.parametrize("name", ROUTE_GROUPS)
def test_sylow_subgroup_order_and_closure(name):
    g = route_group(name)
    sub, gens = sylow_subgroup(g)
    assert len(sub) == g.order & -g.order
    assert all(g.mult(a, b) in sub for a in sub for b in sub)
    # the generators generate it: close them under multiplication
    closure = {g.identity}
    while True:
        grown = closure | {g.mult(a, t) for a in closure for t in gens}
        if grown == closure:
            break
        closure = grown
    assert closure == sub


@pytest.mark.parametrize("name", ROUTE_GROUPS)
def test_double_cosets_partition(name):
    g = route_group(name)
    sub, gens = sylow_subgroup(g)
    inv = [row.index(g.identity) for row in g.table]
    covered = set()
    cosets = double_cosets(g, sub, gens)
    for w, size in cosets:
        pwp = {g.mult(g.mult(p, w), q) for p in sub for q in sub}
        assert min(pwp) == w and len(pwp) == size
        assert not covered & pwp
        covered |= pwp
        q_w = [p for p in sub if g.mult(g.mult(inv[w], p), w) in sub]
        assert size * len(q_w) == len(sub) ** 2
    assert covered == set(range(g.order))
    assert [w for w, _ in cosets] == sorted(w for w, _ in cosets)


@pytest.mark.parametrize("name,resolved", [("GL(3,2)", [8, 4, 4, 2, 2]), ("A4", [4]), ("C6", [2])])
def test_sylow_route_resolves_each_subgroup_once_through_dmax(monkeypatch, name, resolved):
    # P and the distinct nontrivial Q_w other than P, each through d_max
    # and no further; in A4 and C6 every w normalizes P, so Q_w = P
    seen = []

    def spy(group, d):
        seen.append((group.elements, d))
        return resolve(group, d)

    monkeypatch.setattr(grouphom, "resolve", spy)
    g = route_group(name)
    assert sylow_homology_dims(g, 3) == homology_dims(resolve(g, 3))
    assert {d for _, d in seen} == {3}
    assert [len(elements) for elements, _ in seen] == resolved
    assert len({elements for elements, _ in seen}) == len(seen)


def test_sylow_route_lifts_each_homomorphism_once(monkeypatch):
    # one chain lift through d_max per homomorphism: the inclusion of each
    # distinct Q_w and the conjugation of each w outside P with Q_w != 1,
    # every degree's matrix read off that one lift
    lifted = []

    def spy(hom, r_src, r_tgt, d_max):
        lifted.append((hom, d_max))
        return chain_lift(hom, r_src, r_tgt, d_max)

    monkeypatch.setattr(grouphom, "chain_lift", spy)
    g = builtin_group("GL(3,2)")
    assert sylow_homology_dims(g, 4) == (1, 0, 1, 2, 1)
    sub, gens = sylow_subgroup(g)
    inv = [row.index(g.identity) for row in g.table]
    q_ws = [frozenset(p for p in sub if g.mult(g.mult(inv[w], p), w) in sub)
            for w, _ in double_cosets(g, sub, gens) if w not in sub]
    q_ws = [q for q in q_ws if len(q) > 1]
    assert len(lifted) == len(set(q_ws)) + len(q_ws)
    assert len({id(hom) for hom, _ in lifted}) == len(lifted)
    assert {d for _, d in lifted} == {4}


# subgroups of these, generated by a few random elements: orders up to 168
ROUTE_BASES = {
    "S5": builtin_group("S5"),
    "GL(3,2)": builtin_group("GL(3,2)"),
    # S4 on {0..3} times S3 on {4, 5, 6}, order 144
    "S4xS3": PermGroup(7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 0, 4, 5, 6),
                           (0, 1, 2, 3, 5, 4, 6), (0, 1, 2, 3, 5, 6, 4)]),
}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(ROUTE_BASES)), st.data())
def test_sylow_route_on_random_subgroups(name, data):
    base = ROUTE_BASES[name]
    picks = data.draw(st.lists(st.integers(0, base.order - 1), min_size=1, max_size=3))
    g = PermGroup(base.degree, [base.elements[i] for i in picks])
    assert g.order <= 200
    assert sylow_homology_dims(g, 3) == homology_dims(resolve(g, 3))
