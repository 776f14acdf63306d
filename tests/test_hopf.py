"""Tests for the table-based graded Hopf algebra layer.

Fixed values below are the standard structure constants of the truncated
dual Steenrod algebra F2[x1,x2]/(x1^4,x2^2) and of the grading-5 stability
Hopf algebra on sb, delta, rho, checked against hand computation.
"""

import itertools
import random
import re
from unittest import mock

import pytest

from f2alg import cellhopf, hopf
from f2alg.hopf import (
    CoalgebraMap,
    HopfAlgebra,
    PolyHopf,
    WindowError,
    build_a1_star,
    build_cgl_to_a1_map,
    build_delta_cgl,
)


@pytest.fixture(scope="module")
def a1():
    return build_a1_star()


@pytest.fixture(scope="module")
def cgl():
    return build_delta_cgl()


def labelled_pairs(h, g, i, reduced=True):
    src = h.reduced_coproduct(g, i) if reduced else h.coproduct(g, i)
    return {(h.label(g1, i1), h.label(g2, i2)) for (g1, i1), (g2, i2) in src}


# ---------------------------------------------------------------- A(1) dual

def test_a1_dimensions(a1):
    assert [a1.dim(g) for g in range(7)] == [1, 1, 1, 2, 1, 1, 1]
    assert a1.dim(7) == 0  # complete algebra: zero above top grading


def test_a1_grading3_basis(a1):
    assert a1.basis[3] == ["x1^3", "x2"]


def test_a1_x2_reduced_coproduct(a1):
    i = a1.index(3, "x2")
    assert labelled_pairs(a1, 3, i) == {("x1^2", "x1")}


def test_a1_x1cubed_reduced_coproduct(a1):
    i = a1.index(3, "x1^3")
    assert labelled_pairs(a1, 3, i) == {("x1", "x1^2"), ("x1^2", "x1")}


def test_a1_x1squared_primitive(a1):
    # (x1|1 + 1|x1)^2 has even cross terms
    assert a1.reduced_coproduct(2, a1.index(2, "x1^2")) == ()


def test_a1_truncated_powers_vanish(a1):
    i1 = a1.index(1, "x1")
    i3 = a1.index(3, "x1^3")
    assert a1.product(1, 1 << i1, 3, 1 << i3) == 0
    i2 = a1.index(3, "x2")
    assert a1.product(3, 1 << i2, 3, 1 << i2) == 0


def test_a1_top_class_coproduct(a1):
    # x1^3 x2, grading 6
    i = a1.index(6, "x1^3*x2")
    assert labelled_pairs(a1, 6, i) == {
        ("x2", "x1^3"),
        ("x1", "x1^2*x2"),
        ("x1*x2", "x1^2"),
        ("x1^2", "x1*x2"),
        ("x1^2*x2", "x1"),
        ("x1^3", "x2"),
        ("x1^3", "x1^3"),
    }


def test_a1_axioms(a1):
    a1.assert_axioms()


# one entry of a1's tables changed per axiom: a product gains or loses a
# basis element, or a coproduct gains or loses a pair; each copy passes the
# checks before the one it fails
CORRUPTIONS = [
    ("unit/counit", "mult", ("1", "x1"), "x1"),
    ("associativity", "mult", ("x1", "x1^2"), "x1^3"),
    ("coassociativity", "comult", "x1^2", ("x1", "x1")),
    ("compatibility", "mult", ("x2", "x2"), "x1^3*x2"),
]


@pytest.mark.parametrize("axiom, table, key, toggle", CORRUPTIONS)
def test_changed_table_entry_names_its_axiom(axiom, table, key, toggle):
    a1 = build_a1_star()
    mult, comult = dict(a1.mult), dict(a1.comult)

    def at(label):
        g = next(g for g, layer in enumerate(a1.basis) if label in layer)
        return g, a1.index(g, label)

    if table == "mult":
        (g1, i1), (g2, i2) = at(key[0]), at(key[1])
        mult[(g1, i1, g2, i2)] = mult.get((g1, i1, g2, i2), 0) ^ 1 << at(toggle)[1]
    else:
        comult[at(key)] = tuple(sorted(set(comult[at(key)]) ^ {(at(toggle[0]), at(toggle[1]))}))
    with pytest.raises(AssertionError, match=f"^Hopf axiom {re.escape(axiom)} fails at "):
        HopfAlgebra(a1.basis, mult, comult, a1.truncation).assert_axioms()


def test_axiom_checks_survive_optimize_flag(run_optimized):
    """The tests above and the generator check's, but for the draws at
    bound 20, run again in a python -O subprocess."""
    run_optimized("import test_hopf; [test_hopf.test_changed_table_entry_names_its_axiom(*c) "
                  "for c in test_hopf.CORRUPTIONS]; test_hopf.test_map_fails_multiplicativity(); "
                  "[test_hopf.test_generator_check_refuses_as_the_full_check(*d) "
                  "for d in test_hopf.DRAWS if d[0] != 'delta20']; "
                  "[test_hopf.test_generator_check_refuses_as_the_full_check_when_complete(t) "
                  "for t in test_hopf.COMPLETE_TOPS]")


# ---------------------------------------------------------------- generator check

BUILDS = {
    "a1": build_a1_star,
    "cgl": build_delta_cgl,
    "delta5": lambda: cellhopf.delta_of_cells(cellhopf.load_cells("cgl.cells"), 5),
    "delta20": lambda: cellhopf.delta_of_cells(cellhopf.load_cells("cgl.cells"), 20),
}

# (build, seed, mutations): a seeded draw of changed presentations; the
# full check takes about a second on each algebra at bound 20
DRAWS = [(name, 2600, 120) for name in ("a1", "cgl", "delta5")] + [("delta20", 2600, 6)]


def presentation(name):
    """The (gens, gen_coproducts, max_grading, truncated) that a build
    passes to PolyHopf."""
    seen = []

    class Capture(PolyHopf):
        def __init__(self, *args, **kwargs):
            seen.append(tuple(args) + tuple(kwargs.values()))
            super().__init__(*args, **kwargs)

    with mock.patch.object(hopf, "PolyHopf", Capture), \
            mock.patch.object(cellhopf, "PolyHopf", Capture):
        BUILDS[name]()
    return seen[0]


class Deferred(PolyHopf):
    """The tables of a presentation, its generator check kept as check()."""

    def _check_generators(self, cops):
        self.check = lambda: PolyHopf._check_generators(self, cops)


def refusal(check):
    """The axiom a check names when it refuses, or None."""
    try:
        check()
    except AssertionError as e:
        m = re.match(r"Hopf axiom (unit/counit|associativity|coassociativity|compatibility) "
                     r"fails at \(", str(e))
        if not m:
            pytest.fail(f"refused without naming an axiom: {e}")
        return m.group(1)
    return None


def mutate(pres, rng):
    """One or two changes: a generator's power bound redrawn, or one
    term (left, right) of its coproduct, of its grading, toggled."""
    gens, cops, max_grading, truncated = pres
    gens, cops = list(gens), [list(c) for c in cops]
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(gens))
        name, g, bound = gens[k]
        if rng.random() < 0.3:
            gens[k] = (name, g, rng.choice([None, 2, 3, 4, 5]))
            continue
        grading = lambda m: sum(e * h for e, (_, h, _) in zip(m, gens))
        mons = [m for m in itertools.product(*(range(g // h + 1) for _, h, _ in gens))
                if grading(m) <= g]
        terms = [(l, r) for l in mons for r in mons if grading(l) + grading(r) == g]
        # mostly a term with two nonzero sides, else counit fails first
        inner = [(l, r) for l, r in terms if any(l) and any(r)]
        cops[k] = sorted(set(cops[k]) ^ {rng.choice(inner if inner and rng.random() < 0.8
                                                    else terms)})
    return gens, cops, max_grading, truncated


@pytest.mark.parametrize("name", BUILDS)
def test_full_check_passes_on_built_algebras(name):
    built = BUILDS[name]()
    getattr(built, "hopf", built).assert_axioms()


def check_draws(pres, seed, draws):
    """Changed presentations: PolyHopf refuses one, naming an axiom,
    exactly when assert_axioms refuses its tables.  No assert statement
    here, so that python -O runs every comparison."""
    rng = random.Random(seed)
    named = set()
    for _ in range(draws):
        gens, cops, max_grading, truncated = mutate(pres, rng)
        h = Deferred(gens, cops, max_grading, truncated)
        full, fast = refusal(h.assert_axioms), refusal(h.check)
        if (full is None) != (fast is None):
            pytest.fail(f"full check {full}, generator check {fast}: {gens} {cops}")
        if fast is not None:
            with pytest.raises(AssertionError, match=f"^Hopf axiom {re.escape(fast)} fails at "):
                PolyHopf(gens, cops, max_grading, truncated)
        named.add(fast)
    if None not in named or len(named) == 1:
        pytest.fail(f"the draw should both keep and refuse presentations: {named}")


@pytest.mark.parametrize("name, seed, draws", DRAWS)
def test_generator_check_refuses_as_the_full_check(name, seed, draws):
    check_draws(presentation(name), seed, draws)


# gradings at which A(1)* is declared complete: below 6 a product past
# them is nonzero in the full algebra, so both checks test past them
COMPLETE_TOPS = [4, 5, 7, 9]


@pytest.mark.parametrize("top", COMPLETE_TOPS)
def test_generator_check_refuses_as_the_full_check_when_complete(top):
    gens, cops, _, _ = presentation("a1")
    check_draws((gens, cops, top, False), 2600 + top, 120)


def test_complete_algebra_checked_past_max_grading():
    """A(1)* declared complete at grading 5 claims x1 * x1^2*x2 = 0, yet
    D(x1) D(x1^2*x2) is nonzero in gradings <= 5; F2[x]/(x^3), x
    primitive, declared complete at 2 has x^3 = 0, yet D(x)^3 has the
    term x^2 (x) x.  Both checks refuse each, naming compatibility, while
    the truncated presentations pass."""
    gens, cops, _, _ = presentation("a1")
    cube = ([("x", 1, 3)], [[((1,), (0,)), ((0,), (1,))]])
    for gens, cops, top in [(gens, cops, 5), (*cube, 2)]:
        with pytest.raises(AssertionError, match="^Hopf axiom compatibility fails at "):
            PolyHopf(gens, cops, top, False)
        assert refusal(Deferred(gens, cops, top, False).assert_axioms) == "compatibility"
        PolyHopf(gens, cops, top, True).assert_axioms()


# ---------------------------------------------------------------- stability Hopf algebra

def test_cgl_dimensions(cgl):
    assert [cgl.dim(g) for g in range(6)] == [1, 1, 1, 2, 3, 3]
    with pytest.raises(WindowError):
        cgl.dim(6)


def test_cgl_grading4_basis(cgl):
    assert cgl.basis[4] == ["rho", "sb*delta", "sb^4"]


def test_cgl_rho_primitive(cgl):
    assert cgl.reduced_coproduct(4, cgl.index(4, "rho")) == ()


def test_cgl_delta_coproduct(cgl):
    i = cgl.index(3, "delta")
    assert labelled_pairs(cgl, 3, i) == {("sb", "sb^2")}


def test_cgl_sbdelta_coproduct(cgl):
    i = cgl.index(4, "sb*delta")
    assert labelled_pairs(cgl, 4, i) == {
        ("sb", "sb^3"),
        ("delta", "sb"),
        ("sb", "delta"),
        ("sb^2", "sb^2"),
    }


def test_cgl_product_beyond_truncation_raises(cgl):
    i = cgl.index(3, "delta")
    with pytest.raises(WindowError):
        cgl.product(3, 1 << i, 3, 1 << i)


# ---------------------------------------------------------------- dual

def test_dual_s1_squares_to_zero(cgl):
    d = cgl.dualize()
    s1 = d.index(1, "sb~")
    assert d.product(1, 1 << s1, 1, 1 << s1) == 0


def test_dual_s2_coproduct(cgl):
    d = cgl.dualize()
    s2 = d.index(2, "sb^2~")
    assert labelled_pairs(d, 2, s2, reduced=False) == {
        ("1", "sb^2~"),
        ("sb~", "sb~"),
        ("sb^2~", "1"),
    }


def test_dual_s2s1_is_sb_cubed_dual(cgl):
    d = cgl.dualize()
    s1 = d.index(1, "sb~")
    s2 = d.index(2, "sb^2~")
    v = d.product(2, 1 << s2, 1, 1 << s1)
    assert d.combo_labels(3, v) == ["sb^3~"]


def test_dual_s2_squared_equals_s1s2s1(cgl):
    d = cgl.dualize()
    s1 = d.index(1, "sb~")
    s2 = d.index(2, "sb^2~")
    lhs = d.product(2, 1 << s2, 2, 1 << s2)
    rhs = d.product(1, 1 << s1, 3, d.product(2, 1 << s2, 1, 1 << s1))
    assert lhs == rhs
    assert d.combo_labels(4, lhs) == ["sb*delta~"]


def test_dual_axioms(cgl, a1):
    cgl.dualize().assert_axioms()
    a1.dualize().assert_axioms()


def test_double_dual_recovers_tables(a1, cgl):
    for h in (a1, cgl):
        dd = h.dualize().dualize()
        # strip the "~~" suffixes; indices are order-preserved
        assert [[l.replace("~", "") for l in layer] for layer in dd.basis] == [
            [l.replace("~", "") for l in layer] for layer in h.basis
        ]
        assert {k: v for k, v in dd.mult.items() if v} == {
            k: v for k, v in h.mult.items() if v and sum(k[::2]) <= h.known_bound
        }
        assert dd.comult == {
            k: v for k, v in h.comult.items() if k[0] <= h.known_bound
        }


# ---------------------------------------------------------------- serialization

def test_json_roundtrip_byte_stable(a1, cgl):
    for h in (a1, cgl):
        text = h.to_json()
        again = HopfAlgebra.from_json(text)
        assert again.same_tables(h)
        assert again.to_json() == text


# ---------------------------------------------------------------- maps

def test_hopf_map_passes(cgl, a1):
    f = build_cgl_to_a1_map(cgl, a1)
    delta = f.apply(3, 1 << cgl.index(3, "delta"))
    assert a1.combo_labels(3, delta) == ["x1^3", "x2"]


def test_hopf_map_wrong_image_fails(cgl, a1):
    # delta -> x2 alone: (f|f)psi(delta) has x1|x1^2 where psi(x2) has x1^2|x1
    x2 = a1.gen_element("x2")
    with pytest.raises(ValueError, match=r"comultiplicativity fails at \(3, 0\)"):
        CoalgebraMap.from_gen_images(
            cgl,
            a1,
            {
                "sb": (1, 1 << a1.index(1, "x1")),
                "delta": (3, 1 << x2[1]),
                "rho": (4, 0),
            },
        )


def test_map_fails_multiplicativity():
    # the identity of a1 with x1^2 sent to 0: f(x1 x1) = 0 but f(x1) f(x1) = x1^2
    a1 = build_a1_star()
    images = {(g, i): 1 << i for g in range(a1.max_grading + 1) for i in range(a1.dim(g))}
    images[(2, a1.index(2, "x1^2"))] = 0
    with pytest.raises(ValueError, match=r"multiplicativity fails at \(\(1, 0\), \(1, 0\)\)"):
        CoalgebraMap(a1, a1, images)
