"""Finite-type graded coalgebras and Hopf algebras over F2 as explicit tables.

An algebra is stored extensionally: ordered basis labels per grading,
a multiplication table and a comultiplication table.  Homogeneous linear
combinations are int bitsets over the basis of their grading.

``truncation`` semantics: if None the algebra is complete (every grading
above ``max_grading`` is zero and known to be zero); otherwise gradings
above ``truncation`` are unknown and any operation touching them raises
WindowError rather than returning partial data.
"""

from __future__ import annotations

import itertools
import json
import operator
from typing import Optional

from .f2linalg import bits_of


class WindowError(ValueError):
    """A request beyond a size budget (exit 3 on the command line)."""


def check_budget(what: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise WindowError(f"{what} <= {ceiling}, requested {value}")


Pair = tuple[tuple[int, int], tuple[int, int]]  # ((g1,i1),(g2,i2))


class HopfAlgebra:
    """Connected graded bialgebra over F2 given by tables.

    Over F2 a connected graded bialgebra has a unique antipode, so these
    are Hopf algebras whenever ``assert_axioms`` passes.
    """

    def __init__(
        self,
        basis: list[list[str]],
        mult: dict[tuple[int, int, int, int], int],
        comult: dict[tuple[int, int], tuple[Pair, ...]],
        truncation: Optional[int] = None,
    ):
        if not basis or basis[0] != ["1"]:
            raise ValueError("grading 0 must be exactly ['1'] (connectedness)")
        for labels in basis:
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate labels in a grading")
            if list(labels) != sorted(labels):
                raise ValueError("labels must be in canonical (lexicographic) order")
        self.basis = basis
        self.max_grading = len(basis) - 1
        self.truncation = truncation
        self.mult = mult
        self.comult = comult

    # ------------------------------------------------------------ basics

    @property
    def known_bound(self) -> int:
        return self.max_grading if self.truncation is None else self.truncation

    def dim(self, g: int) -> int:
        if 0 <= g <= self.max_grading:
            return len(self.basis[g])
        if g < 0 or self.truncation is None:
            return 0
        raise WindowError(f"grading {g} beyond truncation {self.truncation}")

    def label(self, g: int, i: int) -> str:
        return self.basis[g][i]

    def index(self, g: int, label: str) -> int:
        return self.basis[g].index(label)

    def combo_labels(self, g: int, v: int) -> list[str]:
        return [self.basis[g][i] for i in bits_of(v)]

    # ------------------------------------------------------------ structure maps

    def product(self, g1: int, v1: int, g2: int, v2: int) -> int:
        """Product of two homogeneous combos; result in grading g1+g2."""
        g = g1 + g2
        if self.truncation is not None and g > self.truncation:
            raise WindowError(f"product lands in unknown grading {g}")
        if g > self.max_grading:
            return 0
        out = 0
        for i in bits_of(v1):
            for j in bits_of(v2):
                out ^= self.mult.get((g1, i, g2, j), 0)
        return out

    def coproduct(self, g: int, i: int) -> tuple[Pair, ...]:
        """Full coproduct of a basis element, including 1|x and x|1."""
        if self.truncation is not None and g > self.truncation:
            raise WindowError(f"coproduct in unknown grading {g}")
        return self.comult[(g, i)]

    def reduced_coproduct(self, g: int, i: int) -> tuple[Pair, ...]:
        return tuple(
            ((g1, i1), (g2, i2))
            for ((g1, i1), (g2, i2)) in self.coproduct(g, i)
            if g1 > 0 and g2 > 0
        )

    def coproduct_combo(self, g: int, v: int) -> set[Pair]:
        acc: set[Pair] = set()
        for i in bits_of(v):
            for p in self.coproduct(g, i):
                acc ^= {p}
        return acc

    # ------------------------------------------------------------ axiom checks

    def assert_axioms(self) -> None:
        """Exact checks of the bialgebra axioms up to the known bound, in
        the order unit/counit, associativity, coassociativity and
        compatibility, the last past the bound too for a complete algebra;
        raises AssertionError at the first violation."""

        def fail(name: str, witness: tuple) -> None:
            raise AssertionError(f"Hopf axiom {name} fails at {witness}")

        bound = self.known_bound
        elems = [(g, i) for g in range(bound + 1) for i in range(self.dim(g))]

        for g, i in elems:
            v = 1 << i
            if self.product(0, 1, g, v) != v or self.product(g, v, 0, 1) != v:
                fail("unit/counit", (g, i))
            left = right = 0
            for (g1, i1), (g2, i2) in self.coproduct(g, i):
                if g1 == 0:
                    right ^= 1 << i2
                if g2 == 0:
                    left ^= 1 << i1
            if left != v or right != v:
                fail("unit/counit", (g, i))

        for (ga, a), (gb, b) in itertools.product(elems, repeat=2):
            for gc, c in elems:
                if ga + gb + gc > bound:
                    break
                lhs = self.product(ga + gb, self.product(ga, 1 << a, gb, 1 << b), gc, 1 << c)
                rhs = self.product(ga, 1 << a, gb + gc, self.product(gb, 1 << b, gc, 1 << c))
                if lhs != rhs:
                    fail("associativity", ((ga, a), (gb, b), (gc, c)))

        for g, i in elems:
            lhs, rhs = set(), set()
            for x, y in self.coproduct(g, i):
                for x1, x2 in self.coproduct(*x):
                    lhs ^= {(x1, x2, y)}
                for y1, y2 in self.coproduct(*y):
                    rhs ^= {(x, y1, y2)}
            if lhs != rhs:
                fail("coassociativity", (g, i))

        # psi(ab) = psi(a) psi(b); a complete algebra's products past the
        # bound are 0, and so must be psi(a) psi(b) there
        for ga, a in elems:
            for gb, b in elems:
                if ga + gb > bound and self.truncation is not None:
                    break
                lhs = self.coproduct_combo(ga + gb, self.product(ga, 1 << a, gb, 1 << b))
                rhs = set()
                for (g1, i1), (g2, i2) in self.coproduct(ga, a):
                    for (h1, j1), (h2, j2) in self.coproduct(gb, b):
                        left = self.product(g1, 1 << i1, h1, 1 << j1)
                        right = self.product(g2, 1 << i2, h2, 1 << j2)
                        for li in bits_of(left):
                            for ri in bits_of(right):
                                rhs ^= {((g1 + h1, li), (g2 + h2, ri))}
                if lhs != rhs:
                    fail("compatibility", ((ga, a), (gb, b)))

    # ------------------------------------------------------------ dual

    def dualize(self) -> "HopfAlgebra":
        """Graded dual: mult is the transpose of comult and vice versa.

        Dual labels get a ``~`` suffix (unit stays "1"); the suffix keeps
        lexicographic order, so indices are unchanged.
        """
        basis = [["1"]] + [[lbl + "~" for lbl in layer] for layer in self.basis[1:]]
        mult: dict[tuple[int, int, int, int], int] = {}
        comult: dict[tuple[int, int], tuple[Pair, ...]] = {}
        bound = self.known_bound
        for g in range(bound + 1):
            for k in range(self.dim(g)):
                for (g1, i), (g2, j) in self.coproduct(g, k):
                    key = (g1, i, g2, j)
                    mult[key] = mult.get(key, 0) ^ (1 << k)
        pair_acc: dict[tuple[int, int], set[Pair]] = {}
        for (g1, i, g2, j), v in self.mult.items():
            g = g1 + g2
            if g > bound:
                continue
            for k in bits_of(v):
                pairs = pair_acc.setdefault((g, k), set())
                pairs ^= {((g1, i), (g2, j))}
        for g in range(bound + 1):
            for k in range(self.dim(g)):
                comult[(g, k)] = tuple(sorted(pair_acc.get((g, k), ())))
        mult = {k: v for k, v in mult.items() if v}
        return HopfAlgebra(basis, mult, comult, truncation=self.truncation)

    # ------------------------------------------------------------ serialization

    def to_doc(self) -> dict:
        """The tables as a JSON document: sorted sparse triples."""
        mult_rows = sorted(
            [g1, i, g2, j, sorted(bits_of(v))]
            for (g1, i, g2, j), v in self.mult.items()
            if v
        )
        comult_rows = sorted(
            [g, i, sorted([g1, i1, g2, i2] for ((g1, i1), (g2, i2)) in pairs)]
            for (g, i), pairs in self.comult.items()
        )
        return {
            "max_grading": self.max_grading,
            "truncation": self.truncation,
            "basis": self.basis,
            "mult": mult_rows,
            "comult": comult_rows,
        }

    def to_json(self) -> str:
        """Canonical byte-stable JSON of ``to_doc``."""
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "HopfAlgebra":
        doc = json.loads(text)
        mult = {}
        for g1, i, g2, j, ks in doc["mult"]:
            v = 0
            for k in ks:
                v |= 1 << k
            mult[(g1, i, g2, j)] = v
        comult = {}
        for g, i, pairs in doc["comult"]:
            comult[(g, i)] = tuple(((g1, i1), (g2, i2)) for g1, i1, g2, i2 in pairs)
        return cls(doc["basis"], mult, comult, doc["truncation"])

    def same_tables(self, other: "HopfAlgebra") -> bool:
        """Entrywise equality of basis, mult and comult tables."""
        return (
            self.basis == other.basis
            and self.truncation == other.truncation
            and {k: v for k, v in self.mult.items() if v}
            == {k: v for k, v in other.mult.items() if v}
            and self.comult == other.comult
        )


# ---------------------------------------------------------------- polynomial builder


class PolyHopf(HopfAlgebra):
    """Truncated polynomial Hopf algebra P = F2[x_1, ..., x_n]/(x_k^b_k)
    through grading N = max_grading, built from generator data.

    Remembers the monomial structure so coalgebra maps can be extended
    multiplicatively from generator images.

    The basis is the monomials of grading <= N whose exponents stay below
    their power bounds b_k (None for no bound).  The product adds
    exponents and is 0 once one reaches its bound: P's product cut to
    gradings <= N, so associative, commutative and unital.  The coproduct
    D of a monomial is the product in P (x) P of its generators' given
    coproducts, one factor per unit of exponent.  The counit e, the
    projection onto grading 0, is an algebra map, P being connected.

    Construction checks, by ``_check_generators``, only each generator x
    with a basis element (grading g <= N and bound b >= 2):
      (1) counit: (e (x) 1) D(x) = x = (1 (x) e) D(x);
      (2) coassociativity: (D (x) 1) D(x) = (1 (x) D) D(x);
      (3) D(x)^b = 0 in P (x) P, when b g <= N;
      (4) for a complete algebra, D(x) D(m) = 0 in P (x) P, a term with a
          side of grading > N counting as 0, for each basis monomial m
          with g + |m| > N, except when g + |m / y| > N for a generator y
          dividing m, or x m = 0 by the bound b with b g <= N.
    These imply every axiom ``assert_axioms`` tests:
      - compatibility, D(m m') = D(m) D(m') for basis monomials with
        |m| + |m'| <= N: if m m' is nonzero in P, D is built so (P (x) P
        is commutative); otherwise some e_k + e'_k reaches b_k, and
        D(m) D(m') has the factor D(x_k)^b_k, with b_k |x_k| <= N, that
        (3) makes 0.  So D, and with it D (x) 1 and 1 (x) D on P (x) P,
        is multiplicative through grading N;
      - for a complete algebra, D(m) D(m') = 0 when |m| + |m'| > N.  First
        for m = x, by induction on |m'|: if g + |m' / y| > N, D(x) D(m') =
        D(x) D(m' / y) D(y) is 0 by induction; if x m' = 0 by the bound b
        with b g <= N, D(x) D(m') has the factor D(x)^b that (3) makes 0;
        otherwise (4) makes it 0.  Then for m = x m'', D(m) D(m') =
        D(x) D(m'') D(m'), and D(m'') D(m') is 0 by induction on |m| if
        |m''| + |m'| > N, else D(m'' m') with m'' m' a basis monomial or 0;
      - counit and coassociativity: (e (x) 1) D, (1 (x) e) D and the
        identity, and (D (x) 1) D and (1 (x) D) D, are then multiplicative
        through grading N.  Each basis monomial other than 1 is a
        generator times a basis monomial of lower grading, so by
        induction on grading, maps that (1) and (2) make agree on the
        generators agree on the whole basis.
    Conversely each check is one ``assert_axioms`` makes: (1) and (2) at
    x, and (3) and (4) are compatibility at (x, x^(b-1)) and at (x, m),
    whose products are 0.  So a presentation is refused here exactly when
    ``assert_axioms``, which stays the oracle, refuses its tables.  Like
    it, nothing past grading N is checked of a truncated algebra: a
    relation with b g > N lies in its unknown gradings.
    """

    def __init__(self, gens, gen_coproducts, max_grading, truncated):
        """gens: list of (name, grading, power_bound or None).
        gen_coproducts: per generator, list of (exps_left, exps_right) pairs
        (exponent tuples over the generators), the full coproduct; a pair
        whose gradings do not add up to the generator's is a ValueError.
        """
        self.gens = list(gens)
        self._bounded = [(k, b) for k, (_, _, b) in enumerate(gens) if b is not None]
        self._gradings = [g for (_, g, _) in gens]
        for (name, g, _), cop in zip(self.gens, gen_coproducts):
            if any(self._mon_grading(l) + self._mon_grading(r) != g for l, r in cop):
                raise ValueError(f"coproduct of {name} is not of grading {g}")
        mons = self._enumerate_monomials(max_grading)
        # canonical order: lexicographic on label within each grading
        self.monomials: list[list[tuple[int, ...]]] = []
        basis = []
        for g in range(max_grading + 1):
            layer = sorted(mons[g], key=self._label)
            self.monomials.append(layer)
            basis.append([self._label(m) for m in layer])
        # monomial -> (grading, index)
        self._index = {m: (g, i) for g, layer in enumerate(self.monomials)
                       for i, m in enumerate(layer)}
        mult = {}
        for g1, g2 in itertools.product(range(max_grading + 1), repeat=2):
            if g1 + g2 > max_grading:
                continue
            for i, m1 in enumerate(self.monomials[g1]):
                for j, m2 in enumerate(self.monomials[g2]):
                    p = self._mon_mul(m1, m2)
                    if p is not None:
                        mult[(g1, i, g2, j)] = 1 << self._index[p][1]
        # D(m) as a set of exponent pairs, the product of D(m / x_k) and
        # D(x_k) for the last generator x_k of m
        zero = (0,) * len(self.gens)
        gen_cops = [self._tensor_mul({(zero, zero)}, cop) for cop in gen_coproducts]
        cops: dict[tuple[int, ...], set] = {zero: {(zero, zero)}}
        comult = {}
        for g, layer in enumerate(self.monomials):
            for i, m in enumerate(layer):
                if m != zero:
                    k = max(j for j, e in enumerate(m) if e)
                    cops[m] = self._tensor_mul(cops[m[:k] + (m[k] - 1,) + m[k + 1:]],
                                               gen_cops[k])
                comult[(g, i)] = tuple(sorted((self._index[l], self._index[r])
                                              for l, r in cops[m]))
        super().__init__(basis, mult, comult, truncation=max_grading if truncated else None)
        self._check_generators(cops)

    def _check_generators(self, cops) -> None:
        """Checks (1)-(4) of the class docstring on D, given per basis
        monomial as a set of exponent pairs; raises AssertionError, as
        ``assert_axioms`` does, naming the axiom and the basis elements
        it fails at."""

        def fail(name: str, witness: tuple) -> None:
            raise AssertionError(f"Hopf axiom {name} fails at {witness}")

        n = len(self.gens)
        # the generators in the basis, as (exponents, grading, bound); one
        # past grading N or of bound 1 has no basis element
        gens = [(x, g, b) for k, (_, g, b) in enumerate(self.gens)
                if (x := tuple(int(j == k) for j in range(n))) in cops]
        for x, _, _ in gens:
            if ({r for l, r in cops[x] if not any(l)} != {x}
                    or {l for l, r in cops[x] if not any(r)} != {x}):
                fail("unit/counit", self._index[x])
        for x, _, _ in gens:
            lhs, rhs = set(), set()
            for l, r in cops[x]:
                for l1, l2 in cops[l]:
                    lhs ^= {(l1, l2, r)}
                for r1, r2 in cops[r]:
                    rhs ^= {(l, r1, r2)}
            if lhs != rhs:
                fail("coassociativity", self._index[x])
        for x, g, b in gens:
            if b is not None and b * g <= self.known_bound:
                power = tuple((b - 1) * e for e in x)
                if self._tensor_mul(cops[power], cops[x]):
                    fail("compatibility", (self._index[x], self._index[power]))
        if self.truncation is None:
            top = self.max_grading
            for x, g, b in gens:
                for m, (h, _) in self._index.items():
                    past = g + h - top
                    if not 0 < past <= min(k for k, e in zip(self._gradings, m) if e):
                        continue
                    if b is not None and b * g <= top and self._mon_mul(x, m) is None:
                        continue
                    # a term with a side outside the basis is 0
                    if any(l in self._index and r in self._index
                           for l, r in self._tensor_mul(cops[x], cops[m])):
                        fail("compatibility", (self._index[x], self._index[m]))

    # -- monomial helpers

    def _label(self, m: tuple[int, ...]) -> str:
        if not any(m):
            return "1"
        parts = []
        for (name, _, _), e in zip(self.gens, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def _mon_grading(self, m) -> int:
        return sum(map(operator.mul, m, self._gradings))

    def _mon_mul(self, m1, m2) -> Optional[tuple[int, ...]]:
        out = tuple(map(operator.add, m1, m2))
        for k, b in self._bounded:
            if out[k] >= b:
                return None
        return out

    def _tensor_mul(self, pairs1, pairs2) -> set:
        """Product in P (x) P of two sums of exponent pairs."""
        out: set = set()
        for l1, r1 in pairs1:
            for l2, r2 in pairs2:
                l, r = self._mon_mul(l1, l2), self._mon_mul(r1, r2)
                if l is not None and r is not None:
                    out ^= {(l, r)}
        return out

    def _enumerate_monomials(self, max_grading):
        mons: list[list[tuple[int, ...]]] = [[] for _ in range(max_grading + 1)]

        def rec(idx, acc, grading):
            if idx == len(self.gens):
                mons[grading].append(tuple(acc))
                return
            _, g, b = self.gens[idx]
            e = 0
            while grading + e * g <= max_grading and (b is None or e < b):
                rec(idx + 1, acc + [e], grading + e * g)
                e += 1

        rec(0, [], 0)
        return mons

    def gen_element(self, name: str) -> tuple[int, int]:
        for idx, (n, _, _) in enumerate(self.gens):
            if n == name:
                return self._index[tuple(int(k == idx) for k in range(len(self.gens)))]
        raise KeyError(name)


def build_a1_star() -> PolyHopf:
    """F2[x1,x2]/(x1^4, x2^2), |x1| = 1, |x2| = 3; the 8-dimensional
    quotient of the dual Steenrod algebra.  Complete (no truncation)."""
    gens = [("x1", 1, 4), ("x2", 3, 2)]
    e = lambda a, b: (a, b)
    cop_x1 = [(e(1, 0), e(0, 0)), (e(0, 0), e(1, 0))]
    cop_x2 = [(e(0, 1), e(0, 0)), (e(2, 0), e(1, 0)), (e(0, 0), e(0, 1))]
    return PolyHopf(gens, [cop_x1, cop_x2], max_grading=6, truncated=False)


def build_delta_cgl() -> PolyHopf:
    """Stability Hopf algebra for general linear groups over F2, known
    through grading 5: polynomial on sb (grading 1), delta (3), rho (4)
    with psi(delta) = 1|delta + sb|sb^2 + delta|1 and rho primitive.
    Grading-5 coproducts are forced multiplicatively."""
    gens = [("sb", 1, None), ("delta", 3, None), ("rho", 4, None)]
    z = (0, 0, 0)
    sb = (1, 0, 0)
    sb2 = (2, 0, 0)
    d = (0, 1, 0)
    r = (0, 0, 1)
    cop_sb = [(sb, z), (z, sb)]
    cop_delta = [(d, z), (sb, sb2), (z, d)]
    cop_rho = [(r, z), (z, r)]
    return PolyHopf(gens, [cop_sb, cop_delta, cop_rho], max_grading=5, truncated=True)


# ---------------------------------------------------------------- coalgebra maps


class CoalgebraMap:
    """Grading-preserving linear map given per basis element, refused
    unless it is a Hopf map through the smaller known bound.

    images: dict (g, i) -> bitset in target grading g.
    """

    def __init__(self, source: HopfAlgebra, target: HopfAlgebra, images: dict[tuple[int, int], int]):
        self.source = source
        self.target = target
        self.images = dict(images)
        if self.images.get((0, 0)) != 1:
            raise ValueError("map must send unit to unit")
        bound = min(source.known_bound, target.known_bound)
        elems = [(g, i) for g in range(bound + 1) for i in range(source.dim(g))]
        for g, i in elems:
            if (g, i) not in self.images:
                raise ValueError(f"missing image for {source.label(g, i)}")
            if self.images[(g, i)] >> target.dim(g):
                raise ValueError("grading-mismatched image assignment")

        def fail(name: str, witness: tuple) -> None:
            raise ValueError(f"not a Hopf map: {name} fails at {witness}")

        for ga, a in elems:
            for gb, b in elems:
                if ga + gb > bound:
                    break
                lhs = self.apply(ga + gb, source.product(ga, 1 << a, gb, 1 << b))
                rhs = target.product(ga, self.apply(ga, 1 << a), gb, self.apply(gb, 1 << b))
                if lhs != rhs:
                    fail("multiplicativity", ((ga, a), (gb, b)))
        for g, i in elems:
            lhs = set()
            for (g1, i1), (g2, i2) in source.coproduct(g, i):
                for j1 in bits_of(self.apply(g1, 1 << i1)):
                    for j2 in bits_of(self.apply(g2, 1 << i2)):
                        lhs ^= {((g1, j1), (g2, j2))}
            if lhs != target.coproduct_combo(g, self.apply(g, 1 << i)):
                fail("comultiplicativity", (g, i))

    def apply(self, g: int, v: int) -> int:
        out = 0
        for i in bits_of(v):
            out ^= self.images[(g, i)]
        return out

    @classmethod
    def from_gen_images(cls, source: PolyHopf, target: HopfAlgebra, gen_images: dict[str, tuple[int, int]]):
        """Extend generator images multiplicatively.  gen_images values are
        (grading, bitset) homogeneous combos in the target."""
        images = {}
        bound = min(source.known_bound, target.known_bound)
        for g in range(bound + 1):
            for i, m in enumerate(source.monomials[g]):
                acc_g, acc_v = 0, 1
                for (name, gg, _), e in zip(source.gens, m):
                    for _ in range(e):
                        ig, iv = gen_images[name]
                        acc_v = target.product(acc_g, acc_v, ig, iv)
                        acc_g += ig
                if acc_g != g and acc_v:
                    raise ValueError("grading-mismatched image assignment")
                images[(g, i)] = acc_v
        return cls(source, target, images)


def build_cgl_to_a1_map(cgl: PolyHopf, a1: PolyHopf) -> CoalgebraMap:
    """The Hopf algebra map from the general-linear stability Hopf algebra
    to the truncated dual Steenrod algebra: sb -> x1, delta -> x2 + x1^3,
    rho -> 0, extended multiplicatively."""
    x1 = a1.gen_element("x1")
    x2 = a1.gen_element("x2")
    x1_cubed = a1.index(3, "x1^3")
    return CoalgebraMap.from_gen_images(
        cgl,
        a1,
        {
            "sb": (1, 1 << x1[1]),
            "delta": (3, (1 << x2[1]) | (1 << x1_cubed)),
            "rho": (4, 0),
        },
    )
