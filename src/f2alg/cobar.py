"""Reduced cobar complexes and Cotor of connected graded coalgebras.

Chains at (g, s) are F2 spans of words [a1|...|as] of positive-grading
basis letters with gradings summing to g, ordered lexicographically by
letter indices.  The differential splits each letter by the reduced
coproduct: ``boundary_words`` yields one term per split, repeated terms
included, and a boundary row is the XOR of the terms' index bits, so
terms of even multiplicity cancel there.  Homology in cohomological
degree s at grading g is Cotor, reindexed by (g, d) with d = g - s.

This is the chain-level model, for products, module actions, induced
maps and ``mayss``; the charts come from the far smaller resolutions of
``minres``.  Everything is computed lazily per bidegree and cached: full
homology (kernel mod image with representatives) only where asked, and
dimension-only queries stream boundary rows without storing matrices.
Every elimination here runs through the top-bit reduction of
``f2linalg`` and no output depends on its pivot order: ranks and boundary
membership are invariants of spans, homology coordinates are tags over
the representatives, and the representatives are the reduced-echelon
kernel basis vectors (``_echelonize``) independent modulo boundaries and
the earlier ones.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .f2linalg import Echelon, F2Matrix, bits_of, row_rank
from .hopf import CoalgebraMap, HopfAlgebra, check_hopf_map

# symbolic d*d verification is skipped above this many words in a bidegree;
# coassociativity of the coalgebra (asserted at construction) implies d*d = 0
# globally, so the check is a guard against indexing bugs, not a proof burden
D2_CHECK_LIMIT = 60_000


class WindowError(ValueError):
    """A request beyond a size budget (exit 3 on the command line)."""


class CotorClass(NamedTuple):
    """Homogeneous homology class: bidegree (g, d), cycle representative as
    a bitset over the word basis at (g, g - d), basis index if applicable."""

    g: int
    d: int
    chain: int
    index: Optional[int] = None

    @property
    def s(self) -> int:
        return self.g - self.d


class Homology(NamedTuple):
    reps: list  # cycle bitsets, chosen from the reduced-echelon kernel basis
    coords_ech: Echelon  # image rows tagged 0; tags are coordinates over reps

    @property
    def dim(self) -> int:
        return len(self.reps)


class BigradedComplex:
    """Shared homology machinery over per-(g, s) chain bases.

    Subclasses provide chain_dim(g, s) and boundary_bits(g, s, i), the
    boundary of the i-th basis chain as a bitset over the (g, s+1) basis.
    """

    def __init__(self, g_max: int, s_max: int):
        self.g_max = g_max
        self.s_max = s_max
        self._rank_cache: dict[tuple[int, int], int] = {}
        self._matrix_cache: dict[tuple[int, int], F2Matrix] = {}
        self._imech_cache: dict[tuple[int, int], Echelon] = {}
        self._homology_cache: dict[tuple[int, int], Homology] = {}

    # -- abstract
    def chain_dim(self, g: int, s: int) -> int:
        raise NotImplementedError

    def boundary_bits(self, g: int, s: int, i: int) -> int:
        raise NotImplementedError

    # -- window bookkeeping
    def check_window(self, g: int, s: int) -> None:
        if not (0 <= g <= self.g_max and 0 <= s <= self.s_max):
            raise WindowError(f"(g, s) = ({g}, {s}) outside window "
                              f"({self.g_max}, {self.s_max})")

    def _dim(self, g: int, s: int) -> int:
        if g < 0 or s < 0 or s > g:
            return 0
        return self.chain_dim(g, s)

    # -- boundary as data
    def apply_boundary(self, g: int, s: int, chain: int) -> int:
        out = 0
        for i in bits_of(chain):
            out ^= self.boundary_bits(g, s, i)
        return out

    def boundary_matrix(self, g: int, s: int) -> F2Matrix:
        key = (g, s)
        if key not in self._matrix_cache:
            self.check_window(g, s)
            n = self._dim(g, s)
            rows = [self.boundary_bits(g, s, i) for i in range(n)]
            m = F2Matrix(n, self._dim(g, s + 1), rows)
            prev = self._matrix_cache.get((g, s - 1))
            if prev is not None:
                for r in prev.data:
                    if m.apply_rowspace(r):
                        raise AssertionError(f"d*d != 0 at ({g},{s - 1})")
            nxt = self._matrix_cache.get((g, s + 1))
            if nxt is not None:
                for r in rows:
                    if nxt.apply_rowspace(r):
                        raise AssertionError(f"d*d != 0 at ({g},{s})")
            self._matrix_cache[key] = m
        return self._matrix_cache[key]

    def rank_d(self, g: int, s: int) -> int:
        """Rank of d: (g, s) -> (g, s+1); streamed, matrix not retained."""
        key = (g, s)
        if key not in self._rank_cache:
            if self._dim(g, s) == 0 or self._dim(g, s + 1) == 0:
                self._rank_cache[key] = 0
            else:
                self.check_window(g, s)
                self._rank_cache[key] = row_rank(
                    self.boundary_bits(g, s, i) for i in range(self._dim(g, s))
                )
        return self._rank_cache[key]

    def image_echelon(self, g: int, s: int) -> Echelon:
        """Echelon of the boundaries landing in (g, s), i.e. d of (g, s-1)."""
        key = (g, s)
        if key not in self._imech_cache:
            ech = Echelon()
            if s >= 1 and self._dim(g, s - 1):
                self.check_window(g, s - 1)
                for i in range(self._dim(g, s - 1)):
                    ech.add(self.boundary_bits(g, s - 1, i), 0)
            self._imech_cache[key] = ech
            self._rank_cache.setdefault((g, s - 1), ech.rank)
        return self._imech_cache[key]

    # -- homology
    def homology_dim(self, g: int, d: int) -> int:
        s = g - d
        if s < 0 or g < 0:
            return 0
        n = self._dim(g, s)
        if n == 0:
            return 0
        return n - self.rank_d(g, s) - (self.rank_d(g, s - 1) if s >= 1 else 0)

    def homology(self, g: int, d: int) -> Homology:
        key = (g, d)
        if key not in self._homology_cache:
            s = g - d
            # a copy, so that the cached image echelon stays image-only
            ech = self.image_echelon(g, s).copy()
            reps: list[int] = []
            if self._dim(g, s):
                kernel = self.boundary_matrix(g, s).left_kernel()
                # the one elimination of d(g, s) also gives its rank
                self._rank_cache.setdefault((g, s), self._dim(g, s) - kernel.dim)
                reps = ech.add_reps(kernel.basis)
            if len(reps) != self.homology_dim(g, d):
                raise AssertionError(f"homology bookkeeping off at ({g},{d})")
            self._homology_cache[key] = Homology(reps, ech)
        return self._homology_cache[key]

    def cotor_basis(self, g: int, d: int) -> list[CotorClass]:
        h = self.homology(g, d)
        return [CotorClass(g, d, c, index=k) for k, c in enumerate(h.reps)]

    def unique_class(self, g: int, d: int) -> CotorClass:
        h = self.homology(g, d)
        if h.dim != 1:
            raise ValueError(f"({g},{d}) is {h.dim}-dimensional, not 1")
        return CotorClass(g, d, h.reps[0], index=0)

    # -- chain-level class queries (image-side only; avoid kernel work)
    def is_cycle(self, g: int, d: int, chain: int) -> bool:
        return self.apply_boundary(g, g - d, chain) == 0

    def is_boundary(self, g: int, d: int, chain: int) -> bool:
        r, _ = self.image_echelon(g, g - d).reduce(chain)
        return r == 0

    def class_nonzero(self, g: int, d: int, chain: int) -> bool:
        return self.is_cycle(g, d, chain) and not self.is_boundary(g, d, chain)

    def classes_agree(self, g: int, d: int, c1: int, c2: int) -> bool:
        return self.is_boundary(g, d, c1 ^ c2)

    def coords(self, g: int, d: int, chain: int) -> int:
        """Coordinates of a cycle over the homology basis at (g, d)."""
        if not self.is_cycle(g, d, chain):
            raise ValueError("not a cycle")
        r, tag = self.homology(g, d).coords_ech.reduce(chain)
        if r:
            raise AssertionError
        return tag

    def map_rank_mod_boundaries(self, g: int, d: int, chains: list[int]) -> int:
        """Rank of the span of the given cycles in homology at (g, d),
        using only the image-side elimination."""
        for c in chains:
            if not self.is_cycle(g, d, c):
                raise ValueError("not a cycle")
        return len(self.image_echelon(g, g - d).copy().add_reps(chains))


# ---------------------------------------------------------------- cobar proper


class CobarComplex(BigradedComplex):
    def __init__(self, h: HopfAlgebra, g_max: int = 26, s_max: int = 26):
        if h.truncation is not None and g_max > h.truncation:
            raise WindowError(
                f"window grading {g_max} exceeds truncation {h.truncation}"
            )
        super().__init__(g_max, s_max)
        self.h = h
        self.letters: list[tuple[int, int]] = [
            (g, i)
            for g in range(1, min(g_max, h.max_grading) + 1)
            for i in range(h.dim(g))
        ]
        self._letter_index = {gi: k for k, gi in enumerate(self.letters)}
        self.letter_grading = [g for g, _ in self.letters]
        # reduced coproduct of each letter as pairs of letter ids
        self.splits: list[list[tuple[int, int]]] = []
        for (g, i) in self.letters:
            self.splits.append(
                [
                    (self._letter_index[(g1, i1)], self._letter_index[(g2, i2)])
                    for (g1, i1), (g2, i2) in h.reduced_coproduct(g, i)
                ]
            )
        self._words_cache: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._windex_cache: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
        self._d2_checked: set[tuple[int, int]] = set()

    def letter_label(self, lid: int) -> str:
        g, i = self.letters[lid]
        return self.h.label(g, i)

    def words(self, g: int, s: int) -> list[tuple[int, ...]]:
        key = (g, s)
        if key not in self._words_cache:
            if s == 0:
                out = [()] if g == 0 else []
            elif g < s:  # letters have grading >= 1
                out = []
            else:
                out = []
                for lid, lg in enumerate(self.letter_grading):
                    if lg <= g - (s - 1):
                        for tail in self.words(g - lg, s - 1):
                            out.append((lid,) + tail)
            self._words_cache[key] = out
        return self._words_cache[key]

    def word_index(self, g: int, s: int) -> dict[tuple[int, ...], int]:
        key = (g, s)
        if key not in self._windex_cache:
            self._windex_cache[key] = {w: i for i, w in enumerate(self.words(g, s))}
        return self._windex_cache[key]

    def word_label(self, w: tuple[int, ...]) -> str:
        return "[" + "|".join(self.letter_label(l) for l in w) + "]"

    def chain_dim(self, g: int, s: int) -> int:
        return len(self.words(g, s))

    def boundary_words(self, w: tuple[int, ...]):
        """Every term of the boundary of w, one per split of a letter;
        a word that occurs twice is yielded twice (XOR the terms)."""
        for k, lid in enumerate(w):
            head, tail = w[:k], w[k + 1:]
            for lr in self.splits[lid]:
                yield head + lr + tail

    def boundary_bits(self, g: int, s: int, i: int) -> int:
        idx = self.word_index(g, s + 1)
        out = 0
        for nw in self.boundary_words(self.words(g, s)[i]):
            out ^= 1 << idx[nw]
        return out

    def boundary_matrix(self, g: int, s: int) -> F2Matrix:
        m = super().boundary_matrix(g, s)
        # symbolic d*d check, independent of any neighbouring matrix
        if (g, s) not in self._d2_checked and m.rows <= D2_CHECK_LIMIT:
            for w in self.words(g, s):
                acc: set[tuple[int, ...]] = set()
                for nw in self.boundary_words(w):
                    for nnw in self.boundary_words(nw):
                        acc ^= {nnw}
                if acc:
                    raise AssertionError(f"d*d != 0 on {self.word_label(w)}")
            self._d2_checked.add((g, s))
        return m

    # -- chain translation helpers
    def chain_words(self, g: int, s: int, chain: int) -> list[tuple[int, ...]]:
        ws = self.words(g, s)
        return [ws[i] for i in bits_of(chain)]

    def concat_chain(self, g: int, s: int, chain: int, y: CotorClass) -> int:
        """Concatenation of a chain at (g, s) with the representative of
        y, as a chain at (g + y.g, s + y.s)."""
        idx = self.word_index(g + y.g, s + y.s)
        yw = self.chain_words(y.g, y.s, y.chain)
        out = 0
        for a in self.chain_words(g, s, chain):
            for b in yw:
                out ^= 1 << idx[a + b]
        return out

    def product_chain(self, x: CotorClass, y: CotorClass) -> int:
        """Concatenation product of representatives, as a chain at
        (g1+g2, s1+s2)."""
        return self.concat_chain(x.g, x.s, x.chain, y)

    def cotor_product(self, x: CotorClass, y: CotorClass) -> CotorClass:
        """Product class with canonical (image-reduced) representative."""
        g, d = x.g + y.g, x.d + y.d
        chain = self.product_chain(x, y)
        hom = self.homology(g, d)
        r, tag = hom.coords_ech.reduce(chain)
        if r:
            raise AssertionError("product of cycles is not recognized as a cycle")
        rep = 0
        for k in bits_of(tag):
            rep ^= hom.reps[k]
        return CotorClass(g, d, rep)


# ---------------------------------------------------------------- mapping cone


class ConeComplex(BigradedComplex):
    """Mapping cone of chain-level multiplication by a (1, 0) cycle z.

    Chains at (g, s) are base(g, s) + base(g-1, s) with
    d(x, y) = (dx + z.y, dy); homology classes keep (g, d = g - s).
    """

    def __init__(self, base: CobarComplex, z: CotorClass):
        if (z.g, z.d) != (1, 0):
            raise ValueError("cone cycle must live at bidegree (1, 0)")
        if not base.class_nonzero(1, 0, z.chain):
            raise ValueError("cone input is not a nonzero cycle class")
        super().__init__(base.g_max, base.s_max)
        self.base = base
        self.z = z
        self.z_letters = [base.words(1, 1)[i][0] for i in bits_of(z.chain)]

    def chain_dim(self, g: int, s: int) -> int:
        return self.base._dim(g, s) + self.base._dim(g - 1, s)

    def boundary_bits(self, g: int, s: int, i: int) -> int:
        nx = self.base._dim(g, s)
        if i < nx:
            return self.base.boundary_bits(g, s, i)
        w = self.base.words(g - 1, s)[i - nx]
        idx = self.base.word_index(g, s + 1)
        out = 0
        for zl in self.z_letters:
            out ^= 1 << idx[(zl,) + w]
        shift = self.base._dim(g, s + 1)
        out ^= self.base.boundary_bits(g - 1, s, i - nx) << shift
        return out

    def split_chain(self, g: int, s: int, chain: int) -> tuple[int, int]:
        nx = self.base._dim(g, s)
        return chain & ((1 << nx) - 1), chain >> nx

    def join_chain(self, g: int, s: int, x: int, y: int) -> int:
        return x | (y << self.base._dim(g, s))

    def module_action(self, r: CotorClass, g: int, d: int, chain: int) -> tuple[int, int, int]:
        """Right concatenation by a base class on a cone chain at (g, d);
        returns (g', d', chain') at (g + r.g, d + r.d)."""
        s = g - d
        x, y = self.split_chain(g, s, chain)
        gt, st = g + r.g, s + r.s
        nxt = self.base.concat_chain(g, s, x, r)
        nyt = self.base.concat_chain(g - 1, s, y, r)
        return gt, d + r.d, self.join_chain(gt, st, nxt, nyt)


def build_cobar(h: HopfAlgebra, g_max: int = 26, s_max: int = 26) -> CobarComplex:
    return CobarComplex(h, g_max, s_max)


def build_cone(c: CobarComplex, z: CotorClass) -> ConeComplex:
    return ConeComplex(c, z)


# ---------------------------------------------------------------- induced maps


class CobarMap:
    """Chain map of cobar complexes induced letterwise by a coalgebra map."""

    def __init__(self, f: CoalgebraMap, source: CobarComplex, target: CobarComplex):
        if not all(ok for _, ok, _ in check_hopf_map(f)):
            raise ValueError("inducing map fails the coalgebra-map check")
        self.f = f
        self.source = source
        self.target = target
        # image of each source letter as a bitset of target letter ids
        self.letter_images: list[list[int]] = []
        for (g, i) in source.letters:
            v = f.apply(g, 1 << i)
            self.letter_images.append(
                [target._letter_index[(g, j)] for j in bits_of(v)]
            )

    def map_chain(self, g: int, s: int, chain: int) -> int:
        idx = self.target.word_index(g, s)
        out = 0
        for w in self.source.chain_words(g, s, chain):
            for nw in itertools.product(*(self.letter_images[lid] for lid in w)):
                out ^= 1 << idx[nw]
        return out

    def on_cotor(self, g: int, d: int) -> F2Matrix:
        """Matrix of the induced map on homology bases at (g, d); row i is
        the coordinate vector of the image of source basis class i."""
        src = self.source.cotor_basis(g, d)
        rows = []
        for c in src:
            img = self.map_chain(g, c.s, c.chain)
            rows.append(self.target.coords(g, d, img))
        return F2Matrix(len(src), self.target.homology_dim(g, d), rows)


def induced_map(f: CoalgebraMap, source: CobarComplex, target: CobarComplex) -> CobarMap:
    return CobarMap(f, source, target)


# ---------------------------------------------------------------- chart rows

def chart_rows(c, g_max: int, d_max: int,
               names: Optional[dict] = None) -> list[tuple[int, int, int, str]]:
    """(g, d, dim, class names) per spot of a chart model c, a
    ``BigradedComplex`` or a ``minres.MinimalResolution``."""
    names = names or {}
    return [(g, d, c.homology_dim(g, d), ",".join(names.get((g, d), [])))
            for g in range(g_max + 1) for d in range(d_max + 1)]


# ---------------------------------------------------------------- known chart names

def ring_chart_names(g_max: int, d_max: int) -> dict[tuple[int, int], list[str]]:
    """Additive monomial basis of
    F2[h10, h11, y74, y128] / (h10 h11, h11^3, h11 y74, y74^2 + h10^2 y128)
    indexed by bidegree: the reduced monomials are
    y128^k h10^a, y128^k h11^b (b = 1, 2), and y128^k y74 h10^a."""
    def nm(parts):
        return "*".join(p for p in parts if p) or "1"

    def pw(base, e):
        return "" if e == 0 else base if e == 1 else f"{base}^{e}"

    out: dict[tuple[int, int], list[str]] = {}
    k = 0
    while 12 * k <= g_max and 8 * k <= d_max:
        yk = pw("y128", k)
        a = 0
        while 12 * k + a <= g_max:
            out.setdefault((12 * k + a, 8 * k), []).append(nm([pw("h10", a), yk]))
            a += 1
        for b in (1, 2):
            g, d = 12 * k + 2 * b, 8 * k + b
            if g <= g_max and d <= d_max:
                out.setdefault((g, d), []).append(nm([pw("h11", b), yk]))
        a = 0
        while 12 * k + 7 + a <= g_max and 8 * k + 4 <= d_max:
            out.setdefault((12 * k + 7 + a, 8 * k + 4), []).append(
                nm([pw("h10", a), "y74", yk])
            )
            a += 1
        k += 1
    return out
