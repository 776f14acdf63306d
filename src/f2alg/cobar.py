"""Reduced cobar complexes and Cotor of connected graded coalgebras.

Chains at (g, s) are F2 spans of words [a1|...|as] of positive-grading
basis letters with gradings summing to g, listed by first letter and
then by tail, so index(a|w) = off[a] + index(w) for per-(g, s) offsets
off.  The differential splits each letter by the reduced coproduct, and
d(a|w) = a|d(w) + (splits of a)|w turns into one rule on bitsets: a
boundary row is its tail's row shifted by the offset of a one step up,
XOR a small per-(g, s) mask of a's split terms shifted by the tail's
index.  Every complex here reads its boundary rows through one row
function per layer (``row_fn``), built once from the layer's offsets,
its masks and its tails' row functions; rows are built on the fly and
not stored (as in Ripser, Bauer 2021), except that layers read as tails
below g_max - 1 keep their rows, and their row function is the list's
own lookup.  No word tuple is formed.
``boundary_words`` yields the same boundary symbolically, one term per
split with repeated terms included; it is the model behind the symbolic
d*d check and the tests.  A word's letters are read off its index
(``word_of``) and a word is indexed by summing offsets (``index_of``):
products, cone module actions and induced maps list no layer's words,
and ``words`` and ``word_index`` decode the offsets the same way to
list a layer's word tuples for that check and for the tests.  Homology
in cohomological degree s at grading g is Cotor, reindexed by (g, d)
with d = g - s.

This is the chain-level model.  Its users are ``mayss``, which filters
it, and the chain-level checks of products, cone module actions and
induced maps; the ``cotor`` and ``cone`` charts and the products that
``cone`` and ``families`` check come from the far smaller resolutions of
``minres``.  Everything is computed lazily per bidegree and cached: full
homology (kernel mod image with representatives) only where asked, and
dimension-only queries stream boundary rows without storing matrices.
Every elimination here runs through the top-bit reductions of
``f2linalg`` and no output depends on their pivot order: ranks and
boundary membership are invariants of spans, homology coordinates are
tags over the representatives, and the representatives are the
reduced-echelon kernel basis vectors (``_echelonize``) independent
modulo boundaries and the earlier ones.  A streamed rank pairs rows
with columns (``pair_rows``), as does the image echelon, and both keep
the paired columns, so that the rank and the image echelon one degree
up skip those chains: d(e_c) of a paired column c is a sum of earlier
rows (clearing, as in ``mayss``).
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from typing import Callable, NamedTuple

from .f2linalg import Echelon, F2Matrix, bits_of, pair_rows
from .hopf import CoalgebraMap, HopfAlgebra, WindowError

# symbolic d*d verification is skipped above this many words in a bidegree;
# coassociativity of the coalgebra (asserted at construction) implies d*d = 0
# globally, so the check is a guard against indexing bugs, not a proof burden
D2_CHECK_LIMIT = 60_000


class CotorClass(NamedTuple):
    """Homogeneous homology class: bidegree (g, d), cycle representative as
    a bitset over the word basis at (g, g - d)."""

    g: int
    d: int
    chain: int

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

    Subclasses provide chain_dim(g, s) and _build_row_fn(g, s), the
    layer's row function: it maps i to the boundary of the i-th basis
    chain as a bitset over the (g, s+1) basis.  ``row_fn`` keeps one per
    layer, and every boundary is read through it.
    """

    def __init__(self, g_max: int, s_max: int):
        self.g_max = g_max
        self.s_max = s_max
        self._row_fns: dict[tuple[int, int], Callable[[int], int]] = {}
        # per (g, s), the columns paired by d(g, s); the rank is their count
        self._paired_cache: dict[tuple[int, int], array] = {}
        self._matrix_cache: dict[tuple[int, int], F2Matrix] = {}
        self._imech_cache: dict[tuple[int, int], Echelon] = {}
        self._homology_cache: dict[tuple[int, int], Homology] = {}

    # -- abstract
    def chain_dim(self, g: int, s: int) -> int:
        raise NotImplementedError

    def _build_row_fn(self, g: int, s: int) -> Callable[[int], int]:
        raise NotImplementedError

    def row_fn(self, g: int, s: int) -> Callable[[int], int]:
        """The row function of (g, s): i -> the boundary of chain i."""
        fn = self._row_fns.get((g, s))
        if fn is None:
            fn = self._row_fns[(g, s)] = self._build_row_fn(g, s)
        return fn

    def boundary_bits(self, g: int, s: int, i: int) -> int:
        return self.row_fn(g, s)(i)

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
        row, out = self.row_fn(g, s), 0
        for i in bits_of(chain):
            out ^= row(i)
        return out

    def boundary_matrix(self, g: int, s: int) -> F2Matrix:
        key = (g, s)
        if key not in self._matrix_cache:
            self.check_window(g, s)
            n = self._dim(g, s)
            rows = list(map(self.row_fn(g, s), range(n)))
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
        """Rank of d: (g, s) -> (g, s+1); streamed, matrix not retained.

        The rows are paired with their top-bit columns (``pair_rows``)
        and the paired columns are kept, so that rank_d(g, s + 1) skips
        those chains, whose rows reduce to zero (clearing)."""
        key = (g, s)
        cols = self._paired_cache.get(key)
        if cols is None:
            cols = self._paired_cache[key] = array("I")
            if self._dim(g, s) and self._dim(g, s + 1):
                self.check_window(g, s)
                cols.extend(c for _, c in pair_rows(
                    self.row_fn(g, s), [(range(self._dim(g, s)), [])],
                    self._paired_cache.get((g, s - 1), ())))
        return len(cols)

    def image_echelon(self, g: int, s: int) -> Echelon:
        """Echelon of the boundaries landing in (g, s), i.e. d of (g, s-1).
        Its rows join in order with top-bit pivots, as in ``pair_rows``,
        so its pivot columns are the columns paired at (g, s - 1), which
        it keeps for rank_d.  It skips the chains paired at (g, s - 2),
        whose rows reduce to zero and leave the pivots as they are
        (clearing)."""
        key = (g, s)
        if key not in self._imech_cache:
            ech = Echelon()
            if s >= 1 and self._dim(g, s - 1):
                self.check_window(g, s - 1)
                cleared = ()
                if s >= 2:
                    self.rank_d(g, s - 2)  # pairs (g, s - 2) unless already paired
                    cleared = set(self._paired_cache[(g, s - 2)])
                row = self.row_fn(g, s - 1)
                for i in range(self._dim(g, s - 1)):
                    if i not in cleared:
                        ech.add(row(i), 0)
            self._imech_cache[key] = ech
            self._paired_cache.setdefault((g, s - 1), array("I", [k - 1 for k in ech.pivots]))
        return self._imech_cache[key]

    # -- homology
    def homology_dim(self, g: int, d: int) -> int:
        s = g - d
        if s < 0 or g < 0:
            return 0
        n = self._dim(g, s)
        if n == 0:
            return 0
        # d of (g, s - 1) first, so that rank_d(g, s) can clear with it
        return n - (self.rank_d(g, s - 1) if s >= 1 else 0) - self.rank_d(g, s)

    def homology(self, g: int, d: int) -> Homology:
        key = (g, d)
        if key not in self._homology_cache:
            s = g - d
            # a copy, so that the cached image echelon stays image-only
            ech = self.image_echelon(g, s).copy()
            reps: list[int] = []
            if self._dim(g, s):
                reps = ech.add_reps(self.boundary_matrix(g, s).left_kernel().basis)
            if len(reps) != self.homology_dim(g, d):
                raise AssertionError(f"homology bookkeeping off at ({g},{d})")
            self._homology_cache[key] = Homology(reps, ech)
        return self._homology_cache[key]

    def cotor_basis(self, g: int, d: int) -> list[CotorClass]:
        h = self.homology(g, d)
        return [CotorClass(g, d, c) for c in h.reps]

    def unique_class(self, g: int, d: int) -> CotorClass:
        h = self.homology(g, d)
        if h.dim != 1:
            raise ValueError(f"({g},{d}) is {h.dim}-dimensional, not 1")
        return CotorClass(g, d, h.reps[0])

    # -- chain-level class queries (image-side only; avoid kernel work)
    def is_cycle(self, g: int, d: int, chain: int) -> bool:
        return self.apply_boundary(g, g - d, chain) == 0

    def is_boundary(self, g: int, d: int, chain: int) -> bool:
        return not self.image_echelon(g, g - d).residue(chain)

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
        self._offsets_cache: dict[tuple[int, int], list[int]] = {}
        self._rows_cache: dict[tuple[int, int], list[int]] = {}

    def letter_label(self, lid: int) -> str:
        g, i = self.letters[lid]
        return self.h.label(g, i)

    def words(self, g: int, s: int) -> list[tuple[int, ...]]:
        return [self.word_of(g, s, i) for i in range(self._dim(g, s))]

    def word_index(self, g: int, s: int) -> dict[tuple[int, ...], int]:
        return {w: i for i, w in enumerate(self.words(g, s))}

    def word_label(self, w: tuple[int, ...]) -> str:
        return "[" + "|".join(self.letter_label(l) for l in w) + "]"

    def _offsets(self, g: int, s: int) -> list[int]:
        """off[a] = index of the first word of (g, s), s >= 1, that begins
        with letter a; off[-1] is the chain dimension.  Words are listed by
        first letter and then by tail, so index(a|w) = off[a] + index(w)."""
        key = (g, s)
        off = self._offsets_cache.get(key)
        if off is None:
            off = [0]
            for lg in self.letter_grading:
                off.append(off[-1] + self.chain_dim(g - lg, s - 1))
            self._offsets_cache[key] = off
        return off

    def word_of(self, g: int, s: int, i: int) -> tuple[int, ...]:
        """The letters of word i of (g, s), read off the offsets: the first
        letter a is the block of off(g, s) that holds i, and the tail is
        word i - off[a] of (g - |a|, s - 1)."""
        w = []
        for s in range(s, 0, -1):
            off = self._offsets(g, s)
            a = bisect_right(off, i) - 1
            w.append(a)
            i -= off[a]
            g -= self.letter_grading[a]
        return tuple(w)

    def index_of(self, g: int, s: int, w: tuple[int, ...]) -> int:
        """The sum of the offsets of the letters w at (g, s), one per
        letter as index(a|v) = off[a] + index(v) unfolds: the index of w
        itself when it fills (g, s), and of w|v, for v a word of the layer
        w leaves, less index(v)."""
        j = 0
        for a in w:
            j += self._offsets(g, s)[a]
            g -= self.letter_grading[a]
            s -= 1
        return j

    def chain_dim(self, g: int, s: int) -> int:
        if s <= 0 or g < s:  # letters have grading >= 1
            return int(g == s == 0)
        return self._offsets(g, s)[-1]

    def boundary_words(self, w: tuple[int, ...]):
        """Every term of the boundary of w, one per split of a letter;
        a word that occurs twice is yielded twice (XOR the terms)."""
        for k, lid in enumerate(w):
            head, tail = w[:k], w[k + 1:]
            for lr in self.splits[lid]:
                yield head + lr + tail

    # an attribute of the class itself, which perfbench/tracer.py wraps
    boundary_bits = BigradedComplex.boundary_bits

    def _blocks(self, g: int, s: int) -> list[tuple[int, int, int, int]]:
        """Per letter a that begins words of (g, s), s >= 1, the data of
        the rule in ``_build_row_fn``: (a, the grading g - |a| of its
        tails, up[a], mask[a]), mask[a] the split terms l1|l2 of a for the
        tail of index 0."""
        off, up = self._offsets(g, s), self._offsets(g, s + 1)
        blocks = []
        for a, lg in enumerate(self.letter_grading):
            if off[a + 1] > off[a]:
                m = 0
                for l1, l2 in self.splits[a]:
                    m ^= 1 << (up[l1] + self._offsets(g - self.letter_grading[l1], s)[l2])
                blocks.append((a, g - lg, up[a], m))
        return blocks

    def _tail_rows(self, g: int, s: int) -> list[int]:
        """Every boundary row of (g, s), g < g_max - 1, built block by
        block from the rows of its own tails, and kept; the layer's row
        function becomes the list's own lookup."""
        if s == 0:
            return [0]  # the empty word at (0, 0)
        rows = self._rows_cache.get((g, s))
        if rows is None:
            rows = []
            for _, tg, sh, m in self._blocks(g, s):
                rows += [(t << sh) ^ (m << j) for j, t in enumerate(self._tail_rows(tg, s - 1))]
            self._rows_cache[(g, s)] = rows
            self._row_fns[(g, s)] = rows.__getitem__
        return rows

    def _build_row_fn(self, g: int, s: int) -> Callable[[int], int]:
        """d(a|w) = a|d(w) + (sum of the splits l1|l2 of a)|w, so with
        i = off[a] + j for w the j-th word of (g - |a|, s - 1),

            d(a|w) = (d(w) << up[a]) ^ (mask[a] << j),

        up being the offsets of (g, s + 1).  Only layers read as tails
        below g_max - 1 keep their rows (``_tail_rows``); the rows of any
        other layer are built from their tails' rows when read, kept or
        built the same way, and not stored."""
        if s == 0:
            return [0].__getitem__  # the empty word at (0, 0)
        off = self._offsets(g, s)
        # per letter a: (off[a], the row function of a's tails, up[a], mask[a])
        blocks: list = [None] * len(self.letters)
        for a, tg, sh, m in self._blocks(g, s):
            tails = (self._tail_rows(tg, s - 1).__getitem__ if tg < self.g_max - 1
                     else self.row_fn(tg, s - 1))
            blocks[a] = (off[a], tails, sh, m)

        def row(i: int) -> int:
            start, tails, sh, m = blocks[bisect_right(off, i) - 1]
            j = i - start
            return (tails(j) << sh) ^ (m << j)

        return row

    def boundary_matrix(self, g: int, s: int) -> F2Matrix:
        first = (g, s) not in self._matrix_cache
        m = super().boundary_matrix(g, s)
        # symbolic d*d check, independent of any neighbouring matrix
        if first and m.rows <= D2_CHECK_LIMIT:
            for w in self.words(g, s):
                acc: set[tuple[int, ...]] = set()
                for nw in self.boundary_words(w):
                    for nnw in self.boundary_words(nw):
                        acc ^= {nnw}
                if acc:
                    raise AssertionError(f"d*d != 0 on {self.word_label(w)}")
        return m

    def concat_chain(self, g: int, s: int, chain: int, y: CotorClass) -> int:
        """Concatenation of a chain at (g, s) with the representative of
        y, as a chain at the target (g + y.g, s + y.s).  For words x of
        (g, s) and w of (y.g, y.s), x|w is word index_of(target, x) +
        index(w), so x.y is y's chain shifted by index_of(target, x); the
        shifted copies are disjoint, x|w being distinct words.  The target
        must lie in the window: past g_max the letters are cut, and its
        offsets would undercount."""
        if not chain:
            return 0
        gt, st = g + y.g, s + y.s
        self.check_window(gt, st)
        out = 0
        for i in bits_of(chain):
            out ^= y.chain << self.index_of(gt, st, self.word_of(g, s, i))
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
        self.z_letters = [base.word_of(1, 1, i)[0] for i in bits_of(z.chain)]

    def chain_dim(self, g: int, s: int) -> int:
        return self.base._dim(g, s) + self.base._dim(g - 1, s)

    boundary_bits = BigradedComplex.boundary_bits  # as in CobarComplex

    def _build_row_fn(self, g: int, s: int) -> Callable[[int], int]:
        # zl|w for the j-th word w of (g - 1, s) is word up[zl] + j of
        # (g, s + 1), zl having grading 1, so z.w = zmask << j
        nx, up = self.base._dim(g, s), self.base._offsets(g, s + 1)
        x_row, y_row, shift, zmask = self.base.row_fn(g, s), self.base.row_fn(g - 1, s), up[-1], 0
        for zl in self.z_letters:
            zmask ^= 1 << up[zl]

        def row(i: int) -> int:
            if i < nx:
                return x_row(i)
            j = i - nx
            return (zmask << j) ^ (y_row(j) << shift)

        return row

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


# ---------------------------------------------------------------- induced maps


class CobarMap:
    """Chain map of cobar complexes induced letterwise by a coalgebra map."""

    def __init__(self, f: CoalgebraMap, source: CobarComplex, target: CobarComplex):
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
        """The image of a chain at (g, s), which must lie in both windows:
        each word maps to the product of its letters' images."""
        if not chain:
            return 0
        self.source.check_window(g, s)
        self.target.check_window(g, s)
        out = 0
        for i in bits_of(chain):
            w = self.source.word_of(g, s, i)
            for nw in itertools.product(*(self.letter_images[lid] for lid in w)):
                out ^= 1 << self.target.index_of(g, s, nw)
        return out
