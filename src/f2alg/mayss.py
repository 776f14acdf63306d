"""Spectral sequence of the augmentation-power filtration on cobar complexes.

The coalgebra is a truncated polynomial Hopf algebra (``PolyHopf``).
Letters are filtered by their depth in powers of the augmentation ideal,
which for a basis monomial is its number of generator factors; a word
gets filtration -(sum of letter depths), and fil_p is the span of
words of filtration <= p.  A layer's filtrations are read off those
of its tails, filt(a|w) = filt(w) - depth(a), in the cobar word order,
so the filtered complex enumerates no words.  The differential never
raises filtration, and the page E^r at (g, d, f) with s = g - d, p = f
has

    dim E^r_p = z_s(r, p) - z_s(r-1, p-1)
                - z_{s-1}(r-1, p+r-1) + z_{s-1}(r, p+r-1)

where z_s(r, p) = dim { x in fil_p : dx in fil_{p-r} }.  Every z is read
off one rank profile per (g, s): rows sorted by ascending filtration,
columns by descending filtration, online elimination pivoting on each
row's first column; the pivot (row_filt, col_filt) pairs then give every
submatrix rank at once.  One cumulative table per (g, s) (``RankTable``)
holds the number of chains of filtration <= p and of pairs with
row_filt <= p and col_filt > q, for every p and q in the filtration
ranges (a handful of values against thousands of chains), so every z is
two lookups.  Pages are computed from these first principles, never by
propagating declared differentials.

A layer keeps its filtrations as one signed byte per chain, its chains
in ascending (filtration, index) order and one bitset mask per
filtration, each made in one pass over the bytes (``bytes.translate``).
The pairs come from ``f2linalg.pair_rows`` in canonical coordinates,
with the masks of the target layer: a residue pivots on the top bit of
v & mask_f for the highest filtration f it meets, which is its first
column in descending (filtration, index) order.  The rows run one
filtration at a time, and the masks above a run's own filtration are
never read, since the boundary never raises filtration.  Ties
inside one filtration (ascending index for rows, descending for
columns) are free, since the number of pivot pairs with row_filt <= p
and col_filt > q is the rank of that submatrix, which no order inside a
filtration changes (the persistence pairing of Edelsbrunner-Letscher-
Zomorodian); this one is the orientation of the unfiltered ``rank_d``.
As in persistence codes, each layer's pairs are computed from s = 1 up
and the rows of the chains paired one degree down are skipped: such a
chain c has d(e_c) equal to a sum of rows before it, so its row reduces
to zero (the clearing of Chen-Kerber, "Persistent homology computation
with a twist", 2011, and Bauer-Kerber-Reininghaus, "Clear and
compress", 2014).  Page 5 at d <= 10 then takes 465 XOR steps at
g <= 14, 767 at g <= 16 and 916 at g <= 17 (346k, 2.47M and 6.48M
without clearing).

Explicit subquotient representatives and d^r matrices are built by tagged
elimination only at requested spots: the representatives are reduced-
echelon basis vectors (``_echelonize``) and d^r entries are tags, so
neither depends on pivot order.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cache
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

from .cobar import BigradedComplex, CobarComplex, ConeComplex, CotorClass
from .f2linalg import Echelon, F2Matrix, Subspace, bits_of, pair_rows
from .hopf import PolyHopf, WindowError


def augmentation_depths(h: PolyHopf) -> dict[tuple[int, int], int]:
    """depth(a) = max k with a in (positive-grading ideal)^k, per basis
    monomial of positive grading.  In a truncated polynomial algebra I^k
    is spanned by the monomials with at least k generator factors, so a
    monomial's depth is its number of factors."""
    return {(g, i): sum(m) for g in range(1, h.known_bound + 1)
            for i, m in enumerate(h.monomials[g])}


# Filtrations are kept one signed byte per chain.  A letter's depth is at
# most its grading, so a word at grading g has filtration >= -g, and the
# cone's y-part one less: windows up to FILT_MAX_G fit.
FILT_MAX_G = 126


@cache
def _lower(k: int) -> bytes:
    """Translation table of signed bytes: b -> b - k."""
    return bytes((b - k) & 0xFF for b in range(256))


@cache
def _ones(b: int) -> bytes:
    """Translation table: byte b -> "1", every other byte -> "0"."""
    return bytes(48 + (x == b) for x in range(256))


def _lowered(filts: array, k: int) -> array:
    """The filtrations filts, each lowered by k, in one pass."""
    out = array("b")
    out.frombytes(filts.tobytes().translate(_lower(k)))
    return out


class Layer(NamedTuple):
    filts: array  # canonical index -> filtration, signed bytes
    row_order: array  # canonical indices, ascending (filtration, index)
    masks: dict[int, int]  # filtration -> bitset of its chains, descending


class RankTable(NamedTuple):
    """Cumulative counts of one layer (g, s) and its pivot pairs: fil[k] is
    the number of chains of filtration <= lo + k, and cut[k][l] the number
    of pairs with row_filt <= lo + k and col_filt > q_lo + l (the rank of
    fil_{lo+k} -> (g, s+1)/fil_{q_lo+l}).  Read clamped: past the last k
    or l the last entry holds, before the first l the first; p < lo has
    no chains."""

    lo: int
    fil: list[int]
    q_lo: int
    cut: list[list[int]]


class FilteredComplex:
    """A bigraded word complex together with a per-chain filtration.

    ``filts(g, s)`` returns the filtrations of the whole layer (g, s),
    indexed by canonical chain index, as a signed-byte array; it is called
    once per layer, and ``layer(g, s).filts`` is the cached copy every
    reader uses.
    """

    def __init__(self, complex: BigradedComplex, filts: Callable[[int, int], array]):
        self.complex = complex
        self.filts = filts
        self._layer_cache: dict[tuple[int, int], Layer] = {}
        self._tables: dict[tuple[int, int], RankTable] = {}
        self._paired_cols: dict[tuple[int, int], array] = {}
        self._spot_cache: dict = {}

    def layer(self, g: int, s: int) -> Layer:
        key = (g, s)
        if key not in self._layer_cache:
            filts = self.filts(g, s) if self.complex._dim(g, s) else array("b")
            row_order = array("I", sorted(range(len(filts)), key=filts.__getitem__))
            # bit i of a mask is chain i, so its string lists the chains
            # from the last
            rev = filts.tobytes()[::-1]
            distinct = sorted({b - 256 if b > 127 else b for b in set(rev)}, reverse=True)
            masks = {f: int(rev.translate(_ones(f & 0xFF)), 2) for f in distinct}
            self._layer_cache[key] = Layer(filts, row_order, masks)
        return self._layer_cache[key]

    def pivots(self, g: int, s: int) -> list[tuple[int, int]]:
        """(row_filt, col_filt) of each pivot pair of d: (g, s) -> (g, s+1)
        (``pair_rows``).  Rows run in row_order, in canonical coordinates,
        and each residue pivots on its first column in descending
        (filtration, index) order: the top bit of v & mask_f for the
        highest filtration f it meets.  The chains paired at (g, s-1) are
        skipped (clearing), so that layer's pairs are computed first.  Not
        cached: the rank table and the paired columns are."""
        src, tgt = self.layer(g, s), self.layer(g, s + 1)
        pairs = pair_rows(self.complex.row_fn(g, s), self.runs(g, s), self._cleared(g, s))
        self._paired_cols[(g, s)] = array("I", [c for _, c in pairs])
        return [(src.filts[i], tgt.filts[c]) for i, c in pairs]

    def runs(self, g: int, s: int) -> list[tuple[array, list[int]]]:
        """row_order cut into one run per filtration f, each with the masks
        of (g, s+1) its residues are pivoted with: those of filtration <= f,
        which hold every bit of its rows, less the lowest (``pair_rows``)."""
        src, tgt = self.layer(g, s), self.layer(g, s + 1)
        higher = list(tgt.masks.items())[:-1]
        out, start = [], 0
        for f in reversed(src.masks):
            end = start + src.masks[f].bit_count()
            out.append((src.row_order[start:end], [m for t, m in higher if t <= f]))
            start = end
        return out

    def _cleared(self, g: int, s: int):
        """The chains of (g, s) paired at (g, s-1), whose boundary rows are
        sums of rows before them in row_order: a paired row's residue is
        d of a chain, e_c plus chains c' before c, and d(e_c) is then the
        sum of the d(e_c')."""
        if s <= 0:
            return ()
        if (g, s - 1) not in self._paired_cols:
            self.rank_table(g, s - 1)
        return self._paired_cols[(g, s - 1)]

    # -- rank bookkeeping
    def rank_table(self, g: int, s: int) -> RankTable:
        """The cumulative counts of (g, s), built once from its filtrations
        and its pivot pairs."""
        key = (g, s)
        table = self._tables.get(key)
        if table is None:
            pairs = Counter(self.pivots(g, s))
            src, tgt = self.layer(g, s).masks, self.layer(g, s + 1).masks
            lo, hi = (min(src), max(src)) if src else (0, 0)
            q_lo, q_hi = (min(tgt) - 1, max(tgt)) if tgt else (0, 0)
            fil = list(accumulate(src.get(f, 0).bit_count() for f in range(lo, hi + 1)))
            width = q_hi - q_lo + 1
            # cut[k][l] = cut[k - 1][l] + pairs of row_filt lo + k with
            # col_filt > q_lo + l, summed from the top column filtration
            cut, above = [], [0] * width
            for rf in range(lo, hi + 1):
                run = 0
                for l in reversed(range(width - 1)):
                    run += pairs.get((rf, q_lo + 1 + l), 0)
                    above[l] += run
                cut.append(above[:])
            table = self._tables[key] = RankTable(lo, fil, q_lo, cut)
        return table

    def fil_dim(self, g: int, s: int, p: int) -> int:
        """dim fil_p(g, s)."""
        t = self._tables.get((g, s)) or self.rank_table(g, s)
        k = p - t.lo
        return 0 if k < 0 else t.fil[k if k < len(t.fil) else -1]

    def restricted_rank(self, g: int, s: int, p: int, q: int) -> int:
        """rank of fil_p(g, s) -> (g, s+1)/fil_q."""
        t = self._tables.get((g, s)) or self.rank_table(g, s)
        k, l = p - t.lo, q - t.q_lo
        if k < 0:
            return 0
        row = t.cut[k if k < len(t.cut) else -1]
        return row[0 if l < 0 else l if l < len(row) else -1]

    def z(self, g: int, s: int, r: int, p: int) -> int:
        """dim { x in fil_p(g, s) : dx in fil_{p-r} }: two lookups in the
        rank table."""
        if s < 0 or g < 0:
            return 0
        return self.fil_dim(g, s, p) - self.restricted_rank(g, s, p, p - r)

    def page_dim(self, r: int, g: int, d: int, f: int) -> int:
        s = g - d
        if s < 0:
            return 0
        p = f
        return (
            self.z(g, s, r, p)
            - self.z(g, s, r - 1, p - 1)
            - self.z(g, s - 1, r - 1, p + r - 1)
            + self.z(g, s - 1, r, p + r - 1)
        )

    def filt_range(self, g: int, s: int) -> Optional[tuple[int, int]]:
        masks = self.layer(g, s).masks
        if not masks:
            return None
        return min(masks), max(masks)

    # -- explicit subquotients
    def ztilde(self, g: int, s: int, r: int, p: int) -> Subspace:
        """{x in fil_p : dx in fil_{p-r}} in canonical chain coordinates."""
        n = self.complex._dim(g, s)
        if s < 0 or n == 0:
            return Subspace(max(n, 0), [])
        members = [i for i, f in enumerate(self.layer(g, s).filts) if f <= p]
        kill = ~sum(m for f, m in self.layer(g, s + 1).masks.items() if f <= p - r)
        row = self.complex.row_fn(g, s)
        rows = [row(i) & kill for i in members]
        cols = self.complex._dim(g, s + 1)
        combos = F2Matrix(len(rows), cols, rows).left_kernel()
        basis = []
        for tag in combos.basis:
            v = 0
            for b in bits_of(tag):
                v |= 1 << members[b]
            basis.append(v)
        return Subspace.span(n, basis)

    def spot(self, r: int, g: int, d: int, f: int):
        """Representatives and coordinate echelon of E^r at (g, d, f)."""
        key = (r, g, d, f)
        if key not in self._spot_cache:
            s = g - d
            p = f
            ech = Echelon()
            for v in self.ztilde(g, s, r - 1, p - 1).basis:
                ech.add(v, 0)
            if s >= 1:
                for x in self.ztilde(g, s - 1, r - 1, p + r - 1).basis:
                    ech.add(self.complex.apply_boundary(g, s - 1, x), 0)
            reps = ech.add_reps(self.ztilde(g, s, r, p).basis)
            if len(reps) != self.page_dim(r, g, d, f):
                raise AssertionError(f"page bookkeeping off at r={r}, ({g},{d},{f})")
            self._spot_cache[key] = (reps, ech)
        return self._spot_cache[key]

    def differential_matrix(self, r: int, g: int, d: int, f: int) -> F2Matrix:
        """Matrix of d^r: E^r_{g,d,f} -> E^r_{g,d-1,f-r} over the chosen
        representatives."""
        src_reps, _ = self.spot(r, g, d, f)
        tgt_reps, tgt_ech = self.spot(r, g, d - 1, f - r)
        rows = []
        for x in src_reps:
            dx = self.complex.apply_boundary(g, g - d, x)
            red, tag = tgt_ech.reduce(dx)
            if red:
                raise AssertionError("boundary leaves the target subquotient")
            rows.append(tag)
        return F2Matrix(len(src_reps), len(tgt_reps), rows)


def build_filtered(h: PolyHopf, g_max: int = 20, s_max: int = 20) -> FilteredComplex:
    if g_max > FILT_MAX_G:
        raise WindowError(f"filtrations are kept as signed bytes: g_max {g_max} "
                          f"exceeds {FILT_MAX_G}")
    base = CobarComplex(h, g_max, s_max)
    depth = augmentation_depths(h)
    letter_depth = [depth[gi] for gi in base.letters]

    cache: dict[tuple[int, int], array] = {}

    def filts(g: int, s: int) -> array:
        # filt(a|w) = filt(w) - depth(a), in the canonical order: words
        # are listed by first letter and then by tail
        if s <= 0 or g < s:
            return array("b", [0] if g == s == 0 else [])
        key = (g, s)
        if key not in cache:
            out = array("b")
            for lg, dp in zip(base.letter_grading, letter_depth):
                out += _lowered(filts(g - lg, s - 1), dp)
            cache[key] = out
        return cache[key]

    return FilteredComplex(base, filts)


def filtered_cone(fc: FilteredComplex, z: CotorClass) -> FilteredComplex:
    """Cone by a (1, 0) cycle with the shifted filtration on the second
    summand: x-part keeps its filtration, y-part gets filt(y) - 1."""
    base = fc.complex
    if not isinstance(base, CobarComplex):
        raise TypeError("filtered cone needs a filtered cobar complex")
    cone = ConeComplex(base, z)

    def filts(g: int, s: int) -> array:
        return fc.filts(g, s) + _lowered(fc.filts(g - 1, s), 1)

    return FilteredComplex(cone, filts)


# ---------------------------------------------------------------- pages and reports


class SSPage(NamedTuple):
    r: int
    dims: dict[tuple[int, int, int], int]  # (g, d, f) -> nonzero dim


def page(fc: FilteredComplex, r: int, g_max: int, d_max: int) -> SSPage:
    if r < 1:
        raise ValueError("page number must be >= 1")
    dims: dict[tuple[int, int, int], int] = {}
    for g in range(g_max + 1):
        for d in range(d_max + 1):
            s = g - d
            if s < 0:
                continue
            rng = fc.filt_range(g, s)
            if rng is None:
                continue
            for f in range(rng[0], rng[1] + 1):
                dim = fc.page_dim(r, g, d, f)
                if dim:
                    dims[(g, d, f)] = dim
    return SSPage(r, dims)


class EinftyRow(NamedTuple):
    g: int
    d: int
    f_dims: dict[int, int]
    stable_page: int
    cotor_dim: int

    @property
    def total(self) -> int:
        return sum(self.f_dims.values())


def einfty_report(fc: FilteredComplex, g_max: int, d_max: int) -> list[EinftyRow]:
    """Stable page dims per (g, d), the page where each spot stabilizes,
    and the cross-check against homology of the underlying complex."""
    out = []
    for g in range(g_max + 1):
        # descending d, so that each rank_d of the cross-check clears with
        # the one below it; the rows are listed by ascending d
        rows: list[EinftyRow] = []
        for d in reversed(range(d_max + 1)):
            s = g - d
            if s < 0:
                continue
            rng = fc.filt_range(g, s)
            if rng is None:
                if fc.complex.homology_dim(g, d):
                    raise AssertionError("empty column with nonzero homology")
                continue
            lo = min(x for t in (s - 1, s, s + 1)
                     for x in (fc.filt_range(g, t) or (0, 0)))
            hi = max(x for t in (s - 1, s, s + 1)
                     for x in (fc.filt_range(g, t) or (0, 0)))
            r_inf = hi - lo + 2
            profiles = {
                r: tuple(fc.page_dim(r, g, d, f) for f in range(rng[0], rng[1] + 1))
                for r in range(1, r_inf + 1)
            }
            stable = profiles[r_inf]
            r0 = r_inf
            while r0 > 1 and profiles[r0 - 1] == stable:
                r0 -= 1
            f_dims = {
                f: dim
                for f, dim in zip(range(rng[0], rng[1] + 1), stable)
                if dim
            }
            row = EinftyRow(g, d, f_dims, r0, fc.complex.homology_dim(g, d))
            if row.total != row.cotor_dim:
                raise AssertionError(f"convergence failure at ({g},{d}): "
                                     f"{row.total} != {row.cotor_dim}")
            rows.append(row)
        out += reversed(rows)
    return out
