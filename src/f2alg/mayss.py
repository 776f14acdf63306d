"""Spectral sequence of the augmentation-power filtration on cobar complexes.

Letters are filtered by their depth in powers of the augmentation ideal;
a word gets filtration -(sum of letter depths), and fil_p is the span of
words of filtration <= p.  The differential never raises filtration, and
the page E^r at (g, d, f) with s = g - d, p = f has

    dim E^r_p = z_s(r, p) - z_s(r-1, p-1)
                - z_{s-1}(r-1, p+r-1) + z_{s-1}(r, p+r-1)

where z_s(r, p) = dim { x in fil_p : dx in fil_{p-r} }.  Every z is read
off one rank profile per (g, s): rows sorted by ascending filtration,
columns by descending filtration, online elimination pivoting on each
row's first column; the pivot (row_filt, col_filt) pairs then give every
submatrix rank at once.  Each profile's pairs and each layer's
filtrations are counted once (a handful of distinct values against
thousands of chains), and every z is read from those counts.  Columns
are stored mirrored (column position j at bit n-1-j), so that first
column is the top bit the ``f2linalg`` reduction pivots on.  Pages are
computed from these first principles, never by propagating declared
differentials.

Explicit subquotient representatives and d^r matrices are built by tagged
elimination only at requested spots: the representatives are reduced-
echelon basis vectors (``_echelonize``) and d^r entries are tags, so
neither depends on pivot order.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple, Optional

from .cobar import BigradedComplex, CobarComplex, ConeComplex, CotorClass
from .f2linalg import Echelon, F2Matrix, Subspace, bits_of, row_pivots
from .hopf import HopfAlgebra


def augmentation_depths(h: HopfAlgebra) -> dict[tuple[int, int], int]:
    """depth(a) = max k with a in (positive-grading ideal)^k, per basis
    element.  Requires every ideal power to be spanned by basis elements
    (true for monomial bases), asserted exactly."""
    bound = h.known_bound
    # P[k][g] = subspace of grading g spanned by k-fold products
    P: list[list[Subspace]] = []
    first = [Subspace.full(h.dim(g)) if g >= 1 else Subspace(h.dim(g), [])
             for g in range(bound + 1)]
    P.append(first)
    depth = {(g, i): 1 for g in range(1, bound + 1) for i in range(h.dim(g))}
    k = 1
    while True:
        prev = P[-1]
        nxt = []
        nonzero = False
        for g in range(bound + 1):
            vecs = []
            for g1 in range(1, g):
                for i in range(h.dim(g1)):
                    for v in prev[g - g1].basis:
                        vecs.append(h.product(g1, 1 << i, g - g1, v))
            sp = Subspace.span(h.dim(g), vecs)
            nxt.append(sp)
            if sp.dim:
                nonzero = True
        if not nonzero:
            break
        k += 1
        P.append(nxt)
        for g in range(1, bound + 1):
            sp = nxt[g]
            for v in sp.basis:
                if v.bit_count() != 1:
                    raise AssertionError(
                        "augmentation-power filtration is not spanned by basis "
                        f"elements in grading {g}"
                    )
            for v in sp.basis:
                depth[(g, v.bit_length() - 1)] = k
    return depth


class Layer(NamedTuple):
    filts: list[int]  # canonical index -> filtration
    row_order: list[int]  # canonical indices, ascending filtration
    col_order: list[int]  # canonical indices, descending filtration
    col_bit: dict[int, int]  # canonical index -> n-1-(position in col_order)
    filt_counts: Counter  # filtration -> number of chains


class FilteredComplex:
    """A bigraded word complex together with a per-chain filtration."""

    def __init__(self, complex: BigradedComplex, filt_of: Callable[[int, int, int], int]):
        self.complex = complex
        self.filt_of = filt_of
        self._layer_cache: dict[tuple[int, int], Layer] = {}
        self._pivot_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._pivot_counts: dict[tuple[int, int], Counter] = {}
        self._spot_cache: dict = {}

    def layer(self, g: int, s: int) -> Layer:
        key = (g, s)
        if key not in self._layer_cache:
            n = self.complex._dim(g, s)
            filts = [self.filt_of(g, s, i) for i in range(n)]
            row_order = sorted(range(n), key=lambda i: (filts[i], i))
            col_order = sorted(range(n), key=lambda i: (-filts[i], i))
            self._layer_cache[key] = Layer(
                filts, row_order, col_order,
                {c: n - 1 - j for j, c in enumerate(col_order)}, Counter(filts),
            )
        return self._layer_cache[key]

    def _permuted_row(self, g: int, s: int, i: int) -> int:
        tgt = self.layer(g, s + 1)
        out = 0
        for b in bits_of(self.complex.boundary_bits(g, s, i)):
            out |= 1 << tgt.col_bit[b]
        return out

    def pivots(self, g: int, s: int) -> list[tuple[int, int]]:
        """(row_filt, col_filt) of each elimination pivot; rows processed
        in ascending filtration, each pivot the first column in descending
        filtration order (the top bit of the mirrored row)."""
        key = (g, s)
        if key not in self._pivot_cache:
            src = self.layer(g, s)
            tgt = self.layer(g, s + 1)
            n = len(tgt.col_order)
            tops = row_pivots(self._permuted_row(g, s, i) for i in src.row_order)
            self._pivot_cache[key] = [
                (src.filts[i], tgt.filts[tgt.col_order[n - top]])
                for i, top in zip(src.row_order, tops) if top
            ]
        return self._pivot_cache[key]

    # -- rank bookkeeping
    def fil_dim(self, g: int, s: int, p: int) -> int:
        return sum(c for f, c in self.layer(g, s).filt_counts.items() if f <= p)

    def restricted_rank(self, g: int, s: int, p: int, q: int) -> int:
        """rank of fil_p(g, s) -> (g, s+1)/fil_q."""
        key = (g, s)
        if key not in self._pivot_counts:
            self._pivot_counts[key] = Counter(self.pivots(g, s))
        return sum(c for (rf, cf), c in self._pivot_counts[key].items() if rf <= p and cf > q)

    def z(self, g: int, s: int, r: int, p: int) -> int:
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
        filts = self.layer(g, s).filts
        if not filts:
            return None
        return min(filts), max(filts)

    # -- explicit subquotients
    def _fil_mask(self, g: int, s: int, p: int) -> int:
        out = 0
        for i, f in enumerate(self.layer(g, s).filts):
            if f <= p:
                out |= 1 << i
        return out

    def ztilde(self, g: int, s: int, r: int, p: int) -> Subspace:
        """{x in fil_p : dx in fil_{p-r}} in canonical chain coordinates."""
        n = self.complex._dim(g, s)
        if s < 0 or n == 0:
            return Subspace(max(n, 0), [])
        members = [i for i, f in enumerate(self.layer(g, s).filts) if f <= p]
        kill = ~self._fil_mask(g, s + 1, p - r)
        rows = [self.complex.boundary_bits(g, s, i) & kill for i in members]
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


def build_filtered(h: HopfAlgebra, g_max: int = 20, s_max: int = 20) -> FilteredComplex:
    base = CobarComplex(h, g_max, s_max)
    depth = augmentation_depths(h)
    letter_depth = [depth[gi] for gi in base.letters]

    def filt_of(g: int, s: int, i: int) -> int:
        return -sum(letter_depth[l] for l in base.words(g, s)[i])

    return FilteredComplex(base, filt_of)


def filtered_cone(fc: FilteredComplex, z: CotorClass) -> FilteredComplex:
    """Cone by a (1, 0) cycle with the shifted filtration on the second
    summand: x-part keeps its filtration, y-part gets filt(y) - 1."""
    base = fc.complex
    if not isinstance(base, CobarComplex):
        raise TypeError("filtered cone needs a filtered cobar complex")
    cone = ConeComplex(base, z)

    def filt_of(g: int, s: int, i: int) -> int:
        nx = base._dim(g, s)
        if i < nx:
            return fc.filt_of(g, s, i)
        return fc.filt_of(g - 1, s, i - nx) - 1

    return FilteredComplex(cone, filt_of)


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
        for d in range(d_max + 1):
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
            out.append(row)
    return out
