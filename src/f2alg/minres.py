"""Ext charts and products from minimal free resolutions over a connected
graded algebra.

The algebra A is given by its product tables (``HopfAlgebra.product``;
``h.dualize()`` for the dual of a coalgebra h), and the module resolved is
the cyclic module M = A / A_{>c}: c = 0 gives F2, and c = 1 the two-cell
module F2{m0, m1} with x.m0 = m1 for x the grading-1 basis element (for
the dual of A(1), the h10 cone).

A free module has one block per generator e_j of degree t_j; in degree t
its F2 basis is the basis of A_{t - t_j}, blocks in generator order, and
vectors are int bitsets over it.  M is kept as level 0, one generator m0
of degree 0 whose block vanishes above degree c; F_s is level s + 1.  The
resolution is built degree by degree (Bruner, *Calculation of large Ext
modules*, 1993): at each (s, t) the new generators of F_s are a complement
of the image of d_s, spanned by the translates a.e_j of the earlier
generators, inside the kernel of d_{s-1}, which the one elimination that
built d_{s-1} in degree t gave (``complement``).  The generators of
F_{s-1} in degree t map independently of everything else, so that kernel,
and each new image, lies in A_{>0}.F_{s-1}: the resolution is minimal,
F_s vanishes below degree s, and Ext^{s,t}_A(M, F2) is the number of
generators of F_s in degree t.  It sits at chart spot (g, d) =
(t, t - s), where the cobar complexes put Cotor.

Minimality also gives the classes without any elimination.  A cochain
in Hom_A(F_s, F2) of degree t is a functional on the generators of F_s
in degree t, and its coboundary is zero: d_{s+1} lands in A_{>0}.F_s,
which every A-map to F2 kills.  So each functional is a cocycle, only 0
is a coboundary, and a class (``ExtClass``) is nonzero exactly when its
functional is.  The Yoneda action of Ext_A(F2, F2) on Ext_A(M, F2)
(``MinimalResolution.yoneda``) lifts a class z to a chain map from the
resolution of M to the resolution of F2, one generator at a time, each
step a reduction against the elimination that built d of the resolution
of F2 in that degree (kept by ``_extend``), and composes it with y.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, NamedTuple

from .f2linalg import Echelon, bits_of
from .hopf import HopfAlgebra, WindowError


class ExtClass(NamedTuple):
    """A class of Ext^{s,t}: a functional on the generators of F_s in
    degree t, as a bitset over their indices in F_s."""

    s: int
    t: int
    bits: int


def complement(rows: list[int], vectors: list[int],
               translates: Callable[[int], list[int]]) -> tuple[list[int], list[int], Echelon]:
    """The step that extends a free resolution: the rows (images of the
    earlier generators) start a span, and each vector outside it becomes
    a generator whose translates join the span, until it has the
    dimension of the vectors, a basis.  Every row joins tagged with its
    own unit vector, rows first, so the zero residues' tags are a basis
    of the left kernel of the boundary built, rows then translates.
    Returns the translates added, generator by generator (a generator's
    own image first when the identity is its first translate), those
    tags and the span."""
    span, added, kernel = Echelon(), [], []

    def join(ws: list[int]) -> None:
        for w in ws:
            r, tag = span.add(w, 1 << (span.rank + len(kernel)))
            if not r:
                kernel.append(tag)

    join(rows)
    for v in vectors:
        if span.rank == len(vectors):
            break
        if span.residue(v):
            join(ws := translates(v))
            added += ws
    return added, kernel, span


class MinimalResolution:
    """A minimal free resolution of A / A_{>c} through degree t_max."""

    def __init__(self, algebra: HopfAlgebra, c: int, t_max: int):
        if algebra.truncation is not None and t_max > algebra.truncation:
            raise WindowError(f"resolution degree {t_max} exceeds "
                              f"truncation {algebra.truncation}")
        self.algebra = algebra
        self.c = c
        self.t_max = t_max
        # per level, the generator degrees and each generator's image split
        # by the generators of the level below: (k, bitset over A_{t_j - t_k})
        self.degrees: list[list[int]] = [[0]]
        self.images: list[list[list[tuple[int, int]]]] = [[[]]]
        # per (level, t) where d is nonzero, the elimination of d there
        # (``complement``'s span); yoneda reads a missing one as empty
        self.spans: dict[tuple[int, int], Echelon] = {}
        for t in range(t_max + 1):
            self._extend(t)

    def _sizes(self, level: int, t: int) -> list[int]:
        """The block sizes of the level's generators in degree t."""
        if level == 0 and t > self.c:
            return [0]
        return [self.algebra.dim(t - tj) for tj in self.degrees[level]]

    def _offsets(self, level: int, t: int) -> list[int]:
        """Where the blocks of the level's generators start in degree t."""
        return list(accumulate(self._sizes(level, t), initial=0))

    def _times(self, level: int, g: int, a: int, u: int,
               blocks: list[tuple[int, int]], offsets: list[int]) -> int:
        """a (a bitset over A_g) times the element of the level's module in
        degree u with the given (k, bitset over A_{u - t_k}) blocks, over
        the basis in degree u + g whose blocks start at ``offsets``."""
        degrees, prod = self.degrees[level], self.algebra.product
        out = 0
        for k, b in blocks:
            if offsets[k + 1] > offsets[k]:  # not M above degree c
                out ^= prod(g, a, u - degrees[k], b) << offsets[k]
        return out

    def _rows(self, level: int, t: int, offsets: list[int]) -> list[int]:
        """d on the basis of the level's module in degree t, over the basis
        of the level below, whose blocks start at ``offsets``."""
        return [self._times(level - 1, t - tj, 1 << a, tj, image, offsets)
                for tj, image in zip(self.degrees[level], self.images[level])
                for a in range(self.algebra.dim(t - tj))]

    def _blocks(self, level: int, t: int, v: int) -> list[tuple[int, int]]:
        """The nonzero (k, block) pieces of v in the level's degree-t basis."""
        offsets = self._offsets(level, t)
        return [(k, b) for k in range(len(offsets) - 1)
                if (b := (v >> offsets[k]) & ((1 << (offsets[k + 1] - offsets[k])) - 1))]

    def _extend(self, t: int) -> None:
        """Add the generators of degree t, level by level; F_s is zero in
        degree t for s > t."""
        sizes = self._sizes(0, t)
        # ker d_{s-1} in degree t; below F_0 it is M -> 0, so all of M(t)
        kernel = [1 << i for i in range(sum(sizes))]
        for s in range(t + 1):
            level = s + 1
            if level == len(self.degrees):
                self.degrees.append([])
                self.images.append([])
            rows = self._rows(level, t, list(accumulate(sizes, initial=0)))
            new, tags, span = complement(rows, kernel, lambda v: [v])
            # exact at F_{s-1}: the image of d_s is the kernel of d_{s-1}
            if span.rank != len(kernel) or any(map(span.residue, kernel)):
                raise AssertionError(f"im d_{s} != ker d_{s - 1} in degree {t}")
            for v in new:
                self.degrees[level].append(t)
                self.images[level].append(self._blocks(level - 1, t, v))
            if span.rank:
                self.spans[(level, t)] = span
            # tags over the rows of d_s in degree t, rows + new
            kernel = tags
            sizes = self._sizes(level, t)

    def homology_dim(self, g: int, d: int) -> int:
        """dim Ext^{s,t} at chart spot (g, d) = (t, t - s)."""
        if not 0 <= g <= self.t_max:
            raise WindowError(f"degree {g} outside resolution window {self.t_max}")
        s = g - d
        return self.degrees[s + 1].count(g) if 0 <= s <= g else 0

    def ext_basis(self, g: int, d: int) -> list[ExtClass]:
        """The classes dual to the generators of F_s in degree t, at chart
        spot (g, d) = (t, t - s)."""
        if not self.homology_dim(g, d):
            return []
        s = g - d
        return [ExtClass(s, g, 1 << j) for j, t in enumerate(self.degrees[s + 1]) if t == g]

    def unique_class(self, g: int, d: int) -> ExtClass:
        basis = self.ext_basis(g, d)
        if len(basis) != 1:
            raise ValueError(f"({g},{d}) is {len(basis)}-dimensional, not 1")
        return basis[0]

    def yoneda(self, ring: MinimalResolution, y: ExtClass, z: ExtClass) -> ExtClass:
        """y.z for y in Ext(F2, F2), read on ``ring``, a resolution of F2
        over the same algebra, and z in Ext(M, F2), read on this one.

        z lifts to a chain map f_k : F_{z.s + k} -> (ring's F_k) of degree
        -z.t, and y.z = y o f_{y.s}.  f_0 sends the generators z is 1 on to
        the generator of ring's F_0 and every other generator to 0; f_k on
        a generator e is a solution x of d_k(x) = f_{k-1}(d e), read as the
        tag of f_{k-1}(d e) reduced against the elimination that built d_k
        in that degree (``spans``).  Only generators of degree at most
        z.t + y.t - (y.s - k) are lifted, as d raises degree.  A lift with no solution means the resolutions
        are not exact, and raises AssertionError."""
        t_top = z.t + y.t
        if t_top > self.t_max or y.t > ring.t_max:
            raise WindowError(f"product in degree {t_top} outside resolution "
                              f"windows {self.t_max} and {ring.t_max}")
        # generator index -> its image under f_k, as blocks of ring's F_k
        f = {j: [(0, 1)] for j in bits_of(z.bits)}
        for k in range(1, y.s + 1):
            level, below = z.s + k + 1, self.degrees[z.s + k]
            lifted = {}
            for j, tj in enumerate(self.degrees[level]):
                w = tj - z.t
                if w > y.t - (y.s - k):
                    continue
                offsets = ring._offsets(k, w)
                rhs = 0
                for i, a in self.images[level][j]:
                    if i in f:
                        rhs ^= ring._times(k, tj - below[i], a, below[i] - z.t, f[i], offsets)
                if not rhs:
                    continue
                r, x = ring.spans.get((k + 1, w), Echelon()).reduce(rhs)
                if r:
                    raise AssertionError(f"no lift of {z} to F_{k} in degree {w}")
                lifted[j] = ring._blocks(k + 1, w, x)
            f = lifted
        # y is A-linear into F2, so it reads only the unit coordinates of
        # f_{y.s}, on the generators of degree y.t it is 1 on
        bits = 0
        for j, blocks in f.items():
            if self.degrees[z.s + y.s + 1][j] == t_top:
                bits |= (sum(b for k, b in blocks if y.bits >> k & 1) & 1) << j
        return ExtClass(z.s + y.s, t_top, bits)


# ---------------------------------------------------------------- chart rows

def chart_rows(c, g_max: int, d_max: int,
               names: dict | None = None) -> list[tuple[int, int, int, str]]:
    """(g, d, dim, class names) per spot of a chart model c, a
    ``MinimalResolution`` or a ``cobar.BigradedComplex``."""
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
