"""Ext charts from minimal free resolutions over a connected graded algebra.

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
generators, inside the kernel of d_{s-1}.  The generators of F_{s-1} in
degree t map independently of everything else, so that kernel, and each
new image, lies in A_{>0}.F_{s-1}: the resolution is minimal, F_s vanishes
below degree s, and Ext^{s,t}_A(M, F2) is the number of generators of F_s
in degree t.  It sits at chart spot (g, d) = (t, t - s), where the cobar
complexes put Cotor.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable

from .cobar import WindowError
from .f2linalg import Echelon, F2Matrix
from .hopf import HopfAlgebra


def complement(span: Echelon, vectors: Iterable[int], dim: int,
               translates: Callable[[int], list[int]]) -> list[int]:
    """The step that extends a free resolution: each vector outside the
    span becomes a generator, and its translates join the span, until the
    span has dimension dim.  Returns the translates added, generator by
    generator, in order (a generator's own image comes first when the
    identity is its first translate)."""
    rows: list[int] = []
    for v in vectors:
        if span.rank == dim:
            break
        if span.reduce(v)[0]:
            for w in translates(v):
                span.add(w)
                rows.append(w)
    return rows


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
        self.ext: dict[tuple[int, int], int] = {}
        for t in range(t_max + 1):
            self._extend(t)

    def _sizes(self, level: int, t: int) -> list[int]:
        """The block sizes of the level's generators in degree t."""
        if level == 0 and t > self.c:
            return [0]
        return [self.algebra.dim(t - tj) for tj in self.degrees[level]]

    def _rows(self, level: int, t: int, offsets: list[int]) -> list[int]:
        """d on the basis of the level's module in degree t, over the basis
        of the level below, whose blocks start at ``offsets``."""
        below, prod = self.degrees[level - 1], self.algebra.product
        rows = []
        for tj, image in zip(self.degrees[level], self.images[level]):
            for a in range(self.algebra.dim(t - tj)):
                row = 0
                for k, v in image:
                    if offsets[k + 1] > offsets[k]:  # not M above degree c
                        row ^= prod(t - tj, 1 << a, tj - below[k], v) << offsets[k]
                rows.append(row)
        return rows

    def _extend(self, t: int) -> None:
        """Add the generators of degree t, level by level; F_s is zero in
        degree t for s > t."""
        sizes = self._sizes(0, t)
        # d_{s-1} in degree t as rows over a basis of dimension cols; below
        # F_0 it is M -> 0, so all of M(t) is kernel
        rows_below, cols = [0] * sum(sizes), 0
        for s in range(t + 1):
            level = s + 1
            if level == len(self.degrees):
                self.degrees.append([])
                self.images.append([])
            offsets = list(accumulate(sizes, initial=0))
            kernel = F2Matrix(len(rows_below), cols, rows_below).left_kernel()
            rows = self._rows(level, t, offsets)
            span = Echelon()
            for r in rows:
                span.add(r)
            new = complement(span, kernel.basis, kernel.dim, lambda v: [v])
            # exact at F_{s-1}: the image of d_s is the kernel of d_{s-1}
            if span.rank != kernel.dim or any(span.reduce(v)[0] for v in kernel.basis):
                raise AssertionError(f"im d_{s} != ker d_{s - 1} in degree {t}")
            for v in new:
                blocks = [(k, (v >> offsets[k]) & ((1 << n) - 1)) for k, n in enumerate(sizes)]
                self.degrees[level].append(t)
                self.images[level].append([(k, b) for k, b in blocks if b])
            self.ext[(s, t)] = len(new)
            rows_below, cols = rows + new, offsets[-1]
            sizes = self._sizes(level, t)

    def homology_dim(self, g: int, d: int) -> int:
        """dim Ext^{s,t} at chart spot (g, d) = (t, t - s)."""
        if not 0 <= g <= self.t_max:
            raise WindowError(f"degree {g} outside resolution window {self.t_max}")
        return self.ext.get((g - d, g), 0)
