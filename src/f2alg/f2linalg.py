"""Exact linear algebra over F2.

Vectors are Python ints used as packed bitsets: bit j of the int is
coordinate j.  CPython stores ints as arrays of machine words, so XOR of
two n-bit rows is a single C-level pass; this comfortably handles the
~40k-dimensional chain groups that show up downstream.

Only ``_echelonize`` (reduced row echelon form, lowest-set-bit pivots)
has an output that depends on pivot order.  Every other elimination runs
through one of two top-bit reductions, keyed by ``v.bit_length()``:
``_reduce``, which XORs tags along (``Echelon.residue`` is its loop
without tags, for membership), and ``pair_rows``, which carries no tag
and returns the (row, column) pivot pairs.  Their results are
order-free: zero-ness of a residue and ranks; tags, the unique
coordinates over rows independent modulo the rows tagged 0; ``solve``'s
x, whose basic rows are chosen greedily in insertion order; kernels and
intersections, passed through ``_echelonize`` (a resolution's kernels
are tags of the elimination that builds it); and the pairs, which
depend only on the order of rows and columns (``pair_rows`` orders
columns by filtration masks and skips rows known to reduce to zero).
Top-bit pivots keep fill-in small on boundary matrices
(LaMacchia-Odlyzko 1990) and avoid hashing row-wide keys.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional


def bits_of(v: int):
    """Indices of set bits of v, ascending."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


# highest set bit (as v.bit_length()) -> (row, tag)
Pivots = dict[int, tuple[int, int]]


def _reduce(pivots: Pivots, v: int, tag: int, keep: bool) -> tuple[int, int]:
    """Reduce (v, tag) against rows keyed by their highest set bit; with
    keep, a nonzero residue becomes a new pivot row.

    The one top-bit reduction of the package; every tag is XORed along
    with its row, so a zero residue's tag certifies the combination.
    """
    while v:
        top = v.bit_length()
        hit = pivots.get(top)
        if hit is None:
            if keep:
                pivots[top] = (v, tag)
            return v, tag
        v ^= hit[0]
        tag ^= hit[1]
    return 0, tag


def pair_rows(row: Callable[[int], int], runs: Iterable[tuple[Iterable[int], list[int]]],
              cleared: Iterable[int]) -> list[tuple[int, int]]:
    """The (row, column) pairs of an elimination: each row i, fetched as
    row(i), is reduced against the residues kept before it, and a nonzero
    residue is kept and paired with its pivot column.

    The rows come in runs (order, masks), taken in turn.  A residue of a
    row of the run pivots on the top bit of v & m for the first m of masks
    it meets, and on its own top bit when it meets none.  In a filtered
    complex the masks are the columns of each filtration, in descending
    filtration, so that a residue pivots on its first column in
    descending (filtration, index) order.  A run's masks then start at
    the filtration of its rows, since the boundary never raises
    filtration, and leave out the lowest, inside which a residue that
    meets no mask before it lies.  With no filtration there is one run
    with no masks, and this is the top-bit pivot of ``_reduce``.

    The rows in cleared are skipped.  Each must be a sum of rows before
    it, so that it would reduce to zero and pair nothing: in a complex, a
    chain paired by the elimination of the differential below (the same
    ordering, one degree down) is such a row ("clearing").
    """
    skip = set(cleared)
    # pivot column + 1 -> the residue, or ~i for a row i kept as it came,
    # fetched again on a hit.  Only with clearing: then nearly every row
    # is kept as it came and few are hit again (916 XOR steps over 154k
    # rows for May page 5 at g <= 17), while without it about half the
    # rows reduce to zero, each through several hits.
    kept: dict[int, int] = {}
    out: list[tuple[int, int]] = []
    for order, masks in runs:
        for i in order:
            if i in skip:
                continue
            v, reduced = row(i), False
            while v:
                top = v.bit_length()
                for m in masks:
                    t = (v & m).bit_length()
                    if t:
                        top = t
                        break
                hit = kept.get(top)
                if hit is None:
                    kept[top] = ~i if skip and not reduced else v
                    out.append((i, top - 1))
                    break
                v ^= hit if hit > 0 else row(~hit)
                reduced = True
    return out


class F2Matrix:
    """Dense bit-packed matrix over F2, row-major.

    ``data[i]`` is row i as an int bitset over the columns, and row i is
    the image of basis vector i (see ``apply_rowspace``).  Immutable by
    convention: no method changes the matrix after construction; ``solve``
    keeps its elimination, which is not part of the value (``__eq__``).
    """

    __slots__ = ("rows", "cols", "data", "_solver")

    def __init__(self, rows: int, cols: int, data: Optional[list[int]] = None):
        if data is None:
            data = [0] * rows
        if len(data) != rows:
            raise ValueError("row count mismatch")
        mask = (1 << cols) - 1
        for r in data:
            if r & ~mask:
                raise ValueError("set bits beyond cols")
        self.rows = rows
        self.cols = cols
        self.data = data
        self._solver: Optional[Pivots] = None

    def transpose(self) -> "F2Matrix":
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            v = r
            while v:
                low = v & -v
                out[low.bit_length() - 1] |= 1 << i
                v ^= low
        return F2Matrix(self.cols, self.rows, out)

    def apply_rowspace(self, v: int) -> int:
        """XOR of rows selected by bitset v; the map e_i -> row i.

        This "linear map as table of images" reading is the package's one
        matrix convention: every boundary, kernel and solve uses it.
        """
        out = 0
        while v:
            low = v & -v
            out ^= self.data[low.bit_length() - 1]
            v ^= low
        return out

    def rank(self) -> int:
        return len(pair_rows(self.data.__getitem__, [(range(self.rows), [])], ()))

    def left_kernel(self) -> "Subspace":
        """Combinations of rows summing to zero: {v : v^T.M = 0}."""
        pivots: Pivots = {}
        kernel: list[int] = []
        for i, r in enumerate(self.data):
            r, tag = _reduce(pivots, r, 1 << i, True)
            if not r:
                kernel.append(tag)
        return Subspace(self.rows, _echelonize(kernel))

    def solve(self, b: int) -> Optional[int]:
        """Some x with apply_rowspace(x) == b, or None.

        Deterministic: the basic rows are chosen greedily, each row of M
        that is independent of the earlier ones in order; free rows get
        zero, so x is unique.  The rows are eliminated once, on the first
        call, and later calls reduce against the same pivots.
        """
        if self._solver is None:
            self._solver = {}
            for i, r in enumerate(self.data):
                _reduce(self._solver, r, 1 << i, True)
        r, x = _reduce(self._solver, b, 0, False)
        return None if r else x

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"F2Matrix({self.rows}x{self.cols})"


def _echelonize(rows: list[int]) -> list[int]:
    """Reduced row echelon over F2, rows sorted by pivot.

    Pivots are lowest set bits, keyed by bit index.  This is the only
    elimination whose pivot order is part of its output.
    """
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            low = (r & -r).bit_length()
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = r
                break
            r ^= hit
    # back-substitute so each pivot bit appears in exactly one row
    keys = sorted(pivots)
    for idx in range(len(keys) - 1, 0, -1):
        r = pivots[keys[idx]]
        bit = 1 << (keys[idx] - 1)
        for q in keys[:idx]:
            if pivots[q] & bit:
                pivots[q] ^= r
    return [pivots[p] for p in keys]


class Subspace:
    """Subspace of F2^ambient_dim with reduced-echelon basis.

    Basis rows are nonzero with strictly increasing pivot positions;
    membership testing is deterministic reduction.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: list[int]):
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[int]) -> "Subspace":
        return cls(ambient_dim, _echelonize(list(vectors)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        for r in self.basis:
            low = r & -r
            if v & low:
                v ^= r
        return v

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        return Subspace(self.ambient_dim, _echelonize(self.basis + other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: eliminate u tagged u from self against v tagged 0
        from other; rows that reduce to zero have their tag in the
        intersection."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        pivots: Pivots = {}
        for v in other.basis:
            _reduce(pivots, v, 0, True)
        out: list[int] = []
        for u in self.basis:
            r, tag = _reduce(pivots, u, u, True)
            if not r:
                out.append(tag)
        return Subspace.span(self.ambient_dim, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F2^{self.ambient_dim})"


class Echelon:
    """Incremental echelon form with optional combination tags.

    Used for kernel/homology bookkeeping: add rows one at a time; a row that
    reduces to zero reports the combination of previously added rows that
    produced it.  Pivots are highest set bits (see ``_reduce``): zero-ness,
    the rank and tags do not depend on pivot order, a nonzero residue does
    (it is still a valid new spanning vector).
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: Pivots = {}

    def add(self, v: int, tag: int = 0) -> tuple[int, int]:
        """Reduce v (with tag) against the current rows; insert if nonzero.

        Returns the reduced (v, tag).  If v reduced to zero the tag is the
        certificate combination.
        """
        return _reduce(self.pivots, v, tag, True)

    def reduce(self, v: int) -> tuple[int, int]:
        """Reduce v, tagged 0, without inserting; returns (residue, tag)."""
        return _reduce(self.pivots, v, 0, False)

    def residue(self, v: int) -> int:
        """The residue of ``reduce`` alone, without XORing tags along: a
        membership test (v lies in the span iff it is 0)."""
        pivots = self.pivots
        while v:
            hit = pivots.get(v.bit_length())
            if hit is None:
                return v
            v ^= hit[0]
        return 0

    def add_reps(self, vectors: Iterable[int]) -> list[int]:
        """Add each vector tagged with the next unused unit vector; return
        the vectors kept, those independent of the rows before them.

        Over rows already present tagged 0 (boundaries), the kept vectors
        are homology representatives and a later zero residue's tag is
        its coordinates over them.
        """
        reps: list[int] = []
        for v in vectors:
            if self.add(v, 1 << len(reps))[0]:
                reps.append(v)
        return reps

    def copy(self) -> "Echelon":
        out = Echelon()
        out.pivots = dict(self.pivots)
        return out

    @property
    def rank(self) -> int:
        return len(self.pivots)
