"""F2 homology of small finite groups via free resolutions.

Groups are given as permutation groups (order at most 1000).  A free
resolution of the trivial module over the group algebra is built degree
by degree: each boundary's kernel is generated greedily, picking the
first reduced-echelon kernel vector outside the current equivariant
span.  Homology is the honest homology of the tensored-down complex, so
the resolution need not be minimal.  Induced maps along group
homomorphisms come from explicit chain lifts.

Free-module coordinates: rank-r free module over F2[G] has F2 basis
indexed by (generator k, element e) at bit position k*|G| + e, with G
acting by left translation on the element coordinate.  Boundaries are
``F2Matrix`` tables of images: row k*|G| + e is the image of that basis
vector.  The tensored-down complex is a ``BigradedComplex``, so its
kernels, homology representatives and coordinates are computed as for
the cobar complexes.

Every degree through the top built one is read off the resolution as
built.  The collapse pi: F_d -> F2 (x)_{F2[G]} F_d is onto and commutes
with d, and the resolution is exact, so the image of 1 (x) d_{top+1} is
pi(im d_{top+1}) = pi(ker d_top): ``TensoredComplex`` takes pi(ker d_top)
as the incoming boundaries of the top degree, and a caller resolves only
to the degree it reads.  That saves F_{top+1}, by far the largest free
module of the resolution.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

from .cobar import BigradedComplex, WindowError
from .f2linalg import Echelon, F2Matrix, bits_of
from .minres import complement

MAX_ORDER = 1000
MAX_DEGREE = 6

Perm = tuple


def compose(p: Perm, q: Perm) -> Perm:
    """(p*q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class PermGroup:
    """Finite permutation group: elements enumerated and canonically
    ordered lexicographically; multiplication by composition, tabulated
    once (``table[i][j]`` is the index of i*j; at most MAX_ORDER^2
    entries)."""

    def __init__(self, degree: int, generators: list[Perm], name: str = ""):
        self.degree = degree
        self.name = name
        ident = tuple(range(degree))
        gens = [tuple(g) for g in generators]
        # breadth first from the identity; a new element q = gens[k] * p
        # records (k, p)
        found = {ident: None}
        order = [ident]
        for p in order:
            for k, g in enumerate(gens):
                q = compose(g, p)
                if q not in found:
                    if len(found) >= MAX_ORDER:
                        raise WindowError("group order exceeds budget")
                    found[q] = (k, p)
                    order.append(q)
        self.generators = gens
        self.elements = tuple(sorted(found))
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.identity = self.index[ident]
        self.order = len(self.elements)
        # the row of q = gens[k] * p is the row of p relabelled by left
        # multiplication with gens[k], so only the generators compose
        left = [[self.index[compose(g, q)] for q in self.elements] for g in gens]
        self.table: list = [None] * self.order
        self.table[self.identity] = list(range(self.order))
        for q in order[1:]:
            k, p = found[q]
            self.table[self.index[q]] = list(map(left[k].__getitem__, self.table[self.index[p]]))

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.index[inverse(self.elements[i])]

    def __len__(self) -> int:
        return self.order


# ---------------------------------------------------------------- built-ins

def _matrix_perm(rows: tuple, g: int) -> Perm:
    """Permutation of the 2^g - 1 nonzero vectors induced by an
    invertible F2 matrix given as row bitsets."""
    out = []
    for v in range(1, 1 << g):
        w = 0
        for i in range(g):
            if (rows[i] & v).bit_count() & 1:
                w |= 1 << i
        out.append(w - 1)
    return tuple(out)


def _gl_gens(g: int) -> tuple[int, list[Perm]]:
    gens = []
    for i in range(g):
        for j in range(g):
            if i == j:
                continue
            rows = tuple((1 << k) | (1 << j if k == i else 0) for k in range(g))
            gens.append(_matrix_perm(rows, g))
    return (1 << g) - 1, gens


def _ut_gens(g: int) -> tuple[int, list[Perm]]:
    gens = []
    for i in range(g):
        for j in range(i + 1, g):
            rows = tuple((1 << k) | (1 << j if k == i else 0) for k in range(g))
            gens.append(_matrix_perm(rows, g))
    return (1 << g) - 1, gens


def _check_order(factors: Iterable[int]) -> None:
    """Refuse a group whose order, the product of ``factors``, exceeds
    MAX_ORDER.  The product stops at the first partial product past the
    budget, so a built-in name costs nothing to refuse however large its
    n, and no generator is built for it."""
    order = 1
    for f in factors:
        order *= f
        if order > MAX_ORDER:
            raise WindowError("group order exceeds budget")


def builtin_group(name: str) -> PermGroup:
    # closed-form orders: |GL(n,2)| = prod_{i<n} (2^n - 2^i)
    # = prod_{k=1..n} 2^(k-1) (2^k - 1), |UT(n,2)| = 2^(n(n-1)/2), |S_n| = n!
    if (m := re.fullmatch(r"GL\((\d+),2\)", name)) is not None:
        n = int(m.group(1))
        _check_order((1 << (k - 1)) * ((1 << k) - 1) for k in range(1, n + 1))
        deg, gens = _gl_gens(n)
        return PermGroup(deg, gens, name)
    if (m := re.fullmatch(r"UT\((\d+),2\)", name)) is not None:
        n = int(m.group(1))
        _check_order(1 << (k - 1) for k in range(1, n + 1))
        deg, gens = _ut_gens(n)
        return PermGroup(deg, gens, name)
    if (m := re.fullmatch(r"S(\d+)", name)) is not None:
        n = int(m.group(1))
        _check_order(range(1, n + 1))
        gens = [] if n < 2 else [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
        return PermGroup(max(n, 1), gens, name)
    if (m := re.fullmatch(r"C(\d+)", name)) is not None:
        n = int(m.group(1))
        if n < 1:
            raise ValueError(f"cyclic group {name!r} needs order >= 1")
        _check_order([n])
        return PermGroup(n, [tuple(range(1, n)) + (0,)], name)
    if name == "D8":
        return PermGroup(4, [(1, 2, 3, 0), (0, 3, 2, 1)], name)
    if name == "1":
        return PermGroup(1, [], name)
    raise ValueError(f"unknown built-in group {name!r}")


_CYCLE = re.compile(r"\(([\d\s,]*)\)")
_CYCLES = re.compile(r"(?:\s*\([\d\s,]*\))+\s*")


def parse_group(text: str) -> PermGroup:
    """Permutation generators in cycle notation, one per line, or a
    built-in name.  A line is a run of cycles in which each point
    occurs at most once."""
    text = text.strip()
    if "(" not in text or re.fullmatch(r"\w+\(\d+,\d+\)", text):
        return builtin_group(text)
    perms = []
    degree = 0
    for line in text.splitlines():
        line = line.partition("#")[0].strip()
        if not line:
            continue
        if not _CYCLES.fullmatch(line):
            raise ValueError(f"bad cycle notation: {line!r}")
        cycles = [[int(t) for t in re.split(r"[\s,]+", body.strip()) if t]
                  for body in _CYCLE.findall(line)]
        pts = [a for c in cycles for a in c]
        if len(pts) != len(set(pts)):
            raise ValueError(f"a point occurs twice in cycles {line!r}")
        degree = max(degree, max(pts, default=-1) + 1)
        perms.append(cycles)
    out = []
    for cycles in perms:
        p = list(range(degree))
        for pts in cycles:
            for a, b in zip(pts, pts[1:] + pts[:1]):
                p[a] = b
        out.append(tuple(p))
    return PermGroup(degree, out)


# ---------------------------------------------------------------- resolutions

class Resolution(NamedTuple):
    group: PermGroup
    ranks: tuple
    # boundaries[d]: F_d -> F_{d-1} as rows, one per F2 basis vector of F_d;
    # [0] is the augmentation F_0 -> F2
    boundaries: tuple


def _translates(group: PermGroup, v: int, elements: Iterable[int]) -> list[int]:
    """Left translates of a free-module vector, one per given element.

    Translation permutes element coordinates within each generator block,
    so v is split once into, per element coordinate x, the mask of the
    blocks that hold x; its translate by e is the sum of the masks, each
    shifted by the index of e*x (distinct x land on distinct bits)."""
    n = group.order
    masks: dict[int, int] = {}
    for bit in bits_of(v):
        k, x = divmod(bit, n)
        masks[x] = masks.get(x, 0) | 1 << (k * n)
    parts = list(masks.items())
    rows = map(group.table.__getitem__, elements)
    return [sum(m << row[x] for x, m in parts) for row in rows]


def resolve(group: PermGroup, d_max: int, *, reverse_ties: bool = False) -> Resolution:
    """Free resolution of the trivial module through degree d_max.

    Kernel generators are picked greedily from the reduced-echelon kernel
    basis (reversed order under reverse_ties; homology dims must not
    depend on this)."""
    if group.order > MAX_ORDER:
        raise WindowError("group order exceeds budget")
    if d_max > MAX_DEGREE:
        raise WindowError("degree exceeds budget")
    n = group.order
    ranks = [1]
    boundaries = [F2Matrix(n, 1, [1] * n)]
    for d in range(1, d_max + 1):
        prev = boundaries[-1]
        kernel = prev.left_kernel()
        basis = kernel.basis[::-1] if reverse_ties else kernel.basis
        # the n translates of each new generator
        rows = complement(Echelon(), basis, kernel.dim,
                          lambda v: _translates(group, v, range(n)))
        ranks.append(len(rows) // n)
        boundaries.append(F2Matrix(len(rows), prev.rows, rows))
    return Resolution(group, tuple(ranks), tuple(boundaries))


def assert_resolution(res: Resolution) -> None:
    """Exact checks: boundaries compose to zero, exactness, equivariance."""
    n = res.group.order
    for d in range(1, len(res.boundaries)):
        prev, cur = res.boundaries[d - 1], res.boundaries[d]
        for row in cur.data:
            if prev.apply_rowspace(row):
                raise AssertionError(f"boundary square nonzero at degree {d}")
        if prev.left_kernel().dim != cur.rank():
            raise AssertionError(f"resolution not exact at degree {d - 1}")
        for k in range(res.ranks[d]):
            moved = map(cur.apply_rowspace, _translates(res.group, 1 << (k * n), range(n)))
            if list(moved) != _translates(res.group, cur.data[k * n], range(n)):
                raise AssertionError(f"boundary not equivariant at degree {d}")


def _collapse(group: PermGroup, v: int, rank: int) -> int:
    """Tensor down over the group algebra: sum each element block."""
    n = group.order
    out = 0
    for k in range(rank):
        block = (v >> (k * n)) & ((1 << n) - 1)
        if block.bit_count() & 1:
            out |= 1 << k
    return out


def tensored_boundary(res: Resolution, d: int) -> F2Matrix:
    """The boundary F_d -> F_{d-1} after applying F2 (x)_{F2[G]} -; out
    of degree 0 it is zero (the augmentation is not in the complex)."""
    if d == 0:
        return F2Matrix(res.ranks[0], 0, [0] * res.ranks[0])
    n = res.group.order
    rows = [_collapse(res.group, res.boundaries[d].data[k * n], res.ranks[d - 1])
            for k in range(res.ranks[d])]
    return F2Matrix(res.ranks[d], res.ranks[d - 1], rows)


class TensoredComplex(BigradedComplex):
    """F2 (x)_{F2[G]} of a resolution, in the one grading g = top + 1 (top
    the top built degree) with degree d at s = top + 1 - d.  So
    d: (g, s) -> (g, s+1) is the tensored boundary of degree d, the rows of
    C_0 are zero, and s = 0 holds the incoming boundaries of the top
    degree, pi(ker d_top) (see the module docstring); homology_dim(g, d)
    is H_d for every d <= top."""

    def __init__(self, res: Resolution):
        self.res = res
        self.top = len(res.ranks) - 1
        super().__init__(self.top + 1, self.top + 1)
        # bars[d] is the tensored boundary of degree d
        self.bars = [tensored_boundary(res, d) for d in range(self.top + 1)]

    @cached_property
    def incoming(self) -> list[int]:
        """A spanning list of pi(ker d_top), built on first use (by H_top):
        row i of d_top is tagged pi(e_i), its generator block, so each
        zero residue's tag is pi of a kernel vector."""
        n = self.res.group.order
        span = Echelon()
        out = []
        for i, row in enumerate(self.res.boundaries[self.top].data):
            r, tag = span.add(row, 1 << (i // n))
            if not r:
                out.append(tag)
        return out

    def chain_dim(self, g: int, s: int) -> int:
        if g != self.g_max:
            return 0
        return self.bars[g - s].rows if s else len(self.incoming)

    def boundary_bits(self, g: int, s: int, i: int) -> int:
        return self.bars[g - s].data[i] if s else self.incoming[i]


def homology_dims(res: Resolution) -> tuple:
    """dim H_d for d = 0 .. d_max."""
    c = TensoredComplex(res)
    return tuple(c.homology_dim(c.g_max, d) for d in range(c.top + 1))


# ---------------------------------------------------------------- induced maps

class GroupHom:
    """Homomorphism between permutation groups, given on underlying
    permutations; verified on the full multiplication table."""

    def __init__(self, source: PermGroup, target: PermGroup, fn: Callable):
        self.source = source
        self.target = target
        self.images = tuple(target.index[tuple(fn(p))] for p in source.elements)
        for i in range(source.order):
            for j in range(source.order):
                if self.images[source.mult(i, j)] != target.mult(
                    self.images[i], self.images[j]
                ):
                    raise ValueError("not a homomorphism")

    @classmethod
    def identity(cls, group: PermGroup) -> "GroupHom":
        return cls(group, group, lambda p: p)


def chain_lift(hom: GroupHom, r_src: Resolution, r_tgt: Resolution, d_max: int):
    """Lift the homomorphism to a chain map: per-degree generator images
    in the target free module (solved deterministically; always solvable
    over a free resolution)."""
    n_s = hom.source.order

    lifts = [[1 << hom.target.identity]]
    for d in range(1, d_max + 1):
        # moved[k][e]: the previous lift of generator k translated by the
        # image of source element e, so the equivariant extension of that
        # lift sends bit k*n_s + e to moved[k][e]
        moved = [_translates(hom.target, w, hom.images) for w in lifts[d - 1]]
        cur = []
        for k in range(r_src.ranks[d]):
            b = 0
            for bit in bits_of(r_src.boundaries[d].data[k * n_s]):
                b ^= moved[bit // n_s][bit % n_s]
            x = r_tgt.boundaries[d].solve(b)
            if x is None:
                raise AssertionError("chain lift failed; resolution inexact")
            cur.append(x)
        lifts.append(cur)
    return lifts


def induced_map(hom: GroupHom, r_src: Resolution, r_tgt: Resolution, d: int) -> F2Matrix:
    """Matrix of H_d(source) -> H_d(target): row i is the image of the
    i-th source homology basis vector in target coordinates."""
    src, tgt = TensoredComplex(r_src), TensoredComplex(r_tgt)
    if not 0 <= d <= min(src.top, tgt.top):
        raise ValueError(f"H_{d} needs resolutions built through degree {d}")
    lifts = chain_lift(hom, r_src, r_tgt, d)
    reps = src.homology(src.g_max, d).reps
    images = []
    for v in reps:
        w = 0
        for k in bits_of(v):
            w ^= _collapse(hom.target, lifts[d][k], r_tgt.ranks[d])
        images.append(tgt.coords(tgt.g_max, d, w))
    return F2Matrix(len(reps), tgt.homology_dim(tgt.g_max, d), images)


# ---------------------------------------------------------------- oracles

def abelianization_f2_dim(group: PermGroup) -> int:
    """dim over F2 of the abelianization tensored with F2, from the
    multiplication table: index of the subgroup generated by squares.

    That subgroup is normal (conjugates of squares are squares), and the
    quotient by it has exponent 2, hence is abelian; so it already
    contains every commutator and equals [G, G] G^2."""
    n = group.order
    seeds = {group.mult(i, i) for i in range(n)}
    sub = {group.identity}
    frontier = list(sub)
    while frontier:
        nxt = []
        for a in frontier:
            for s in seeds:
                b = group.mult(a, s)
                if b not in sub:
                    sub.add(b)
                    nxt.append(b)
        frontier = nxt
    quot = n // len(sub)
    dim = quot.bit_length() - 1
    if 1 << dim != quot:
        raise AssertionError("quotient by squares not elementary")
    return dim


# ---------------------------------------------------------------- fixtures

def stabilization_hom(g_small: PermGroup, g_big: PermGroup, g: int) -> GroupHom:
    """Block inclusion GL_g -> GL_{g+1} on nonzero-vector permutations."""

    def fn(p: Perm) -> Perm:
        out = []
        low = (1 << g) - 1
        for v in range(1, 1 << (g + 1)):
            x = v & low
            w = (p[x - 1] + 1) if x else 0
            out.append((w | (v & ~low)) - 1)
        return tuple(out)

    return GroupHom(g_small, g_big, fn)
