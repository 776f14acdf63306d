"""F2 homology of small finite groups via free resolutions.

Groups are given as permutation groups (order at most 1000).
H_*(G; F2) is read off a Sylow 2-subgroup P (``sylow_homology_dims``):
it is H_*(P) modulo the images of incl_* - (c_w)_* from
H_*(P n wPw^-1), one w per double coset PwP, the dual of the
stable-element theorem of Cartan-Eilenberg (*Homological Algebra*,
1956, XII.10).  So only P and those intersections, all 2-groups, are
resolved; a 2-group is its own P, and its one double coset adds no row.
The route composes G's permutations and never tabulates G: a group's
multiplication table is built when it is first resolved or mapped.

A free resolution of the trivial module over the group algebra is built
degree by degree: each boundary's kernel, read off the elimination that
built the boundary (``minres.complement``), is generated greedily,
picking the first reduced-echelon kernel vector outside the current
equivariant span.  Homology is the honest homology of the tensored-down
complex, so the resolution need not be minimal.  Induced maps along
group homomorphisms come from explicit chain lifts.

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
pi(im d_{top+1}) = pi(ker d_top), kept by ``resolve`` for every d:
``TensoredComplex`` takes it as the incoming boundaries of the top
degree, and a caller resolves only to the degree it reads.  That saves
F_{top+1}, by far the largest free module of the resolution.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Callable, Iterable

from .cobar import BigradedComplex
from .f2linalg import F2Matrix, Subspace, bits_of
from .hopf import WindowError
from .minres import complement

MAX_ORDER = 1000
MAX_DEGREE = 6

Perm = tuple


def compose(p: Perm, q: Perm) -> Perm:
    """(p*q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


class PermGroup:
    """Finite permutation group: elements enumerated and canonically
    ordered lexicographically; multiplication by composition.  Its table
    (``table[i][j]`` is the index of i*j; at most MAX_ORDER^2 entries) is
    built on first use, so only a group that is resolved or mapped has
    one."""

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
        del found[ident]
        self._steps = found  # the (k, p) of each q, kept for the table
        self.generators = gens
        self.elements = tuple(sorted(order))
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.identity = self.index[ident]
        self.order = len(self.elements)

    @cached_property
    def table(self) -> list:
        # the row of q = gens[k] * p is the row of p relabelled by left
        # multiplication with gens[k], so only the generators compose
        left = [[self.index[compose(g, q)] for q in self.elements] for g in self.generators]
        table: list = [None] * self.order
        table[self.identity] = list(range(self.order))
        for q, (k, p) in self._steps.items():
            table[self.index[q]] = list(map(left[k].__getitem__, table[self.index[p]]))
        return table

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]


def _generate(sub: set[Perm], gens: list[Perm], s: Perm) -> None:
    """Grow sub, the subgroup generated by gens, to the one generated by
    gens and s, in place; s joins gens.

    Every new element is an old one times a word in the generators that
    starts with s (a finite group's words need no inverses), and an old
    element times an old generator is old, so the search starts from the
    right translates of sub by s."""
    gens.append(s)
    frontier = [b for b in (compose(a, s) for a in sub) if b not in sub]
    sub.update(frontier)
    for a in frontier:
        for t in gens:
            b = compose(a, t)
            if b not in sub:
                sub.add(b)
                frontier.append(b)


def _generated(group: PermGroup, elements: Iterable[Perm]) -> tuple[set[Perm], list[Perm]]:
    """The subgroup of group generated by the elements, and the ones that
    generate it: each element not generated by those before it."""
    sub, gens = {tuple(range(group.degree))}, []
    for s in elements:
        if s not in sub:
            _generate(sub, gens, s)
    return sub, gens


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


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


def _transvections(g: int, upper: bool) -> list[Perm]:
    """The transvections adding row j to row i, i != j, which generate
    GL(g,2); those with i < j generate UT(g,2)."""
    return [_matrix_perm(tuple((1 << k) | (1 << j if k == i else 0) for k in range(g)), g)
            for i in range(g) for j in range(i + 1 if upper else 0, g) if i != j]


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
    if (m := re.fullmatch(r"(GL|UT)\((\d+),2\)", name)) is not None:
        n, upper = int(m.group(2)), m.group(1) == "UT"
        _check_order((1 << (k - 1)) * (1 if upper else (1 << k) - 1) for k in range(1, n + 1))
        return PermGroup((1 << n) - 1, _transvections(n, upper), name)
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
    occurs at most once.  The k points named become 0 .. k - 1 in order;
    the rest are fixed by all, and dropping them keeps the elements' order."""
    text = text.strip()
    if "(" not in text or re.fullmatch(r"\w+\(\d+,\d+\)", text):
        return builtin_group(text)
    perms = []
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
        perms.append(cycles)
    label = {a: i for i, a in enumerate(sorted({a for c in perms for pts in c for a in pts}))}
    out = []
    for cycles in perms:
        p = list(range(len(label)))
        for pts in cycles:
            for a, b in zip(pts, pts[1:] + pts[:1]):
                p[label[a]] = label[b]
        out.append(tuple(p))
    return PermGroup(len(label), out)


# ---------------------------------------------------------------- resolutions

class Resolution:
    """A free resolution of the trivial module through degree
    len(ranks) - 1: ranks[d] is the rank of F_d over F2[G],
    boundaries[d]: F_d -> F_{d-1} has one row per F2 basis vector of F_d
    ([0] is the augmentation F_0 -> F2), and kernels[d] spans pi(ker d_d)
    over the generators of F_d."""

    def __init__(self, group: PermGroup, ranks: tuple, boundaries: tuple, kernels: tuple):
        self.group = group
        self.ranks = ranks
        self.boundaries = boundaries
        self.kernels = kernels

    @cached_property
    def tensored(self) -> TensoredComplex:
        """The tensored-down complex, built once and shared by every
        homology read and induced map on this resolution."""
        return TensoredComplex(self)


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


def augmentation_kernel(n: int) -> Subspace:
    """The kernel of the augmentation F2^n -> F2 (every e_i to 1) in
    reduced echelon form, in closed form: e_i + e_{n-1} for i < n - 1."""
    return Subspace(n, [(1 << i) | (1 << (n - 1)) for i in range(n - 1)])


def resolve(group: PermGroup, d_max: int) -> Resolution:
    """Free resolution of the trivial module through degree d_max.

    Kernel generators are picked greedily, in the order of the
    reduced-echelon kernel basis."""
    if d_max > MAX_DEGREE:
        raise WindowError("degree exceeds budget")
    n = group.order
    ranks = [1]
    boundaries = [F2Matrix(n, 1, [1] * n)]
    kernel = augmentation_kernel(n)
    kernels = [[_collapse(group, v, 1) for v in kernel.basis]]
    for d in range(1, d_max + 1):
        # the n translates of each new generator
        rows, tags, _ = complement([], kernel.basis, lambda v: _translates(group, v, range(n)))
        ranks.append(len(rows) // n)
        boundaries.append(F2Matrix(len(rows), boundaries[-1].rows, rows))
        kernels.append([_collapse(group, v, ranks[d]) for v in tags])
        if d < d_max:
            kernel = Subspace.span(len(rows), tags)
    return Resolution(group, tuple(ranks), tuple(boundaries), tuple(kernels))


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
        """A spanning list of pi(ker d_top), kept by ``resolve``."""
        return self.res.kernels[self.top]

    def chain_dim(self, g: int, s: int) -> int:
        if g != self.g_max:
            return 0
        return self.bars[g - s].rows if s else len(self.incoming)

    def _build_row_fn(self, g: int, s: int) -> Callable[[int], int]:
        return self.bars[g - s].data.__getitem__ if s else self.incoming.__getitem__


def homology_dims(res: Resolution) -> tuple:
    """dim H_d for d = 0 .. d_max."""
    c = res.tensored
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
    if not 0 <= d <= min(r_src.tensored.top, r_tgt.tensored.top):
        raise ValueError(f"H_{d} needs resolutions built through degree {d}")
    return _read_map(hom, chain_lift(hom, r_src, r_tgt, d), r_src, r_tgt, d)


def _read_map(hom: GroupHom, lifts: list, r_src: Resolution, r_tgt: Resolution,
              d: int) -> F2Matrix:
    """The matrix of ``induced_map`` at degree d, read off a chain lift
    through degree d or further, so that one lift serves every degree."""
    src, tgt = r_src.tensored, r_tgt.tensored
    reps = src.homology(src.g_max, d).reps
    images = []
    for v in reps:
        w = 0
        for k in bits_of(v):
            w ^= _collapse(hom.target, lifts[d][k], r_tgt.ranks[d])
        images.append(tgt.coords(tgt.g_max, d, w))
    return F2Matrix(len(reps), tgt.homology_dim(tgt.g_max, d), images)


# ---------------------------------------------------------------- Sylow route

def sylow_subgroup(group: PermGroup) -> tuple[set[Perm], list[Perm]]:
    """A Sylow 2-subgroup P, as a set of permutations, and generators of
    it.

    P grows from {1} by index-2 steps: a 2-subgroup P that is not Sylow
    has N_G(P)/P of even order, so some g outside P normalizes P and has
    g^2 in P, and P u gP is a subgroup of twice the order.  Each step
    takes the first such g in canonical order.  A 2-group is its own P."""
    n = group.order
    if n & (n - 1) == 0:
        return set(group.elements), list(group.generators)
    sub, gens = {tuple(range(group.degree))}, []
    while len(sub) < n & -n:
        for g in group.elements:
            if g in sub or compose(g, g) not in sub:
                continue
            g_inv = _inverse(g)
            if all(compose(compose(g_inv, t), g) in sub for t in gens):
                break
        else:
            raise AssertionError("a 2-subgroup that is not Sylow has no normalizing step")
        _generate(sub, gens, g)
    return sub, gens


def double_cosets(group: PermGroup, sub: set[Perm], gens: list[Perm]) -> list[Perm]:
    """The first elements w of the double cosets P w P of a subgroup P
    generated by gens, in order.

    P w P is the union of the left cosets in the orbit of wP under left
    multiplication by P, so it is found by applying the generators to one
    element of each left coset reached, never by forming P w P itself."""
    seen: set[Perm] = set()
    out = []

    def reach(x: Perm) -> None:
        """Mark the left coset xP seen, x its element in the frontier."""
        seen.update(compose(x, p) for p in sub)
        frontier.append(x)

    for w in group.elements:
        if w in seen:
            continue
        frontier: list[Perm] = []
        reach(w)
        for r in frontier:
            for t in gens:
                if (x := compose(t, r)) not in seen:
                    reach(x)
        out.append(w)
    return out


def sylow_homology_dims(group: PermGroup, d_max: int) -> tuple:
    """dim H_d(G; F2) for d = 0 .. d_max, read off a Sylow 2-subgroup P.

    The map H_*(P) -> H_*(G) induced by inclusion is onto, with kernel
    spanned by the images of incl_* - (c_w)_*: H_*(Q_w) -> H_*(P), where w
    runs over the first elements of the double cosets PwP and Q_w, the p in
    P with w^-1 p w in P, maps to P by inclusion and by c_w: q -> w^-1 q w.
    This is the dual of the stable-element theorem (Cartan-Eilenberg,
    *Homological Algebra*, XII.10).  So dim H_d(G) is dim H_d(P) less the
    rank of those differences, stacked over w.  Only P and the distinct
    Q_w are resolved, each through d_max; w in P (c_w inner) and a
    trivial Q_w (no H_{>0}) add no row.  For a 2-group, P = G and the
    one double coset's first element, the identity, lies in P."""
    sub, gens = sylow_subgroup(group)
    p_group = PermGroup(group.degree, gens)
    r_p = resolve(p_group, d_max)
    dims = homology_dims(r_p)

    def maps(hom: GroupHom, r_q: Resolution) -> list[F2Matrix]:
        """hom_*: H_d(Q_w) -> H_d(P) for d = 0 .. d_max, from one lift."""
        lifts = chain_lift(hom, r_q, r_p, d_max)
        return [_read_map(hom, lifts, r_q, r_p, d) for d in range(d_max + 1)]

    # per d, the rows incl_* - (c_w)_* over every w; per Q_w, its
    # resolution and its inclusion's matrices
    stacks: list[list[int]] = [[] for _ in dims]
    seen: dict[tuple, tuple] = {}
    for w in double_cosets(group, sub, gens):
        if w in sub:
            continue
        w_inv = _inverse(w)
        q = tuple(p for p in p_group.elements if compose(compose(w_inv, p), w) in sub)
        if len(q) == 1:
            continue
        if q not in seen:
            if len(q) == len(sub):  # w normalizes P
                q_group, r_q = p_group, r_p
            else:
                q_group = PermGroup(group.degree, _generated(group, q)[1])
                r_q = resolve(q_group, d_max)
            seen[q] = (q_group, r_q, maps(GroupHom(q_group, p_group, lambda p: p), r_q))
        q_group, r_q, incl_maps = seen[q]
        conj = GroupHom(q_group, p_group, lambda p: compose(compose(w_inv, p), w))
        c_maps = maps(conj, r_q)
        for d in range(1, d_max + 1):
            stacks[d] += map(int.__xor__, incl_maps[d].data, c_maps[d].data)
    return tuple(dim - F2Matrix(len(rows), dim, rows).rank() for dim, rows in zip(dims, stacks))


# ---------------------------------------------------------------- oracles

def abelianization_f2_dim(group: PermGroup) -> int:
    """dim over F2 of the abelianization tensored with F2: log2 of the
    index of the subgroup generated by squares.

    That subgroup is normal (conjugates of squares are squares), and the
    quotient by it has exponent 2, hence is abelian; so it already
    contains every commutator and equals [G, G] G^2.  It is grown one
    square at a time, each square joining only if it is not yet in it."""
    sub, _ = _generated(group, sorted({compose(p, p) for p in group.elements}))
    quot = group.order // len(sub)
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
