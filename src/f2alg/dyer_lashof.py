"""Mod-2 Dyer-Lashof calculus on free E-infinity algebras.

Classes are F2 polynomials in normal operation towers Q^I(x) on bigraded
generators x = (grading g, homological degree d).  The canonical internal
form is upper-indexed; lower indices are a view via Q^s(x) = Q_{s-|x|}(x).

A monomial is a sorted tuple of factors (Generator, upper sequence); a
polynomial is a frozenset of monomials (F2 coefficients implicit).

The Adem relation used for r > 2s is

    Q^r Q^s = sum_i C(i-s-1, 2i-r) Q^{r+s-i} Q^i

kept as configuration data (ADEM_COEFF) so the convention is auditable;
it is pinned by Q^{3,1}(sigma) = 0 (empty sum).  The Nishida relation is

    Sq^a_* Q^s = sum_t C(s-a, a-2t) Q^{s-a+t} Sq^t_*

with binomials of negative top zero and Q^{<0} = 0.

Both operations act on single towers first; the Cartan formula that
carries an operation across the factors of a monomial is written once
(``_cartan``), as is its linear extension over a polynomial (``_linear``).
The single-tower actions are memoized: the Adem and Nishida recursions
meet the same (index, tower) pairs again and again.
Sums are built in a mutable set toggled by ``^=`` and frozen on return.

Classes are written in one text syntax, ``Q[2,1](s) + s^2*q[1](s)``:
``render`` writes it and ``_read`` reads it, as a literal class
(``parse``) or as an expression with nested operations (``eval_expr``).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

from .f2linalg import Echelon, bits_of
from .hopf import check_budget


class Generator(NamedTuple):
    name: str
    g: int  # grading, positive
    d: int  # homological degree, nonnegative


Factor = tuple[Generator, tuple[int, ...]]
Monomial = tuple[Factor, ...]
Poly = frozenset  # of Monomial

ZERO: Poly = frozenset()
ONE: Poly = frozenset({()})


def binom_odd(n: int, k: int) -> bool:
    """C(n, k) mod 2, zero outside 0 <= k <= n."""
    return 0 <= k <= n and (k & (n - k)) == 0


def ADEM_COEFF(r: int, s: int, i: int) -> bool:
    """Coefficient of Q^{r+s-i} Q^i in the rewrite of Q^r Q^s, r > 2s."""
    return binom_odd(i - s - 1, 2 * i - r)


# ---------------------------------------------------------------- bidegrees and keys

def factor_bidegree(f: Factor) -> tuple[int, int]:
    gen, seq = f
    return (gen.g << len(seq), sum(seq) + gen.d)


def mono_bidegree(m: Monomial) -> tuple[int, int]:
    g = d = 0
    for f in m:
        fg, fd = factor_bidegree(f)
        g += fg
        d += fd
    return g, d


def factor_key(f: Factor):
    gen, seq = f
    return (gen.name, len(seq), seq)


def mono_sorted(factors: Iterable[Factor]) -> Monomial:
    return tuple(sorted(factors, key=factor_key))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return mono_sorted(a + b)


def poly_bidegree(p: Poly) -> tuple[int, int]:
    """(g, d) of a nonzero bihomogeneous class; ValueError otherwise."""
    if not p:
        raise ValueError("zero class has no bidegree")
    bd = mono_bidegree(next(iter(p)))
    if any(mono_bidegree(m) != bd for m in p):
        raise ValueError(f"inhomogeneous class {render(p)}")
    return bd


def poly(*monos: Monomial) -> Poly:
    out: set = set()
    for m in monos:
        out ^= {m}
    return frozenset(out)


def poly_add(*ps: Poly) -> Poly:
    out: set = set()
    for p in ps:
        out ^= p
    return frozenset(out)


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: set = set()
    for a in p:
        for b in q:
            out ^= {mono_mul(a, b)}
    return frozenset(out)


def gen_mono(gen: Generator) -> Monomial:
    return ((gen, ()),)


def q_mono_of(gen: Generator, upper: Iterable[int]) -> Monomial:
    return ((gen, tuple(upper)),)


# ---------------------------------------------------------------- index conversion

def lower_form(upper: tuple[int, ...], x: Generator) -> tuple[int, ...]:
    """s_i' = s_i - sum_{j>i} s_j - d(x)."""
    out = []
    for i, s in enumerate(upper):
        out.append(s - sum(upper[i + 1:]) - x.d)
    return tuple(out)


def upper_form(lower: tuple[int, ...], x: Generator) -> tuple[int, ...]:
    """Inverse of lower_form, built from the innermost entry outward."""
    acc = x.d
    out = [0] * len(lower)
    for i in range(len(lower) - 1, -1, -1):
        out[i] = lower[i] + acc
        acc += out[i]
    return tuple(out)


def _prepends(s: int, seq: tuple[int, ...]) -> bool:
    """Whether Q^s Q^seq(x) is normal, for a normal Q^seq(x) of homological
    degree below s: the new lower index is positive, and it is at most the
    old outermost one exactly when s <= 2 * seq[0]."""
    return not seq or s <= 2 * seq[0]


def is_normal(upper: tuple[int, ...], x: Generator) -> bool:
    d = x.d
    for i in range(len(upper) - 1, -1, -1):
        if upper[i] <= d or not _prepends(upper[i], upper[i + 1:]):
            return False
        d += upper[i]
    return True


# ---------------------------------------------------------------- Cartan formula

def _cartan(op, s: int, m: Monomial) -> set | Poly:
    """op^s on a monomial: the sum over i of op^i(first factor) times
    op^{s-i}(the rest).  op(i, factor) acts on a single tower."""
    if not m:
        return {()} if s == 0 else set()
    head, rest = m[0], m[1:]
    if not rest:  # only i = s pairs with the empty rest
        return op(s, head)
    # Sq^j_* vanishes on a factor above its _sq_top, so the rest takes at
    # most the sum of its tops
    low = max(0, s - sum(map(_sq_top, rest))) if op is _sq_factor else 0
    out: set = set()
    for i in range(low, s + 1):
        a = op(i, head)
        if a:
            out ^= poly_mul(a, _cartan(op, s - i, rest))
    return out


def _linear(op, s: int, p: Poly) -> Poly:
    """op^s extended linearly over the monomials of p."""
    out: set = set()
    for m in p:
        out ^= _cartan(op, s, m)
    return frozenset(out)


# ---------------------------------------------------------------- Q action

@cache
def _q_factor(s: int, f: Factor) -> Poly:
    """Q^s on a single normal tower, normalized.  Internal: s may be <= 0."""
    if s < 0:
        return ZERO
    gen, seq = f
    d = sum(seq) + gen.d
    if s < d:
        return ZERO
    if s == d:
        return poly(mono_mul((f,), (f,)))
    if _prepends(s, seq):
        return poly(q_mono_of(gen, (s,) + seq))
    t = seq[0]
    inner: Factor = (gen, seq[1:])
    out: set = set()
    for i in range((s + 1) // 2, s - t):
        if ADEM_COEFF(s, t, i):
            out ^= _q_poly(s + t - i, _q_factor(i, inner))
    return frozenset(out)


def _q_poly(s: int, p: Poly) -> Poly:
    return _linear(_q_factor, s, p)


def apply_q(s: int, p: Poly) -> Poly:
    """Q^s on a normalized polynomial; total, fully normalized output."""
    if s < 1:
        raise ValueError("operation index must be positive")
    return _q_poly(s, p)


# ---------------------------------------------------------------- dual Steenrod action

def _sq_top(f: Factor) -> int:
    """The largest a with Sq^a_* possibly nonzero on the tower f: zero on
    a generator, and Sq^a_* lowers the homological degree by a."""
    gen, seq = f
    return sum(seq) + gen.d if seq else 0


@cache
def _sq_factor(a: int, f: Factor) -> Poly:
    if a == 0:
        return poly((f,))
    if a > _sq_top(f):
        return ZERO
    gen, seq = f
    s = seq[0]
    inner: Factor = (gen, seq[1:])
    out: set = set()
    for t in range(a // 2 + 1):
        if binom_odd(s - a, a - 2 * t):
            out ^= _q_poly(s - a + t, _sq_factor(t, inner))
    return frozenset(out)


def cartan_splits(a: int, p: Poly) -> int:
    """The Cartan splits Sq^a_* runs through, summed over the monomials
    of p: tuples (i_1, ..., i_k), one entry per factor, with sum a and
    each i_j at most ``_sq_top`` of the j-th factor (above it Sq^i_*
    vanishes on that factor): its homological degree, or 0 on a bare
    generator.  Counted factor by factor over prefix sums, without
    computing a split."""
    if a < 0:
        return 0
    total = 0
    for m in p:
        ways = [1] + [0] * a  # ways[s]: splits of s over the factors so far
        for f in m:
            top = _sq_top(f)
            acc = list(accumulate(ways, initial=0))
            ways = [acc[s + 1] - acc[max(0, s - top)] for s in range(a + 1)]
        total += ways[a]
    return total


def dual_steenrod(a: int, p: Poly) -> Poly:
    """Sq^a_* via Cartan over factors and Nishida past Q's; every
    generator is annihilated."""
    if a < 1:
        raise ValueError("operation index must be positive")
    return _linear(_sq_factor, a, p)


# ---------------------------------------------------------------- basis enumeration

def normal_factors(gen: Generator, g_max: int, d_max: int) -> list[Factor]:
    """All normal towers Q^I(gen), including I = (), inside the box."""
    if gen.g <= 0:
        raise ValueError("generator grading must be positive")
    out: list[Factor] = []

    def rec(seq: tuple[int, ...], g: int, d: int):
        # seq is normal, of grading g and homological degree d
        out.append((gen, seq))
        if 2 * g <= g_max:
            for s in range(d + 1, d_max - d + 1):
                if not _prepends(s, seq):
                    break
                rec((s,) + seq, 2 * g, d + s)

    if gen.g <= g_max and gen.d <= d_max:
        rec((), gen.g, gen.d)
    return out


def box_bases(gens: list[Generator], g_max: int, d_max: int):
    """The normal towers on gens inside the box, sorted by ``factor_key``,
    and every monomial inside the box as the nondecreasing tuple of its
    towers' indices, per bidegree in canonical order: one walk extends a
    prefix only by a tower at or after its last factor and lists each
    monomial when visited, which is in that order."""
    towers = sorted((f for x in gens for f in normal_factors(x, g_max, d_max)), key=factor_key)
    sizes = [factor_bidegree(f) for f in towers]
    bases: dict[tuple[int, int], list[tuple[int, ...]]] = {
        (g, d): [] for g in range(g_max + 1) for d in range(d_max + 1)}

    def visit(start: int, m: tuple[int, ...], g: int, d: int):
        bases[(g, d)].append(m)
        for i in range(start, len(towers)):
            fg, fd = sizes[i]
            if g + fg <= g_max and d + fd <= d_max:
                visit(i, m + (i,), g + fg, d + fd)

    if bases:
        visit(0, (), 0, 0)
    return towers, bases


def free_basis(gens: list[Generator], g: int, d: int) -> list[Monomial]:
    """All monomials of bidegree exactly (g, d), in canonical order."""
    towers, bases = box_bases(gens, g, d)
    return [tuple(towers[i] for i in m) for m in bases.get((g, d), [])]


# ---------------------------------------------------------------- ideal quotients

def ideal_quotient_dims(
    gens: list[Generator],
    relations: list[Poly],
    g_max: int,
    d_max: int,
) -> dict[tuple[int, int], int]:
    """dim of free/(ideal) per bidegree in the box.

    The ideal is the span of the relations closed under multiplication by
    all monomials and all Q^s.  Products and Q^s never lower (g, d), so
    what lands outside the box is dropped without loss.  Multiplying by
    the generators' normal towers spans the same ideal: a monomial is a
    product of towers whose partial products stay in the box.

    Q^s is applied only to seeds, the relations and the residues of
    Q-images, and only for s > d (Q^s is 0 below the degree d and squares
    at it); residues of tower products are only multiplied by towers.  The
    final span J, the tower-product closure of the seeds, is closed under
    Q: for x = sum m_k t_k (m_k monomials, t_k seeds) the Cartan formula
    and additivity give Q^s(x) = sum_k sum_i Q^i(m_k) Q^{s-i}(t_k), and
    each Q^{s-i}(t_k) is 0, t_k^2 or a seed image, all in J.  Monomials
    stay tuples of tower indices (``box_bases``); classes are symbolic
    only where Q is applied.

    Every relation must be a class on ``gens``; ValueError otherwise,
    before the box is enumerated.
    """
    for p in relations:
        if any(gen not in gens for m in p for gen, _ in m):
            raise ValueError(f"relation {render(p)} is not a class on the given generators")
    towers, bases = box_bases(gens, g_max, d_max)
    sizes = [factor_bidegree(f) for f in towers]
    at = {f: i for i, f in enumerate(towers)}
    # a monomial's position in the list of its bidegree
    where = {m: i for b in bases.values() for i, m in enumerate(b)}

    def to_vec(p: Poly) -> int:
        v = 0
        for m in p:
            v |= 1 << where[tuple(at[f] for f in m)]
        return v

    ech: dict[tuple[int, int], Echelon] = {bd: Echelon() for bd in bases}
    work: list[tuple[tuple[int, int], int, bool]] = []  # (bidegree, residue, seed)

    def insert(bd, v, seed):
        if v:
            r, _ = ech[bd].add(v)
            if r:
                work.append((bd, r, seed))

    for p in relations:
        if p and (bd := poly_bidegree(p)) in bases:
            insert(bd, to_vec(p), True)

    while work:
        (g, d), v, seed = work.pop()
        monos = [bases[(g, d)][i] for i in bits_of(v)]
        for t, (tg, td) in enumerate(sizes):
            if g + tg <= g_max and d + td <= d_max:
                w = 0
                for m in monos:
                    j = bisect_right(m, t)
                    w |= 1 << where[m[:j] + (t,) + m[j:]]
                insert((g + tg, d + td), w, False)
        if seed and 2 * g <= g_max:
            p = frozenset(tuple(towers[i] for i in m) for m in monos)
            for s in range(d + 1, d_max - d + 1):
                insert((2 * g, d + s), to_vec(apply_q(s, p)), True)

    return {bd: len(bases[bd]) - ech[bd].rank for bd in sorted(bases)}


# ---------------------------------------------------------------- bar operation

def barred(x: Generator) -> Generator:
    return Generator(x.name + "b", x.g, x.d + 1)


def bar_class(p: Poly) -> Poly:
    """Bar of a class: decomposables die; on a single tower the lower
    indices shift down by one and are evaluated over the barred generator
    (Q_0 = squaring), raising homological degree by one."""
    out: set = set()
    for m in p:
        if len(m) != 1:
            continue  # decomposable
        gen, upper = m[0]
        acc = poly(gen_mono(barred(gen)))
        for low in reversed(lower_form(upper, gen)):
            if low < 1 or not acc:
                acc = ZERO
                break
            # lower Q_{low - 1} on a homogeneous polynomial
            acc = _q_poly(low - 1 + poly_bidegree(acc)[1], acc)
        out ^= acc
    return frozenset(out)


# ---------------------------------------------------------------- standard generators

SIGMA = Generator("s", 1, 0)
NU1 = Generator("n1", 3, 3)
NU2 = Generator("n2", 3, 3)
BETA = Generator("b", 3, 2)
ALPHABET = {"s": SIGMA, "b": BETA, "n1": NU1, "n2": NU2}


# ---------------------------------------------------------------- text syntax

# the most factors a monomial of the class syntax may have; the Cartan
# formula recurses once per factor
MAX_CLASS_FACTORS = 500

_TOKEN = re.compile(r"[Qq]\[\d+(?:,\d+)*\]|\^\d+|\w+|\S")


def _read(text: str, gens: dict[str, Generator], literal: bool) -> Poly:
    """The one reader of the class syntax that ``render`` writes: terms
    joined by '+', factors by '*', `s^2` powers, `0` the zero class,
    `Q[2,1](s)` upper and `q[1,1](s)` lower towers.

    A literal class has towers only on bare generators, each a normal
    sequence, and no parentheses.  Otherwise towers nest over any
    expression, are applied with ``apply_q`` and Adem-normalized.  A
    product of more than MAX_CLASS_FACTORS factors raises WindowError."""
    toks = _TOKEN.findall(text)
    pos = 0

    def factors(p: Poly) -> int:
        return max(map(len, p), default=0)

    def peek() -> str:
        return toks[pos] if pos < len(toks) else ""

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        tok = peek()
        if not tok or expected not in (None, tok):
            want = repr(expected) if expected else "a factor"
            raise ValueError(f"expected {want} in class {text!r}")
        pos += 1
        return tok

    def atom() -> Poly:
        tok = take()
        if tok == "0":
            return ZERO
        if tok in gens:
            return poly(gen_mono(gens[tok]))
        if tok == "(" and not literal:
            p = expr()
            take(")")
            return p
        if tok[0] in "Qq" and tok[1:2] == "[":
            seq = tuple(int(k) for k in tok[2:-1].split(","))
            take("(")
            if literal:
                name = take()
                if name not in gens:
                    raise ValueError(f"unknown generator {name!r} in class {text!r}")
                take(")")
                x = gens[name]
                if tok[0] == "q":
                    seq = upper_form(seq, x)
                if not is_normal(seq, x):
                    raise ValueError(f"non-normal sequence {tok} in class {text!r}")
                return poly(q_mono_of(x, seq))
            p = expr()
            take(")")
            for s in reversed(seq):
                if tok[0] == "q":
                    if not p:
                        break  # Q_s is linear: a tower on 0 is 0
                    # lower index: offset by the current degree
                    s += poly_bidegree(p)[1]
                p = apply_q(s, p)
            return p
        raise ValueError(f"unexpected {tok!r} in class {text!r}")

    def term() -> Poly:
        out = ONE
        while True:
            p = atom()
            n = int(take()[1:]) if peek().startswith("^") and peek() != "^" else 1
            # n products, even when p is 0 or 1
            check_budget("factors per monomial", factors(out) + n * max(factors(p), 1),
                         MAX_CLASS_FACTORS)
            for _ in range(n):
                out = p if out is ONE else poly_mul(out, p)
            if peek() != "*":
                return out
            take()

    def expr() -> Poly:
        p = term()
        while peek() == "+":
            take()
            p = poly_add(p, term())
        return p

    out = expr()
    if peek():
        raise ValueError(f"unexpected {peek()!r} in class {text!r}")
    return out


def parse(text: str, gens: dict[str, Generator]) -> Poly:
    """Read a literal class: a tower sits on a bare generator and must
    be normal; parentheses are refused."""
    return _read(text, gens, literal=True)


def eval_expr(text: str) -> Poly:
    """Evaluate a class expression over ``ALPHABET`` with nested
    operations, e.g. Q[2](s*Q[1](s)); the result is fully Adem-normalized."""
    return _read(text, ALPHABET, literal=False)


def render_factor(f: Factor, power: int) -> str:
    gen, seq = f
    if seq:
        base = f"Q[{','.join(str(s) for s in seq)}]({gen.name})"
    else:
        base = gen.name
    return base if power == 1 else f"{base}^{power}"


def render_mono(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    i = 0
    while i < len(m):
        j = i
        while j < len(m) and m[j] == m[i]:
            j += 1
        parts.append(render_factor(m[i], j - i))
        i = j
    return "*".join(parts)


def render(p: Poly) -> str:
    """Canonical printing: terms in descending order of their sorted factor
    keys, factors ascending within a term."""
    if not p:
        return "0"
    monos = sorted(p, key=lambda m: tuple(factor_key(f) for f in m), reverse=True)
    return " + ".join(render_mono(m) for m in monos)
