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
Sums are built in a mutable set toggled by ``^=`` and frozen on return.

Classes are written in one text syntax, ``Q[2,1](s) + s^2*q[1](s)``:
``render`` writes it and ``_read`` reads it, as a literal class
(``parse``) or as an expression with nested operations (``eval_expr``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .f2linalg import Echelon


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


def is_normal(upper: tuple[int, ...], x: Generator) -> bool:
    low = lower_form(upper, x)
    if not low:
        return True
    if low[0] <= 0:
        return False
    return all(low[i] <= low[i + 1] for i in range(len(low) - 1))


# ---------------------------------------------------------------- Cartan formula

def _cartan(op, s: int, m: Monomial) -> set:
    """op^s on a monomial: the sum over i of op^i(first factor) times
    op^{s-i}(the rest).  op(i, factor) acts on a single tower."""
    if not m:
        return {()} if s == 0 else set()
    head, rest = m[0], m[1:]
    out: set = set()
    for i in range(s + 1):
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
    if not seq or s <= 2 * seq[0]:
        # prepending s keeps the lower indices ascending and positive
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

def _sq_factor(a: int, f: Factor, registered) -> Poly:
    if a == 0:
        return poly((f,))
    gen, seq = f
    if not seq:
        if registered:
            img = registered.get((gen.name, a))
            if img is not None:
                return img
        return ZERO
    s = seq[0]
    inner: Factor = (gen, seq[1:])
    out: set = set()
    for t in range(a // 2 + 1):
        if binom_odd(s - a, a - 2 * t):
            out ^= _q_poly(s - a + t, _sq_factor(t, inner, registered))
    return frozenset(out)


def dual_steenrod(a: int, p: Poly, registered: Optional[dict] = None) -> Poly:
    """Sq^a_* via Cartan over factors and Nishida past Q's.

    ``registered`` maps (generator name, a) to the polynomial value of
    Sq^a_* on that generator; unregistered positive-degree actions are zero.
    """
    if a < 1:
        raise ValueError("operation index must be positive")
    return _linear(lambda t, f: _sq_factor(t, f, registered), a, p)


# ---------------------------------------------------------------- basis enumeration

def normal_factors(gen: Generator, g_max: int, d_max: int) -> list[Factor]:
    """All normal towers Q^I(gen), including I = (), inside the box."""
    if gen.g <= 0:
        raise ValueError("generator grading must be positive")
    out: list[Factor] = []
    if gen.g <= g_max and gen.d <= d_max:
        out.append((gen, ()))

    def rec(lower_rev: list[int], acc_deg: int, length: int):
        # lower_rev holds lower indices innermost-first; acc_deg is the
        # homological degree of the tower built so far
        if (gen.g << (length + 1)) > g_max:
            return
        cap = lower_rev[-1] if lower_rev else None
        l = 1
        while True:
            if cap is not None and l > cap:
                break
            s = l + acc_deg  # upper index being prepended
            new_deg = acc_deg + s
            if new_deg > d_max:
                break
            nxt = lower_rev + [l]
            upper = tuple(nxt[k] for k in range(len(nxt) - 1, -1, -1))
            out.append((gen, upper_form(tuple(upper), gen)))
            rec(nxt, new_deg, length + 1)
            l += 1

    rec([], gen.d, 0)
    return out


def free_basis(gens: list[Generator], g: int, d: int) -> list[Monomial]:
    """All monomials of bidegree exactly (g, d), in canonical order."""
    pool: list[Factor] = []
    for x in gens:
        pool.extend(normal_factors(x, g, d))
    pool.sort(key=factor_key)
    out: list[Monomial] = []

    def rec(idx: int, acc: list[Factor], rg: int, rd: int):
        if rg == 0:
            if rd == 0:
                out.append(tuple(acc))
            return
        if idx == len(pool):
            return
        f = pool[idx]
        fg, fd = factor_bidegree(f)
        rec(idx + 1, acc, rg, rd)
        k = 1
        while k * fg <= rg and k * fd <= rd:
            rec(idx + 1, acc + [f] * k, rg - k * fg, rd - k * fd)
            k += 1

    rec(0, [], g, d)
    out.sort(key=lambda m: tuple(factor_key(f) for f in m))
    return out


# ---------------------------------------------------------------- ideal quotients

def ideal_quotient_dims(
    gens: list[Generator],
    relations: list[Poly],
    g_max: int,
    d_max: int,
) -> dict[tuple[int, int], int]:
    """dim of free/(ideal) per bidegree in the box.

    The ideal is the span of the relations closed under multiplication by
    all monomials and all Q^s, discarding anything landing outside the box.
    Every relation must be a class on ``gens``; ValueError otherwise,
    before the box is enumerated.
    """
    for p in relations:
        if any(gen not in gens for m in p for gen, _ in m):
            raise ValueError(f"relation {render(p)} is not a class on the given generators")
    bases: dict[tuple[int, int], list[Monomial]] = {}
    index: dict[tuple[int, int], dict[Monomial, int]] = {}
    for g in range(g_max + 1):
        for d in range(d_max + 1):
            b = free_basis(gens, g, d)
            bases[(g, d)] = b
            index[(g, d)] = {m: i for i, m in enumerate(b)}

    def to_vec(p: Poly, bd) -> int:
        v = 0
        for m in p:
            v |= 1 << index[bd][m]
        return v

    def to_poly(v: int, bd) -> Poly:
        b = bases[bd]
        return frozenset(b[i] for i in range(v.bit_length()) if v >> i & 1)

    ech: dict[tuple[int, int], Echelon] = {bd: Echelon() for bd in bases}
    work: list[tuple[tuple[int, int], int]] = []

    def insert(bd, v):
        if not v:
            return
        r, _ = ech[bd].add(v)
        if r:
            work.append((bd, r))

    for p in relations:
        if not p:
            continue
        bd = poly_bidegree(p)
        if bd in bases:
            insert(bd, to_vec(p, bd))

    while work:
        (g, d), v = work.pop()
        p = to_poly(v, (g, d))
        for g2 in range(0, g_max - g + 1):
            for d2 in range(0, d_max - d + 1):
                if g2 == 0 and d2 == 0:
                    continue
                for m2 in bases[(g2, d2)]:
                    prod = frozenset(mono_mul(m, m2) for m in p)
                    insert((g + g2, d + d2), to_vec(prod, (g + g2, d + d2)))
        if 2 * g <= g_max:
            for s in range(1, d_max - d + 1):
                img = apply_q(s, p)
                if img:
                    insert((2 * g, d + s), to_vec(img, (2 * g, d + s)))

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


# ---------------------------------------------------------------- slope

def slope(m: Monomial) -> Fraction:
    g, d = mono_bidegree(m)
    if g <= 0:
        raise ValueError("slope needs positive grading")
    return Fraction(d, g)


# ---------------------------------------------------------------- standard generators

SIGMA = Generator("s", 1, 0)
NU1 = Generator("n1", 3, 3)
NU2 = Generator("n2", 3, 3)
BETA = Generator("b", 3, 2)
ALPHABET = {"s": SIGMA, "b": BETA, "n1": NU1, "n2": NU2}


# ---------------------------------------------------------------- text syntax

_TOKEN = re.compile(r"[Qq]\[\d+(?:,\d+)*\]|\^\d+|\w+|\S")


def _read(text: str, gens: dict[str, Generator], literal: bool) -> Poly:
    """The one reader of the class syntax that ``render`` writes: terms
    joined by '+', factors by '*', `s^2` powers, `0` the zero class,
    `Q[2,1](s)` upper and `q[1,1](s)` lower towers.

    A literal class has towers only on bare generators, each a normal
    sequence, and no parentheses.  Otherwise towers nest over any
    expression, are applied with ``apply_q`` and Adem-normalized."""
    toks = _TOKEN.findall(text)
    pos = 0

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
                    # lower index: offset by the current degree
                    s += poly_bidegree(p)[1]
                p = apply_q(s, p)
            return p
        raise ValueError(f"unexpected {tok!r} in class {text!r}")

    def power() -> Poly:
        p = atom()
        if peek().startswith("^") and peek() != "^":
            out = ONE
            for _ in range(int(take()[1:])):
                out = poly_mul(out, p)
            return out
        return p

    def term() -> Poly:
        p = power()
        while peek() == "*":
            take()
            p = poly_mul(p, power())
        return p

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
