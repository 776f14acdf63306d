"""Stability Hopf algebras from ordered cell specifications.

A cell specification lists generator cells (free algebra generators with
a bidegree) and relation cells (a cell attached along a decomposable
class, with an optional decomposition of the attaching map through the
multiplication).  Processing the cells in order produces a polynomial
Hopf algebra presentation up to a grading bound by three rules, applied
at the bidegree (g, d) of the attaching class (the cell itself sits at
(g, d + 1)):

  (i)   d >= g: the bar image lies above the diagonal; no effect.
  (ii)  d + 1 = g: quotient by the bar of the attaching class (a no-op
        whenever the class is decomposable, since bar kills products).
  (iii) d + 2 = g, bar of the attaching class zero, and a decomposition
        q = sum a_i (x) b_i supplied: adjoin a bracket generator in
        grading g with reduced coproduct sum bar(a_i) (x) bar(b_i).

Nothing beyond these rules is attempted; cells outside their hypotheses
are rejected with a diagnostic.  Where the (g, d+1) cell bidegree would
select a different rule than the class bidegree and the outcomes differ,
an informational flag is recorded (this happens for both bracket cells
of the shipped specs, whose published derivation reads the hypotheses at
the cell).  Decomposition pairs off the stated grading hypothesis are
tolerated, with a flag, exactly when their bar vanishes anyway.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import NamedTuple, Optional

from .dyer_lashof import (
    Generator,
    Poly,
    ZERO,
    bar_class,
    parse,
    poly_add,
    poly_bidegree,
    poly_mul,
    render,
)
from .hopf import PolyHopf


class Cell(NamedTuple):
    name: str
    g: int
    d: int
    kind: str  # "gen" | "rel"
    attach: Optional[Poly]
    q: tuple  # of (Poly, Poly) pairs


# ---------------------------------------------------------------- spec files

_GEN = re.compile(r"^gen\s+(\w+)\s+\((\d+),(\d+)\)$")
_REL = re.compile(
    r"^rel\s+(\w+)\s+\((\d+),(\d+)\)\s+attach=(\S+)(?:\s+q=(\S+))?$"
)


def _parse_q(text: str, alphabet) -> tuple:
    """Pairs a:b joined by '+'; a '+' segment without ':' continues the
    right side of the previous pair."""
    groups: list[tuple[str, list[str]]] = []
    for seg in text.split("+"):
        if ":" in seg:
            a, b = seg.split(":", 1)
            groups.append((a, [b]))
        else:
            if not groups:
                raise ValueError(f"decomposition must start with a pair: {text!r}")
            groups[-1][1].append(seg)
    return tuple(
        (parse(a, alphabet), parse("+".join(bs), alphabet)) for a, bs in groups
    )


def parse_cells(text: str) -> tuple[Cell, ...]:
    cells = []
    alphabet: dict[str, Generator] = {}
    names = set()
    for raw in text.splitlines():
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if (m := _GEN.match(line)) is not None:
            name, g, d = m.group(1), int(m.group(2)), int(m.group(3))
            if name in names:
                raise ValueError(f"duplicate cell name {name!r}")
            names.add(name)
            alphabet[name] = Generator(name, g, d)
            cells.append(Cell(name, g, d, "gen", None, ()))
        elif (m := _REL.match(line)) is not None:
            name, g, d = m.group(1), int(m.group(2)), int(m.group(3))
            if name in names:
                raise ValueError(f"duplicate cell name {name!r}")
            names.add(name)
            attach = parse(m.group(4), alphabet)
            q = _parse_q(m.group(5), alphabet) if m.group(5) else ()
            cells.append(Cell(name, g, d, "rel", attach, q))
        else:
            raise ValueError(f"bad cell line: {raw!r}")
    return tuple(cells)


def load_cells(name: str) -> tuple[Cell, ...]:
    """A spec packaged in ``f2alg.data``, by file name."""
    data = resources.files("f2alg.data")
    known = sorted(p.name for p in data.iterdir() if p.name.endswith(".cells"))
    if name not in known:
        raise ValueError(f"unknown cell spec {name!r}; choose from {','.join(known)}")
    return parse_cells(data.joinpath(name).read_text())


# ---------------------------------------------------------------- bracket coproducts

def bracket_coproduct(q: tuple) -> tuple[list, list[str]]:
    """Bars of a decomposition: [(bar a_i, bar b_i)] with zero terms
    dropped, plus informational flags for pairs off the d+1 = g > 0
    hypothesis whose contribution vanishes anyway (off-hypothesis pairs
    contributing a nonzero term are errors)."""
    terms = []
    flags = []
    for a, b in q:
        ab, bb = bar_class(a), bar_class(b)
        off = []
        for side, p in (("left", a), ("right", b)):
            g, d = poly_bidegree(p)
            if not (d + 1 == g > 0):
                off.append(f"{side} factor {render(p)} at ({g},{d})")
        if off:
            if ab == ZERO or bb == ZERO:
                flags.append(
                    "; ".join(off) + " off the d+1=g hypothesis; the "
                    "term's bar contribution vanishes, term dropped"
                )
                continue
            raise ValueError(
                "; ".join(off)
                + " violates d+1=g>0 with nonzero bar contribution"
            )
        if ab != ZERO and bb != ZERO:
            terms.append((ab, bb))
    return terms, flags


# ---------------------------------------------------------------- the three rules

def _rule_for(g: int, d: int) -> str:
    if d >= g:
        return "noop"
    if d + 1 == g:
        return "quotient"
    if d + 2 == g:
        return "bracket"
    return "out-of-range"


class DeltaPresentation(NamedTuple):
    hopf: PolyHopf
    generators: tuple  # (name, grading)
    flags: tuple
    log: tuple


def delta_of_cells(cells: tuple[Cell, ...], bound: int) -> DeltaPresentation:
    """Process the cells in order and assemble the resulting polynomial
    Hopf algebra up to the grading bound (Hopf axioms checked, at its
    generators); only the generators within the bound are listed."""
    gens: list[tuple[str, int]] = []
    # reduced coproducts as lists of (left, right) exponent dicts by name
    reduced: dict[str, list] = {}
    primitives: set[str] = set()  # the adjoined primitives, by barred name
    flags: list[str] = []
    log: list[str] = []

    def hopf_monomial(p_mono) -> dict:
        """A monomial over barred alphabet generators as exponents of the
        presentation's generators; every factor must be a bare diagonal
        generator already present."""
        out: dict[str, int] = {}
        for gen, seq in p_mono:
            if seq or gen.name not in primitives:
                raise ValueError(
                    f"bar value involves {gen.name} with Q-tower {seq}; "
                    "not expressible in the diagonal presentation"
                )
            out[gen.name] = out.get(gen.name, 0) + 1
        return out

    for cell in cells:
        rule = _rule_for(cell.g, cell.d)
        if cell.kind == "gen":
            if cell.d == cell.g - 1:
                bname = cell.name + "b"
                gens.append((bname, cell.g))
                reduced[bname] = []
                primitives.add(bname)
                log.append(f"gen {cell.name}: adjoined primitive {bname}")
            elif cell.d >= cell.g:
                log.append(f"gen {cell.name}: above the diagonal, no effect")
            else:
                raise ValueError(
                    f"generator cell {cell.name} at ({cell.g},{cell.d}) "
                    "lies below the diagonal"
                )
            continue

        bd = poly_bidegree(cell.attach)
        if bd != (cell.g, cell.d):
            raise ValueError(
                f"cell {cell.name}: attaching class sits at {bd}, "
                f"declared ({cell.g},{cell.d})"
            )
        cell_rule = _rule_for(cell.g, cell.d + 1)

        if rule == "noop":
            log.append(f"rel {cell.name}: attaching class above the diagonal, no effect")
            action = "noop"
        elif rule == "quotient":
            xbar = bar_class(cell.attach)
            if xbar == ZERO:
                log.append(f"rel {cell.name}: bar of attaching class vanishes, no effect")
                action = "noop"
            else:
                exps = [hopf_monomial(m) for m in xbar]
                if len(exps) == 1 and sum(exps[0].values()) == 1:
                    (dead,) = exps[0]
                    if dead not in reduced:
                        raise ValueError(
                            f"rel {cell.name}: generator {dead} is already removed"
                        )
                    gens[:] = [gn for gn in gens if gn[0] != dead]
                    reduced.pop(dead)
                    log.append(f"rel {cell.name}: removed generator {dead}")
                    action = "quotient"
                else:
                    raise ValueError(
                        f"rel {cell.name}: quotient by non-generator class "
                        f"{render(xbar)} is outside the worked rules"
                    )
        elif rule == "bracket":
            if bar_class(cell.attach) != ZERO:
                raise ValueError(
                    f"rel {cell.name}: bracket rule needs vanishing bar, got "
                    f"{render(bar_class(cell.attach))}"
                )
            if not cell.q:
                raise ValueError(
                    f"rel {cell.name}: bracket rule needs a decomposition"
                )
            recomposed = poly_add(*(poly_mul(a, b) for a, b in cell.q))
            if recomposed != cell.attach:
                raise ValueError(
                    f"rel {cell.name}: decomposition multiplies to "
                    f"{render(recomposed)}, not the attaching class"
                )
            terms, qflags = bracket_coproduct(cell.q)
            flags.extend(f"{cell.name}: {fl}" for fl in qflags)
            pairs = []
            for ab, bb in terms:
                for ma in ab:
                    for mb in bb:
                        pairs.append((hopf_monomial(ma), hopf_monomial(mb)))
            gens.append((cell.name, cell.g))
            reduced[cell.name] = pairs
            log.append(f"rel {cell.name}: adjoined bracket generator in grading {cell.g}")
            action = "bracket"
        else:
            raise ValueError(
                f"rel {cell.name} at ({cell.g},{cell.d}) violates d >= g-2 > 0"
            )

        if cell_rule != rule and action != "noop":
            flags.append(
                f"{cell.name}: class bidegree ({cell.g},{cell.d}) selects the "
                f"{rule} rule but the cell bidegree ({cell.g},{cell.d + 1}) "
                f"would select {cell_rule}; the class reading is used"
            )

    order = {name: i for i, (name, _) in enumerate(gens)}

    def exps(d: dict) -> tuple[int, ...]:
        out = [0] * len(gens)
        for name, e in d.items():
            if name not in order:
                raise ValueError(f"coproduct references removed generator {name}")
            out[order[name]] = e
        return tuple(out)

    zero = tuple(0 for _ in gens)
    gen_coproducts = []
    for i, (name, _) in enumerate(gens):
        unit = tuple(1 if k == i else 0 for k in range(len(gens)))
        cop = [(unit, zero), (zero, unit)]
        cop.extend((exps(l), exps(r)) for l, r in reduced[name])
        gen_coproducts.append(cop)

    h = PolyHopf(
        [(name, g, None) for name, g in gens],
        gen_coproducts,
        max_grading=bound,
        truncated=True,
    )
    within = tuple(gn for gn in gens if gn[1] <= bound)
    return DeltaPresentation(h, within, tuple(flags), tuple(log))
