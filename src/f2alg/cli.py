"""Command-line surface for the exact F2 algebra engines.

One binary, one subcommand per computation: Cotor charts, cone charts
with module actions, filtration spectral-sequence pages, Adem
normalization, dual Steenrod actions, free/quotient bases, cell-chart
survivor reports, stability Hopf algebras from cell specs, group
homology, and the periodic-family bidegree table.

Exit codes: 0 success, 2 invalid input, 3 budget exceeded, 4 internal
invariant violation.  Identical arguments produce byte-identical output;
argument files can be passed as @path (one token per line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import cellfilt, cellhopf, dyer_lashof as dl, grouphom, mayss
from .dyer_lashof import ALPHABET, eval_expr
from .hopf import WindowError, build_a1_star, build_delta_cgl, check_budget
from .minres import MinimalResolution, chart_rows, ring_chart_names

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

SCHEMA_PREFIX = "f2alg"

# relations presenting the stability quotient of the free algebra on
# sigma, nu1, nu2
STABILITY_RELATIONS = ("s*Q[1](s)", "s*Q[3](s)", "s^2*Q[2](s)", "s*n1", "s*n2")

# verification window for family detecting classes: every row with i <= 3,
# whose largest detector y128^3*h11^2.z32 sits at (43, 28); the products
# are chain-map lifts on minimal resolutions, which reach t = 43 in
# hundredths of a second
FAMILY_WINDOW = (43, 28)

# desk-scale ceilings (2 vCPUs, Python 3.11):
# - a basis is read off one walk of its whole box, held in memory: a cellss
#   spot takes 0.7 s and 34 MB at (g, d) = (20, 20), 4.2 s and 132 MB at
#   (24, 24); wbasis --g --d 0.55 s and 30 MB at (18, 18) and 1.4 s and
#   57 MB at (20, 20) on all four generators;
# - wbasis --quotient on all four generators takes 0.35 s at --gmax 14
#   --dmax 12 and 0.55 s at (14, 14), start-up included; in process 0.25 s
#   at (14, 14), 0.65 s at (14, 16) and 0.3 s at (20, 12);
# - adem and nishida read at most dl.MAX_CLASS_FACTORS = 500 factors per
#   monomial: s^500 takes 0.04 s, nishida --a 1000 on Q[1](s)^500 0.5 s;
# - nishida is zero once --a passes the class's homological degree, found
#   per tower factor: --a 1000 takes 0.2 s, most of it start-up, on Q[1](s)
#   and on Q[5](s)*Q[6](s)*Q[7](s); below the degree the work grows with the
#   Cartan splits (``dl.cartan_splits``), counted before any is computed.
#   In process, Q[1000](s)*Q[1001](s)*Q[1002](s) takes 0.002 s for its 351
#   splits at --a 25, 0.005 s for 1326 at 50, 0.007 s for 1953 at 61 (0.006 s
#   on Q[1000](s)^3), 0.017 s for 5151 at 100 and 0.25 s for 80601 at 400,
#   and Q[1000](s)*Q[1001](s) 0.05 s for its 1001 splits at --a 1000; one
#   deep tower has a single split, yet Q[64,32,16,8,4,2,1](s) takes 3.4-4.3 s
#   at --a 30;
# - families --no-verify takes 0.2 s and 23 MB at --max-i 1000, 1.0 s and
#   91 MB at 10^4, 84 s and 7.6 GB at 10^6;
# - delta on cgl.cells takes 0.03-0.04 s and 24 MB at bound 20, 0.11-0.12 s
#   at 26 and 0.72-0.78 s and 84 MB at 40, in process, where it writes 3 MB
#   of JSON;
# - grouphom resolves only a Sylow 2-subgroup and its intersections with
#   its conjugates (``grouphom.sylow_homology_dims``) and never tabulates
#   G: --dmax 6 takes 0.011-0.02 s and 17 MB on GL(3,2), 0.07-0.08 s and
#   17 MB on S6 (order 720), in process; a 2-group is its own Sylow
#   subgroup and is resolved whole, so UT(4,2) (order 64) takes 1.7-2.8 s
#   and 24 MB at --dmax 5, the spread being the host's;
# - may --page 5 --dmax 10 takes 0.3-0.4 s and 26 MB at g <= 16 (0.3-0.5 s
#   and 29 MB with --cone), 0.5-0.8 s and 48 MB at 17 (0.8-1.3 s and 54 MB
#   with --cone), 1.4-2.0 s and 129 MB at 18 (1.8-3.1 s and 139 MB with
#   --cone), the spread being the host's
MAX_CHART_G = 20
MAX_MAY_G = 18
MAX_SPOT_GD = 20
MAX_WBASIS_GD = 18
MAX_QUOTIENT_GD = 14
MAX_NISHIDA_A = 1000
MAX_NISHIDA_SPLITS = 2000
MAX_FAMILY_I = 1000
MAX_DELTA_BOUND = 40


# ---------------------------------------------------------------- output plumbing

def _emit(text: str, args) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _json(schema: str, doc: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace, schema-tagged."""
    doc = {"schema": f"{SCHEMA_PREFIX}.{schema}/1", **doc}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _table(args, schema, columns, rows, comments=()) -> str:
    """The one table writer: TSV with '# ' note lines, or canonical JSON."""
    if args.format == "json":
        return _json(schema, {"columns": list(columns), "rows": [list(r) for r in rows],
                              "notes": list(comments)})
    lines = ["\t".join(columns)]
    lines.extend("\t".join(str(c) for c in r) for r in rows)
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- subcommands

def _algebra(name: str):
    if name == "a1":
        return build_a1_star()
    if name == "cgl":
        return build_delta_cgl()
    raise ValueError(f"unknown algebra {name!r}")


def cmd_cotor(args) -> str:
    check_budget("chart window g", args.gmax, MAX_CHART_G)
    res = MinimalResolution(_algebra(args.algebra).dualize(), 0, args.gmax)
    names = ring_chart_names(args.gmax, args.dmax) if args.algebra == "a1" else None
    rows = chart_rows(res, args.gmax, args.dmax, names)
    return _table(args, "chart", ["g", "d", "dim", "class_names"], rows)


def cmd_cone(args) -> str:
    # Ext over A(1) of its two-cell module is the homology of the h10 cone
    check_budget("chart window g", args.gmax, MAX_CHART_G)
    a1 = build_a1_star().dualize()
    cone = MinimalResolution(a1, 1, args.gmax)
    rows = chart_rows(cone, args.gmax, args.dmax)
    comments = []
    if args.gmax >= 4 and args.dmax >= 3:
        ring = MinimalResolution(a1, 0, 2)
        h10, h11 = ring.unique_class(1, 0), ring.unique_class(2, 1)
        lhs = cone.yoneda(ring, h10, cone.unique_class(3, 2))
        rhs = cone.yoneda(ring, h11, cone.yoneda(ring, h11, cone.unique_class(0, 0)))
        if lhs != rhs or lhs.bits == 0:
            raise AssertionError("module action fixture failed")
        comments.append("action h10.z32 = h11^2.z00: ok")
    return _table(args, "chart", ["g", "d", "dim", "class_names"], rows, comments)


def cmd_may(args) -> str:
    check_budget("may window g", args.gmax, MAX_MAY_G)
    if args.cone and args.gmax < 1:
        raise ValueError("--cone needs --gmax >= 1")  # the cone cycle h10 sits at g = 1
    fc = mayss.build_filtered(build_a1_star(), g_max=args.gmax, s_max=args.gmax)
    if args.cone:
        fc = mayss.filtered_cone(fc, fc.complex.unique_class(1, 0))
    p = mayss.page(fc, args.page, args.gmax, args.dmax)
    rows = [(p.r, g, d, f, dim) for (g, d, f), dim in sorted(p.dims.items())]
    return _table(args, "sspage", ["r", "g", "d", "f", "dim"], rows)


def cmd_adem(args) -> str:
    return dl.render(eval_expr(args.expr)) + "\n"


def cmd_nishida(args) -> str:
    check_budget("nishida --a", args.a, MAX_NISHIDA_A)
    p = eval_expr(args.expr)
    check_budget("nishida Cartan splits", dl.cartan_splits(args.a, p), MAX_NISHIDA_SPLITS)
    return dl.render(dl.dual_steenrod(args.a, p)) + "\n"


def cmd_wbasis(args) -> str:
    names = args.gens.split(",")
    unknown = [n for n in names if n not in ALPHABET]
    if unknown:
        raise ValueError(f"unknown generator {unknown[0]!r}; "
                         f"choose from {','.join(ALPHABET)}")
    if len(set(names)) != len(names):
        raise ValueError(f"--gens: repeated generator in {args.gens!r}")
    gens = [ALPHABET[n] for n in names]
    if args.quotient:
        check_budget("quotient --gmax and --dmax", max(args.gmax, args.dmax),
                     MAX_QUOTIENT_GD)
        rels = [dl.parse(r, ALPHABET) for r in STABILITY_RELATIONS]
        dims = dl.ideal_quotient_dims(gens, rels, args.gmax, args.dmax)
        rows = [(g, d, dims.get((g, d), 0))
                for g in range(args.gmax + 1) for d in range(args.dmax + 1)]
        return _table(args, "dims", ["g", "d", "dim"], rows)
    check_budget("basis --g and --d", max(args.g, args.d), MAX_WBASIS_GD)
    rows = [(args.g, args.d, dl.render_mono(m))
            for m in dl.free_basis(gens, args.g, args.d)]
    return _table(args, "basis", ["g", "d", "monomial"], rows)


def _parse_spots(text: str):
    out = []
    for part in text.split(";"):
        try:
            g, d, f = (int(x) for x in part.split(","))
        except ValueError:
            raise ValueError(f"--spots: bad spot {part!r}, expected g,d,f") from None
        out.append((g, d, f))
    return out


def cmd_cellss(args) -> str:
    if args.decls is None:
        decls = cellfilt.load_declarations()
    elif Path(args.decls).is_file():
        decls = cellfilt.parse_declarations(Path(args.decls).read_text())
    else:
        raise ValueError(f"--decls: not a file: {args.decls!r}")
    spots = _parse_spots(args.spots)
    for g, d, _ in spots:
        check_budget("spot g and d", max(g, d), MAX_SPOT_GD)
    # each (g, d) is enumerated once, the reconciliation's (12, 8) included
    enumerated = {gd: cellfilt.enumerate_mod_sigma(*gd)
                  for gd in {(12, 8), *((g, d) for g, d, _ in spots)}}
    charts = [
        cellfilt.propagate(cellfilt.build_chart(g, d, f, enumerated[(g, d)]), decls)
        for g, d, f in spots
    ]
    comments = []
    rec = cellfilt.chart_reconciliation(cellfilt.TABLE_12_8, enumerated[(12, 8)])
    for m in rec["enumerated_only"]:
        comments.append(f"enumerated but not charted at (12,8): {m}")
    for m in rec["recorded_only"]:
        comments.append(f"charted but not enumerated at (12,8): {m}")
    rep = cellfilt.reading_report(charts, decls)
    for name, expr, listed, computed in rep["discrepancies"]:
        comments.append(
            f"filtration discrepancy {name}: {expr} recorded {listed} rule {computed}"
        )
    comments.append(
        "survivors agree under both filtration readings: "
        + ("yes" if rep["agree"] else "NO")
    )
    return _table(args, "survivors",
                  ["g", "d", "f", "p", "class", "status", "killed_by"],
                  cellfilt.survivor_rows(charts), comments)


def cmd_delta(args) -> str:
    check_budget("delta bound", args.bound, MAX_DELTA_BOUND)
    path = Path(args.cells)
    spec = (cellhopf.parse_cells(path.read_text()) if path.is_file()
            else cellhopf.load_cells(args.cells))
    pres = cellhopf.delta_of_cells(spec, args.bound)
    return _json("delta", {
        "generators": [list(g) for g in pres.generators],
        "flags": list(pres.flags),
        "log": list(pres.log),
        "hopf": pres.hopf.to_doc(),
    })


def cmd_grouphom(args) -> str:
    path = Path(args.group)
    text = path.read_text() if path.is_file() else args.group
    g = grouphom.parse_group(text)
    # through H_1 at least, for the abelianization cross-check
    dims = grouphom.sylow_homology_dims(g, max(args.dmax, 1))
    # one table cell: a literal's lines joined by "; ", no tab or newline
    lines = filter(None, map(str.strip, args.group.splitlines()))
    name = g.name or "; ".join(lines).replace("\t", " ")
    if dims[1] != grouphom.abelianization_f2_dim(g):
        raise AssertionError("H_1 disagrees with the abelianization oracle")
    rows = [(name, d, dims[d]) for d in range(args.dmax + 1)]
    return _table(args, "grouphom", ["group", "d", "dim"], rows,
                  ["H_1 abelianization cross-check: ok"])


def _family_rows(max_i: int):
    """(family, i, j, g, d, detector) with detector (i, j, base) where
    base names the cone class the detecting product acts on."""
    rows = []
    for i in range(max_i + 1):
        for j in (0, 1, 2):
            rows.append(("alpha", i, j, 12 * i + 2 * j, 8 * i + j, (i, j, "z00")))
        for j in (0, 1, 2):
            rows.append(("gamma", i, j, 12 * i + 2 * j + 3, 8 * i + j + 2, (i, j, "z32")))
        for j in (0, 1, 2):
            rows.append(("u", i, j, 12 * i + 2 * j + 2, 8 * i + j + 1, (i, j, "z32")))
        if i > 0:
            rows.append(("s", i, "", 12 * i - 1, 8 * i - 1, (i, 0, "z00")))
    return rows


def _detector_label(i: int, j: int, base: str) -> str:
    parts = []
    if i:
        parts.append("y128" if i == 1 else f"y128^{i}")
    if j:
        parts.append("h11" if j == 1 else f"h11^{j}")
    head = "*".join(parts)
    return f"{head}.{base}" if head else base


def _detector_spot(i: int, j: int, base: str) -> tuple[int, int]:
    zg, zd = (0, 0) if base == "z00" else (3, 2)
    return zg + 12 * i + 2 * j, zd + 8 * i + j


def cmd_families(args) -> str:
    check_budget("families --max-i", args.max_i, MAX_FAMILY_I)
    rows = _family_rows(args.max_i)
    spots = [_detector_spot(*det) for *_, det in rows]
    checked = [not args.no_verify and g <= FAMILY_WINDOW[0] and d <= FAMILY_WINDOW[1]
               for g, d in spots]
    if any(checked):
        a1 = build_a1_star().dualize()
        ring = MinimalResolution(a1, 0, 12)
        cone = MinimalResolution(a1, 1, max(g for (g, _), c in zip(spots, checked) if c))
        h11, y128 = ring.unique_class(2, 1), ring.unique_class(12, 8)
    results = []
    for (fam, i, j, g, d, (di, dj, base)), check in zip(rows, checked):
        label = _detector_label(di, dj, base)
        if not check:
            status = "unverified" if args.no_verify else "unverified (outside window)"
        else:
            z = cone.unique_class(*_detector_spot(0, 0, base))
            for y in [h11] * dj + [y128] * di:
                z = cone.yoneda(ring, y, z)
            if not z.bits:
                raise AssertionError(f"detecting class {label} vanished")
            status = "nonzero"
        results.append((fam, i, j, g, d, label, status))
    return _table(args, "families",
                  ["family", "i", "j", "g", "d", "detecting_class", "status"],
                  results)


# ---------------------------------------------------------------- driver

def _window(text: str) -> int:
    """argparse type of a window bound: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"window bound must be >= 0, got {value}")
    return value


# name -> (help, command, arguments as (flag, add_argument keywords), the
# formats it writes, the first being the default), in usage order
SUBCOMMANDS = {
    "cotor": ("Cotor chart of a named Hopf algebra", cmd_cotor, [
        ("--algebra", dict(default="a1")),
        ("--gmax", dict(type=_window, default=17)),
        ("--dmax", dict(type=_window, default=10))], ("tsv", "json")),
    "cone": ("chart and module actions of the h10 cone", cmd_cone, [
        ("--gmax", dict(type=_window, default=8)),
        ("--dmax", dict(type=_window, default=6))], ("tsv", "json")),
    "may": ("filtration spectral sequence page dims", cmd_may, [
        ("--page", dict(type=int, default=1)),
        ("--gmax", dict(type=_window, default=14)),
        ("--dmax", dict(type=_window, default=10)),
        ("--cone", dict(action="store_true"))], ("tsv", "json")),
    "adem": ("normalize a class expression", cmd_adem, [
        ("expr", {})], ("tsv",)),
    "nishida": ("dual Steenrod action Sq^a_*", cmd_nishida, [
        ("--a", dict(type=int, required=True)),
        ("expr", {})], ("tsv",)),
    "wbasis": ("free or quotient basis dims", cmd_wbasis, [
        ("--gens", dict(default="s")),
        ("--g", dict(type=_window, default=0)),
        ("--d", dict(type=_window, default=0)),
        ("--quotient", dict(action="store_true")),
        ("--gmax", dict(type=_window, default=6)),
        ("--dmax", dict(type=_window, default=3))], ("tsv", "json")),
    "cellss": ("cell chart survivor report", cmd_cellss, [
        ("--spots", dict(default="12,8,-4;13,8,-5")),
        ("--decls", dict(default=None))], ("tsv", "json")),
    "delta": ("stability Hopf algebra from a cell spec", cmd_delta, [
        ("--cells", dict(default="cgl.cells")),
        ("--bound", dict(type=_window, default=5))], ("json",)),
    "grouphom": ("group homology dims", cmd_grouphom, [
        ("group", {}),
        ("--dmax", dict(type=_window, default=4))], ("tsv", "json")),
    "families": ("periodic family bidegree table", cmd_families, [
        ("--max-i", dict(type=_window, default=1)),
        ("--no-verify", dict(action="store_true"))], ("tsv", "json")),
}


def build_parser(cmd=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of cmd alone, with the same
    usage line."""
    ap = argparse.ArgumentParser(prog="f2alg", fromfile_prefix_chars="@",
                                 description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True,
                            metavar=cmd and "{" + ",".join(SUBCOMMANDS) + "}")
    for name in SUBCOMMANDS if cmd is None else [cmd]:
        help_, fn, arguments, formats = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None)
        p.set_defaults(fn=fn)
    return ap


def _expand(argv, chain=()) -> list[str]:
    """argv with each @file replaced by its lines, expanded in turn, as
    argparse expands them (one argument per line); an @file that names
    itself, directly or through other files, is a ValueError, on which
    argparse would recurse without end."""
    out = []
    for arg in argv:
        if not arg.startswith("@"):
            out.append(arg)
            continue
        path = os.path.realpath(arg[1:])
        if path in chain:
            raise ValueError(f"argument file {arg[1:]!r} names itself")
        out += _expand(Path(arg[1:]).read_text().splitlines(), chain + (path,))
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the @files are expanded once, here, and only the named subcommand's
    # parser is built; with none named, the full parser gives the help,
    # usage and error text, and with a file it cannot read, argparse
    # names the file
    try:
        argv = _expand(argv)
    except OSError:
        pass
    except ValueError as e:
        print(f"error: invalid input: {e}", file=sys.stderr)
        return EXIT_INPUT
    ap = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code else EXIT_OK
    try:
        _emit(args.fn(args), args)
    except WindowError as e:
        print(f"error: budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: invalid input: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (AssertionError, KeyError) as e:
        print(f"error: internal invariant violated: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as e:
        print(f"error: invalid input: {e}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
