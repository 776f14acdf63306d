"""Layer spans recorded from outside f2alg.

``Tracer.install`` replaces the public functions and methods listed in
``SPANS`` with timing wrappers and ``Tracer.uninstall`` puts the originals
back.  Each span name is the per-layer metric it feeds, and spans are
aggregated in memory per name (calls, total and self time) and, for the
cobar and mayss spans, per (g, s).  A span's self time is its duration
minus the time its child spans cover, so the self times of all spans add
up to the traced wall time less the part no span covers.

Counters are recorded by hooks that see each call's arguments and result.
Time spent in a hook and in a wrapper's bookkeeping after the call is
excluded from every span, so it shows up in the uncovered remainder.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from f2alg import cellfilt, cellhopf, cli, cobar, dyer_lashof, f2linalg, grouphom, hopf, mayss


def _gs(args):
    return args[1], args[2]


def _g_minus_d(args):
    return args[1], args[1] - args[2]


def _spot(args):  # (self, r, g, d, f)
    return args[2], args[2] - args[3]


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.by_gs: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(int)
        self._distinct: dict[str, set] = defaultdict(set)
        self._objects: dict[int, object] = {}  # keeps ids unique for the run
        self._stack: list[float] = []
        self._saved: list = []

    # -- counters
    def distinct(self, kind: str, obj, key) -> bool:
        """True the first time (obj, key) is seen under this kind."""
        self._objects.setdefault(id(obj), obj)
        seen = self._distinct[kind]
        k = (id(obj), key)
        if k in seen:
            return False
        seen.add(k)
        return True

    # -- wrapping
    def wrap(self, fn, name, key=None, hook=None):
        clock, stack, spans, by_gs = time.perf_counter, self._stack, self.spans, self.by_gs

        def traced(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec = spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if key is not None:
                    rec = by_gs[(name, *key(args))]
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - child
                if stack:
                    # the caller's children: this span and its bookkeeping
                    stack[-1] += clock() - t0
            if hook is not None:
                t1 = clock()
                hook(self, args, out)
                if stack:
                    stack[-1] += clock() - t1
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        f2_modules = [m for n, m in list(sys.modules.items())
                      if n == "f2alg" or n.startswith("f2alg.")]
        for owner, attr, name, key, hook in SPANS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, key, hook))
                else:
                    new = self.wrap(raw, name, key, hook)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            else:
                # a module function: rebind it in every f2alg namespace
                # that imported it by name
                fn = getattr(owner, attr)
                new = self.wrap(fn, name, key, hook)
                for mod in f2_modules:
                    for a, v in list(vars(mod).items()):
                        if v is fn:
                            self._saved.append((mod, a, fn))
                            setattr(mod, a, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        self._objects.clear()

    def report(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass whose timed region took wall_s."""
        out = {name: 0.0 for name in TIME_METRICS}
        for name, (_, _, self_s) in self.spans.items():
            out[name] += self_s
        adds = self.counts["f2linalg.echelon_adds"]
        rows = self.counts["cobar.rows_built"]
        out.update({name: self.counts[name] for name in COUNT_METRICS})
        out["cobar.rows_distinct_frac"] = (len(self._distinct["row"]) / rows) if rows else 0.0
        out["f2linalg.echelon_zero_frac"] = (self.counts["echelon_zero"] / adds) if adds else 0.0
        covered = sum(rec[2] for rec in self.spans.values())
        out["trace.uncovered_frac"] = (wall_s - covered) / wall_s
        return out

    def detail(self) -> dict:
        """Raw span aggregates, per name and per (name, g, s)."""
        return {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(self.spans.items())},
            "by_gs": [[n, g, s, c, t, su] for (n, g, s), (c, t, su) in sorted(self.by_gs.items())],
        }


# ---------------------------------------------------------------- hooks

def _row(tr, args, out):
    tr.counts["cobar.rows_built"] += 1
    tr.counts["cobar.row_bits"] += out.bit_count()
    tr.distinct("row", args[0], args[1:4])


def _words(tr, args, out):
    tr.counts["cobar.chain_dim_max"] = max(tr.counts["cobar.chain_dim_max"], len(out))


def _rank_d(tr, args, out):
    if tr.distinct("rank_d", args[0], args[1:3]):
        tr.counts["cobar.rank_sum"] += out


def _cells(tr, args, out):
    tr.counts["f2linalg.matrix_cells"] += args[0].rows * args[0].cols


def _echelon_add(tr, args, out):
    tr.counts["f2linalg.echelon_adds"] += 1
    if out[0] == 0:
        tr.counts["echelon_zero"] += 1


def _pivots(tr, args, out):
    if tr.distinct("pivots", args[0], args[1:3]):
        tr.counts["mayss.pivot_count"] += len(out)


def _page_dim(tr, args, out):
    tr.counts["mayss.page_dim_calls"] += 1


def _resolve(tr, args, out):
    tr.counts["grouphom.res_rank_sum"] += sum(out.ranks)
    width = max(out.ranks) * out.group.order
    tr.counts["grouphom.module_width_max"] = max(tr.counts["grouphom.module_width_max"], width)


def _free_basis(tr, args, out):
    tr.counts["dyer_lashof.basis_total"] += len(out)


def _cli(tr, args, out):
    tr.counts["cli.calls"] += 1


C, F, M, G = cobar, f2linalg, mayss, grouphom

# (owner, attribute, span = metric name, (g, s) key or None, counter hook)
SPANS = [
    (C.CobarComplex, "words", "cobar.words_s", _gs, _words),
    (C.CobarComplex, "word_index", "cobar.words_s", _gs, None),
    (C.CobarComplex, "boundary_bits", "cobar.rows_s", _gs, _row),
    (C.ConeComplex, "boundary_bits", "cobar.rows_s", _gs, _row),
    (C.BigradedComplex, "rank_d", "cobar.rank_d_self_s", _gs, _rank_d),
    (C.BigradedComplex, "homology", "cobar.homology_self_s", _g_minus_d, None),
    (C.BigradedComplex, "image_echelon", "cobar.image_echelon_self_s", _gs, None),
    (C.BigradedComplex, "boundary_matrix", "cobar.boundary_matrix_self_s", _gs, None),
    (C.CobarComplex, "boundary_matrix", "cobar.boundary_matrix_self_s", _gs, None),
    (C.CobarComplex, "product_chain", "cobar.product_s", None, None),
    (C.CobarComplex, "cotor_product", "cobar.product_s", None, None),
    (C.ConeComplex, "module_action", "cobar.product_s", None, None),
    (F.F2Matrix, "rank", "f2linalg.rank_s", None, _cells),
    (F.F2Matrix, "left_kernel", "f2linalg.left_kernel_s", None, _cells),
    (F.F2Matrix, "transpose", "f2linalg.transpose_s", None, None),
    (F.Subspace, "span", "f2linalg.span_s", None, None),
    (F.Subspace, "sum", "f2linalg.span_s", None, None),
    (F.Subspace, "intersect", "f2linalg.span_s", None, None),
    (F.Echelon, "add", "f2linalg.echelon_s", None, _echelon_add),
    (F.Echelon, "reduce", "f2linalg.echelon_s", None, None),
    (F.F2Matrix, "solve", "f2linalg.solve_s", None, None),
    (M, "build_filtered", "mayss.layer_s", None, None),
    (M, "filtered_cone", "mayss.layer_s", None, None),
    (M.FilteredComplex, "layer", "mayss.layer_s", _gs, None),
    (M.FilteredComplex, "pivots", "mayss.pivots_self_s", _gs, _pivots),
    (M.FilteredComplex, "page_dim", "mayss.page_dim_s", _spot, _page_dim),
    (M, "page", "mayss.page_dim_s", None, None),
    (M.FilteredComplex, "spot", "mayss.spot_s", _spot, None),
    (M.FilteredComplex, "ztilde", "mayss.spot_s", _gs, None),
    (M.FilteredComplex, "differential_matrix", "mayss.spot_s", _spot, None),
    (M, "einfty_report", "mayss.einfty_self_s", None, None),
    (G, "builtin_group", "grouphom.group_s", None, None),
    (G, "parse_group", "grouphom.group_s", None, None),
    (G.PermGroup, "__init__", "grouphom.group_s", None, None),
    (G, "resolve", "grouphom.resolve_self_s", None, _resolve),
    (G, "homology_dims", "grouphom.homology_dims_s", None, None),
    (G, "tensored_boundary", "grouphom.homology_dims_s", None, None),
    (G, "abelianization_f2_dim", "grouphom.abelianization_s", None, None),
    (dyer_lashof, "free_basis", "dyer_lashof.free_basis_s", None, _free_basis),
    (dyer_lashof, "ideal_quotient_dims", "dyer_lashof.closure_self_s", None, None),
    (dyer_lashof, "apply_q", "dyer_lashof.apply_q_s", None, None),
    (dyer_lashof, "dual_steenrod", "dyer_lashof.dual_steenrod_s", None, None),
    (cellfilt, "build_chart", "cellfilt.report_s", None, None),
    (cellfilt, "propagate", "cellfilt.report_s", None, None),
    (cellfilt, "reading_report", "cellfilt.report_s", None, None),
    (cellfilt, "chart_reconciliation", "cellfilt.report_s", None, None),
    (cellhopf, "delta_of_cells", "cellhopf.delta_s", None, None),
    (hopf, "build_a1_star", "hopf.build_s", None, None),
    (hopf, "build_delta_cgl", "hopf.build_s", None, None),
    (cli, "main", "cli.self_s", None, _cli),
]

TIME_METRICS = sorted({name for _, _, name, _, _ in SPANS})
COUNT_METRICS = [
    "cobar.rows_built", "cobar.row_bits", "cobar.chain_dim_max", "cobar.rank_sum",
    "f2linalg.echelon_adds", "f2linalg.matrix_cells",
    "mayss.pivot_count", "mayss.page_dim_calls",
    "grouphom.res_rank_sum", "grouphom.module_width_max",
    "dyer_lashof.basis_total", "cli.calls",
]
