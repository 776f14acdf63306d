"""Benchmark of f2alg: four golden-checked workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload chart --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare OLD NEW

A run measures one workload for --seconds seconds.  Load model: a closed
loop with one client.  Each pass of the workload runs in a fresh worker
process (``worker.py``), so every pass pays cold caches the way a CLI
invocation does; within a pass each call starts when the previous one
returns, and passes follow one another while the next is expected to end
within --seconds, so at most two processes exist at once.  Every output
is checked (golden bytes, independent oracles, digests recorded from the
seed commit); a failed check counts in ``failed`` and in ``error_rate``.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
medians over passes of wall_ref_s, cpu_ref_s and peak_rss_mb, and the
median setup_s over every worker started.  wall_ref_s and cpu_ref_s are
a pass's wall and CPU time at reference machine speed: the speed of a
shared host drifts by up to 2x over tens of seconds, so each worker
samples it during the pass (``worker.SpeedProbe``) and scales its times
by it.  The raw wall_s and cpu_s are printed and stored beside them.

With --trace 1 untraced and traced passes alternate; the run reports the
per-layer metrics of the traced passes (``tracer.py``), which run
without the probe, trace.overhead_frac (raw traced over raw untraced
wall time, minus 1) and trace.uncovered_frac (share of traced wall time
that no layer span covers).  ``--workload all`` runs every workload both ways and
prints both tables.

Each run writes ``perfbench/results/<workload>-seed<n>-trace<t>-<ns>.json``
with the Python version, nproc, commit, source digest, seed, /proc/loadavg
at start and end, and the raw record of every pass, including the speed
scale its probe measured.  ``--compare OLD NEW`` reads two such files, or
two directories of them, and prints for each workload and end-to-end
metric both sides' median and quartiles, the fraction of pairs NEW wins
and a verdict under the bounds of BENCHMARK.json (the raw wall_s and
cpu_s, which have no bound, get none).  With several runs of a workload
on a side the samples are the runs' values, with one run they are its
passes.

The last line of standard output is the JSON result.  The exit code is 1
when a worker fails and 2 when the checkout has no f2alg sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RESULTS = HERE / "results"

# set-up samples per run: every pass gives one, set-up-only workers started
# after each pass (spread over the run, so that one slow moment of a shared
# machine does not shift them all) and at the end give the rest
SETUP_SAMPLES = 15
SETUP_ONLY_PER_PASS = 1
WORKER_TIMEOUT_S = 150

# raw pass times: printed, stored and compared, but not BENCHMARK.json
# metrics, because the drift of a shared host moves them past any bound
RAW = ("wall_s", "cpu_s")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- statistics

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------- running

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def start_worker(workload: str, seed: int, trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s: {' '.join(cmd)}") from e
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and a digest of
    the package sources either way."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "f2alg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes of one workload for `seconds`; returns the result document."""
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            **source_identity(), "loadavg_start": loadavg()}
    passes, setups = [], []

    def setup_only(n: int) -> list[float]:
        return [start_worker(workload, seed, setup_only=True)["setup_s"] for _ in range(n)]

    t0 = time.perf_counter()
    longest = 0.0
    # a pass starts only when the longest one so far would still end
    # within `seconds`, so a run's length does not grow when the machine
    # is slow; the first pass, and with tracing one traced pass, always run
    while not passes or time.perf_counter() - t0 + longest <= seconds or \
            (trace and not any(p["traced"] for p in passes)):
        traced = trace and len(passes) % 2 == 1
        ts = time.perf_counter()
        rec = start_worker(workload, seed, traced)
        rec["traced"] = traced
        passes.append(rec)
        setups += [rec["setup_s"]] + setup_only(SETUP_ONLY_PER_PASS)
        longest = max(longest, time.perf_counter() - ts)
    setups += setup_only(SETUP_SAMPLES - len(setups))
    meta["loadavg_end"] = loadavg()

    checks = [c for p in passes for c in p["checks"]]
    failed = sorted({f"{step}: {label}" for p in passes for step, label, ok in p["checks"] if not ok})
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    stats = {"setup_s": summarize(setups)}
    for m in RAW + ("wall_ref_s", "cpu_ref_s", "peak_rss_mb", "speed_scale"):
        stats[m] = summarize([p[m] for p in plain])
    if traced:
        for m in traced[0]["layers"]:
            stats[m] = summarize([p["layers"][m] for p in traced])
        stats["trace.wall_s"] = summarize([p["wall_s"] for p in traced])
        stats["trace.overhead_frac"] = {
            "median": stats["trace.wall_s"]["median"] / stats["wall_s"]["median"] - 1,
            "n": len(traced)}
    n_failed = sum(not ok for *_, ok in checks)
    return {
        "meta": meta, "passes": passes, "setup_samples": setups, "stats": stats,
        "attempted": len(checks), "failed": n_failed, "failed_checks": failed,
        "error_rate": n_failed / len(checks),
    }


def write_result(doc: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    m = doc["meta"]
    path = RESULTS / f"{m['workload']}-seed{m['seed']}-trace{m['trace']}-{time.time_ns()}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def metric_line(doc: dict, trace: bool, spec: dict) -> dict:
    """The contract line's metrics: end-to-end untraced, per-layer traced."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": doc["stats"][m["name"]]["median"], "unit": m["unit"]}
            for m in wanted}


def print_table(workload: str, doc: dict, trace: bool, spec: dict) -> None:
    wanted = spec["per_layer"] if trace else \
        spec["end_to_end"] + [{"name": m, "unit": "s"} for m in RAW]
    print(f"== {workload} ({'traced' if trace else 'untraced'}), "
          f"error_rate {doc['error_rate']:.4g} ({doc['failed']}/{doc['attempted']} checks failed), "
          f"speed scale {doc['stats']['speed_scale']['median']:.4g}")
    for f in doc["failed_checks"]:
        print(f"   FAILED {f}")
    for m in wanted:
        s = doc["stats"][m["name"]]
        spread = f" [{s['q1']:.6g}, {s['q3']:.6g}]" if "q1" in s else ""
        print(f"   {m['name']:<34} {s['median']:.6g}{spread} {m['unit']} (n={s['n']})")


# ---------------------------------------------------------------- compare

def load_side(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Result documents keyed by (workload, trace)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    side: dict[tuple[str, int], list[dict]] = {}
    for f in files:
        doc = json.loads(f.read_text())
        side.setdefault((doc["meta"]["workload"], doc["meta"]["trace"]), []).append(doc)
    return side


def samples(docs: list[dict], metric: str) -> list[float]:
    """Per-run values with several runs, per-pass values with one."""
    if len(docs) >= 2:
        if metric == "error_rate":
            return [d["error_rate"] for d in docs]
        return [d["stats"][metric]["median"] for d in docs]
    (doc,) = docs
    if metric == "setup_s":
        return doc["setup_samples"]
    if metric == "error_rate":
        return [sum(not ok for *_, ok in p["checks"]) / len(p["checks"]) for p in doc["passes"]]
    if metric == "trace.overhead_frac":
        return [doc["stats"][metric]["median"]]
    if doc["meta"]["trace"]:
        return [p["layers"][metric] for p in doc["passes"] if p["traced"]]
    return [p[metric] for p in doc["passes"] if not p["traced"]]


def pairs_won(old: list[float], new: list[float], lower_better: bool) -> float:
    """Fraction of (old[i], new[i]) pairs in which new is better; ties win nothing."""
    sign = 1 if lower_better else -1
    pairs = list(zip(old, new))
    return sum(sign * (b - a) < 0 for a, b in pairs) / len(pairs)


def verdict(old: list[float], new: list[float], bound: float, lower_better: bool):
    """(fraction of pairs new wins, verdict) by the rules of BENCHMARK.json."""
    sign = 1 if lower_better else -1  # sign * (new - old) > 0 means worse
    won = pairs_won(old, new, lower_better)
    q1, med, q3 = quartiles(old)
    mo, mn = statistics.median(old), statistics.median(new)
    if med == 0:
        return won, "regression" if sign * (mn - mo) > 0 else "same"
    all_better = all(sign * (b - a) < 0 for a in old for b in new)
    if (q3 - q1) / med > bound and not all_better:
        return won, "unresolved"
    if sign * (mn - mo) / mo > bound:
        return won, "regression"
    if won >= 0.9 and abs(mn - mo) > q3 - q1:
        return won, "better"
    return won, "same"


def compare(old_path: Path, new_path: Path, spec: dict) -> int:
    """Print both sides per workload and metric; end-to-end metrics get a
    verdict under their bound, per-layer metrics (from traced runs) none."""
    old, new = load_side(old_path), load_side(new_path)
    e2e = [(m["name"], m["unit"], m["bound"], m["better"] == "lower") for m in spec["end_to_end"]]
    e2e.append(("error_rate", "fraction", 0.0, True))
    e2e += [(m, "s", None, True) for m in RAW]
    layers = [(m["name"], m["unit"], None, m["better"] == "lower") for m in spec["per_layer"]]
    regressions = 0
    for (w, trace) in sorted(set(old) & set(new)):
        scale = [statistics.median(d["stats"]["speed_scale"]["median"] for d in side[w, trace])
                 for side in (old, new)]
        print(f"== {w} ({'traced' if trace else 'untraced'}): "
              f"{len(old[w, trace])} run(s) old, {len(new[w, trace])} run(s) new, "
              f"speed scale {scale[0]:.4g} old, {scale[1]:.4g} new")
        for name, unit, bound, lower in layers if trace else e2e:
            a, b = samples(old[w, trace], name), samples(new[w, trace], name)
            won, v = verdict(a, b, bound, lower) if bound is not None else \
                (pairs_won(a, b, lower), "-")
            regressions += v == "regression"
            qa, qb = quartiles(a), quartiles(b)
            print(f"   {name:<34} old {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {unit}  "
                  f"won {won:.2f} of {min(len(a), len(b))} pairs  {v}")
    print(json.dumps({"regressions": regressions}))
    return 0


# ---------------------------------------------------------------- entry

def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if not args.workload:
        ap.error("--workload or --compare is required")
    if not (ROOT / "src" / "f2alg" / "__init__.py").is_file():
        print(f"perfbench: no f2alg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    todo = [(w, t) for w in names for t in (False, True)] if args.workload == "all" \
        else [(args.workload, bool(args.trace))]
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for w, trace in todo:
            doc = run(w, args.seed, args.seconds, trace)
            path = write_result(doc)
            print_table(w, doc, trace, spec)
            print(f"   result file: {os.path.relpath(path, ROOT)}")
            line["attempted"] += doc["attempted"]
            line["failed"] += doc["failed"]
            prefix = f"{w}." if args.workload == "all" else ""
            line["metrics"].update({prefix + k: v for k, v in metric_line(doc, trace, spec).items()})
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    line["correct"] = line["failed"] == 0
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
