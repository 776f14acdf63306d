"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Prints one JSON record on stdout: set-up time, wall and CPU time of the
timed calls, the same at reference machine speed (``SpeedProbe``), peak
RSS, the outcome of every check, each step's output digest and, with
--trace, the per-layer span report.  Exits 2 when the checkout has no
f2alg sources to measure.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


class SpeedProbe:
    """How fast the machine ran during the timed region.

    The host's speed drifts by up to 2x over tens of seconds while the
    load average stays flat (contention from other tenants of a shared
    machine), so raw pass times of the same code differ by more than any
    useful bound.  While started, a SIGALRM every PERIOD_S runs a fixed
    F2 elimination (lowest-bit pivots over big-integer rows, the kernel
    f2alg spends its time in) twice and times the second, cache-warm run.
    ``scale`` is REF_CHUNK_S over the median chunk time: a pass time
    multiplied by it is the time the pass takes on a machine where the
    chunk runs in REF_CHUNK_S.  The median, because a chunk that the
    scheduler preempts reads many times too long.  The probe's own time
    is subtracted from the pass, and a traced pass runs without it.
    """

    PERIOD_S = 0.04
    # a round figure near the warm chunk's time during passes on a 2-vCPU
    # Xeon host with Python 3.11, so that reference times read close to
    # raw ones there
    REF_CHUNK_S = 0.00025
    ROWS = (lambda rng: [rng.getrandbits(6000) | 1 for _ in range(30)])(random.Random(7))

    def __init__(self):
        self.chunks: list[float] = []
        self.wall_s = self.cpu_s = 0.0

    @classmethod
    def chunk(cls) -> None:
        pivots: dict = {}
        for row in cls.ROWS:
            while row:
                low = row & -row
                p = pivots.get(low)
                if p is None:
                    pivots[low] = row
                    break
                row ^= p

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.chunk()
        t1 = time.perf_counter()
        self.chunk()
        t2 = time.perf_counter()
        self.chunks.append(t2 - t1)
        self.wall_s += t2 - t0
        self.cpu_s += time.process_time() - c0

    def start(self) -> None:
        self._sample(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def scale(self) -> float:
        return self.REF_CHUNK_S / statistics.median(self.chunks)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    try:
        import f2alg
    except ImportError as e:
        print(f"perfbench: cannot import f2alg from {src}: {e}", file=sys.stderr)
        return 2
    if Path(f2alg.__file__).resolve().parent != src / "f2alg":
        print(f"perfbench: f2alg resolved to {f2alg.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        ctx = workloads.setup(args.workload, args.seed, ROOT, workdir)
        steps = workloads.WORKLOADS[args.workload]
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        outputs, errors, step_s = {}, {}, {}
        probe = None if tracer else SpeedProbe()
        if tracer:
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        if probe:
            probe.start()
        for step in steps:
            ts = time.perf_counter()
            try:
                outputs[step.name] = step.run(ctx)
            except Exception as e:  # a failing call is a failed check, not a crash
                errors[step.name] = repr(e)
            step_s[step.name] = time.perf_counter() - ts
        if probe:
            probe.stop()
        wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        if tracer:
            tracer.uninstall()
        else:
            wall_s -= probe.wall_s
            cpu_s -= probe.cpu_s
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks, digests = run_checks(workloads, steps, outputs, errors, ctx)
    record = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": rss_mb,
        "step_s": step_s, "errors": errors, "checks": checks, "digests": digests,
    }
    if probe:
        record.update(wall_ref_s=wall_s * probe.scale, cpu_ref_s=cpu_s * probe.scale,
                      speed_scale=probe.scale, probe_samples=len(probe.chunks),
                      probe_s=probe.wall_s)
    if tracer:
        record["layers"] = tracer.report(wall_s)
        record["trace_detail"] = tracer.detail()
    print(json.dumps(record))
    return 0


def run_checks(workloads, steps, outputs, errors, ctx):
    """[step, label, passed] for every check, and each step's output digest."""
    checks, digests = [], {}
    for step in steps:
        labels = [label for label, _ in step.checks] + (["digest"] if step.digest else [])
        if step.name in errors:
            checks.extend([step.name, label, False] for label in labels)
            continue
        out = outputs[step.name]
        digests[step.name] = workloads.digest(out)
        for label, pred in step.checks:
            try:
                ok = bool(pred(out, ctx))
            except Exception:  # malformed output fails its check
                ok = False
            checks.append([step.name, label, ok])
        if step.digest:
            checks.append([step.name, "digest", ctx["digests"].get(step.name) == digests[step.name]])
    return checks, digests


if __name__ == "__main__":
    sys.exit(main())
