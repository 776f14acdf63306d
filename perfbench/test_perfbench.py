"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The checks behind error_rate must catch a corrupted output, and the runner
must print every workload and metric named in BENCHMARK.json with its unit.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAST = ("adem", "nishida", "grouphom_gl2", "wbasis_quotient", "cellss")


def error_rate(steps, outputs, errors, ctx) -> float:
    checks, _ = worker.run_checks(workloads, steps, outputs, errors, ctx)
    return sum(not ok for *_, ok in checks) / len(checks)


def test_corrupted_outputs_raise_error_rate(tmp_path):
    ctx = workloads.setup("groups_rewrite", 0, ROOT, tmp_path)
    steps = [s for s in workloads.WORKLOADS["groups_rewrite"] if s.name in FAST]
    outputs = {s.name: s.run(ctx) for s in steps}
    assert error_rate(steps, outputs, {}, ctx) == 0

    code, text = outputs["cellss"]
    flipped = dict(outputs, cellss=(code, text.replace("survives", "survive", 1)))
    assert error_rate(steps, flipped, {}, ctx) > 0
    assert error_rate(steps, dict(outputs, adem=(3, outputs["adem"][1])), {}, ctx) > 0
    missing = {k: v for k, v in outputs.items() if k != "nishida"}
    assert error_rate(steps, missing, {"nishida": "ValueError()"}, ctx) > 0


def test_oracles_reject_a_wrong_dimension():
    rows = "".join(f"{g}\t{d}\t{workloads.chart_dim_oracle(g, d)}\t\n"
                   for g in range(17) for d in range(11))
    good = (0, "g\td\tdim\tclass_names\n" + rows)
    assert workloads.chart_matches_oracle(good, {})
    bad = (0, good[1].replace("12\t8\t1\t", "12\t8\t2\t"))
    assert bad != good and not workloads.chart_matches_oracle(bad, {})

    ss = [[12, 8, [[-8, 1]], 2, 1]]
    assert workloads.einfty_matches_oracle(ss, {})
    assert not workloads.einfty_matches_oracle([[12, 8, [[-8, 2]], 2, 1]], {})


def test_digest_mismatch_fails(tmp_path):
    ctx = workloads.setup("groups_rewrite", 0, ROOT, tmp_path)
    (step,) = [s for s in workloads.WORKLOADS["groups_rewrite"] if s.name == "grouphom_gl32"]
    ok = (0, "group\td\tdim\nGL(3,2)\t0\t1\nGL(3,2)\t1\t0\nGL(3,2)\t2\t1\n"
             "GL(3,2)\t3\t2\n# H_1 abelianization cross-check: ok\n")
    checks, _ = worker.run_checks(workloads, [step], {step.name: ok}, {}, ctx)
    assert [label for _, label, passed in checks if not passed] == \
        ([] if workloads.digest(ok) == ctx["digests"][step.name] else ["digest"])
    ctx["digests"][step.name] = "0" * 64
    checks, _ = worker.run_checks(workloads, [step], {step.name: ok}, {}, ctx)
    assert [label for _, label, passed in checks if not passed] == ["digest"]


def test_relabellings_vary_files_not_work():
    a, b = workloads.relabelled_gl32(1), workloads.relabelled_gl32(2)
    assert a != b
    from f2alg import grouphom
    for x, y in zip(a, b):
        assert grouphom.parse_group(x).elements == grouphom.parse_group(y).elements


def test_speed_probe_samples_and_accounts_for_itself():
    probe = worker.SpeedProbe()
    t0 = time.perf_counter()
    probe.start()
    while time.perf_counter() - t0 < 0.3:
        sum(i * i for i in range(1000))
    probe.stop()
    assert len(probe.chunks) >= 5
    assert 0 < probe.wall_s < 0.3 and probe.cpu_s > 0
    assert probe.scale == worker.SpeedProbe.REF_CHUNK_S / statistics.median(probe.chunks)


def test_layer_report_covers_benchmark_metrics():
    report = tracer.Tracer().report(1.0)
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_frac"}
    assert names == set(report)


def fake_worker(workload, seed, trace=False, setup_only=False):
    rec = {"setup_s": 0.1}
    if not setup_only:
        rec.update(wall_s=2.0 + trace, cpu_s=2.0, peak_rss_mb=30.0,
                   checks=[["step", "check", True]])
        if not trace:
            rec.update(wall_ref_s=1.0, cpu_ref_s=1.0, speed_scale=0.5)
        if trace:
            rec["layers"] = tracer.Tracer().report(3.0)
    return rec


def test_runner_prints_every_workload_and_metric(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "start_worker", fake_worker)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", "all", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    last = json.loads(out.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    for w in SPEC["workloads"]:
        assert f"== {w['name']} (untraced)" in out and f"== {w['name']} (traced)" in out
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert last["metrics"][f"{w['name']}.{m['name']}"]["unit"] == m["unit"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-2] == m["unit"]
                   for line in out.splitlines()), m["name"]


def test_contract_line_from_a_real_run():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "spectral",
                           "--seed", "3", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_verdicts():
    old = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert run.verdict(old, [x * 1.3 for x in old], 0.1, True)[1] == "regression"
    assert run.verdict(old, [x * 0.7 for x in old], 0.1, True) == (1.0, "better")
    assert run.verdict(old, list(old), 0.1, True)[1] == "same"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0]
    assert run.verdict(noisy, noisy[::-1], 0.1, True)[1] == "unresolved"
