"""Record the output digests that ``digests.json`` holds.

    python3 perfbench/record_digests.py

Runs one untraced pass of every workload and stores the sha256 of each
step output that has neither a golden file nor a seed-dependent input.
The committed file was recorded at the seed commit of the benchmark;
record again only when an output is meant to change, and say so.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402


def main() -> None:
    digests = {}
    for name, steps in workloads.WORKLOADS.items():
        rec = run.start_worker(name, seed=0)
        digests[name] = {s.name: rec["digests"][s.name] for s in steps if s.digest}
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
