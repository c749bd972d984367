"""Rewrite digests.json: each workload's output digest at seeds 0..N-1.

The digests pin the bytes the benchmark accepts, so rerun this only when
honeysim's outputs or the workload inputs change on purpose, and say why in
the change that commits the new file.

    python3 perfbench/pin_digests.py --seeds 32
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import DIGESTS_FILE, OUT_BASE, Runner, iteration_problem
from workloads import WORKLOADS, write_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args()

    table: dict[str, dict[str, str]] = {}
    for key in sorted({w.digest_key for w in WORKLOADS.values()}):
        cells = WORKLOADS[key].cells
        for seed in range(args.seeds):
            run_dir = OUT_BASE / f"pin-{key}-seed{seed}-{os.getpid()}"
            run_dir.mkdir(parents=True)
            config = write_inputs(key, seed, run_dir)
            report = Runner(run_dir, time.perf_counter()).iteration(config, 1, cells)
            problem = iteration_problem(report, report.get("digest", ""))
            if problem:
                print(f"{key} seed {seed}: {problem}", file=sys.stderr)
                return 1
            table.setdefault(key, {})[str(seed)] = report["digest"]
        print(f"{key}: pinned seeds 0..{args.seeds - 1}")
    DIGESTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
