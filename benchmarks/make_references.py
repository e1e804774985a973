"""Rewrite references.json: each workload's metrics-CSV sha256 and final log-HV
difference for the training seeds of the default seed and one held-out seed.

    python3 benchmarks/make_references.py

The digests hold for one numpy/BLAS build (recorded in the file). Rewrite
them only for a change that is meant to alter training results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench

SEEDS = (0, 7)  # --seed values: the default, and one held out


def main() -> int:
    bench.import_pslearn()
    from pslearn import problems

    workloads = {}
    bench.OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="references-", dir=bench.OUT_ROOT))
    try:
        for name, workload in bench.WORKLOADS.items():
            fronts = {p: problems.pareto_front(p) for p in workload.problems}
            for seed in SEEDS:
                for round_index in range(bench.SEEDS_PER_RUN):
                    train_seed = bench.train_seed(seed, round_index)
                    _, runs = bench.run_unit(workload, train_seed, fronts, out_dir)
                    bench.check_runs(runs, None)
                    if any(run.failure for run in runs):
                        return 1
                    workloads.setdefault(name, {})[str(train_seed)] = {
                        run.key: {"csv_sha256": run.sha256, "final_log_hvd": run.final_log_hvd}
                        for run in runs
                    }
                    print(f"{name} training seed {train_seed}: {len(runs)} runs", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    facts = bench.machine_facts()
    payload = {
        "built_with": {k: facts[k] for k in ("python", "numpy", "blas", "source_sha256")},
        "workloads": workloads,
    }
    bench.REFERENCES.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
