"""pslearn benchmark: one workload per invocation, closed loop, one process.

    python3 benchmarks/run.py --workload zdt3-eval --seed 0 --seconds 42 --trace 0

Each workload trains its (problem, algorithm) runs one after another through
the public API, the way `pslearn run` does for one seed: `pareto_front`,
`train(TrainConfig(seed=...), front)`, `write_metrics_csv`,
`save_checkpoint`. The CLI is not used because it always trains seeds
0..n-1 and the benchmark's seed has to reach `TrainConfig`.

`--trace 0` repeats rounds while the next round is predicted to end within
`--seconds`. A round times the set-up in a fresh process, trains the
workload once and times `evaluate_model` on the saved checkpoints. Rounds
cycle through `SEEDS_PER_RUN` training seeds derived from `--seed`.
`wall_s` sums each training run's lower quartile over the rounds; the other
timings are medians. `--trace 1` runs the workload on the first training
seed once untraced and once with per-layer spans (see `spans.py`), whatever
`--seconds` says, checks that both write the same metrics CSVs, and reports
the per-layer metrics.

Every run is checked: the metrics CSV has the expected row count and a
finite log-HV difference in every row; for training seeds in
`references.json` its sha256 and final log-HV difference match the stored
ones; a round that repeats an earlier round's training seed and the
traced run reproduce it; and `evaluate_model` on the checkpoint reproduces
the CSV's last row when the evaluation settings agree. A failed check
counts the run in `failed` and makes the benchmark exit with code 1. The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT_ROOT = HERE / ".runs"

# Set before numpy is imported, here and in the set-up subprocesses.
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
N_EVAL = 1000  # evaluate_model sample count, as in `pslearn eval`
# Rounds cycle through this many training seeds derived from --seed: how
# costly a trained zdt3 model is to evaluate depends on its seed, and a run
# that averages over several seeds varies less from one --seed to the next.
SEEDS_PER_RUN = 4
LOG_HV_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    runs: tuple[tuple[str, str], ...]  # (problem, algorithm), trained in this order
    config: dict  # TrainConfig overrides shared by every run
    eval_calls: int  # evaluate_model calls per trained model and round

    @property
    def problems(self) -> list[str]:
        return list(dict.fromkeys(problem for problem, _ in self.runs))


# Why each workload exists, and which layers it stresses, is in README.md.
# Runs are 500 iterations instead of the default 1000, so that a run of the
# benchmark holds four or more rounds to take a lower quartile over, not the
# two that a slow spell of the shared machine can move together; the
# per-iteration mix of work is the default one.
ITERATIONS = 500
WORKLOADS = {
    "zdt3-eval": Workload(
        runs=(("zdt3", "gpsl-g"),), config={"iterations": ITERATIONS}, eval_calls=3
    ),
    "dtlz5-eval": Workload(
        runs=(("dtlz5", "gpsl-g"),), config={"iterations": ITERATIONS}, eval_calls=2
    ),
    "train-mix": Workload(
        runs=tuple((p, a) for p in ("zdt3", "dtlz5") for a in ("gpsl-g", "psl-tch", "psl-hv")),
        config={"iterations": ITERATIONS, "eval_interval": ITERATIONS, "eval_samples": 100},
        eval_calls=1,
    ),
}

_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pslearn
for name in sys.argv[2:]:
    pslearn.pareto_front(name)
print(time.perf_counter() - start)
"""


@dataclass
class Run:
    """One training run of a workload and what it wrote."""

    problem: str
    algorithm: str
    config: object = None
    csv: Path | None = None
    ckpt: Path | None = None
    sha256: str = ""
    rows: int = 0
    final_log_hvd: float = math.nan
    finite: bool = False
    seconds: float = math.nan  # from the `train` call to the checkpoint write
    failure: str | None = None

    @property
    def key(self) -> str:
        return f"{self.problem}/{self.algorithm}"

    def read_csv(self) -> None:
        data = self.csv.read_bytes()
        lines = data.decode("utf-8").splitlines()
        # Only the log-HV column: for m = 3 the hv cells are written as
        # `np.float64(...)`, which is not a plain number.
        log_hvd = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        self.sha256 = hashlib.sha256(data).hexdigest()
        self.rows = len(log_hvd)
        self.final_log_hvd = log_hvd[-1]
        self.finite = all(math.isfinite(v) for v in log_hvd)

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason
            print(f"FAILED {self.key}: {reason}", file=sys.stderr)


def import_pslearn() -> None:
    if not (SRC / "pslearn" / "__init__.py").is_file():
        sys.exit(f"benchmark: no pslearn sources at {SRC}")
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    import pslearn

    if Path(pslearn.__file__).resolve().parent != SRC / "pslearn":
        sys.exit(f"benchmark: imported pslearn from {pslearn.__file__}, not from {SRC}")


def measure_setup(problems: list[str]) -> float:
    """Seconds for `import pslearn` plus the fronts, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), *problems],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def _atomic(path: Path, write_fn) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    write_fn(tmp)
    os.replace(tmp, path)


def train_seed(seed: int, round_index: int) -> int:
    """The `TrainConfig` seed of a round; --seeds get disjoint sets."""
    return seed * SEEDS_PER_RUN + round_index % SEEDS_PER_RUN


def run_unit(workload: Workload, seed: int, fronts: dict, out_dir: Path) -> tuple[float, list[Run]]:
    """Train every run of the workload once; wall seconds and the runs."""
    from pslearn import network, trainer

    runs = []
    start = time.perf_counter()
    for problem, algorithm in workload.runs:
        run = Run(problem, algorithm)
        runs.append(run)
        run_start = time.perf_counter()
        try:
            config = trainer.TrainConfig(
                problem=problem, algorithm=algorithm, seed=seed, **workload.config
            )
            result = trainer.train(config, fronts[problem])
            stem = f"{problem}_{algorithm}"
            csv_path = out_dir / f"{stem}.csv"
            _atomic(csv_path, lambda p: trainer.write_metrics_csv(result.metrics, p))
            ckpt_path = out_dir / f"{stem}.ckpt.npz"
            seeds = {"train_seed": config.seed, "eval_seed": config.eval_seed}
            _atomic(
                ckpt_path,
                lambda p: network.save_checkpoint(p, result.params, result.adam_state, seeds),
            )
        except Exception:  # a run that raises is counted as failed; the rest go on
            traceback.print_exc()
            run.fail("raised " + traceback.format_exc(limit=0).strip())
            continue
        run.seconds = time.perf_counter() - run_start
        run.config, run.csv, run.ckpt = config, csv_path, ckpt_path
    wall = time.perf_counter() - start
    for run in runs:
        if run.csv is not None:
            run.read_csv()
    return wall, runs


def expected_rows(config) -> int:
    return 1 + config.iterations // config.eval_interval + bool(config.iterations % config.eval_interval)


def check_runs(runs: list[Run], references: dict | None) -> None:
    """Row count and finiteness always; digest and log-HV against references,
    the stored runs of this training seed, if there are any."""
    for run in runs:
        if run.csv is None:
            continue
        if run.rows != expected_rows(run.config):
            run.fail(f"{run.rows} CSV rows, expected {expected_rows(run.config)}")
        if not run.finite:
            run.fail("non-finite log-HV difference in the metrics CSV")
        if references is None:
            continue
        ref = references.get(run.key)
        if ref is None:
            run.fail("no reference stored for this run")
        elif run.sha256 != ref["csv_sha256"]:
            run.fail(f"CSV sha256 {run.sha256} != reference {ref['csv_sha256']}")
        elif abs(run.final_log_hvd - ref["final_log_hvd"]) > LOG_HV_TOLERANCE:
            run.fail(f"final log-HV {run.final_log_hvd!r} != reference {ref['final_log_hvd']!r}")


def check_same(runs: list[Run], baseline: list[Run], what: str) -> None:
    for run, base in zip(runs, baseline):
        if run.csv is not None and base.csv is not None and run.sha256 != base.sha256:
            run.fail(f"{what} wrote a different CSV ({run.sha256} != {base.sha256})")


def measure_eval(workload: Workload, runs: list[Run], fronts: dict, samples: dict) -> None:
    """Add milliseconds per `evaluate_model` call on each run's checkpoint."""
    from pslearn import network, problems, trainer

    for run in runs:
        if run.ckpt is None:
            continue
        params, _, _ = network.load_checkpoint(run.ckpt)
        problem = problems.get_problem(run.problem)
        draw, _, _ = trainer.latent_sampler(run.config, problem)
        for _ in range(workload.eval_calls):
            start = time.perf_counter()
            report = trainer.evaluate_model(
                params, problem, draw, fronts[run.problem],
                n_eval=N_EVAL, seed=run.config.eval_seed, ref_offset=run.config.ref_offset,
            )
            samples.setdefault(run.key, []).append((time.perf_counter() - start) * 1e3)
        if run.config.eval_samples == N_EVAL and report.log_hv_difference != run.final_log_hvd:
            run.fail(
                f"evaluate_model on the checkpoint gave {report.log_hv_difference!r}, "
                f"the CSV's last row {run.final_log_hvd!r}"
            )


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        blas = "unknown"
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    source = hashlib.sha256()
    for path in sorted((SRC / "pslearn").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _lower_quartile(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(workload: Workload, seed: int, seconds: float, references, out_dir: Path):
    from pslearn import problems

    fronts = {name: problems.pareto_front(name) for name in workload.problems}
    setup, units, eval_ms, rounds = [], [], {}, []
    start = time.perf_counter()
    # Every round sets up, trains and evaluates, so each metric samples the
    # whole run: on a shared machine the speed drifts over tens of seconds.
    while True:
        round_start = time.perf_counter()
        setup.append(measure_setup(workload.problems))
        round_seed = train_seed(seed, len(units))
        _, runs = run_unit(workload, round_seed, fronts, out_dir)
        check_runs(runs, references.get(str(round_seed)))
        if len(units) >= SEEDS_PER_RUN:
            check_same(runs, units[-SEEDS_PER_RUN], "a repeat")
        units.append(runs)
        measure_eval(workload, runs, fronts, eval_ms)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + _median(rounds) > seconds:
            break
    finals = [
        -run.final_log_hvd for runs in units[:SEEDS_PER_RUN] for run in runs if run.csv is not None
    ]
    run_seconds = {}
    for runs in units:
        for run in runs:
            if run.csv is not None:
                run_seconds.setdefault(run.key, []).append(run.seconds)
    # Each run's lower quartile over the rounds, summed over the runs. Other
    # tenants of the shared machine only ever slow a run down, by up to 50%
    # for seconds at a time, and a median over four or five rounds moves
    # with how much of the benchmark run they overlapped.
    wall = sum(_lower_quartile(seconds) for seconds in run_seconds.values())
    # Per model, then averaged: train-mix's models differ in cost, and a
    # median over all its calls would fall between the two problems.
    eval_p50 = statistics.fmean(_median(ms) for ms in eval_ms.values()) if eval_ms else 0.0
    metrics = {
        "wall_s": (wall, "s", [t for seconds in run_seconds.values() for t in seconds]),
        "setup_s": (_median(setup), "s", setup),
        "eval_ms_p50": (eval_p50, "ms", [ms for per_run in eval_ms.values() for ms in per_run]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", []),
        "final_neg_log_hvd": (_median(finals), "nats", finals),
    }
    return [run for runs in units for run in runs], metrics


def per_layer(workload: Workload, seed: int, references, out_dir: Path):
    from pslearn import problems
    from spans import Tracer

    seed = train_seed(seed, 0)
    references = references.get(str(seed))
    fronts = {name: problems.pareto_front(name) for name in workload.problems}
    wall, plain = run_unit(workload, seed, fronts, out_dir)
    tracer = Tracer()
    tracer.install()
    try:
        fronts = {name: problems.pareto_front(name) for name in workload.problems}
        traced_wall, traced = run_unit(workload, seed, fronts, out_dir)
    finally:
        tracer.uninstall()
    check_runs(plain, references)
    check_runs(traced, references)
    check_same(traced, plain, "the traced run")
    metrics = {}
    for name, value in tracer.layer_metrics().items():
        unit = "s" if name.endswith("_s") or name.endswith(".s") else (
            "frac" if name.endswith("_frac") else "count")
        metrics[name] = (value, unit, [])
    metrics["trace.overhead_frac"] = (traced_wall / wall - 1.0, "frac", [])
    return plain + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    import_pslearn()
    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCES.read_text())["workloads"].get(args.workload, {})

    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        if args.trace:
            runs, metrics = per_layer(workload, args.seed, references, out_dir)
        else:
            runs, metrics = end_to_end(workload, args.seed, args.seconds, references, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(run.failure is not None for run in runs)
    for name, (value, unit, samples) in metrics.items():
        spread = f"n={len(samples)} min={min(samples):.6g} max={max(samples):.6g}" if samples else ""
        print(f"{name:36s} {value:16.6f} {unit:6s} {spread}")
    print(f"{'runs_failed':36s} {failed / len(runs):16.6f} {'frac':6s} n={len(runs)}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
