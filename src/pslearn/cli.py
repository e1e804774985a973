"""Command-line surface: single runs, comparison grids, ablations, and
re-evaluation of saved checkpoints.

Outputs are written atomically (temp file + rename) so an aborted grid never
leaves a partial file that looks like a result. Per-run metrics CSVs are
byte-identical across reruns of the same configuration and seed; wall-clock
timing lives in the summary JSON instead.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import json
import os
import statistics
import sys
from pathlib import Path

from .problems import get_problem, load_reference_front, pareto_front
from .sampling import _check_count
from .trainer import (
    ALGORITHMS,
    GPSL_ALGORITHMS,
    MetricsLog,
    MetricsRecord,
    TrainConfig,
    TrainingDiverged,
    evaluate_model,
    latent_sampler,
    train,
    write_metrics_csv,
)
from . import network as net

OUTPUT_ROOT_ENV = "PSLEARN_OUT"


# Keys accepted in `key = value` config files; flags override file values.
# Each TrainConfig field is one, parsed by its annotation, except `seed`
# (runs train seeds 0..seeds-1) and `hidden_sizes`; the CLI reads CLI_KEYS.
CLI_KEYS = ("seeds", "front", "out")
_PARSERS = {"str": str, "int": int, "int | None": int, "float": float}
CONFIG_KEYS = {
    **{f.name: _PARSERS[f.type] for f in dataclasses.fields(TrainConfig)
       if f.name not in ("seed", "hidden_sizes")},
    "seeds": int, "front": str, "out": str,
}


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    f"{', '.join(sorted(CONFIG_KEYS))}"
                )
            try:
                values[key] = CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


def _atomic(path: Path, content) -> None:
    """Write ``content`` to ``path`` through a temp file and a rename.

    ``content`` is text, or a function that writes the file at the path it
    is given.
    """
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    if callable(content):
        content(tmp)
    else:
        tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


# The settings a CLI checkpoint records beside its training seed: `eval`
# takes each as its default and rejects a value that contradicts it.
RECORDED = ("eval_seed", "problem", "algorithm", "dirichlet_alpha")


@functools.lru_cache(maxsize=None)
def _load_front(problem_name: str, front_path: str | None):
    # Once per process: the serial tasks of a grid share one front, and so
    # its normalization and hypervolume. A failed load raises and is not kept.
    problem = get_problem(problem_name)
    if front_path:
        return load_reference_front(front_path, m=problem.m)
    return pareto_front(problem)


@dataclasses.dataclass(frozen=True)
class GridTask:
    """One seed of one grid arm: what `_run_one` trains and where it writes."""

    config: TrainConfig
    label: str
    front: str | None  # the --front path; None scores the analytic front
    out_dir: Path


def _run_one(task: GridTask) -> MetricsLog:
    """Train + evaluate one (problem, algorithm, seed) and write its files.

    Top-level so grid commands can dispatch it to worker processes.
    """
    config = task.config
    result = train(config, _load_front(config.problem, task.front))
    stem = f"{config.problem}_{task.label}_seed{config.seed}"
    _atomic(task.out_dir / f"{stem}.csv", lambda p: write_metrics_csv(result.metrics, p))
    seeds = {"train_seed": config.seed, **{key: getattr(config, key) for key in RECORDED}}
    _atomic(task.out_dir / f"{stem}.ckpt.npz",
            lambda p: net.save_checkpoint(p, result.params, result.adam_state, seeds))
    return result.metrics


def _dispatch(tasks: list[GridTask], workers: int) -> list[MetricsLog]:
    if workers <= 1:
        return [_run_one(task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, tasks))


def _base_kwargs(settings: dict) -> dict:
    return {key: value for key, value in settings.items() if key not in CLI_KEYS}


def _build_tasks(settings: dict, arms) -> tuple[Path, list[GridTask]]:
    """The output directory and one task per seed of each (label, overrides) arm.

    The ``TrainConfig`` overrides name the problem and the algorithm and take
    precedence over the shared settings. The directory is made only once
    every task's ``TrainConfig`` has passed its checks, its latent
    sampler included, and every problem's reference front has loaded.
    """
    seeds = settings.get("seeds", 11)
    _check_count("seeds", seeds)
    base = _base_kwargs(settings)
    out_dir = Path(settings.get("out") or os.environ.get(OUTPUT_ROOT_ENV) or "runs")
    tasks = [
        GridTask(TrainConfig(**{**base, **overrides, "seed": seed}), label,
                 settings.get("front"), out_dir)
        for label, overrides in arms
        for seed in range(seeds)
    ]
    for task in tasks:
        latent_sampler(task.config, get_problem(task.config.problem))
        _load_front(task.config.problem, task.front)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, tasks


def _collect_settings(args) -> dict:
    settings = _parse_config_file(args.config) if args.config else {}
    settings.update((key, value) for key, value in vars(args).items()
                    if key in CONFIG_KEYS and value is not None)
    return settings


def _write_long_csv(path: Path, tasks: list[GridTask], logs: list[MetricsLog]) -> None:
    lines = ["problem,algorithm,seed,iteration,log_hv_difference"]
    for task, log in zip(tasks, logs):
        prefix = f"{task.config.problem},{task.label},{task.config.seed}"
        for rec in log.records:
            lines.append(f"{prefix},{rec.iteration},{rec.log_hv_difference!r}")
    _atomic(path, "\n".join(lines) + "\n")


def _summarize(tasks: list[GridTask], logs: list[MetricsLog]) -> dict:
    groups: dict[tuple[str, str], dict[str, MetricsRecord]] = {}
    for task, log in zip(tasks, logs):
        arm = groups.setdefault((task.config.problem, task.label), {})
        arm[str(task.config.seed)] = log.final()
    summary: dict = {}
    for (problem, label), finals in sorted(groups.items()):
        values = [final.log_hv_difference for final in finals.values()]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (0.0,) * 3
        summary.setdefault(problem, []).append(
            {
                "algorithm": label,
                "median_final_log_hv_difference": statistics.median(values),
                "iqr_final_log_hv_difference": q3 - q1,
                "per_seed": {seed: final.log_hv_difference for seed, final in finals.items()},
                "seconds": {seed: final.seconds for seed, final in finals.items()},
            }
        )
    for problem in summary:
        summary[problem].sort(key=lambda row: row["median_final_log_hv_difference"])
    return summary


def _grid(settings: dict, arms, workers: int, name: str) -> int:
    """Run every arm over the seeds; write ``<name>.csv`` and its summary."""
    out_dir, tasks = _build_tasks(settings, arms)
    logs = _dispatch(tasks, workers)
    _write_long_csv(out_dir / f"{name}.csv", tasks, logs)
    summary = _summarize(tasks, logs)
    _atomic(out_dir / f"{name}_summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out_dir / f'{name}.csv'} ({len(logs)} runs)")
    for problem, rows in summary.items():
        for row in rows:
            print(f"{problem} {row['algorithm']}: median final log HV difference: "
                  f"{row['median_final_log_hv_difference']:.6f} "
                  f"(IQR {row['iqr_final_log_hv_difference']:.6f})")
    return 0


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(parser, args) -> int:
    settings = _collect_settings(args)
    problem = settings.get("problem")
    algorithm = settings.get("algorithm")
    if not problem or not algorithm:
        parser.error("run requires --problem and --algo (or a config file setting them)")
    arm = (algorithm, {"problem": problem, "algorithm": algorithm})
    return _grid(settings, [arm], args.workers, f"{problem}_{algorithm}")


def cmd_compare(parser, args) -> int:
    settings = _collect_settings(args)
    problems = args.problems.split(",") if args.problems else [settings.get("problem")]
    algorithms = args.algos.split(",") if args.algos is not None else ALGORITHMS
    # A repeated name would train its runs twice and count them twice.
    problems = list(dict.fromkeys(p.strip() for p in problems if p and p.strip()))
    algorithms = list(dict.fromkeys(a.strip() for a in algorithms if a.strip()))
    if not problems:
        parser.error("compare requires --problems (comma-separated list)")
    if not algorithms:
        parser.error("--algos names no algorithm (omit it to compare all)")
    if settings.get("front") and len(problems) > 1:
        parser.error(
            f"--front gives one reference front, but the grid has {len(problems)} "
            f"problems ({', '.join(problems)}); compare one problem per front file"
        )
    arms = [
        (algorithm, {"problem": problem, "algorithm": algorithm})
        for problem in problems
        for algorithm in algorithms
    ]
    return _grid(settings, arms, args.workers, "compare")


def cmd_ablate(parser, args) -> int:
    settings = _collect_settings(args)
    problem = settings.get("problem")
    if not problem:
        parser.error("ablate requires --problem")
    kind = args.kind
    prob = get_problem(problem)
    if kind == "latent-dim":
        arms = [
            (f"gpsl-g-dim{k}", {"problem": problem, "algorithm": "gpsl-g", "latent_dim": k})
            for k in dict.fromkeys((1, 2, 5, 10, prob.d))
        ]
    else:  # latent-dist: all three initial distributions sampled in m dimensions
        arms = [
            (f"{algorithm}-dim{prob.m}",
             {"problem": problem, "algorithm": algorithm, "latent_dim": prob.m})
            for algorithm in GPSL_ALGORITHMS
        ]
    return _grid(settings, arms, args.workers, f"ablate_{kind}")


def cmd_eval(parser, args) -> int:
    params, _, seeds = net.load_checkpoint(args.checkpoint)
    # Checkpoints from before the record, or from outside the CLI, lack some
    # or all of it; the latent dimension is always the network's input width.
    trained = {key: seeds[key] for key in RECORDED if isinstance(seeds, dict) and key in seeds}
    trained["latent_dim"] = params.layer_sizes[0]
    settings = {**trained, **_collect_settings(args)}
    if not settings.get("problem") or not settings.get("algorithm"):
        parser.error("eval requires --problem and --algo when the checkpoint does not record them")
    # Unknown names are rejected first, with the valid ones listed.
    problem = get_problem(settings["problem"])
    config = TrainConfig(**_base_kwargs(settings))
    for key, value in trained.items():
        if settings[key] != value:
            raise ValueError(f"{args.checkpoint}: trained with {key} {value!r}, "
                             f"not {settings[key]!r}")
    front = _load_front(config.problem, settings.get("front"))
    draw, _, _ = latent_sampler(config, problem)
    report = evaluate_model(
        params, problem, draw, front,
        n_eval=config.eval_samples, seed=config.eval_seed,
        ref_offset=config.ref_offset,
    )
    payload = {
        "problem": config.problem,
        "algorithm": config.algorithm,
        "checkpoint": str(args.checkpoint),
        "checkpoint_seeds": seeds,
        **dataclasses.asdict(report),
    }
    text = json.dumps(payload, indent=2)
    if settings.get("out"):
        out_dir = Path(settings["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        _atomic(out_dir / "eval_report.json", text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------


def _add_eval_flags(sub):
    sub.add_argument("--problem", help="problem name")
    sub.add_argument("--latent-dim", type=int, help="latent dimension")
    sub.add_argument("--eval-n", dest="eval_samples", type=int, help="evaluation sample count")
    sub.add_argument("--front", help="reference-front file (text rows, m columns)")
    sub.add_argument("--config", help="flat key = value config file; flags override")
    sub.add_argument("--out", help=f"output directory (default ${OUTPUT_ROOT_ENV} or ./runs)")


def _add_train_flags(sub):
    _add_eval_flags(sub)
    sub.add_argument("--seeds", type=int, help="number of seeds (0..n-1); default 11")
    sub.add_argument("--iters", dest="iterations", type=int, help="training iterations")
    sub.add_argument("--batch", dest="batch_size", type=int, help="batch size")
    sub.add_argument("--dirs-h", dest="directions_h", type=int, help="direction-set division count")
    sub.add_argument("--eval-interval", type=int, help="iterations between evaluations")
    sub.add_argument("--workers", type=int, default=1, help="worker processes for grids")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pslearn",
        description="Train and benchmark Pareto set learning models.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="train one (problem, algorithm) over several seeds")
    run.add_argument("--algo", dest="algorithm", help="algorithm tag")
    _add_train_flags(run)

    compare = subparsers.add_parser("compare", help="run a problems x algorithms grid")
    compare.add_argument("--problems", help="comma-separated problem names")
    compare.add_argument("--algos", help="comma-separated algorithm tags (default: all)")
    _add_train_flags(compare)

    ablate = subparsers.add_parser("ablate", help="latent-dimension or latent-distribution sweep")
    ablate.add_argument("kind", choices=("latent-dim", "latent-dist"))
    _add_train_flags(ablate)

    evalp = subparsers.add_parser("eval", help="re-evaluate a saved checkpoint")
    evalp.add_argument("--checkpoint", required=True, help="path to a .ckpt.npz file")
    evalp.add_argument("--algo", dest="algorithm",
                       help="algorithm tag (selects the latent distribution)")
    _add_eval_flags(evalp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "run": cmd_run,
        "compare": cmd_compare,
        "ablate": cmd_ablate,
        "eval": cmd_eval,
    }
    try:
        return commands[args.command](parser, args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
