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
import json
import os
import statistics
import sys
from pathlib import Path

from .problems import available_problems, get_problem, load_reference_front, pareto_front
from .trainer import (
    ALGORITHMS,
    GPSL_ALGORITHMS,
    TrainConfig,
    TrainingDiverged,
    evaluate_model,
    latent_sampler,
    train,
    write_metrics_csv,
)
from . import network as net

OUTPUT_ROOT_ENV = "PSLEARN_OUT"


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"expected true/false/yes/no/1/0, got {text!r}")


# Keys accepted in `key = value` config files; flags override file values.
CONFIG_KEYS = {
    "problem": str,
    "algorithm": str,
    "iterations": int,
    "batch_size": int,
    "latent_dim": int,
    "seed": int,
    "learning_rate": float,
    "beta1": float,
    "beta2": float,
    "eps_adam": float,
    "directions_h": int,
    "eval_samples": int,
    "eval_interval": int,
    "eval_seed": int,
    "hv_batch_as_set": _parse_bool,
    "tch_epsilon": float,
    "cosmos_gamma": float,
    "dirichlet_alpha": float,
    "ref_offset": float,
    "seeds": int,
    "front": str,
    "out": str,
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


def _resolve_out_dir(out: str | None) -> Path:
    root = out or os.environ.get(OUTPUT_ROOT_ENV) or "runs"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_front(problem_name: str, front_path: str | None):
    problem = get_problem(problem_name)
    if front_path:
        return load_reference_front(front_path, m=problem.m)
    if not problem.has_analytic_front:
        raise ValueError(
            f"{problem_name} has no analytic reference front; pass --front FILE"
        )
    return pareto_front(problem)


def _run_one(task: dict) -> dict:
    """Train + evaluate one (problem, algorithm, seed) and write its files.

    Top-level so grid commands can dispatch it to worker processes.
    """
    config = TrainConfig(**task["config_kwargs"])
    front = _load_front(config.problem, task.get("front"))
    result = train(config, front)
    out_dir = Path(task["out_dir"])
    stem = task["stem"]

    csv_path = out_dir / f"{stem}.csv"
    _atomic(csv_path, lambda p: write_metrics_csv(result.metrics, p))

    ckpt_path = out_dir / f"{stem}.ckpt.npz"
    seeds = {"train_seed": config.seed, "eval_seed": config.eval_seed}
    _atomic(ckpt_path, lambda p: net.save_checkpoint(p, result.params, result.adam_state, seeds))

    final = result.metrics.final()
    return {
        "stem": stem,
        "label": task["label"],
        "problem": config.problem,
        "algorithm": config.algorithm,
        "seed": config.seed,
        "final_log_hv_difference": final.log_hv_difference,
        "final_hv_learned": final.hv_learned,
        "hv_true": final.hv_true,
        "seconds": final.seconds,
        "rows": [
            (config.problem, task["label"], config.seed, rec.iteration, rec.log_hv_difference)
            for rec in result.metrics.records
        ],
        "csv": str(csv_path),
        "checkpoint": str(ckpt_path),
    }


def _dispatch(tasks: list[dict], workers: int) -> list[dict]:
    if workers <= 1:
        return [_run_one(task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, tasks))


def _median_iqr(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1


def _base_kwargs(settings: dict) -> dict:
    kwargs = {}
    for key in (
        "iterations", "batch_size", "latent_dim", "learning_rate", "beta1", "beta2",
        "eps_adam", "directions_h", "eval_samples", "eval_interval", "eval_seed",
        "hv_batch_as_set", "tch_epsilon", "cosmos_gamma", "dirichlet_alpha", "ref_offset",
    ):
        if settings.get(key) is not None:
            kwargs[key] = settings[key]
    return kwargs


def _build_tasks(settings: dict, out_dir: Path, arms) -> list[dict]:
    """One task per seed of each ``(label, TrainConfig overrides)`` arm.

    The overrides name the problem and the algorithm and take precedence
    over the shared settings.
    """
    base = _base_kwargs(settings)
    return [
        {
            "config_kwargs": {**base, **overrides, "seed": seed},
            "front": settings.get("front"),
            "out_dir": str(out_dir),
            "stem": f"{overrides['problem']}_{label}_seed{seed}",
            "label": label,
        }
        for label, overrides in arms
        for seed in range(settings.get("seeds", 11))
    ]


def _collect_settings(args) -> dict:
    settings = {}
    if args.config:
        settings.update(_parse_config_file(args.config))
    flag_map = {
        "problem": args.problem,
        "algorithm": getattr(args, "algo", None),
        "iterations": args.iters,
        "batch_size": args.batch,
        "latent_dim": args.latent_dim,
        "directions_h": args.dirs_h,
        "eval_samples": args.eval_n,
        "eval_interval": args.eval_interval,
        "seeds": args.seeds,
        "front": args.front,
        "out": args.out,
    }
    for key, value in flag_map.items():
        if value is not None:
            settings[key] = value
    return settings


def _validate_names(parser, problems, algorithms):
    for problem in problems:
        if problem not in available_problems():
            parser.error(
                f"unknown problem {problem!r}; valid problems: "
                f"{', '.join(available_problems())}"
            )
    for algo in algorithms:
        if algo not in ALGORITHMS:
            parser.error(
                f"unknown algorithm {algo!r}; valid algorithms: {', '.join(ALGORITHMS)}"
            )


def _write_long_csv(path: Path, results: list[dict]) -> None:
    lines = ["problem,algorithm,seed,iteration,log_hv_difference"]
    for res in results:
        for problem, label, seed, iteration, value in res["rows"]:
            lines.append(f"{problem},{label},{seed},{iteration},{value!r}")
    _atomic(path, "\n".join(lines) + "\n")


def _summarize(results: list[dict]) -> dict:
    groups: dict[tuple[str, str], list[dict]] = {}
    for res in results:
        groups.setdefault((res["problem"], res["label"]), []).append(res)
    summary: dict = {}
    for (problem, label), runs in sorted(groups.items()):
        finals = [r["final_log_hv_difference"] for r in runs]
        med, iqr = _median_iqr(finals)
        summary.setdefault(problem, []).append(
            {
                "algorithm": label,
                "median_final_log_hv_difference": med,
                "iqr_final_log_hv_difference": iqr,
                "per_seed": {str(r["seed"]): r["final_log_hv_difference"] for r in runs},
                "seconds": {str(r["seed"]): r["seconds"] for r in runs},
            }
        )
    for problem in summary:
        summary[problem].sort(key=lambda row: row["median_final_log_hv_difference"])
    return summary


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(parser, args) -> int:
    settings = _collect_settings(args)
    problem = settings.get("problem")
    algorithm = settings.get("algorithm")
    if not problem or not algorithm:
        parser.error("run requires --problem and --algo (or a config file setting them)")
    _validate_names(parser, [problem], [algorithm])
    out_dir = _resolve_out_dir(settings.get("out"))
    arm = (algorithm, {"problem": problem, "algorithm": algorithm})
    results = _dispatch(_build_tasks(settings, out_dir, [arm]), args.workers)
    finals = [r["final_log_hv_difference"] for r in results]
    med, iqr = _median_iqr(finals)
    summary = {
        "problem": problem,
        "algorithm": algorithm,
        "seeds": [r["seed"] for r in results],
        "median_final_log_hv_difference": med,
        "iqr_final_log_hv_difference": iqr,
        "per_seed_final_log_hv_difference": {str(r["seed"]): r["final_log_hv_difference"] for r in results},
        "per_seed_seconds": {str(r["seed"]): r["seconds"] for r in results},
        "files": [r["csv"] for r in results],
    }
    summary_path = out_dir / f"{problem}_{algorithm}_summary.json"
    _atomic(summary_path, json.dumps(summary, indent=2) + "\n")
    print(f"wrote {len(results)} metrics CSV(s) and {summary_path}")
    print(f"median final log HV difference: {med:.6f} (IQR {iqr:.6f})")
    return 0


def cmd_compare(parser, args) -> int:
    settings = _collect_settings(args)
    problems = args.problems.split(",") if args.problems else [settings.get("problem")]
    algorithms = args.algos.split(",") if args.algos else list(ALGORITHMS)
    problems = [p.strip() for p in problems if p and p.strip()]
    algorithms = [a.strip() for a in algorithms if a.strip()]
    if not problems:
        parser.error("compare requires --problems (comma-separated list)")
    _validate_names(parser, problems, algorithms)
    out_dir = _resolve_out_dir(settings.get("out"))
    arms = [
        (algorithm, {"problem": problem, "algorithm": algorithm})
        for problem in problems
        for algorithm in algorithms
    ]
    results = _dispatch(_build_tasks(settings, out_dir, arms), args.workers)
    _write_long_csv(out_dir / "compare.csv", results)
    summary = _summarize(results)
    _atomic(out_dir / "compare_summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out_dir / 'compare.csv'} ({len(results)} runs)")
    return 0


def cmd_ablate(parser, args) -> int:
    settings = _collect_settings(args)
    problem = settings.get("problem")
    if not problem:
        parser.error("ablate requires --problem")
    _validate_names(parser, [problem], [])
    kind = args.kind
    out_dir = _resolve_out_dir(settings.get("out"))
    prob = get_problem(problem)
    if kind == "latent-dim":
        arms = [
            (f"gpsl-g-dim{k}", {"problem": problem, "algorithm": "gpsl-g", "latent_dim": k})
            for k in dict.fromkeys((1, 2, 5, 10, prob.d))
        ]
    elif kind == "latent-dist":
        # All three initial distributions sampled in m dimensions.
        arms = [
            (f"{algorithm}-dim{prob.m}",
             {"problem": problem, "algorithm": algorithm, "latent_dim": prob.m})
            for algorithm in GPSL_ALGORITHMS
        ]
    else:  # pragma: no cover - argparse choices guard this
        parser.error(f"unknown ablation kind {kind!r}")
    results = _dispatch(_build_tasks(settings, out_dir, arms), args.workers)
    _write_long_csv(out_dir / f"ablate_{kind}.csv", results)
    summary = _summarize(results)
    _atomic(out_dir / f"ablate_{kind}_summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out_dir / f'ablate_{kind}.csv'} ({len(results)} runs)")
    return 0


def cmd_eval(parser, args) -> int:
    settings = _collect_settings(args)
    problem_name = settings.get("problem")
    algorithm = settings.get("algorithm")
    if not problem_name or not algorithm:
        parser.error("eval requires --problem and --algo")
    _validate_names(parser, [problem_name], [algorithm])
    params, _, seeds = net.load_checkpoint(args.checkpoint)
    problem = get_problem(problem_name)
    front = _load_front(problem_name, settings.get("front"))
    config_kwargs = {"problem": problem_name, "algorithm": algorithm, **_base_kwargs(settings)}
    config = TrainConfig(**config_kwargs)
    draw, _, _ = latent_sampler(config, problem)
    report = evaluate_model(
        params, problem, draw, front,
        n_eval=config.eval_samples, seed=config.eval_seed,
        ref_offset=config.ref_offset,
    )
    payload = {
        "problem": problem_name,
        "algorithm": algorithm,
        "checkpoint": str(args.checkpoint),
        "checkpoint_seeds": seeds,
        "hv_true": report.hv_true,
        "hv_learned": report.hv_learned,
        "log_hv_difference": report.log_hv_difference,
        "epsilon_log": report.epsilon_log,
    }
    text = json.dumps(payload, indent=2)
    if settings.get("out"):
        out_dir = _resolve_out_dir(settings.get("out"))
        _atomic(out_dir / "eval_report.json", text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------


def _add_common_flags(sub):
    sub.add_argument("--problem", help="problem name")
    sub.add_argument("--seeds", type=int, help="number of seeds (0..n-1); default 11")
    sub.add_argument("--iters", type=int, help="training iterations")
    sub.add_argument("--batch", type=int, help="batch size")
    sub.add_argument("--latent-dim", dest="latent_dim", type=int, help="latent dimension")
    sub.add_argument("--dirs-h", dest="dirs_h", type=int, help="direction-set division count")
    sub.add_argument("--eval-n", dest="eval_n", type=int, help="evaluation sample count")
    sub.add_argument("--eval-interval", dest="eval_interval", type=int, help="iterations between evaluations")
    sub.add_argument("--front", help="reference-front file (text rows, m columns)")
    sub.add_argument("--config", help="flat key = value config file; flags override")
    sub.add_argument("--out", help=f"output directory (default ${OUTPUT_ROOT_ENV} or ./runs)")
    sub.add_argument("--workers", type=int, default=1, help="worker processes for grids")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pslearn",
        description="Train and benchmark Pareto set learning models.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="train one (problem, algorithm) over several seeds")
    run.add_argument("--algo", help="algorithm tag")
    _add_common_flags(run)

    compare = subparsers.add_parser("compare", help="run a problems x algorithms grid")
    compare.add_argument("--problems", help="comma-separated problem names")
    compare.add_argument("--algos", help="comma-separated algorithm tags (default: all)")
    _add_common_flags(compare)

    ablate = subparsers.add_parser("ablate", help="latent-dimension or latent-distribution sweep")
    ablate.add_argument("kind", choices=("latent-dim", "latent-dist"))
    _add_common_flags(ablate)

    evalp = subparsers.add_parser("eval", help="re-evaluate a saved checkpoint")
    evalp.add_argument("--checkpoint", required=True, help="path to a .ckpt.npz file")
    evalp.add_argument("--algo", help="algorithm tag (selects the latent distribution)")
    _add_common_flags(evalp)

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
