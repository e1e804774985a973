"""CLI tests: file contracts, determinism of emitted CSVs, config parsing,
grid row counts, ablation arms, and checkpoint re-evaluation."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pslearn import cli, network as net, trainer
from pslearn.cli import CONFIG_KEYS, _base_kwargs, _parse_config_file, main
from pslearn.problems import available_problems
from pslearn.trainer import ALGORITHMS, TrainConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# What an unknown name's error lists.
VALID_PROBLEMS = ", ".join(available_problems())
VALID_ALGORITHMS = ", ".join(ALGORITHMS)

FAST = [
    "--iters", "12",
    "--batch", "6",
    "--eval-interval", "6",
    "--eval-n", "40",
    "--dirs-h", "5",
]


def run_cli(args, env_extra=None):
    # The subprocess finds the package whether or not it is installed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pslearn", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestRun:
    def test_writes_one_csv_per_seed_plus_summary(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--problem", "zdt3", "--algo", "gpsl-g",
                   "--seeds", "3", "--out", str(out), *FAST])
        assert rc == 0
        csvs = sorted(out.glob("*_seed*.csv"))
        assert len(csvs) == 3
        # A run is a one-arm grid: the long CSV and summary of `compare`.
        lines = (out / "zdt3_gpsl-g.csv").read_text().splitlines()
        assert lines[0] == "problem,algorithm,seed,iteration,log_hv_difference"
        assert len(lines) - 1 == 3 * (12 // 6 + 1)
        (row,) = json.loads((out / "zdt3_gpsl-g_summary.json").read_text())["zdt3"]
        assert row["algorithm"] == "gpsl-g"
        assert list(row["per_seed"]) == list(row["seconds"]) == ["0", "1", "2"]
        assert "median_final_log_hv_difference" in row
        assert "iqr_final_log_hv_difference" in row

    def test_same_grid_entry_as_compare(self, tmp_path):
        run, grid = tmp_path / "run", tmp_path / "compare"
        assert main(["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "2",
                     "--out", str(run), *FAST]) == 0
        assert main(["compare", "--problems", "zdt3", "--algos", "gpsl-g", "--seeds", "2",
                     "--out", str(grid), *FAST]) == 0

        def entry(path):
            (row,) = json.loads(path.read_text())["zdt3"]
            del row["seconds"]  # wall clock
            return row

        assert entry(run / "zdt3_gpsl-g_summary.json") == entry(grid / "compare_summary.json")
        assert (run / "zdt3_gpsl-g.csv").read_bytes() == (grid / "compare.csv").read_bytes()

    def test_rerun_byte_identical_csvs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["run", "--problem", "zdt3", "--algo", "psl-tch", "--seeds", "2", *FAST]
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        for name in ("zdt3_psl-tch_seed0.csv", "zdt3_psl-tch_seed1.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unknown_problem_exits_nonzero_listing_names(self, tmp_path):
        result = run_cli(["run", "--problem", "nope", "--algo", "gpsl-g",
                          "--out", str(tmp_path / "out"), *FAST])
        assert result.returncode == 1
        assert VALID_PROBLEMS in result.stderr
        assert not (tmp_path / "out").exists()

    def test_unknown_algorithm_exits_nonzero_listing_names(self, tmp_path):
        result = run_cli(["run", "--problem", "zdt3", "--algo", "bogus",
                          "--out", str(tmp_path / "out"), *FAST])
        assert result.returncode == 1
        assert VALID_ALGORITHMS in result.stderr
        assert not (tmp_path / "out").exists()

    def test_checkpoint_written_per_seed(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "1",
              "--out", str(out), *FAST])
        assert (out / "zdt3_gpsl-g_seed0.ckpt.npz").exists()

    def test_csv_header(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "1",
              "--out", str(out), *FAST])
        first = (out / "zdt3_gpsl-g_seed0.csv").read_text().splitlines()[0]
        assert first == "iteration,loss,hv_learned,hv_true,log_hv_difference"

    def test_diverging_seed_in_a_worker_is_an_error_line(self, tmp_path, capsys):
        # The worker's TrainingDiverged must survive the trip back through
        # the pool, not break it.
        cfg = tmp_path / "lr.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        rc = main(["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "2",
                   "--workers", "2", "--iters", "40", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed 0: non-finite gradient at iteration 16\n"


class TestCompare:
    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["compare", "--problems", "zdt3,dtlz7", "--algos", "gpsl-g,psl-ls,psl-tch",
                   "--seeds", "2", "--out", str(out), *FAST])
        assert rc == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        rows_per_run = 12 // 6 + 1
        assert lines[0] == "problem,algorithm,seed,iteration,log_hv_difference"
        assert len(lines) - 1 == 2 * 3 * 2 * rows_per_run

    def test_summary_ranks_by_median(self, tmp_path):
        out = tmp_path / "out"
        main(["compare", "--problems", "zdt3", "--algos", "gpsl-g,psl-ls",
              "--seeds", "2", "--out", str(out), *FAST])
        summary = json.loads((out / "compare_summary.json").read_text())
        ranking = summary["zdt3"]
        medians = [row["median_final_log_hv_difference"] for row in ranking]
        assert medians == sorted(medians)

    def test_per_run_files_also_written(self, tmp_path):
        out = tmp_path / "out"
        main(["compare", "--problems", "zdt3", "--algos", "gpsl-g",
              "--seeds", "2", "--out", str(out), *FAST])
        assert len(list(out.glob("zdt3_gpsl-g_seed*.csv"))) == 2

    def test_parallel_workers_produce_same_grid(self, tmp_path):
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        base = ["compare", "--problems", "zdt3", "--algos", "gpsl-g,psl-ls",
                "--seeds", "2", *FAST]
        assert main([*base, "--out", str(seq)]) == 0
        assert main([*base, "--out", str(par), "--workers", "2"]) == 0
        assert (seq / "compare.csv").read_bytes() == (par / "compare.csv").read_bytes()

        # Each run's MetricsLog crosses the process pool as the run's outcome.
        def summary(path):
            rows = json.loads((path / "compare_summary.json").read_text())["zdt3"]
            for row in rows:
                del row["seconds"]  # wall clock
            return rows

        assert summary(seq) == summary(par)

    def test_aborted_grid_keeps_completed_run_files_valid(self, tmp_path, capsys):
        # At this learning rate and these settings psl-tch seed 0 finishes and
        # then gpsl-g seed 0 diverges at iteration 8, which ends the grid; the
        # finished run's files must be complete and parseable, with no temp
        # litter.
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("learning_rate = 0.15\n")
        out = tmp_path / "out"
        rc = main(["compare", "--problems", "zdt3", "--algos", "psl-tch,gpsl-g",
                   "--seeds", "1", "--config", str(cfg), "--out", str(out), *FAST])
        assert rc == 1
        assert "seed 0: non-finite gradient at iteration 8" in capsys.readouterr().err
        done = out / "zdt3_psl-tch_seed0.csv"
        assert done.exists()
        lines = done.read_text().strip().splitlines()
        assert lines[0] == "iteration,loss,hv_learned,hv_true,log_hv_difference"
        assert len(lines) == 1 + 12 // 6 + 1
        assert not list(out.glob("*.tmp*"))

    @pytest.mark.parametrize("algos", [",", " , ", ""], ids=["comma", "blank", "empty"])
    def test_empty_algorithm_list_is_a_usage_error(self, tmp_path, capsys, algos):
        with pytest.raises(SystemExit) as err:
            main(["compare", "--problems", "zdt3", "--algos", algos,
                  "--out", str(tmp_path / "out"), *FAST])
        assert err.value.code == 2
        assert "--algos names no algorithm" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_names_run_once(self, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--problems", "zdt3,zdt3", "--algos", "gpsl-g, gpsl-g",
                     "--seeds", "2", "--out", str(out), *FAST]) == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 2 * (12 // 6 + 1)
        (row,) = json.loads((out / "compare_summary.json").read_text())["zdt3"]
        assert list(row["per_seed"]) == ["0", "1"]

    def test_front_file_rejected_for_several_problems(self, tmp_path, capsys):
        front = tmp_path / "front.txt"
        front.write_text("0.0 1.0\n1.0 0.0\n")
        with pytest.raises(SystemExit) as err:
            main(["compare", "--problems", "zdt3,dtlz7", "--algos", "gpsl-g",
                  "--front", str(front), "--out", str(tmp_path / "out"), *FAST])
        assert err.value.code == 2
        assert "2 problems (zdt3, dtlz7)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_front_file_scores_a_single_problem(self, tmp_path):
        front = tmp_path / "front.txt"
        front.write_text("0.0 1.0\n0.5 0.5\n1.0 0.0\n")
        out = tmp_path / "out"
        assert main(["compare", "--problems", "zdt3", "--algos", "gpsl-g", "--seeds", "1",
                     "--front", str(front), "--out", str(out), *FAST]) == 0
        assert (out / "compare.csv").exists()


class TestAblate:
    def test_latent_dim_sweep_has_five_arms(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["ablate", "latent-dim", "--problem", "zdt3", "--seeds", "1",
                   "--out", str(out), *FAST])
        assert rc == 0
        lines = (out / "ablate_latent-dim.csv").read_text().strip().splitlines()[1:]
        arms = {line.split(",")[1] for line in lines}
        assert arms == {"gpsl-g-dim1", "gpsl-g-dim2", "gpsl-g-dim5", "gpsl-g-dim10", "gpsl-g-dim30"}

    def test_latent_dist_arms_all_use_objective_dim(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["ablate", "latent-dist", "--problem", "zdt3", "--seeds", "1",
                   "--out", str(out), *FAST])
        assert rc == 0
        lines = (out / "ablate_latent-dist.csv").read_text().strip().splitlines()[1:]
        arms = {line.split(",")[1] for line in lines}
        assert arms == {"gpsl-g-dim2", "gpsl-l-dim2", "gpsl-d-dim2"}


class TestEval:
    def test_reevaluates_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "1",
              "--out", str(out), *FAST])
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out / "zdt3_gpsl-g_seed0.ckpt.npz"),
                   "--problem", "zdt3", "--algo", "gpsl-g", "--eval-n", "40"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "zdt3"
        assert "log_hv_difference" in payload
        # Matches the final row of the training CSV (same eval seed and count).
        final_row = (out / "zdt3_gpsl-g_seed0.csv").read_text().strip().splitlines()[-1]
        assert float(final_row.split(",")[-1]) == pytest.approx(
            payload["log_hv_difference"], rel=1e-12
        )

    @pytest.mark.parametrize("damage, message", [
        ("drop meta", "not a pslearn checkpoint (no meta)"),
        ("drop flat", "not a pslearn checkpoint (no flat)"),
        ("meta not json", "meta is not JSON"),
        ("npy array", "not a pslearn checkpoint (not a readable .npz archive)"),
        ("empty", "not a pslearn checkpoint (not a readable .npz archive)"),
        ("zip magic only", "not a pslearn checkpoint (not a readable .npz archive)"),
        ("first half", "not a pslearn checkpoint (not a readable .npz archive)"),
        ("text", "not a pslearn checkpoint (not a readable .npz archive)"),
    ], ids=["no-meta", "no-flat", "meta-not-json", "npy", "empty", "zip-magic", "truncated", "text"])
    def test_foreign_npz_is_an_error(self, tmp_path, capsys, damage, message):
        params = net.init_network((2, 3), seed=0)
        path = tmp_path / "bad.npz"
        net.save_checkpoint(path, params, net.init_adam(params), {})
        with np.load(path) as data:
            arrays = dict(data)
        whole = path.read_bytes()
        if damage == "meta not json":
            arrays["meta"] = np.frombuffer(b"{not json", dtype=np.uint8)
        elif damage.startswith("drop"):
            del arrays[damage.split()[1]]
        with open(path, "wb") as fh:
            if damage == "npy array":
                np.save(fh, arrays["flat"])
            elif damage == "empty":
                pass
            elif damage == "zip magic only":
                fh.write(b"PK\x03\x04" + bytes(40))
            elif damage == "first half":
                fh.write(whole[: len(whole) // 2])
            elif damage == "text":
                fh.write(b"iteration,loss\n0,1.5\n")
            else:
                np.savez(fh, **arrays)
        rc = main(["eval", "--checkpoint", str(path), "--problem", "zdt3", "--algo", "gpsl-g"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @staticmethod
    def checkpoint_with_meta(tmp_path, **changes):
        """A saved (30, 4, 30) checkpoint whose meta has ``changes`` applied."""
        params = net.init_network((30, 4, 30), seed=0)
        path = tmp_path / "edited.ckpt.npz"
        net.save_checkpoint(path, params, net.init_adam(params), {})
        with np.load(path) as data:
            arrays = dict(data)
        meta = {**json.loads(bytes(arrays["meta"]).decode("utf-8")), **changes}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return path

    def test_float_layer_size_is_an_error_naming_the_file(self, tmp_path, capsys):
        # A traceback before layer sizes were checked as ints.
        path = self.checkpoint_with_meta(tmp_path, layer_sizes=[30.0, 4, 30])
        rc = main(["eval", "--checkpoint", str(path), "--problem", "zdt3", "--algo", "gpsl-g"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: need layer_sizes[0] an int, got 30.0\n")

    @pytest.mark.parametrize("key, value", [("adam", [1]), ("layer_sizes", 30)],
                             ids=["adam-list", "sizes-int"])
    def test_meta_of_the_wrong_json_type_is_an_error_naming_the_file(self, tmp_path, capsys,
                                                                      key, value):
        # A traceback (TypeError) before meta types were caught.
        path = self.checkpoint_with_meta(tmp_path, **{key: value})
        rc = main(["eval", "--checkpoint", str(path), "--problem", "zdt3", "--algo", "gpsl-g"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("flags, message", [
        (["--problem", "zdt3", "--algo", "gpsl-l"], "algorithm 'gpsl-g', not 'gpsl-l'"),
        (["--problem", "dtlz7", "--algo", "gpsl-g"], "problem 'zdt3', not 'dtlz7'"),
        (["--problem", "zdt3", "--algo", "gpsl-g", "--latent-dim", "2"], "latent_dim 30, not 2"),
    ], ids=["algo", "problem", "latent-dim"])
    def test_contradicting_the_checkpoint_is_an_error(self, tmp_path, capsys, flags, message):
        # gpsl-l at k = d has the same latent dimension as gpsl-g: without
        # the check it would score the model on the wrong sampler.
        out = tmp_path / "out"
        assert main(["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "1",
                     "--out", str(out), *FAST]) == 0
        capsys.readouterr()
        ckpt = out / "zdt3_gpsl-g_seed0.ckpt.npz"
        assert main(["eval", "--checkpoint", str(ckpt), *flags]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: trained with {message}\n"

    def test_latent_dim_comes_from_the_checkpoint(self, tmp_path, capsys):
        # A latent-dim ablation arm: the network's input width is 2, not d.
        out = tmp_path / "out"
        assert main(["run", "--problem", "zdt3", "--algo", "gpsl-g", "--latent-dim", "2",
                     "--seeds", "1", "--out", str(out), *FAST]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "zdt3_gpsl-g_seed0.ckpt.npz"),
                     "--problem", "zdt3", "--algo", "gpsl-g", "--eval-n", "40"]) == 0
        payload = json.loads(capsys.readouterr().out)
        final_row = (out / "zdt3_gpsl-g_seed0.csv").read_text().strip().splitlines()[-1]
        assert payload["log_hv_difference"] == float(final_row.split(",")[-1])

    @pytest.mark.parametrize("seeds", [{"train_seed": 0}, [0, 1]], ids=["dict", "list"])
    def test_checkpoint_without_record_evaluates_as_given(self, tmp_path, capsys, seeds):
        # Checkpoints written outside the CLI carry only what their writer
        # stored; eval then trusts the flags.
        params = net.init_network((30, 4, 30), seed=0)
        path = tmp_path / "plain.ckpt.npz"
        net.save_checkpoint(path, params, net.init_adam(params), seeds)
        for algo in ("gpsl-g", "gpsl-l"):
            assert main(["eval", "--checkpoint", str(path), "--problem", "zdt3",
                         "--algo", algo, "--eval-n", "40"]) == 0
            assert json.loads(capsys.readouterr().out)["algorithm"] == algo

    @pytest.mark.parametrize("flag", [
        "--seeds", "--iters", "--batch", "--dirs-h", "--eval-interval", "--workers",
    ])
    def test_training_flags_are_usage_errors(self, tmp_path, capsys, flag):
        # Nothing in eval reads them, so they must not be accepted and ignored.
        with pytest.raises(SystemExit) as err:
            main(["eval", "--checkpoint", str(tmp_path / "c.ckpt.npz"),
                  "--problem", "zdt3", "--algo", "gpsl-g", flag, "3"])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_config_file_shared_with_run(self, tmp_path, capsys):
        # Keys that only training reads are still accepted from a file.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = zdt3\nalgorithm = gpsl-g\niterations = 12\nbatch_size = 6\n"
                       "eval_interval = 6\neval_samples = 40\ndirections_h = 5\nseeds = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg),
                     "--checkpoint", str(out / "zdt3_gpsl-g_seed0.ckpt.npz")]) == 0
        payload = json.loads(capsys.readouterr().out)
        final_row = (out / "zdt3_gpsl-g_seed0.csv").read_text().strip().splitlines()[-1]
        assert payload["log_hv_difference"] == float(final_row.split(",")[-1])


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "problem = zdt3\nalgorithm = gpsl-g\niterations = 12\nbatch_size = 6\n"
            "eval_interval = 6\neval_samples = 40\ndirections_h = 5\nseeds = 2\n"
        )
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--seeds", "1", "--out", str(out)])
        assert rc == 0
        assert len(list(out.glob("*_seed*.csv"))) == 1  # flag beat the file value

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = zdt3\nwibble = 3\n")
        rc = main(["run", "--config", str(cfg), "--algo", "gpsl-g", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("line", ["learning_rate = fast", "iterations = x"])
    def test_bad_value_names_path_and_line(self, tmp_path, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = zdt3\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{cfg}:2: bad value")):
            _parse_config_file(cfg)

    def test_seed_key_rejected(self, tmp_path):
        # Runs train seeds 0..seeds-1, so a file `seed` would be ignored.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = zdt3\nseed = 5\n")
        with pytest.raises(ValueError, match=re.escape(f"{cfg}:2: unknown key 'seed'")):
            _parse_config_file(cfg)

    def test_every_key_reaches_a_run(self):
        # A key is read by the CLI itself or passed on to TrainConfig;
        # any other key would parse and then be silently dropped.
        cli_keys = {"problem", "algorithm", "seeds", "front", "out"}
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        passed = _base_kwargs({key: key for key in CONFIG_KEYS})
        for key in CONFIG_KEYS.keys() - cli_keys:
            assert key in fields and passed.get(key) == key, key

    def test_readme_lists_exactly_the_config_keys(self):
        # The flag table's key column plus the "keys without a flag" list.
        text = README.read_text(encoding="utf-8")
        flagged = re.findall(r"^\| `--[^|]*\| `(\w+)` \|$", text, flags=re.M)
        unflagged = re.search(r"keys without a flag \(([^)]*)\)", text).group(1)
        listed = flagged + re.findall(r"`(\w+)`", unflagged)
        assert sorted(listed) == sorted(CONFIG_KEYS)

    @pytest.mark.parametrize("flag, key, file_value, flag_value", [
        ("--problem", "problem", "zdt3", "dtlz7"),
        ("--algo", "algorithm", "gpsl-g", "psl-tch"),
        ("--iters", "iterations", 12, 7),
        ("--batch", "batch_size", 6, 5),
        ("--latent-dim", "latent_dim", 2, 3),
        ("--dirs-h", "directions_h", 5, 4),
        ("--eval-n", "eval_samples", 40, 30),
        ("--eval-interval", "eval_interval", 6, 3),
    ])
    def test_each_flag_overrides_its_key(self, tmp_path, monkeypatch,
                                         flag, key, file_value, flag_value):
        configs = []

        def train(config, front):
            configs.append(config)
            raise ValueError("stop before training")

        monkeypatch.setattr("pslearn.cli.train", train)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = zdt3\nalgorithm = gpsl-g\n{key} = {file_value}\n")
        base = ["run", "--config", str(cfg), "--seeds", "1", "--out", str(tmp_path)]
        assert main(base) == 1
        assert main([*base, flag, str(flag_value)]) == 1
        assert [getattr(config, key) for config in configs] == [file_value, flag_value]

    def test_comments_allowed(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# experiment\nproblem = zdt3  # trailing\n")
        assert _parse_config_file(cfg)["problem"] == "zdt3"


class TestUnrunnableSettings:
    @pytest.mark.parametrize("interval", [0, -3])
    def test_eval_interval_below_one_is_an_error(self, tmp_path, capsys, interval):
        rc = main(["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "1",
                   "--out", str(tmp_path), *FAST, "--eval-interval", str(interval)])
        assert rc == 1
        assert "eval_interval >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--problem", "zdt3", "--algo", "gpsl-g"],
        ["compare", "--problems", "zdt3", "--algos", "gpsl-g"],
        ["ablate", "latent-dist", "--problem", "zdt3"],
    ], ids=["run", "compare", "ablate"])
    def test_zero_seeds_is_an_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([*command, "--seeds", "0", "--out", str(out), *FAST]) == 1
        assert capsys.readouterr().err == "error: need seeds >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--problem", "zdt3", "--algo", "gpsl-g"],
        ["compare", "--problems", "zdt3", "--algos", "gpsl-g"],
        ["ablate", "latent-dist", "--problem", "zdt3"],
    ], ids=["run", "compare", "ablate"])
    def test_rejected_config_leaves_no_directory(self, tmp_path, capsys, command):
        # TrainConfig checks every task before the output directory is made.
        out = tmp_path / "out"
        assert main([*command, "--seeds", "1", "--out", str(out), *FAST, "--iters", "0"]) == 1
        assert "iterations >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("eval_samples", "0"), ("directions_h", "0"), ("dirichlet_alpha", "0"),
        ("eval_seed", "-1"), ("learning_rate", "-1"), ("learning_rate", "nan"),
        ("beta1", "1"), ("beta2", "-0.5"), ("eps_adam", "0"), ("ref_offset", "0"),
        ("ref_offset", "inf"), ("tch_epsilon", "nan"), ("cosmos_gamma", "nan"),
        ("beta1", "nan"), ("eps_adam", "inf"), ("dirichlet_alpha", "inf"),
        ("tch_epsilon", "-5"), ("cosmos_gamma", "-3"),
    ], ids=lambda value: value)
    def test_out_of_range_setting_names_its_key(self, tmp_path, capsys, key, value):
        # Each of these used to be replaced by a default, to fail after the
        # output directory was made, or to run and report a wrong number.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("iterations = 12\nbatch_size = 6\neval_interval = 6\n"
                       f"eval_samples = 40\ndirections_h = 5\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["run", "--problem", "zdt3", "--algo", "gpsl-d", "--seeds", "1",
                     "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: need {key} ")
        assert not out.exists()

    @pytest.mark.parametrize("command, valid", [
        (["compare", "--problems", "zdt3,nope", "--algos", "gpsl-g"], VALID_PROBLEMS),
        (["compare", "--problems", "zdt3", "--algos", "gpsl-g,bogus"], VALID_ALGORITHMS),
        (["ablate", "latent-dim", "--problem", "nope"], VALID_PROBLEMS),
        (["eval", "--problem", "nope", "--algo", "gpsl-g"], VALID_PROBLEMS),
        (["eval", "--problem", "zdt3", "--algo", "bogus"], VALID_ALGORITHMS),
    ], ids=["compare-problem", "compare-algo", "ablate-problem", "eval-problem", "eval-algo"])
    def test_unknown_name_lists_the_valid_ones(self, tmp_path, capsys, command, valid):
        # `get_problem` and `TrainConfig` reject the name, as for `run`.
        if command[0] == "eval":
            params = net.init_network((30, 4, 30), seed=0)
            ckpt = tmp_path / "zdt3.ckpt.npz"
            seeds = {"problem": "zdt3", "algorithm": "gpsl-g"}
            net.save_checkpoint(ckpt, params, net.init_adam(params), seeds)
            command = [*command, "--checkpoint", str(ckpt)]
        else:
            command = [*command, "--seeds", "1", *FAST]
        out = tmp_path / "out"
        assert main([*command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and valid in err
        assert not out.exists()

    def test_rejected_latent_dim_leaves_no_directory(self, tmp_path, capsys):
        # psl-tch samples the 2-simplex on zdt3; every task's latent
        # dimension is checked before the output directory is made.
        out = tmp_path / "Y"
        assert main(["run", "--problem", "zdt3", "--algo", "psl-tch", "--latent-dim", "3",
                     "--seeds", "1", "--out", str(out), *FAST]) == 1
        assert "latent_dim 3 is not configurable" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_front_cell_leaves_no_directory(self, tmp_path, capsys):
        # A nan row once scored every run as a perfect log HV difference.
        front = tmp_path / "front.txt"
        front.write_text("nan 0.5\n" + "".join(f"{x} {1 - x}\n" for x in (0.0, 0.5, 1.0)))
        out = tmp_path / "out"
        assert main(["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "1",
                     "--front", str(front), "--out", str(out), *FAST]) == 1
        assert capsys.readouterr().err == (
            f"error: {front}: non-finite value at line 1: 'nan 0.5'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--problem", "four_bar_truss", "--algo", "gpsl-g"],
        ["compare", "--problems", "zdt3,four_bar_truss", "--algos", "gpsl-g"],
    ], ids=["run", "compare"])
    def test_problem_without_front_leaves_no_directory(self, tmp_path, capsys, command):
        # four_bar_truss has no analytic front and no --front is given; every
        # problem's front is loaded before the output directory is made.
        out = tmp_path / "Z"
        assert main([*command, "--seeds", "1", "--out", str(out), *FAST]) == 1
        assert "four_bar_truss has no analytic reference front" in capsys.readouterr().err
        assert not out.exists()


class TestFrontSharing:
    def test_serial_grid_loads_and_scores_one_front(self, tmp_path, monkeypatch):
        loads = []
        real_front = cli.pareto_front
        monkeypatch.setattr(cli, "pareto_front", lambda p: loads.append(p.id) or real_front(p))
        front_hvs = []
        real_hv = trainer.exact_hv

        def counting(points, ref):
            front_hvs.append(len(points))
            return real_hv(points, ref)

        monkeypatch.setattr(trainer, "exact_hv", counting)
        cli._load_front.cache_clear()
        try:
            assert main(["compare", "--problems", "zdt3", "--algos", "gpsl-g,psl-tch",
                         "--seeds", "3", "--out", str(tmp_path), *FAST]) == 0
            front = cli._load_front("zdt3", None)
        finally:
            cli._load_front.cache_clear()
        assert loads == ["zdt3"]
        assert front_hvs.count(len(front.points)) == 1
        assert len(front_hvs) == 1 + 6 * (1 + 12 // 6)  # one front, 3 rows per run


class TestOutputRootEnv:
    def test_env_var_sets_default_root(self, tmp_path):
        root = tmp_path / "envroot"
        result = run_cli(
            ["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "1", *FAST],
            env_extra={"PSLEARN_OUT": str(root)},
        )
        assert result.returncode == 0
        assert len(list(root.glob("*_seed0.csv"))) == 1
