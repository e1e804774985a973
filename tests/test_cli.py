"""CLI tests: file contracts, determinism of emitted CSVs, config parsing,
grid row counts, ablation arms, and checkpoint re-evaluation."""

import json
import os
import re
import subprocess
import sys

import pytest

from pslearn.cli import _parse_config_file, main

FAST = [
    "--iters", "12",
    "--batch", "6",
    "--eval-interval", "6",
    "--eval-n", "40",
    "--dirs-h", "5",
]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
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
        assert (out / "zdt3_gpsl-g_summary.json").exists()
        summary = json.loads((out / "zdt3_gpsl-g_summary.json").read_text())
        assert summary["seeds"] == [0, 1, 2]
        assert "median_final_log_hv_difference" in summary
        assert "iqr_final_log_hv_difference" in summary

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
                          "--out", str(tmp_path), *FAST])
        assert result.returncode != 0
        assert "zdt3" in result.stderr

    def test_unknown_algorithm_exits_nonzero_listing_names(self, tmp_path):
        result = run_cli(["run", "--problem", "zdt3", "--algo", "bogus",
                          "--out", str(tmp_path), *FAST])
        assert result.returncode != 0
        assert "gpsl-g" in result.stderr

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

    def test_aborted_grid_keeps_completed_run_files_valid(self, tmp_path):
        # four_bar_truss has no analytic front and no --front is given, so its
        # first run raises after the zdt3 runs completed; those files must be
        # complete and parseable, with no temp litter.
        out = tmp_path / "out"
        rc = main(["compare", "--problems", "zdt3,four_bar_truss", "--algos", "gpsl-g",
                   "--seeds", "1", "--out", str(out), *FAST])
        assert rc == 1
        done = out / "zdt3_gpsl-g_seed0.csv"
        assert done.exists()
        lines = done.read_text().strip().splitlines()
        assert lines[0] == "iteration,loss,hv_learned,hv_true,log_hv_difference"
        assert len(lines) == 1 + 12 // 6 + 1
        assert not list(out.glob("*.tmp*"))


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

    @pytest.mark.parametrize("line", ["hv_batch_as_set = maybe", "iterations = x"])
    def test_bad_value_names_path_and_line(self, tmp_path, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = zdt3\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{cfg}:2: bad value")):
            _parse_config_file(cfg)

    @pytest.mark.parametrize("text, expected", [
        ("TRUE", True), ("yes", True), ("1", True), ("False", False), ("NO", False), ("0", False),
    ])
    def test_boolean_spellings(self, tmp_path, text, expected):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"hv_batch_as_set = {text}\n")
        assert _parse_config_file(cfg)["hv_batch_as_set"] is expected

    def test_comments_allowed(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# experiment\nproblem = zdt3  # trailing\n")
        assert _parse_config_file(cfg)["problem"] == "zdt3"


class TestOutputRootEnv:
    def test_env_var_sets_default_root(self, tmp_path):
        root = tmp_path / "envroot"
        result = run_cli(
            ["run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "1", *FAST],
            env_extra={"PSLEARN_OUT": str(root)},
        )
        assert result.returncode == 0
        assert len(list(root.glob("*_seed0.csv"))) == 1
