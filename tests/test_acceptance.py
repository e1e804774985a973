"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The end-to-end criteria share module-scoped training runs; expect a few
minutes of CPU time for the whole module.
"""


import numpy as np
import pytest

import pslearn.network as net
from pslearn.cli import main as cli_main
from pslearn.hv import exact_hv, nondominated_filter, r2_hv_approx, r2_hv_subgradient
from pslearn.problems import get_problem
from pslearn.sampling import das_dennis
from pslearn.scalarization import (
    cosmos,
    hv_scalarization,
    modified_tchebycheff,
    tchebycheff,
    weighted_sum,
)
from pslearn.trainer import TrainConfig, train, _algorithm_loss, _batch_loss, _RunningExtremes

from conftest import central_difference_gradient, monte_carlo_hv


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared end-to-end runs (five seeds each, full default budgets)


def _final(metrics):
    return metrics.records[-1].log_hv_difference


@pytest.fixture(scope="module")
def zdt3_default_runs():
    return [
        train(TrainConfig(problem="zdt3", algorithm="gpsl-g", seed=seed)).metrics
        for seed in range(5)
    ]


@pytest.fixture(scope="module")
def dtlz7_runs():
    out = {}
    for algo in ("gpsl-g", "psl-ls"):
        out[algo] = [
            train(TrainConfig(problem="dtlz7", algorithm=algo, seed=seed)).metrics
            for seed in range(5)
        ]
    return out


@pytest.fixture(scope="module")
def zdt3_latent_dim_runs():
    out = {}
    for k in (1, 2):
        out[k] = [
            train(
                TrainConfig(problem="zdt3", algorithm="gpsl-g", seed=seed, latent_dim=k)
            ).metrics
            for seed in range(5)
        ]
    return out


# ---------------------------------------------------------------------------
# 1. Gradient correctness (rel err 1e-4, >= 20 non-degenerate points per loss)


class TestCriterion1Gradients:
    RTOL = 1e-4

    def _check_scalar_loss(self, name, sample):
        rng = np.random.default_rng(17)
        worst = 0.0
        checked = 0
        while checked < 20:
            out = sample(rng)
            if out is None:
                continue
            fn, f = out
            grad = fn(f)[1]
            fd = central_difference_gradient(lambda x: fn(x)[0], f)
            scale = np.maximum(np.abs(fd), 1e-7)
            worst = max(worst, float(np.max(np.abs(grad - fd) / scale)))
            checked += 1
        report(f"1.{name}", worst < self.RTOL, f"worst rel err {worst:.2e} over {checked} points")

    def test_weighted_sum(self):
        def sample(rng):
            p = rng.dirichlet(np.ones(3))
            return (lambda f: weighted_sum(f, p)), rng.random(3)

        self._check_scalar_loss("weighted-sum", sample)

    def test_tchebycheff(self):
        def sample(rng):
            p = rng.dirichlet(np.ones(3)) + 0.02
            f = rng.random(3)
            terms = np.sort(p * (f + 0.1))
            if terms[-1] - terms[-2] < 1e-3:
                return None
            return (lambda x: tchebycheff(x, p, 0.1)), f

        self._check_scalar_loss("tchebycheff", sample)

    def test_modified_tchebycheff(self):
        def sample(rng):
            p = rng.dirichlet(np.ones(3)) + 0.05
            f = rng.random(3)
            terms = np.sort((f + 0.1) / p)
            if terms[-1] - terms[-2] < 1e-3:
                return None
            return (lambda x: modified_tchebycheff(x, p, 0.1)), f

        self._check_scalar_loss("modified-tchebycheff", sample)

    def test_cosmos(self):
        def sample(rng):
            p = rng.dirichlet(np.ones(3)) + 0.02
            return (lambda f: cosmos(f, p, gamma=1.0)), rng.random(3) + 0.1

        self._check_scalar_loss("cosmos", sample)

    def test_hv_scalarization(self):
        r = np.full(3, 1.5)

        def sample(rng):
            lam = rng.dirichlet(np.ones(3)) + 0.05
            lam = lam / np.linalg.norm(lam)
            f = rng.random(3)
            q = np.sort((r - f) / lam)
            if q[1] - q[0] < 1e-3:
                return None
            return (lambda x: hv_scalarization(x, lam, r)), f

        self._check_scalar_loss("hv-scalarization", sample)

    def test_r2_hv(self):
        rng = np.random.default_rng(23)
        dirs = das_dennis(2, 12)
        r = np.full(2, 1.3)
        worst = 0.0
        checked = 0
        while checked < 20:
            pts = rng.random((5, 2))
            inner = (r[None, None, :] - pts[:, None, :]) / dirs.directions[None, :, :]
            per_dir = np.sort(inner.min(axis=2), axis=0)
            if np.min(per_dir[-1] - per_dir[-2]) < 1e-3:
                continue
            grad = r2_hv_subgradient(pts, r, dirs)
            fd = central_difference_gradient(
                lambda v: r2_hv_approx(v.reshape(pts.shape), r, dirs), pts.ravel()
            ).reshape(pts.shape)
            scale = np.maximum(np.abs(fd), 1e-7)
            worst = max(worst, float(np.max(np.abs(grad - fd) / scale)))
            checked += 1
        report("1.r2-hv", worst < self.RTOL, f"worst rel err {worst:.2e} over {checked} points")

    def test_full_network_chain(self):
        problem = get_problem("zdt3")
        hv_loss = _algorithm_loss(
            TrainConfig(problem="zdt3", algorithm="gpsl-g", directions_h=5), problem
        )
        rng = np.random.default_rng(31)
        worst = 0.0
        for probe in range(20):
            params = net.init_network((30, 4, 30), seed=1000 + probe)
            latents = rng.standard_normal((3, 30)) + 0.5

            def wide():
                # Mutually non-dominated corners freeze the normalization box.
                ext = _RunningExtremes(2)
                ext.update(np.array([[-5.0, 15.0], [15.0, -5.0]]))
                return ext

            def loss_of(theta):
                trial = params.copy()
                trial.flat[:] = theta
                loss, _ = _batch_loss(trial, latents, problem, wide(), hv_loss)
                return loss

            # The gradient is laid out like params.flat.
            _, analytic = _batch_loss(params, latents, problem, wide(), hv_loss)
            theta = params.flat.copy()
            fd = central_difference_gradient(loss_of, theta)
            scale = np.maximum(np.abs(fd), 1e-7)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))
        report("1.full-chain", worst < self.RTOL, f"worst rel err {worst:.2e} over 20 probes")


# ---------------------------------------------------------------------------
# 2. Hypervolume oracle equivalence


class TestCriterion2HvOracle:
    def test_exact_identity(self):
        value = exact_hv([[1.0, 2.0], [2.0, 1.0]], [3.0, 3.0])
        report("2.identity", value == 3.0, f"exact_hv = {value!r}")

    def test_monte_carlo_equivalence(self):
        rng = np.random.default_rng(41)
        failures = []
        for trial in range(20):
            m = 2 if trial < 10 else 3
            pts = rng.random((int(rng.integers(3, 25)), m))
            r = np.full(m, 1.1 + 0.4 * rng.random())
            exact = exact_hv(pts, r)
            mc, stderr = monte_carlo_hv(pts, r, 1_000_000, seed=5000 + trial)
            if abs(exact - mc) > 2.576 * stderr:
                failures.append((trial, exact, mc, stderr))
        report(
            "2.monte-carlo",
            not failures,
            f"20 instances within 99% CI" if not failures else f"outside CI: {failures}",
        )


# ---------------------------------------------------------------------------
# 3. Direction-count convergence of the hypervolume approximation


class TestCriterion3R2Convergence:
    def test_convergence(self):
        rng = np.random.default_rng(53)
        r = np.full(2, 1.2)
        worst_high = 0.0
        ok_ordering = True
        for _ in range(10):
            pts = nondominated_filter(rng.random((25, 2)))
            exact = exact_hv(pts, r)
            err15 = abs(r2_hv_approx(pts, r, das_dennis(2, 15)) - exact) / exact
            err1023 = abs(r2_hv_approx(pts, r, das_dennis(2, 1023)) - exact) / exact
            ok_ordering &= err1023 < err15
            worst_high = max(worst_high, err1023)
        report(
            "3.r2-convergence",
            ok_ordering and worst_high <= 0.10,
            f"err(H=1023) < err(H=15) on all sets, worst err(H=1023) {worst_high:.3f}",
        )


# ---------------------------------------------------------------------------
# 4. Grid minimization of the weighted Tchebycheff yields weak Pareto optima


class TestCriterion4WeakParetoOptimality:
    def test_grid_argmin_not_strictly_dominated(self):
        # Convex two-variable toy: two shifted paraboloids.
        grid_side = 100
        u = np.linspace(-1.0, 2.0, grid_side)
        xx, yy = np.meshgrid(u, u)
        decisions = np.column_stack([xx.ravel(), yy.ravel()])
        f1 = (decisions**2).sum(axis=1)
        f2 = ((decisions - 1.0) ** 2).sum(axis=1)
        objectives = np.column_stack([f1, f2])
        # The loss measures objectives from the ideal point, their minimum.
        from_ideal = objectives - objectives.min(axis=0)
        rng = np.random.default_rng(61)
        ok = True
        for _ in range(10):
            p = rng.dirichlet(np.ones(2)) + 1e-3
            values, _ = tchebycheff(from_ideal, np.broadcast_to(p, from_ideal.shape), 0.1)
            best = int(np.argmin(values))
            strictly_better = np.all(objectives < objectives[best], axis=1)
            ok &= not bool(strictly_better.any())
        report("4.weak-pareto", ok, "grid argmin never strictly dominated (10 preferences)")


# ---------------------------------------------------------------------------
# 5. End-to-end ZDT3 at full defaults


class TestCriterion5Zdt3EndToEnd:
    def test_hypervolume_ratio_and_improvement(self, zdt3_default_runs):
        ratios = [
            m.records[-1].hv_learned / m.records[-1].hv_true for m in zdt3_default_runs
        ]
        improvements = [
            m.records[0].log_hv_difference - m.records[-1].log_hv_difference
            for m in zdt3_default_runs
        ]
        med_ratio = float(np.median(ratios))
        med_gain = float(np.median(improvements))
        report(
            "5.zdt3-end-to-end",
            med_ratio >= 0.90 and med_gain >= 1.0,
            f"median hv ratio {med_ratio:.4f} (>=0.90), median log-diff gain {med_gain:.2f} (>=1.0)",
        )

    def test_training_loss_trend(self, zdt3_default_runs):
        # Smoothed over a 50-iteration window (five logged training rows at
        # the default evaluation interval), the loss trends down across the
        # run. The raw loss is measured in running-normalization units, so
        # the trend is taken as the median over seeds; row 0 (the untrained
        # probe, scored with its own fresh normalization) is not a training
        # iteration and is excluded.
        drops = []
        for metrics in zdt3_default_runs:
            losses = [r.loss for r in metrics.records[1:]]
            drops.append(float(np.mean(losses[:5])) - float(np.mean(losses[-5:])))
        med = float(np.median(drops))
        report("5b.loss-trend", med > 0.0, f"median first-minus-last window gap {med:.5f} > 0")

    def test_preference_baseline_improves_at_full_budget(self):
        metrics = train(TrainConfig(problem="zdt3", algorithm="psl-tch", seed=0)).metrics
        first = metrics.records[0].log_hv_difference
        final = metrics.records[-1].log_hv_difference
        report(
            "5c.psl-tch-improves",
            final < first,
            f"psl-tch zdt3 log HV diff {first:.3f} -> {final:.3f}",
        )


# ---------------------------------------------------------------------------
# 6. Comparative claim on the disconnected-front problem


class TestCriterion6Dtlz7Comparison:
    def test_gpsl_not_worse_than_weighted_sum_baseline(self, dtlz7_runs):
        medians = {
            algo: float(np.median([_final(m) for m in runs]))
            for algo, runs in dtlz7_runs.items()
        }
        # Reported alongside the medians: the median learning curves.
        for algo, runs in dtlz7_runs.items():
            iters = [r.iteration for r in runs[0].records]
            curves = np.array([[r.log_hv_difference for r in m.records] for m in runs])
            med_curve = np.median(curves, axis=0)
            picks = [0, len(iters) // 4, len(iters) // 2, 3 * len(iters) // 4, -1]
            summary = ", ".join(f"it{iters[i]}={med_curve[i]:.2f}" for i in picks)
            print(f"\n  dtlz7 {algo} median curve: {summary}")
        report(
            "6.dtlz7-comparison",
            medians["gpsl-g"] <= medians["psl-ls"],
            f"median final log HV diff: gpsl-g {medians['gpsl-g']:.3f} vs psl-ls {medians['psl-ls']:.3f}",
        )


# ---------------------------------------------------------------------------
# 7. Latent-dimension ablation


class TestCriterion7LatentDimAblation:
    def test_dim1_worse_than_dim2(self, zdt3_latent_dim_runs):
        med = {
            k: float(np.median([_final(m) for m in runs]))
            for k, runs in zdt3_latent_dim_runs.items()
        }
        report(
            "7.latent-dim",
            med[1] > med[2],
            f"median final log HV diff: k=1 {med[1]:.3f} > k=2 {med[2]:.3f}",
        )


# ---------------------------------------------------------------------------
# 8. Determinism of emitted metrics CSVs


class TestCriterion8Determinism:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "run", "--problem", "zdt3", "--algo", "gpsl-g", "--seeds", "2",
            "--iters", "30", "--batch", "8", "--eval-interval", "10",
            "--eval-n", "64", "--dirs-h", "8",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main([*args, "--out", str(out_a)]) == 0
        assert cli_main([*args, "--out", str(out_b)]) == 0
        identical = all(
            (out_a / name.name).read_bytes() == (out_b / name.name).read_bytes()
            for name in sorted(out_a.glob("*.csv"))
        )
        report("8.determinism", identical, "metrics CSVs byte-identical across reruns")


# ---------------------------------------------------------------------------
# 9. Non-dominated filter against the definition-based oracle


class TestCriterion9FilterOracle:
    @staticmethod
    def _oracle(pts):
        pts = np.unique(pts, axis=0)
        keep = np.ones(len(pts), dtype=bool)
        for i in range(len(pts)):
            le = np.all(pts <= pts[i], axis=1)
            lt = np.any(pts < pts[i], axis=1)
            keep[i] = not np.any(le & lt)
        return pts[keep]

    def test_1000_random_instances(self):
        rng = np.random.default_rng(71)
        for trial in range(1000):
            n = int(rng.integers(1, 201))
            m = int(rng.integers(2, 5))
            # Mix continuous and low-resolution grids so duplicates and
            # dominated points both occur.
            pts = rng.random((n, m))
            if trial % 3 == 0:
                pts = np.round(pts, 1)
            got = sorted(map(tuple, nondominated_filter(pts)))
            expected = sorted(map(tuple, self._oracle(pts)))
            if got != expected:
                report("9.filter-oracle", False, f"mismatch at trial {trial}")
        report("9.filter-oracle", True, "matches oracle on 1000 instances (n<=200, m<=4)")
