"""Trainer tests: loop contracts, determinism, evaluation, and full-chain
gradients (loss -> objectives -> network) against finite differences with
frozen normalization state."""

import math
import pickle
import re
import threading
import tracemalloc

import numpy as np
import pytest

import pslearn.network as net
import pslearn.trainer as trainer

from pslearn.problems import (
    Problem,
    ParetoFrontData,
    get_problem,
    load_reference_front,
    pareto_front,
    register_problem,
)
from pslearn.trainer import (
    ALGORITHMS,
    MetricsLog,
    MetricsRecord,
    TrainConfig,
    TrainingDiverged,
    _algorithm_loss,
    _batch_loss,
    _RunningExtremes,
    _train_loop,
    evaluate_model,
    latent_sampler,
    train,
    write_metrics_csv,
)

from conftest import central_difference_gradient

TINY = dict(iterations=8, batch_size=8, eval_interval=4, eval_samples=64,
            directions_h=6, hidden_sizes=(16, 16))

def wide_extremes(m, low=-5.0, high=15.0):
    # Anti-diagonal corners are mutually non-dominated, so the recorded
    # extremes span the whole box and FD probes see a frozen normalization.
    ext = _RunningExtremes(m)
    corners = np.full((m, m), low) + np.eye(m) * (high - low)
    ext.update(corners)
    return ext

def deterministic_fields(metrics):
    """Everything in the log except wall-clock timing."""
    return [
        (r.iteration, r.loss, r.hv_learned, r.hv_true, r.log_hv_difference)
        for r in metrics.records
    ]

def unflatten_into(params, theta):
    # A copy of params with theta, laid out like params.flat, as parameters.
    trial = params.copy()
    trial.flat[:] = theta
    return trial

# A smooth convex toy problem whose objectives share no minimizer except in
# the degenerate variant used by the weighted-sum convergence test.
def _register_toy(problem_id, shift):
    try:
        get_problem(problem_id)
        return
    except ValueError:
        pass
    register_problem(
        Problem(
            id=problem_id,
            m=2,
            d=2,
            lb=np.full(2, -2.0),
            ub=np.full(2, 3.0),
            _evaluate_batch=lambda xs: np.column_stack(
                [
                    ((xs - 0.0) ** 2).sum(axis=1),
                    ((xs - shift) ** 2).sum(axis=1),
                ]
            ),
        )
    )

class TestConfig:
    def test_unknown_algorithm_lists_names(self):
        with pytest.raises(ValueError, match="gpsl-g"):
            TrainConfig(problem="zdt3", algorithm="nope")

    def test_latent_dim_defaults(self):
        zdt3 = get_problem("zdt3")
        assert TrainConfig(problem="zdt3", algorithm="gpsl-g").resolved_latent_dim(zdt3) == 30
        assert TrainConfig(problem="zdt3", algorithm="gpsl-g", latent_dim=2).resolved_latent_dim(zdt3) == 2
        assert TrainConfig(problem="zdt3", algorithm="gpsl-d").resolved_latent_dim(zdt3) == 2
        assert TrainConfig(problem="zdt3", algorithm="psl-tch").resolved_latent_dim(zdt3) == 2

    def test_negative_seed_names_its_key(self):
        # numpy's seeding would reject it later without naming the key.
        with pytest.raises(ValueError, match="^need seed >= 0, got -1$"):
            TrainConfig(problem="zdt3", algorithm="gpsl-g", seed=-1)

    @pytest.mark.parametrize("sizes", [(8.7,), ("8",), (0,), (True,), (16, -1)])
    def test_hidden_sizes_must_be_ints_of_at_least_one(self, sizes):
        with pytest.raises(ValueError, match=re.escape(
                f"need hidden_sizes of ints >= 1, got {sizes!r}")):
            TrainConfig(problem="zdt3", algorithm="gpsl-g", hidden_sizes=sizes)

    def test_no_hidden_layer_trains_a_linear_model(self):
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", **{**TINY, "hidden_sizes": ()})
        result = train(cfg)
        assert result.params.layer_sizes == (30, 30)

    def test_dirichlet_latent_dim_not_configurable(self):
        cfg = TrainConfig(problem="zdt3", algorithm="psl-ls", latent_dim=5)
        with pytest.raises(ValueError, match="simplex"):
            cfg.resolved_latent_dim(get_problem("zdt3"))

class TestLatentSampler:
    def test_gaussian_centered_at_box_midpoint_when_full_dim(self):
        prob = get_problem("four_bar_truss")
        cfg = TrainConfig(problem="four_bar_truss", algorithm="gpsl-g")
        draw, offset, scale = latent_sampler(cfg, prob)
        np.testing.assert_allclose(offset, (prob.lb + prob.ub) / 2.0)
        samples = draw(4000, 99)
        np.testing.assert_allclose(samples.mean(axis=0), offset, atol=0.1)

    def test_gaussian_standard_normal_for_reduced_dim(self):
        prob = get_problem("zdt3")
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", latent_dim=2)
        draw, offset, _ = latent_sampler(cfg, prob)
        np.testing.assert_array_equal(offset, np.zeros(2))
        assert draw(7, 1).shape == (7, 2)

    def test_dirichlet_used_for_preference_algorithms(self):
        prob = get_problem("dtlz5")
        cfg = TrainConfig(problem="dtlz5", algorithm="psl-hv")
        draw, _, _ = latent_sampler(cfg, prob)
        samples = draw(20, 3)
        np.testing.assert_allclose(samples.sum(axis=1), 1.0, atol=1e-9)

class TestTrainLoop:
    def test_one_step_changes_params(self):
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", iterations=1,
                          batch_size=4, eval_interval=1, eval_samples=16,
                          directions_h=4, hidden_sizes=(8,))
        result = train(cfg)
        fresh = net.init_network(result.params.layer_sizes, cfg.seed,
                                 result.params.input_offset, result.params.input_scale)
        assert result.adam_state.t == 1
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(result.params.weights, fresh.weights)
        )

    @pytest.mark.parametrize("algorithm", ["gpsl-g", "gpsl-l", "gpsl-d", "psl-ls", "psl-hv"])
    def test_identical_config_bitwise_identical_metrics(self, algorithm):
        cfg = TrainConfig(problem="zdt3", algorithm=algorithm, seed=3, **TINY)
        a = train(cfg).metrics
        b = train(cfg).metrics
        assert deterministic_fields(a) == deterministic_fields(b)

    def test_log_covers_iteration_zero_and_final(self):
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", seed=0, **TINY)
        records = train(cfg).metrics.records
        assert [r.iteration for r in records] == [0, 4, 8]

    def test_row_count_matches_interval(self):
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", iterations=20,
                          batch_size=4, eval_interval=10, eval_samples=16,
                          directions_h=4, hidden_sizes=(8,))
        records = train(cfg).metrics.records
        assert len(records) == 20 // 10 + 1

    @staticmethod
    def diverge(loss, grad_fill):
        """The TrainingDiverged of a loop whose batch loss returns these."""
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", **TINY)

        def bad_loss(params, latents, extremes):
            return loss, np.full_like(params.flat, grad_fill)

        with pytest.raises(TrainingDiverged) as err:
            _train_loop(cfg, get_problem("zdt3"), pareto_front("zdt3", 200), bad_loss)
        return err.value

    def test_diverged_loss_carries_snapshot(self):
        err = self.diverge(math.nan, 0.0)
        assert err.iteration == 1
        assert err.params is not None
        assert str(err) == "seed 0: non-finite loss at iteration 1"

    def test_diverged_gradient_carries_snapshot(self):
        # An inf gradient, as ZDT3's sqrt(g / f1) gives once x1 reaches 0,
        # is a typed divergence, not adam_step's bare ValueError.
        err = self.diverge(0.5, math.inf)
        assert (err.seed, err.iteration, err.cause) == (0, 1, "gradient")
        assert err.params is not None
        assert str(err) == "seed 0: non-finite gradient at iteration 1"

    def test_diverged_survives_pickling(self):
        # Worker processes send it back to the grid through a pickle.
        original = self.diverge(0.5, math.inf)
        err = pickle.loads(pickle.dumps(original))
        assert isinstance(err, TrainingDiverged)
        assert (err.seed, err.iteration, err.cause) == (0, 1, "gradient")
        assert str(err) == str(original)
        assert np.array_equal(err.params.flat, original.params.flat)

    def test_ideal_point_nonincreasing_over_run(self):
        # The Tchebycheff losses' ideal point is the extremes' running minimum.
        prob = get_problem("zdt3")
        cfg = TrainConfig(problem="zdt3", algorithm="psl-tch", **TINY)
        params = net.init_network((2, 8, 30), 0)
        loss = _algorithm_loss(cfg, prob)
        ext = _RunningExtremes(2)
        rng = np.random.default_rng(0)
        prev = ext.low.copy()
        for _ in range(12):
            prefs = rng.dirichlet(np.ones(2), size=6)
            _batch_loss(params, prefs, prob, ext, loss)
            assert np.all(ext.low <= prev)
            prev = ext.low.copy()
        assert np.all(np.isfinite(ext.low))

    def test_weighted_sum_converges_on_shared_minimizer(self):
        # Both objectives minimized at the same decision point: every
        # preference leads there, so outputs collapse onto that objective pair.
        _register_toy("toy_shared_min", shift=0.0)
        front = ParetoFrontData(points=np.array([[0.0, 0.0], [1e-9, 1e-9]]), source="file")
        cfg = TrainConfig(problem="toy_shared_min", algorithm="psl-ls",
                          iterations=400, batch_size=16, eval_interval=400,
                          eval_samples=64, hidden_sizes=(32,), seed=0)
        result = train(cfg, front=front)
        prob = get_problem("toy_shared_min")
        draw, _, _ = latent_sampler(cfg, prob)
        xs, _ = net.forward(result.params, draw(128, 5), prob.lb, prob.ub)
        raw = prob.evaluate_batch(xs)
        assert np.median(raw[:, 0]) < 0.05
        assert np.median(raw[:, 1]) < 0.05

class TestEvaluateModel:
    def test_deterministic(self):
        prob = get_problem("zdt3")
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", **TINY)
        result = train(cfg)
        draw, _, _ = latent_sampler(cfg, prob)
        front = pareto_front(prob)
        a = evaluate_model(result.params, prob, draw, front, n_eval=128, seed=5)
        b = evaluate_model(result.params, prob, draw, front, n_eval=128, seed=5)
        assert a == b

    def test_matches_training_loop_evaluation(self):
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", seed=2, **TINY)
        result = train(cfg)
        prob = get_problem("zdt3")
        draw, _, _ = latent_sampler(cfg, prob)
        report = evaluate_model(
            result.params, prob, draw, pareto_front(prob),
            n_eval=cfg.eval_samples, seed=cfg.eval_seed,
        )
        final = result.metrics.final()
        assert report.hv_learned == pytest.approx(final.hv_learned, rel=1e-12)
        assert report.log_hv_difference == pytest.approx(final.log_hv_difference, rel=1e-12)

    def test_constant_model_scores_its_box_volume(self):
        # Bias the output layer so the model maps everything to (almost)
        # one Pareto-optimal point of ZDT3; the learned hypervolume is then
        # that single point's box volume.
        prob = get_problem("zdt3")
        front = pareto_front(prob)
        params = net.init_network((30, 8, 30), seed=0)
        for w in params.weights:
            w[:] = 0.0
        x_target = 0.25  # lies inside an optimal segment of the front curve
        params.biases[-1][:] = -40.0
        params.biases[-1][0] = math.log(x_target / (1.0 - x_target))
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g")
        draw, _, _ = latent_sampler(cfg, prob)
        report = evaluate_model(params, prob, draw, front, n_eval=64, seed=1)
        (y,) = prob.evaluate_batch(net.forward(params, draw(1, 1), prob.lb, prob.ub)[0])
        f_min = front.points.min(axis=0)
        f_range = front.points.max(axis=0) - f_min
        y_norm = (y - f_min) / f_range
        expected = float(np.prod(1.1 - y_norm))
        assert report.hv_learned == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("algorithm", ["gpsl-g", "psl-tch"])
    def test_four_objectives_scored_exactly(self, algorithm, tmp_path):
        # DTLZ2 with m = 4 and d = 7, without a Jacobian, so training takes
        # the finite-difference path; its front is the positive unit sphere.
        try:
            get_problem("dtlz2_m4")
        except ValueError:
            def dtlz2(xs):
                c, s = np.cos(xs[:, :3] * np.pi / 2), np.sin(xs[:, :3] * np.pi / 2)
                f = np.column_stack([c[:, 0] * c[:, 1] * c[:, 2], c[:, 0] * c[:, 1] * s[:, 2],
                                     c[:, 0] * s[:, 1], s[:, 0]])
                return (1.0 + ((xs[:, 3:] - 0.5) ** 2).sum(axis=1))[:, None] * f

            register_problem(Problem(id="dtlz2_m4", m=4, d=7, lb=np.zeros(7), ub=np.ones(7),
                                     _evaluate_batch=dtlz2))
        sphere = np.abs(np.random.default_rng(0).standard_normal((300, 4)))
        np.savetxt(tmp_path / "front.txt", sphere / np.linalg.norm(sphere, axis=1, keepdims=True))
        front = load_reference_front(tmp_path / "front.txt", m=4)
        cfg = TrainConfig(problem="dtlz2_m4", algorithm=algorithm, iterations=20,
                          eval_interval=10, eval_samples=200, seed=0)
        result = train(cfg, front=front)
        rows = result.metrics.records
        cells = [[r.loss, r.hv_learned, r.hv_true, r.log_hv_difference] for r in rows]
        assert len(rows) == 3 and np.isfinite(cells).all()
        prob = get_problem("dtlz2_m4")
        draw, _, _ = latent_sampler(cfg, prob)
        report = evaluate_model(result.params, prob, draw, front,
                                n_eval=cfg.eval_samples, seed=cfg.eval_seed)
        assert report.log_hv_difference == rows[-1].log_hv_difference

    def test_front_with_other_objective_count_rejected(self):
        prob = get_problem("dtlz5")
        cfg = TrainConfig(problem="dtlz5", algorithm="gpsl-g")
        draw, _, _ = latent_sampler(cfg, prob)
        params = net.init_network((cfg.resolved_latent_dim(prob), 8, prob.d), seed=0)
        zdt3_front = pareto_front(get_problem("zdt3"))
        with pytest.raises(ValueError, match="^front has 2 objectives but dtlz5 has 3$"):
            evaluate_model(params, prob, draw, zdt3_front, n_eval=16)

    def test_epsilon_rule(self):
        from pslearn.trainer import _hv_report

        equal = _hv_report(0.8, 0.8)
        assert equal.epsilon_log == 1e-6
        assert equal.log_hv_difference == pytest.approx(math.log(1e-6))
        below = _hv_report(0.8, 0.5)
        assert below.epsilon_log == 0.0
        with pytest.raises(ValueError):
            _hv_report(0.8, 0.9)

class TestFrontCache:
    """A front's normalization and HV are computed once per ref_offset."""

    @staticmethod
    def count_front_hv(monkeypatch, front):
        # Front-sized exact_hv calls; the learned sets here are smaller.
        calls = []
        real = trainer.exact_hv

        def counting(points, ref):
            if len(points) == len(front.points):
                calls.append(np.asarray(ref).tolist())
            return real(points, ref)

        monkeypatch.setattr(trainer, "exact_hv", counting)
        return calls

    def test_front_hv_computed_once_per_ref_offset(self, monkeypatch):
        prob = get_problem("zdt3")
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", **TINY)
        draw, _, _ = latent_sampler(cfg, prob)
        front = pareto_front(prob)
        calls = self.count_front_hv(monkeypatch, front)
        result = train(cfg, front)
        evaluate_model(result.params, prob, draw, front, n_eval=64)
        evaluate_model(result.params, prob, draw, front, n_eval=64)
        assert len(calls) == 1
        evaluate_model(result.params, prob, draw, front, n_eval=64, ref_offset=1.2)
        evaluate_model(result.params, prob, draw, front, n_eval=64, ref_offset=1.2)
        assert calls == [[1.1, 1.1], [1.2, 1.2]]
        _, r, _ = trainer._normalized_front(front, 1.2)
        with pytest.raises(ValueError, match="read-only"):
            r[0] = 2.0  # shared by every run scored on the front

    @pytest.mark.parametrize("problem", ["zdt3", "dtlz5"])
    def test_cached_report_equals_fresh_front(self, problem):
        prob = get_problem(problem)
        cfg = TrainConfig(problem=problem, algorithm="gpsl-g", **TINY)
        params = train(cfg).params
        draw, _, _ = latent_sampler(cfg, prob)
        front = pareto_front(prob)
        evaluate_model(params, prob, draw, front, n_eval=64)
        cached = evaluate_model(params, prob, draw, front, n_eval=64)
        fresh = evaluate_model(params, prob, draw, pareto_front(prob), n_eval=64)
        assert repr(cached) == repr(fresh)
        assert type(cached.hv_true) is type(fresh.hv_true)

    def test_pickled_front_scores_the_same(self):
        prob = get_problem("dtlz5")
        cfg = TrainConfig(problem="dtlz5", algorithm="gpsl-g", **TINY)
        front = pareto_front(prob)
        params = train(cfg, front).params
        draw, _, _ = latent_sampler(cfg, prob)
        before = evaluate_model(params, prob, draw, front, n_eval=64)
        loaded = pickle.loads(pickle.dumps(front))
        np.testing.assert_array_equal(loaded.points, front.points)
        assert repr(evaluate_model(params, prob, draw, loaded, n_eval=64)) == repr(before)


class TestScoringBuffers:
    """Evaluation runs the model through buffers each thread keeps for its
    last batch shape; no score may see another's values."""

    @staticmethod
    def scoring_job(problem, n, seed, hidden_sizes=(64, 64)):
        # Trained long enough that zdt3's learned HV is above 0.
        prob = get_problem(problem)
        cfg = TrainConfig(problem=problem, algorithm="gpsl-g", seed=seed, iterations=120,
                          eval_interval=120, hidden_sizes=hidden_sizes)
        draw, _, _ = latent_sampler(cfg, prob)
        normalized = trainer._normalized_front(pareto_front(prob), cfg.ref_offset)
        return train(cfg).params, prob, draw(n, seed), normalized

    def test_warm_score_allocates_less_than_one_layer(self):
        job = self.scoring_job("zdt3", 1000, 0)
        trainer._score(*job)  # allocates this thread's buffers
        tracemalloc.start()
        try:
            trainer._score(*job)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 64 * 8  # one (1000, 64) float64 layer

    def test_training_on_other_shapes_in_between_changes_no_csv(self, tmp_path):
        def run(problem, name):
            cfg = TrainConfig(problem=problem, algorithm="gpsl-g", iterations=120,
                              eval_interval=20)
            write_metrics_csv(train(cfg).metrics, tmp_path / name)
            return (tmp_path / name).read_bytes()

        first = run("zdt3", "first.csv")
        run("dtlz5", "between.csv")
        assert run("zdt3", "again.csv") == first

    @pytest.mark.parametrize("second", [("dtlz5", 700, 3, (32, 48)), ("zdt3", 1000, 2)],
                             ids=["other-shape", "same-shape"])
    def test_threads_keep_their_own_buffers(self, second, monkeypatch):
        # The first thread holds its model output while the second scores.
        jobs = [self.scoring_job("zdt3", 1000, 1), self.scoring_job(*second)]
        serial = [repr(trainer._score(*job)) for job in jobs]
        assert serial[0] != serial[1]
        holding, second_done = threading.Event(), threading.Event()
        predict = net._predict

        def holding_predict(*args):
            x = predict(*args)
            if threading.current_thread() is threads[0]:
                holding.set()
                second_done.wait(timeout=30)
            return x

        monkeypatch.setattr(net, "_predict", holding_predict)
        scores = [None, None]

        def score(i):
            try:
                if i == 1:
                    holding.wait(timeout=30)
                scores[i] = repr(trainer._score(*jobs[i]))
            finally:
                second_done.set()

        threads = [threading.Thread(target=score, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert scores == serial


class TestMetricsPlumbing:
    def test_strictly_increasing_iterations_enforced(self):
        log = MetricsLog()
        log.append(MetricsRecord(0, 0.0, 0.0, 1.0, -1.0, 0.0))
        with pytest.raises(ValueError):
            log.append(MetricsRecord(0, 0.0, 0.0, 1.0, -1.0, 0.0))

    def test_csv_round_trip_full_precision(self, tmp_path):
        log = MetricsLog()
        log.append(MetricsRecord(0, -1.0 / 3.0, 0.1234567890123456, 0.9, -2.302585092994046, 0.5))
        log.append(MetricsRecord(10, -0.1, 0.5, 0.9, -0.9162907318741551, 1.5))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(log, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,loss,hv_learned,hv_true,log_hv_difference"
        cells = lines[1].split(",")
        assert float(cells[1]) == -1.0 / 3.0
        assert float(cells[2]) == 0.1234567890123456

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_cell_is_a_plain_number(self, algorithm, tmp_path):
        # On ZDT3, where exact_hv returns floats; the m = 3 hv cells are not.
        cfg = TrainConfig(problem="zdt3", algorithm=algorithm, **TINY)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(train(cfg).metrics, path)
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                float(cell)  # a np.float64(...) repr raises here

class TestFullChainGradients:
    """Backpropagated gradients of the actual training losses, checked against
    central finite differences over the parameters with frozen extremes."""

    def test_gpsl_chain(self):
        prob = get_problem("zdt3")
        loss = _algorithm_loss(TrainConfig(problem="zdt3", algorithm="gpsl-g", directions_h=7), prob)
        rng = np.random.default_rng(11)
        for probe in range(3):
            params = net.init_network((30, 6, 30), seed=200 + probe)
            latents = rng.standard_normal((4, 30)) + 0.5

            def loss_of(theta):
                trial = unflatten_into(params, theta)
                return _batch_loss(trial, latents, prob, wide_extremes(2), loss)[0]

            _, analytic = _batch_loss(params, latents, prob, wide_extremes(2), loss)
            fd = central_difference_gradient(loss_of, params.flat.copy(), eps=1e-6)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("kind", ["psl-ls", "psl-tch", "psl-mtch", "cosmos", "psl-hv"])
    def test_preference_chain(self, kind):
        prob = get_problem("zdt3")
        loss = _algorithm_loss(TrainConfig(problem="zdt3", algorithm=kind), prob)
        rng = np.random.default_rng(13)
        params = net.init_network((2, 6, 30), seed=21)
        prefs = rng.dirichlet(np.ones(2), size=4)

        def run(theta):
            trial = unflatten_into(params, theta)
            return _batch_loss(trial, prefs, prob, wide_extremes(2), loss)

        _, analytic = run(params.flat.copy())
        fd = central_difference_gradient(
            lambda theta: run(theta)[0], params.flat.copy(), eps=1e-6
        )
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)
