"""Problem-suite tests: published-value spot checks, analytic Jacobians
against a finite-difference oracle, front generation, and reference-front
file parsing."""

import numpy as np
import pytest

from pslearn.problems import (
    Problem,
    available_problems,
    finite_difference_jacobian,
    get_problem,
    load_reference_front,
    pareto_front,
    register_problem,
)
from pslearn.problems import _brake_constraints
from pslearn.hv import nondominated_filter

ALL_PROBLEMS = sorted(available_problems())


def interior_point(problem, rng, margin=0.05):
    span = problem.ub - problem.lb
    return problem.lb + (margin + (1 - 2 * margin) * rng.random(problem.d)) * span


def away_from_kinks(problem, x):
    """True when x avoids the problem's documented non-smooth loci."""
    if problem.id == "zdt3":
        return x[0] > 0.02  # df2/dx1 is singular at x1 = 0
    if problem.id == "disc_brake":
        gs = _brake_constraints(*x)
        return abs(x[1] - x[0]) > 3.0 and min(abs(g) for g in gs) > 1e-2
    return True


class TestEvaluate:
    def test_zdt3_origin(self):
        f = get_problem("zdt3").evaluate(np.zeros(30))
        np.testing.assert_allclose(f, [0.0, 1.0], atol=1e-14)

    def test_dtlz7_origin(self):
        f = get_problem("dtlz7").evaluate(np.zeros(22))
        np.testing.assert_allclose(f, [0.0, 0.0, 6.0], atol=1e-12)

    def test_dtlz5_at_half(self):
        f = get_problem("dtlz5").evaluate(np.full(12, 0.5))
        np.testing.assert_allclose(f, [0.5, 0.5, np.sqrt(2.0) / 2.0], rtol=1e-12)

    def test_out_of_bounds_names_index(self):
        prob = get_problem("zdt3")
        x = np.zeros(30)
        x[7] = 1.5
        with pytest.raises(ValueError, match="variable 7"):
            prob.evaluate(x)

    def test_batch_out_of_bounds_reports_first_bad_row(self):
        prob = get_problem("zdt3")
        xs = np.full((5, 30), 0.5)
        xs[2, 7] = 1.5
        xs[4, 0] = -0.5
        with pytest.raises(ValueError) as expected:
            prob.evaluate(xs[2])
        with pytest.raises(ValueError) as got:
            prob.evaluate_batch(xs)
        assert str(got.value) == str(expected.value)

    def test_batch_nan_row_passes_bounds_check(self):
        prob = get_problem("zdt3")
        xs = np.full((3, 30), 0.5)
        xs[1, 4] = np.nan
        out = prob.evaluate_batch(xs)
        assert np.isnan(out[1, 1]) and np.all(np.isfinite(out[[0, 2]]))

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_deterministic_and_finite(self, name, rng):
        prob = get_problem(name)
        x = interior_point(prob, rng)
        f1 = prob.evaluate(x)
        f2 = prob.evaluate(x)
        np.testing.assert_array_equal(f1, f2)
        assert np.all(np.isfinite(f1))
        assert f1.shape == (prob.m,)

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_batch_matches_rowwise(self, name, rng):
        prob = get_problem(name)
        xs = np.stack([interior_point(prob, rng) for _ in range(8)])
        batch = prob.evaluate_batch(xs)
        rows = np.stack([prob.evaluate(x) for x in xs])
        np.testing.assert_allclose(batch, rows, rtol=1e-15)

    def test_truss_dimensions(self):
        prob = get_problem("four_bar_truss")
        assert (prob.m, prob.d) == (2, 4)
        prob = get_problem("disc_brake")
        assert (prob.m, prob.d) == (3, 4)


class TestJacobian:
    def test_zdt3_first_objective_row(self):
        x = np.zeros(30)
        x[0] = 0.5
        jac = get_problem("zdt3").jacobian(x)
        assert jac[0, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(jac[0, 1:], np.zeros(29))

    def test_dtlz5_third_objective_depends_only_on_x1_at_center(self):
        jac = get_problem("dtlz5").jacobian(np.full(12, 0.5))
        np.testing.assert_allclose(jac[2, 1:], np.zeros(11), atol=1e-12)
        assert jac[2, 0] > 0.0

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_matches_finite_differences_at_100_points(self, name):
        prob = get_problem(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        points = []
        while len(points) < 100:
            x = interior_point(prob, rng)
            if away_from_kinks(prob, x):
                points.append(x)
        xs = np.stack(points)
        fd = np.stack([finite_difference_jacobian(prob, x) for x in xs])
        scale = np.maximum(np.abs(fd), 1e-6)
        # Point by point, and the 100 points as one (n, d) batch.
        for analytic in (np.stack([prob.jacobian(x) for x in xs]), prob.jacobian(xs)):
            assert np.max(np.abs(analytic - fd) / scale) < 1e-4
        np.testing.assert_array_equal(finite_difference_jacobian(prob, xs), fd)

    def test_fd_fallback_used_without_analytic_jacobian(self):
        toy = Problem(
            id="toy_sphere_pair",
            m=2,
            d=2,
            lb=np.full(2, -2.0),
            ub=np.full(2, 2.0),
            _evaluate_batch=lambda xs: np.column_stack(
                [(xs**2).sum(axis=1), ((xs - 1.0) ** 2).sum(axis=1)]
            ),
        )
        x = np.array([0.5, -0.25])
        jac = toy.jacobian(x)
        np.testing.assert_allclose(jac[0], 2.0 * x, rtol=1e-6)
        np.testing.assert_allclose(jac[1], 2.0 * (x - 1.0), rtol=1e-6)
        np.testing.assert_array_equal(toy.jacobian(np.stack([x, -x]))[0], jac)


class TestFronts:
    def test_zdt3_front_points_nondominated(self):
        front = pareto_front("zdt3", n=800)
        assert front.source == "analytic"
        filtered = nondominated_filter(front.points)
        assert len(filtered) == len(front.points)

    def test_zdt3_front_disconnected(self):
        front = pareto_front("zdt3", n=2000)
        f1 = np.sort(front.points[:, 0])
        gaps = np.diff(f1)
        assert (gaps > 0.05).sum() == 4  # five segments, four holes

    def test_dtlz5_front_is_unit_sphere_curve(self):
        front = pareto_front("dtlz5", n=300)
        radii = np.linalg.norm(front.points, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)
        np.testing.assert_allclose(front.points[:, 0], front.points[:, 1], atol=1e-12)

    def test_dtlz7_front_nondominated_and_in_range(self):
        front = pareto_front("dtlz7", n=1500)
        assert len(nondominated_filter(front.points)) == len(front.points)
        assert front.points[:, 2].min() >= 2.0  # f3 >= ~2.6 on the optimal surface
        assert front.points[:, 2].max() <= 6.0

    def test_engineering_problems_need_files(self):
        with pytest.raises(ValueError, match="load_reference_front"):
            pareto_front("four_bar_truss")


class TestLoadReferenceFront:
    def test_mutually_nondominated_rows_kept(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("1 2\n2 1\n")
        front = load_reference_front(path)
        assert front.source == "file"
        assert len(front.points) == 2

    def test_dominated_row_filtered(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("1 1\n2 2\n")
        front = load_reference_front(path)
        np.testing.assert_array_equal(front.points, [[1.0, 1.0]])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("1 2 x\n")
        with pytest.raises(ValueError, match="line 1"):
            load_reference_front(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_reference_front(path)

    def test_comments_and_commas_accepted(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("# header\n0.5, 2.0  # inline comment\n2.0, 0.5\n")
        front = load_reference_front(path, m=2)
        assert len(front.points) == 2

    def test_rows_sorted_lexicographically(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("3 1\n1 3\n2 2\n")
        front = load_reference_front(path)
        np.testing.assert_array_equal(front.points, [[1, 3], [2, 2], [3, 1]])

    def test_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("1 2\n1 2 3\n")
        with pytest.raises(ValueError, match="width"):
            load_reference_front(path)

    def test_objective_count_check(self, tmp_path):
        path = tmp_path / "front.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match="expected 3 objectives"):
            load_reference_front(path, m=3)


class TestRegistry:
    def test_unknown_problem_lists_names(self):
        with pytest.raises(ValueError, match="zdt3"):
            get_problem("nope")

    def test_register_and_fetch(self):
        toy = Problem(
            id="toy_registered",
            m=2,
            d=2,
            lb=np.zeros(2),
            ub=np.ones(2),
            _evaluate_batch=lambda xs: np.column_stack([xs[:, 0], 1.0 - xs[:, 0]]),
        )
        register_problem(toy)
        assert get_problem("toy_registered") is toy
        with pytest.raises(ValueError, match="already registered"):
            register_problem(toy)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="index 1"):
            Problem(
                id="bad",
                m=2,
                d=2,
                lb=np.array([0.0, 1.0]),
                ub=np.array([1.0, 1.0]),
                _evaluate_batch=lambda xs: xs,
            )
