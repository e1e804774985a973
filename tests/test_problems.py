"""Problem-suite tests: published-value spot checks, analytic Jacobians
against a finite-difference oracle, front generation, and reference-front
file parsing."""

import re
import warnings
import zlib

import numpy as np
import pytest

from pslearn.problems import (
    ParetoFrontData,
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
        (f,) = get_problem("zdt3").evaluate_batch(np.zeros((1, 30)))
        np.testing.assert_allclose(f, [0.0, 1.0], atol=1e-14)

    def test_dtlz7_origin(self):
        (f,) = get_problem("dtlz7").evaluate_batch(np.zeros((1, 22)))
        np.testing.assert_allclose(f, [0.0, 0.0, 6.0], atol=1e-12)

    def test_dtlz5_at_half(self):
        (f,) = get_problem("dtlz5").evaluate_batch(np.full((1, 12), 0.5))
        np.testing.assert_allclose(f, [0.5, 0.5, np.sqrt(2.0) / 2.0], rtol=1e-12)

    def test_out_of_bounds_names_index(self):
        prob = get_problem("zdt3")
        x = np.zeros((1, 30))
        x[0, 7] = 1.5
        with pytest.raises(ValueError, match="variable 7"):
            prob.evaluate_batch(x)

    def test_batch_out_of_bounds_reports_first_bad_row(self):
        prob = get_problem("zdt3")
        xs = np.full((5, 30), 0.5)
        xs[2, 7] = 1.5
        xs[4, 0] = -0.5
        with pytest.raises(ValueError) as expected:
            prob.evaluate_batch(xs[2:3])
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
        x = interior_point(prob, rng)[None, :]
        f1 = prob.evaluate_batch(x)
        f2 = prob.evaluate_batch(x)
        np.testing.assert_array_equal(f1, f2)
        assert np.all(np.isfinite(f1))
        assert f1.shape == (1, prob.m)

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_batch_matches_rowwise(self, name, rng):
        prob = get_problem(name)
        xs = np.stack([interior_point(prob, rng) for _ in range(8)])
        batch = prob.evaluate_batch(xs)
        rows = np.concatenate([prob.evaluate_batch(xs[i : i + 1]) for i in range(len(xs))])
        np.testing.assert_allclose(batch, rows, rtol=1e-15)

    def test_truss_dimensions(self):
        prob = get_problem("four_bar_truss")
        assert (prob.m, prob.d) == (2, 4)
        prob = get_problem("disc_brake")
        assert (prob.m, prob.d) == (3, 4)


class TestJacobian:
    def test_zdt3_first_objective_row(self):
        prob = get_problem("zdt3")
        x = np.zeros(30)
        x[0] = 0.5
        (jac,) = prob.jacobian(x[None, :])
        assert jac[0, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(jac[0, 1:], np.zeros(29))
        with pytest.raises(ValueError, match=r"expected an \(n, 30\) array"):
            prob.jacobian(x)

    def test_dtlz5_third_objective_depends_only_on_x1_at_center(self):
        (jac,) = get_problem("dtlz5").jacobian(np.full((1, 12), 0.5))
        np.testing.assert_allclose(jac[2, 1:], np.zeros(11), atol=1e-12)
        assert jac[2, 0] > 0.0

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_matches_finite_differences_at_100_points(self, name):
        prob = get_problem(name)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        points = []
        while len(points) < 100:
            x = interior_point(prob, rng)
            if away_from_kinks(prob, x):
                points.append(x)
        xs = np.stack(points)
        rows = [xs[i : i + 1] for i in range(len(xs))]
        fd = np.concatenate([finite_difference_jacobian(prob, x) for x in rows])
        scale = np.maximum(np.abs(fd), 1e-6)
        # Point by point, and the 100 points as one (n, d) batch.
        for analytic in (np.concatenate([prob.jacobian(x) for x in rows]), prob.jacobian(xs)):
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
        (jac,) = toy.jacobian(x[None, :])
        np.testing.assert_allclose(jac[0], 2.0 * x, rtol=1e-6)
        np.testing.assert_allclose(jac[1], 2.0 * (x - 1.0), rtol=1e-6)
        np.testing.assert_array_equal(toy.jacobian(np.stack([x, -x]))[0], jac)
        for jacobian in (toy.jacobian, lambda x: finite_difference_jacobian(toy, x)):
            with pytest.raises(ValueError, match=r"expected an \(n, 2\) array"):
                jacobian(x)

    @pytest.mark.parametrize("rel_step", [1e-300, 1e-17])
    @pytest.mark.parametrize("rest", [0.5, 0.0], ids=["every-coordinate", "one-coordinate"])
    def test_step_that_moves_no_coordinate_names_rel_step(self, rel_step, rest):
        # x + h == x at 0.5 for these steps, so the stencil would divide 0 by 0;
        # at 0.0 the step still moves x, so the second case stalls x1 only.
        x = np.full((1, 30), rest)
        x[0, 0] = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^need rel_step large enough to move every "
                                                 rf"coordinate, got {rel_step!r}$"):
                finite_difference_jacobian(get_problem("zdt3"), x, rel_step=rel_step)


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

    def test_points_are_a_read_only_copy(self):
        source = np.array([[0.0, 1.0], [1.0, 0.0]])
        front = ParetoFrontData(points=source, source="file")
        source[0, 0] = 5.0
        assert front.points[0, 0] == 0.0
        assert front.points.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            front.points[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            pareto_front("zdt3", n=50).points += 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="front points must be finite"):
            ParetoFrontData(points=[[0.0, 1.0], [bad, 0.5]], source="file")

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "front.txt"
        path.write_text(f"0 1\n# comment\n{cell} 0.5\n1 0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: non-finite value at line 3: '{cell} 0.5'")):
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

    @pytest.mark.parametrize("lb, ub, index", [
        ([np.nan, 0.0], [1.0, 1.0], 0),
        ([-np.inf, 0.0], [1.0, 1.0], 0),
        ([0.0, 0.0], [np.inf, 1.0], 0),
        ([0.0, np.nan], [1.0, 1.0], 1),
        ([0.0, 0.0], [1.0, np.nan], 1),
    ])
    def test_non_finite_bounds_rejected(self, lb, ub, index):
        with pytest.raises(ValueError, match=f"^need finite lb < ub .* at index {index}$"):
            Problem(id="bad", m=2, d=2, lb=np.array(lb), ub=np.array(ub),
                    _evaluate_batch=lambda xs: xs)
