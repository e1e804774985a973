"""Hypervolume module tests: filtering, exact volumes, the direction-based
approximation and its subgradient, and the log-difference metric."""

import math

import numpy as np
import pytest

from pslearn.hv import (
    exact_hv,
    log_hv_difference,
    nondominated_filter,
    r2_hv_approx,
    r2_hv_subgradient,
)
from pslearn.sampling import DirectionSet, das_dennis, r2_constant

from conftest import (
    _hv_wfg,
    brute_force_nondominated,
    central_difference_gradient,
    monte_carlo_hv,
)


def diag_direction_set():
    return DirectionSet(
        directions=np.array([[1.0, 1.0]]) / np.sqrt(2.0),
        c_m=r2_constant(2, 1),
        divisions=1,
    )


class TestNondominatedFilter:
    def test_dominated_point_removed(self):
        out = nondominated_filter([[1, 2], [2, 1], [2, 2]])
        assert sorted(map(tuple, out)) == [(1, 2), (2, 1)]

    def test_singleton(self):
        out = nondominated_filter([[1, 1]])
        assert out.tolist() == [[1, 1]]

    def test_duplicates_collapse(self):
        out = nondominated_filter([[1, 2], [1, 2], [2, 1]])
        assert len(out) == 2

    def test_mixed_dimensions_error(self):
        with pytest.raises(ValueError):
            nondominated_filter([[1, 2], [1, 2, 3]])

    def test_matches_brute_force_oracle_3d(self, rng):
        for _ in range(20):
            pts = rng.random((200, 3))
            got = nondominated_filter(pts)
            expected = brute_force_nondominated(pts)
            assert sorted(map(tuple, got)) == sorted(map(tuple, expected))

    def test_idempotent(self, rng):
        pts = rng.random((100, 2))
        once = nondominated_filter(pts)
        twice = nondominated_filter(once)
        np.testing.assert_array_equal(once, twice)


class TestExactHv:
    def test_unit_box(self):
        assert exact_hv([[0, 0]], [1, 1]) == pytest.approx(1.0)
        assert exact_hv([[0.2], [0.5]], [1.0]) == 0.8

    def test_two_point_inclusion_exclusion(self):
        # Boxes of area 2 each overlapping in area 1.
        assert exact_hv([[1, 2], [2, 1]], [3, 3]) == pytest.approx(3.0)

    def test_empty_effective_set(self):
        assert exact_hv([[2, 2]], [1, 1]) == 0.0
        assert exact_hv(np.empty((0, 2)), [1, 1]) == 0.0

    def test_points_outside_box_dropped(self):
        assert exact_hv([[0.5, 0.5], [2.0, 0.1]], [1, 1]) == pytest.approx(0.25)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_monte_carlo(self, m, rng):
        for trial in range(5):
            pts = rng.random((12, m))
            r = np.full(m, 1.2)
            exact = exact_hv(pts, r)
            mc, stderr = monte_carlo_hv(pts, r, 200_000, seed=trial)
            assert abs(exact - mc) < 3.5 * stderr + 1e-9

    def test_3d_sweep_matches_wfg(self, rng):
        for _ in range(15):
            pts = rng.random((rng.integers(1, 30), 3))
            r = np.full(3, 1.3)
            wfg = _hv_wfg(nondominated_filter(pts[np.all(pts < r, axis=1)]), r)
            assert exact_hv(pts, r) == pytest.approx(wfg, rel=1e-12)

    def test_4d_wfg_matches_monte_carlo(self, rng):
        pts = rng.random((8, 4))
        r = np.full(4, 1.2)
        exact = exact_hv(pts, r)
        mc, stderr = monte_carlo_hv(pts, r, 400_000, seed=99)
        assert abs(exact - mc) < 3.5 * stderr + 1e-9

    def test_monotone_under_added_points(self, rng):
        pts = rng.random((10, 2))
        r = np.full(2, 1.1)
        base = exact_hv(pts, r)
        extra = np.vstack([pts, rng.random((5, 2))])
        assert exact_hv(extra, r) >= base - 1e-12

    def test_dominated_point_changes_nothing(self, rng):
        pts = rng.random((10, 3))
        r = np.full(3, 1.2)
        dominated = pts[0] + 0.05  # strictly worse than pts[0]
        assert exact_hv(np.vstack([pts, dominated]), r) == pytest.approx(exact_hv(pts, r))

    def test_filter_invariance(self, rng):
        pts = rng.random((50, 2))
        r = np.full(2, 1.1)
        assert exact_hv(pts, r) == pytest.approx(exact_hv(nondominated_filter(pts), r))


class TestR2Approx:
    def test_single_point_single_direction(self):
        # Projection length sqrt(2); constant pi/4; value pi/2.
        value = r2_hv_approx([[0.0, 0.0]], [1.0, 1.0], diag_direction_set())
        assert value == pytest.approx(math.pi / 2.0)

    def test_converges_with_more_directions(self, rng):
        pts = nondominated_filter(rng.random((20, 2)))
        r = np.full(2, 1.1)
        exact = exact_hv(pts, r)
        err = {
            h: abs(r2_hv_approx(pts, r, das_dennis(2, h)) - exact) / exact
            for h in (15, 1023)
        }
        assert err[1023] < err[15]
        assert err[1023] <= 0.10

    def test_dominated_point_never_decreases_value(self, rng):
        dirs = das_dennis(2, 20)
        pts = rng.random((8, 2))
        r = np.full(2, 1.2)
        base = r2_hv_approx(pts, r, dirs)
        with_dominated = np.vstack([pts, pts[0] + 0.1])
        assert r2_hv_approx(with_dominated, r, dirs) >= base - 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            r2_hv_approx(np.empty((0, 2)), [1, 1], diag_direction_set())


class TestR2Subgradient:
    @pytest.mark.parametrize("fn", [r2_hv_approx, r2_hv_subgradient], ids=lambda fn: fn.__name__)
    def test_empty_set_rejected_with_one_message(self, fn):
        with pytest.raises(ValueError, match="^the R2 hypervolume approximation requires "
                                             "a non-empty point set$"):
            fn(np.empty((0, 2)), [1, 1], diag_direction_set())

    @pytest.mark.parametrize("fn", [r2_hv_approx, r2_hv_subgradient], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("columns, m, message", [
        (1, 2, "points have 1 objectives but reference point has 2"),
        (2, 3, "points have 2 objectives but direction set has 3"),
    ], ids=["ref", "dirs"])
    def test_objective_count_mismatch_rejected(self, fn, columns, m, message):
        # One-objective points broadcast against two-objective directions and
        # gave a value; three-objective directions failed inside numpy.
        pts = np.array([[0.2, 0.5], [0.6, 0.1]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(pts[:, :columns], [1.1, 1.1], das_dennis(m, 5))

    def test_single_point_tie_broken_to_first_coordinate(self):
        grad = r2_hv_subgradient([[0.0, 0.0]], [1.0, 1.0], diag_direction_set())
        np.testing.assert_allclose(grad, [[-math.pi, 0.0]], rtol=1e-12)

    def test_matches_finite_differences(self, rng):
        dirs = das_dennis(2, 12)
        r = np.full(2, 1.3)
        checked = 0
        while checked < 25:
            pts = rng.random((6, 2))
            inner = (r[None, None, :] - pts[:, None, :]) / dirs.directions[None, :, :]
            per_dir = inner.min(axis=2)
            ranked = np.sort(per_dir, axis=0)
            # Skip configurations with near-ties at the argmax (subgradient kink).
            if len(pts) > 1 and np.min(ranked[-1] - ranked[-2]) < 1e-3:
                continue
            analytic = r2_hv_subgradient(pts, r, dirs)
            flat = pts.ravel()

            def value(v):
                return r2_hv_approx(v.reshape(pts.shape), r, dirs)

            fd = central_difference_gradient(value, flat).reshape(pts.shape)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)
            checked += 1

    def test_unselected_point_gets_zero_gradient(self):
        dirs = das_dennis(2, 30)
        pts = np.array([[0.0, 0.0], [0.9, 0.9]])  # second point dominated
        grad = r2_hv_subgradient(pts, [1.0, 1.0], dirs)
        np.testing.assert_array_equal(grad[1], [0.0, 0.0])

    def test_small_ascent_step_never_decreases(self, rng):
        dirs = das_dennis(2, 25)
        r = np.full(2, 1.2)
        for _ in range(10):
            pts = rng.random((5, 2))
            grad = r2_hv_subgradient(pts, r, dirs)
            before = r2_hv_approx(pts, r, dirs)
            after = r2_hv_approx(pts + 1e-4 * grad, r, dirs)
            assert after >= before - 1e-12


class TestLogHvDifference:
    def test_basic_value(self):
        assert log_hv_difference(1.0, 0.9, 0.0) == pytest.approx(math.log(0.1))

    def test_perfect_fit_floor(self):
        assert log_hv_difference(1.0, 1.0, 1e-6) == pytest.approx(math.log(1e-6))

    def test_learned_exceeding_true_raises(self):
        with pytest.raises(ValueError):
            log_hv_difference(1.0, 1.0 + 1e-5, 1e-6)
