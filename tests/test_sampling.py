"""Sampler and direction-set tests: determinism, distribution shape checks,
Latin hypercube stratification, and simplex-lattice direction properties."""

import math
import tracemalloc

import numpy as np
import pytest

from pslearn.sampling import (
    _lattice_weights,
    das_dennis,
    default_divisions,
    r2_constant,
    sample_dirichlet,
    sample_gaussian,
    sample_lhs,
)

from conftest import lattice_reference


class TestGaussian:
    def test_mean_matches_center(self):
        batch = sample_gaussian(2, (0.0, 0.0), 10_000, seed=5)
        assert np.all(np.abs(batch.mean(axis=0)) < 0.05)

    def test_deterministic(self):
        a = sample_gaussian(4, np.zeros(4), 16, seed=11)
        b = sample_gaussian(4, np.zeros(4), 16, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_scalar_dimension(self):
        batch = sample_gaussian(1, (5.0,), 3, seed=0)
        assert batch.shape == (3, 1)
        assert np.all(np.isfinite(batch))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_gaussian(0, (), 3, seed=0)
        with pytest.raises(ValueError):
            sample_gaussian(2, (0, 0), 0, seed=0)
        # Counts are ints: numpy failed on a float n, and a bool k drew.
        with pytest.raises(ValueError, match="^need n an int, got 3.0$"):
            sample_gaussian(2, (0, 0), 3.0, seed=0)
        with pytest.raises(ValueError, match="^need k an int, got True$"):
            sample_gaussian(True, 0.0, 3, seed=0)

    @pytest.mark.parametrize("center", [0.5, (-1.0, 0.0, 2.5)])
    def test_bits_equal_draw_plus_center(self, center):
        want = np.random.default_rng(9).standard_normal((40, 3)) + center
        assert sample_gaussian(3, center, 40, seed=9).tobytes() == want.tobytes()

    def test_draw_holds_one_array(self):
        # The center is added in place, so a draw never holds a second (n, k)
        # array; the rest of the peak is the generator's own state.
        center = np.linspace(-1.0, 1.0, 30)
        sample_gaussian(30, center, 1000, seed=4)  # warm-up
        tracemalloc.start()
        try:
            sample_gaussian(30, center, 1000, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_array = 1000 * 30 * 8
        assert peak < 1.5 * one_array


class TestLhs:
    def test_one_sample_per_stratum_1d(self):
        batch = sample_lhs(1, 0.0, 1.0, 4, seed=3)
        strata = np.floor(batch[:, 0] * 4).astype(int)
        assert sorted(strata) == [0, 1, 2, 3]

    def test_every_projection_stratified(self):
        n = 32
        batch = sample_lhs(3, np.zeros(3), np.ones(3), n, seed=7)
        for j in range(3):
            strata = np.floor(batch[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_deterministic(self):
        a = sample_lhs(2, (0, -1), (1, 1), 8, seed=2)
        b = sample_lhs(2, (0, -1), (1, 1), 8, seed=2)
        np.testing.assert_array_equal(a, b)

    def test_respects_box(self):
        batch = sample_lhs(2, (-2.0, 5.0), (-1.0, 9.0), 50, seed=1)
        assert np.all(batch >= [-2.0, 5.0])
        assert np.all(batch <= [-1.0, 9.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            sample_lhs(2, (0.0, 1.0), (1.0, 1.0), 4, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    @pytest.mark.parametrize("side, index", [("lb", 0), ("lb", 1), ("ub", 0), ("ub", 1)])
    def test_rejects_non_finite_bounds(self, bad, side, index):
        # Problem's box check, naming the index; a NaN or infinite bound
        # would otherwise give a NaN or infinite column.
        bounds = {"lb": [0.0, 0.0], "ub": [1.0, 1.0]}
        bounds[side][index] = bad
        with pytest.raises(ValueError, match=f"^need finite lb < ub .* at index {index}$"):
            sample_lhs(2, bounds["lb"], bounds["ub"], 3, seed=0)


class TestDirichlet:
    def test_simplex_membership(self):
        batch = sample_dirichlet(3, 1.0, 200, seed=9)
        assert np.all(batch >= 0.0)
        np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-9)

    def test_uniform_mean(self):
        batch = sample_dirichlet(2, 1.0, 10_000, seed=4)
        assert abs(batch[:, 0].mean() - 0.5) < 0.02

    def test_shapes(self):
        assert sample_dirichlet(3, 1.0, 5, seed=0).shape == (5, 3)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            sample_dirichlet(3, 0.0, 5, seed=0)
        # NaN and inf passed `alpha <= 0`, and a bool was taken as 1.
        for alpha, need in ((math.nan, "finite, got nan"), (math.inf, "finite, got inf"),
                            (True, "a real number, got True")):
            with pytest.raises(ValueError, match=f"^need alpha {need}$"):
                sample_dirichlet(3, alpha, 5, seed=0)

    def test_deterministic(self):
        a = sample_dirichlet(4, 2.0, 6, seed=8)
        b = sample_dirichlet(4, 2.0, 6, seed=8)
        np.testing.assert_array_equal(a, b)


class TestDasDennis:
    def test_m2_h4_enumeration(self):
        dirs = das_dennis(2, 4)
        weights = np.array([[1.0, 0.0], [0.75, 0.25], [0.5, 0.5], [0.25, 0.75], [0.0, 1.0]])
        weights[weights == 0.0] = 1e-6
        expected = weights / np.linalg.norm(weights, axis=1, keepdims=True)
        assert len(dirs) == 5
        np.testing.assert_allclose(
            sorted(map(tuple, dirs.directions)), sorted(map(tuple, expected)), rtol=1e-12
        )

    @pytest.mark.parametrize("m", range(2, 7))
    def test_lattice_matches_brute_force_in_order(self, m):
        for h in (*range(1, 7), default_divisions(m)):
            weights = _lattice_weights(m, h)
            reference = lattice_reference(m, h)
            assert weights.shape == reference.shape
            assert np.array_equal(weights, reference), (m, h)

    @pytest.mark.parametrize("m,h", [(2, 4), (3, 2), (3, 13), (2, 99), (4, 5)])
    def test_count_formula(self, m, h):
        assert len(das_dennis(m, h)) == math.comb(h + m - 1, m - 1)

    def test_unit_norm_and_positive(self):
        for m, h in ((2, 30), (3, 7)):
            dirs = das_dennis(m, h)
            norms = np.linalg.norm(dirs.directions, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)
            assert np.all(dirs.directions > 0.0)

    def test_constant_single_direction_m2(self):
        assert r2_constant(2, 1) == pytest.approx(math.pi / 4.0)

    def test_constant_formula(self):
        for m, count in ((2, 100), (3, 105), (4, 56)):
            expected = math.pi ** (m / 2) / (m * count * 2 ** (m - 1) * math.gamma(m / 2))
            assert r2_constant(m, count) == pytest.approx(expected, rel=1e-15)

    def test_rejects_degenerate_args(self):
        with pytest.raises(ValueError):
            das_dennis(1, 4)
        with pytest.raises(ValueError):
            das_dennis(2, 0)
        # A float m built a lattice; a float division count failed in range().
        with pytest.raises(ValueError, match="^need m an int, got 2.0$"):
            das_dennis(2.0, 4)
        with pytest.raises(ValueError, match="^need divisions an int, got 4.0$"):
            das_dennis(2, 4.0)


class TestDefaultDivisions:
    def test_documented_defaults(self):
        assert default_divisions(2) == 99
        assert default_divisions(3) == 13

    def test_higher_m_reaches_100_directions(self):
        h = default_divisions(4)
        assert math.comb(h + 3, 3) >= 100
