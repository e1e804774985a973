"""Scalarization tests: closed-form values, tie rules, subgradients against
finite differences, and homogeneity properties."""

import numpy as np
import pytest

from pslearn.scalarization import (
    IdealPoint,
    cosmos,
    hv_scalarization,
    modified_tchebycheff,
    tchebycheff,
    weighted_sum,
)

from conftest import central_difference_gradient

ZERO_IDEAL = IdealPoint(z=np.zeros(2), epsilon=0.0)


class TestWeightedSum:
    def test_arithmetic(self):
        value, grad = weighted_sum([2.0, 4.0], [0.5, 0.5])
        assert value == pytest.approx(3.0)
        np.testing.assert_allclose(grad, [0.5, 0.5])

    def test_degenerate_preference(self):
        value, _ = weighted_sum([7.0, -2.0], [1.0, 0.0])
        assert value == pytest.approx(7.0)

    def test_zero_objectives(self):
        value, _ = weighted_sum([0.0, 0.0], [0.3, 0.7])
        assert value == 0.0


class TestTchebycheff:
    def test_arithmetic(self):
        value, grad = tchebycheff([2.0, 4.0], [0.5, 0.5], ZERO_IDEAL)
        assert value == pytest.approx(2.0)
        np.testing.assert_allclose(grad, [0.0, 0.5])

    def test_zero_at_shifted_ideal(self):
        ideal = IdealPoint(z=np.array([1.0, 2.0]), epsilon=0.25)
        f = ideal.z - ideal.epsilon
        value, _ = tchebycheff(f, [0.4, 0.6], ideal)
        assert value == pytest.approx(0.0)

    def test_tie_broken_to_lowest_index(self):
        value, grad = tchebycheff([1.0, 1.0], [0.5, 0.5], ZERO_IDEAL)
        assert value == pytest.approx(0.5)
        np.testing.assert_allclose(grad, [0.5, 0.0])

    def test_positive_homogeneity(self, rng):
        for _ in range(10):
            f = rng.random(3) + 0.1
            p = rng.random(3) + 0.1
            ideal = IdealPoint(z=np.zeros(3), epsilon=0.0)
            c = float(rng.random() * 5 + 0.1)
            v1, _ = tchebycheff(f, p, ideal)
            v2, _ = tchebycheff(c * f, p, ideal)
            assert v2 == pytest.approx(c * v1, rel=1e-12)

    def test_subgradient_matches_fd_away_from_ties(self, rng):
        ideal = IdealPoint(z=np.zeros(3), epsilon=0.1)
        checked = 0
        while checked < 20:
            f = rng.random(3)
            p = rng.random(3) + 0.05
            terms = np.sort(p * (f - (ideal.z - ideal.epsilon)))
            if terms[-1] - terms[-2] < 1e-3:
                continue
            _, grad = tchebycheff(f, p, ideal)
            fd = central_difference_gradient(lambda x: tchebycheff(x, p, ideal)[0], f)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)
            checked += 1


class TestModifiedTchebycheff:
    def test_arithmetic(self):
        value, grad = modified_tchebycheff([2.0, 4.0], [0.5, 0.5], ZERO_IDEAL)
        assert value == pytest.approx(8.0)
        np.testing.assert_allclose(grad, [0.0, 2.0])

    def test_uniform_preference_identity(self, rng):
        m = 4
        ideal = IdealPoint(z=np.zeros(m), epsilon=0.0)
        f = rng.random(m)
        value, _ = modified_tchebycheff(f, np.full(m, 1.0 / m), ideal)
        assert value == pytest.approx(m * f.max(), rel=1e-12)

    def test_zero_at_shifted_ideal(self):
        ideal = IdealPoint(z=np.array([0.5, -1.0]), epsilon=0.2)
        value, _ = modified_tchebycheff(ideal.z - ideal.epsilon, [0.3, 0.7], ideal)
        assert value == pytest.approx(0.0)

    def test_tiny_preference_clamped(self):
        value, grad = modified_tchebycheff([1.0, 0.0], [0.0, 1.0], ZERO_IDEAL)
        assert value == pytest.approx(1e6)
        np.testing.assert_allclose(grad, [1e6, 0.0])


class TestCosmos:
    def test_parallel_vectors(self):
        p = np.array([0.6, 0.4])
        f = 3.0 * p
        value, _ = cosmos(f, p, gamma=1.0)
        assert value == pytest.approx(float(p @ f) - 1.0)

    def test_gamma_zero_equals_weighted_sum(self, rng):
        f = rng.random(3)
        p = rng.random(3)
        v_cos, g_cos = cosmos(f, p, gamma=0.0)
        v_ws, g_ws = weighted_sum(f, p)
        assert v_cos == pytest.approx(v_ws)
        np.testing.assert_allclose(g_cos, g_ws)

    def test_zero_objective_vector(self):
        value, grad = cosmos([0.0, 0.0], [0.5, 0.5], gamma=1.0)
        assert value == 0.0
        np.testing.assert_allclose(grad, [0.5, 0.5])

    def test_gradient_matches_fd(self, rng):
        for _ in range(20):
            f = rng.random(3) + 0.2
            p = rng.random(3) + 0.2
            _, grad = cosmos(f, p, gamma=1.0)
            fd = central_difference_gradient(lambda x: cosmos(x, p, gamma=1.0)[0], f)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("f", [[0.0, 1.25e-134], [3e-120, 1e-125, 4e-121]])
    def test_gradient_finite_where_norm_cubed_underflows(self, f):
        # |f| > 0 but |f|^3 == 0. The cosine's gradient is homogeneous of
        # degree -1 in f, so it equals the gradient at s * f times s.
        f = np.array(f)
        p = np.full(f.size, 0.25)
        scale = 1e110
        _, grad = cosmos(f, p, gamma=1.0)
        _, grad_scaled = cosmos(scale * f, p, gamma=1.0)
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose((p - grad) / scale, p - grad_scaled, rtol=1e-12)


class TestHvScalarization:
    def test_diagonal_projection(self):
        lam = np.array([1.0, 1.0]) / np.sqrt(2.0)
        s, grad = hv_scalarization([0.0, 0.0], lam, [1.0, 1.0])
        assert s == pytest.approx(np.sqrt(2.0))

    def test_axis_direction_clamped(self):
        s, grad = hv_scalarization([0.5, 0.0], [1.0, 0.0], [1.0, 1.0])
        assert s == pytest.approx(0.5)
        np.testing.assert_allclose(grad, [-1.0, 0.0])

    def test_translation_covariance(self, rng):
        lam = np.array([0.6, 0.8])
        f = rng.random(2)
        r = f + rng.random(2) + 0.1
        shift = rng.standard_normal(2) * 3
        s1, _ = hv_scalarization(f, lam, r)
        s2, _ = hv_scalarization(f + shift, lam, r + shift)
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_outside_reference_flagged(self):
        s, _ = hv_scalarization([2.0, 0.0], [0.707, 0.707], [1.0, 1.0])
        assert s < 0.0

    def test_subgradient_matches_fd(self, rng):
        checked = 0
        while checked < 20:
            f = rng.random(2)
            lam = rng.random(2) + 0.1
            lam = lam / np.linalg.norm(lam)
            r = np.full(2, 1.5)
            quotients = np.sort((r - f) / lam)
            if quotients[1] - quotients[0] < 1e-3:
                continue
            _, grad = hv_scalarization(f, lam, r)
            fd = central_difference_gradient(lambda x: hv_scalarization(x, lam, r)[0], f)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)
            checked += 1

