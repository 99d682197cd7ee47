import numpy as np
import pytest

from tsodlqr import (
    CostMatrices,
    DimensionMismatch,
    RngStream,
    ThetaParams,
    sample_theta_delta,
    step_system,
)


class TestStepSystem:
    def test_zero_theta(self):
        theta = ThetaParams(np.zeros((3, 3)), np.zeros((3, 1)))
        costs = CostMatrices(np.eye(3), np.eye(1))
        state = np.array([1.0, 2.0, 3.0])
        z, next_state, cost = step_system(theta, state, [0.0], costs, RngStream(0), noise=np.zeros(3))
        assert np.array_equal(next_state, np.zeros(3))
        assert cost == pytest.approx(14.0)  # x^T Q x with Q = I
        assert np.array_equal(z, np.array([1.0, 2.0, 3.0, 0.0]))

    def test_identity_dynamics(self):
        theta = ThetaParams(np.eye(3), np.zeros((3, 1)))
        q = np.diag([2.0, 1.0, 1.0])
        costs = CostMatrices(q, np.eye(1))
        state = np.array([1.0, 0.0, 0.0])
        _, next_state, cost = step_system(theta, state, [0.0], costs, RngStream(0), noise=np.zeros(3))
        assert np.array_equal(next_state, np.array([1.0, 0.0, 0.0]))
        assert cost == pytest.approx(q[0, 0])

    def test_section_v_arithmetic(self, theta_star, costs32):
        state = np.array([1.0, 0.0, 0.0])
        next_state = step_system(theta_star, state, [1.0, 0.0], costs32, RngStream(0), noise=np.zeros(3))[1]
        assert np.allclose(next_state, [1.6, 0.5, 0.5], atol=1e-15)

    def test_dimension_mismatch(self, theta_star, costs32):
        with pytest.raises(DimensionMismatch):
            step_system(theta_star, np.zeros(3), [1.0], costs32, RngStream(0))
        with pytest.raises(DimensionMismatch):
            step_system(theta_star, np.zeros(2), [1.0, 0.0], costs32, RngStream(0))

    def test_determinism(self, theta_star, costs32):
        def rollout():
            rng = RngStream(12345, 7)
            state = np.zeros(3)
            out = []
            for _ in range(200):
                _, state, _ = step_system(theta_star, state, [0.1, -0.2], costs32, rng)
                out.append(state)
            return np.array(out), len(out)

        first, steps1 = rollout()
        second, steps2 = rollout()
        assert steps1 == steps2 == 200
        assert np.array_equal(first, second)

    def test_cost_nonnegative_and_recomputable(self, theta_star, costs32):
        rng = RngStream(5)
        state = np.zeros(3)
        for _ in range(100):
            u = rng.standard_normal(2)
            z, next_state, cost = step_system(theta_star, state, u, costs32, rng)
            assert cost >= 0.0
            x = z[:3]
            recomputed = x @ costs32.q_matrix @ x + u @ costs32.r_matrix @ u
            assert cost == pytest.approx(recomputed, rel=1e-12)
            state = next_state

    def test_noise_whiteness(self):
        theta = ThetaParams(np.zeros((3, 3)), np.zeros((3, 1)))
        costs = CostMatrices(np.eye(3), np.eye(1))
        rng = RngStream(2024)
        state = np.zeros(3)
        draws = np.empty((100_000, 3))
        for i in range(draws.shape[0]):
            draws[i] = step_system(theta, state, [0.0], costs, rng)[1]  # the noise, as theta = 0
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)
        cov = np.cov(draws.T)
        assert np.all(np.abs(cov - np.eye(3)) < 0.05)


class TestSectionVPair:
    def test_offset_is_within_m_delta(self, theta_star, theta_sim):
        delta_a = theta_star.a_matrix - theta_sim.a_matrix
        delta_b = theta_star.b_matrix - theta_sim.b_matrix
        nonzero = np.count_nonzero(delta_a) + np.count_nonzero(delta_b)
        assert nonzero == 2
        assert delta_a[0, 0] == pytest.approx(-0.1)
        assert delta_b[0, 0] == pytest.approx(-0.1)
        delta = ThetaParams(delta_a, delta_b)
        assert delta.frobenius_norm() == pytest.approx(np.sqrt(0.02), abs=1e-15)
        assert delta.frobenius_norm() <= 0.15
        assert np.allclose(theta_sim.stacked + delta.stacked, theta_star.stacked, atol=1e-15)


class TestSampleThetaDelta:
    def test_zero_radius(self):
        delta = sample_theta_delta(0.0, 3, 2, RngStream(1))
        assert delta.frobenius_norm() == 0.0

    def test_within_bound(self):
        rng = RngStream(2)
        for _ in range(50):
            delta = sample_theta_delta(0.15, 3, 2, rng)
            assert delta.frobenius_norm() <= 0.15

    def test_radius_distribution(self):
        # Radius is uniform on [0, 1] by construction, so the mean norm is 1/2.
        rng = RngStream(3)
        norms = [sample_theta_delta(1.0, 2, 1, rng).frobenius_norm() for _ in range(10_000)]
        assert max(norms) <= 1.0
        assert np.mean(norms) == pytest.approx(0.5, abs=0.02)
