import math
import pickle

import numpy as np
import pytest

from tsodlqr import (
    DomainError,
    OfflineConfig,
    RngStream,
    ThetaParams,
    UnstableRollout,
    alpha_from_bound,
    check_assumption2,
    load_offline,
    save_offline,
    simulate_offline,
    solve_dare,
)
from tsodlqr.offline import _refresh_gain


def batch_least_squares(states, controls, regularizer):
    """Independent oracle: ridge normal equations assembled from the raw trajectory."""
    s_len, m = controls.shape
    n = states.shape[1]
    y = np.hstack([states[:s_len], controls])
    targets = states[1:]
    u = regularizer * np.eye(n + m) + y.T @ y
    theta = np.linalg.solve(u, y.T @ targets)
    return u, theta


class TestAlphaFromBound:
    def test_identity_precision(self):
        # det ratio is one, so only the log(1/delta1) and bias terms remain.
        for n, d, lam0, phi, delta1 in ((1, 2, 1.0, 1.0, 0.2), (3, 5, 2.0, 4.0, 0.05)):
            alpha = alpha_from_bound(lam0 * np.eye(d), n, delta1, lam0, phi)
            expected = n * math.sqrt(2.0 * math.log(1.0 / delta1)) + math.sqrt(lam0) * phi
            assert alpha == pytest.approx(expected, rel=1e-12)

    def test_forced_arithmetic(self):
        alpha = alpha_from_bound(np.eye(2), 1, 1.0 / math.e, 1.0, 1.0)
        assert alpha == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-12)

    def test_logdet_matches_eigenvalue_product(self):
        u = np.diag([4.0, 4.0, 4.0, 4.0])
        alpha = alpha_from_bound(u, 2, 0.05, 1.0, 2.0)
        # Oracle: log-det through the product of eigenvalues.
        logdet = math.log(float(np.prod(np.linalg.eigvalsh(u))))
        expected = 2 * math.sqrt(2.0 * (0.5 * logdet + math.log(1 / 0.05))) + 2.0
        assert alpha == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_delta1(self):
        u = np.diag([3.0, 7.0])
        alphas = [alpha_from_bound(u, 1, d1, 1.0, 1.0) for d1 in (0.5, 0.1, 0.01, 0.001)]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))

    def test_domain_error(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                alpha_from_bound(np.eye(2), 1, bad, 1.0, 1.0)


class TestSimulateOffline:
    def test_single_step_rank_one(self, theta_sim, costs32, set_p):
        cfg = OfflineConfig(set_p=set_p, regularizer=1.0)
        summary, states, controls = simulate_offline(
            theta_sim, costs32, 1, cfg, 0.1, 0.15, RngStream(11, 0)
        )
        y = np.concatenate([states[0], controls[0]])
        assert np.allclose(summary.u_matrix, np.eye(5) + np.outer(y, y), atol=1e-14)

    def test_batch_recursive_equivalence(self, theta_sim, costs32, offline_cfg):
        summary, states, controls = simulate_offline(
            theta_sim, costs32, 800, offline_cfg, 0.01, 0.15, RngStream(21, 0)
        )
        u, theta = batch_least_squares(states, controls, offline_cfg.regularizer)
        assert np.linalg.norm(u - summary.u_matrix) <= 1e-8 * np.linalg.norm(u)
        assert (
            np.linalg.norm(theta - summary.theta_hat_sim.stacked)
            <= 1e-8 * np.linalg.norm(theta)
        )
        # Rank-one updates never lose the regularized floor.
        assert np.linalg.eigvalsh(summary.u_matrix)[0] >= offline_cfg.regularizer - 1e-9

    def test_gram_lower_bound(self, theta_sim, costs32, offline_cfg):
        # Empirical check of the excitation property at S = 3000.
        summary, _, _ = simulate_offline(
            theta_sim, costs32, 3000, offline_cfg, 0.01, 0.15, RngStream(33, 0)
        )
        lam_min = np.linalg.eigvalsh(summary.u_matrix)[0] - offline_cfg.regularizer
        assert lam_min >= 3000 / 40

    def test_error_decreases_with_s(self, theta_sim, costs32, offline_cfg):
        medians = []
        for s_len in (1500, 2500, 5000):
            errors = []
            for seed in range(10):
                summary, _, _ = simulate_offline(
                    theta_sim, costs32, s_len, offline_cfg, 0.01, 0.15, RngStream(seed, 0)
                )
                errors.append(
                    np.linalg.norm(summary.theta_hat_sim.stacked - theta_sim.stacked)
                )
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]

    def test_fixed_gain_mode(self, theta_sim, costs32, set_p):
        cfg = OfflineConfig(
            set_p=set_p, controller_mode="fixed_gain", fixed_gain=np.zeros((2, 3))
        )
        summary, _, controls = simulate_offline(
            theta_sim, costs32, 200, cfg, 0.1, 0.15, RngStream(4, 0)
        )
        assert summary.s_len == 200
        assert controls.shape == (200, 2)


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_state_fails_at_its_step(self, theta_sim, costs32, set_p, bad):
        # A non-finite gain times the zero initial state makes the first
        # state non-finite, which fails the ceiling at once.
        gain = np.zeros((2, 3))
        gain[0, 0] = bad
        cfg = OfflineConfig(set_p=set_p, controller_mode="fixed_gain", fixed_gain=gain)
        with pytest.raises(UnstableRollout, match=r"offline state norm exceeded 1e\+06 at step 1$"):
            simulate_offline(theta_sim, costs32, 200, cfg, 0.1, 0.15, RngStream(4, 0))


class TestRefreshGain:
    def test_stabilizable_estimate_gives_its_gain(self, theta_star, costs32):
        previous = np.ones((2, 3))
        # With U = I the running estimate is the cross term itself.
        gain = _refresh_gain(np.eye(5), theta_star.stacked, 3, 2, costs32, previous)
        assert np.array_equal(gain, solve_dare(theta_star, costs32).gain)

    def test_non_stabilizable_estimate_keeps_previous_gain(self, costs32):
        previous = np.ones((2, 3))
        unstable = ThetaParams(2.0 * np.eye(3), np.zeros((3, 2)))
        gain = _refresh_gain(np.eye(5), unstable.stacked, 3, 2, costs32, previous)
        assert gain is previous


class TestCheckAssumption2:
    def test_boundary_lambda(self, theta_sim):
        s_len = 400
        summary_u = (s_len / 40.0) * np.eye(5) + np.eye(5)
        from tsodlqr import OfflineSummary

        summary = OfflineSummary(
            u_matrix=summary_u,
            theta_hat_sim=theta_sim,
            alpha=1.0,
            s_len=s_len,
            m_delta=0.0,
            delta1=0.1,
            regularizer=1.0,
        )
        report = check_assumption2(summary, theta_sim, 3, 2)
        assert report.lambda_min_unreg == pytest.approx(s_len / 40.0, abs=1e-9)
        assert report.lambda_ok

    def test_threshold_arithmetic(self, theta_sim):
        from tsodlqr import OfflineSummary

        summary = OfflineSummary(
            u_matrix=np.eye(5) * 2,
            theta_hat_sim=theta_sim,
            alpha=1.0,
            s_len=10,
            m_delta=0.0,
            delta1=0.05,
            regularizer=1.0,
        )
        report = check_assumption2(summary, theta_sim, 3, 2)
        assert math.ceil(report.s_threshold) == 5481  # 200 * 5 * log(240), rounded up
        assert not report.s_ok

    def test_zero_error_always_covered(self, theta_sim):
        from tsodlqr import OfflineSummary

        summary = OfflineSummary(
            u_matrix=np.eye(5) * 3,
            theta_hat_sim=theta_sim,
            alpha=0.0,
            s_len=100,
            m_delta=0.0,
            delta1=0.1,
            regularizer=1.0,
        )
        report = check_assumption2(summary, theta_sim, 3, 2)
        assert report.estimation_error == pytest.approx(0.0, abs=1e-12)
        assert report.coverage_ok


class TestSerialization:
    def test_round_trip(self, tmp_path, theta_sim, costs32, offline_cfg):
        summary, states, controls = simulate_offline(
            theta_sim, costs32, 50, offline_cfg, 0.1, 0.15, RngStream(8, 0)
        )
        base = tmp_path / "offline_s50"
        save_offline(base, summary, states, controls)
        loaded, states2, controls2 = load_offline(base)
        assert np.array_equal(states, states2)
        assert np.array_equal(controls, controls2)
        assert np.array_equal(loaded.u_matrix, summary.u_matrix)
        assert np.array_equal(loaded.theta_hat_sim.stacked, summary.theta_hat_sim.stacked)
        assert loaded.alpha == summary.alpha
        assert loaded.s_len == summary.s_len
        assert loaded.m_delta == summary.m_delta
        assert loaded.delta1 == summary.delta1
        assert loaded.regularizer == summary.regularizer

    def test_pickle_keeps_arrays_read_only(self, theta_sim, costs32, offline_cfg):
        summary = simulate_offline(theta_sim, costs32, 50, offline_cfg, 0.1, 0.15, RngStream(8, 0))[0]
        back = pickle.loads(pickle.dumps(summary))
        assert np.array_equal(back.u_matrix, summary.u_matrix)
        assert np.array_equal(back.theta_hat_sim.stacked, summary.theta_hat_sim.stacked)
        assert (back.alpha, back.s_len, back.m_delta, back.delta1, back.regularizer) == (
            summary.alpha, summary.s_len, summary.m_delta, summary.delta1, summary.regularizer
        )
        assert not back.u_matrix.flags.writeable
        assert not back.theta_hat_sim.stacked.flags.writeable

    @pytest.mark.parametrize("edit", ["truncate", "duplicate"])
    def test_incomplete_trajectory_raises(self, tmp_path, theta_sim, costs32, offline_cfg, edit):
        summary, states, controls = simulate_offline(
            theta_sim, costs32, 100, offline_cfg, 0.1, 0.15, RngStream(8, 0)
        )
        base = tmp_path / "offline_s100"
        save_offline(base, summary, states, controls)
        csv_path = base.with_suffix(".csv")
        lines = csv_path.read_text().splitlines(keepends=True)
        # The header plus 50 rows, or every row with row 7 written twice.
        kept = lines[:51] if edit == "truncate" else lines[:8] + lines[7:]
        csv_path.write_text("".join(kept))
        with pytest.raises(ValueError, match="trajectory CSV"):
            load_offline(base)
