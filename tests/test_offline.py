import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from tsodlqr import (
    DomainError,
    NonStabilizable,
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
import tsodlqr.offline as offline
from tsodlqr.offline import _refresh_gains, collect_offline_batch


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
        # No numpy warning about the non-finite state escapes the collector.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableRollout, match=r"offline state norm exceeded 1e\+06 at step 1$"):
                simulate_offline(theta_sim, costs32, 200, cfg, 0.1, 0.15, RngStream(4, 0))


class TestRefreshGain:
    def test_stabilizable_estimate_gives_its_gain(self, theta_star, costs32):
        previous = np.ones((1, 2, 3))
        # With U = I the running estimate is the cross term itself.
        gain = _refresh_gains(np.eye(5)[None], theta_star.stacked[None], costs32, previous)
        assert np.array_equal(gain[0], solve_dare(theta_star, costs32).gain)

    def test_non_stabilizable_estimate_keeps_previous_gain(self, theta_star, costs32):
        previous = np.stack([np.ones((2, 3)), 2.0 * np.ones((2, 3))])
        unstable = ThetaParams(2.0 * np.eye(3), np.zeros((3, 2)))
        cross = np.stack([unstable.stacked, theta_star.stacked])
        gain = _refresh_gains(np.stack([np.eye(5)] * 2), cross, costs32, previous)
        assert np.array_equal(gain[0], previous[0])
        assert np.array_equal(gain[1], solve_dare(theta_star, costs32).gain)


def serial_reference(theta_sim, costs, s_len, cfg, delta1, m_delta, rng):
    """The one-run collector loop, step by step with 2-D products: the
    reference that the lockstep collector must match bit for bit."""
    n, m = theta_sim.n, theta_sim.m
    u = cfg.regularizer * np.eye(n + m)
    cross = np.zeros((n + m, n))
    gain = np.asarray(cfg.fixed_gain, dtype=np.float64) if cfg.controller_mode == "fixed_gain" else np.zeros((m, n))
    states, controls = np.zeros((s_len + 1, n)), np.zeros((s_len, m))
    ab = theta_sim.stacked.T
    noise = rng.standard_normal((s_len, m + n))
    dither, process = cfg.dither_std * noise[:, :m], noise[:, m:]
    xi = np.zeros(n)
    for s in range(s_len):
        if cfg.controller_mode == "ce_dither" and s > 0 and s % cfg.gain_refresh == 0:
            estimate = ThetaParams.from_stacked(np.linalg.solve(u, cross), n, m)
            try:
                gain = solve_dare(estimate, costs).gain
            except NonStabilizable:
                pass
        v = gain @ xi + dither[s]
        y = np.concatenate([xi, v])
        xi_next = ab @ y + process[s]
        u += np.outer(y, y)
        cross += np.outer(y, xi_next)
        states[s], controls[s] = xi, v
        xi = xi_next
        if not math.sqrt(xi @ xi) <= cfg.state_ceiling:
            raise UnstableRollout(f"offline state norm exceeded {cfg.state_ceiling:g} at step {s + 1}")
    states[s_len] = xi
    u = 0.5 * (u + u.T)
    theta_hat = np.linalg.solve(u, cross)
    return u, theta_hat, alpha_from_bound(u, n, delta1, cfg.regularizer, cfg.set_p.phi), states, controls


class TestLockstepCollector:
    """collect_offline_batch rolls its runs out together, and each run gets
    the bits that the serial loop and the one-run batch, simulate_offline,
    give it: states, controls, U, theta-hat and alpha, and the generator
    left in the same state."""

    SEEDS = (3, 14, 15, 92, 65, 35)

    @staticmethod
    def assert_same_dataset(got, summary, states, controls):
        assert got[0].u_matrix.tobytes() == summary.u_matrix.tobytes()
        assert got[0].theta_hat_sim.stacked.tobytes() == summary.theta_hat_sim.stacked.tobytes()
        assert got[0].alpha.hex() == summary.alpha.hex()
        assert got[1].tobytes() == states.tobytes() and got[2].tobytes() == controls.tobytes()

    def check_batch(self, theta_sim, costs, s_len, cfg):
        """Collect SEEDS as one batch and compare every run with the serial
        reference and with simulate_offline; returns the batch's entries."""
        batch_rngs = [RngStream(seed, 0) for seed in self.SEEDS]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = collect_offline_batch(theta_sim, costs, s_len, cfg, 0.01, 0.15, batch_rngs)
        for seed, got, rng in zip(self.SEEDS, batch, batch_rngs):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    reference = serial_reference(theta_sim, costs, s_len, cfg, 0.01, 0.15, RngStream(seed, 0))
                except UnstableRollout as exc:
                    reference = exc
            if isinstance(reference, UnstableRollout):
                assert isinstance(got, UnstableRollout) and str(got) == str(reference), seed
                with pytest.raises(UnstableRollout, match=re.escape(str(reference))):
                    simulate_offline(theta_sim, costs, s_len, cfg, 0.01, 0.15, RngStream(seed, 0))
                continue
            u, theta_hat, alpha, states, controls = reference
            assert got[0].u_matrix.tobytes() == u.tobytes(), seed
            assert got[0].theta_hat_sim.stacked.tobytes() == theta_hat.tobytes(), seed
            assert got[0].alpha.hex() == alpha.hex(), seed
            assert got[1].tobytes() == states.tobytes() and got[2].tobytes() == controls.tobytes(), seed
            alone_rng = RngStream(seed, 0)
            self.assert_same_dataset(
                got, *simulate_offline(theta_sim, costs, s_len, cfg, 0.01, 0.15, alone_rng)
            )
            assert rng.bit_generator.state == alone_rng.bit_generator.state
        return batch

    @pytest.mark.parametrize("mode", ["ce_dither", "fixed_gain"])
    def test_batch_equals_serial_runs(self, theta_sim, costs32, set_p, mode):
        # 230 steps: four refreshes and a last window of 30 steps.
        fixed = np.array([[-0.3, 0.1, 0.0], [0.0, -0.2, 0.1]])
        cfg = OfflineConfig(set_p=set_p, controller_mode=mode, fixed_gain=fixed)
        batch = self.check_batch(theta_sim, costs32, 230, cfg)
        assert all(isinstance(entry, tuple) for entry in batch)

    def test_runs_past_the_ceiling_leave_the_batch(self, theta_sim, costs32, set_p):
        # A ceiling between the runs' peak state norms fails some of them.
        cfg = OfflineConfig(set_p=set_p)
        peaks = sorted(
            float(np.sqrt((simulate_offline(theta_sim, costs32, 230, cfg, 0.01, 0.15, RngStream(seed, 0))[1] ** 2)
                          .sum(axis=1)).max())
            for seed in self.SEEDS
        )
        ceiling = 0.5 * (peaks[2] + peaks[3])
        batch = self.check_batch(theta_sim, costs32, 230, OfflineConfig(set_p=set_p, state_ceiling=ceiling))
        assert sum(isinstance(entry, UnstableRollout) for entry in batch) == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_run_leaves_the_batch_without_a_warning(self, theta_sim, costs32, offline_cfg, bad):
        class PoisonedStream(RngStream):
            """Its first normal, the dither of step 1, is `bad`."""

            def standard_normal(self, *args, out, **kwargs):
                super().standard_normal(*args, out=out, **kwargs)
                out.flat[0] = bad

        rngs = [RngStream(self.SEEDS[0], 0), PoisonedStream(self.SEEDS[1], 0), RngStream(self.SEEDS[2], 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = collect_offline_batch(theta_sim, costs32, 120, offline_cfg, 0.01, 0.15, rngs)
        assert isinstance(batch[1], UnstableRollout)
        assert str(batch[1]) == "offline state norm exceeded 1e+06 at step 1"
        for j in (0, 2):
            alone = simulate_offline(theta_sim, costs32, 120, offline_cfg, 0.01, 0.15, RngStream(self.SEEDS[j], 0))
            self.assert_same_dataset(batch[j], *alone)

    def test_failed_refresh_keeps_the_previous_gain(self, costs32, set_p, monkeypatch):
        # The first state is unstable and no input reaches it, so every
        # estimate of this system is far from stabilizable; with refreshes
        # every 10 steps and a loose ceiling some refreshes fail.
        theta = ThetaParams(np.diag([1.05, 0.5, 0.3]), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        failures = []
        real_solve = offline.solve_dare_stack

        def record(stacked, costs):
            sols = real_solve(stacked, costs)
            failures.extend(sols.failure.tolist())
            return sols

        monkeypatch.setattr(offline, "solve_dare_stack", record)
        cfg = OfflineConfig(set_p=set_p, gain_refresh=10, state_ceiling=1e12)
        batch = self.check_batch(theta, costs32, 120, cfg)
        assert all(isinstance(entry, tuple) for entry in batch)
        assert 0 < sum(code != 0 for code in failures) < len(failures), failures

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


def _edit_row_8(lines, edit_fields):
    """The lines of a trajectory CSV with the fields of its row 8 edited."""
    fields = lines[8].rstrip("\n").split(",")
    return lines[:8] + [",".join(edit_fields(fields)) + "\n"] + lines[9:]


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
        # Blank lines are skipped, and the rows may come in any order.
        csv_path = base.with_suffix(".csv")
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:1] + ["\n"] + lines[:0:-1] + ["\n"]))
        _, states3, controls3 = load_offline(base)
        assert np.array_equal(states, states3)
        assert np.array_equal(controls, controls3)

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

    # Each edit maps the trajectory CSV's lines (the header, then rows 1..101)
    # to a malformed file.
    TRAJECTORY_EDITS = {
        "truncate": lambda lines: lines[:51],  # the header plus 50 rows
        "duplicate": lambda lines: lines[:8] + lines[7:],  # row 7 written twice
        "missing": lambda lines: lines[:8] + lines[9:],  # row 8 left out
        "repeated": lambda lines: _edit_row_8(lines, lambda f: ["7"] + f[1:]),  # row 7 twice, no row 8
        "out_of_range": lambda lines: _edit_row_8(lines, lambda f: ["102"] + f[1:]),
        "fractional_index": lambda lines: _edit_row_8(lines, lambda f: ["8.5"] + f[1:]),
        "exponent_index": lambda lines: _edit_row_8(lines, lambda f: ["8e0"] + f[1:]),
        "short_row": lambda lines: _edit_row_8(lines, lambda f: f[:-1]),
        "non_numeric": lambda lines: _edit_row_8(lines, lambda f: f[:2] + ["abc"] + f[3:]),
        "header_width": lambda lines: ["s,xi1,xi2,v1,v2\n"] + lines[1:],
        "header_only": lambda lines: lines[:1],
    }

    @pytest.mark.parametrize("edit", [*TRAJECTORY_EDITS, "sidecar_key", "sidecar_dims"])
    def test_incomplete_trajectory_raises(self, tmp_path, theta_sim, costs32, offline_cfg, edit, recwarn):
        summary, states, controls = simulate_offline(
            theta_sim, costs32, 100, offline_cfg, 0.1, 0.15, RngStream(8, 0)
        )
        base = tmp_path / "offline_s100"
        save_offline(base, summary, states, controls)
        if edit == "sidecar_key":
            path, match = base.with_suffix(".json"), "offline_s100.json lacks the key 'delta1'"
            sidecar = json.loads(path.read_text())
            del sidecar["delta1"]
            path.write_text(json.dumps(sidecar))
        elif edit == "sidecar_dims":
            # n and m swapped, with a CSV header that matches them.
            path, match = base.with_suffix(".json"), r"offline_s100.json gives n=2, m=3, which do not match"
            sidecar = json.loads(path.read_text())
            sidecar["n"], sidecar["m"] = 2, 3
            path.write_text(json.dumps(sidecar))
            csv_path = base.with_suffix(".csv")
            lines = csv_path.read_text().splitlines(keepends=True)
            csv_path.write_text("".join(["s,xi1,xi2,v1,v2,v3\n"] + lines[1:]))
        else:
            path, match = base.with_suffix(".csv"), "trajectory CSV"
            path.write_text("".join(self.TRAJECTORY_EDITS[edit](path.read_text().splitlines(keepends=True))))
        # The filters stay as in a run, where a warning is no error; so the
        # loader itself must reject, and no numpy warning may escape it.
        recwarn.clear()
        with pytest.raises(ValueError, match=match):
            load_offline(base)
        assert [str(w.message) for w in recwarn] == []
