import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from tsodlqr import (
    ConstraintSetQ,
    CostMatrices,
    DimensionMismatch,
    DomainError,
    MultiSourceSummary,
    NonStabilizable,
    OfflineSummary,
    RngStream,
    SingularPrecision,
    ThetaParams,
    TsodLqrError,
    UnstableRollout,
    compute_beta,
    effective_sources,
    init_belief,
    q_membership,
    run_episode,
    sample_constrained,
    simulate_offline,
    solve_dare,
    step_system,
    update_belief,
)
import tsodlqr.controller as controller
from tsodlqr.controller import (
    CHECKPOINT_FRACTIONS,
    EpisodeResult,
    SampleOutcome,
    as_sources,
    delta2_for,
    run_episodes,
)
from tsodlqr.harness import delta1_for


def make_summary(u, theta_hat, alpha=0.0, s_len=10, m_delta=0.0, delta1=0.1, regularizer=1.0):
    return OfflineSummary(
        u_matrix=np.asarray(u, dtype=float),
        theta_hat_sim=theta_hat,
        alpha=alpha,
        s_len=s_len,
        m_delta=m_delta,
        delta1=delta1,
        regularizer=regularizer,
    )


def random_pd(dim, rng):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


class TestInitBelief:
    def test_single_source_exact(self, theta_sim):
        u = np.diag([2.0, 3.0, 4.0, 5.0, 6.0])
        belief = init_belief(make_summary(u, theta_sim))
        assert np.array_equal(belief.v_matrix, u)
        assert np.array_equal(belief.theta_hat.stacked, theta_sim.stacked)
        assert belief.logdet_v == belief.logdet_u

    def test_two_equal_sources_average(self):
        t1 = ThetaParams([[0.5]], [[1.0]])
        t2 = ThetaParams([[0.1]], [[0.4]])
        belief = init_belief(
            MultiSourceSummary((make_summary(np.eye(2), t1), make_summary(np.eye(2), t2)))
        )
        expected = 0.5 * (t1.stacked + t2.stacked)
        assert np.allclose(belief.theta_hat.stacked, expected, atol=1e-14)

    def test_three_sources_against_normal_equations(self):
        rng = np.random.default_rng(17)
        n, m = 3, 2
        sources = []
        factors = []
        rhs = []
        for _ in range(3):
            u = random_pd(n + m, rng)
            theta = ThetaParams(rng.standard_normal((n, n)), rng.standard_normal((n, m)))
            sources.append(make_summary(u, theta))
            # Oracle rows: U^{1/2} theta ~ U^{1/2} theta_hat, via eigenvalue square roots.
            w, v = np.linalg.eigh(u)
            half = (v * np.sqrt(w)) @ v.T
            factors.append(half)
            rhs.append(half @ theta.stacked)
        stacked_a = np.vstack(factors)
        stacked_b = np.vstack(rhs)
        oracle, *_ = np.linalg.lstsq(stacked_a, stacked_b, rcond=None)
        belief = init_belief(MultiSourceSummary(tuple(sources)))
        assert np.linalg.norm(belief.theta_hat.stacked - oracle) <= 1e-8 * max(
            1.0, np.linalg.norm(oracle)
        )


class TestComputeBeta:
    def test_determinant_ratio_one(self):
        theta = ThetaParams.zeros(1, 1)
        src = MultiSourceSummary((make_summary(np.eye(2), theta),))
        belief = init_belief(src)
        assert compute_beta(belief, src, 1.0 / math.e) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_forced_arithmetic(self):
        theta = ThetaParams.zeros(1, 1)
        src = MultiSourceSummary(
            (make_summary(100.0 * np.eye(2), theta, alpha=2.0, m_delta=0.15),)
        )
        belief = init_belief(src)
        beta = compute_beta(belief, src, 1.0 / math.e)
        assert beta == pytest.approx(math.sqrt(2.0) + 2.0 + 10.0 * 0.15, rel=1e-12)

    def test_doubled_precision_with_eigen_oracle(self):
        theta = ThetaParams.zeros(3, 2)
        summary = make_summary(np.eye(5), theta, alpha=1.0)
        src = MultiSourceSummary((summary,))
        belief = init_belief(src)
        # Hand-build the state after V doubles.
        logdet_v = math.log(float(np.prod(np.linalg.eigvalsh(2.0 * np.eye(5)))))
        logdet_u = math.log(float(np.prod(np.linalg.eigvalsh(np.eye(5)))))
        from dataclasses import replace

        belief2 = replace(belief, v_matrix=2.0 * np.eye(5), logdet_v=logdet_v, logdet_u=logdet_u)
        beta = compute_beta(belief2, src, 0.05)
        expected = 3.0 * math.sqrt(2.0 * (2.5 * math.log(2.0) + math.log(20.0))) + 1.0
        assert beta == pytest.approx(expected, abs=1e-12)

    def test_mdelta_scale_flag(self):
        theta = ThetaParams.zeros(1, 1)
        src = MultiSourceSummary((make_summary(4.0 * np.eye(2), theta, m_delta=0.5),))
        belief = init_belief(src)
        base = compute_beta(belief, src, 0.5, m_delta_scale=0.0)
        full = compute_beta(belief, src, 0.5, m_delta_scale=1.0)
        assert full - base == pytest.approx(2.0 * 0.5, rel=1e-12)

    def test_domain_error(self):
        theta = ThetaParams.zeros(1, 1)
        src = MultiSourceSummary((make_summary(np.eye(2), theta),))
        belief = init_belief(src)
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                compute_beta(belief, src, bad)


class TestSampleConstrained:
    def test_zero_beta_returns_mean(self, costs32, set_q, theta_star):
        src = MultiSourceSummary((make_summary(np.eye(5) * 10, theta_star),))
        belief = init_belief(src)
        out = sample_constrained(belief, 0.0, set_q, costs32, RngStream(1, 1))
        assert not out.fallback_used
        assert out.rejections == 0
        assert np.array_equal(out.theta_tilde.stacked, theta_star.stacked)

    def test_huge_precision_accepts_mean_like_sample(self, costs32, set_q, theta_star):
        src = MultiSourceSummary((make_summary(1e8 * np.eye(5), theta_star),))
        belief = init_belief(src)
        accepted = 0
        rng = RngStream(2, 1)
        for _ in range(20):
            out = sample_constrained(belief, 5.0, set_q, costs32, rng)
            if not out.fallback_used:
                accepted += 1
                assert np.linalg.norm(out.theta_tilde.stacked - theta_star.stacked) < 1e-2
        assert accepted == 20

    def test_accepted_samples_reverified(self, theta_star, theta_sim, costs32, set_q, set_p,
                                         offline_cfg):
        summary = simulate_offline(
            theta_sim, costs32, 3000, offline_cfg, delta1_for(0.1, 3000, 1500), 0.15,
            RngStream(5, 0),
        )[0]
        src = MultiSourceSummary((summary,))
        belief = init_belief(src)
        beta = compute_beta(belief, src, 0.1 / (16 * 1500))
        rng = RngStream(6, 1)
        accepted = 0
        for _ in range(1000):
            out = sample_constrained(belief, beta, set_q, costs32, rng, max_attempts=1)
            if not out.fallback_used:
                accepted += 1
                # Independent re-evaluation of both membership predicates.
                a, b = out.theta_tilde.a_matrix, out.theta_tilde.b_matrix
                p = scipy.linalg.solve_discrete_are(a, b, costs32.q_matrix, costs32.r_matrix)
                gain = -np.linalg.solve(costs32.r_matrix + b.T @ p @ b, b.T @ p @ a)
                assert np.trace(p) <= set_q.m_p * (1 + 1e-9)
                cl = np.linalg.norm(a + b @ gain, 2)
                assert cl <= set_q.rho * (1 + 1e-9)
                assert q_membership(out.theta_tilde, costs32, set_q) is not None
        assert accepted > 0

    def test_non_finite_candidate_raises(self, costs32, set_q, theta_star):
        belief = init_belief(MultiSourceSummary((make_summary(np.eye(5), theta_star),)))
        with pytest.raises(ValueError, match="non-finite"):
            sample_constrained(belief, math.inf, set_q, costs32, RngStream(4, 1))

    def test_max_attempts_below_one_raises(self, costs32, set_q, theta_star):
        belief = init_belief(MultiSourceSummary((make_summary(np.eye(5), theta_star),)))
        rng = RngStream(4, 1)
        start = rng.bit_generator.state
        with pytest.raises(ValueError, match="max_attempts"):
            sample_constrained(belief, 1.0, set_q, costs32, rng, max_attempts=0)
        assert rng.bit_generator.state == start

    @pytest.mark.parametrize("beta", [-1.0, math.nan])
    def test_negative_or_nan_beta_raises_on_entry(self, costs32, set_q, theta_star, beta):
        belief = init_belief(MultiSourceSummary((make_summary(np.eye(5), theta_star),)))
        rng = RngStream(4, 1)
        start = rng.bit_generator.state
        with pytest.raises(DomainError, match="beta must be nonnegative"):
            sample_constrained(belief, beta, set_q, costs32, rng)
        assert rng.bit_generator.state == start

    def test_fallback_marks_flag(self, costs32, set_q):
        # A mean far outside the admissible set forces the fallback ladder.
        wild = ThetaParams(5.0 * np.eye(3), np.zeros((3, 2)))
        src = MultiSourceSummary((make_summary(np.eye(5), wild),))
        belief = init_belief(src)
        out = sample_constrained(
            belief, 50.0, set_q, costs32, RngStream(3, 1), max_attempts=5,
            anchor=ThetaParams.zeros(3, 2),
        )
        assert out.fallback_used
        assert out.rejections == 5
        assert q_membership(out.theta_tilde, costs32, set_q) is not None

    @pytest.mark.parametrize("with_anchor", [True, False])
    def test_full_fallback_ladder(self, costs32, set_q, theta_sim, theta_star, monkeypatch,
                                  with_anchor):
        # Every candidate is rejected, so the whole ladder runs: the last
        # accepted sample, the mean, the interpolations toward the anchor and
        # the scalings of the anchor (or of the mean) toward zero.
        belief = init_belief(make_summary(np.eye(5), theta_sim))
        anchor = ThetaParams(0.5 * theta_star.a_matrix, -theta_star.b_matrix)
        last = ThetaParams(0.25 * theta_star.a_matrix, theta_star.b_matrix)
        seen, stacks, screened = [], [], []

        def reject(theta, *args):
            seen.append(theta.stacked.copy())
            return None

        def reject_stack(stacked, *args):
            stacks.append(stacked.copy())
            return np.zeros(len(stacked), dtype=bool), None

        def screen_out(stacked):
            screened.append(len(stacked))
            return np.full(len(stacked), np.inf)

        # The draws go through the block screen, the last accepted sample
        # through q_membership on entry, the other rungs through one stacked
        # admissibility call.
        monkeypatch.setattr("tsodlqr.lqr.closed_loop_floors", screen_out)
        monkeypatch.setattr("tsodlqr.controller.q_membership", reject)
        monkeypatch.setattr("tsodlqr.controller.admitted_stack", reject_stack)
        with pytest.raises(NonStabilizable, match="no admissible fallback"):
            sample_constrained(
                belief, 1.0, set_q, costs32, RngStream(4, 1), max_attempts=2,
                anchor=anchor if with_anchor else None, last_accepted=last,
            )
        hat = theta_sim.stacked
        expected = [last.stacked, hat]
        if with_anchor:
            expected += [(1.0 - lam) * hat + lam * anchor.stacked for lam in (0.25, 0.5, 0.75, 1.0)]
        target = anchor.stacked if with_anchor else hat
        expected += [scale * target for scale in (0.75, 0.5, 0.25, 0.0)]
        assert sum(screened) == 2
        assert len(stacks) == 1
        assert [c.tobytes() for c in seen + list(stacks[0])] == [e.tobytes() for e in expected]


def reference_ladder(theta_hat, anchor, last_accepted):
    """The fallback rungs in order: the last accepted sample, the mean, the
    interpolations from the mean toward the anchor, and the scalings of the
    anchor (of the mean when there is none) toward zero."""
    n, m = theta_hat.n, theta_hat.m
    hat = theta_hat.stacked
    rungs = [] if last_accepted is None else [last_accepted.stacked]
    rungs.append(hat)
    if anchor is not None:
        rungs += [(1.0 - lam) * hat + lam * anchor.stacked for lam in (0.25, 0.5, 0.75, 1.0)]
    target = hat if anchor is None else anchor.stacked
    rungs += [scale * target for scale in (0.75, 0.5, 0.25, 0.0)]
    return [ThetaParams.from_stacked(rung, n, m) for rung in rungs]


def reference_sampler(belief, beta, set_q, costs, rng, max_attempts, anchor, last_accepted):
    """The sampler one candidate at a time: one draw from the sampler stream,
    one ThetaParams and one q_membership call per candidate, then the
    fallback ladder."""
    n, m = belief.n, belief.m
    eigvals, eigvecs = np.linalg.eigh(belief.v_matrix)
    inv_half = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    mean = belief.theta_hat.stacked
    # Lazy, so that each draw happens only after the previous one was rejected.
    draws = (
        ThetaParams.from_stacked(mean + beta * (inv_half @ rng.standard_normal((n + m, n))), n, m)
        for _ in range(max_attempts)
    )
    candidates = itertools.chain(draws, reference_ladder(belief.theta_hat, anchor, last_accepted))
    for index, candidate in enumerate(candidates):
        sol = q_membership(candidate, costs, set_q)
        if sol is not None:
            return SampleOutcome(candidate, sol.gain, min(index, max_attempts), index >= max_attempts)
    raise NonStabilizable("no admissible fallback parameter found")


class TestBlockSampler:
    """run_episode's block sampler equals the one-at-a-time reference bit for
    bit for every block size: candidate k of a run is the k-th normal block
    of its sampler stream, and the normals that a step leaves unused are the
    next step's first candidates."""

    STEPS = 40
    DELTA2 = delta2_for(0.1, 60)

    @pytest.fixture(scope="class")
    def summary(self, theta_sim, costs32, offline_cfg):
        return simulate_offline(
            theta_sim, costs32, 250, offline_cfg, delta1_for(0.1, 250, 60), 0.15, RngStream(42, 0)
        )[0]

    def replay(self, theta_star, src, costs, set_q, max_attempts):
        """Sample, step and update for STEPS steps with the reference sampler
        on sampler stream (7, 2) and the process noise on stream (7, 1).
        sample_constrained on a twin sampler stream matches every step and
        leaves its stream where the reference leaves it.  Returns the steps'
        costs, rejections and fallback flags."""
        belief = init_belief(src)
        anchor, last_accepted = belief.theta_hat, None
        noise, got_rng, ref_rng = RngStream(7, 1), RngStream(7, 2), RngStream(7, 2)
        state = np.zeros(theta_star.n)
        record = []
        for _ in range(self.STEPS):
            beta = compute_beta(belief, src, self.DELTA2)
            ref = reference_sampler(belief, beta, set_q, costs, ref_rng, max_attempts, anchor, last_accepted)
            got = sample_constrained(
                belief, beta, set_q, costs, got_rng, max_attempts, anchor=anchor, last_accepted=last_accepted
            )
            assert got.theta_tilde.stacked.tobytes() == ref.theta_tilde.stacked.tobytes()
            assert got.gain.tobytes() == ref.gain.tobytes()
            assert (got.rejections, got.fallback_used) == (ref.rejections, ref.fallback_used)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            if not ref.fallback_used:
                last_accepted = ref.theta_tilde
            z, next_state, cost = step_system(theta_star, state, ref.gain @ state, costs, noise)
            belief = update_belief(belief, z, next_state)
            state = next_state
            record.append((cost, ref.rejections, ref.fallback_used))
        cost, rejections, fallback = map(np.array, zip(*record))
        return cost, rejections, fallback

    def check(self, theta_star, sources, variant, costs, set_q, max_attempts):
        """run_episode against the replay; returns the fallback steps, the
        steps that start inside a block, and the steps whose candidates
        reach past the end of a block."""
        block = controller.SAMPLE_BLOCK if theta_star.n > theta_star.m else 1
        src = effective_sources(sources, variant)
        cost, rejections, fallback = self.replay(theta_star, src, costs, set_q, max_attempts)
        result = run_episode(
            theta_star, sources, costs, set_q, self.STEPS, self.DELTA2, variant, RngStream(7, 1), RngStream(7, 2),
            max_attempts=max_attempts,
        )
        assert result.trace.cost.tobytes() == cost.tobytes()
        assert result.trace.rejections.tolist() == rejections.tolist()
        assert result.diagnostics.fallback_steps == fallback.sum()
        used = np.minimum(rejections + 1, max_attempts)
        offset = (np.cumsum(used) - used) % block
        return fallback.sum(), np.count_nonzero(offset), np.count_nonzero(offset + used > block)

    @pytest.mark.parametrize("variant", ["tsod", "ts_no_offline"])
    @pytest.mark.parametrize("max_attempts", [5, 20, 100])
    @pytest.mark.parametrize("block", [1, 3, 8])
    def test_matches_one_at_a_time_sampler(self, summary, theta_star, costs32, set_q, monkeypatch,
                                           variant, max_attempts, block):
        monkeypatch.setattr("tsodlqr.controller.SAMPLE_BLOCK", block)
        fallbacks, mid_block, spanning = self.check(theta_star, summary, variant, costs32, set_q, max_attempts)
        # Admissions, exhausted steps, steps that begin with the normals an
        # earlier step left and steps that draw a new block all occur.
        assert 0 < fallbacks < self.STEPS
        assert mid_block > 0 or block == 1
        assert spanning > 0

    @pytest.mark.parametrize(
        "n, m, precision, m_p, rho", [(1, 1, 10.0, 1.2, 0.3), (3, 1, 100.0, 20.0, 0.95), (2, 3, 10.0, 2.4, 0.3)]
    )
    def test_other_shapes(self, monkeypatch, n, m, precision, m_p, rho):
        # The scalar system skips the screen (m >= n), as does m > n; n - m = 2
        # takes the stacked SVD branch.
        monkeypatch.setattr("tsodlqr.controller.SAMPLE_BLOCK", 3)
        rng = np.random.default_rng(n * 10 + m)
        a = rng.standard_normal((n, n))
        theta_star = ThetaParams(0.8 * a / np.linalg.norm(a, 2), rng.standard_normal((n, m)))
        src = MultiSourceSummary((make_summary(precision * np.eye(n + m), theta_star),))
        costs = CostMatrices.identity(n, m)
        fallbacks, mid_block, spanning = self.check(theta_star, src, "tsod", costs, ConstraintSetQ(m_p, rho), 20)
        assert fallbacks < self.STEPS and spanning > 0
        assert mid_block > 0 or n <= m


class TestDrawContract:
    """numpy's generator fills an array in order, so one call of shape (k, ...)
    gives the bits, and leaves the state, of k calls of the slice shape.  The
    sampler's blocks and the offline collector's up-front noise rest on this."""

    @pytest.mark.parametrize("k, d, n", [(8, 5, 3), (3, 2, 1), (13, 4, 4)])
    def test_sampler_block(self, k, d, n):
        one, many = RngStream(11, 1), RngStream(11, 1)
        block = one.standard_normal((k, d, n))
        singles = np.stack([many.standard_normal((d, n)) for _ in range(k)])
        assert block.tobytes() == singles.tobytes()
        assert one.bit_generator.state == many.bit_generator.state

    @pytest.mark.parametrize("s_len, m, n", [(300, 2, 3), (50, 1, 1), (40, 3, 2)])
    def test_offline_noise(self, s_len, m, n):
        one, many = RngStream(12, 0), RngStream(12, 0)
        block = one.standard_normal((s_len, m + n))
        pairs = np.stack(
            [np.concatenate([many.standard_normal(m), many.standard_normal(n)]) for _ in range(s_len)]
        )
        assert block.tobytes() == pairs.tobytes()
        assert one.bit_generator.state == many.bit_generator.state


class TestUpdateBelief:
    def test_zero_regressor(self, theta_sim):
        belief = init_belief(make_summary(np.eye(5), theta_sim))
        updated = update_belief(belief, np.zeros(5), np.ones(3))
        assert np.array_equal(updated.v_matrix, belief.v_matrix)
        assert np.array_equal(updated.theta_hat.stacked, belief.theta_hat.stacked)
        assert updated.logdet_v == belief.logdet_v

    def test_single_unit_update(self):
        theta0 = ThetaParams.zeros(2, 1)
        belief = init_belief(make_summary(np.eye(3), theta0))
        x_next = np.array([1.0, -2.0])
        updated = update_belief(belief, np.array([1.0, 0.0, 0.0]), x_next)
        # Hand-solved: (I + e1 e1^T) theta = e1 x_next^T.
        assert np.allclose(updated.theta_hat.stacked[0], 0.5 * x_next, atol=1e-12)
        assert np.allclose(updated.theta_hat.stacked[1:], 0.0, atol=1e-12)
        assert updated.logdet_v == pytest.approx(belief.logdet_v + math.log(2.0), rel=1e-12)

    def test_fifty_updates_match_batch_solver(self, theta_sim):
        rng = np.random.default_rng(23)
        u0 = random_pd(5, rng)
        belief = init_belief(make_summary(u0, theta_sim))
        zs, xs = [], []
        for _ in range(50):
            z = rng.standard_normal(5)
            x_next = rng.standard_normal(3)
            zs.append(z)
            xs.append(x_next)
            belief = update_belief(belief, z, x_next)
        z_mat = np.array(zs)
        x_mat = np.array(xs)
        v = u0 + z_mat.T @ z_mat
        rhs = u0 @ theta_sim.stacked + z_mat.T @ x_mat
        oracle = np.linalg.solve(v, rhs)
        rel = np.linalg.norm(belief.theta_hat.stacked - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-8
        # Cached log-determinant stays consistent with a from-scratch evaluation.
        sign, logdet = np.linalg.slogdet(belief.v_matrix)
        assert sign > 0
        assert abs(belief.logdet_v - logdet) <= 1e-7

    def test_information_sums_match_brute_force(self, theta_sim):
        # Replays the episode bookkeeping: the incrementally accumulated
        # regressor sum must equal a from-scratch evaluation, and both sides of
        # the information inequality must hold when the prior floor does.
        rng = np.random.default_rng(41)
        s_len = 1200
        u0 = (s_len / 40.0 + 1.0) * np.eye(5)
        belief = init_belief(make_summary(u0, theta_sim, s_len=s_len))
        logdet_u = belief.logdet_u
        zs = []
        incremental = 0.0
        for _ in range(60):
            z = 0.5 * rng.standard_normal(5)
            incremental += float(z @ np.linalg.solve(belief.v_matrix, z))
            belief = update_belief(belief, z, rng.standard_normal(3))
            zs.append(z)
        # Brute force: rebuild each pre-update precision from scratch.
        brute = 0.0
        v = u0.copy()
        for z in zs:
            brute += float(z @ np.linalg.solve(v, z))
            v += np.outer(z, z)
        assert abs(brute - incremental) <= 1e-8 * max(1.0, abs(brute))
        assert belief.info_sum == incremental
        z_max = max(np.linalg.norm(z) for z in zs)
        rhs = 2.0 * max(1.0, 40.0 * z_max**2 / s_len) * (belief.logdet_v - logdet_u)
        assert incremental <= rhs
        d = 5
        polylog_rhs = d * math.log1p(40.0 * len(zs) * z_max**2 / (d * s_len))
        assert belief.logdet_v - logdet_u <= polylog_rhs

    def test_psd_ordering_and_beta_monotone(self, theta_sim):
        src = MultiSourceSummary((make_summary(np.eye(5) * 2, theta_sim, alpha=0.5),))
        belief = init_belief(src)
        rng = np.random.default_rng(5)
        prev_beta = compute_beta(belief, src, 0.01)
        prev_v = belief.v_matrix
        for _ in range(25):
            belief = update_belief(belief, rng.standard_normal(5), rng.standard_normal(3))
            assert np.linalg.eigvalsh(belief.v_matrix - prev_v).min() >= -1e-12
            beta = compute_beta(belief, src, 0.01)
            assert beta >= prev_beta
            prev_beta = beta
            prev_v = belief.v_matrix


class TestRunEpisode:
    @pytest.mark.parametrize("scale", [-1.0, math.nan])
    def test_negative_or_nan_width_scale_raises_on_entry(self, theta_star, costs32, set_q, scale):
        noise, sampler = RngStream(1, 1), RngStream(1, 2)
        starts = states(noise, sampler)
        with pytest.raises(DomainError, match="beta_mdelta_scale must be nonnegative"):
            run_episode(
                theta_star, make_summary(np.eye(5), theta_star, m_delta=0.5), costs32, set_q, 10,
                delta2_for(0.1, 10), "tsod", noise, sampler, beta_mdelta_scale=scale,
            )
        assert states(noise, sampler) == starts

    def test_zero_horizon(self, theta_star, theta_sim, costs32, set_q):
        result = run_episode(
            theta_star,
            make_summary(np.eye(5), theta_sim),
            costs32,
            set_q,
            0,
            delta2_for(0.1, 0),
            "tsod",
            RngStream(1, 1),
            RngStream(1, 2),
        )
        assert len(result.trace) == 0
        assert result.trace.final_cum_regret == 0.0

    def test_oracle_variant_near_zero_regret(self, theta_star, theta_sim, costs32, set_q):
        result = run_episode(
            theta_star,
            make_summary(np.eye(5) * 100, theta_sim),
            costs32,
            set_q,
            4000,
            delta2_for(0.1, 4000),
            "oracle",
            RngStream(2, 1),
            RngStream(2, 2),
        )
        mean_instant = result.trace.instant_regret.mean()
        assert abs(mean_instant) < 0.5
        # Cumulative regret fluctuates on the sqrt(T) scale only.
        assert abs(result.trace.final_cum_regret) < 60 * math.sqrt(4000)

    def test_trace_identities(self, theta_star, theta_sim, costs32, set_q):
        result = run_episode(
            theta_star,
            make_summary(np.eye(5) * 50, theta_sim),
            costs32,
            set_q,
            300,
            delta2_for(0.1, 300),
            "tsod",
            RngStream(3, 1),
            RngStream(3, 2),
        )
        trace = result.trace
        j = solve_dare(theta_star, costs32).avg_cost
        assert trace.j_star == j
        assert np.array_equal(trace.instant_regret, trace.cost - j)
        recomputed = np.cumsum(trace.instant_regret)
        assert np.all(
            np.abs(trace.cum_regret - recomputed)
            <= 1e-9 * np.maximum(1.0, np.abs(recomputed))
        )

    def test_multi_source_single_reduction_bit_identical(
        self, theta_star, theta_sim, costs32, set_q, offline_cfg
    ):
        summary = simulate_offline(
            theta_sim, costs32, 500, offline_cfg, 0.01, 0.15, RngStream(9, 0)
        )[0]
        res_single = run_episode(
            theta_star, summary, costs32, set_q, 200, delta2_for(0.1, 200), "tsod", RngStream(10, 1),
            RngStream(10, 2),
        )
        res_multi = run_episode(
            theta_star,
            MultiSourceSummary((summary,)),
            costs32,
            set_q,
            200,
            delta2_for(0.1, 200),
            "tsod",
            RngStream(10, 1),
            RngStream(10, 2),
        )
        for field in ("cost", "instant_regret", "cum_regret", "beta", "rejections", "state_norm"):
            assert np.array_equal(getattr(res_single.trace, field), getattr(res_multi.trace, field))
        assert np.array_equal(res_single.belief.v_matrix, res_multi.belief.v_matrix)

    def test_variant_priors(self, theta_star, theta_sim, costs32, set_q, offline_cfg):
        summary = simulate_offline(
            theta_sim, costs32, 400, offline_cfg, 0.01, 0.15, RngStream(11, 0)
        )[0]
        from tsodlqr import effective_sources

        no_off = effective_sources(summary, "ts_no_offline").summaries[0]
        assert np.array_equal(no_off.u_matrix, np.eye(5))
        assert np.all(no_off.theta_hat_sim.stacked == 0.0)
        assert no_off.alpha == 0.0 and no_off.m_delta == 0.0
        est_only = effective_sources(summary, "offline_estimate_only").summaries[0]
        assert np.array_equal(est_only.u_matrix, np.eye(5))
        assert np.array_equal(est_only.theta_hat_sim.stacked, summary.theta_hat_sim.stacked)
        assert est_only.alpha == 0.0 and est_only.m_delta == 0.0

    def test_coverage_checkpoints_recorded(self, theta_star, theta_sim, costs32, set_q, offline_cfg):
        summary = simulate_offline(
            theta_sim, costs32, 400, offline_cfg, 0.01, 0.15, RngStream(12, 0)
        )[0]
        result = run_episode(
            theta_star, summary, costs32, set_q, 100, delta2_for(0.1, 100), "tsod", RngStream(13, 1),
            RngStream(13, 2),
        )
        ts = [c.t for c in result.diagnostics.checkpoints]
        assert ts == [25, 50, 100]
        assert result.diagnostics.prior_lambda_ok

    def test_state_ceiling_names_the_step(self, theta_star, theta_sim, costs32, set_q):
        summary = make_summary(np.eye(5) * 50, theta_sim)
        args = (theta_star, summary, costs32, set_q, 100, delta2_for(0.1, 100), "tsod")
        # state_norm[t] is the norm of the state reached after step t.
        norms = run_episode(*args, RngStream(3, 1), RngStream(3, 2)).trace.state_norm
        ceiling = float(np.median(norms))
        step = int(np.argmax(norms > ceiling))
        assert step >= 1
        with pytest.raises(UnstableRollout, match=f"at step {step}$"):
            run_episode(*args, RngStream(3, 1), RngStream(3, 2), state_ceiling=ceiling)


def reference_episode(theta_star, sources, costs, set_q, horizon, delta2, variant, rng, sampler_rng, max_attempts):
    """The episode loop written out step by step, every property check updated
    inside the loop, through the public per-step functions only: the process
    noise comes from rng and the candidates from sampler_rng."""
    src_raw = as_sources(sources)
    src = effective_sources(src_raw, variant)
    star_sol = solve_dare(theta_star, costs)
    s_total = src_raw.s_total
    belief = init_belief(src)
    anchor = belief.theta_hat
    checkpoint_ts = sorted({max(1, int(round(horizon * f))) for f in CHECKPOINT_FRACTIONS})
    oracle = SampleOutcome(theta_star, star_sol.gain, 0, False) if variant == "oracle" else None
    trace = {name: [] for name in ("cost", "beta", "rejections", "state_norm")}
    checkpoints, last_accepted = [], None
    state, state_norm = np.zeros(theta_star.n), 0.0
    zt_lhs, z_max, zt_violations, fallback_steps = 0.0, 0.0, 0, 0
    true_cl_max, true_cl_violations = 0.0, 0
    for step_t in range(1, horizon + 1):
        beta_t = compute_beta(belief, src, delta2)
        outcome = oracle or sample_constrained(
            belief, beta_t, set_q, costs, sampler_rng, max_attempts, anchor=anchor, last_accepted=last_accepted
        )
        if outcome.fallback_used:
            fallback_steps += 1
        else:
            last_accepted = outcome.theta_tilde
        if step_t in checkpoint_ts:
            diff = belief.theta_hat.stacked - theta_star.stacked
            err = math.sqrt(max(float(np.trace(diff.T @ belief.v_matrix @ diff)), 0.0))
            checkpoints.append((step_t, err, beta_t, err <= beta_t))
        true_cl = float(np.linalg.norm(theta_star.a_matrix + theta_star.b_matrix @ outcome.gain, 2))
        true_cl_max = max(true_cl_max, true_cl)
        true_cl_violations += true_cl > set_q.rho
        z, next_state, cost = step_system(theta_star, state, outcome.gain @ state, costs, rng)
        z_max = max(z_max, float(np.linalg.norm(z)))
        zt_lhs += float(z @ np.linalg.solve(belief.v_matrix, z))
        belief = update_belief(belief, z, next_state)
        zt_rhs = 2.0 * max(1.0, 40.0 * z_max**2 / s_total) * (belief.logdet_v - belief.logdet_u)
        zt_violations += zt_lhs > zt_rhs * (1.0 + 1e-9) + 1e-9
        for name, value in zip(trace, (cost, beta_t, outcome.rejections, state_norm)):
            trace[name].append(value)
        state = next_state
        state_norm = float(np.linalg.norm(state))
    d = belief.dim
    polylog_lhs = belief.logdet_v - belief.logdet_u
    polylog_rhs = d * math.log1p(40.0 * horizon * z_max**2 / (d * s_total))
    diagnostics = {
        "checkpoints": checkpoints,
        "coverage_ok": all(c[3] for c in checkpoints),
        "zt_violations": zt_violations,
        "polylog_ok": polylog_lhs <= polylog_rhs * (1.0 + 1e-9) + 1e-9,
        "prior_lambda_ok": all(
            float(np.linalg.eigvalsh(s.u_matrix)[0]) - s.regularizer >= s.s_len / 40.0
            for s in src.summaries
        ),
        "fallback_steps": fallback_steps,
        "accepted_steps": horizon - fallback_steps,
        "true_closed_loop_max": true_cl_max,
        "true_closed_loop_violations": true_cl_violations,
    }
    trace = {name: np.asarray(values) for name, values in trace.items()}
    trace["t"] = np.arange(1, horizon + 1)
    trace["instant_regret"] = trace["cost"] - star_sol.avg_cost
    trace["cum_regret"] = np.cumsum(trace["instant_regret"])
    return trace, star_sol.avg_cost, belief, diagnostics


class TestReferenceReplay:
    """run_episode equals the step-by-step reference bit for bit on the tiny
    golden system (S = 250, T = 60), in every trace array and every check."""

    @staticmethod
    def bits(value):
        return value.hex() if isinstance(value, float) else value

    def test_matches_reference(self, theta_star, theta_sim, costs32, set_q, offline_cfg):
        horizon, delta, totals = 60, 0.1, {"zt_violations": 0, "fallback_steps": 0}
        for seed in (42, 7, 99):
            summary = simulate_offline(
                theta_sim, costs32, 250, offline_cfg, delta1_for(delta, 250, horizon), 0.15,
                RngStream(seed, 0),
            )[0]
            for variant in ("tsod", "ts_no_offline", "offline_estimate_only", "oracle"):
                args = (theta_star, summary, costs32, set_q, horizon, delta2_for(delta, horizon), variant)
                ref_noise, noise = RngStream(seed, 1), RngStream(seed, 1)
                trace, j_star, belief, expected = reference_episode(*args, ref_noise, RngStream(seed, 2), 20)
                result = run_episode(*args, noise, RngStream(seed, 2), max_attempts=20)
                assert noise.bit_generator.state == ref_noise.bit_generator.state
                assert result.trace.j_star == j_star
                assert np.array_equal(result.belief.v_matrix, belief.v_matrix)
                assert np.array_equal(result.belief.theta_hat.stacked, belief.theta_hat.stacked)
                assert result.belief.logdet_v == belief.logdet_v
                for name, values in trace.items():
                    assert np.array_equal(getattr(result.trace, name), values), (seed, variant, name)
                diag = result.diagnostics
                got = [(c.t, c.error, c.beta, c.ok) for c in diag.checkpoints]
                assert [tuple(map(self.bits, c)) for c in got] == [
                    tuple(map(self.bits, c)) for c in expected.pop("checkpoints")
                ], (seed, variant)
                for name, value in expected.items():
                    assert self.bits(getattr(diag, name)) == self.bits(value), (seed, variant, name)
                for name in totals:
                    totals[name] += expected[name]
        # The inequality count and the fallback ladder are both exercised.
        assert totals["zt_violations"] > 0 and totals["fallback_steps"] > 0, totals


def streams(seeds):
    """The process-noise and the sampler streams of the given seeds."""
    return [RngStream(seed, 1) for seed in seeds], [RngStream(seed, 2) for seed in seeds]


def states(*rngs):
    return [rng.bit_generator.state for rng in rngs]


class TestLockstep:
    """run_episodes steps its runs together, and each run's result is what
    the one-run batch, run_episode, gives it: the same bits in every trace
    array, check and belief, and both generators left in the same state."""

    SEEDS = (42, 7, 99, 5)

    @pytest.fixture(scope="class")
    def summaries(self, theta_sim, costs32, offline_cfg):
        return [
            simulate_offline(
                theta_sim, costs32, 250, offline_cfg, delta1_for(0.1, 250, 60), 0.15, RngStream(seed, 0)
            )[0]
            for seed in self.SEEDS
        ]

    @staticmethod
    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        return value.hex() if isinstance(value, float) else value

    @pytest.mark.parametrize("variant", ["tsod", "ts_no_offline", "offline_estimate_only", "oracle"])
    def test_one_batch_equals_batches_of_one(self, summaries, theta_star, costs32, set_q, variant):
        # Runs 1 and 3 play perturbed systems built by from_stacked, runs 0
        # and 2 the golden system built by ThetaParams(a, b): one layout.
        shift = np.array([[0.0, 0.0, 0.0]] * 3 + [[0.02, -0.01, 0.0]] * 2)
        thetas = [
            theta_star if i % 2 == 0 else ThetaParams.from_stacked(theta_star.stacked + i * shift, 3, 2)
            for i in range(len(self.SEEDS))
        ]
        args = (costs32, set_q, 60, delta2_for(0.1, 60), variant)
        batch_noise, batch_samplers = streams(self.SEEDS)
        batch = run_episodes(
            thetas, summaries, *args, batch_noise, batch_samplers, max_attempts=20
        )
        for i, seed in enumerate(self.SEEDS):
            (noise,), (sampler,) = streams([seed])
            alone = run_episode(thetas[i], summaries[i], *args, noise, sampler, max_attempts=20)
            got = batch[i]
            assert isinstance(got, EpisodeResult)
            for name in ("t", "cost", "instant_regret", "cum_regret", "beta", "rejections", "state_norm"):
                assert self.bits(getattr(got.trace, name)) == self.bits(getattr(alone.trace, name)), (i, name)
            assert got.trace.j_star == alone.trace.j_star
            for name in vars(alone.diagnostics):
                if name == "checkpoints":
                    assert [tuple(map(self.bits, vars(c).values())) for c in got.diagnostics.checkpoints] == [
                        tuple(map(self.bits, vars(c).values())) for c in alone.diagnostics.checkpoints
                    ]
                else:
                    assert self.bits(getattr(got.diagnostics, name)) == self.bits(getattr(alone.diagnostics, name))
            for name in ("v_matrix", "cross_term", "logdet_v", "info_sum", "logdet_u"):
                assert self.bits(getattr(got.belief, name)) == self.bits(getattr(alone.belief, name)), (i, name)
            assert self.bits(got.belief.theta_hat.stacked) == self.bits(alone.belief.theta_hat.stacked)
            assert states(batch_noise[i], batch_samplers[i]) == states(noise, sampler)

    def test_a_failed_run_leaves_the_others_unchanged(self, summaries, theta_star, costs32, set_q):
        args = (costs32, set_q, 60, delta2_for(0.1, 60), "tsod")
        # A ceiling between the two largest peak state norms fails one run.
        # state_norm[t] is the norm at the start of step t, so the peaks come
        # from 61-step episodes, whose first 60 steps are the 60-step ones.
        clean = run_episodes(
            [theta_star] * 4, summaries, costs32, set_q, 61, *args[3:], *streams(self.SEEDS), max_attempts=20
        )
        peaks = [float(r.trace.state_norm.max()) for r in clean]
        worst = int(np.argmax(peaks))
        ceiling = 0.5 * (peaks[worst] + max(p for i, p in enumerate(peaks) if i != worst))
        failed = run_episodes(
            [theta_star] * 4, summaries, *args, *streams(self.SEEDS), max_attempts=20, state_ceiling=ceiling
        )
        with pytest.raises(UnstableRollout) as alone:
            (noise,), (sampler,) = streams([self.SEEDS[worst]])
            run_episode(theta_star, summaries[worst], *args, noise, sampler, max_attempts=20, state_ceiling=ceiling)
        for i, result in enumerate(failed):
            if i == worst:
                assert isinstance(result, UnstableRollout) and str(result) == str(alone.value)
            else:
                assert result.trace.cost.tobytes() == clean[i].trace.cost[:60].tobytes()

    def test_set_up_and_loop_failures_in_one_batch(self, summaries, theta_star, costs32, set_q):
        # Runs 0 to 3 cannot start: theta* of the wrong dimensions, an
        # unstabilizable theta* (A = 2I, B = 0), a singular prior, and a
        # theta* and prior that agree with each other but not with the
        # costs.  Of runs 4 to 7, a ceiling between the two largest peak
        # state norms of the 61-step episodes fails one mid-episode, and the
        # others finish.
        args = (costs32, set_q, 60, delta2_for(0.1, 60))
        looped = list(zip(summaries, ["tsod", "ts_no_offline", "offline_estimate_only", "oracle"]))
        clean = run_episodes(
            [theta_star] * 4, [s for s, _ in looped], *args[:2], 61, args[3], [v for _, v in looped],
            *streams(self.SEEDS), max_attempts=20,
        )
        norms = [r.trace.state_norm for r in clean]
        peaks = [float(norm.max()) for norm in norms]
        worst = int(np.argmax(peaks))
        ceiling = 0.5 * (peaks[worst] + max(p for i, p in enumerate(peaks) if i != worst))
        assert np.argmax(norms[worst] > ceiling) < 60
        small = ThetaParams(0.5 * np.eye(2), np.ones((2, 1)))
        cases = [
            (small, summaries[0], "tsod"),
            (ThetaParams(2.0 * np.eye(3), np.zeros((3, 2))), summaries[1], "tsod"),
            (theta_star, make_summary(np.zeros((5, 5)), theta_star), "tsod"),
            (small, make_summary(np.eye(3), small), "tsod"),
        ] + [(theta_star, summary, variant) for summary, variant in looped]
        seeds = (11, 12, 13, 14) + self.SEEDS
        batch_noise, batch_samplers = streams(seeds)
        batch = run_episodes(
            [c[0] for c in cases], [c[1] for c in cases], *args, [c[2] for c in cases], batch_noise,
            batch_samplers, max_attempts=20, state_ceiling=ceiling,
        )
        expected_errors = {
            0: DimensionMismatch, 1: NonStabilizable, 2: SingularPrecision, 3: DimensionMismatch, 4 + worst: UnstableRollout
        }
        for k, (theta, summary, variant) in enumerate(cases):
            alone_rngs = [rngs[0] for rngs in streams([seeds[k]])]
            try:
                alone = run_episode(theta, summary, *args, variant, *alone_rngs, max_attempts=20, state_ceiling=ceiling)
            except TsodLqrError as exc:
                alone = exc
            if k in expected_errors:
                assert type(batch[k]) is type(alone) is expected_errors[k], k
                assert str(batch[k]) == str(alone), k
                assert states(batch_noise[k], batch_samplers[k]) == states(*alone_rngs), k
            else:
                assert_same_run(batch[k], alone, (batch_noise[k], batch_samplers[k]), alone_rngs)

    def test_batch_sampler_admits_only_scipy_admissible_candidates(
        self, summaries, theta_star, costs32, set_q, monkeypatch
    ):
        # Six runs on the wide no-offline prior; every candidate the batch
        # sampler admits without the fallback ladder is judged by scipy's DARE
        # solution and gain.
        admitted = []
        real_solve = controller.solve_and_bound

        def record(stacked, *args):
            verdict, sols = real_solve(stacked, *args)
            admitted.extend(zip(stacked[verdict].copy(), sols.gain[verdict].copy()))
            return verdict, sols

        monkeypatch.setattr(controller, "solve_and_bound", record)
        results = run_episodes(
            [theta_star] * 6, summaries[:1] * 6, costs32, set_q, 60, delta2_for(0.1, 60), "ts_no_offline",
            *streams(range(6)),
        )
        assert all(isinstance(r, EpisodeResult) for r in results)
        assert len(admitted) > 150
        q, r = costs32.q_matrix, costs32.r_matrix
        for theta, gain in admitted:
            a, b = theta[:3].T, theta[3:].T
            p = scipy.linalg.solve_discrete_are(a, b, q, r)
            k = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
            assert np.trace(p) <= set_q.m_p * (1.0 + 1e-8)
            assert np.linalg.norm(a + b @ k, 2) <= set_q.rho + 1e-8
            assert np.linalg.norm(gain - k) <= 1e-6 * max(1.0, float(np.linalg.norm(k)))


class TestMixedLockstep:
    """A batch may mix variants and priors of several S; each run still gets
    what the batch of its own (variant, S) cell gives it."""

    SEEDS = (42, 7, 99)

    @pytest.fixture(scope="class")
    def priors(self, theta_sim, costs32, offline_cfg):
        return {
            (s_len, seed): simulate_offline(
                theta_sim, costs32, s_len, offline_cfg, delta1_for(0.1, s_len, 60), 0.15, RngStream(seed, 0)
            )[0]
            for s_len in (150, 250)
            for seed in self.SEEDS
        }

    def test_mixed_batch_equals_its_cells(self, priors, theta_star, costs32, set_q):
        cells = [
            (variant, s_len)
            for variant in ("tsod", "ts_no_offline", "offline_estimate_only", "oracle")
            for s_len in (150, 250)
        ]
        runs = [(variant, s_len, seed) for variant, s_len in cells for seed in self.SEEDS]
        args = (costs32, set_q, 60, delta2_for(0.1, 60))
        batch_noise, batch_samplers = streams([seed for _, _, seed in runs])
        batch = run_episodes(
            [theta_star] * len(runs), [priors[(s_len, seed)] for _, s_len, seed in runs], *args,
            [variant for variant, _, _ in runs], batch_noise, batch_samplers, max_attempts=20,
        )
        bits = TestLockstep.bits
        for variant, s_len in cells:
            cell_noise, cell_samplers = streams(self.SEEDS)
            alone = run_episodes(
                [theta_star] * len(self.SEEDS), [priors[(s_len, seed)] for seed in self.SEEDS], *args, variant,
                cell_noise, cell_samplers, max_attempts=20,
            )
            for seed, expected, noise, sampler in zip(self.SEEDS, alone, cell_noise, cell_samplers):
                k = runs.index((variant, s_len, seed))
                got = batch[k]
                for name in ("t", "cost", "instant_regret", "cum_regret", "beta", "rejections", "state_norm"):
                    assert bits(getattr(got.trace, name)) == bits(getattr(expected.trace, name)), (k, name)
                assert got.trace.j_star == expected.trace.j_star
                assert [tuple(map(bits, vars(c).values())) for c in got.diagnostics.checkpoints] == [
                    tuple(map(bits, vars(c).values())) for c in expected.diagnostics.checkpoints
                ]
                for name in vars(expected.diagnostics):
                    if name != "checkpoints":
                        assert bits(getattr(got.diagnostics, name)) == bits(getattr(expected.diagnostics, name))
                for name in ("v_matrix", "cross_term", "logdet_v", "info_sum", "logdet_u"):
                    assert bits(getattr(got.belief, name)) == bits(getattr(expected.belief, name)), (k, name)
                assert states(batch_noise[k], batch_samplers[k]) == states(noise, sampler), k
        # The oracle draws only its process noise; the learners also sample.
        oracle = runs.index(("oracle", 150, 42))
        assert batch[oracle].trace.rejections.sum() == 0
        assert batch[runs.index(("ts_no_offline", 150, 42))].trace.rejections.sum() > 0


def assert_same_run(got, alone, got_rngs, alone_rngs):
    """got and alone agree bit for bit in every trace array, check and belief
    field, and left their generators in the same states."""
    bits = TestLockstep.bits
    for name in ("t", "cost", "instant_regret", "cum_regret", "beta", "rejections", "state_norm"):
        assert bits(getattr(got.trace, name)) == bits(getattr(alone.trace, name)), name
    assert got.trace.j_star == alone.trace.j_star
    assert [tuple(map(bits, vars(c).values())) for c in got.diagnostics.checkpoints] == [
        tuple(map(bits, vars(c).values())) for c in alone.diagnostics.checkpoints
    ]
    for name in vars(alone.diagnostics):
        if name != "checkpoints":
            assert bits(getattr(got.diagnostics, name)) == bits(getattr(alone.diagnostics, name)), name
    for name in ("v_matrix", "cross_term", "logdet_v", "info_sum", "logdet_u"):
        assert bits(getattr(got.belief, name)) == bits(getattr(alone.belief, name)), name
    assert bits(got.belief.theta_hat.stacked) == bits(alone.belief.theta_hat.stacked)
    assert states(*got_rngs) == states(*alone_rngs)


class TestSamplerRounds:
    """run_episodes moves in global rounds: each run keeps its own step, and
    each sampling run sends at most one candidate per round to the solve."""

    def test_one_solve_per_sampling_run_per_round(self, monkeypatch):
        # A scalar batch skips the screen (m = n), so every candidate drawn
        # passes it, and the candidates tested up to each step's admission
        # are exactly those the sampler must solve.
        theta = ThetaParams(np.array([[0.8]]), np.array([[1.0]]))
        variants = ["tsod", "ts_no_offline", "tsod", "oracle", "tsod", "ts_no_offline"]
        sources = [make_summary(precision * np.eye(2), theta) for precision in (1, 3, 10, 30, 100, 300)]
        max_attempts, rows, calls = 6, [], []
        real_round, real_solve = controller._sample_round, controller.solve_and_bound

        def sample_round(runs, sampling, *args):
            rows.append(len(sampling))
            return real_round(runs, sampling, *args)

        def solve(stacked, *args):
            calls.append((len(rows), len(stacked)))
            return real_solve(stacked, *args)

        monkeypatch.setattr(controller, "_sample_round", sample_round)
        monkeypatch.setattr(controller, "solve_and_bound", solve)
        results = run_episodes(
            [theta] * 6, sources, CostMatrices.identity(1, 1), ConstraintSetQ(1.5, 0.3), 40, delta2_for(0.1, 40),
            variants, *streams(range(6)), max_attempts=max_attempts,
        )
        assert all(isinstance(r, EpisodeResult) for r in results)
        # At most one solve per round, holding at most one slice per sampling run.
        rounds = [r for r, _ in calls]
        assert len(set(rounds)) == len(rounds)
        assert all(size <= rows[r - 1] <= 5 for r, size in calls)
        tested = sum(
            int(np.minimum(r.trace.rejections + 1, max_attempts).sum())
            for r, variant in zip(results, variants) if variant != "oracle"
        )
        assert sum(size for _, size in calls) == tested
        # Rejections and the ladder both occur, so the runs' steps fall apart.
        assert sum(r.diagnostics.fallback_steps for r in results) > 0
        assert len(rows) > 40

    @pytest.mark.parametrize("n, m, m_p, rho", [(1, 1, 1.5, 0.1), (2, 3, 2.4, 0.3)])
    def test_one_candidate_blocks_when_the_screen_cannot_reject(self, monkeypatch, n, m, m_p, rho):
        # When m >= n the screen passes every draw, so each run draws one
        # candidate per round whatever SAMPLE_BLOCK is: every candidate drawn
        # is screened once and solved once, and none is left to a later step.
        monkeypatch.setattr("tsodlqr.controller.SAMPLE_BLOCK", 8)
        rng = np.random.default_rng(n * 10 + m)
        a = rng.standard_normal((n, n))
        theta = ThetaParams(0.8 * a / np.linalg.norm(a, 2), rng.standard_normal((n, m)))
        variants = ["tsod", "ts_no_offline", "oracle", "tsod", "ts_no_offline"]
        sources = [make_summary(precision * np.eye(n + m), theta) for precision in (1, 3, 10, 30, 100)]
        horizon, max_attempts, screened, solved = 40, 6, [], []
        args = (CostMatrices.identity(n, m), ConstraintSetQ(m_p, rho), horizon, delta2_for(0.1, horizon))
        real_screen, real_solve = controller._screen, controller.solve_and_bound

        def screen(stacked, *rest):
            screened.append(len(stacked))
            return real_screen(stacked, *rest)

        def solve(stacked, *rest):
            solved.append(len(stacked))
            return real_solve(stacked, *rest)

        monkeypatch.setattr(controller, "_screen", screen)
        monkeypatch.setattr(controller, "solve_and_bound", solve)
        seeds = list(range(len(variants)))
        batch_noise, batch_samplers = streams(seeds)
        batch = run_episodes([theta] * len(variants), sources, *args, variants, batch_noise, batch_samplers,
                             max_attempts=max_attempts)
        tested = [
            int(np.minimum(r.trace.rejections + 1, max_attempts).sum()) if variant != "oracle" else 0
            for r, variant in zip(batch, variants)
        ]
        assert sum(screened) == sum(solved) == sum(tested)
        for k, (variant, seed) in enumerate(zip(variants, seeds)):
            alone_rngs = [rngs[0] for rngs in streams([seed])]
            alone = run_episode(theta, sources[k], *args, variant, *alone_rngs, max_attempts=max_attempts)
            assert_same_run(batch[k], alone, (batch_noise[k], batch_samplers[k]), alone_rngs)
            # The sampler stream has drawn the normals of the tested
            # candidates and no others, the noise stream those of the steps.
            noise, sampler = (rngs[0] for rngs in streams([seed]))
            noise.standard_normal(horizon * n)
            sampler.standard_normal(tested[k] * (n + m) * n)
            assert states(batch_noise[k], batch_samplers[k]) == states(noise, sampler), k
        # Steps that reject some candidates, and steps that fall back, occur.
        rejections = np.concatenate([r.trace.rejections for r in batch])
        assert (0 < rejections).any() and (rejections == max_attempts).any()

    @pytest.mark.parametrize("variants", [["oracle", "oracle"], ["oracle", "tsod"]])
    def test_max_attempts_below_one_raises_on_entry(self, theta_star, costs32, set_q, variants):
        # A batch of oracles never samples, and still rejects the budget.
        noise, samplers = streams(range(2))
        starts = states(*noise, *samplers)
        with pytest.raises(ValueError, match="max_attempts"):
            run_episodes(
                [theta_star] * 2, [make_summary(np.eye(5), theta_star)] * 2, costs32, set_q, 10,
                delta2_for(0.1, 10), variants, noise, samplers, max_attempts=0,
            )
        assert states(*noise, *samplers) == starts

    def test_ladder_takes_the_last_accepted_sample_without_a_solve(
        self, theta_sim, theta_star, costs32, set_q, offline_cfg, monkeypatch
    ):
        # Once every run holds a last accepted sample, the screen rejects
        # every draw, so each later step falls back.  The ladder's first rung,
        # the last accepted sample, comes with its gain, so no rung is solved.
        summary = simulate_offline(
            theta_sim, costs32, 250, offline_cfg, delta1_for(0.1, 250, 30), 0.15, RngStream(42, 0)
        )[0]
        closed, solved_after = [False], []
        real_round, real_screen, real_ladder = controller._sample_round, controller._screen, controller.admitted_stack

        def sample_round(runs, rows, *args):
            closed[0] = closed[0] or bool(runs.has_last.all())
            return real_round(runs, rows, *args)

        def screen(stacked, rho):
            return np.zeros(len(stacked), dtype=bool) if closed[0] else real_screen(stacked, rho)

        def ladder(stacked, *args):
            if closed[0]:
                solved_after.append(stacked)
            return real_ladder(stacked, *args)

        monkeypatch.setattr(controller, "_sample_round", sample_round)
        monkeypatch.setattr(controller, "_screen", screen)
        monkeypatch.setattr(controller, "admitted_stack", ladder)
        results = run_episodes(
            [theta_star] * 3, [summary] * 3, costs32, set_q, 30, delta2_for(0.1, 30), "tsod",
            *streams(range(3)), max_attempts=5,
        )
        assert all(isinstance(r, EpisodeResult) for r in results)
        assert closed[0] and solved_after == []
        assert all(r.diagnostics.fallback_steps > 20 for r in results)

    def test_one_stacked_ladder_call_serves_every_fallback_of_a_round(
        self, theta_sim, theta_star, costs32, set_q, offline_cfg, monkeypatch
    ):
        # In the batch's second round run 1 falls back to its last accepted
        # sample, runs 2 to 5 climb their ladders, and run 0, whose rungs the
        # spy rejects, exhausts its ladder; the others finish.  A run that
        # climbs takes the first rung that q_membership admits, and each run
        # equals itself alone.
        priors = {
            seed: simulate_offline(
                theta_sim, costs32, 250, offline_cfg, delta1_for(0.1, 250, 30), 0.15, RngStream(seed, 0)
            )[0]
            for seed in (42, 7)
        }
        doomed = make_summary(100.0 * np.eye(5), ThetaParams(0.3 * theta_star.a_matrix, theta_star.b_matrix))
        cases = [("tsod", doomed), ("tsod", priors[42]), ("ts_no_offline", priors[42]), ("tsod", priors[7]),
                 ("ts_no_offline", priors[7]), ("offline_estimate_only", priors[42])]
        seeds = (11, 12, 13, 14, 15, 16)
        real_ladder, real_round = controller.admitted_stack, controller._sample_round
        rounds = []

        def ladder(stacked, *args):
            # Every run here has an anchor, so each ladder is nine rungs, the
            # fifth of which is the anchor itself.
            admitted, sols = real_ladder(stacked, *args)
            for k, rungs in enumerate(stacked.reshape(-1, 9, 5, 3)):
                if np.array_equal(rungs[4], doomed.theta_hat_sim.stacked):
                    admitted[9 * k : 9 * k + 9] = False
            return admitted, sols

        def sample_round(runs, rows, *args):
            had_last = runs.has_last.copy()
            done, errors = real_round(runs, rows, *args)
            fell = [int(j) for j in done if runs.fallback[j]]
            for j in fell:
                if had_last[j]:
                    theta, gain = runs.last_accepted[j], runs.last_gain[j]
                else:
                    hat = ThetaParams.from_stacked(runs.theta_hat[j], 3, 2)
                    anchor = ThetaParams.from_stacked(runs.anchor[j], 3, 2)
                    theta, sol = next(
                        (rung.stacked, sol) for rung in reference_ladder(hat, anchor, None)
                        if (sol := q_membership(rung, costs32, set_q)) is not None
                    )
                    gain = sol.gain
                assert runs.theta_tilde[j].tobytes() == theta.tobytes(), j
                assert runs.gain[j].tobytes() == gain.tobytes(), j
            rounds.append(([j for j in fell if had_last[j]], [j for j in fell if not had_last[j]], sorted(errors)))
            return done, errors

        monkeypatch.setattr(controller, "admitted_stack", ladder)
        monkeypatch.setattr(controller, "_sample_round", sample_round)
        args = (costs32, set_q, 30, delta2_for(0.1, 30))
        batch_noise, batch_samplers = streams(seeds)
        batch = run_episodes(
            [theta_star] * len(cases), [prior for _, prior in cases], *args, [variant for variant, _ in cases],
            batch_noise, batch_samplers, max_attempts=5,
        )
        assert rounds[1] == ([1], [2, 3, 4, 5], [0])
        for k, (variant, prior) in enumerate(cases):
            alone_rngs = [rngs[0] for rngs in streams([seeds[k]])]
            try:
                alone = run_episode(theta_star, prior, *args, variant, *alone_rngs, max_attempts=5)
            except TsodLqrError as exc:
                alone = exc
            if k == 0:
                assert type(batch[k]) is type(alone) is NonStabilizable
                assert str(batch[k]) == str(alone) == "no admissible fallback parameter found"
                assert states(batch_noise[k], batch_samplers[k]) == states(*alone_rngs)
            else:
                assert_same_run(batch[k], alone, (batch_noise[k], batch_samplers[k]), alone_rngs)

    def test_uneven_rounds_equal_each_run_alone(self, theta_star, theta_sim, costs32, offline_cfg):
        # Under a tight set_q the no-offline runs reach the fallback ladder at
        # most steps, while the tsod run on the long offline trajectory is
        # often admitted at once and the oracle never samples.
        set_q = ConstraintSetQ(10.0, 0.8)
        priors = {
            s_len: simulate_offline(
                theta_sim, costs32, s_len, offline_cfg, delta1_for(0.1, s_len, 60), 0.15, RngStream(s_len, 0)
            )[0]
            for s_len in (250, 20000)
        }
        runs = [("oracle", 250, 42), ("tsod", 20000, 7), ("ts_no_offline", 250, 99), ("tsod", 250, 5),
                ("offline_estimate_only", 20000, 3), ("oracle", 20000, 1)]
        args = (costs32, set_q, 60, delta2_for(0.1, 60))
        batch_noise, batch_samplers = streams([seed for _, _, seed in runs])
        batch = run_episodes(
            [theta_star] * len(runs), [priors[s_len] for _, s_len, _ in runs], *args,
            [variant for variant, _, _ in runs], batch_noise, batch_samplers, max_attempts=20,
        )
        for k, (variant, s_len, seed) in enumerate(runs):
            alone_rngs = [rngs[0] for rngs in streams([seed])]
            alone = run_episode(theta_star, priors[s_len], *args, variant, *alone_rngs, max_attempts=20)
            assert_same_run(batch[k], alone, (batch_noise[k], batch_samplers[k]), alone_rngs)
        fallbacks = [r.diagnostics.fallback_steps for r in batch]
        at_once = [int(np.count_nonzero(r.trace.rejections == 0)) for r in batch]
        assert fallbacks[2] > 40 and fallbacks[1] == 0 and at_once[1] > 20

    def test_several_rounds_in_one_step_match_the_reference(self, theta_sim, costs32, set_q, offline_cfg,
                                                           monkeypatch):
        # Of the candidates that pass the screen on this short trajectory's
        # prior, many fail the solve, so a step often takes several rounds:
        # one per candidate solved.
        summary = simulate_offline(
            theta_sim, costs32, 250, offline_cfg, delta1_for(0.1, 250, 60), 0.15, RngStream(42, 0)
        )[0]
        belief = init_belief(summary)
        beta = compute_beta(belief, as_sources(summary), delta2_for(0.1, 60))
        rounds = []
        real_round = controller._sample_round

        def sample_round(*args):
            rounds[-1] += 1
            return real_round(*args)

        monkeypatch.setattr(controller, "_sample_round", sample_round)
        for seed in range(20):
            got_rng, ref_rng = RngStream(seed, 1), RngStream(seed, 1)
            rounds.append(0)
            got = sample_constrained(belief, beta, set_q, costs32, got_rng, 100, anchor=belief.theta_hat)
            ref = reference_sampler(belief, beta, set_q, costs32, ref_rng, 100, belief.theta_hat, None)
            assert got.theta_tilde.stacked.tobytes() == ref.theta_tilde.stacked.tobytes()
            assert got.gain.tobytes() == ref.gain.tobytes()
            assert (got.rejections, got.fallback_used) == (ref.rejections, ref.fallback_used)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert max(rounds) >= 3
