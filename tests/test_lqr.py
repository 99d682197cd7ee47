import math
import pickle
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsodlqr import (
    ConstraintSetP,
    ConstraintSetQ,
    CostMatrices,
    DimensionMismatch,
    NonStabilizable,
    ThetaParams,
    closed_loop_norm,
    riccati_map,
    solve_dare,
)
import tsodlqr.lqr as lqr
from tsodlqr.lqr import (
    DIVERGED,
    SCREEN_MARGIN,
    STALLED,
    admitted_stack,
    closed_loop_floors,
    closed_loop_norms,
    failure_text,
    p_membership,
    q_membership,
    solve_dare_stack,
)


def scalar_p_root(a, b, q, r):
    # Eliminating the gain from the scalar fixed point leaves a quadratic in p.
    c1 = b * b * q + r * (a * a - 1.0)
    return (c1 + math.sqrt(c1 * c1 + 4.0 * b * b * q * r)) / (2.0 * b * b)


class TestSolveDare:
    def test_zero_a_identity_b(self):
        sol = solve_dare(ThetaParams(np.zeros((3, 3)), np.eye(3)), CostMatrices.identity(3, 3))
        assert np.allclose(sol.p_matrix, np.eye(3), atol=1e-12)
        assert np.allclose(sol.gain, 0.0, atol=1e-12)
        assert sol.avg_cost == pytest.approx(3.0, abs=1e-12)

    def test_scalar_closed_form(self):
        a, b, q, r = 0.5, 1.0, 1.0, 1.0
        sol = solve_dare(ThetaParams([[a]], [[b]]), CostMatrices([[q]], [[r]]))
        p = scalar_p_root(a, b, q, r)
        assert p == pytest.approx((0.25 + math.sqrt(4.0625)) / 2.0, abs=1e-12)
        assert sol.p_matrix[0, 0] == pytest.approx(p, abs=1e-9)
        k = -p * a * b / (r + b * b * p)
        assert sol.gain[0, 0] == pytest.approx(k, abs=1e-9)
        assert sol.gain[0, 0] == pytest.approx(-0.265565, abs=1e-6)

    def test_section_v_system_against_long_oracle(self, theta_star, costs32):
        sol = solve_dare(theta_star, costs32)
        residual = np.linalg.norm(riccati_map(sol.p_matrix, theta_star, costs32) - sol.p_matrix)
        assert residual <= 1e-10
        # Oracle: the same map iterated far past the solver's stopping point.
        p = costs32.q_matrix.copy()
        for _ in range(100_000):
            p_next = riccati_map(p, theta_star, costs32)
            if np.linalg.norm(p_next - p) <= 1e-15:
                p = p_next
                break
            p = p_next
        assert np.linalg.norm(sol.p_matrix - p) <= 1e-9
        assert sol.avg_cost == pytest.approx(np.trace(p), abs=1e-9)
        assert sol.avg_cost == np.trace(sol.p_matrix)

    def test_divergence_raises(self):
        with pytest.raises(NonStabilizable):
            solve_dare(ThetaParams([[2.0]], [[0.0]]), CostMatrices([[1.0]], [[1.0]]))

    def test_unstabilizable_marginal_system_fails_fast(self):
        # A = 1 with no input: the value iterates grow by one per step and
        # would never reach the ceiling; the doubling iterates double instead.
        with pytest.raises(NonStabilizable, match="diverged"):
            solve_dare(ThetaParams([[1.0]], [[0.0]]), CostMatrices([[1.0]], [[1.0]]))

    def test_gain_consistency(self, theta_star, costs32):
        sol = solve_dare(theta_star, costs32)
        a, b = theta_star.a_matrix, theta_star.b_matrix
        k = -np.linalg.solve(costs32.r_matrix + b.T @ sol.p_matrix @ b, b.T @ sol.p_matrix @ a)
        assert np.linalg.norm(sol.gain - k) <= 1e-10

    def test_scalar_gain_monotone_in_r(self):
        a, b, q = 0.7, 1.3, 1.0
        gains = []
        for r in np.linspace(0.1, 8.0, 20):
            sol = solve_dare(ThetaParams([[a]], [[b]]), CostMatrices([[q]], [[r]]))
            p = scalar_p_root(a, b, q, r)
            assert sol.p_matrix[0, 0] == pytest.approx(p, rel=1e-8)
            gains.append(abs(sol.gain[0, 0]))
        assert all(g1 > g2 for g1, g2 in zip(gains, gains[1:]))


def doubling_steps(stacked, costs, monkeypatch):
    """The number of doubling steps the slice takes: the smallest step limit
    under which it does not stall."""
    for limit in range(1, 40):
        monkeypatch.setattr(lqr, "DEFAULT_MAX_ITERS", limit)
        if solve_dare_stack(stacked[None], costs).failure[0] != STALLED:
            return limit
    raise AssertionError("no step limit below 40 suffices")


class TestSolveDareStack:
    LIMIT = 12

    @staticmethod
    def stack():
        """Seven (n, m) = (2, 1) systems: five that converge after 2 to 12
        doubling steps, one that needs 17 and so stalls at LIMIT, and one
        unstable and uncontrollable system that diverges."""
        slices = []
        for rho, b in ((0.0, 1.0), (0.3, 1.0), (0.9, 1.0), (0.99, 1e-3), (0.9999, 1e-3), (2.0, 0.0), (0.6, 1e-3)):
            a = np.array([[rho, 0.2], [0.0, 0.5 * rho]]) if rho < 2.0 else 2.0 * np.eye(2)
            slices.append(np.vstack([a.T, [[0.0, b]]]))
        return np.array(slices)

    def test_each_slice_is_its_own_solve(self, monkeypatch):
        costs = CostMatrices.identity(2, 1)
        stacked = self.stack()
        steps = [doubling_steps(s, costs, monkeypatch) for s in np.delete(stacked, 5, axis=0)]
        assert len(set(steps)) == 6 and max(steps) > self.LIMIT
        monkeypatch.setattr(lqr, "DEFAULT_MAX_ITERS", self.LIMIT)
        sols = solve_dare_stack(stacked, costs)
        assert sols.failure.tolist() == [0, 0, 0, 0, STALLED, DIVERGED, 0]
        for i, slice_ in enumerate(stacked):
            theta = ThetaParams.from_stacked(slice_, 2, 1)
            if sols.failure[i]:
                assert np.isnan(sols.p_matrix[i]).all() and np.isnan(sols.gain[i]).all()
                with pytest.raises(NonStabilizable) as raised:
                    solve_dare(theta, costs)
                assert str(raised.value) == failure_text(sols.failure[i])
                continue
            alone = solve_dare(theta, costs)
            assert sols.p_matrix[i].tobytes() == alone.p_matrix.tobytes()
            assert sols.gain[i].tobytes() == alone.gain.tobytes()
            assert float(sols.avg_cost[i]) == alone.avg_cost
        assert failure_text(STALLED) == f"riccati iteration did not converge within {self.LIMIT} steps"
        assert failure_text(DIVERGED) == "riccati iteration diverged"

    def test_closed_loop_norms_are_the_one_slice_norms(self, theta_star, costs32):
        rng = np.random.default_rng(3)
        stacked = theta_star.stacked + 0.1 * rng.standard_normal((9, 5, 3))
        gains = rng.standard_normal((9, 2, 3))
        norms = closed_loop_norms(stacked, gains)
        for i in range(9):
            theta = ThetaParams.from_stacked(stacked[i], 3, 2)
            assert norms[i] == closed_loop_norm(theta, gains[i])


class TestClosedLoopNorm:
    def test_zero(self):
        theta = ThetaParams(np.zeros((2, 2)), np.eye(2))
        assert closed_loop_norm(theta, np.zeros((2, 2))) == 0.0

    def test_exact_cancellation(self):
        theta = ThetaParams(0.5 * np.eye(2), np.eye(2))
        assert closed_loop_norm(theta, -0.5 * np.eye(2)) == pytest.approx(0.0, abs=1e-15)

    def test_section_v_against_power_iteration(self, theta_star, costs32):
        gain = solve_dare(theta_star, costs32).gain
        norm = closed_loop_norm(theta_star, gain)
        assert norm < 1.0
        m = theta_star.a_matrix + theta_star.b_matrix @ gain
        g = m.T @ m
        v = np.ones(3) / np.sqrt(3)
        for _ in range(10_000):
            v = g @ v
            v /= np.linalg.norm(v)
        assert norm == pytest.approx(math.sqrt(v @ g @ v), rel=1e-10)

    def test_dimension_mismatch(self, theta_star):
        with pytest.raises(DimensionMismatch):
            closed_loop_norm(theta_star, np.zeros((3, 3)))


class TestMembership:
    @pytest.mark.parametrize("bound", [0.0, -1.0, math.nan])
    def test_trace_bounds_must_be_positive(self, bound):
        # The trace test admits trace(P) <= bound, which no nan bound would.
        with pytest.raises(ValueError, match="m_p must be positive"):
            ConstraintSetQ(bound, 0.99)
        with pytest.raises(ValueError, match="m_sim must be positive"):
            ConstraintSetP(bound, 5.0, 0.99)

    def test_trivial_true(self):
        theta = ThetaParams(np.zeros((3, 3)), np.eye(3))
        assert q_membership(theta, CostMatrices.identity(3, 3), ConstraintSetQ(10.0, 0.99)) is not None

    def test_unstable_uncontrollable_false(self):
        theta = ThetaParams([[2.0]], [[0.0]])
        costs = CostMatrices([[1.0]], [[1.0]])
        for m_p in (1.0, 50.0, 1e6):
            assert q_membership(theta, costs, ConstraintSetQ(m_p, 0.99)) is None

    def test_section_v_true_with_oracle(self, theta_star, costs32, set_q):
        assert q_membership(theta_star, costs32, set_q) is not None
        a, b = theta_star.a_matrix, theta_star.b_matrix
        p = scipy.linalg.solve_discrete_are(a, b, costs32.q_matrix, costs32.r_matrix)
        gain = -np.linalg.solve(costs32.r_matrix + b.T @ p @ b, b.T @ p @ a)
        assert np.trace(p) <= set_q.m_p
        assert closed_loop_norm(theta_star, gain) <= set_q.rho

    def test_trace_bound_excludes(self, theta_star, costs32):
        assert q_membership(theta_star, costs32, ConstraintSetQ(1.0, 0.99)) is None

    def test_set_p_examples(self, theta_sim, costs32, set_p):
        theta = ThetaParams(np.zeros((3, 3)), np.eye(3))
        c33 = CostMatrices.identity(3, 3)
        assert p_membership(theta, c33, ConstraintSetP(10.0, 10.0, 0.99)) is not None
        assert p_membership(theta, c33, ConstraintSetP(10.0, 1.0, 0.99)) is None  # ||theta||_F = sqrt(3)
        assert p_membership(theta_sim, costs32, set_p) is not None

    def test_membership_implies_geometric_decay(self, theta_star, costs32, set_q):
        sol = solve_dare(theta_star, costs32)
        m = theta_star.a_matrix + theta_star.b_matrix @ sol.gain
        x = np.array([1.0, -2.0, 0.5])
        x0_norm = np.linalg.norm(x)
        for step in range(1, 51):
            x = m @ x
            assert np.linalg.norm(x) <= set_q.rho**step * x0_norm + 1e-12


def unscreened_membership(theta, costs, trace_bound, rho):
    """The membership test without the closed-loop floor: the Riccati solve,
    then the trace and closed-loop norm tests."""
    try:
        sol = solve_dare(theta, costs)
    except NonStabilizable:
        return None
    if sol.avg_cost > trace_bound or closed_loop_norm(theta, sol.gain) > rho:
        return None
    return sol


def random_theta(rng, n, m, rank, scale):
    """A scaled to spectral norm `scale`; B of the given rank (rank 0 is B = 0)."""
    a = rng.standard_normal((n, n))
    a *= scale / np.linalg.norm(a, 2)
    b = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    return ThetaParams(a, b)


def same_solution(got, ref):
    if ref is None:
        return got is None
    return (
        got is not None
        and np.array_equal(got.p_matrix, ref.p_matrix)
        and np.array_equal(got.gain, ref.gain)
        and got.avg_cost == ref.avg_cost
    )


class TestClosedLoopFloor:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 5),
        rank_drop=st.integers(0, 2),
        scale=st.floats(0.05, 3.0),
        m_p=st.floats(2.0, 200.0),
        rho=st.floats(0.2, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    # B with cond(B) = 1.5e5: -B^+ A attains the floor only to within 1.6e-11.
    @example(n=4, m=4, rank_drop=0, scale=1.0, m_p=50.0, rho=0.99, seed=812)
    def test_screen_keeps_every_decision_and_bit(self, n, m, rank_drop, scale, m_p, rho, seed):
        rng = np.random.default_rng(seed)
        rank = max(0, min(n, m) - rank_drop)
        theta = random_theta(rng, n, m, rank, scale)
        costs = CostMatrices.identity(n, m)
        ref = unscreened_membership(theta, costs, m_p, rho)
        assert same_solution(q_membership(theta, costs, ConstraintSetQ(m_p, rho)), ref)
        set_p = ConstraintSetP(m_sim=m_p, phi=1e3, rho_sim=rho)
        assert same_solution(p_membership(theta, costs, set_p), ref)

        floor = closed_loop_floors(theta.stacked[None])[0]
        if m >= n:
            assert floor == 0.0
        gains = [rng.standard_normal((m, n)) * g for g in (0.1, 1.0, 10.0)]
        gains.append(-np.linalg.pinv(theta.b_matrix) @ theta.a_matrix)
        if ref is not None:
            gains.append(ref.gain)
        slacks = [1e-12 * (1.0 + np.linalg.norm(theta.b_matrix, 2) * np.linalg.norm(g, 2)) for g in gains]
        for gain, slack in zip(gains, slacks):
            assert closed_loop_norm(theta, gain) >= floor * (1.0 - 1e-12) - slack
        if rank == min(n, m):
            # With B of full rank, K = -B^+ A attains the floor, up to a
            # rounding error of order eps cond(B) ||A||.
            assert closed_loop_norm(theta, gains[3]) == pytest.approx(floor, rel=1e-9, abs=slacks[3])

    def test_sampler_like_candidates(self, theta_star, costs32, set_q):
        # Perturbations of the Section V system, as the sampler draws them:
        # the screen fires on many, some are admitted, and every decision and
        # admitted solution matches the unscreened test.
        rng = np.random.default_rng(7)
        screened = admitted = 0
        for _ in range(300):
            delta = ThetaParams(*(0.4 * rng.standard_normal(s) for s in ((3, 3), (3, 2))))
            theta = ThetaParams.from_stacked(theta_star.stacked + delta.stacked, 3, 2)
            ref = unscreened_membership(theta, costs32, set_q.m_p, set_q.rho)
            assert same_solution(q_membership(theta, costs32, set_q), ref)
            screened += closed_loop_floors(theta.stacked[None])[0] > set_q.rho * (1.0 + 1e-9)
            admitted += ref is not None
        assert screened >= 30 and admitted >= 30

    def test_screened_theta_skips_the_solve(self, monkeypatch):
        theta = ThetaParams(2.0 * np.eye(3), np.eye(3)[:, :2])
        assert closed_loop_floors(theta.stacked[None])[0] == 2.0
        monkeypatch.setattr("tsodlqr.lqr.solve_dare", lambda *args, **kwargs: pytest.fail("solved"))
        assert q_membership(theta, CostMatrices.identity(3, 2), ConstraintSetQ(50.0, 0.99)) is None


def reference_admissible(theta, costs, trace_bound, rho):
    """The one-slice admissibility arithmetic that admitted_stack replaced:
    the closed-loop screen, then the Riccati solve and the trace and
    closed-loop norm tests."""
    if closed_loop_floors(theta.stacked[None])[0] > rho * SCREEN_MARGIN:
        return None
    return unscreened_membership(theta, costs, trace_bound, rho)


class TestAdmittedStack:
    """admitted_stack against the one-slice reference, verdict and bits, for
    theta built by ThetaParams(a, b) and by from_stacked, which both hold it
    row-major.  (1, 1) and (2, 3) skip the screen (m >= n); (3, 1) and
    (2, 1) have m = 1."""

    SHAPES = [(1, 1), (3, 1), (2, 1), (2, 3), (3, 2), (4, 2)]
    BOUNDS = [(50.0, 0.99), (4.0, 0.8)]

    @staticmethod
    def thetas(n, m, count):
        rng = np.random.default_rng(100 * n + m)
        for _ in range(count):
            built = random_theta(rng, n, m, min(n, m), rng.uniform(0.3, 1.6))
            yield built
            yield ThetaParams.from_stacked(built.stacked, n, m)

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_membership_matches_the_reference(self, n, m):
        costs = CostMatrices.identity(n, m)
        layouts = admitted = 0
        for theta in self.thetas(n, m, 40):
            layouts += theta.stacked.flags.c_contiguous
            for trace_bound, rho in self.BOUNDS:
                ref = reference_admissible(theta, costs, trace_bound, rho)
                assert same_solution(q_membership(theta, costs, ConstraintSetQ(trace_bound, rho)), ref)
                assert same_solution(p_membership(theta, costs, ConstraintSetP(trace_bound, 1e3, rho)), ref)
                small_phi = ConstraintSetP(trace_bound, 0.5 * theta.frobenius_norm(), rho)
                assert p_membership(theta, costs, small_phi) is None
                admitted += ref is not None
        assert admitted >= 10
        assert layouts == 80  # both constructors hold theta row-major

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_each_slice_gets_its_one_slice_verdict_and_bits(self, n, m):
        costs = CostMatrices.identity(n, m)
        thetas = list(self.thetas(n, m, 20))
        for trace_bound, rho in self.BOUNDS:
            refs = [reference_admissible(theta, costs, trace_bound, rho) for theta in thetas]
            # The stack of every theta, and the one-slice stack of each.
            cases = [(np.stack([theta.stacked for theta in thetas]), refs)]
            cases += [(theta.stacked[None], [ref]) for theta, ref in zip(thetas, refs)]
            for stack, expected in cases:
                admitted, sols = admitted_stack(stack, costs, trace_bound, rho)
                assert admitted.tolist() == [ref is not None for ref in expected]
                for k, ref in enumerate(expected):
                    if ref is not None:
                        assert np.array_equal(sols.p_matrix[k], ref.p_matrix)
                        assert np.array_equal(sols.gain[k], ref.gain)
                        assert sols.avg_cost[k] == ref.avg_cost and sols.failure[k] == 0

    def test_screened_and_failed_slices(self):
        # An unstable mode outside range(B) puts the closed-loop floor above
        # rho, so only with m >= n, where the screen is skipped, does such a
        # theta reach the solve.
        b3, b2 = np.eye(3)[:, :2], np.diag([1.0, 0.0])
        for thetas, failure in [
            ((ThetaParams(2.0 * np.eye(3), b3), ThetaParams(0.5 * np.eye(3), b3)), lqr.SCREENED),
            ((ThetaParams(np.diag([0.5, 2.0]), b2), ThetaParams(np.diag([0.5, 0.5]), b2)), DIVERGED),
        ]:
            n, m = thetas[0].n, thetas[0].m
            stack = np.stack([theta.stacked for theta in thetas])
            admitted, sols = admitted_stack(stack, CostMatrices.identity(n, m), 50.0, 0.99)
            assert admitted.tolist() == [False, True]
            assert sols.failure.tolist() == [failure, 0]
            assert np.isnan(sols.p_matrix[0]).all() and np.isnan(sols.gain[0]).all() and np.isnan(sols.avg_cost[0])


class TestThetaParams:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stacked_round_trip(self, n, m, seed):
        rng = np.random.default_rng(seed)
        theta = ThetaParams(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
        back = ThetaParams.from_stacked(theta.stacked, n, m)
        assert np.array_equal(back.a_matrix, theta.a_matrix)
        assert np.array_equal(back.b_matrix, theta.b_matrix)
        for view in (back.a_matrix, back.b_matrix):
            assert np.shares_memory(view, back.stacked) and not view.flags.writeable
        assert np.array_equal(theta.stacked.T[:, :n], theta.a_matrix)
        assert np.array_equal(theta.stacked.T[:, n:], theta.b_matrix)
        bad = theta.stacked.copy()
        bad[rng.integers(n + m), rng.integers(n)] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ThetaParams.from_stacked(bad, n, m)
        with pytest.raises(DimensionMismatch):
            ThetaParams.from_stacked(theta.stacked[:-1], n, m)

    def test_every_theta_is_row_major(self):
        a, b = np.arange(9.0).reshape(3, 3), np.arange(6.0).reshape(3, 2)
        stacked = np.vstack([a.T, b.T])
        thetas = [
            ThetaParams(a, b),
            ThetaParams(np.asfortranarray(a), np.asfortranarray(b)),
            ThetaParams.from_stacked(stacked, 3, 2),
            ThetaParams.from_stacked(np.asfortranarray(stacked), 3, 2),
            pickle.loads(pickle.dumps(ThetaParams(a, b))),
        ]
        for theta in thetas:
            assert theta.stacked.flags.c_contiguous
            assert theta.stacked.tobytes() == stacked.tobytes()
        assert ThetaParams.zeros(3, 2).stacked.flags.c_contiguous

    def test_pickle_keeps_arrays_read_only(self):
        theta = ThetaParams(np.arange(9.0).reshape(3, 3), np.arange(6.0).reshape(3, 2))
        back = pickle.loads(pickle.dumps(theta))
        assert np.array_equal(back.stacked, theta.stacked)
        assert np.array_equal(back.a_matrix, theta.a_matrix)
        assert np.array_equal(back.b_matrix, theta.b_matrix)
        for arr in (back.stacked, back.a_matrix, back.b_matrix):
            assert not arr.flags.writeable

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            ThetaParams(np.zeros((2, 3)), np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            ThetaParams(np.zeros((2, 2)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            ThetaParams(np.array([[np.nan]]), np.array([[1.0]]))


class TestCostMatrices:
    def test_rejects_non_spd(self):
        with pytest.raises(ValueError, match="r_matrix"):
            CostMatrices(np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError, match="q_matrix"):
            CostMatrices(np.array([[1.0, 0.5], [0.4, 1.0]]), np.eye(2))

    @pytest.mark.parametrize(
        "r_matrix",
        [
            [[1e200, 1e200], [0.0, 1e200]],
            [[1.7e308, -1.7e308], [1.7e308, 1.7e308]],
            [[-1.7e308, 0.0], [1e308, 1.7e308]],
        ],
    )
    def test_asymmetry_is_caught_when_a_norm_would_overflow(self, r_matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r_matrix is not symmetric"):
                CostMatrices(np.eye(2), np.array(r_matrix))

    def test_symmetric_matrix_near_the_float_limit_is_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            costs = CostMatrices(np.eye(2), np.array([[1.7e308, 1e308], [1e308, 1.7e308]]))
        assert costs.r_matrix[0, 0] == 1.7e308
