"""Offline-informed Thompson sampling for LQR: belief updates, confidence
width, constrained sampling with rejection, and the per-episode loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NonStabilizable,
    SingularPrecision,
    UnstableRollout,
)
from .lqr import (
    SCREEN_MARGIN,
    ConstraintSetQ,
    CostMatrices,
    ThetaParams,
    closed_loop_floors,
    q_membership,
    solve_dare,
    unscreened_admissible,
)
from .offline import OfflineSummary, lambda_floor, self_normalized_radius
from .rng import RngStream
from .sim import step_system
from .traces import CheckpointRecord, EpisodeDiagnostics, RegretTrace

VARIANTS = ("tsod", "ts_no_offline", "offline_estimate_only", "oracle")

DEFAULT_MAX_ATTEMPTS = 100
# Candidates drawn and screened per call.  A speed constant only: the sampler
# rewinds the stream to where one-at-a-time draws would have left it, so no
# value of it moves a byte.
SAMPLE_BLOCK = 8
DEFAULT_STATE_CEILING = 1e6
# Estimation-error checkpoints, as fractions of the horizon.
CHECKPOINT_FRACTIONS = (0.25, 0.5, 1.0)


@dataclass(frozen=True, eq=False)
class BeliefState:
    """Online precision matrix, least-squares estimate, and cached log-dets.

    cross_term accumulates the regressor/next-state products plus the offline
    contribution, so theta_hat is always the solution of
    v_matrix @ theta = cross_term.  info_sum is the running sum of
    z^T V^{-1} z over the updates, each with V taken before its update.
    """

    v_matrix: np.ndarray
    theta_hat: ThetaParams
    logdet_v: float
    info_sum: float
    logdet_u: float
    cross_term: np.ndarray

    @property
    def n(self) -> int:
        return self.theta_hat.n

    @property
    def m(self) -> int:
        return self.theta_hat.m

    @property
    def dim(self) -> int:
        return self.v_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class SampleOutcome:
    """A sampled (or fallback) parameter with its gain and sampling metadata."""

    theta_tilde: ThetaParams
    gain: np.ndarray
    rejections: int
    fallback_used: bool


@dataclass(frozen=True, eq=False)
class MultiSourceSummary:
    """An ordered collection of offline summaries sharing (n, m)."""

    summaries: Tuple[OfflineSummary, ...]
    alpha_sum: float = field(init=False)
    # Sum over sources of sqrt(lambda_max(U)) times the dissimilarity bound.
    mdelta_sum: float = field(init=False)

    def __post_init__(self):
        summaries = tuple(self.summaries)
        if len(summaries) < 1:
            raise ValueError("at least one offline summary is required")
        n, m = summaries[0].n, summaries[0].m
        for s in summaries[1:]:
            if (s.n, s.m) != (n, m):
                raise DimensionMismatch("offline summaries have mismatched dimensions")
        object.__setattr__(self, "summaries", summaries)
        object.__setattr__(self, "alpha_sum", float(sum(s.alpha for s in summaries)))
        mdelta_sum = float(
            sum(
                math.sqrt(max(float(np.linalg.eigvalsh(s.u_matrix)[-1]), 0.0)) * s.m_delta
                for s in summaries
            )
        )
        object.__setattr__(self, "mdelta_sum", mdelta_sum)

    @property
    def n(self) -> int:
        return self.summaries[0].n

    @property
    def m(self) -> int:
        return self.summaries[0].m

    @property
    def n_sources(self) -> int:
        return len(self.summaries)

    @property
    def s_total(self) -> int:
        return int(sum(s.s_len for s in self.summaries))


SourcesLike = Union[MultiSourceSummary, OfflineSummary]


def as_sources(sources: SourcesLike) -> MultiSourceSummary:
    if isinstance(sources, OfflineSummary):
        return MultiSourceSummary((sources,))
    return sources


def init_belief(sources: SourcesLike) -> BeliefState:
    """Fuse the offline summaries into the initial belief.

    The initial precision is the sum of the source precisions; the initial
    estimate solves the combined normal equations (for a single source this is
    the offline estimate itself).
    """
    src = as_sources(sources)
    d = src.n + src.m
    v0 = np.zeros((d, d))
    cross = np.zeros((d, src.n))
    for s in src.summaries:
        v0 += s.u_matrix
        cross += s.u_matrix @ s.theta_hat_sim.stacked
    v0 = 0.5 * (v0 + v0.T)
    sign, logdet = np.linalg.slogdet(v0)
    if sign <= 0 or not np.isfinite(logdet):
        raise SingularPrecision("combined offline precision is not positive definite")
    if src.n_sources == 1:
        theta0 = src.summaries[0].theta_hat_sim
    else:
        theta0 = ThetaParams.from_stacked(np.linalg.solve(v0, cross), src.n, src.m)
    return BeliefState(
        v_matrix=v0,
        theta_hat=theta0,
        logdet_v=float(logdet),
        info_sum=0.0,
        logdet_u=float(logdet),
        cross_term=cross,
    )


def compute_beta(
    belief: BeliefState,
    sources: MultiSourceSummary,
    delta2: float,
    m_delta_scale: float = 1.0,
) -> float:
    """Confidence width: online log-det growth plus the offline radii plus the
    dissimilarity terms.  Nondecreasing in t for fixed delta2."""
    if not 0.0 < delta2 < 1.0:
        raise DomainError("delta2 must lie in (0, 1)")
    half_ratio = 0.5 * (belief.logdet_v - belief.logdet_u)
    if half_ratio < -1e-6 * max(1.0, abs(belief.logdet_u)):
        raise DomainError("log-det ratio fell below one; belief caches are inconsistent")
    online = self_normalized_radius(belief.n, half_ratio, delta2)
    return online + sources.alpha_sum + m_delta_scale * sources.mdelta_sum


def _fallback_candidates(
    theta_hat: ThetaParams,
    anchor: Optional[ThetaParams],
    last_accepted: Optional[ThetaParams],
) -> Iterable[ThetaParams]:
    if last_accepted is not None:
        yield last_accepted
    yield theta_hat
    n, m = theta_hat.n, theta_hat.m
    target = anchor if anchor is not None else theta_hat
    if anchor is not None:
        for lam in (0.25, 0.5, 0.75, 1.0):
            yield ThetaParams.from_stacked((1.0 - lam) * theta_hat.stacked + lam * anchor.stacked, n, m)
    for scale in (0.75, 0.5, 0.25, 0.0):
        yield ThetaParams.from_stacked(scale * target.stacked, n, m)


def sample_constrained(
    belief: BeliefState,
    beta: float,
    set_q: ConstraintSetQ,
    costs: CostMatrices,
    rng: RngStream,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    *,
    anchor: Optional[ThetaParams] = None,
    last_accepted: Optional[ThetaParams] = None,
) -> SampleOutcome:
    """Rejection-sample theta_hat + beta * V^{-1/2} eta onto the admissible set.

    V^{-1/2} is the symmetric inverse square root.  On exhaustion the sampler
    falls back, in order, to the last accepted sample, the current mean,
    interpolations from the mean toward `anchor`, and scalings of the anchor
    toward zero; fallback_used marks that path.

    Draws come in blocks of SAMPLE_BLOCK from one call, which fills the
    array with the normals that one call per candidate would draw.  The block
    is screened at once, and the candidates that pass are solved in draw
    order.  Once candidate i is admitted, the stream is restored and i + 1
    candidates are redrawn, so it ends where one draw per tested candidate
    leaves it.
    """
    if beta < 0:
        raise DomainError("beta must be nonnegative")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    n, m = belief.n, belief.m
    eigvals, eigvecs = np.linalg.eigh(belief.v_matrix)
    if eigvals[0] <= 0:
        raise SingularPrecision("belief precision is not positive definite")
    inv_half = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    mean = belief.theta_hat.stacked
    start = rng.bit_generator.state
    drawn = 0
    while drawn < max_attempts:
        size = min(SAMPLE_BLOCK, max_attempts - drawn)
        block = mean + beta * (inv_half @ rng.standard_normal((size, n + m, n)))
        if not np.isfinite(block).all():
            raise ValueError("sampled parameter has non-finite entries")
        for i in np.flatnonzero(closed_loop_floors(block) <= set_q.rho * SCREEN_MARGIN):
            candidate = ThetaParams.from_stacked(block[i], n, m)
            sol = unscreened_admissible(candidate, costs, set_q.m_p, set_q.rho)
            if sol is not None:
                if i + 1 < size:
                    rng.bit_generator.state = start
                    rng.standard_normal((drawn + i + 1, n + m, n))
                return SampleOutcome(candidate, sol.gain, drawn + int(i), False)
        drawn += size
    for candidate in _fallback_candidates(belief.theta_hat, anchor, last_accepted):
        sol = q_membership(candidate, costs, set_q)
        if sol is not None:
            return SampleOutcome(candidate, sol.gain, max_attempts, True)
    raise NonStabilizable("no admissible fallback parameter found")


def update_belief(belief: BeliefState, z_vector, next_state) -> BeliefState:
    """Rank-one information update with one observed transition.

    The log-determinant cache uses log det(V + z z^T) = log det V + log(1 + z^T V^{-1} z),
    and info_sum adds the same z^T V^{-1} z.
    """
    z = np.asarray(z_vector, dtype=np.float64).reshape(-1)
    x_next = np.asarray(next_state, dtype=np.float64).reshape(-1)
    if z.shape != (belief.dim,):
        raise DimensionMismatch(f"z_vector must have length {belief.dim}, got {z.shape}")
    if x_next.shape != (belief.n,):
        raise DimensionMismatch(f"next_state must have length {belief.n}, got {x_next.shape}")
    quad = float(z @ np.linalg.solve(belief.v_matrix, z))
    v_next = belief.v_matrix + np.outer(z, z)
    v_next = 0.5 * (v_next + v_next.T)
    cross_next = belief.cross_term + np.outer(z, x_next)
    theta_next = ThetaParams.from_stacked(
        np.linalg.solve(v_next, cross_next), belief.n, belief.m
    )
    return BeliefState(
        v_matrix=v_next,
        theta_hat=theta_next,
        logdet_v=belief.logdet_v + math.log1p(quad),
        info_sum=belief.info_sum + quad,
        logdet_u=belief.logdet_u,
        cross_term=cross_next,
    )


def no_offline_prior(
    n: int, m: int, regularizer: float, s_len: int, delta1: float
) -> OfflineSummary:
    """The prior of a learner that ignores the offline data: precision
    regularizer * I, zero estimate, and no radius or dissimilarity term."""
    return OfflineSummary(
        u_matrix=regularizer * np.eye(n + m),
        theta_hat_sim=ThetaParams.zeros(n, m),
        alpha=0.0,
        s_len=s_len,
        m_delta=0.0,
        delta1=delta1,
        regularizer=regularizer,
    )


def effective_sources(sources: SourcesLike, variant: str) -> MultiSourceSummary:
    """Transform the offline summaries according to the algorithm variant.

    ts_no_offline replaces each summary by the no-offline prior;
    offline_estimate_only keeps the offline estimate on that prior.
    """
    src = as_sources(sources)
    if variant in ("tsod", "oracle"):
        return src
    if variant not in ("ts_no_offline", "offline_estimate_only"):
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    transformed = []
    for s in src.summaries:
        prior = no_offline_prior(s.n, s.m, s.regularizer, s.s_len, s.delta1)
        if variant == "offline_estimate_only":
            prior = replace(prior, theta_hat_sim=s.theta_hat_sim)
        transformed.append(prior)
    return MultiSourceSummary(tuple(transformed))


def delta1_for(delta: float, s_len: int, horizon: int) -> float:
    """Offline confidence split; uses max(S, T + 1) so the schedule stays valid
    when the offline trajectory is not longer than the horizon."""
    return delta / (16.0 * max(s_len, horizon + 1))


def delta2_for(delta: float, horizon: int) -> float:
    """Online confidence split: delta / (16 T)."""
    return delta / (16.0 * max(horizon, 1))


@dataclass(frozen=True, eq=False)
class EpisodeResult:
    trace: RegretTrace
    belief: BeliefState
    diagnostics: EpisodeDiagnostics


def run_episode(
    theta_star_hidden: ThetaParams,
    sources: SourcesLike,
    costs: CostMatrices,
    set_q: ConstraintSetQ,
    horizon: int,
    delta2: float,
    variant: str,
    rng: RngStream,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    beta_mdelta_scale: float = 1.0,
    state_ceiling: float = DEFAULT_STATE_CEILING,
    seed: int = 0,
) -> EpisodeResult:
    """Run one online episode of the given variant against the hidden system.

    Per step: sample an admissible parameter, apply its gain, observe the
    transition and stage cost, and apply the rank-one belief update.  The
    oracle variant plays the hidden parameters directly and serves as a
    policy-level sanity check.  A state whose norm exceeds `state_ceiling`,
    or is not finite, raises UnstableRollout.  The loop only records each
    step; the property checks are computed from that record afterwards.
    delta2 is the online confidence split, delta2_for(delta, horizon) on the
    schedule.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if not 0.0 < delta2 < 1.0:
        raise DomainError("delta2 must lie in (0, 1)")

    src_raw = as_sources(sources)
    src = effective_sources(src_raw, variant)
    n, m = src.n, src.m
    if (theta_star_hidden.n, theta_star_hidden.m) != (n, m):
        raise DimensionMismatch("hidden parameters do not match the offline summaries")

    star_sol = solve_dare(theta_star_hidden, costs)
    belief = init_belief(src)
    anchor = belief.theta_hat
    checkpoint_ts = sorted({max(1, int(round(horizon * f))) for f in CHECKPOINT_FRACTIONS if horizon >= 1})

    cost_arr = np.zeros(horizon)
    beta_arr = np.zeros(horizon)
    rej_arr = np.zeros(horizon, dtype=np.int64)
    norm_arr = np.zeros(horizon)
    fallback_arr = np.zeros(horizon, dtype=bool)
    gain_arr = np.zeros((horizon, m, n))
    z_norm_arr = np.zeros(horizon)
    logdet_arr = np.zeros(horizon)
    info_arr = np.zeros(horizon)
    # The belief at sampling time of each checkpoint step.
    checkpoint_beliefs = []

    oracle = SampleOutcome(theta_star_hidden, star_sol.gain, 0, False) if variant == "oracle" else None
    last_accepted: Optional[ThetaParams] = None
    state = np.zeros(n)
    state_norm = 0.0

    for idx in range(horizon):
        step_t = idx + 1
        beta_t = compute_beta(belief, src, delta2, beta_mdelta_scale)
        if step_t in checkpoint_ts:
            checkpoint_beliefs.append(belief)
        outcome = oracle or sample_constrained(
            belief, beta_t, set_q, costs, rng, max_attempts, anchor=anchor, last_accepted=last_accepted
        )
        if not outcome.fallback_used:
            last_accepted = outcome.theta_tilde
        z, next_state, cost = step_system(theta_star_hidden, state, outcome.gain @ state, costs, rng)
        belief = update_belief(belief, z, next_state)

        cost_arr[idx] = cost
        beta_arr[idx] = beta_t
        rej_arr[idx] = outcome.rejections
        norm_arr[idx] = state_norm
        fallback_arr[idx] = outcome.fallback_used
        gain_arr[idx] = outcome.gain
        z_norm_arr[idx] = np.linalg.norm(z)
        logdet_arr[idx] = belief.logdet_v
        info_arr[idx] = belief.info_sum

        state = next_state
        state_norm = float(np.linalg.norm(state))
        if not state_norm <= state_ceiling:  # also true when the state has a NaN or an inf
            raise UnstableRollout(
                f"online state norm exceeded {state_ceiling:g} at step {step_t}"
            )

    # The property checks, from the per-step record.
    checkpoints = []
    for step_t, saved in zip(checkpoint_ts, checkpoint_beliefs):
        diff = saved.theta_hat.stacked - theta_star_hidden.stacked
        err = math.sqrt(max(float(np.trace(diff.T @ saved.v_matrix @ diff)), 0.0))
        beta_t = float(beta_arr[step_t - 1])
        checkpoints.append(CheckpointRecord(t=step_t, error=err, beta=beta_t, ok=err <= beta_t))

    # Information inequalities: sum_s z_s^T V_s^{-1} z_s against the log-det
    # growth, with the running max of ||z||; they assume the warm-start
    # precision actually used grows like S/40, which variants that replace it
    # do not.
    d, s_total = n + m, src_raw.s_total
    z_max = np.maximum.accumulate(z_norm_arr)
    zt_rhs = 2.0 * np.maximum(1.0, 40.0 * z_max**2 / s_total) * (logdet_arr - belief.logdet_u)
    z_top = float(z_max[-1]) if horizon else 0.0
    polylog_lhs = belief.logdet_v - belief.logdet_u
    polylog_rhs = d * math.log1p(40.0 * horizon * z_top**2 / (d * s_total))
    prior_lambda_ok = all(lambda_floor(s)[1] for s in src.summaries)

    true_cl = np.linalg.norm(
        theta_star_hidden.a_matrix + theta_star_hidden.b_matrix @ gain_arr, 2, axis=(1, 2)
    )
    fallback_steps = int(np.count_nonzero(fallback_arr))

    instant = cost_arr - star_sol.avg_cost
    trace = RegretTrace(
        t=np.arange(1, horizon + 1, dtype=np.int64),
        cost=cost_arr,
        instant_regret=instant,
        cum_regret=np.cumsum(instant),
        beta=beta_arr,
        rejections=rej_arr,
        state_norm=norm_arr,
        j_star=star_sol.avg_cost,
        seed=seed,
    )
    diagnostics = EpisodeDiagnostics(
        checkpoints=tuple(checkpoints),
        coverage_ok=all(c.ok for c in checkpoints),
        zt_violations=int(np.count_nonzero(info_arr > zt_rhs * (1.0 + 1e-9) + 1e-9)),
        polylog_ok=polylog_lhs <= polylog_rhs * (1.0 + 1e-9) + 1e-9,
        prior_lambda_ok=prior_lambda_ok,
        fallback_steps=fallback_steps,
        accepted_steps=horizon - fallback_steps,
        true_closed_loop_max=float(true_cl.max(initial=0.0)),
        true_closed_loop_violations=int(np.count_nonzero(true_cl > set_q.rho)),
    )
    return EpisodeResult(trace=trace, belief=belief, diagnostics=diagnostics)
