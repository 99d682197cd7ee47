"""Offline-informed Thompson sampling for LQR: belief updates, confidence
width, constrained sampling with rejection, and the per-episode loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NonStabilizable,
    SingularPrecision,
    TsodLqrError,
    UnstableRollout,
)
# solve_dare stays bound here: perfbench's tracer wraps it in every module that holds it.
from .lqr import (  # noqa: F401
    ConstraintSetQ,
    CostMatrices,
    ThetaParams,
    _screen,
    failure_text,
    q_membership,
    solve_and_bound,
    solve_dare,
    solve_dare_stack,
)
from .offline import OfflineSummary, lambda_floor, self_normalized_radius
from .rng import RngStream
from .sim import step_systems
from .traces import CheckpointRecord, EpisodeDiagnostics, RegretTrace

VARIANTS = ("tsod", "ts_no_offline", "offline_estimate_only", "oracle")

DEFAULT_MAX_ATTEMPTS = 100
# Candidates screened per call in run_episodes when n > m; when m >= n the
# screen passes every draw, so each call takes one.  A speed constant only:
# candidate k of a run is the k-th normal block of its sampler stream whatever
# the block size, so no value of it moves a byte.
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


def _betas(n: int, logdet_v, logdet_u, alpha_sum, mdelta_sum, delta2: float, m_delta_scale: float):
    """compute_beta entry by entry over arrays of the belief and source
    figures, and whether the log-det caches are inconsistent."""
    half_ratio = 0.5 * (logdet_v - logdet_u)
    inconsistent = half_ratio < -1e-6 * np.maximum(1.0, np.abs(logdet_u))
    online = self_normalized_radius(n, half_ratio, delta2)
    return online + alpha_sum + m_delta_scale * mdelta_sum, inconsistent


_INCONSISTENT = "log-det ratio fell below one; belief caches are inconsistent"


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
    beta, inconsistent = _betas(
        belief.n, belief.logdet_v, belief.logdet_u, sources.alpha_sum, sources.mdelta_sum, delta2, m_delta_scale
    )
    if inconsistent:
        raise DomainError(_INCONSISTENT)
    return float(beta)


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


def _sampler_fields(count: int, d: int, n: int, block_size: int) -> dict:
    """The sampler's per-run fields of a _Runs, for runs of (d, n) stacked
    parameters: the width and V^{-1/2} of the step, the candidates formed so
    far in the step, the normals of block_size candidates from the sampler
    stream with the slot of the first not yet used, the candidates formed
    from them with the mask of those that passed the screen and are not yet
    solved, and the step's outcome.

    The normals that a step does not use are the first of the next step's
    candidates, so candidate k of a run is the k-th (d, n) normal block of
    its stream whatever block_size is."""
    return dict(
        beta=np.zeros(count),
        inv_half=np.zeros((count, d, d)),
        drawn=np.zeros(count, dtype=np.int64),
        normals=np.zeros((count, block_size, d, n)),
        pos=np.full(count, block_size, dtype=np.int64),
        block=np.zeros((count, block_size, d, n)),
        passed=np.zeros((count, block_size), dtype=bool),
        theta_tilde=np.zeros((count, d, n)),
        gain=np.zeros((count, d - n, n)),
        rejections=np.zeros(count, dtype=np.int64),
        fallback=np.zeros(count, dtype=bool),
    )


def _begin_step(runs: "_Runs", rows: np.ndarray) -> Dict[int, TsodLqrError]:
    """Start a sampling step for the runs at positions `rows`, whose widths
    are set: one stacked eigh gives their V^{-1/2}, and none has formed a
    candidate.  Returns the errors of the runs that cannot sample, by
    position."""
    errors: Dict[int, TsodLqrError] = {}
    for k in np.flatnonzero(runs.beta[rows] < 0):
        errors[int(rows[k])] = DomainError("beta must be nonnegative")
    eigvals, eigvecs = np.linalg.eigh(runs.v_matrix[rows])
    for k in np.flatnonzero(eigvals[:, 0] <= 0):
        errors.setdefault(int(rows[k]), SingularPrecision("belief precision is not positive definite"))
    if errors:
        ok = np.array([int(j) not in errors for j in rows], dtype=bool)
        rows, eigvals, eigvecs = rows[ok], eigvals[ok], eigvecs[ok]
    runs.inv_half[rows] = (eigvecs / np.sqrt(eigvals)[:, None, :]) @ eigvecs.mT
    runs.drawn[rows] = 0
    runs.passed[rows] = False
    return errors


def _sample_round(
    runs: "_Runs",
    rows: np.ndarray,
    set_q: ConstraintSetQ,
    costs: CostMatrices,
    max_attempts: int,
    ladder: Callable[[int], Iterable[Tuple[ThetaParams, Optional[np.ndarray]]]],
) -> Tuple[np.ndarray, Dict[int, TsodLqrError]]:
    """One round of sample_constrained for the runs at positions `rows`, each
    in a step that _begin_step started.

    Each run that holds no candidate that passed the screen moves the
    normals of its block that it has not used to the block's front, fills
    the rest with one call on its sampler stream, and forms the block's
    candidates, never more than max_attempts in a step.  One stacked screen
    covers every run's new candidates, until each run holds a passing
    candidate or has formed max_attempts.  A run in the second case tries
    the candidates of ladder(j), its fallback ladder, one by one: ladder(j)
    yields each with its gain, or with None when it must be solved.  Then
    one solve_and_bound call takes each other run's next passing candidate
    in draw order, one slice per run, and the runs it admits end their
    sampling; the others try their next candidate in the next round.  A run
    admitted at slot k of its block leaves the normals after k to its next
    step, so each step uses the normals of the candidates it tested.

    The outcome of a run that ends its sampling is in theta_tilde, gain,
    rejections and fallback.  Returns the positions of those runs and the
    errors of the runs that raised TsodLqrError, by position.
    """
    block_size = runs.normals.shape[1]
    need = rows[~runs.passed[rows].any(axis=1)]
    while True:
        need = need[runs.drawn[need] < max_attempts]
        if not need.size:
            break
        for j in need:
            left = block_size - runs.pos[j]
            runs.normals[j, :left] = runs.normals[j, runs.pos[j] :]
            runs.sampler_rng[j].standard_normal(out=runs.normals[j, left:])
        sizes = np.minimum(block_size, max_attempts - runs.drawn[need])
        ends = np.cumsum(sizes)
        owner = np.repeat(need, sizes)
        slot = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
        normals = runs.normals[owner, slot]
        blocks = runs.theta_hat[owner] + runs.beta[owner][:, None, None] * (runs.inv_half[owner] @ normals)
        if not np.isfinite(blocks).all():
            raise ValueError("sampled parameter has non-finite entries")
        runs.block[owner, slot] = blocks
        runs.passed[owner, slot] = _screen(blocks, set_q.rho)
        runs.pos[need] = sizes
        runs.drawn[need] += sizes
        need = need[~runs.passed[need].any(axis=1)]

    holding = runs.passed[rows].any(axis=1)
    done, errors = [], {}
    for j in rows[~holding]:
        for candidate, gain in ladder(j):
            if gain is None:
                sol = q_membership(candidate, costs, set_q)
                gain = None if sol is None else sol.gain
            if gain is not None:
                runs.theta_tilde[j], runs.gain[j] = candidate.stacked, gain
                runs.rejections[j], runs.fallback[j] = max_attempts, True
                done.append(j)
                break
        else:
            errors[int(j)] = NonStabilizable("no admissible fallback parameter found")
    solving = rows[holding]
    if solving.size:
        first = runs.passed[solving].argmax(axis=1)
        runs.passed[solving, first] = False
        candidates = runs.block[solving, first]
        admitted, sols = solve_and_bound(candidates, costs, set_q.m_p, set_q.rho)
        won = solving[admitted]
        runs.theta_tilde[won], runs.gain[won] = candidates[admitted], sols.gain[admitted]
        slots = first[admitted]
        runs.rejections[won] = runs.drawn[won] - runs.pos[won] + slots
        runs.fallback[won], runs.pos[won] = False, slots + 1
        done.extend(won)
    return np.array(done, dtype=np.int64), errors


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

    Candidate k is the k-th (n+m) x n normal block drawn from rng, the
    run's sampler stream.  Each is drawn, and screened, only when every
    earlier candidate has been rejected, and the candidates that pass the
    screen are solved one per round, so the call draws the candidates it
    tests and no others: k successive calls use the normals that k steps of
    run_episodes use.  These are the rounds of the one-run batch that
    run_episodes samples all runs with, with blocks of one candidate.
    max_attempts must be at least 1.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    runs = _Runs(
        sampler_rng=_objects([rng]),
        v_matrix=belief.v_matrix[None],
        theta_hat=belief.theta_hat.stacked[None],
        **_sampler_fields(1, belief.dim, belief.n, 1),
    )
    runs.beta[0] = beta
    rows = np.zeros(1, dtype=np.int64)
    errors = _begin_step(runs, rows)
    done = ()
    while not errors and not len(done):
        done, errors = _sample_round(
            runs, rows, set_q, costs, max_attempts,
            lambda j: ((rung, None) for rung in _fallback_candidates(belief.theta_hat, anchor, last_accepted)),
        )
    if errors:
        raise errors[0]
    return SampleOutcome(
        ThetaParams.from_stacked(runs.theta_tilde[0], belief.n, belief.m),
        runs.gain[0],
        int(runs.rejections[0]),
        bool(runs.fallback[0]),
    )


def _update_beliefs(
    v_matrix: np.ndarray, cross_term: np.ndarray, z: np.ndarray, next_state: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """update_belief for every run of a batch: (V, cross term, theta_hat) after
    the update, and z^T V^{-1} z with V taken before it."""
    quad = np.vecdot(z, np.linalg.solve(v_matrix, z[:, :, None])[:, :, 0])
    v_next = v_matrix + z[:, :, None] * z[:, None, :]
    v_next = 0.5 * (v_next + v_next.mT)
    cross_next = cross_term + z[:, :, None] * next_state[:, None, :]
    theta_next = np.linalg.solve(v_next, cross_next)
    if not np.isfinite(theta_next).all():
        raise ValueError("stacked has non-finite entries")
    return v_next, cross_next, theta_next, quad


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
    v_next, cross_next, theta_next, quad = _update_beliefs(
        belief.v_matrix[None], belief.cross_term[None], z[None], x_next[None]
    )
    return BeliefState(
        v_matrix=v_next[0],
        theta_hat=ThetaParams.from_stacked(theta_next[0], belief.n, belief.m),
        logdet_v=belief.logdet_v + float(np.log1p(quad)[0]),
        info_sum=belief.info_sum + float(quad[0]),
        logdet_u=belief.logdet_u,
        cross_term=cross_next[0],
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


class _Runs:
    """The per-run arrays of the runs still in a batch, in run order; keep()
    drops the others from every array at once."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask: np.ndarray) -> None:
        for name, value in list(vars(self).items()):
            setattr(self, name, value[mask])


def run_episodes(
    theta_stars: Sequence[ThetaParams],
    sources: Sequence[SourcesLike],
    costs: CostMatrices,
    set_q: ConstraintSetQ,
    horizon: int,
    delta2: float,
    variants: Union[str, Sequence[str]],
    rngs: Sequence[RngStream],
    sampler_rngs: Sequence[RngStream],
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    beta_mdelta_scale: float = 1.0,
    state_ceiling: float = DEFAULT_STATE_CEILING,
    seeds: Optional[Sequence[int]] = None,
) -> List[Union[EpisodeResult, TsodLqrError]]:
    """Run one online episode per hidden system, all as one batch: run i plays
    theta_stars[i] as variants[i] (one variant string stands for every run)
    from the prior of sources[i], draws its process noise from rngs[i] and
    its candidates from sampler_rngs[i], and from no other stream, so its
    result does not depend on the others.

    Per step: sample an admissible parameter, apply its gain, observe the
    transition and stage cost, and apply the rank-one belief update.  The
    batch moves in global rounds, and each run keeps its own step.  In a
    round, the runs that start a step compute beta and record their
    checkpoints, every sampling run takes one _sample_round, and the runs
    whose step ends (admitted, fallen back, or oracle) step their systems and
    update their beliefs as one stacked operation over that subset.  The
    oracle variant plays the hidden parameters directly and serves as a
    policy-level sanity check.  A state
    whose norm exceeds `state_ceiling`, or is not finite, raises
    UnstableRollout.  A run that raises TsodLqrError leaves the batch, and
    its entry of the result is that error; the other entries are
    EpisodeResults.  The loop only records each step; the property checks
    are computed from that record afterwards.  delta2 is the online
    confidence split, delta2_for(delta, horizon) on the schedule.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if not 0.0 < delta2 < 1.0:
        raise DomainError("delta2 must lie in (0, 1)")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    count = len(theta_stars)
    seeds = list(seeds) if seeds is not None else [0] * count
    variants = [variants] * count if isinstance(variants, str) else list(variants)
    results: List[Union[EpisodeResult, TsodLqrError, None]] = [None] * count
    n, m = costs.n, costs.m
    checkpoint_ts = sorted({max(1, int(round(horizon * f))) for f in CHECKPOINT_FRACTIONS if horizon >= 1})

    # Per run: (sources as given, effective sources, the hidden system's
    # average cost, the initial belief); the hidden systems are solved as
    # one stack.
    sized = {}
    for i in range(count):
        src_raw = as_sources(sources[i])
        src = effective_sources(src_raw, variants[i])
        if (theta_stars[i].n, theta_stars[i].m) != (src.n, src.m):
            results[i] = DimensionMismatch("hidden parameters do not match the offline summaries")
        else:
            sized[i] = (src_raw, src)
    star_stack = np.array([theta_stars[i].stacked for i in sized]).reshape(-1, n + m, n)
    star_sols = solve_dare_stack(star_stack, costs)
    setups, solved = {}, []
    for j, i in enumerate(sized):
        try:
            if star_sols.failure[j]:
                raise NonStabilizable(failure_text(star_sols.failure[j]))
            setups[i] = (*sized[i], float(star_sols.avg_cost[j]), init_belief(sized[i][1]))
        except TsodLqrError as exc:
            results[i] = exc
        solved.append(i in setups)
    started = list(setups)
    beliefs = [setups[i][3] for i in started]
    runs = _Runs(
        index=np.array(started, dtype=np.int64),
        noise_rng=_objects([rngs[i] for i in started]),
        sampler_rng=_objects([sampler_rngs[i] for i in started]),
        oracle=np.array([variants[i] == "oracle" for i in started], dtype=bool),
        anchor=_objects([belief.theta_hat for belief in beliefs]),
        last_accepted=np.zeros((len(started), n + m, n)),
        last_gain=np.zeros((len(started), m, n)),
        has_last=np.zeros(len(started), dtype=bool),
        theta_star=star_stack[solved],
        alpha_sum=np.array([setups[i][1].alpha_sum for i in started]),
        mdelta_sum=np.array([setups[i][1].mdelta_sum for i in started]),
        logdet_u=np.array([belief.logdet_u for belief in beliefs]),
        v_matrix=np.array([belief.v_matrix for belief in beliefs]).reshape(-1, n + m, n + m),
        cross_term=np.array([belief.cross_term for belief in beliefs]).reshape(-1, n + m, n),
        theta_hat=np.array([belief.theta_hat.stacked for belief in beliefs]).reshape(-1, n + m, n),
        logdet_v=np.array([belief.logdet_v for belief in beliefs]),
        info_sum=np.zeros(len(started)),
        state=np.zeros((len(started), n)),
        state_norm=np.zeros(len(started)),
        step=np.zeros(len(started), dtype=np.int64),
        fresh=np.ones(len(started), dtype=bool),
        **_sampler_fields(len(started), n + m, n, SAMPLE_BLOCK if n > m else 1),
    )
    # Oracle runs play the hidden system's gain, with no rejection, at every step.
    runs.gain[:] = star_sols.gain[solved]

    # The per-step record of every run, and the belief at sampling time of
    # each checkpoint step.
    record = {name: np.zeros((count, horizon)) for name in ("cost", "beta", "state_norm", "z_norm", "logdet", "info")}
    record["rejections"] = np.zeros((count, horizon), dtype=np.int64)
    record["fallback"] = np.zeros((count, horizon), dtype=bool)
    record["gain"] = np.zeros((count, horizon, m, n))
    checkpoint_theta = np.zeros((count, len(checkpoint_ts), n + m, n))
    checkpoint_v = np.zeros((count, len(checkpoint_ts), n + m, n + m))
    slot_of = np.full(horizon + 1, -1)
    slot_of[checkpoint_ts] = np.arange(len(checkpoint_ts))

    def ladder(j: int) -> Iterable[Tuple[ThetaParams, Optional[np.ndarray]]]:
        # The last accepted sample passed under the same set_q, so it keeps
        # its gain.
        if runs.has_last[j]:
            yield ThetaParams.from_stacked(runs.last_accepted[j], n, m), runs.last_gain[j]
        hat = ThetaParams.from_stacked(runs.theta_hat[j], n, m)
        yield from ((rung, None) for rung in _fallback_candidates(hat, runs.anchor[j], None))

    def fail(errors: Dict[int, TsodLqrError]) -> None:
        # A run that raises records its error, takes no further part in the
        # round, and leaves the batch at the round's end.
        for j, error in errors.items():
            results[runs.index[j]] = error
            live[j] = False

    while True:
        ended = runs.step == horizon
        for j in np.flatnonzero(ended):
            i = runs.index[j]
            src_raw, src, j_star, _ = setups[i]
            belief = BeliefState(
                v_matrix=runs.v_matrix[j],
                theta_hat=ThetaParams.from_stacked(runs.theta_hat[j], n, m),
                logdet_v=float(runs.logdet_v[j]),
                info_sum=float(runs.info_sum[j]),
                logdet_u=float(runs.logdet_u[j]),
                cross_term=runs.cross_term[j],
            )
            results[i] = _episode_result(
                theta_stars[i], src_raw, src, j_star, set_q, horizon, checkpoint_ts,
                checkpoint_theta[i], checkpoint_v[i], belief, seeds[i], {name: arr[i] for name, arr in record.items()},
            )
        if ended.any():
            runs.keep(~ended)
        if not runs.index.size:
            break
        live = np.ones(runs.index.size, dtype=bool)

        # The runs that start a step: beta, checkpoints, and the sampler's start.
        new = np.flatnonzero(runs.fresh)
        beta, inconsistent = _betas(
            n, runs.logdet_v[new], runs.logdet_u[new], runs.alpha_sum[new], runs.mdelta_sum[new], delta2,
            beta_mdelta_scale,
        )
        runs.beta[new] = beta
        fail({j: DomainError(_INCONSISTENT) for j in new[inconsistent]})
        new = new[~inconsistent]
        runs.fresh[new] = False
        slots = slot_of[runs.step[new] + 1]
        hit = slots >= 0
        if hit.any():
            at = (runs.index[new[hit]], slots[hit])
            checkpoint_theta[at], checkpoint_v[at] = runs.theta_hat[new[hit]], runs.v_matrix[new[hit]]
        learners = new[~runs.oracle[new]]
        if learners.size:
            fail(_begin_step(runs, learners))

        # One sampler round for every learner, then the steps that end.
        sampling = np.flatnonzero(live & ~runs.oracle)
        ending = live & runs.oracle
        if sampling.size:
            done, errors = _sample_round(runs, sampling, set_q, costs, max_attempts, ladder)
            fail(errors)
            accepted = done[~runs.fallback[done]]
            runs.last_accepted[accepted], runs.last_gain[accepted] = runs.theta_tilde[accepted], runs.gain[accepted]
            runs.has_last[accepted] = True
            ending[done] = True
        ends = np.flatnonzero(ending)
        if ends.size:
            noise = np.empty((ends.size, n))
            for k, j in enumerate(ends):
                runs.noise_rng[j].standard_normal(out=noise[k])
            gains, state = runs.gain[ends], runs.state[ends]
            controls = (gains @ state[:, :, None])[:, :, 0]
            z, next_state, cost = step_systems(runs.theta_star[ends], state, controls, costs, noise)
            v_next, cross_next, theta_next, quad = _update_beliefs(
                runs.v_matrix[ends], runs.cross_term[ends], z, next_state
            )
            runs.v_matrix[ends], runs.cross_term[ends], runs.theta_hat[ends] = v_next, cross_next, theta_next
            runs.logdet_v[ends] = runs.logdet_v[ends] + np.log1p(quad)
            runs.info_sum[ends] = runs.info_sum[ends] + quad

            step = {
                "cost": cost, "beta": runs.beta[ends], "rejections": runs.rejections[ends],
                "state_norm": runs.state_norm[ends], "fallback": runs.fallback[ends], "gain": gains,
                "z_norm": np.sqrt(np.vecdot(z, z)), "logdet": runs.logdet_v[ends], "info": runs.info_sum[ends],
            }
            at = (runs.index[ends], runs.step[ends])
            for name, value in step.items():
                record[name][at] = value

            runs.state[ends] = next_state
            runs.state_norm[ends] = np.sqrt(np.vecdot(next_state, next_state))
            runs.step[ends] += 1
            runs.fresh[ends] = True
            # Also true when the state has a NaN or an inf.
            unstable = ends[~(runs.state_norm[ends] <= state_ceiling)]
            fail({
                j: UnstableRollout(f"online state norm exceeded {state_ceiling:g} at step {runs.step[j]}")
                for j in unstable
            })
        if not live.all():
            runs.keep(live)
    return results


def _objects(items: list) -> np.ndarray:
    # A 1-d object array, which keep() can index like the numeric arrays.
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return arr


def _episode_result(
    theta_star: ThetaParams,
    src_raw: MultiSourceSummary,
    src: MultiSourceSummary,
    j_star: float,
    set_q: ConstraintSetQ,
    horizon: int,
    checkpoint_ts: List[int],
    checkpoint_theta: np.ndarray,
    checkpoint_v: np.ndarray,
    belief: BeliefState,
    seed: int,
    record: Dict[str, np.ndarray],
) -> EpisodeResult:
    """The trace and the property checks of one run, from its per-step record."""
    checkpoints = []
    for slot, step_t in enumerate(checkpoint_ts):
        diff = checkpoint_theta[slot] - theta_star.stacked
        err = math.sqrt(max(float(np.trace(diff.T @ checkpoint_v[slot] @ diff)), 0.0))
        beta_t = float(record["beta"][step_t - 1])
        checkpoints.append(CheckpointRecord(t=step_t, error=err, beta=beta_t, ok=err <= beta_t))

    # Information inequalities: sum_s z_s^T V_s^{-1} z_s against the log-det
    # growth, with the running max of ||z||; they assume the warm-start
    # precision actually used grows like S/40, which variants that replace it
    # do not.
    d, s_total = theta_star.n + theta_star.m, src_raw.s_total
    z_max = np.maximum.accumulate(record["z_norm"])
    zt_rhs = 2.0 * np.maximum(1.0, 40.0 * z_max**2 / s_total) * (record["logdet"] - belief.logdet_u)
    z_top = float(z_max[-1]) if horizon else 0.0
    polylog_lhs = belief.logdet_v - belief.logdet_u
    polylog_rhs = d * math.log1p(40.0 * horizon * z_top**2 / (d * s_total))
    prior_lambda_ok = all(lambda_floor(s)[1] for s in src.summaries)

    true_cl = np.linalg.norm(theta_star.a_matrix + theta_star.b_matrix @ record["gain"], 2, axis=(1, 2))
    fallback_steps = int(np.count_nonzero(record["fallback"]))

    instant = record["cost"] - j_star
    trace = RegretTrace(
        t=np.arange(1, horizon + 1, dtype=np.int64),
        cost=record["cost"],
        instant_regret=instant,
        cum_regret=np.cumsum(instant),
        beta=record["beta"],
        rejections=record["rejections"],
        state_norm=record["state_norm"],
        j_star=j_star,
        seed=seed,
    )
    diagnostics = EpisodeDiagnostics(
        checkpoints=tuple(checkpoints),
        coverage_ok=all(c.ok for c in checkpoints),
        zt_violations=int(np.count_nonzero(record["info"] > zt_rhs * (1.0 + 1e-9) + 1e-9)),
        polylog_ok=polylog_lhs <= polylog_rhs * (1.0 + 1e-9) + 1e-9,
        prior_lambda_ok=prior_lambda_ok,
        fallback_steps=fallback_steps,
        accepted_steps=horizon - fallback_steps,
        true_closed_loop_max=float(true_cl.max(initial=0.0)),
        true_closed_loop_violations=int(np.count_nonzero(true_cl > set_q.rho)),
    )
    return EpisodeResult(trace=trace, belief=belief, diagnostics=diagnostics)


def run_episode(
    theta_star_hidden: ThetaParams,
    sources: SourcesLike,
    costs: CostMatrices,
    set_q: ConstraintSetQ,
    horizon: int,
    delta2: float,
    variant: str,
    rng: RngStream,
    sampler_rng: RngStream,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    beta_mdelta_scale: float = 1.0,
    state_ceiling: float = DEFAULT_STATE_CEILING,
    seed: int = 0,
) -> EpisodeResult:
    """Run one online episode of the given variant against the hidden system,
    with process noise from rng and candidates from sampler_rng: the one-run
    batch of run_episodes, raising the error of a failed run."""
    (result,) = run_episodes(
        [theta_star_hidden], [sources], costs, set_q, horizon, delta2, variant, [rng], [sampler_rng],
        max_attempts=max_attempts, beta_mdelta_scale=beta_mdelta_scale,
        state_ceiling=state_ceiling, seeds=[seed],
    )
    if isinstance(result, TsodLqrError):
        raise result
    return result
