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
    admitted_stack,
    failure_text,
    q_membership,
    solve_dare,
    solve_dare_stack,
)
from .offline import OfflineSummary, lambda_floor, self_normalized_radius
from .rng import RngStream
from .sim import step_systems
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


@dataclass(frozen=True, eq=False)
class _Samples:
    """The batch sampler's result: per run the parameter, its gain, the
    rejections and the fallback flag, and the runs that raised, by index."""

    theta: np.ndarray
    gain: np.ndarray
    rejections: np.ndarray
    fallback: np.ndarray
    errors: Dict[int, TsodLqrError]


def _sample_batch(
    v_matrix: np.ndarray,
    mean: np.ndarray,
    beta: np.ndarray,
    set_q: ConstraintSetQ,
    costs: CostMatrices,
    rngs: Sequence[RngStream],
    max_attempts: int,
    ladder: Callable[[int], Iterable[ThetaParams]],
) -> _Samples:
    """sample_constrained for every run of a batch: precisions (R, d, d),
    means (R, d, n) and widths (R,), with run i drawing from rngs[i].

    One stacked eigh gives every V^{-1/2}.  Then each round, every run that
    has not yet been admitted draws its next block of SAMPLE_BLOCK candidates
    with one call on its own generator; the round screens and solves all of
    them in one stacked call, and each run takes its first admitted candidate
    in draw order.  Runs that exhaust max_attempts try the candidates of
    ladder(i), their fallback ladder, one by one.  A run that raises
    TsodLqrError is reported in `errors`, and its entries in the other fields
    are meaningless.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    count, d, n = mean.shape
    m = d - n
    samples = _Samples(
        theta=mean.copy(),
        gain=np.zeros((count, m, n)),
        rejections=np.full(count, max_attempts, dtype=np.int64),
        fallback=np.zeros(count, dtype=bool),
        errors={},
    )
    for i in np.flatnonzero(beta < 0):
        samples.errors[int(i)] = DomainError("beta must be nonnegative")
    eigvals, eigvecs = np.linalg.eigh(v_matrix)
    for i in np.flatnonzero(eigvals[:, 0] <= 0):
        samples.errors.setdefault(int(i), SingularPrecision("belief precision is not positive definite"))
    pending = np.array([i for i in range(count) if i not in samples.errors], dtype=np.int64)
    if not pending.size:
        return samples
    inv_half = (eigvecs[pending] / np.sqrt(eigvals[pending])[:, None, :]) @ eigvecs[pending].mT
    mean_p, beta_p = mean[pending], beta[pending]
    starts = [rngs[i].bit_generator.state for i in pending]
    drawn = 0
    while pending.size and drawn < max_attempts:
        size = min(SAMPLE_BLOCK, max_attempts - drawn)
        normals = np.empty((pending.size, size, d, n))
        for j, i in enumerate(pending):
            rngs[i].standard_normal(out=normals[j])
        blocks = mean_p[:, None] + beta_p[:, None, None, None] * (inv_half[:, None] @ normals)
        if not np.isfinite(blocks).all():
            raise ValueError("sampled parameter has non-finite entries")
        admitted, gains = admitted_stack(blocks.reshape(-1, d, n), costs, set_q)
        admitted = admitted.reshape(pending.size, size)
        first = admitted.argmax(axis=1)
        found = admitted[np.arange(pending.size), first]
        for j in np.flatnonzero(found):
            i, k = pending[j], int(first[j])
            samples.theta[i] = blocks[j, k]
            samples.gain[i] = gains[j * size + k]
            samples.rejections[i] = drawn + k
            if k + 1 < size:
                # Leave the stream where one draw per tested candidate leaves it.
                rngs[i].bit_generator.state = starts[j]
                rngs[i].standard_normal((drawn + k + 1, d, n))
        keep = ~found
        pending, mean_p, beta_p, inv_half = pending[keep], mean_p[keep], beta_p[keep], inv_half[keep]
        starts = [state for state, kept in zip(starts, keep) if kept]
        drawn += size
    for i in pending:
        for candidate in ladder(i):
            sol = q_membership(candidate, costs, set_q)
            if sol is not None:
                samples.theta[i] = candidate.stacked
                samples.gain[i] = sol.gain
                samples.fallback[i] = True
                break
        else:
            samples.errors[int(i)] = NonStabilizable("no admissible fallback parameter found")
    return samples


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
    is screened at once, and the candidates that pass are solved at once.
    Once candidate i, the first admitted in draw order, is taken, the stream
    is restored and i + 1 candidates are redrawn, so it ends where one draw
    per tested candidate leaves it.  This is the one-run batch of the
    sampler that run_episodes steps all runs with.
    """
    samples = _sample_batch(
        belief.v_matrix[None],
        belief.theta_hat.stacked[None],
        np.array([float(beta)]),
        set_q,
        costs,
        [rng],
        max_attempts,
        lambda i: _fallback_candidates(belief.theta_hat, anchor, last_accepted),
    )
    if samples.errors:
        raise samples.errors[0]
    return SampleOutcome(
        ThetaParams.from_stacked(samples.theta[0], belief.n, belief.m),
        samples.gain[0],
        int(samples.rejections[0]),
        bool(samples.fallback[0]),
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


def _log1p(values: np.ndarray) -> np.ndarray:
    # math.log1p per entry: np.log1p differs from it in the last bit.
    return np.array([math.log1p(value) for value in values.tolist()])


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
        logdet_v=belief.logdet_v + float(_log1p(quad)[0]),
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
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    beta_mdelta_scale: float = 1.0,
    state_ceiling: float = DEFAULT_STATE_CEILING,
    seeds: Optional[Sequence[int]] = None,
) -> List[Union[EpisodeResult, TsodLqrError]]:
    """Run one online episode per hidden system, all in lockstep: run i plays
    theta_stars[i] as variants[i] (one variant string stands for every run)
    from the prior of sources[i] and draws from rngs[i] alone, so its result
    does not depend on the others.

    Per step: sample an admissible parameter, apply its gain, observe the
    transition and stage cost, and apply the rank-one belief update, each as
    one stacked operation over the runs.  The oracle variant plays the hidden
    parameters directly and serves as a policy-level sanity check.  A state
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
    count = len(theta_stars)
    seeds = list(seeds) if seeds is not None else [0] * count
    variants = [variants] * count if isinstance(variants, str) else list(variants)
    # x' = theta^T z is a matrix-vector product, whose bits depend on the
    # memory layout of theta, so the hidden systems are stacked in their own
    # layout, and a batch that mixes two layouts runs as two batches.
    fortran = [_fortran(theta.stacked) for theta in theta_stars]
    results: List[Union[EpisodeResult, TsodLqrError, None]] = [None] * count
    if len(set(fortran)) > 1:
        for layout in (False, True):
            part = [i for i in range(count) if fortran[i] == layout]
            outcomes = run_episodes(
                [theta_stars[i] for i in part], [sources[i] for i in part], costs, set_q, horizon,
                delta2, [variants[i] for i in part], [rngs[i] for i in part], max_attempts=max_attempts,
                beta_mdelta_scale=beta_mdelta_scale, state_ceiling=state_ceiling,
                seeds=[seeds[i] for i in part],
            )
            for i, outcome in zip(part, outcomes):
                results[i] = outcome
        return results
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
    star_stack = _stack([theta_stars[i].stacked for i in sized], n + m, n)
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
        rng=_objects([rngs[i] for i in started]),
        oracle=np.array([variants[i] == "oracle" for i in started], dtype=bool),
        anchor=_objects([belief.theta_hat for belief in beliefs]),
        last_accepted=np.zeros((len(started), n + m, n)),
        has_last=np.zeros(len(started), dtype=bool),
        theta_star=star_stack[solved],
        star_gain=star_sols.gain[solved],
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
    )

    def drop(errors: Dict[int, TsodLqrError]) -> np.ndarray:
        """Record the errors of the runs at these positions and drop those
        runs from the batch; returns the mask of the runs kept."""
        kept = np.ones(runs.index.size, dtype=bool)
        for j, error in errors.items():
            results[runs.index[j]] = error
            kept[j] = False
        runs.keep(kept)
        return kept

    # The per-step record of every run, and the belief at sampling time of
    # each checkpoint step.
    record = {name: np.zeros((count, horizon)) for name in ("cost", "beta", "state_norm", "z_norm", "logdet", "info")}
    record["rejections"] = np.zeros((count, horizon), dtype=np.int64)
    record["fallback"] = np.zeros((count, horizon), dtype=bool)
    record["gain"] = np.zeros((count, horizon, m, n))
    checkpoint_theta = np.zeros((count, len(checkpoint_ts), n + m, n))
    checkpoint_v = np.zeros((count, len(checkpoint_ts), n + m, n + m))

    for idx in range(horizon):
        if not runs.index.size:
            break
        step_t = idx + 1
        beta_t, inconsistent = _betas(
            n, runs.logdet_v, runs.logdet_u, runs.alpha_sum, runs.mdelta_sum, delta2, beta_mdelta_scale
        )
        if inconsistent.any():
            beta_t = beta_t[drop({j: DomainError(_INCONSISTENT) for j in np.flatnonzero(inconsistent)})]
        if step_t in checkpoint_ts:
            slot = checkpoint_ts.index(step_t)
            checkpoint_theta[runs.index, slot] = runs.theta_hat
            checkpoint_v[runs.index, slot] = runs.v_matrix
        # Oracle runs play the hidden system's gain; the others sample.
        gains = runs.star_gain.copy()
        rejections = np.zeros(runs.index.size, dtype=np.int64)
        fallback = np.zeros(runs.index.size, dtype=bool)
        learners = np.flatnonzero(~runs.oracle)
        if learners.size:

            def ladder(k: int) -> Iterable[ThetaParams]:
                # Before the first update the mean is the prior's own object,
                # which the ladder solves as it is.
                j = learners[k]
                hat = runs.anchor[j] if idx == 0 else ThetaParams.from_stacked(runs.theta_hat[j], n, m)
                last = ThetaParams.from_stacked(runs.last_accepted[j], n, m) if runs.has_last[j] else None
                return _fallback_candidates(hat, runs.anchor[j], last)

            samples = _sample_batch(
                runs.v_matrix[learners], runs.theta_hat[learners], beta_t[learners], set_q, costs,
                runs.rng[learners], max_attempts, ladder,
            )
            gains[learners] = samples.gain
            rejections[learners], fallback[learners] = samples.rejections, samples.fallback
            accepted = learners[~samples.fallback]
            runs.last_accepted[accepted] = samples.theta[~samples.fallback]
            runs.has_last[accepted] = True
            if samples.errors:
                kept = drop({learners[k]: error for k, error in samples.errors.items()})
                beta_t, gains, rejections, fallback = beta_t[kept], gains[kept], rejections[kept], fallback[kept]
            if not runs.index.size:
                break

        noise = np.empty((runs.index.size, n))
        for j, rng in enumerate(runs.rng):
            rng.standard_normal(out=noise[j])
        controls = (gains @ runs.state[:, :, None])[:, :, 0]
        z, next_state, cost = step_systems(runs.theta_star, runs.state, controls, costs, noise)
        runs.v_matrix, runs.cross_term, runs.theta_hat, quad = _update_beliefs(
            runs.v_matrix, runs.cross_term, z, next_state
        )
        runs.logdet_v = runs.logdet_v + _log1p(quad)
        runs.info_sum = runs.info_sum + quad

        step = {
            "cost": cost, "beta": beta_t, "rejections": rejections, "state_norm": runs.state_norm,
            "fallback": fallback, "gain": gains, "z_norm": np.sqrt(np.vecdot(z, z)),
            "logdet": runs.logdet_v, "info": runs.info_sum,
        }
        for name, value in step.items():
            record[name][runs.index, idx] = value

        runs.state = next_state
        runs.state_norm = np.sqrt(np.vecdot(next_state, next_state))
        unstable = ~(runs.state_norm <= state_ceiling)  # also true when the state has a NaN or an inf
        if unstable.any():
            message = f"online state norm exceeded {state_ceiling:g} at step {step_t}"
            drop({j: UnstableRollout(message) for j in np.flatnonzero(unstable)})

    for j, i in enumerate(runs.index):
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
    return results


def _fortran(arr: np.ndarray) -> bool:
    return arr.flags.f_contiguous and not arr.flags.c_contiguous


def _stack(arrays: List[np.ndarray], rows: int, cols: int) -> np.ndarray:
    """The (R, rows, cols) stack of arrays, in Fortran order slice by slice
    when the arrays are."""
    if arrays and _fortran(arrays[0]):
        return np.array([arr.T for arr in arrays]).mT
    return np.array(arrays).reshape(-1, rows, cols)


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
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    beta_mdelta_scale: float = 1.0,
    state_ceiling: float = DEFAULT_STATE_CEILING,
    seed: int = 0,
) -> EpisodeResult:
    """Run one online episode of the given variant against the hidden system:
    the one-run batch of run_episodes, raising the error of a failed run."""
    (result,) = run_episodes(
        [theta_star_hidden], [sources], costs, set_q, horizon, delta2, variant, [rng],
        max_attempts=max_attempts, beta_mdelta_scale=beta_mdelta_scale,
        state_ceiling=state_ceiling, seeds=[seed],
    )
    if isinstance(result, TsodLqrError):
        raise result
    return result
