"""Offline data generation on the auxiliary system and the summary statistics
(precision matrix, estimate, confidence radius) that warm-start online runs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, DomainError, SingularPrecision, UnstableRollout
# solve_dare stays bound here: perfbench's tracer wraps it in every module that holds it.
from .lqr import ConstraintSetP, CostMatrices, ThetaParams, solve_dare, solve_dare_stack  # noqa: F401
from .rng import RngStream
from .traces import load_csv_rows

CONTROLLER_MODES = ("ce_dither", "fixed_gain")


@dataclass(frozen=True, eq=False)
class OfflineConfig:
    """Settings for the offline data collector.

    The default collector runs certainty-equivalence control with Gaussian
    exploration dither, refreshing the gain from the running estimate every
    `gain_refresh` steps; `fixed_gain` mode holds a constant gain instead.
    """

    set_p: ConstraintSetP
    dither_std: float = 1.0
    regularizer: float = 1.0
    controller_mode: str = "ce_dither"
    fixed_gain: Optional[np.ndarray] = None
    gain_refresh: int = 50
    state_ceiling: float = 1e6

    def __post_init__(self):
        if self.dither_std <= 0:
            raise ValueError("dither_std must be positive")
        if self.regularizer <= 0:
            raise ValueError("regularizer must be positive")
        if self.controller_mode not in CONTROLLER_MODES:
            raise ValueError(f"controller_mode must be one of {CONTROLLER_MODES}")
        if self.controller_mode == "fixed_gain" and self.fixed_gain is None:
            raise ValueError("fixed_gain mode requires a gain matrix")
        if self.gain_refresh < 1:
            raise ValueError("gain_refresh must be at least 1")
        if self.state_ceiling <= 0:
            raise ValueError("state_ceiling must be positive")


@dataclass(frozen=True, eq=False)
class OfflineSummary:
    """Sufficient statistics of an offline run.

    `u_matrix` is the regularized precision (regularizer * I plus the Gram
    matrix of the regressors); `regularizer` is kept so diagnostics can also
    report the unregularized spectrum.
    """

    u_matrix: np.ndarray
    theta_hat_sim: ThetaParams
    alpha: float
    s_len: int
    m_delta: float
    delta1: float
    regularizer: float

    def __post_init__(self):
        u = np.array(self.u_matrix, dtype=np.float64)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatch(f"u_matrix must be square, got {u.shape}")
        if np.linalg.norm(u - u.T) > 1e-10 * max(1.0, np.linalg.norm(u)):
            raise ValueError("u_matrix is not symmetric")
        d = self.theta_hat_sim.n + self.theta_hat_sim.m
        if u.shape[0] != d:
            raise DimensionMismatch(f"u_matrix must be {d} x {d}, got {u.shape}")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be finite and nonnegative")
        if self.s_len < 1:
            raise ValueError("s_len must be at least 1")
        if self.m_delta < 0:
            raise ValueError("m_delta must be nonnegative")
        if not 0.0 < self.delta1 < 1.0:
            raise DomainError("delta1 must lie in (0, 1)")
        u.setflags(write=False)
        object.__setattr__(self, "u_matrix", u)

    def __reduce__(self):
        # Unpickling skips __post_init__ and drops numpy's write flag, so rebuild.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n(self) -> int:
        return self.theta_hat_sim.n

    @property
    def m(self) -> int:
        return self.theta_hat_sim.m


def self_normalized_radius(n: int, half_logdet_ratio, delta: float):
    """n sqrt(2 (max(half_logdet_ratio, 0) + log(1 / delta))): the
    self-normalized confidence radius for half the log-det ratio of a
    precision to its starting value, entry by entry for an array of ratios."""
    return n * np.sqrt(2.0 * (np.maximum(half_logdet_ratio, 0.0) + math.log(1.0 / delta)))


def alpha_from_bound(
    u_matrix: np.ndarray, n: int, delta1: float, regularizer: float, phi: float
) -> float:
    """Confidence radius from the self-normalized log-determinant bound, plus
    the regularization bias term sqrt(regularizer) * phi.

    Strictly increasing as delta1 decreases toward zero.
    """
    if not 0.0 < delta1 < 1.0:
        raise DomainError("delta1 must lie in (0, 1)")
    if regularizer <= 0:
        raise ValueError("regularizer must be positive")
    u = np.asarray(u_matrix, dtype=np.float64)
    d = u.shape[0]
    sign, logdet_u = np.linalg.slogdet(u)
    if sign <= 0:
        raise SingularPrecision("u_matrix must be positive definite")
    half_ratio = 0.5 * (logdet_u - d * math.log(regularizer))
    return float(self_normalized_radius(n, half_ratio, delta1) + math.sqrt(regularizer) * phi)


def _refresh_gains(
    u: np.ndarray, cross: np.ndarray, costs: CostMatrices, previous: np.ndarray
) -> np.ndarray:
    """The certainty-equivalence gains of the running estimates of a batch,
    precisions (R, d, d) and cross terms (R, d, n), from one stacked Riccati
    solve; a run whose estimate is not stabilizable keeps its previous gain."""
    theta_hat = np.linalg.solve(u, cross)
    if not np.isfinite(theta_hat).all():
        raise ValueError("stacked has non-finite entries")
    sols = solve_dare_stack(theta_hat, costs)
    return np.where((sols.failure == 0)[:, None, None], sols.gain, previous)


OfflineDataset = Tuple[OfflineSummary, np.ndarray, np.ndarray]


def _add_outer(total: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """total (R, p, q) plus the outer products of the rows k of left (R, K, p)
    and right (R, K, q), added one after another in order of k."""
    terms = np.empty((total.shape[0], left.shape[1] + 1) + total.shape[1:])
    terms[:, 0] = total
    np.multiply(left[:, :, :, None], right[:, :, None, :], out=terms[:, 1:])
    return np.add.accumulate(terms, axis=1)[:, -1].copy()


def collect_offline_batch(
    theta_sim: ThetaParams,
    costs: CostMatrices,
    s_len: int,
    cfg: OfflineConfig,
    delta1: float,
    m_delta: float,
    rngs: Sequence[RngStream],
) -> List[Union[OfflineDataset, UnstableRollout]]:
    """Roll out the auxiliary system for s_len steps once per generator, all
    runs in lockstep, and accumulate each run's statistics: run i draws from
    rngs[i] alone, so its result does not depend on the others.

    Each step is one stacked operation over the runs' states (R, n), the Gram
    stacks (R, d, d) and (R, d, n) take the terms of a window of steps at
    once, and each gain refresh is one stacked Riccati solve.  The arithmetic
    is that of a one-run loop over the steps, so each run gets its bits.  A
    run whose state norm exceeds the ceiling, or is not finite, leaves the
    batch at that step, and its entry of the result is the UnstableRollout;
    the other entries are (summary, states, controls), where states has
    shape (s_len + 1, n) (the last row is the terminal state) and controls
    has shape (s_len, m).
    """
    if s_len < 1:
        raise ValueError("s_len must be at least 1")
    n, m = theta_sim.n, theta_sim.m
    d = n + m
    count = len(rngs)
    lam0 = cfg.regularizer

    if cfg.controller_mode == "fixed_gain":
        gain = np.asarray(cfg.fixed_gain, dtype=np.float64)
        if gain.shape != (m, n):
            raise DimensionMismatch(f"fixed_gain must be {(m, n)}, got {gain.shape}")
        gain = np.repeat(gain[None], count, axis=0)
    else:
        # Gain of the zero initial estimate; stabilizing for that estimate.
        gain = np.zeros((count, m, n))
    u = np.repeat(lam0 * np.eye(d)[None], count, axis=0)
    cross = np.zeros((count, d, n))
    xi = np.zeros((count, n))
    ab = theta_sim.stacked.T
    states = np.zeros((count, s_len + 1, n))
    controls = np.zeros((count, s_len, m))
    results: List[Union[OfflineDataset, UnstableRollout, None]] = [None] * count
    live = np.arange(count)

    # The steps run in windows of gain_refresh, with the gains refreshed at
    # the start of every window but the first.  Each live run draws the
    # window's noise with one call, which gives the normals that one draw
    # of m and then one of n per step would give: row k holds the dither
    # and the process noise of the window's step k.  The Gram terms of a
    # window's steps are added at its end by one add.accumulate, which adds
    # them one after another, as step-by-step sums would.  A non-finite
    # state is caught by the ceiling test at its step, so numpy's warnings
    # about it are silenced.
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, s_len, cfg.gain_refresh):
            if not live.size:
                break
            stop = min(start + cfg.gain_refresh, s_len)
            if cfg.controller_mode == "ce_dither" and start > 0:
                gain = _refresh_gains(u, cross, costs, gain)
            noise = np.empty((live.size, stop - start, m + n))
            for j, i in enumerate(live):
                rngs[i].standard_normal(out=noise[j])
            noise[:, :, :m] *= cfg.dither_std
            # Row k holds the regressor [xi; v] of the window's step k.
            window = np.empty((live.size, stop - start, d))
            for k in range(stop - start):
                y = np.concatenate([xi, (gain @ xi[:, :, None])[:, :, 0] + noise[:, k, :m]], axis=1)
                xi = (ab[None] @ y[:, :, None])[:, :, 0] + noise[:, k, m:]
                window[:, k] = y
                norms = np.sqrt(np.vecdot(xi, xi))
                if not norms.max() <= cfg.state_ceiling:  # also true when a state has a NaN or an inf
                    unstable = ~(norms <= cfg.state_ceiling)
                    message = f"offline state norm exceeded {cfg.state_ceiling:g} at step {start + k + 1}"
                    for i in live[unstable]:
                        results[i] = UnstableRollout(message)
                    keep = ~unstable
                    live, gain, u, cross, xi = live[keep], gain[keep], u[keep], cross[keep], xi[keep]
                    noise, window = noise[keep], window[keep]
                    if not live.size:
                        break
            nexts = np.concatenate([window[:, 1:, :n], xi[:, None]], axis=1)
            u = _add_outer(u, window, window)
            cross = _add_outer(cross, window, nexts)
            states[live, start:stop] = window[:, :, :n]
            controls[live, start:stop] = window[:, :, n:]
    states[live, s_len] = xi

    u = 0.5 * (u + u.mT)
    theta_hat = np.linalg.solve(u, cross)
    for j, i in enumerate(live):
        summary = OfflineSummary(
            u_matrix=u[j],
            theta_hat_sim=ThetaParams.from_stacked(theta_hat[j], n, m),
            alpha=alpha_from_bound(u[j], n, delta1, lam0, cfg.set_p.phi),
            s_len=s_len,
            m_delta=m_delta,
            delta1=delta1,
            regularizer=lam0,
        )
        results[i] = (summary, states[i], controls[i])
    return results


def simulate_offline(
    theta_sim: ThetaParams,
    costs: CostMatrices,
    s_len: int,
    cfg: OfflineConfig,
    delta1: float,
    m_delta: float,
    rng: RngStream,
) -> OfflineDataset:
    """Roll out the auxiliary system for s_len steps and accumulate statistics:
    the one-run batch of collect_offline_batch, raising UnstableRollout when
    the state norm exceeds the ceiling.

    Returns (summary, states, controls) where states has shape (s_len + 1, n)
    (the last row is the terminal state) and controls has shape (s_len, m).
    """
    (result,) = collect_offline_batch(theta_sim, costs, s_len, cfg, delta1, m_delta, [rng])
    if isinstance(result, UnstableRollout):
        raise result
    return result


@dataclass(frozen=True)
class Assumption2Report:
    """Empirical check of the offline-algorithm interface requirements."""

    s_len: int
    delta1: float
    s_threshold: float
    s_ok: bool
    lambda_min_unreg: float
    lambda_ok: bool
    estimation_error: float
    alpha: float
    coverage_ok: bool


def lambda_floor(summary: OfflineSummary) -> Tuple[float, bool]:
    """lambda_min of the unregularized Gram matrix, and whether it reaches
    S / 40.  The regularizer shifts every eigenvalue of U by exactly its value."""
    lam_min_unreg = float(np.linalg.eigvalsh(summary.u_matrix)[0]) - summary.regularizer
    return lam_min_unreg, lam_min_unreg >= summary.s_len / 40.0


def check_assumption2(
    summary: OfflineSummary, theta_sim_true: ThetaParams, n: int, m: int
) -> Assumption2Report:
    """Report (a) trajectory-length threshold, (b) smallest-eigenvalue growth of
    the unregularized Gram matrix, and (c) whether the confidence radius covers
    the realized estimation error."""
    if (summary.n, summary.m) != (n, m):
        raise DimensionMismatch("summary dimensions do not match (n, m)")
    d = n + m
    s_threshold = 200.0 * d * math.log(12.0 / summary.delta1)
    s_ok = summary.s_len >= s_threshold
    lam_min_unreg, lambda_ok = lambda_floor(summary)
    diff = summary.theta_hat_sim.stacked - theta_sim_true.stacked
    err_sq = float(np.trace(diff.T @ summary.u_matrix @ diff))
    err = math.sqrt(max(err_sq, 0.0))
    return Assumption2Report(
        s_len=summary.s_len,
        delta1=summary.delta1,
        s_threshold=s_threshold,
        s_ok=s_ok,
        lambda_min_unreg=lam_min_unreg,
        lambda_ok=lambda_ok,
        estimation_error=err,
        alpha=summary.alpha,
        coverage_ok=err <= summary.alpha,
    )


def _trajectory_header(n: int, m: int) -> str:
    return ",".join(["s"] + [f"xi{i + 1}" for i in range(n)] + [f"v{j + 1}" for j in range(m)])


_SIDECAR_KEYS = "n m s_len m_delta delta1 regularizer alpha u_matrix theta_hat_a theta_hat_b".split()


def save_offline(
    basepath, summary: OfflineSummary, states: np.ndarray, controls: np.ndarray
) -> None:
    """Write `<base>.csv` (trajectory) and `<base>.json` (summary sidecar).

    CSV columns are s, xi1..xin, v1..vm; the final row carries the terminal
    state with zero-padded controls.
    """
    base = Path(basepath)
    n, m = summary.n, summary.m
    s_len = summary.s_len
    if states.shape != (s_len + 1, n) or controls.shape != (s_len, m):
        raise DimensionMismatch("trajectory arrays do not match the summary")
    table = np.column_stack([np.arange(1, s_len + 2), states, np.vstack([controls, np.zeros((1, m))])])
    with open(base.with_suffix(".csv"), "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt="%d" + ",%.17g" * (n + m), header=_trajectory_header(n, m), comments="")
    sidecar = {
        "n": n,
        "m": m,
        "s_len": s_len,
        "m_delta": summary.m_delta,
        "delta1": summary.delta1,
        "regularizer": summary.regularizer,
        "alpha": summary.alpha,
        "u_matrix": summary.u_matrix.tolist(),
        "theta_hat_a": summary.theta_hat_sim.a_matrix.tolist(),
        "theta_hat_b": summary.theta_hat_sim.b_matrix.tolist(),
    }
    with open(base.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_offline(basepath) -> Tuple[OfflineSummary, np.ndarray, np.ndarray]:
    """Load a trajectory and summary written by save_offline.  Blank lines
    are skipped; a sidecar key, a header field, a row or a number that is
    missing, repeated or malformed, or a sidecar whose n and m disagree with
    the shapes of its matrices, raises ValueError."""
    base = Path(basepath)
    with open(base.with_suffix(".json"), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    for key in _SIDECAR_KEYS:
        if key not in sidecar:
            raise ValueError(f"offline sidecar {base.with_suffix('.json')} lacks the key {key!r}")
    n, m, s_len = sidecar["n"], sidecar["m"], sidecar["s_len"]
    shapes = {key: np.shape(sidecar[key]) for key in ("theta_hat_a", "theta_hat_b", "u_matrix")}
    if list(shapes.values()) != [(n, n), (n, m), (n + m, n + m)]:
        raise ValueError(
            f"offline sidecar {base.with_suffix('.json')} gives n={n}, m={m}, which do not match "
            + ", ".join(f"{key} of shape {shape}" for key, shape in shapes.items())
        )
    summary = OfflineSummary(
        u_matrix=np.array(sidecar["u_matrix"], dtype=np.float64),
        theta_hat_sim=ThetaParams(sidecar["theta_hat_a"], sidecar["theta_hat_b"]),
        alpha=float(sidecar["alpha"]),
        s_len=s_len,
        m_delta=float(sidecar["m_delta"]),
        delta1=float(sidecar["delta1"]),
        regularizer=float(sidecar["regularizer"]),
    )
    path = base.with_suffix(".csv")
    with open(path, newline="", encoding="utf-8") as fh:
        if fh.readline().rstrip("\r\n") != _trajectory_header(n, m):
            raise ValueError(f"trajectory CSV {path} header does not match the sidecar dimensions")
        try:
            rows = load_csv_rows(fh, [("s", np.int64), ("x", np.float64, (n + m,))])
        except ValueError as exc:
            raise ValueError(f"trajectory CSV {path}: {exc}") from None
    order = np.argsort(rows["s"])
    if not np.array_equal(rows["s"][order], np.arange(1, s_len + 2)):
        raise ValueError(f"trajectory CSV {path} does not hold the rows 1..{s_len + 1} once each")
    values = rows["x"][order]
    return summary, np.ascontiguousarray(values[:, :n]), np.ascontiguousarray(values[:s_len, n:])
