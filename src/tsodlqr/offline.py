"""Offline data generation on the auxiliary system and the summary statistics
(precision matrix, estimate, confidence radius) that warm-start online runs."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, DomainError, NonStabilizable, SingularPrecision, UnstableRollout
from .lqr import ConstraintSetP, CostMatrices, ThetaParams, solve_dare
from .rng import RngStream

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


def _refresh_gain(
    u: np.ndarray,
    cross: np.ndarray,
    n: int,
    m: int,
    costs: CostMatrices,
    previous: np.ndarray,
) -> np.ndarray:
    theta_hat = ThetaParams.from_stacked(np.linalg.solve(u, cross), n, m)
    try:
        return solve_dare(theta_hat, costs).gain
    except NonStabilizable:
        return previous


def simulate_offline(
    theta_sim: ThetaParams,
    costs: CostMatrices,
    s_len: int,
    cfg: OfflineConfig,
    delta1: float,
    m_delta: float,
    rng: RngStream,
) -> Tuple[OfflineSummary, np.ndarray, np.ndarray]:
    """Roll out the auxiliary system for s_len steps and accumulate statistics.

    Returns (summary, states, controls) where states has shape (s_len + 1, n)
    (the last row is the terminal state) and controls has shape (s_len, m).
    """
    if s_len < 1:
        raise ValueError("s_len must be at least 1")
    n, m = theta_sim.n, theta_sim.m
    d = n + m
    lam0 = cfg.regularizer

    u = lam0 * np.eye(d)
    cross = np.zeros((d, n))
    if cfg.controller_mode == "fixed_gain":
        gain = np.asarray(cfg.fixed_gain, dtype=np.float64)
        if gain.shape != (m, n):
            raise DimensionMismatch(f"fixed_gain must be {(m, n)}, got {gain.shape}")
    else:
        # Gain of the zero initial estimate; stabilizing for that estimate.
        gain = np.zeros((m, n))

    states = np.zeros((s_len + 1, n))
    controls = np.zeros((s_len, m))
    ab = theta_sim.stacked.T
    # Row s holds step s's dither and process noise, in the order that one
    # draw of m and then one of n per step would give them.
    noise = rng.standard_normal((s_len, m + n))
    dither = cfg.dither_std * noise[:, :m]
    process = noise[:, m:]
    xi = np.zeros(n)
    for s in range(s_len):
        if cfg.controller_mode == "ce_dither" and s > 0 and s % cfg.gain_refresh == 0:
            gain = _refresh_gain(u, cross, n, m, costs, gain)
        v = gain @ xi + dither[s]
        y = np.concatenate([xi, v])
        xi_next = ab @ y + process[s]
        u += np.outer(y, y)
        cross += np.outer(y, xi_next)
        states[s] = xi
        controls[s] = v
        xi = xi_next
        if not math.sqrt(xi @ xi) <= cfg.state_ceiling:  # also true when xi has a NaN or an inf
            raise UnstableRollout(
                f"offline state norm exceeded {cfg.state_ceiling:g} at step {s + 1}"
            )
    states[s_len] = xi

    u = 0.5 * (u + u.T)
    theta_hat = ThetaParams.from_stacked(np.linalg.solve(u, cross), n, m)
    alpha = alpha_from_bound(u, n, delta1, lam0, cfg.set_p.phi)
    summary = OfflineSummary(
        u_matrix=u,
        theta_hat_sim=theta_hat,
        alpha=alpha,
        s_len=s_len,
        m_delta=m_delta,
        delta1=delta1,
        regularizer=lam0,
    )
    return summary, states, controls


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
    with open(base.with_suffix(".csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["s"] + [f"xi{i + 1}" for i in range(n)] + [f"v{j + 1}" for j in range(m)])
        for s in range(s_len):
            row = [str(s + 1)]
            row += [f"{val:.17g}" for val in states[s]]
            row += [f"{val:.17g}" for val in controls[s]]
            writer.writerow(row)
        terminal = [str(s_len + 1)] + [f"{val:.17g}" for val in states[s_len]] + ["0"] * m
        writer.writerow(terminal)
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
    """Load a trajectory and summary written by save_offline."""
    base = Path(basepath)
    with open(base.with_suffix(".json"), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    n, m, s_len = sidecar["n"], sidecar["m"], sidecar["s_len"]
    summary = OfflineSummary(
        u_matrix=np.array(sidecar["u_matrix"], dtype=np.float64),
        theta_hat_sim=ThetaParams(sidecar["theta_hat_a"], sidecar["theta_hat_b"]),
        alpha=float(sidecar["alpha"]),
        s_len=s_len,
        m_delta=float(sidecar["m_delta"]),
        delta1=float(sidecar["delta1"]),
        regularizer=float(sidecar["regularizer"]),
    )
    states = np.zeros((s_len + 1, n))
    controls = np.zeros((s_len, m))
    seen = [False] * (s_len + 1)
    with open(base.with_suffix(".csv"), newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != 1 + n + m:
            raise ValueError("trajectory CSV header does not match the sidecar dimensions")
        for row in reader:
            s = int(row[0]) - 1
            if not 0 <= s <= s_len or seen[s]:
                raise ValueError(f"trajectory CSV row {row[0]} is outside 1..{s_len + 1} or repeated")
            seen[s] = True
            states[s] = [float(v) for v in row[1 : 1 + n]]
            if s < s_len:
                controls[s] = [float(v) for v in row[1 + n :]]
    if not all(seen):
        raise ValueError(f"trajectory CSV lacks {seen.count(False)} of its {s_len + 1} rows")
    return summary, states, controls
