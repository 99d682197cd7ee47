"""Ground-truth simulation of the discrete-time linear systems with i.i.d.
standard-normal noise, plus the random offsets of the true parameters."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, DomainError
from .lqr import CostMatrices, ThetaParams
from .rng import RngStream


def step_systems(
    thetas: np.ndarray, states: np.ndarray, controls: np.ndarray, costs: CostMatrices, noise: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """step_system for every run of a batch: stacked parameters (R, n+m, n),
    states (R, n), controls (R, m) and noise (R, n) give the regressors
    (R, n+m), the next states (R, n) and the stage costs (R,)."""
    z = np.concatenate([states, controls], axis=1)
    next_states = (thetas.mT @ z[:, :, None])[:, :, 0] + noise
    # A row vector times Q, then vecdot: the bits of x @ Q @ x for each run.
    cost = np.vecdot((states[:, None, :] @ costs.q_matrix)[:, 0], states)
    cost = cost + np.vecdot((controls[:, None, :] @ costs.r_matrix)[:, 0], controls)
    return z, next_states, cost


def step_system(
    theta: ThetaParams,
    state,
    control,
    costs: CostMatrices,
    rng: RngStream,
    noise: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Simulate one step from state x under control u: returns the regressor
    z = [x; u], the next state theta^T z + w with w standard normal, and the
    stage cost of the current (x, u).

    `noise` overrides the Gaussian draw, which lets tests pin transitions
    exactly.
    """
    x = np.asarray(state, dtype=np.float64).reshape(-1)
    u = np.asarray(control, dtype=np.float64).reshape(-1)
    if x.shape != (theta.n,):
        raise DimensionMismatch(f"state must have length {theta.n}, got {x.shape}")
    if u.shape != (theta.m,):
        raise DimensionMismatch(f"control must have length {theta.m}, got {u.shape}")
    if costs.n != theta.n or costs.m != theta.m:
        raise DimensionMismatch("cost matrices do not match the system dimensions")
    if noise is None:
        w = rng.standard_normal(theta.n)
    else:
        w = np.asarray(noise, dtype=np.float64).reshape(-1)
        if w.shape != (theta.n,):
            raise DimensionMismatch(f"noise must have length {theta.n}, got {w.shape}")
    z, next_state, cost = step_systems(theta.stacked[None], x[None], u[None], costs, w[None])
    return z[0], next_state[0], float(cost[0])


def sample_theta_delta(m_delta: float, n: int, m: int, rng: RngStream) -> ThetaParams:
    """Random offset: uniform direction on the Frobenius sphere, radius uniform
    in [0, m_delta].  The result always satisfies ||delta||_F <= m_delta."""
    if m_delta < 0:
        raise DomainError("m_delta must be nonnegative")
    direction = rng.standard_normal((n + m, n))
    norm = float(np.linalg.norm(direction))
    radius = rng.uniform(0.0, m_delta)
    scale = radius / norm if norm > 0.0 else 0.0
    return ThetaParams.from_stacked(direction * scale, n, m)
