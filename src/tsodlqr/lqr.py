"""Discrete-time LQR core: Riccati fixed point, optimal gain, and the
membership predicates for the admissible parameter sets.

All operations are pure functions of immutable value types and are safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, NonStabilizable

DEFAULT_TOL = 1e-10
# Doubling steps, not value-iteration steps: step k reaches horizon 2^k, so
# 100 steps cover a horizon of 2^100, far past any horizon at which a
# stabilizable system's iterates are still moving above the stopping step.
DEFAULT_MAX_ITERS = 100
DEFAULT_NORM_CEILING = 1e8
# Relative floor of the stopping step: rounding moves a large P by a multiple
# of eps * ||P|| each iteration, which an absolute tol alone may never undercut.
_STEP_EPS = 64 * np.finfo(np.float64).eps
# Relative margin of the closed-loop screen: far above the rounding error of
# either 2-norm, so the screen never rejects a theta that the solve and the
# norm test would admit.
SCREEN_MARGIN = 1.0 + 1e-9


def _as_matrix(value, name: str) -> np.ndarray:
    mat = np.array(value, dtype=np.float64, order="C")
    if mat.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} has non-finite entries")
    return mat


def _frobenius(mats: np.ndarray) -> np.ndarray:
    # np.linalg.norm of each slice of a (K, p, q) stack, bit for bit: the
    # vecdot of the flattened slices.  norm(axis=(1, 2)) differs in the last bit.
    flat = mats.reshape(len(mats), mats.shape[1] * mats.shape[2])
    return np.sqrt(np.vecdot(flat, flat))


def _check_spd(mat: np.ndarray, name: str) -> None:
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {mat.shape}")
    # Divided by its largest entry (floored for a zero matrix), neither the
    # difference nor a norm can overflow.
    unit = mat / max(np.abs(mat).max(initial=0.0), np.finfo(np.float64).tiny)
    residual = np.linalg.norm(unit - unit.T)
    if residual > 1e-12 * np.linalg.norm(unit):
        raise ValueError(f"{name} is not symmetric (relative residual {residual:.3e})")
    if mat.shape[0] == 0 or float(np.linalg.eigvalsh(mat)[0]) <= 0.0:
        raise ValueError(f"{name} is not positive definite")


@dataclass(frozen=True, init=False, eq=False)
class ThetaParams:
    """System parameters held once, as the read-only stacked (n+m) x n matrix
    theta whose transpose is [A B], always row-major (C-contiguous); A and B
    are read-only views of it."""

    stacked: np.ndarray

    def __init__(self, a_matrix, b_matrix):
        a = _as_matrix(a_matrix, "a_matrix")
        b = _as_matrix(b_matrix, "b_matrix")
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"a_matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatch("state dimension must be at least 1")
        if b.shape[0] != a.shape[0]:
            raise DimensionMismatch(
                f"b_matrix has {b.shape[0]} rows but the state dimension is {a.shape[0]}"
            )
        if b.shape[1] < 1:
            raise DimensionMismatch("input dimension must be at least 1")
        # vstack of the transposes would be column-major.
        stacked = np.ascontiguousarray(np.vstack([a.T, b.T]))
        stacked.setflags(write=False)
        object.__setattr__(self, "stacked", stacked)

    @classmethod
    def from_stacked(cls, stacked, n: int, m: int) -> "ThetaParams":
        arr = _as_matrix(stacked, "stacked")
        if arr.shape != (n + m, n) or n < 1 or m < 1:
            raise DimensionMismatch(f"stacked parameter must be {(n + m, n)} with n, m >= 1, got {arr.shape}")
        arr.setflags(write=False)
        theta = cls.__new__(cls)
        object.__setattr__(theta, "stacked", arr)
        return theta

    def __reduce__(self):
        # Unpickling skips __init__ and drops numpy's write flag, so rebuild.
        return type(self).from_stacked, (self.stacked, self.n, self.m)

    @property
    def n(self) -> int:
        return self.stacked.shape[1]

    @property
    def m(self) -> int:
        return self.stacked.shape[0] - self.stacked.shape[1]

    @property
    def a_matrix(self) -> np.ndarray:
        return self.stacked[: self.n].T

    @property
    def b_matrix(self) -> np.ndarray:
        return self.stacked[self.n :].T

    @classmethod
    def zeros(cls, n: int, m: int) -> "ThetaParams":
        return cls(np.zeros((n, n)), np.zeros((n, m)))

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.stacked))


@dataclass(frozen=True, eq=False)
class CostMatrices:
    """Positive-definite state and input cost weights."""

    q_matrix: np.ndarray
    r_matrix: np.ndarray

    def __post_init__(self):
        q = _as_matrix(self.q_matrix, "q_matrix")
        r = _as_matrix(self.r_matrix, "r_matrix")
        _check_spd(q, "q_matrix")
        _check_spd(r, "r_matrix")
        q.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "q_matrix", q)
        object.__setattr__(self, "r_matrix", r)

    @property
    def n(self) -> int:
        return self.q_matrix.shape[0]

    @property
    def m(self) -> int:
        return self.r_matrix.shape[0]

    @classmethod
    def identity(cls, n: int, m: int) -> "CostMatrices":
        return cls(np.eye(n), np.eye(m))


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Fixed point P, optimal gain K, and average cost J = trace(P)."""

    p_matrix: np.ndarray
    gain: np.ndarray
    avg_cost: float


@dataclass(frozen=True)
class ConstraintSetQ:
    """Admissible set: trace(P) <= m_p and contractive closed loop (norm <= rho)."""

    m_p: float
    rho: float

    def __post_init__(self):
        if not self.m_p > 0:  # also false for nan
            raise ValueError("m_p must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")


@dataclass(frozen=True)
class ConstraintSetP:
    """Admissible set for the auxiliary system: bounded trace, Frobenius norm,
    and contractive closed loop."""

    m_sim: float
    phi: float
    rho_sim: float

    def __post_init__(self):
        if not self.m_sim > 0:  # also false for nan
            raise ValueError("m_sim must be positive")
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        if not 0.0 < self.rho_sim < 1.0:
            raise ValueError("rho_sim must lie in (0, 1)")


def riccati_map(p: np.ndarray, theta: ThetaParams, costs: CostMatrices) -> np.ndarray:
    """One step of the Riccati value iteration applied to p."""
    a, b = theta.a_matrix, theta.b_matrix
    bp = b.T @ p
    gain = -np.linalg.solve(costs.r_matrix + bp @ b, bp @ a)
    return costs.q_matrix + a.T @ p @ a + (bp @ a).T @ gain


@dataclass(frozen=True, eq=False)
class RiccatiStack:
    """solve_dare of each slice of a stack: P, the gain and trace(P), and a
    failure code that is 0 where the slice converged.  The P, gain and cost
    of a failed slice are NaN."""

    p_matrix: np.ndarray
    gain: np.ndarray
    avg_cost: np.ndarray
    failure: np.ndarray


# The nonzero failure codes of RiccatiStack; SCREENED marks a slice that
# admitted_stack's screen rejected unsolved.
DIVERGED = 1
STALLED = 2
SCREENED = 3


def failure_text(code: int) -> str:
    """solve_dare's exception text for a nonzero failure code."""
    if code == DIVERGED:
        return "riccati iteration diverged"
    return f"riccati iteration did not converge within {DEFAULT_MAX_ITERS} steps"


def solve_dare_stack(stacked: np.ndarray, costs: CostMatrices) -> RiccatiStack:
    """Solve the discrete algebraic Riccati equation for every slice of a
    (K, n+m, n) stack of stacked parameters by the structure-preserving
    doubling algorithm (SDA; Chu, Fan & Lin, 2005).

    From A_0 = A, G_0 = B R^-1 B^T and H_0 = Q, each step solves
    (I + G_k H_k) [V1 V2] = [A_k G_k] once and sets A_{k+1} = A_k V1,
    G_{k+1} = G_k + A_k V2 A_k^T and H_{k+1} = H_k + V1^T H_k A_k.  H_k is the
    value iterate from P0 = Q at horizon 2^k, so the iterates are monotone
    nondecreasing like value iteration's and converge quadratically.  A slice
    stops once ||H_next - H||_F <= max(DEFAULT_TOL, 64 eps ||H_next||_F) and
    then leaves the stack, so each slice takes the steps, and gets the bits,
    that it would get alone.

    Convergence doubles as a stabilizability certificate: divergence (Frobenius
    norm above DEFAULT_NORM_CEILING, code DIVERGED) or failure to converge
    within DEFAULT_MAX_ITERS doubling steps (code STALLED) marks the slice as
    not stabilizable.  Because H_k is a value iterate, ||H_k||_F <= ||P||_F for
    every k, so the ceiling rejects only systems whose P itself exceeds it.
    """
    count, n = stacked.shape[0], stacked.shape[-1]
    if (costs.n, costs.m) != (n, stacked.shape[-2] - n):
        raise DimensionMismatch(
            f"cost matrices sized ({costs.n}, {costs.m}) do not match theta "
            f"({n}, {stacked.shape[-2] - n})"
        )
    a, b = stacked[:, :n].mT, stacked[:, n:].mT
    q, r = costs.q_matrix, costs.r_matrix
    eye = np.eye(n)
    p = np.full((count, n, n), np.nan)
    failure = np.zeros(count, dtype=np.int64)

    live = np.arange(count)
    a_k, h = a, q
    g = b @ np.linalg.solve(r, b.mT)
    g = 0.5 * (g + g.mT)
    for _ in range(DEFAULT_MAX_ITERS):
        v = np.linalg.solve(eye + g @ h, np.concatenate((a_k, g), axis=2))
        h_next = h + v[:, :, :n].mT @ h @ a_k
        h_next = 0.5 * (h_next + h_next.mT)
        norm = _frobenius(h_next)
        diverged = ~(norm <= DEFAULT_NORM_CEILING)  # also true when h_next has a NaN or an inf
        done = _frobenius(h_next - h) <= np.maximum(DEFAULT_TOL, _STEP_EPS * norm)
        finished = diverged | done
        if finished.any():
            done &= ~diverged
            failure[live[diverged]] = DIVERGED
            p[live[done]] = h_next[done]
            if finished.all():
                break
            keep = ~finished
            live, v, a_k, g, h_next = live[keep], v[keep], a_k[keep], g[keep], h_next[keep]
        g = g + a_k @ v[:, :, n:] @ a_k.mT
        g = 0.5 * (g + g.mT)
        a_k = a_k @ v[:, :, :n]
        h = h_next
    else:
        failure[live] = STALLED

    # The NaN P of a failed slice gives it a NaN gain.
    bp = b.mT @ p
    gain = -np.linalg.solve(r + bp @ b, bp @ a)
    return RiccatiStack(p, gain, np.trace(p, axis1=1, axis2=2), failure)


def solve_dare(theta: ThetaParams, costs: CostMatrices) -> RiccatiSolution:
    """solve_dare_stack of the one-slice stack of theta; raises
    NonStabilizable when the doubling diverges or does not converge."""
    sols = solve_dare_stack(theta.stacked[None], costs)
    if sols.failure[0]:
        raise NonStabilizable(failure_text(sols.failure[0]))
    return RiccatiSolution(p_matrix=sols.p_matrix[0], gain=sols.gain[0], avg_cost=float(sols.avg_cost[0]))


def closed_loop_norms(stacked: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Spectral norm of A + B K for every slice of a (K, n+m, n) stack of
    stacked parameters and a (K, m, n) stack of gains."""
    n = stacked.shape[-1]
    return np.linalg.svd(stacked[:, :n].mT + stacked[:, n:].mT @ gains, compute_uv=False)[:, 0]


def closed_loop_norm(theta: ThetaParams, gain: np.ndarray) -> float:
    """Spectral norm (largest singular value) of A + B K."""
    gain = np.asarray(gain, dtype=np.float64)
    if gain.shape != (theta.m, theta.n):
        raise DimensionMismatch(f"gain must be {(theta.m, theta.n)}, got {gain.shape}")
    return float(closed_loop_norms(theta.stacked[None], gain[None])[0])


def closed_loop_floors(stacked: np.ndarray) -> np.ndarray:
    """Lower bound on ||A + B K||_2 over every gain K, for every slice of a
    (K, n+m, n) stack of stacked parameters, with one stacked QR for the
    whole stack: ||N^T A||_2, where N holds the last n - m columns of the
    complete QR factor of B.

    Those columns are orthonormal and orthogonal to range(B), so
    N^T (A + B K) = N^T A and ||A + B K||_2 >= ||N^T A||_2 for any B; for B
    of full column rank the bound is the minimum over K. It is 0 when
    m >= n, and then costs nothing.
    """
    n = stacked.shape[-1]
    m = stacked.shape[-2] - n
    if m >= n:
        return np.zeros(stacked.shape[0])
    a = np.swapaxes(stacked[:, :n], 1, 2)
    b = np.swapaxes(stacked[:, n:], 1, 2)
    complement = np.linalg.qr(b, mode="complete")[0][:, :, m:]
    rows = np.swapaxes(complement, 1, 2) @ a
    if n - m == 1:
        # One row's spectral norm is its Euclidean length, which needs no SVD.
        return np.sqrt(np.vecdot(rows[:, 0], rows[:, 0]))
    return np.linalg.svd(rows, compute_uv=False)[:, 0]


def _screen(stacked: np.ndarray, rho: float) -> np.ndarray:
    """Whether each slice's closed-loop floor is at most rho * SCREEN_MARGIN;
    a slice that fails cannot be admitted and is not solved."""
    return closed_loop_floors(stacked) <= rho * SCREEN_MARGIN


def _bounded(stacked: np.ndarray, gains: np.ndarray, avg_costs: np.ndarray, trace_bound: float, rho: float):
    """Whether each slice has trace(P) <= trace_bound and ||A + B K||_2 <= rho
    with its own (A, B); the NaN cost of a failed or unsolved slice fails."""
    admitted = avg_costs <= trace_bound
    if admitted.any():
        admitted[admitted] = ~(closed_loop_norms(stacked[admitted], gains[admitted]) > rho)
    return admitted


def solve_and_bound(
    stacked: np.ndarray, costs: CostMatrices, trace_bound: float, rho: float
) -> Tuple[np.ndarray, RiccatiStack]:
    """The admissibility rule after the screen, for every slice of a (K, n+m, n)
    stack that passed it: one stacked solve, then the trace and norm tests.
    Returns the admitted mask and the stack's Riccati solutions."""
    sols = solve_dare_stack(stacked, costs)
    return _bounded(stacked, sols.gain, sols.avg_cost, trace_bound, rho), sols


def admitted_stack(
    stacked: np.ndarray, costs: CostMatrices, trace_bound: float, rho: float
) -> Tuple[np.ndarray, RiccatiStack]:
    """The admissibility rule, trace(P) <= trace_bound and ||A + B K||_2 <= rho,
    for every slice of a (K, n+m, n) stack of stacked parameters: the admitted
    mask and the stack's Riccati solutions.  One stacked QR screens the stack;
    a slice that it rejects keeps NaN P, gain and cost and the failure code
    SCREENED.  solve_and_bound takes the rest.  Each slice gets the verdict
    and bits it gets alone."""
    count, d, n = stacked.shape
    admitted = np.zeros(count, dtype=bool)
    sols = RiccatiStack(
        np.full((count, n, n), np.nan), np.full((count, d - n, n), np.nan), np.full(count, np.nan),
        np.full(count, SCREENED),
    )
    passed = _screen(stacked, rho)
    if passed.any():
        admitted[passed], solved = solve_and_bound(stacked[passed], costs, trace_bound, rho)
        sols.p_matrix[passed], sols.gain[passed] = solved.p_matrix, solved.gain
        sols.avg_cost[passed], sols.failure[passed] = solved.avg_cost, solved.failure
    return admitted, sols


def q_membership(
    theta: ThetaParams, costs: CostMatrices, set_q: ConstraintSetQ
) -> Optional[RiccatiSolution]:
    """Riccati solution when theta is admissible, else None: admitted_stack's
    screen and bound tests for theta alone, around one solve_dare call."""
    stacked = theta.stacked[None]
    if not _screen(stacked, set_q.rho)[0]:
        return None
    try:
        sol = solve_dare(theta, costs)
    except NonStabilizable:
        return None
    return sol if _bounded(stacked, sol.gain[None], np.array([sol.avg_cost]), set_q.m_p, set_q.rho)[0] else None


def p_membership(
    theta: ThetaParams, costs: CostMatrices, set_p: ConstraintSetP
) -> Optional[RiccatiSolution]:
    """Riccati solution when theta lies in the auxiliary-system set, else None:
    the set_q rule with set_p's bounds, within the Frobenius ball of radius
    phi."""
    if theta.frobenius_norm() > set_p.phi:
        return None
    return q_membership(theta, costs, ConstraintSetQ(set_p.m_sim, set_p.rho_sim))
