"""Correctness checks made apart from the program: scipy's DARE solver
(Arnold & Laub, 1984), a least-squares fit by QR/SVD instead of normal
equations, the benchmark's own CSV parser, and properties the method must
have.  Each check returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.stats import binom

RUN_COLUMNS = ["t", "cost", "instant_regret", "cum_regret", "beta", "rejections", "state_norm"]
AGGREGATE_COLUMNS = ["t", "mean_cum_regret", "std_cum_regret", "variant", "n_runs"]

DIAG_COVERAGE_FLOOR = 0.90
DIAG_CONFIDENCE = 0.99


def read_csv(path: Path, columns) -> dict:
    """Parse a comma-separated file with a header row into column lists of strings."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",")
    if header != list(columns):
        raise ValueError(f"{path.name}: header {header} is not {list(columns)}")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"{path.name}: row {line!r} has {len(fields)} fields")
        for name, value in zip(header, fields):
            cols[name].append(value)
    return cols


def dare_reference(a, b, q, r):
    """(P, K) from scipy's Schur-method DARE solver, with K = -(R + B'PB)^-1 B'PA."""
    p = scipy.linalg.solve_discrete_are(a, b, q, r)
    gain = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    return p, gain


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def check_fig1(cfg, result, out_dir: Path) -> list:
    failures = []
    q, r = cfg.q_matrix, cfg.r_matrix
    p_star, _ = dare_reference(cfg.a_star, cfg.b_star, q, r)
    j_ref = float(np.trace(p_star))
    cum_by_label = {}
    for rec in result.runs:
        j_star = rec.trace.j_star
        if not _close(j_star, j_ref, 1e-8):
            failures.append(f"run {rec.run_id}: j_star {j_star!r} != scipy trace(P) {j_ref!r}")
        path = out_dir / "runs" / f"{rec.variant}_run{rec.run_id:03d}.csv"
        cols = read_csv(path, RUN_COLUMNS)
        t = [int(v) for v in cols["t"]]
        cost = [float(v) for v in cols["cost"]]
        instant = [float(v) for v in cols["instant_regret"]]
        cum = [float(v) for v in cols["cum_regret"]]
        if t != list(range(1, cfg.t_horizon + 1)):
            failures.append(f"{path.name}: steps are not 1..{cfg.t_horizon}")
        running = 0.0
        for step, c, inst, cr in zip(t, cost, instant, cum):
            running += inst
            if not _close(inst, c - j_star, 1e-12):
                failures.append(f"{path.name} t={step}: instant_regret != cost - j_star")
                break
            if not _close(cr, running, 1e-9):
                failures.append(f"{path.name} t={step}: cum_regret is not the running sum")
                break
        cum_by_label.setdefault(rec.variant, []).append(cum)

    agg = read_csv(out_dir / "aggregate.csv", AGGREGATE_COLUMNS)
    for label, runs in cum_by_label.items():
        stack = np.array(runs)
        mean = stack.mean(axis=0)
        std = stack.std(axis=0, ddof=1) if len(runs) > 1 else np.zeros_like(mean)
        rows = [i for i, v in enumerate(agg["variant"]) if v == label]
        if len(rows) != stack.shape[1]:
            failures.append(f"aggregate.csv: {len(rows)} rows for {label}, expected {stack.shape[1]}")
            continue
        got_mean = np.array([float(agg["mean_cum_regret"][i]) for i in rows])
        got_std = np.array([float(agg["std_cum_regret"][i]) for i in rows])
        scale = max(1.0, float(np.abs(stack).max()))
        if np.abs(got_mean - mean).max() > 1e-9 * scale:
            failures.append(f"aggregate.csv: mean_cum_regret of {label} differs from the run CSVs")
        if np.abs(got_std - std).max() > 1e-9 * scale:
            failures.append(f"aggregate.csv: std_cum_regret of {label} differs from the run CSVs")
        if any(int(agg["n_runs"][i]) != len(runs) for i in rows):
            failures.append(f"aggregate.csv: n_runs of {label} is not {len(runs)}")
    return failures


def check_outcomes(outcomes) -> list:
    """Every sample accepted without fallback lies in the admissible set and
    carries the optimal gain, both judged by scipy's solver."""
    failures = []
    for outcome, costs, set_q in outcomes:
        if outcome.fallback_used:
            continue
        a, b = outcome.theta_tilde.a_matrix, outcome.theta_tilde.b_matrix
        try:
            p, gain = dare_reference(a, b, costs.q_matrix, costs.r_matrix)
        except (np.linalg.LinAlgError, ValueError) as exc:
            failures.append(f"accepted sample has no scipy DARE solution: {exc}")
            continue
        if float(np.trace(p)) > set_q.m_p * (1.0 + 1e-8):
            failures.append(f"accepted sample has trace(P) {np.trace(p):.6g} > m_p {set_q.m_p:g}")
        if float(np.linalg.norm(a + b @ gain, 2)) > set_q.rho + 1e-8:
            failures.append(f"accepted sample has ||A+BK||_2 above rho {set_q.rho:g}")
        if np.linalg.norm(outcome.gain - gain) > 1e-6 * max(1.0, float(np.linalg.norm(gain))):
            failures.append("accepted sample's gain differs from scipy's optimal gain")
        if len(failures) >= 10:
            break
    return failures


def read_key_values(path: Path) -> dict:
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            values[key] = value
    return values


def check_diag_scalar(cfg, report, out_dir: Path) -> list:
    failures = []
    kv = read_key_values(out_dir / "diagnostics.txt")
    runs = int(kv["RUNS"])
    if runs != cfg.diag_runs:
        failures.append(f"diagnostics ran {runs} runs, expected {cfg.diag_runs}")
    for key, want in (("THM1_BINOMIAL_PASS", 1), ("BOUND_ZT_VIOLATIONS", 0), ("POLYLOG_BETA_VIOLATIONS", 0)):
        if int(kv[key]) != want:
            failures.append(f"{key}={kv[key]}, expected {want}")
    covered = round(float(kv["THM1_COVERAGE"]) * runs)
    if float(binom.cdf(covered, runs, DIAG_COVERAGE_FLOOR)) < 1.0 - DIAG_CONFIDENCE:
        failures.append(
            f"coverage {covered}/{runs} fails the binomial lower test at floor {DIAG_COVERAGE_FLOOR}"
        )
    return failures


def check_offline_cache(cfg, datasets, out_dir: Path) -> list:
    """Summaries equal a regularised least-squares fit of the returned
    trajectory, and reading a dataset back returns it bit for bit."""
    failures = []
    lam = cfg.offline.regularizer
    for summary, states, controls, loaded in datasets:
        name = f"S={summary.s_len}"
        n, m = summary.n, summary.m
        z = np.hstack([states[:-1], controls])
        x_next = states[1:]
        u_ref = lam * np.eye(n + m) + z.T @ z
        if np.abs(summary.u_matrix - u_ref).max() > 1e-10 * np.abs(u_ref).max():
            failures.append(f"{name}: U differs from lambda*I + Z'Z of the trajectory")
        augmented = np.vstack([z, math.sqrt(lam) * np.eye(n + m)])
        target = np.vstack([x_next, np.zeros((n + m, n))])
        theta_ref = np.linalg.lstsq(augmented, target, rcond=None)[0]
        theta = summary.theta_hat_sim.stacked
        if np.abs(theta - theta_ref).max() > 1e-8 * max(1.0, float(np.abs(theta_ref).max())):
            failures.append(f"{name}: theta_hat differs from the least-squares fit")
        got, got_states, got_controls = loaded
        same = (
            np.array_equal(got_states, states)
            and np.array_equal(got_controls, controls)
            and np.array_equal(got.u_matrix, summary.u_matrix)
            and np.array_equal(got.theta_hat_sim.a_matrix, summary.theta_hat_sim.a_matrix)
            and np.array_equal(got.theta_hat_sim.b_matrix, summary.theta_hat_sim.b_matrix)
            and (got.alpha, got.s_len, got.m_delta, got.delta1, got.regularizer)
            == (summary.alpha, summary.s_len, summary.m_delta, summary.delta1, summary.regularizer)
        )
        if not same:
            failures.append(f"{name}: load_offline did not return the saved dataset bit for bit")
    return failures


CHECKS = {
    "fig1": check_fig1,
    "diag_scalar": check_diag_scalar,
    "offline_cache": check_offline_cache,
}
