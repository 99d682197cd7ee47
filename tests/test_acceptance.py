"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tsodlqr import (
    CostMatrices,
    MultiSourceSummary,
    OfflineConfig,
    RngStream,
    ThetaParams,
    check_assumption2,
    init_belief,
    riccati_map,
    run_episode,
    simulate_offline,
    solve_dare,
    update_belief,
)
from tsodlqr.config import build_experiment_config, load_experiment_config
from tsodlqr.harness import binomial_lower_test, run_diagnostics, run_experiment
from tsodlqr.offline import collect_offline_batch

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}", flush=True)


@pytest.fixture(scope="module")
def fig1_result(tmp_path_factory):
    cfg = load_experiment_config(CONFIG_DIR / "paper_fig1.cfg")
    start = time.monotonic()
    result = run_experiment(cfg, out_dir=tmp_path_factory.mktemp("fig1"))
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def fig2_result(tmp_path_factory):
    cfg = load_experiment_config(CONFIG_DIR / "paper_fig2.cfg")
    start = time.monotonic()
    result = run_experiment(cfg, out_dir=tmp_path_factory.mktemp("fig2"))
    return result, time.monotonic() - start


def test_criterion_1_riccati_correctness(theta_star, costs32):
    start = time.monotonic()
    rng = np.random.default_rng(314)
    systems = [(theta_star, costs32)]
    while len(systems) < 101:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        radius = max(abs(np.linalg.eigvals(a)))
        if radius > 0:
            a *= rng.uniform(0.2, 0.9) / radius  # stable, hence stabilizable
        b = rng.standard_normal((n, m))
        systems.append((ThetaParams(a, b), CostMatrices.identity(n, m)))

    worst_residual = 0.0
    worst_gain = 0.0
    for theta, costs in systems:
        sol = solve_dare(theta, costs)
        residual = np.linalg.norm(riccati_map(sol.p_matrix, theta, costs) - sol.p_matrix)
        worst_residual = max(worst_residual, residual)
        bp = theta.b_matrix.T @ sol.p_matrix
        gain = -np.linalg.solve(costs.r_matrix + bp @ theta.b_matrix, bp @ theta.a_matrix)
        worst_gain = max(worst_gain, float(np.linalg.norm(sol.gain - gain)))
    elapsed = time.monotonic() - start

    ok = worst_residual <= 1e-9 and worst_gain <= 1e-10 and elapsed < 5.0
    report(
        1,
        "riccati correctness",
        ok,
        f"residual {worst_residual:.2e}, gain {worst_gain:.2e}, {elapsed:.2f}s",
    )
    assert worst_residual <= 1e-9
    assert worst_gain <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_least_squares_equivalence(theta_sim):
    start = time.monotonic()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for n_sources in (1, 3):
        sources = []
        factors = []
        rhs = []
        for _ in range(n_sources):
            a = rng.standard_normal((5, 5))
            u = a @ a.T + 5.0 * np.eye(5)
            theta = ThetaParams(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
            from tsodlqr import OfflineSummary

            sources.append(
                OfflineSummary(
                    u_matrix=u,
                    theta_hat_sim=theta,
                    alpha=0.0,
                    s_len=10,
                    m_delta=0.0,
                    delta1=0.1,
                    regularizer=1.0,
                )
            )
            w, v = np.linalg.eigh(u)
            half = (v * np.sqrt(w)) @ v.T
            factors.append(half)
            rhs.append(half @ theta.stacked)
        belief = init_belief(MultiSourceSummary(tuple(sources)))
        zs, xs = [], []
        for _ in range(50):
            z = rng.standard_normal(5)
            x_next = rng.standard_normal(3)
            zs.append(z)
            xs.append(x_next)
            belief = update_belief(belief, z, x_next)
        # Oracle: dense least squares on the stacked square-root factors.
        stacked_a = np.vstack(factors + [np.array(zs)])
        stacked_b = np.vstack(rhs + [np.array(xs)])
        oracle, *_ = np.linalg.lstsq(stacked_a, stacked_b, rcond=None)
        rel = np.linalg.norm(belief.theta_hat.stacked - oracle) / np.linalg.norm(oracle)
        worst = max(worst, rel)
    elapsed = time.monotonic() - start

    ok = worst <= 1e-8 and elapsed < 5.0
    report(2, "least-squares oracle equivalence", ok, f"rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def _coverage_config(delta_pair: float):
    return build_experiment_config(
        {
            "n": 1,
            "m": 1,
            "a_sim": [[0.8]],
            "b_sim": [[1.0]],
            "sample_delta": True,
            "m_delta": 0.05,
            "s_len": 300,
            "t_horizon": 100,
            "delta": 0.1,
            "num_runs": 10,
            "base_seed": 909,
            "variants": ["tsod"],
            "set_p": {"m_sim": 50.0, "phi": 2.0, "rho_sim": 0.99},
            "diag_delta1": delta_pair,
            "diag_delta2": delta_pair,
            "output_dir": "unused",
        }
    )


def test_criterion_3_theorem1_coverage(tmp_path):
    start = time.monotonic()
    results = {}
    for delta_pair, floor in ((0.25, 0.5), (0.05, 0.90)):
        cfg = _coverage_config(delta_pair)
        rep = run_diagnostics(cfg, num_runs=400, out_dir=tmp_path / f"d{delta_pair}")
        covered = round(rep.coverage_fraction * rep.n_runs)
        results[delta_pair] = (
            rep.coverage_fraction,
            binomial_lower_test(covered, rep.n_runs, floor),
        )
    elapsed = time.monotonic() - start

    ok = all(passed for _, passed in results.values()) and elapsed < 300.0
    detail = ", ".join(
        f"delta={d}: cov {frac:.3f}" for d, (frac, _) in results.items()
    )
    report(3, "confidence-bound coverage", ok, f"{detail}, {elapsed:.1f}s")
    for delta_pair, (frac, passed) in results.items():
        assert passed, f"coverage {frac} too low for delta1=delta2={delta_pair}"
    assert elapsed < 300.0


def test_criterion_4_figure1_ordering(fig1_result):
    result, elapsed = fig1_result
    finals = {
        label: float(agg.mean_cum_regret[-1]) for label, agg in result.aggregates.items()
    }
    ok = (
        finals["tsod"] < finals["ts_no_offline"]
        and finals["tsod"] < finals["offline_estimate_only"]
        and elapsed < 600.0
    )
    detail = (
        f"tsod {finals['tsod']:.0f} vs no_offline {finals['ts_no_offline']:.0f} "
        f"vs estimate_only {finals['offline_estimate_only']:.0f}, {elapsed:.0f}s"
    )
    report(4, "offline-data benefit ordering", ok, detail)
    assert finals["tsod"] < finals["ts_no_offline"]
    assert finals["tsod"] < finals["offline_estimate_only"]
    assert elapsed < 600.0


def test_criterion_5_figure2_monotonicity(fig2_result):
    result, elapsed = fig2_result
    finals = [
        (int(label.rsplit("S", 1)[1]), float(agg.mean_cum_regret[-1]))
        for label, agg in result.aggregates.items()
    ]
    finals.sort()
    values = [v for _, v in finals]
    ok = all(a > b for a, b in zip(values, values[1:])) and elapsed < 1200.0
    detail = ", ".join(f"S={s}: {v:.0f}" for s, v in finals) + f", {elapsed:.0f}s"
    report(5, "regret decreasing in offline length", ok, detail)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert elapsed < 1200.0


def test_criterion_6_appendix_inequalities(fig1_result, fig2_result):
    runs = fig1_result[0].runs + fig2_result[0].runs
    gated = [r for r in runs if r.diagnostics.prior_lambda_ok]
    zt_viol = sum(r.diagnostics.zt_violations for r in gated)
    poly_viol = sum(0 if r.diagnostics.polylog_ok else 1 for r in gated)
    ok = gated and zt_viol == 0 and poly_viol == 0
    report(
        6,
        "information inequalities",
        bool(ok),
        f"{len(gated)} gated runs, zt {zt_viol}, polylog {poly_viol}",
    )
    assert len(gated) > 0
    assert zt_viol == 0
    assert poly_viol == 0


def test_criterion_7_offline_interface(theta_sim, costs32, set_p):
    cfg = OfflineConfig(set_p=set_p)  # default collector settings
    s_len = 5000
    delta1 = 0.05
    lam_ok = 0
    covered = 0
    n_runs = 200
    # One lockstep batch; each run gets the dataset simulate_offline gives it.
    datasets = collect_offline_batch(
        theta_sim, costs32, s_len, cfg, delta1, 0.15, [RngStream(seed, 0) for seed in range(n_runs)]
    )
    for seed, (summary, _, _) in enumerate(datasets):
        rep = check_assumption2(summary, theta_sim, 3, 2)
        if seed < 10 and rep.lambda_ok:
            lam_ok += 1
        if rep.coverage_ok:
            covered += 1
    frac = covered / n_runs
    ok = lam_ok >= 9 and frac >= 0.95
    report(
        7,
        "offline interface checks",
        ok,
        f"lambda_min ok {lam_ok}/10 seeds, alpha coverage {frac:.3f}",
    )
    assert lam_ok >= 9
    assert frac >= 0.95


def test_criterion_8_multi_source_reduction(theta_star, theta_sim, costs32, set_q, offline_cfg,
                                            tmp_path):
    summary, _, _ = simulate_offline(
        theta_sim, costs32, 600, offline_cfg, 0.01, 0.15, RngStream(77, 0)
    )
    res_single = run_episode(
        theta_star, summary, costs32, set_q, 250, 0.1, "tsod", RngStream(78, 1), seed=78
    )
    res_multi = run_episode(
        theta_star,
        MultiSourceSummary((summary,)),
        costs32,
        set_q,
        250,
        0.1,
        "tsod",
        RngStream(78, 1),
        seed=78,
    )
    from tsodlqr.traces import write_run_csv

    write_run_csv(tmp_path / "single.csv", res_single.trace)
    write_run_csv(tmp_path / "multi.csv", res_multi.trace)
    identical = (tmp_path / "single.csv").read_bytes() == (tmp_path / "multi.csv").read_bytes()
    arrays_equal = all(
        np.array_equal(getattr(res_single.trace, f), getattr(res_multi.trace, f))
        for f in ("cost", "instant_regret", "cum_regret", "beta", "rejections", "state_norm")
    )
    ok = identical and arrays_equal
    report(8, "single-source reduction is bit-identical", ok)
    assert identical
    assert arrays_equal


def test_criterion_9_cli_reproducibility(fig1_result, tmp_path):
    # The in-process fig1 run and one CLI run of the same config and seed are
    # two independent executions; the CLI's must match it byte for byte.
    config_path = CONFIG_DIR / "paper_fig1.cfg"
    dirs = [fig1_result[0].out_dir, tmp_path / "cli"]
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tsodlqr.cli",
            "run",
            "--config",
            str(config_path),
            "--out",
            str(dirs[1]),
            "--seed",
            "1001",
        ],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    first_csvs = sorted((dirs[0] / "runs").iterdir())
    identical = [p.name for p in first_csvs] == sorted(p.name for p in (dirs[1] / "runs").iterdir())
    identical = identical and (dirs[0] / "aggregate.csv").read_bytes() == (
        dirs[1] / "aggregate.csv"
    ).read_bytes()
    for path in first_csvs:
        twin = dirs[1] / "runs" / path.name
        identical = identical and path.read_bytes() == twin.read_bytes()
    report(9, "repeated runs byte-identical", identical, f"{len(first_csvs)} per-run files")
    assert identical
