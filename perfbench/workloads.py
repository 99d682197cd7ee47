"""The benchmark's three workloads, each driven through tsodlqr's public API.

A round is one pass over a workload's inputs, which depend on the seed alone,
so every round of a run does the same work and must write the same bytes.

- fig1: `run_experiment` on the `paper_fig1.cfg` system (S = 3000, T = 1500)
  with FIG1_RUNS runs of the `tsod` variant and every output written.  The
  sampler rejects about three candidates per step, so most of the time goes
  to Riccati solves in `q_membership`.
- diag_scalar: `run_diagnostics` on the scalar system of acceptance
  criterion 3 (`configs/diag_scalar.cfg`), 100 short episodes per round.
  Rejections are rare, so per-call overhead in controller, sim and harness
  dominates.
- offline_cache: the `tsodlqr offline` path on `paper_fig2.cfg`: for each of
  the 30 datasets `simulate_offline`, `save_offline`, then `load_offline`.
  No sampler and no episode run here.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

FIG1_RUNS = 4

WORKLOADS = ("fig1", "diag_scalar", "offline_cache")
# The seeds of the shipped configs and of acceptance criterion 3.
DEFAULT_SEEDS = {"fig1": 1001, "diag_scalar": 909, "offline_cache": 1002}

_CONFIGS = {
    "fig1": (
        ROOT / "configs" / "paper_fig1.cfg",
        [f"num_runs={FIG1_RUNS}", 'variants=["tsod"]'],
    ),
    "diag_scalar": (BENCH_DIR / "configs" / "diag_scalar.cfg", []),
    "offline_cache": (ROOT / "configs" / "paper_fig2.cfg", []),
}


# tsodlqr is imported inside functions, so that importing this module costs
# nothing and a set-up probe times the package import itself.


def use_source_tree() -> None:
    """Import tsodlqr from the checkout's `src` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_config(workload: str, seed: int):
    """Build and validate the workload's config for the given seed."""
    from tsodlqr.config import load_experiment_config

    path, overrides = _CONFIGS[workload]
    return load_experiment_config(path, overrides + [f"base_seed={seed}", "workers=1"])


@dataclass
class RoundResult:
    ops: int
    failed: int
    transitions: int
    output: object


def _run_fig1(cfg, out_dir: Path) -> RoundResult:
    import tsodlqr.harness as harness
    from tsodlqr.errors import TsodLqrError

    ops = cfg.num_runs * len(cfg.variants)
    try:
        result = harness.run_experiment(cfg, out_dir=out_dir)
    except TsodLqrError:
        return RoundResult(ops, ops, 0, None)
    online = sum(len(rec.trace) for rec in result.runs)
    offline = sum(rec.s_len for rec in result.runs if rec.assumption2 is not None)
    return RoundResult(ops, 0, online + offline, result)


def _run_diag_scalar(cfg, out_dir: Path) -> RoundResult:
    import tsodlqr.harness as harness
    from tsodlqr.errors import TsodLqrError

    ops = cfg.diag_runs
    try:
        report = harness.run_diagnostics(cfg, out_dir=out_dir)
    except TsodLqrError:
        return RoundResult(ops, ops, 0, None)
    return RoundResult(ops, 0, report.n_runs * (cfg.s_values[0] + cfg.t_horizon), report)


def _run_offline_cache(cfg, out_dir: Path) -> RoundResult:
    # Seeds and file names as the `tsodlqr offline` subcommand derives them.
    import tsodlqr.offline as offline
    from tsodlqr.errors import TsodLqrError
    from tsodlqr.harness import STREAM_OFFLINE, delta1_for
    from tsodlqr.rng import RngStream, hash64

    out_dir.mkdir(parents=True, exist_ok=True)
    datasets = []
    failed = 0
    transitions = 0
    for s_len in cfg.s_values:
        delta1 = delta1_for(cfg.delta, s_len, cfg.t_horizon)
        for run_id in range(cfg.num_runs):
            seed = hash64(cfg.base_seed, "tsod", run_id, s_len)
            base = out_dir / f"s{s_len}_run{run_id:03d}"
            try:
                summary, states, controls = offline.simulate_offline(
                    cfg.theta_sim,
                    cfg.costs,
                    s_len,
                    cfg.offline,
                    delta1,
                    cfg.m_delta,
                    RngStream(seed, STREAM_OFFLINE),
                )
                offline.save_offline(base, summary, states, controls)
                loaded = offline.load_offline(base)
            except TsodLqrError:
                failed += 1
                continue
            transitions += s_len
            datasets.append((summary, states, controls, loaded))
    return RoundResult(len(cfg.s_values) * cfg.num_runs, failed, transitions, datasets)


RUNNERS = {
    "fig1": _run_fig1,
    "diag_scalar": _run_diag_scalar,
    "offline_cache": _run_offline_cache,
}


def digest_tree(directory: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file below directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
