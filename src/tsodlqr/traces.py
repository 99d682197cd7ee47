"""Per-run trace records, episode diagnostics, and their CSV serialization."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class RegretTrace:
    """Per-step record of one episode.

    instant_regret[t] is exactly cost[t] - j_star and cum_regret is its
    running sum.
    """

    t: np.ndarray
    cost: np.ndarray
    instant_regret: np.ndarray
    cum_regret: np.ndarray
    beta: np.ndarray
    rejections: np.ndarray
    state_norm: np.ndarray
    j_star: float
    seed: int

    def __len__(self) -> int:
        return len(self.t)

    @property
    def final_cum_regret(self) -> float:
        return float(self.cum_regret[-1]) if len(self.cum_regret) else 0.0


@dataclass(frozen=True)
class CheckpointRecord:
    """Estimation-error checkpoint taken at sampling time of step t."""

    t: int
    error: float
    beta: float
    ok: bool


@dataclass(frozen=True, eq=False)
class EpisodeDiagnostics:
    """The property checks of one episode, computed from its per-step record."""

    checkpoints: Tuple[CheckpointRecord, ...]
    coverage_ok: bool
    zt_violations: int
    polylog_ok: bool
    prior_lambda_ok: bool
    fallback_steps: int
    accepted_steps: int
    true_closed_loop_max: float
    true_closed_loop_violations: int


RUN_CSV_HEADER = ["t", "cost", "instant_regret", "cum_regret", "beta", "rejections", "state_norm"]
AGGREGATE_CSV_HEADER = ["t", "mean_cum_regret", "std_cum_regret", "variant", "n_runs"]


def write_run_csv(path, trace: RegretTrace) -> None:
    """Write one per-step CSV row per episode step at full double precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUN_CSV_HEADER)
        for i in range(len(trace)):
            writer.writerow(
                [
                    str(int(trace.t[i])),
                    f"{trace.cost[i]:.17g}",
                    f"{trace.instant_regret[i]:.17g}",
                    f"{trace.cum_regret[i]:.17g}",
                    f"{trace.beta[i]:.17g}",
                    str(int(trace.rejections[i])),
                    f"{trace.state_norm[i]:.17g}",
                ]
            )


def read_run_csv(path) -> dict:
    """Read a per-run CSV back into column arrays (independent of the writer's
    in-memory representation)."""
    cols = {name: [] for name in RUN_CSV_HEADER}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            for name in RUN_CSV_HEADER:
                cols[name].append(float(row[name]))
    return {name: np.asarray(vals) for name, vals in cols.items()}


def write_aggregate_csv(path, rows) -> None:
    """rows: iterable of (t, mean, std, variant_label, n_runs)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_CSV_HEADER)
        for t, mean, std, label, n_runs in rows:
            writer.writerow([str(int(t)), f"{mean:.17g}", f"{std:.17g}", label, str(int(n_runs))])
