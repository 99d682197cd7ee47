"""Per-run trace records, episode diagnostics, and their CSV serialization."""

from __future__ import annotations

import warnings
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
RUN_CSV_FMT = "%d,%.17g,%.17g,%.17g,%.17g,%d,%.17g"
AGGREGATE_CSV_HEADER = ["t", "mean_cum_regret", "std_cum_regret", "variant", "n_runs"]


def load_csv_rows(fh, dtype) -> np.ndarray:
    """Parse the rows that follow the header of an open CSV handle into a 1-D
    array of `dtype` records, one np.loadtxt call that skips blank lines.  A
    file with no rows gives an empty array, without numpy's warning.  An
    integer field written as a float (`1.5`, `1e0`) raises ValueError: numpy
    releases that still parse it through a float only warn, so that warning
    is made an error here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        warnings.filterwarnings("error", "Parsing an integer via a float", DeprecationWarning)
        return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def write_run_csv(path, trace: RegretTrace) -> None:
    """Write one per-step CSV row per episode step at full double precision."""
    table = np.column_stack([getattr(trace, name) for name in RUN_CSV_HEADER])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt=RUN_CSV_FMT, header=",".join(RUN_CSV_HEADER), comments="")


def read_run_csv(path) -> dict:
    """Read a per-run CSV back into float column arrays keyed by the header's
    names (independent of the writer's in-memory representation)."""
    with open(path, newline="", encoding="utf-8") as fh:
        names = fh.readline().rstrip("\r\n").split(",")
        rows = load_csv_rows(fh, [(name, np.float64) for name in names])
    return {name: rows[name] for name in RUN_CSV_HEADER}


def write_aggregate_csv(path, aggregates) -> None:
    """aggregates: mapping of variant label to an AggregateResult, written as
    one block of rows (t, mean, std, label, n_runs) per label in its order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(AGGREGATE_CSV_HEADER) + "\n")
        for label, agg in aggregates.items():
            # A label is a variant name, with _S<S> when several S run, so it holds no "%".
            table = np.column_stack([agg.t, agg.mean_cum_regret, agg.std_cum_regret])
            np.savetxt(fh, table, fmt=f"%d,%.17g,%.17g,{label},{agg.n_runs}")
