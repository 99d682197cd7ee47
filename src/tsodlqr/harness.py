"""Monte-Carlo experiment orchestration: regret traces over seeds and variants,
mean/std aggregation, diagnostics suites, scaling studies, and file output."""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import ExperimentConfig
from .controller import MultiSourceSummary, delta1_for, delta2_for, no_offline_prior, run_episodes
from .errors import ConfigError, TsodLqrError
from .lqr import ThetaParams, admitted_stack
from .offline import Assumption2Report, OfflineDataset, OfflineSummary, check_assumption2, collect_offline_batch
from .rng import RngStream, hash64
from .sim import sample_theta_delta
from .svgplot import render_regret_svg
from .traces import EpisodeDiagnostics, RegretTrace, write_aggregate_csv, write_run_csv

logger = logging.getLogger(__name__)

STREAM_OFFLINE = 0
STREAM_EPISODE = 1
STREAM_DELTA = 2

_DELTA_RESAMPLE_ATTEMPTS = 100


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One episode's trace plus the side diagnostics used by the test suites."""

    variant: str
    s_len: int
    run_id: int
    trace: RegretTrace
    diagnostics: EpisodeDiagnostics
    assumption2: Optional[Assumption2Report]


@dataclass(frozen=True, eq=False)
class AggregateResult:
    """Per-step mean and sample standard deviation of cumulative regret."""

    t: np.ndarray
    mean_cum_regret: np.ndarray
    std_cum_regret: np.ndarray
    n_runs: int


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    aggregates: Dict[str, AggregateResult]
    runs: List[RunRecord]
    out_dir: Optional[Path]


def clear_outputs(directory: Path, pattern: str) -> None:
    """Remove the files of `directory` whose names fully match the regular
    expression `pattern`, so that no output of an earlier call survives."""
    regex = re.compile(pattern)
    for path in directory.iterdir():
        if regex.fullmatch(path.name):
            path.unlink()


def _resolve_theta_stars(
    cfg: ExperimentConfig, rngs: Sequence[RngStream]
) -> List[Union[ThetaParams, ConfigError]]:
    """The true system of each run: the explicit one, or theta_sim plus a
    random offset in the dissimilarity ball drawn from the run's generator,
    redrawn until it lies in set_q.  Each redraw round screens and solves the
    offsets of all pending runs at once; a run still pending after the last
    round gets a ConfigError."""
    if cfg.theta_star_explicit is not None:
        return [cfg.theta_star_explicit] * len(rngs)
    found: List[Union[ThetaParams, ConfigError, None]] = [None] * len(rngs)
    pending = list(range(len(rngs)))
    for _ in range(_DELTA_RESAMPLE_ATTEMPTS):
        if not pending:
            break
        offsets = [sample_theta_delta(cfg.m_delta, cfg.n, cfg.m, rngs[i]).stacked for i in pending]
        candidates = np.array([cfg.theta_sim.stacked + offset for offset in offsets])
        admitted = admitted_stack(candidates, cfg.costs, cfg.set_q.m_p, cfg.set_q.rho)[0]
        for i, candidate in zip(np.array(pending)[admitted], candidates[admitted]):
            found[i] = ThetaParams.from_stacked(candidate, cfg.n, cfg.m)
        pending = [i for i, ok in zip(pending, admitted) if not ok]
    for i in pending:
        found[i] = ConfigError(
            "could not draw an admissible true system within the dissimilarity ball; "
            "check m_delta against set_q"
        )
    return found


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One (variant, S, run_id) run of a config: everything that decides its
    seeds, its offline dataset and its prior.  With share_offline, the run
    uses the offline dataset of run 0 of its S."""

    cfg: ExperimentConfig
    variant: str
    s_len: int
    run_id: int
    share_offline: bool = False
    diagnostics: bool = False

    @property
    def _tag(self) -> str:
        return "diag:" if self.diagnostics else ""

    @property
    def seed(self) -> int:
        """The seed of the streams that run i of every variant shares: the
        true system (STREAM_DELTA), the offline data (STREAM_OFFLINE) and the
        process noise (STREAM_EPISODE)."""
        return hash64(self.cfg.base_seed, self._tag, self.run_id, self.s_len)

    @property
    def sampler_seed(self) -> int:
        """The seed of the run's sampler stream (STREAM_EPISODE), the one
        stream keyed by the variant."""
        return hash64(self.cfg.base_seed, self._tag + self.variant, self.run_id, self.s_len)

    @property
    def offline_seed(self) -> int:
        """The seed whose offline stream collects the run's dataset; the seed
        includes S, so it names the dataset."""
        return replace(self, run_id=0).seed if self.share_offline else self.seed

    @property
    def delta1(self) -> float:
        if self.diagnostics and self.cfg.diag_delta1 is not None:
            return self.cfg.diag_delta1
        return delta1_for(self.cfg.delta, self.s_len, self.cfg.t_horizon)

    @property
    def delta2(self) -> float:
        if self.diagnostics and self.cfg.diag_delta2 is not None:
            return self.cfg.diag_delta2
        return delta2_for(self.cfg.delta, self.cfg.t_horizon)


@dataclass(frozen=True, eq=False)
class RunFailure:
    """A run that raised instead of finishing."""

    spec: RunSpec
    error: TsodLqrError

    def as_json(self) -> dict:
        return {
            "variant": self.spec.variant,
            "S": self.spec.s_len,
            "run_id": self.spec.run_id,
            "seed": self.spec.seed,
            "error": type(self.error).__name__,
            "message": str(self.error),
        }


def collect_offline(specs: Sequence[RunSpec]) -> List[Union[OfflineDataset, TsodLqrError]]:
    """The offline dataset of each run of one config and diagnostics flag,
    (summary, states, controls), or the error its collection raised.  Each
    distinct offline seed is collected once, and those of each S in
    lockstep, as one batch."""
    datasets: Dict[int, Union[OfflineDataset, TsodLqrError]] = {}
    for s_len in sorted({spec.s_len for spec in specs}):
        group = [spec for spec in specs if spec.s_len == s_len]
        seeds = list(dict.fromkeys(spec.offline_seed for spec in group))
        cfg = group[0].cfg
        batch = collect_offline_batch(
            cfg.theta_sim,
            cfg.costs,
            s_len,
            cfg.offline,
            group[0].delta1,
            cfg.m_delta,
            [RngStream(seed, STREAM_OFFLINE) for seed in seeds],
        )
        datasets.update(zip(seeds, batch))
    return [datasets[spec.offline_seed] for spec in specs]


def execute_batch(specs: Sequence[RunSpec]) -> List[Union[RunRecord, RunFailure]]:
    """Run specs of one config and diagnostics flag, in spec order, as
    batches: the true systems, the offline data of each S in lockstep, then
    all episodes in one run_episodes call.  A run that raises TsodLqrError
    becomes a RunFailure, and the others finish unchanged.  Only the
    summaries of the offline data are kept."""
    outcomes: List[Union[RunRecord, RunFailure, None]] = [None] * len(specs)
    cfg = specs[0].cfg
    theta_stars = _resolve_theta_stars(cfg, [RngStream(spec.seed, STREAM_DELTA) for spec in specs])
    priors: Dict[int, Union[OfflineSummary, TsodLqrError]] = {}
    collect = []
    for index, spec in enumerate(specs):
        if isinstance(theta_stars[index], TsodLqrError):
            outcomes[index] = RunFailure(spec, theta_stars[index])
        elif spec.variant == "ts_no_offline":
            priors[index] = no_offline_prior(cfg.n, cfg.m, cfg.offline.regularizer, spec.s_len, spec.delta1)
        else:
            collect.append(index)
    # Only the summaries are kept, so that no trajectory outlives this statement.
    priors.update(
        (index, dataset if isinstance(dataset, TsodLqrError) else dataset[0])
        for index, dataset in zip(collect, collect_offline([specs[k] for k in collect]))
    )
    ready = []
    for index in sorted(priors):
        spec, summary = specs[index], priors[index]
        if isinstance(summary, TsodLqrError):
            outcomes[index] = RunFailure(spec, summary)
            continue
        report = None if spec.variant == "ts_no_offline" else check_assumption2(summary, cfg.theta_sim, cfg.n, cfg.m)
        ready.append((index, spec, theta_stars[index], summary, report))
    if not ready:
        return outcomes
    indices, kept, stars, summaries, reports = zip(*ready)
    results = run_episodes(
        stars,
        [MultiSourceSummary((summary,)) for summary in summaries],
        cfg.costs,
        cfg.set_q,
        cfg.t_horizon,
        kept[0].delta2,
        [spec.variant for spec in kept],
        [RngStream(spec.seed, STREAM_EPISODE) for spec in kept],
        [RngStream(spec.sampler_seed, STREAM_EPISODE) for spec in kept],
        max_attempts=cfg.max_attempts,
        beta_mdelta_scale=cfg.beta_mdelta_scale,
        state_ceiling=cfg.state_ceiling,
        seeds=[spec.seed for spec in kept],
    )
    for index, spec, report, result in zip(indices, kept, reports, results):
        if isinstance(result, TsodLqrError):
            outcomes[index] = RunFailure(spec, result)
        else:
            outcomes[index] = RunRecord(spec.variant, spec.s_len, spec.run_id, result.trace, result.diagnostics, report)
    return outcomes


def execute_single_run(spec: RunSpec) -> RunRecord:
    """Run one (variant, S, run_id) cell: the one-run batch of execute_batch,
    raising the error of a failed run."""
    (outcome,) = execute_batch([spec])
    if isinstance(outcome, RunFailure):
        raise outcome.error
    return outcome


def _cells(specs: Sequence[RunSpec]) -> List[List[RunSpec]]:
    """specs grouped into maximal runs of consecutive specs that share one
    config and diagnostics flag; the variants and S values of a config's
    experiment share one cell."""
    cells = itertools.groupby(specs, lambda spec: (id(spec.cfg), spec.diagnostics))
    return [list(cell) for _, cell in cells]


def _chunks(cell: List[RunSpec], parts: int) -> List[List[RunSpec]]:
    """cell split into at most `parts` contiguous chunks whose sizes differ by
    at most one, the larger first."""
    size, extra = divmod(len(cell), parts)
    bounds = [k * size + min(k, extra) for k in range(parts + 1)]
    return [cell[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def execute_runs(
    specs: Sequence[RunSpec], workers: int
) -> Tuple[List[RunRecord], List[RunFailure]]:
    """Run every spec, serially or on min(workers, #specs, #CPUs) processes.

    The specs of each cell run as one batch; with several processes
    each cell is split into that many contiguous chunks.  Both lists keep spec
    order, and no batch size changes an output, so the worker count never
    does.  A run that raises TsodLqrError becomes a RunFailure and the others
    finish.
    """
    processes = min(workers, len(specs), os.cpu_count() or 1)
    if processes > 1:
        chunks = [chunk for cell in _cells(specs) for chunk in _chunks(cell, processes)]
        with ProcessPoolExecutor(max_workers=processes) as pool:
            outcomes = [o for batch in pool.map(execute_batch, chunks) for o in batch]
    else:
        outcomes = [o for cell in _cells(specs) for o in execute_batch(cell)]
    records = [o for o in outcomes if isinstance(o, RunRecord)]
    failures = [o for o in outcomes if isinstance(o, RunFailure)]
    return records, failures


def _aggregate(traces: Sequence[RegretTrace]) -> AggregateResult:
    stack = np.vstack([tr.cum_regret for tr in traces])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1) if len(traces) > 1 else np.zeros_like(mean)
    return AggregateResult(
        t=traces[0].t.copy(),
        mean_cum_regret=mean,
        std_cum_regret=std,
        n_runs=len(traces),
    )


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run every (variant, S, run) cell, write per-run CSVs, the aggregate CSV,
    and the SVG plot.  Deterministic for a fixed config and base seed.

    When runs fail, the finished runs' CSVs, experiment.json and failures.json
    are written, the aggregate CSV and the plot are not, and the first
    failure is re-raised.  Outputs of an earlier call into the same directory
    are removed first, so none of them outlives the call."""
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    clear_outputs(out, r"aggregate\.csv|regret\.svg|failures\.json")
    clear_outputs(runs_dir, r".*_run[0-9]{3,}\.csv")

    specs = [
        RunSpec(cfg, variant, s_len, run_id, share_offline=cfg.share_offline)
        for variant in cfg.variants
        for s_len in cfg.s_values
        for run_id in range(cfg.num_runs)
    ]
    records, failures = execute_runs(specs, cfg.workers)

    labels = {
        (variant, s_len): f"{variant}_S{s_len}" if len(cfg.s_values) > 1 else variant
        for variant in cfg.variants
        for s_len in cfg.s_values
    }
    for rec in records:
        label = labels[(rec.variant, rec.s_len)]
        write_run_csv(runs_dir / f"{label}_run{rec.run_id:03d}.csv", rec.trace)
    with open(out / "experiment.json", "w", encoding="utf-8") as fh:
        payload = {"fingerprint": cfg.fingerprint(), "config": cfg.raw}
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if failures:
        # A mean over the surviving runs would be biased, so none is written.
        with open(out / "failures.json", "w", encoding="utf-8") as fh:
            json.dump([f.as_json() for f in failures], fh, indent=2, sort_keys=True)
            fh.write("\n")
        raise failures[0].error

    aggregates = {
        label: _aggregate([r.trace for r in records if r.variant == variant and r.s_len == s_len])
        for (variant, s_len), label in labels.items()
    }
    write_aggregate_csv(out / "aggregate.csv", aggregates)
    render_regret_svg(
        {label: (agg.mean_cum_regret, agg.std_cum_regret) for label, agg in aggregates.items()},
        out / "regret.svg",
    )
    return ExperimentResult(aggregates=aggregates, runs=records, out_dir=out)


def _logt_fit_r2(traces: Sequence[RegretTrace]) -> Optional[float]:
    """R-squared of a c0 + c1 log(t) fit to the mean cumulative regret over the
    second half of the horizon.  Purely advisory."""
    if not traces or len(traces[0]) < 8:
        return None
    mean_curve = np.vstack([tr.cum_regret for tr in traces]).mean(axis=0)
    t = np.arange(1, len(mean_curve) + 1)
    lo = len(mean_curve) // 4
    x = np.log(t[lo:])
    y = mean_curve[lo:]
    coef = np.polyfit(x, y, 1)
    residuals = y - np.polyval(coef, x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0:
        return None
    return float(1.0 - np.sum(residuals**2) / ss_tot)


def binomial_lower_test(successes: int, trials: int, target: float, confidence: float = 0.99) -> bool:
    """One-sided test: accept the claim that the true success probability is at
    least `target` unless the observed count is improbably low."""
    if target <= 0 or successes >= trials:
        return True
    # Lower binomial tail P[X <= successes], summed in log space.
    log_p, log_q = math.log(target), math.log1p(-target)
    log_terms = [
        math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
        + k * log_p + (trials - k) * log_q
        for k in range(successes + 1)
    ]
    peak = max(log_terms)
    tail = math.exp(peak) * math.fsum(math.exp(t - peak) for t in log_terms)
    return tail >= 1.0 - confidence


def _printed_as(key: str):
    return field(metadata={"key": key})


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """The diagnostics summary.  Each field prints as one KEY=VALUE line, in
    field order; a field that is None is left out."""

    n_runs: int = _printed_as("RUNS")
    s_len: int = _printed_as("S")
    t_horizon: int = _printed_as("T")
    delta1: float = _printed_as("DELTA1")
    delta2: float = _printed_as("DELTA2")
    coverage_fraction: float = _printed_as("THM1_COVERAGE")
    coverage_target: float = _printed_as("THM1_TARGET")
    coverage_pass: bool = _printed_as("THM1_BINOMIAL_PASS")
    lemma_checked_runs: int = _printed_as("LEMMA_CHECKED_RUNS")
    zt_violations: int = _printed_as("BOUND_ZT_VIOLATIONS")
    polylog_violations: int = _printed_as("POLYLOG_BETA_VIOLATIONS")
    assumption2_runs: int = _printed_as("ASSUMPTION2_RUNS")
    assumption2_s_ok: int = _printed_as("ASSUMPTION2_S_OK")
    assumption2_lambda_ok: int = _printed_as("ASSUMPTION2_LAMBDA_OK")
    assumption2_coverage_ok: int = _printed_as("ASSUMPTION2_COVERAGE_OK")
    true_closed_loop_max: float = _printed_as("TRUE_CLOSED_LOOP_MAX")
    true_closed_loop_violation_steps: int = _printed_as("TRUE_CLOSED_LOOP_VIOLATION_STEPS")
    fallback_steps: int = _printed_as("FALLBACK_STEPS")
    accepted_steps: int = _printed_as("ACCEPTED_STEPS")
    # Advisory: goodness of a c0 + c1*log(t) fit to the mean regret curve.
    logt_fit_r2: Optional[float] = _printed_as("LOGT_FIT_R2")

    def text(self) -> str:
        lines = ["# diagnostics report"]
        for item in fields(self):
            value = getattr(self, item.name)
            if value is not None:
                text = f"{value:.17g}" if isinstance(value, float) else str(int(value))
                lines.append(f"{item.metadata['key']}={text}")
        return "\n".join(lines) + "\n"


def run_diagnostics(
    cfg: ExperimentConfig, num_runs: Optional[int] = None, out_dir=None
) -> DiagnosticsReport:
    """Monte-Carlo property checks: estimation-error coverage at the trace
    checkpoints, the two information inequalities, the offline-interface
    checks, and the true-system closed-loop predicate."""
    runs = num_runs if num_runs is not None else cfg.diag_runs
    if runs < 1:
        raise ConfigError(f"diagnostics needs at least one run, got {runs}")
    s_len = cfg.s_values[0]
    first = RunSpec(cfg, "tsod", s_len, 0, diagnostics=True)
    delta1, delta2 = first.delta1, first.delta2
    specs = [replace(first, run_id=run_id) for run_id in range(runs)]
    records, failures = execute_runs(specs, cfg.workers)
    if failures:
        raise failures[0].error

    covered = sum(1 for r in records if r.diagnostics.coverage_ok)
    target = max(0.0, 1.0 - delta1 - delta2)
    lemma_runs = [r for r in records if r.diagnostics.prior_lambda_ok]
    a2 = [r.assumption2 for r in records if r.assumption2 is not None]
    report = DiagnosticsReport(
        n_runs=runs,
        s_len=s_len,
        t_horizon=cfg.t_horizon,
        delta1=delta1,
        delta2=delta2,
        coverage_target=target,
        coverage_fraction=covered / runs,
        coverage_pass=binomial_lower_test(covered, runs, target),
        lemma_checked_runs=len(lemma_runs),
        zt_violations=sum(r.diagnostics.zt_violations for r in lemma_runs),
        polylog_violations=sum(0 if r.diagnostics.polylog_ok else 1 for r in lemma_runs),
        assumption2_s_ok=sum(1 for rep in a2 if rep.s_ok),
        assumption2_lambda_ok=sum(1 for rep in a2 if rep.lambda_ok),
        assumption2_coverage_ok=sum(1 for rep in a2 if rep.coverage_ok),
        assumption2_runs=len(a2),
        true_closed_loop_max=max(
            (r.diagnostics.true_closed_loop_max for r in records), default=0.0
        ),
        true_closed_loop_violation_steps=sum(
            r.diagnostics.true_closed_loop_violations for r in records
        ),
        fallback_steps=sum(r.diagnostics.fallback_steps for r in records),
        accepted_steps=sum(r.diagnostics.accepted_steps for r in records),
        logt_fit_r2=_logt_fit_r2([r.trace for r in records]),
    )
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "diagnostics.txt", "w", encoding="utf-8") as fh:
        fh.write(report.text())
    return report


@dataclass(frozen=True)
class ScalingCell:
    s_len: int
    t_horizon: int
    mean_final_regret: float
    std_final_regret: float
    n_runs: int


@dataclass(frozen=True, eq=False)
class ScalingResult:
    cells: Tuple[ScalingCell, ...]
    slope: Optional[float]


def scaling_study(
    cfg: ExperimentConfig,
    s_values: Sequence[int],
    t_values: Sequence[int],
    out_dir=None,
) -> ScalingResult:
    """Mean final regret over an (S, T) grid plus the fitted log-log exponent
    of regret against T/S."""
    grid = [(int(s_len), int(t_horizon)) for s_len in s_values for t_horizon in t_values]
    specs = []
    for s_len, t_horizon in grid:
        if s_len <= t_horizon:
            logger.warning("cell S=%d, T=%d violates S > T", s_len, t_horizon)
        cell_cfg = replace(cfg, s_values=(s_len,), t_horizon=t_horizon)
        specs += [RunSpec(cell_cfg, "tsod", s_len, run_id) for run_id in range(cfg.num_runs)]
    records, failures = execute_runs(specs, cfg.workers)
    if failures:
        raise failures[0].error

    cells = []
    for index, (s_len, t_horizon) in enumerate(grid):
        cell = records[index * cfg.num_runs : (index + 1) * cfg.num_runs]
        finals = np.asarray([rec.trace.final_cum_regret for rec in cell])
        std = float(finals.std(ddof=1)) if len(finals) > 1 else 0.0
        cells.append(ScalingCell(s_len, t_horizon, float(finals.mean()), std, cfg.num_runs))
    usable = [c for c in cells if c.mean_final_regret > 0]
    slope = None
    if len(usable) >= 2:
        x = np.log([c.t_horizon / c.s_len for c in usable])
        y = np.log([c.mean_final_regret for c in usable])
        if float(np.ptp(x)) > 0:
            slope = float(np.polyfit(x, y, 1)[0])
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = [(c.s_len, c.t_horizon, c.mean_final_regret, c.std_final_regret, c.n_runs) for c in cells]
    footer = "" if slope is None else f"# fitted log-log slope of regret vs T/S: {slope:.17g}"
    with open(out / "scaling.csv", "w", newline="", encoding="utf-8") as fh:
        header = "s,t,mean_final_regret,std_final_regret,n_runs"
        np.savetxt(fh, table, fmt="%d,%d,%.17g,%.17g,%d", header=header, footer=footer, comments="")
    return ScalingResult(cells=tuple(cells), slope=slope)
