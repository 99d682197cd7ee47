"""Benchmark for tsodlqr: end-to-end figures of three workloads, or per-layer
figures from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig1 --seed 1001 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

One run measures set-up in fresh interpreters, then repeats rounds of the
workload (see workloads.py) until --seconds have passed, checks the outputs,
and prints one JSON object as its last line of output:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With --trace 0 the metrics are END_TO_END, measured with tracing off.  With
--trace 1 untraced and traced rounds alternate and the metrics are PER_LAYER.
The full result, with the environment, goes to perfbench/results/, and a
traced run also writes its spans there.  `--workload all` runs each
workload in a fresh process and prints one JSON line per workload, with its
name added.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import BENCH_DIR, ROOT

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 5
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 120
# Bound on |sum of self times + time outside spans - traced wall time|.
ADDITIVITY_TOLERANCE_S = 1e-5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "transitions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lqr.solve_dare.calls": "count",
    "lqr.solve_dare.self_s": "s",
    "lqr.q_membership.calls": "count",
    "lqr.q_membership.self_s": "s",
    "lqr.q_membership.admit_ratio": "ratio",
    "lqr.q_membership.trace_cap_rejects": "count",
    "lqr.q_membership.full_solve_rejects": "count",
    "lqr.q_membership.other_rejects": "count",
    "controller.sample_constrained.calls": "count",
    "controller.sample_constrained.self_s": "s",
    "controller.sample_constrained.p50_us": "us",
    "controller.sample_constrained.p99_us": "us",
    "controller.sample_constrained.rejections": "count",
    "controller.sample_constrained.fallbacks": "count",
    "controller.update_belief.calls": "count",
    "controller.update_belief.s": "s",
    "controller.compute_beta.s": "s",
    "controller.run_episode.self_s": "s",
    "sim.step_system.calls": "count",
    "sim.step_system.s": "s",
    "harness.execute_single_run.calls": "count",
    "harness.execute_single_run.p50_ms": "ms",
    "harness.execute_single_run.tail_ms": "ms",
    "harness.self_s": "s",
    "offline.simulate_offline.calls": "count",
    "offline.simulate_offline.self_s": "s",
    "offline.simulate_offline.steps": "count",
    "offline.check_assumption2.s": "s",
    "offline.save_offline.s": "s",
    "offline.save_offline.bytes": "bytes",
    "offline.load_offline.s": "s",
    "offline.load_offline.bytes": "bytes",
    "traces.write_run_csv.calls": "count",
    "traces.write_run_csv.s": "s",
    "traces.write_run_csv.bytes": "bytes",
    "svgplot.render_regret_svg.s": "s",
    "svgplot.render_regret_svg.bytes": "bytes",
    "config.import_s": "s",
    "config.load_experiment_config.s": "s",
    "trace.overhead_s": "s",
    "trace.outside_s": "s",
    "trace.wall_s": "s",
}


@dataclass
class Round:
    index: int
    start: float
    end: float
    result: workloads.RoundResult
    digest: str
    tracer: object

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def wall(self) -> float:
        return self.end - self.start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's default seed")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in a fresh process; print one JSON line for each."""
    status = 0
    for workload in workloads.WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": workload, **result}), flush=True)
    return status


def probe_setup(workload: str, seed: int) -> dict:
    """Time one import plus config build in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, cfg, seconds: float, trace: bool, work: Path) -> list:
    """Repeat rounds while another one is expected to end within `seconds`,
    and at least MIN_ROUNDS times.  With tracing, odd rounds are traced.  Only
    round 0 keeps its outputs."""
    from tracer import Tracer

    runner = workloads.RUNNERS[workload]
    rounds = []
    began = time.perf_counter()
    elapsed = 0.0
    while len(rounds) < MIN_ROUNDS or elapsed * (len(rounds) + 1) / len(rounds) <= seconds:
        index = len(rounds)
        out_dir = work / f"round{index}"
        out_dir.mkdir(parents=True)
        with Tracer() if trace and index % 2 == 1 else contextlib.nullcontext() as tracer:
            start = time.perf_counter()
            result = runner(cfg, out_dir)
            end = time.perf_counter()
        rounds.append(Round(index, start, end, result, workloads.digest_tree(out_dir), tracer))
        if index > 0:
            result.output = None
            shutil.rmtree(out_dir)
        elapsed = time.perf_counter() - began
    return rounds


def check_rounds(workload: str, cfg, rounds, work: Path) -> list:
    import checks

    failures = []
    first = rounds[0]
    if first.result.output is not None:
        failures += checks.CHECKS[workload](cfg, first.result.output, work / "round0")
    if any(r.digest != first.digest for r in rounds):
        failures.append("rounds with the same seed wrote different outputs")
    return failures


def end_to_end_metrics(rounds, setups) -> dict:
    wall = statistics.median(r.wall for r in rounds)
    return {
        "setup_s": statistics.median(s["import_s"] + s["config_s"] for s in setups),
        "wall_s": wall,
        "transitions_per_s": rounds[0].result.transitions / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(rounds, setups) -> tuple:
    """Per-layer figures of the traced rounds, and the failures of the checks
    that the trace allows: counts repeat, self times add up, and every sample
    the sampler accepted is admissible by scipy's reckoning."""
    import checks
    import tracer as tr

    failures = []
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    profiles = [tr.round_profile(r.tracer.spans, r.start, r.end) for r in traced]
    metrics = {}
    for key in profiles[0]:
        values = [p[key] for p in profiles]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                failures.append(f"{key} differs between rounds with the same inputs: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    for r, profile in zip(traced, profiles):
        total = sum(profile[key] for key in tr.SELF_TIME_KEYS)
        if abs(total - r.wall) > ADDITIVITY_TOLERANCE_S:
            failures.append(f"round {r.index}: self times add up to {total:.6f} s, wall is {r.wall:.6f} s")

    metrics.update(
        {
            "config.import_s": statistics.median(s["import_s"] for s in setups),
            "config.load_experiment_config.s": statistics.median(s["config_s"] for s in setups),
            "trace.overhead_s": statistics.median(r.wall for r in traced)
            - statistics.median(r.wall for r in untraced),
        }
    )
    failures += checks.check_outcomes(traced[0].tracer.outcomes)
    return {name: metrics[name] for name in PER_LAYER}, failures


def environment(cfg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "workers": cfg.workers,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (workloads.SRC / "tsodlqr").is_dir():
        print(f"no tsodlqr sources under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEEDS[args.workload]

    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workloads.use_source_tree()
    cfg = workloads.load_config(args.workload, args.seed)
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        rounds = measure(args.workload, cfg, args.seconds, bool(args.trace), work)
        if args.trace:
            metrics, failures = per_layer_metrics(rounds, setups)
            units = PER_LAYER
        else:
            metrics, failures = end_to_end_metrics(rounds, setups), []
            units = END_TO_END
        failures += check_rounds(args.workload, cfg, rounds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": sum(r.result.ops for r in rounds),
        "failed": sum(r.result.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        rounds=[{"index": r.index, "traced": r.traced, "wall_s": r.wall} for r in rounds],
        failures=failures,
        environment=environment(cfg),
    )
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        import tracer

        tracer.write_spans(
            results_dir / f"{stem}-spans.csv",
            [(r.index, r.start, r.tracer.spans) for r in rounds if r.traced],
        )
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
