"""Command-line entry point: config parsing, validation, and dispatch to the
offline generator, the experiment harness, the diagnostics suite, the scaling
sweep, and the Riccati debugging aid."""

from __future__ import annotations

import argparse
import logging
import os
import sys
import textwrap
from pathlib import Path

import numpy as np

from .errors import ConfigError, TsodLqrError, UsageError
from .config import dotted_keys, load_experiment_config
from .harness import RunSpec, clear_outputs, collect_offline, run_diagnostics, run_experiment, scaling_study
from .lqr import solve_dare
from .offline import save_offline

logger = logging.getLogger("tsodlqr")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _config_key_help() -> str:
    """The --help epilog: one line per config key, from the config schema."""
    lines = ["config keys (JSON object; matrices are nested numeric arrays):"]
    for name, key in dotted_keys():
        lines.append(textwrap.fill(key.help, 79, initial_indent=f"  {name:<24}", subsequent_indent=" " * 26))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config file")
    common.add_argument("--out", default=None, help="output directory (env TSOD_OUT_DIR as fallback)")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable; dotted keys for sections)",
    )
    common.add_argument("--seed", type=int, default=None, help="override base_seed")
    common.add_argument("--workers", type=int, default=None, help="override worker count")
    common.add_argument("--verbose", "-v", action="count", default=0)

    parser = _Parser(
        prog="tsodlqr",
        description=(
            "Simulation and experiment harness for online LQR control that "
            "warm-starts from offline trajectories of a similar system."
        ),
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("offline", parents=[common], help="generate and cache offline datasets")
    sub.add_parser("run", parents=[common], help="run the configured experiment")
    diag = sub.add_parser("diagnostics", parents=[common], help="run the property-check suite")
    diag.add_argument("--runs", type=int, default=None, help="override diag_runs")
    sub.add_parser("sweep", parents=[common], help="scaling study over (S, T) grids")
    sub.add_parser("riccati", parents=[common], help="print P, K, J for the configured system")
    return parser


def _cmd_offline(cfg, out_dir) -> int:
    out = Path(out_dir) / "offline"
    out.mkdir(parents=True, exist_ok=True)
    clear_outputs(out, r"s[0-9]+_run[0-9]{3,}\.(csv|json)")
    for s_len in cfg.s_values:
        # The datasets that the runs of the tsod variant collect.
        specs = [RunSpec(cfg, "tsod", s_len, run_id) for run_id in range(cfg.num_runs)]
        for spec, dataset in zip(specs, collect_offline(specs)):
            if isinstance(dataset, TsodLqrError):
                raise dataset
            save_offline(out / f"s{s_len}_run{spec.run_id:03d}", *dataset)
            logger.info("wrote offline dataset S=%d run=%d", s_len, spec.run_id)
    print(f"offline datasets written to {out}")
    return EXIT_OK


def _cmd_run(cfg, out_dir) -> int:
    result = run_experiment(cfg, out_dir=out_dir)
    for label, agg in result.aggregates.items():
        print(
            f"{label}: mean final cumulative regret "
            f"{agg.mean_cum_regret[-1]:.6g} (std {agg.std_cum_regret[-1]:.6g}, "
            f"{agg.n_runs} runs)"
        )
    print(f"outputs written to {result.out_dir}")
    return EXIT_OK


def _cmd_diagnostics(cfg, out_dir) -> int:
    report = run_diagnostics(cfg, out_dir=out_dir)
    sys.stdout.write(report.text())
    return EXIT_OK


def _cmd_sweep(cfg, out_dir) -> int:
    s_values = cfg.sweep_s_values or cfg.s_values
    t_values = cfg.sweep_t_values or (cfg.t_horizon,)
    result = scaling_study(cfg, s_values, t_values, out_dir=out_dir)
    print("s,t,mean_final_regret,std_final_regret,n_runs")
    for cell in result.cells:
        print(
            f"{cell.s_len},{cell.t_horizon},{cell.mean_final_regret:.6g},"
            f"{cell.std_final_regret:.6g},{cell.n_runs}"
        )
    if result.slope is not None:
        print(f"fitted log-log slope of regret vs T/S: {result.slope:.4f}")
    return EXIT_OK


def _cmd_riccati(cfg) -> int:
    theta = cfg.theta_star_explicit
    if theta is None:
        raise ConfigError("riccati requires explicit a_star and b_star")
    sol = solve_dare(theta, cfg.costs)
    with np.printoptions(precision=10, suppress=True):
        print("P =")
        print(sol.p_matrix)
        print("K =")
        print(sol.gain)
        print(f"J = {sol.avg_cost:.12g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose > 1 else logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        overrides = list(args.overrides)
        if args.seed is not None:
            overrides.append(f"base_seed={args.seed}")
        if args.workers is not None:
            overrides.append(f"workers={args.workers}")
        if getattr(args, "runs", None) is not None:
            overrides.append(f"diag_runs={args.runs}")
        cfg = load_experiment_config(args.config, overrides)
        out_dir = args.out or os.environ.get("TSOD_OUT_DIR") or cfg.output_dir
        if args.subcommand == "offline":
            return _cmd_offline(cfg, out_dir)
        if args.subcommand == "run":
            return _cmd_run(cfg, out_dir)
        if args.subcommand == "diagnostics":
            return _cmd_diagnostics(cfg, out_dir)
        if args.subcommand == "sweep":
            return _cmd_sweep(cfg, out_dir)
        if args.subcommand == "riccati":
            return _cmd_riccati(cfg)
        raise UsageError(f"unknown subcommand {args.subcommand!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TsodLqrError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # I/O and other environment failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
