"""Count the sampler's global rounds and Riccati solves on one config.

    python3 tools/sampler_rounds.py --config configs/paper_fig1.cfg [--set KEY=VALUE ...]
    python3 tools/sampler_rounds.py --config perfbench/configs/diag_scalar.cfg --command diagnostics

Runs `tsodlqr run` (or `diagnostics`) in this process, serially, with the
outputs written to a temporary directory, and prints one JSON line:

- `steps`: the online steps taken, summed over the runs;
- `rounds`: the global rounds in which some run sampled, that is the calls
  of `controller._sample_round`;
- `solve_calls`, `solved_slices` and `max_slices_per_call`: the calls of the
  sampler's solve binding, `controller.solve_and_bound`, and the candidates
  they solved;
- `screen_calls` and `screened_slices`: the calls of the sampler's screen,
  `controller._screen`, and the candidates they screened;
- `ladder_calls` and `ladder_slices`: the calls of the fallback ladder's
  stacked admissibility test, `controller.admitted_stack`, one in each round
  in which some run climbs its ladder, and the rungs they tested.  A run
  that falls back to its last accepted sample takes it unsolved and is not
  counted.

The counts come from wrappers around those module bindings, so no file
under `src/` needs to change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tsodlqr.controller as controller  # noqa: E402
from tsodlqr.config import load_experiment_config  # noqa: E402
from tsodlqr.harness import run_diagnostics, run_experiment  # noqa: E402


def count(config: str, overrides: list, command: str) -> dict:
    counts = {
        "steps": 0, "rounds": 0, "solve_calls": 0, "solved_slices": 0, "max_slices_per_call": 0,
        "screen_calls": 0, "screened_slices": 0, "ladder_calls": 0, "ladder_slices": 0,
    }
    real_round, real_solve, real_step = controller._sample_round, controller.solve_and_bound, controller.step_systems
    real_screen, real_ladder = controller._screen, controller.admitted_stack

    def sample_round(*args, **kwargs):
        counts["rounds"] += 1
        return real_round(*args, **kwargs)

    def solve_and_bound(stacked, *args, **kwargs):
        counts["solve_calls"] += 1
        counts["solved_slices"] += len(stacked)
        counts["max_slices_per_call"] = max(counts["max_slices_per_call"], len(stacked))
        return real_solve(stacked, *args, **kwargs)

    def screen(stacked, *args, **kwargs):
        counts["screen_calls"] += 1
        counts["screened_slices"] += len(stacked)
        return real_screen(stacked, *args, **kwargs)

    def step_systems(thetas, *args, **kwargs):
        counts["steps"] += len(thetas)
        return real_step(thetas, *args, **kwargs)

    def admitted_stack(stacked, *args, **kwargs):
        counts["ladder_calls"] += 1
        counts["ladder_slices"] += len(stacked)
        return real_ladder(stacked, *args, **kwargs)

    cfg = load_experiment_config(config, list(overrides) + ["workers=1"])
    controller._sample_round, controller.solve_and_bound = sample_round, solve_and_bound
    controller.step_systems, controller.admitted_stack = step_systems, admitted_stack
    controller._screen = screen
    try:
        with tempfile.TemporaryDirectory(prefix="sampler_rounds_") as out:
            if command == "run":
                run_experiment(cfg, out_dir=out)
            else:
                run_diagnostics(cfg, out_dir=out)
    finally:
        controller._sample_round, controller.solve_and_bound = real_round, real_solve
        controller.step_systems, controller.admitted_stack = real_step, real_ladder
        controller._screen = real_screen
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="path of the config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override")
    parser.add_argument("--command", choices=("run", "diagnostics"), default="run")
    args = parser.parse_args(argv)
    result = {"config": args.config, "set": args.set, "command": args.command}
    result.update(count(args.config, args.set, args.command))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
