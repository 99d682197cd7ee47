"""Benchmark this checkout against a parent commit in alternating pairs.

    python3 tools/bench_pairs.py --parent REF --label NAME [--note TEXT]

The parent's committed tree is extracted with `git archive` into a temporary
directory, which is removed at the end. The change is the working tree of
this checkout. For each benchmark workload at its default seed, pair i of
PAIRS runs `python3 perfbench/run.py --workload W --seed SEED --seconds N
--trace 0` in both trees, with N the `run_seconds` of BENCHMARK.json, the
parent first when i is odd and the change first when i is even, so that a
drift in machine speed falls on both sides alike. Then each workload runs
once with `--trace 1` in each tree for the per-layer figures.

The result goes to `BENCH_<label>.json` at the root of this checkout: per
workload and end-to-end metric the median and inclusive quartiles of both
sides, the ratio of the medians (`change_over_parent`) and the number of
pairs the change won (`change_wins`), then every pair's full perfbench
record, the traced per-layer figures and the environment. Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (the benchmark's workload names and seeds)

PAIRS = 10
COMMAND = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds:g} --trace {trace}"


def extract(ref: str, into: Path) -> None:
    """Write the committed tree of `ref` into `into`."""
    archive = into.parent / "parent.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`; its full record from perfbench/results."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    record = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
        c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        summary[name] = {
            "better": direction,
            "parent_median": p_med,
            "parent_q1": p_q1,
            "parent_q3": p_q3,
            "change_median": c_med,
            "change_q1": c_q1,
            "change_q3": c_q3,
            "change_over_parent": c_med / p_med,
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return summary


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    parser.add_argument("--note", default="", help="what the change does, stored as `change`")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    trees = {"change": ROOT}
    out = {
        "label": args.label,
        "change": args.note,
        "parent_commit": subprocess.run(
            ["git", "rev-parse", args.parent], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip(),
        "command": COMMAND.format(workload="WORKLOAD", seed="SEED", seconds=seconds, trace=0),
        "procedure": (
            "the parent commit (extracted with git archive) and the change each ran from its own "
            "tree on the same machine, one run after the other; pair i runs the parent first when "
            "i is odd and the change first when i is even; quartiles are inclusive"
        ),
        "hardware": {"cpu": cpu_model(), "cpu_count": os.cpu_count()},
        "workloads": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees["parent"] = Path(tmp) / "parent"
        extract(args.parent, trees["parent"])
        for workload in workloads.WORKLOADS:
            seed = workloads.DEFAULT_SEEDS[workload]
            pairs = []
            for i in range(1, PAIRS + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                pair = {"pair": i, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, seconds, 0)
                pairs.append(pair)
                print(f"{workload} pair {i}: " + ", ".join(
                    f"{side} wall_s {pair[side]['metrics']['wall_s']['value']:.3f}"
                    f" correct {pair[side]['correct']} failed {pair[side]['failed']}"
                    for side in order
                ), file=sys.stderr, flush=True)
            out["workloads"].append(
                {"workload": workload, "seed": seed, "summary": summarise(pairs, better), "pairs": pairs}
            )
        for workload in workloads.WORKLOADS:
            seed = workloads.DEFAULT_SEEDS[workload]
            traced = {"command": COMMAND.format(workload=workload, seed=seed, seconds=seconds, trace=1)}
            for side in ("parent", "change"):
                metrics = run_bench(trees[side], workload, seed, seconds, 1)["metrics"]
                traced[side] = {name: metric["value"] for name, metric in metrics.items()}
            out[f"traced_{workload}_seed{seed}"] = traced
    out["environment"] = out["workloads"][0]["pairs"][0]["change"]["environment"]
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
