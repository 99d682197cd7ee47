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
record, the traced per-layer figures, the environment, and the lines the
change adds to and removes from `src/` against the parent (`git diff
--numstat REF -- src`, over tracked and staged files).

perfbench's `fig1` workload runs the `tsod` variant alone, so the result
also holds the north-star numbers under `north_star`: for each of
`configs/paper_fig1.cfg` and `configs/paper_fig2.cfg`, NORTH_STAR_PAIRS
alternating pairs of `tsodlqr run --set workers=1`, each run in a fresh
process, with the wall time of every run, the medians of both sides, and
whether each pair's output trees have equal digests. Only the standard
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (the benchmark's workload names and seeds)

PAIRS = 10
NORTH_STAR_PAIRS = 3
NORTH_STAR_CONFIGS = ("paper_fig1", "paper_fig2")
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


def run_cli(tree: Path, config: str, out: Path) -> float:
    """Wall seconds of one `tsodlqr run` of configs/<config>.cfg in `tree`,
    serial and at one BLAS thread, in a fresh process that imports the
    package from `tree`."""
    command = [sys.executable, "-m", "tsodlqr.cli", "run", "--config", f"configs/{config}.cfg"]
    command += ["--set", "workers=1", "--out", str(out)]
    # One BLAS thread, as perfbench runs its workloads.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return wall


def north_star_pairs(trees: dict, scratch: Path) -> dict:
    """Alternating serial pairs of `tsodlqr run` on the north-star configs."""
    result = {"command": "python3 -m tsodlqr.cli run --config configs/CONFIG.cfg --set workers=1 --out DIR"}
    for config in NORTH_STAR_CONFIGS:
        pairs = []
        for i in range(1, NORTH_STAR_PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[f"{side}_wall_s"] = run_cli(trees[side], config, scratch / f"{config}_{side}_{i}")
            pair["same_digest"] = workloads.digest_tree(scratch / f"{config}_parent_{i}") == workloads.digest_tree(
                scratch / f"{config}_change_{i}"
            )
            pairs.append(pair)
            print(f"{config} pair {i}: " + ", ".join(
                f"{side} wall_s {pair[f'{side}_wall_s']:.3f}" for side in order
            ) + f", same digest {pair['same_digest']}", file=sys.stderr, flush=True)
        parent = statistics.median(p["parent_wall_s"] for p in pairs)
        change = statistics.median(p["change_wall_s"] for p in pairs)
        result[config] = {
            "parent_median_wall_s": parent,
            "change_median_wall_s": change,
            "change_over_parent": change / parent,
            "change_wins": sum(p["change_wall_s"] < p["parent_wall_s"] for p in pairs),
            "all_same_digest": all(p["same_digest"] for p in pairs),
            "pairs": pairs,
        }
    return result


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


def src_line_counts(ref: str) -> dict:
    """Lines added to and removed from `src/` between `ref` and the working tree."""
    numstat = subprocess.run(
        ["git", "diff", "--numstat", ref, "--", "src"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout
    added = removed = 0
    for line in numstat.splitlines():
        plus, minus, _ = line.split("\t", 2)
        if plus != "-":  # "-" marks a binary file
            added, removed = added + int(plus), removed + int(minus)
    return {"added": added, "removed": removed, "net": added - removed}


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
        "src_lines": src_line_counts(args.parent),
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
        out["north_star"] = north_star_pairs(trees, Path(tmp))
    out["environment"] = out["workloads"][0]["pairs"][0]["change"]["environment"]
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
