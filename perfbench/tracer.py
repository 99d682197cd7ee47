"""Spans around the public functions of tsodlqr's modules, recorded from outside
the package, and the per-layer figures derived from them.

`Tracer.install` replaces each traced function by a recording wrapper in every
tsodlqr module that holds a reference to it.  Several modules import functions
by name (`controller` imports `q_membership` and `solve_dare`, `offline` and
`cli` import `solve_dare`, `harness` imports `simulate_offline`, ...), so
patching only the defining module would miss those call sites.

A span records its name, start, end, parent and an episode id.  Spans opened
inside `harness.execute_single_run` or `controller.run_episode` share the id
of the outermost such span, so the offline collection and the online episode
of one run carry one id.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED = (
    ("lqr", "solve_dare"),
    ("lqr", "q_membership"),
    ("controller", "sample_constrained"),
    ("controller", "update_belief"),
    ("controller", "compute_beta"),
    ("controller", "run_episode"),
    ("sim", "step_system"),
    ("harness", "run_experiment"),
    ("harness", "run_diagnostics"),
    ("harness", "execute_single_run"),
    ("offline", "simulate_offline"),
    ("offline", "check_assumption2"),
    ("offline", "save_offline"),
    ("offline", "load_offline"),
    ("traces", "write_run_csv"),
    ("svgplot", "render_regret_svg"),
)
EPISODE_ROOTS = frozenset({"harness.execute_single_run", "controller.run_episode"})

# Percentiles tried, highest first, when choosing a tail percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class Span:
    __slots__ = ("id", "parent", "episode", "name", "start", "end", "info")

    def __init__(self, span_id, parent, episode, name):
        self.id = span_id
        self.parent = parent
        self.episode = episode
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.info = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _offline_bytes(args, kwargs, _result):
    base = Path(_arg(args, kwargs, 0, "basepath"))
    return _file_bytes(base.with_suffix(".csv"), base.with_suffix(".json"))


def _failure_kind(exc) -> str:
    text = str(exc)
    if "trace exceeded cap" in text:
        return "trace_cap"
    if "diverged" in text:
        return "diverged"
    if "did not converge" in text:
        return "iteration_limit"
    return type(exc).__name__


class Tracer:
    """Records spans while installed; `outcomes` keeps each sampler result with
    the cost matrices and admissible set it was drawn for."""

    def __init__(self):
        self.spans = []
        self.outcomes = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _on_return(self, name):
        if name == "lqr.solve_dare":
            return lambda args, kwargs, result: "ok"
        if name == "lqr.q_membership":
            return lambda args, kwargs, result: result is not None
        if name == "controller.sample_constrained":
            outcomes = self.outcomes

            def sampler(args, kwargs, result):
                costs = _arg(args, kwargs, 3, "costs")
                set_q = _arg(args, kwargs, 2, "set_q")
                outcomes.append((result, costs, set_q))
                return (result.rejections, result.fallback_used)

            return sampler
        if name == "offline.simulate_offline":
            return lambda args, kwargs, result: _arg(args, kwargs, 2, "s_len")
        if name in ("offline.save_offline", "offline.load_offline"):
            return _offline_bytes
        if name == "traces.write_run_csv":
            return lambda args, kwargs, result: _file_bytes(_arg(args, kwargs, 0, "path"))
        if name == "svgplot.render_regret_svg":
            return lambda args, kwargs, result: _file_bytes(_arg(args, kwargs, 1, "path"))
        return None

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        on_return = self._on_return(name)
        is_root = name in EPISODE_ROOTS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent.episode >= 0:
                episode = parent.episode
            else:
                episode = len(spans) if is_root else -1
            span = Span(len(spans), parent.id if parent is not None else -1, episode, name)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                span.info = _failure_kind(exc)
                raise
            span.end = clock()
            stack.pop()
            if on_return is not None:
                span.info = on_return(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "tsodlqr" or mod_name.startswith("tsodlqr."))
        ]
        for layer, fn_name in TRACED:
            original = getattr(sys.modules[f"tsodlqr.{layer}"], fn_name)
            wrapper = self._wrap(f"{layer}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def outside_time(spans, start: float, end: float) -> float:
    """Time in [start, end] that no top-level span covers."""
    top = [(span.start, span.end) for span in spans if span.parent < 0]
    return (end - start) - union_length(top, start, end)


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct % of the
    samples at or below it.  0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    tenths = round(pct * 10)
    rank = max(1, -(-tenths * len(ordered) // 1000))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """Highest percentile of TAIL_LADDER that leaves at least TAIL_MIN_BEYOND
    samples above its nearest rank; the median when none does."""
    for pct in TAIL_LADDER:
        rank = -(-round(pct * 10) * count // 1000)
        if count - rank >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def round_profile(spans, start: float, end: float) -> dict:
    """Counts, self times and percentiles of one traced round.

    Every traced function is either reported by its own self time or folded
    into `harness.self_s`, so the self times plus `trace.outside_s` add up to
    the round's wall time.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return len(by_name[name])

    def self_sum(*names):
        return math.fsum(selfs[span.id] for name in names for span in by_name[name])

    def info_sum(name):
        return sum(span.info for span in by_name[name] if type(span.info) is int)

    membership = {"admitted": 0, "trace_cap": 0, "full_solve": 0, "other": 0}
    solve_info = {}
    for span in by_name["lqr.solve_dare"]:
        solve_info[span.parent] = span.info
    for span in by_name["lqr.q_membership"]:
        if span.info is True:
            membership["admitted"] += 1
        else:
            child = solve_info.get(span.id)
            if child == "trace_cap":
                membership["trace_cap"] += 1
            elif child == "ok":
                membership["full_solve"] += 1
            else:
                membership["other"] += 1
    sampler = by_name["controller.sample_constrained"]
    sampled = [span.info for span in sampler if isinstance(span.info, tuple)]
    sampler_s = [span.end - span.start for span in sampler]
    runs_s = [span.end - span.start for span in by_name["harness.execute_single_run"]]
    n_membership = calls("lqr.q_membership")

    return {
        "lqr.solve_dare.calls": calls("lqr.solve_dare"),
        "lqr.solve_dare.self_s": self_sum("lqr.solve_dare"),
        "lqr.q_membership.calls": n_membership,
        "lqr.q_membership.self_s": self_sum("lqr.q_membership"),
        "lqr.q_membership.admit_ratio": membership["admitted"] / n_membership if n_membership else 0.0,
        "lqr.q_membership.trace_cap_rejects": membership["trace_cap"],
        "lqr.q_membership.full_solve_rejects": membership["full_solve"],
        "lqr.q_membership.other_rejects": membership["other"],
        "controller.sample_constrained.calls": len(sampler),
        "controller.sample_constrained.self_s": self_sum("controller.sample_constrained"),
        "controller.sample_constrained.p50_us": nearest_rank(sampler_s, 50.0) * 1e6,
        "controller.sample_constrained.p99_us": nearest_rank(sampler_s, 99.0) * 1e6,
        "controller.sample_constrained.rejections": sum(rejections for rejections, _ in sampled),
        "controller.sample_constrained.fallbacks": sum(1 for _, fallback in sampled if fallback),
        "controller.update_belief.calls": calls("controller.update_belief"),
        "controller.update_belief.s": self_sum("controller.update_belief"),
        "controller.compute_beta.s": self_sum("controller.compute_beta"),
        "controller.run_episode.self_s": self_sum("controller.run_episode"),
        "sim.step_system.calls": calls("sim.step_system"),
        "sim.step_system.s": self_sum("sim.step_system"),
        "harness.execute_single_run.calls": len(runs_s),
        "harness.execute_single_run.p50_ms": nearest_rank(runs_s, 50.0) * 1e3,
        "harness.execute_single_run.tail_ms": nearest_rank(runs_s, tail_percentile(len(runs_s))) * 1e3,
        "harness.self_s": self_sum(
            "harness.run_experiment", "harness.run_diagnostics", "harness.execute_single_run"
        ),
        "offline.simulate_offline.calls": calls("offline.simulate_offline"),
        "offline.simulate_offline.self_s": self_sum("offline.simulate_offline"),
        "offline.simulate_offline.steps": info_sum("offline.simulate_offline"),
        "offline.check_assumption2.s": self_sum("offline.check_assumption2"),
        "offline.save_offline.s": self_sum("offline.save_offline"),
        "offline.save_offline.bytes": info_sum("offline.save_offline"),
        "offline.load_offline.s": self_sum("offline.load_offline"),
        "offline.load_offline.bytes": info_sum("offline.load_offline"),
        "traces.write_run_csv.calls": calls("traces.write_run_csv"),
        "traces.write_run_csv.s": self_sum("traces.write_run_csv"),
        "traces.write_run_csv.bytes": info_sum("traces.write_run_csv"),
        "svgplot.render_regret_svg.s": self_sum("svgplot.render_regret_svg"),
        "svgplot.render_regret_svg.bytes": info_sum("svgplot.render_regret_svg"),
        "trace.outside_s": outside_time(spans, start, end),
        "trace.wall_s": end - start,
    }


# The self-time figures of round_profile that partition a round's wall time.
SELF_TIME_KEYS = (
    "lqr.solve_dare.self_s",
    "lqr.q_membership.self_s",
    "controller.sample_constrained.self_s",
    "controller.update_belief.s",
    "controller.compute_beta.s",
    "controller.run_episode.self_s",
    "sim.step_system.s",
    "harness.self_s",
    "offline.simulate_offline.self_s",
    "offline.check_assumption2.s",
    "offline.save_offline.s",
    "offline.load_offline.s",
    "traces.write_run_csv.s",
    "svgplot.render_regret_svg.s",
    "trace.outside_s",
)


def write_spans(path, rounds) -> None:
    """Write the spans of each traced round, times relative to the round start."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,id,parent,episode,name,start_s,end_s,info\n")
        for index, start, spans in rounds:
            for s in spans:
                info = "" if s.info is None else str(s.info).replace(",", ";")
                fh.write(
                    f"{index},{s.id},{s.parent},{s.episode},{s.name},"
                    f"{s.start - start:.9f},{s.end - start:.9f},{info}\n"
                )
