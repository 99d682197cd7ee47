"""Fast tests of the benchmark's own arithmetic and of its metric names.

Run with: python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def make_span(span_id, parent, name, start, end, info=None):
    span = Span(span_id, parent, -1, name)
    span.start, span.end, span.info = start, end, info
    return span


def test_union_length_merges_overlaps_and_clips():
    assert tracer.union_length([(1, 3), (2, 4), (9, 12)], 0, 10) == 4
    assert tracer.union_length([(5, 6), (1, 2)], 0, 10) == 2
    assert tracer.union_length([(-3, -1), (11, 12)], 0, 10) == 0
    assert tracer.union_length([], 0, 10) == 0


def test_self_time_is_duration_minus_children():
    spans = [
        make_span(0, -1, "harness.run_experiment", 0.0, 10.0),
        make_span(1, 0, "harness.execute_single_run", 1.0, 7.0),
        make_span(2, 1, "controller.run_episode", 2.0, 6.0),
        make_span(3, 2, "lqr.solve_dare", 2.5, 3.0, "ok"),
        make_span(4, 2, "lqr.solve_dare", 4.0, 5.5, "ok"),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 2.0, 3: 0.5, 4: 1.5}
    assert tracer.outside_time(spans, -1.0, 12.0) == 3.0


def test_round_profile_self_times_add_up_to_wall():
    spans = [
        make_span(0, -1, "harness.run_experiment", 0.5, 9.0),
        make_span(1, 0, "offline.simulate_offline", 0.6, 1.6, 3000),
        make_span(2, 1, "lqr.solve_dare", 1.0, 1.1, "ok"),
        make_span(3, 0, "controller.run_episode", 2.0, 8.0),
        make_span(4, 3, "controller.sample_constrained", 2.1, 3.0, (1, False)),
        make_span(5, 4, "lqr.q_membership", 2.2, 2.5, False),
        make_span(6, 5, "lqr.solve_dare", 2.2, 2.4, "ok"),
        make_span(7, 4, "lqr.q_membership", 2.6, 2.9, True),
        make_span(8, 7, "lqr.solve_dare", 2.6, 2.8, "ok"),
        make_span(9, 3, "sim.step_system", 3.1, 3.2),
        make_span(10, 3, "controller.update_belief", 3.3, 3.6),
        make_span(11, 0, "traces.write_run_csv", 8.1, 8.3, 100),
    ]
    profile = tracer.round_profile(spans, 0.0, 10.0)
    assert sum(profile[key] for key in tracer.SELF_TIME_KEYS) == pytest.approx(10.0, abs=1e-12)
    assert profile["trace.outside_s"] == pytest.approx(1.5)
    assert profile["lqr.solve_dare.calls"] == 3
    assert profile["lqr.q_membership.full_solve_rejects"] == 1
    assert profile["lqr.q_membership.admit_ratio"] == 0.5
    assert profile["controller.sample_constrained.rejections"] == 1
    assert profile["offline.simulate_offline.steps"] == 3000
    assert profile["traces.write_run_csv.bytes"] == 100


def test_q_membership_rejects_are_classified_by_the_solve():
    spans = [
        make_span(0, -1, "lqr.q_membership", 0.0, 1.0, False),
        make_span(1, 0, "lqr.solve_dare", 0.0, 0.5, "trace_cap"),
        make_span(2, -1, "lqr.q_membership", 1.0, 2.0, False),
        make_span(3, 2, "lqr.solve_dare", 1.0, 1.5, "diverged"),
        make_span(4, -1, "lqr.q_membership", 2.0, 3.0, False),
        make_span(5, 4, "lqr.solve_dare", 2.0, 2.5, "ok"),
    ]
    profile = tracer.round_profile(spans, 0.0, 3.0)
    assert profile["lqr.q_membership.trace_cap_rejects"] == 1
    assert profile["lqr.q_membership.other_rejects"] == 1
    assert profile["lqr.q_membership.full_solve_rejects"] == 1
    assert profile["lqr.q_membership.admit_ratio"] == 0.0


def test_nearest_rank_percentiles():
    values = list(range(100, 0, -1))
    assert tracer.nearest_rank(values, 50.0) == 50
    assert tracer.nearest_rank(values, 99.0) == 99
    assert tracer.nearest_rank(values, 100.0) == 100
    assert tracer.nearest_rank([7.0], 99.0) == 7.0
    assert tracer.nearest_rank([], 50.0) == 0.0


@pytest.mark.parametrize(
    "count, pct",
    [(10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (40, 75.0), (39, 50.0), (4, 50.0)],
)
def test_tail_percentile_leaves_ten_samples_beyond(count, pct):
    assert tracer.tail_percentile(count) == pct
    if count >= 40:
        values = list(range(count))
        tail = tracer.nearest_rank(values, pct)
        assert sum(1 for v in values if v > tail) >= tracer.TAIL_MIN_BEYOND


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    profile = tracer.round_profile([], 0.0, 1.0)
    assert set(profile) <= set(run.PER_LAYER)
    assert set(tracer.SELF_TIME_KEYS) <= set(profile)


def test_tracer_wraps_every_binding_and_restores_them():
    workloads.use_source_tree()
    import tsodlqr.controller
    import tsodlqr.lqr
    import tsodlqr.offline

    original = tsodlqr.lqr.solve_dare
    theta = tsodlqr.lqr.ThetaParams(np.array([[0.5]]), np.array([[1.0]]))
    costs = tsodlqr.lqr.CostMatrices.identity(1, 1)
    set_q = tsodlqr.lqr.ConstraintSetQ(m_p=50.0, rho=0.99)
    with tracer.Tracer() as rec:
        assert tsodlqr.controller.solve_dare is tsodlqr.lqr.solve_dare
        assert tsodlqr.offline.solve_dare is tsodlqr.lqr.solve_dare
        assert tsodlqr.lqr.solve_dare is not original
        assert tsodlqr.controller.q_membership(theta, costs, set_q) is not None
    assert tsodlqr.lqr.solve_dare is original
    assert tsodlqr.controller.solve_dare is original
    names = [(s.name, s.parent, s.info) for s in rec.spans]
    assert names == [("lqr.q_membership", -1, True), ("lqr.solve_dare", 0, "ok")]
