"""The CSV writers against the per-value formatting they replaced: f"{x:.17g}"
for floats and str(int(x)) for integers, one line per row, LF endings."""

import numpy as np

from tsodlqr import RngStream, load_offline, save_offline, simulate_offline
from tsodlqr.harness import AggregateResult
from tsodlqr.traces import RegretTrace, read_run_csv, write_aggregate_csv, write_run_csv

EXTREMES = np.array(
    [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308, -2.5e-308, -0.1, 1 / 3, -123456.789]
)
BIG_INTEGERS = np.array([1, 2, 999_999, 1_000_001, 1_234_567, 2**31, 2**40, 10**15, 2**53], dtype=np.int64)


def floats(values):
    return [f"{x:.17g}" for x in values]


def lines_of(path):
    return path.read_bytes().decode("utf-8").splitlines(keepends=True)


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def make_trace(length):
    def column(shift):
        return np.roll(np.resize(EXTREMES, length), shift)

    return RegretTrace(
        t=np.resize(BIG_INTEGERS, length),
        cost=column(0),
        instant_regret=column(1),
        cum_regret=column(2),
        beta=column(3),
        rejections=np.resize(BIG_INTEGERS[::-1], length),
        state_norm=column(4),
        j_star=0.0,
        seed=0,
    )


def test_trajectory_matches_reference(tmp_path, theta_sim, costs32, offline_cfg):
    summary = simulate_offline(theta_sim, costs32, 7, offline_cfg, 0.1, 0.15, RngStream(8, 0))[0]
    states = np.resize(EXTREMES, (8, 3))
    controls = -np.resize(EXTREMES[::-1], (7, 2))
    base = tmp_path / "extreme"
    save_offline(base, summary, states, controls)

    reference = ["s,xi1,xi2,xi3,v1,v2\n"]
    for s in range(7):
        reference.append(",".join([str(s + 1)] + floats(states[s]) + floats(controls[s])) + "\n")
    reference.append(",".join(["8"] + floats(states[7]) + ["0", "0"]) + "\n")
    assert lines_of(base.with_suffix(".csv")) == reference

    _, states2, controls2 = load_offline(base)
    assert same_bits(states2, states)
    assert same_bits(controls2, controls)


def test_run_csv_matches_reference(tmp_path):
    trace = make_trace(len(EXTREMES))
    path = tmp_path / "run.csv"
    write_run_csv(path, trace)

    reference = ["t,cost,instant_regret,cum_regret,beta,rejections,state_norm\n"]
    for i in range(len(trace)):
        values = [trace.cost[i], trace.instant_regret[i], trace.cum_regret[i], trace.beta[i]]
        fields = [str(int(trace.t[i]))] + floats(values) + [str(int(trace.rejections[i]))]
        reference.append(",".join(fields + floats([trace.state_norm[i]])) + "\n")
    assert lines_of(path) == reference

    cols = read_run_csv(path)
    for name in ("cost", "instant_regret", "cum_regret", "beta", "state_norm"):
        assert same_bits(cols[name], getattr(trace, name))
    assert np.array_equal(cols["t"], trace.t.astype(np.float64))
    assert np.array_equal(cols["rejections"], trace.rejections.astype(np.float64))


def test_empty_run_csv_is_the_header_alone(tmp_path):
    path = tmp_path / "empty.csv"
    write_run_csv(path, make_trace(0))
    assert lines_of(path) == ["t,cost,instant_regret,cum_regret,beta,rejections,state_norm\n"]
    cols = read_run_csv(path)
    assert list(cols) == ["t", "cost", "instant_regret", "cum_regret", "beta", "rejections", "state_norm"]
    assert all(col.shape == (0,) for col in cols.values())


def test_aggregate_csv_matches_reference(tmp_path):
    t = np.resize(BIG_INTEGERS, len(EXTREMES))
    aggregates = {
        "tsod": AggregateResult(t=t, mean_cum_regret=EXTREMES, std_cum_regret=EXTREMES[::-1], n_runs=10),
        "ts_no_offline_S1500": AggregateResult(
            t=t[:4], mean_cum_regret=-EXTREMES[:4], std_cum_regret=EXTREMES[4:8], n_runs=1_000_003
        ),
    }
    path = tmp_path / "aggregate.csv"
    write_aggregate_csv(path, aggregates)

    reference = ["t,mean_cum_regret,std_cum_regret,variant,n_runs\n"]
    for label, agg in aggregates.items():
        for i in range(len(agg.t)):
            mean, std = floats([agg.mean_cum_regret[i], agg.std_cum_regret[i]])
            reference.append(f"{int(agg.t[i])},{mean},{std},{label},{int(agg.n_runs)}\n")
    assert lines_of(path) == reference
