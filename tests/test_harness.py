import csv
import filecmp
import json
import re

import numpy as np
import pytest

import tsodlqr.harness as harness
from tsodlqr import (
    ConfigError,
    RngStream,
    UnstableRollout,
    hash64,
    load_offline,
    q_membership,
    solve_dare,
)
from tsodlqr.cli import main
from tsodlqr.config import build_experiment_config
from tsodlqr.harness import (
    RunSpec,
    binomial_lower_test,
    delta1_for,
    delta2_for,
    execute_runs,
    run_diagnostics,
    run_experiment,
    scaling_study,
)
from tsodlqr.traces import read_run_csv


def tiny_config(**overrides):
    data = {
        "n": 3,
        "m": 2,
        "a_star": [[0.6, 0.5, 0.4], [0.0, 0.5, 0.4], [0.0, 0.0, 0.4]],
        "b_star": [[1.0, 0.5], [0.5, 1.0], [0.5, 0.5]],
        "a_sim": [[0.7, 0.5, 0.4], [0.0, 0.5, 0.4], [0.0, 0.0, 0.4]],
        "b_sim": [[1.1, 0.5], [0.5, 1.0], [0.5, 0.5]],
        "m_delta": 0.15,
        "s_len": 250,
        "t_horizon": 60,
        "delta": 0.1,
        "num_runs": 3,
        "base_seed": 42,
        "variants": ["tsod"],
        "set_p": {"m_sim": 50.0, "phi": 5.0, "rho_sim": 0.99},
    }
    data.update(overrides)
    return build_experiment_config(data)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swaps the harness's ProcessPoolExecutor for a stand-in that runs inline;
    returns the max_workers of every pool created."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return sizes


def zero_system_config(**overrides):
    data = {
        "n": 3,
        "m": 2,
        "a_star": [[0.0] * 3] * 3,
        "b_star": [[0.0, 0.0]] * 3,
        "a_sim": [[0.0] * 3] * 3,
        "b_sim": [[0.0, 0.0]] * 3,
        "m_delta": 0.0,
        "s_len": 5,
        "t_horizon": 1,
        "num_runs": 1,
        "base_seed": 7,
        "variants": ["oracle"],
        "offline": {"controller_mode": "fixed_gain", "fixed_gain": [[0.0] * 3] * 2},
    }
    data.update(overrides)
    return build_experiment_config(data)


class TestRunExperiment:
    def test_single_step_oracle_on_zero_system(self, tmp_path):
        cfg = zero_system_config()
        result = run_experiment(cfg, out_dir=tmp_path)
        trace = result.runs[0].trace
        # x1 = 0 and u1 = 0, so the first cost is 0 and regret is -J.
        j = solve_dare(cfg.theta_star_explicit, cfg.costs).avg_cost
        assert j == pytest.approx(3.0)
        assert trace.cost[0] == 0.0
        assert trace.final_cum_regret == pytest.approx(-j)

    def test_outputs_and_aggregation_oracle(self, tmp_path):
        cfg = tiny_config(variants=["tsod", "ts_no_offline"])
        result = run_experiment(cfg, out_dir=tmp_path)
        assert (tmp_path / "aggregate.csv").is_file()
        assert (tmp_path / "regret.svg").is_file()
        assert (tmp_path / "experiment.json").is_file()

        # Independent reader oracle: recompute the aggregate from per-run CSVs.
        for label, agg in result.aggregates.items():
            stacks = []
            for run_id in range(cfg.num_runs):
                path = tmp_path / "runs" / f"{label}_run{run_id:03d}.csv"
                assert path.is_file()
                stacks.append(read_run_csv(path)["cum_regret"])
            stack = np.vstack(stacks)
            assert np.all(np.abs(stack.mean(axis=0) - agg.mean_cum_regret) <= 1e-12)
            assert np.all(np.abs(stack.std(axis=0, ddof=1) - agg.std_cum_regret) <= 1e-12)
            assert agg.n_runs == cfg.num_runs

        with open(tmp_path / "aggregate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels = {row["variant"] for row in rows}
        assert labels == set(result.aggregates)

    def test_j_star_consistency(self, tmp_path):
        cfg = tiny_config()
        result = run_experiment(cfg, out_dir=tmp_path)
        j = solve_dare(cfg.theta_star_explicit, cfg.costs).avg_cost
        for record in result.runs:
            assert record.trace.j_star == j

    def test_reproducible_outputs(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        compared = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
        assert not compared.diff_files
        for name in (tmp_path / "a" / "runs").iterdir():
            twin = tmp_path / "b" / "runs" / name.name
            assert name.read_bytes() == twin.read_bytes()
        assert (tmp_path / "a" / "aggregate.csv").read_bytes() == (
            tmp_path / "b" / "aggregate.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "regret.svg").read_bytes() == (
            tmp_path / "b" / "regret.svg"
        ).read_bytes()

    def test_fingerprint_stable(self):
        assert tiny_config().fingerprint() == tiny_config().fingerprint()
        assert tiny_config().fingerprint() != tiny_config(base_seed=43).fingerprint()

    def test_share_offline_mode(self, tmp_path):
        cfg = tiny_config(share_offline=True, num_runs=2)
        result = run_experiment(cfg, out_dir=tmp_path)
        assert len(result.runs) == 2

    def test_sample_delta_mode(self, tmp_path):
        cfg = tiny_config(
            a_star=None, b_star=None, sample_delta=True, m_delta=0.1, num_runs=2
        )
        result = run_experiment(cfg, out_dir=tmp_path)
        assert len(result.runs) == 2
        for record in result.runs:
            seed = RunSpec(cfg, "tsod", 250, record.run_id).seed
            (theta,) = harness._resolve_theta_stars(cfg, [RngStream(seed, harness.STREAM_DELTA)])
            assert np.linalg.norm(theta.stacked - cfg.theta_sim.stacked) <= 0.1 * (1.0 + 1e-12)
            assert q_membership(theta, cfg.costs, cfg.set_q) is not None
            assert record.trace.j_star == solve_dare(theta, cfg.costs).avg_cost

    def test_workers_match_serial(self, tmp_path):
        cfg_serial = tiny_config(num_runs=2)
        cfg_workers = tiny_config(num_runs=2, workers=2)
        run_experiment(cfg_serial, out_dir=tmp_path / "serial")
        run_experiment(cfg_workers, out_dir=tmp_path / "parallel")
        for name in (tmp_path / "serial" / "runs").iterdir():
            twin = tmp_path / "parallel" / "runs" / name.name
            assert name.read_bytes() == twin.read_bytes()

    def test_shared_offline_workers_match_serial(self, tmp_path):
        # Each worker process collects the shared dataset of its own chunk.
        for workers in (1, 2):
            cfg = tiny_config(num_runs=2, share_offline=True, workers=workers)
            run_experiment(cfg, out_dir=tmp_path / str(workers))
        names = sorted(path.name for path in (tmp_path / "1" / "runs").iterdir())
        assert names
        for name in names:
            assert (tmp_path / "1" / "runs" / name).read_bytes() == (
                tmp_path / "2" / "runs" / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "workers, runs, cpus, expected",
        [(64, 2, 8, [2]), (64, 4, 3, [3]), (2, 4, 8, [2]), (8, 4, None, []), (1, 4, 8, [])],
    )
    def test_workers_are_bounded(
        self, tmp_path, monkeypatch, pool_sizes, workers, runs, cpus, expected
    ):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        cfg = tiny_config(num_runs=runs, workers=workers, t_horizon=10)
        run_experiment(cfg, out_dir=tmp_path)
        assert pool_sizes == expected

    def test_failed_run_keeps_finished_runs(self, tmp_path, monkeypatch):
        cfg = tiny_config(num_runs=3)
        run_experiment(cfg, out_dir=tmp_path / "clean")
        real_episodes = harness.run_episodes

        def fail_run_one(*args, **kwargs):
            results = real_episodes(*args, **kwargs)
            return [
                UnstableRollout("online state norm exceeded 1e+06 at step 7")
                if seed == hash64(42, "", 1, 250) else result
                for seed, result in zip(kwargs["seeds"], results)
            ]

        monkeypatch.setattr(harness, "run_episodes", fail_run_one)
        out = tmp_path / "failed"
        with pytest.raises(UnstableRollout, match="at step 7"):
            run_experiment(cfg, out_dir=out)
        written = sorted(p.name for p in (out / "runs").iterdir())
        assert written == ["tsod_run000.csv", "tsod_run002.csv"]
        for name in written:
            clean = tmp_path / "clean" / "runs" / name
            assert (out / "runs" / name).read_bytes() == clean.read_bytes()
        assert not (out / "aggregate.csv").exists()
        assert not (out / "regret.svg").exists()
        assert json.loads((out / "failures.json").read_text()) == [
            {
                "variant": "tsod",
                "S": 250,
                "run_id": 1,
                "seed": hash64(42, "", 1, 250),
                "error": "UnstableRollout",
                "message": "online state norm exceeded 1e+06 at step 7",
            }
        ]

    def test_earlier_outputs_do_not_survive(self, tmp_path):
        def files():
            return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())

        # Files that run_experiment does not write are left alone.
        (tmp_path / "runs").mkdir()
        (tmp_path / "notes.txt").write_text("kept")
        (tmp_path / "runs" / "tsod_run000.csv.bak").write_text("kept")
        kept = ["notes.txt", "runs/tsod_run000.csv.bak"]
        success = sorted(
            kept + ["aggregate.csv", "experiment.json", "regret.svg"]
            + [f"runs/tsod_run{i:03d}.csv" for i in range(3)]
        )
        run_experiment(tiny_config(), out_dir=tmp_path)
        assert files() == success
        with pytest.raises(UnstableRollout):
            run_experiment(tiny_config(state_ceiling=0.5), out_dir=tmp_path)
        assert files() == sorted(kept + ["experiment.json", "failures.json"])
        run_experiment(tiny_config(), out_dir=tmp_path)
        assert files() == success

    def test_run_csvs_numbered_past_999_are_removed(self, tmp_path):
        (tmp_path / "runs").mkdir()
        stale = tmp_path / "runs" / "tsod_run1000.csv"
        stale.write_text("stale")
        run_experiment(tiny_config(num_runs=2, t_horizon=2, s_len=20), out_dir=tmp_path)
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
            "tsod_run000.csv",
            "tsod_run001.csv",
        ]

    def test_state_ceiling_fails_only_its_run(self):
        cfg = tiny_config(num_runs=1)
        low = tiny_config(num_runs=1, state_ceiling=0.5)
        specs = [RunSpec(c, "tsod", 250, run_id) for run_id, c in enumerate((cfg, low, cfg))]
        records, failures = execute_runs(specs, workers=1)
        assert [r.run_id for r in records] == [0, 2]
        assert all(len(r.trace) == cfg.t_horizon for r in records)
        assert [f.spec.run_id for f in failures] == [1]
        assert isinstance(failures[0].error, UnstableRollout)
        assert re.fullmatch(r"online state norm exceeded 0\.5 at step \d+", str(failures[0].error))


class TestLockstepCells:
    def test_worker_chunks_write_the_serial_bytes(self, tmp_path, monkeypatch, pool_sizes):
        # workers=2 splits the 5-run cell into chunks of 3 and 2.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        chunks = []
        real_batch = harness.execute_batch

        def record(specs):
            chunks.append([spec.run_id for spec in specs])
            return real_batch(specs)

        monkeypatch.setattr(harness, "execute_batch", record)
        run_experiment(tiny_config(num_runs=5, workers=2), out_dir=tmp_path / "chunked")
        assert pool_sizes == [2] and chunks == [[0, 1, 2], [3, 4]]
        chunks.clear()
        run_experiment(tiny_config(num_runs=5), out_dir=tmp_path / "serial")
        assert chunks == [[0, 1, 2, 3, 4]]
        # experiment.json differs: it records the config, workers included.
        outputs = [p for p in (tmp_path / "serial").rglob("*") if p.is_file() and p.name != "experiment.json"]
        assert len(outputs) == 7
        for path in outputs:
            twin = tmp_path / "chunked" / path.relative_to(tmp_path / "serial")
            assert path.read_bytes() == twin.read_bytes(), path.name

    def test_unstable_run_in_a_batch_fails_as_it_does_alone(self, tmp_path):
        clean = run_experiment(tiny_config(num_runs=3), out_dir=tmp_path / "clean")
        # A ceiling between the two largest peak state norms fails one run.
        peaks = sorted((float(rec.trace.state_norm.max()), rec.run_id) for rec in clean.runs)
        ceiling = 0.5 * (peaks[-1][0] + peaks[-2][0])
        worst = peaks[-1][1]
        cfg = tiny_config(num_runs=3, state_ceiling=ceiling)
        out = tmp_path / "failed"
        with pytest.raises(UnstableRollout):
            run_experiment(cfg, out_dir=out)
        spec = RunSpec(cfg, "tsod", 250, worst)
        with pytest.raises(UnstableRollout) as alone:
            harness.execute_single_run(spec)
        assert json.loads((out / "failures.json").read_text()) == [
            harness.RunFailure(spec, alone.value).as_json()
        ]
        written = sorted(p.name for p in (out / "runs").iterdir())
        assert written == [f"tsod_run{i:03d}.csv" for i in range(3) if i != worst]
        for name in written:
            assert (out / "runs" / name).read_bytes() == (tmp_path / "clean" / "runs" / name).read_bytes()


class TestExperimentBatch:
    """An experiment runs as one lockstep batch, and each run of it gets the
    bits that the batch of its own (variant, S) cell gives it."""

    VARIANTS = ["tsod", "ts_no_offline", "offline_estimate_only", "oracle"]

    @staticmethod
    def recorded_streams(monkeypatch):
        """Make the harness record every generator it creates, by (seed, stream)."""
        streams = {}

        def record(seed, stream_id):
            rng = RngStream(seed, stream_id)
            streams.setdefault((seed, stream_id), []).append(rng)
            return rng

        monkeypatch.setattr(harness, "RngStream", record)
        return streams

    @staticmethod
    def end_states(streams):
        """The distinct end states of the generators of each (seed, stream)."""
        return {key: sorted({json.dumps(rng.bit_generator.state) for rng in rngs}) for key, rngs in streams.items()}

    def test_mixed_batch_equals_its_cells(self, monkeypatch):
        # theta* is drawn, so the batch also redraws offsets in rounds, and
        # a low ceiling fails some runs.
        cfg = tiny_config(
            variants=self.VARIANTS, s_len=[150, 250], num_runs=3, t_horizon=40,
            a_star=None, b_star=None, sample_delta=True, m_delta=0.1, state_ceiling=8.0,
        )
        specs = [
            RunSpec(cfg, variant, s_len, run_id)
            for variant in cfg.variants for s_len in cfg.s_values for run_id in range(cfg.num_runs)
        ]
        streams = self.recorded_streams(monkeypatch)
        batch = harness.execute_batch(specs)
        batch_states = self.end_states(streams)
        streams.clear()
        cells = [harness.execute_batch(specs[k : k + 3]) for k in range(0, len(specs), 3)]
        assert self.end_states(streams) == batch_states
        # Run i of each S has one delta, one offline and one noise stream,
        # which every variant shares, and each run its own sampler stream.
        assert len(batch_states) == 3 * 2 * 3 + len(specs)
        failures = 0
        for got, expected in zip(batch, [o for cell in cells for o in cell]):
            assert type(got) is type(expected)
            if isinstance(got, harness.RunFailure):
                failures += 1
                assert got.as_json() == expected.as_json()
                continue
            assert (got.variant, got.s_len, got.run_id) == (expected.variant, expected.s_len, expected.run_id)
            for name in ("t", "cost", "instant_regret", "cum_regret", "beta", "rejections", "state_norm"):
                assert getattr(got.trace, name).tobytes() == getattr(expected.trace, name).tobytes()
            assert (got.trace.j_star, got.trace.seed) == (expected.trace.j_star, expected.trace.seed)
            # repr round-trips every float, so equal reprs mean equal bits.
            assert repr(got.diagnostics) == repr(expected.diagnostics)
            assert repr(got.assumption2) == repr(expected.assumption2)
        assert 0 < failures < len(specs)

    def test_an_experiment_is_one_batch(self, tmp_path, monkeypatch):
        batches = []
        real_batch = harness.execute_batch

        def record(specs):
            batches.append([(spec.variant, spec.s_len) for spec in specs])
            return real_batch(specs)

        monkeypatch.setattr(harness, "execute_batch", record)
        cfg = tiny_config(variants=self.VARIANTS, s_len=[150, 250], num_runs=2, t_horizon=10)
        run_experiment(cfg, out_dir=tmp_path)
        assert batches == [[(v, s) for v in self.VARIANTS for s in (150, 250) for _ in range(2)]]


class TestSeedPlan:
    def test_offline_subcommand_writes_the_tsod_runs_datasets(self, tmp_path, monkeypatch):
        # The datasets of run i are those of every variant that uses offline data.
        used = {}
        real_episodes = harness.run_episodes

        def record_prior(thetas, sources, *args, **kwargs):
            for seed, src in zip(kwargs["seeds"], sources):
                used[seed] = src.summaries[0]
            return real_episodes(thetas, sources, *args, **kwargs)

        monkeypatch.setattr(harness, "run_episodes", record_prior)
        data = {**tiny_config().raw, "num_runs": 2, "t_horizon": 10}
        run_experiment(build_experiment_config(data), out_dir=tmp_path / "run")
        config = tmp_path / "tiny.cfg"
        config.write_text(json.dumps(data))
        assert main(["offline", "--config", str(config), "--out", str(tmp_path / "off")]) == 0
        for run_id in range(2):
            cached, _, _ = load_offline(tmp_path / "off" / "offline" / f"s250_run{run_id:03d}")
            prior = used[hash64(42, "", run_id, 250)]
            assert np.array_equal(cached.u_matrix, prior.u_matrix)
            assert np.array_equal(cached.theta_hat_sim.stacked, prior.theta_hat_sim.stacked)

    def test_offline_subcommand_removes_earlier_datasets(self, tmp_path):
        config = tmp_path / "tiny.cfg"
        config.write_text(json.dumps({**tiny_config().raw, "s_len": 20, "t_horizon": 2}))
        out = tmp_path / "out"
        offline_dir = out / "offline"
        offline_dir.mkdir(parents=True)
        (offline_dir / "notes.txt").write_text("kept")
        common = ["offline", "--config", str(config), "--out", str(out)]
        assert main(common + ["--set", "num_runs=2"]) == 0
        assert main(common + ["--set", "num_runs=1", "--set", "s_len=30"]) == 0
        assert sorted(p.name for p in offline_dir.iterdir()) == [
            "notes.txt",
            "s30_run000.csv",
            "s30_run000.json",
        ]

    def test_shared_offline_is_run_zero_dataset(self, tmp_path):
        variants = ["tsod", "offline_estimate_only"]
        run_experiment(tiny_config(num_runs=2, variants=variants), out_dir=tmp_path / "own")
        shared = tiny_config(num_runs=2, variants=variants, share_offline=True)
        run_experiment(shared, out_dir=tmp_path / "shared")
        for variant in variants:
            name = f"{variant}_run000.csv"
            assert (tmp_path / "own" / "runs" / name).read_bytes() == (
                tmp_path / "shared" / "runs" / name
            ).read_bytes()

    @staticmethod
    def offline_state(cfg, run_id):
        seed = RunSpec(cfg, "tsod", 250, run_id).seed
        return RngStream(seed, harness.STREAM_OFFLINE).bit_generator.state

    @pytest.mark.parametrize("share", [True, False])
    def test_shared_offline_collects_each_dataset_once(self, tmp_path, monkeypatch, share):
        variants = ["tsod", "ts_no_offline", "offline_estimate_only"]
        cfg = tiny_config(num_runs=3, variants=variants, share_offline=share, t_horizon=10)
        real_collect = harness.collect_offline_batch
        calls = []

        def record(*args):
            calls.append((args[2], [rng.bit_generator.state for rng in args[-1]]))
            return real_collect(*args)

        monkeypatch.setattr(harness, "collect_offline_batch", record)
        run_experiment(cfg, out_dir=tmp_path)
        # tsod and offline_estimate_only use the same datasets.
        run_ids = [0] if share else [0, 1, 2]
        assert calls == [(250, [self.offline_state(cfg, i) for i in run_ids])]

    def test_failed_shared_dataset_fails_the_runs_of_its_cell(self, tmp_path, monkeypatch):
        # The shared dataset of S = 250 fails, so every run that uses it
        # fails, and the runs of ts_no_offline, which use none, finish.
        variants = ["tsod", "ts_no_offline", "offline_estimate_only"]
        cfg = tiny_config(num_runs=3, variants=variants, share_offline=True)
        config = tmp_path / "shared.cfg"
        config.write_text(json.dumps(cfg.raw))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "clean")]) == 0
        real_collect = harness.collect_offline_batch
        failing = self.offline_state(cfg, 0)

        def fail_tsod(*args):
            states = [rng.bit_generator.state for rng in args[-1]]
            return [
                UnstableRollout("offline state norm exceeded 1e+06 at step 3") if state == failing else dataset
                for state, dataset in zip(states, real_collect(*args))
            ]

        monkeypatch.setattr(harness, "collect_offline_batch", fail_tsod)
        out = tmp_path / "failed"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        written = sorted(p.name for p in (out / "runs").iterdir())
        assert written == [f"ts_no_offline_run00{i}.csv" for i in range(3)]
        for name in written:
            assert (out / "runs" / name).read_bytes() == (tmp_path / "clean" / "runs" / name).read_bytes()
        assert not (out / "aggregate.csv").exists()
        assert json.loads((out / "failures.json").read_text()) == [
            {
                "variant": variant,
                "S": 250,
                "run_id": run_id,
                "seed": hash64(42, "", run_id, 250),
                "error": "UnstableRollout",
                "message": "offline state norm exceeded 1e+06 at step 3",
            }
            for variant in ("tsod", "offline_estimate_only")
            for run_id in range(3)
        ]

    def test_diagnostics_run_identity(self):
        cfg = tiny_config(diag_delta1=0.25, diag_delta2=0.3)
        diag = RunSpec(cfg, "tsod", 250, 3, diagnostics=True)
        assert diag.seed == hash64(42, "diag:", 3, 250)
        assert diag.sampler_seed == hash64(42, "diag:tsod", 3, 250)
        assert (diag.delta1, diag.delta2) == (0.25, 0.3)
        # A plain run of the same config ignores the diagnostics overrides.
        plain = RunSpec(cfg, "tsod", 250, 3)
        assert plain.seed == hash64(42, "", 3, 250)
        assert plain.sampler_seed == hash64(42, "tsod", 3, 250)
        assert plain.delta1 == delta1_for(0.1, 250, 60)
        assert plain.delta2 == delta2_for(0.1, 60)

    def test_diagnostics_deltas_fall_back_to_the_schedule(self):
        diag = RunSpec(tiny_config(), "tsod", 250, 0, diagnostics=True)
        assert diag.delta1 == delta1_for(0.1, 250, 60)
        assert diag.delta2 == delta2_for(0.1, 60)


class TestStreamPlan:
    """Run i of every variant faces the same random inputs (common random
    numbers): the true system, the offline dataset and the process noise come
    from streams keyed without the variant, and only the sampler's stream is
    keyed by it."""

    VARIANTS = TestExperimentBatch.VARIANTS

    def test_run_i_of_every_variant_faces_the_same_inputs(self, tmp_path, monkeypatch):
        cfg = tiny_config(
            variants=self.VARIANTS, num_runs=3, t_horizon=20, a_star=None, b_star=None, sample_delta=True,
            m_delta=0.1,
        )
        calls, collected = [], []
        real_episodes, real_collect = harness.run_episodes, harness.collect_offline_batch

        def record_episodes(thetas, sources, costs, set_q, horizon, delta2, variants, rngs, sampler_rngs, **kwargs):
            for entry in zip(kwargs["seeds"], variants, thetas, sources, rngs, sampler_rngs):
                seed, variant, theta, src, rng, sampler = entry
                calls.append((seed, variant, theta, src, rng.bit_generator.state, sampler.bit_generator.state))
            return real_episodes(thetas, sources, costs, set_q, horizon, delta2, variants, rngs, sampler_rngs, **kwargs)

        def record_collect(*args):
            collected.append((args[2], len(args[-1])))
            return real_collect(*args)

        monkeypatch.setattr(harness, "run_episodes", record_episodes)
        monkeypatch.setattr(harness, "collect_offline_batch", record_collect)
        result = run_experiment(cfg, out_dir=tmp_path)
        assert len(result.runs) == len(calls) == 3 * len(self.VARIANTS)
        # One collection of S = 250 with one dataset per run.
        assert collected == [(250, 3)]
        for run_id in range(3):
            seed = RunSpec(cfg, "tsod", 250, run_id).seed
            runs = {variant: rest for s, variant, *rest in calls if s == seed}
            assert sorted(runs) == sorted(self.VARIANTS)
            thetas = {theta.stacked.tobytes() for theta, _, _, _ in runs.values()}
            noise = {json.dumps(state) for _, _, state, _ in runs.values()}
            samplers = {json.dumps(state) for _, _, _, state in runs.values()}
            assert len(thetas) == len(noise) == 1 and len(samplers) == len(self.VARIANTS)
            # The true system is drawn around theta_sim, not theta_sim itself.
            assert thetas != {cfg.theta_sim.stacked.tobytes()}
            tsod, estimate_only = runs["tsod"][1], runs["offline_estimate_only"][1]
            assert tsod.summaries[0] is estimate_only.summaries[0]

    def test_block_size_moves_no_byte(self, tmp_path, monkeypatch):
        # n = 3 > m = 2, so the sampler draws SAMPLE_BLOCK candidates a call.
        cfg = tiny_config(variants=self.VARIANTS, num_runs=2)
        streams = TestExperimentBatch.recorded_streams(monkeypatch)
        trees = []
        for block in (1, 3, 8):
            monkeypatch.setattr("tsodlqr.controller.SAMPLE_BLOCK", block)
            streams.clear()
            records = run_experiment(cfg, out_dir=tmp_path / str(block)).runs
            files = sorted(path for path in (tmp_path / str(block)).rglob("*") if path.is_file())
            trees.append({str(path.relative_to(tmp_path / str(block))): path.read_bytes() for path in files})
        assert trees[0] == trees[1] == trees[2]
        # With blocks of 8, a step takes up the normals that the last one
        # left, so a run that tests `tested` candidates in all has drawn
        # the normals of fewer than tested + 8, where fresh blocks for each
        # step would draw the normals of 8 per step.
        d, n = cfg.n + cfg.m, cfg.n
        for rec in records:
            if rec.variant == "oracle":
                continue
            seed = RunSpec(cfg, rec.variant, 250, rec.run_id).sampler_seed
            (sampler,) = streams[(seed, harness.STREAM_EPISODE)]
            twin = RngStream(seed, harness.STREAM_EPISODE)
            twin.standard_normal(int(np.minimum(rec.trace.rejections + 1, cfg.max_attempts).sum()) * d * n)
            for _ in range(7):
                if twin.bit_generator.state == sampler.bit_generator.state:
                    break
                twin.standard_normal(d * n)
            assert twin.bit_generator.state == sampler.bit_generator.state


class TestDiagnostics:
    def test_report_contents(self, tmp_path):
        cfg = tiny_config(diag_delta1=0.25, diag_delta2=0.25)
        report = run_diagnostics(cfg, num_runs=20, out_dir=tmp_path)
        text = (tmp_path / "diagnostics.txt").read_text()
        assert "THM1_COVERAGE=" in text
        assert 0.0 <= report.coverage_fraction <= 1.0
        assert report.coverage_target == pytest.approx(0.5)
        assert report.n_runs == 20
        assert report.zt_violations == 0
        assert report.polylog_violations == 0
        assert report.text() == text
        assert "S=250\nT=60\n" in text

    def test_workers_match_serial(self, tmp_path):
        for workers in (1, 2):
            cfg = tiny_config(workers=workers)
            run_diagnostics(cfg, num_runs=4, out_dir=tmp_path / str(workers))
        assert (tmp_path / "1" / "diagnostics.txt").read_bytes() == (
            tmp_path / "2" / "diagnostics.txt"
        ).read_bytes()

    def test_workers_are_bounded(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        run_diagnostics(tiny_config(workers=3, t_horizon=10), num_runs=5, out_dir=tmp_path)
        assert pool_sizes == [3]

    @pytest.mark.parametrize("runs", [0, -5])
    def test_rejects_fewer_than_one_run(self, tmp_path, runs):
        with pytest.raises(ConfigError, match="at least one run"):
            run_diagnostics(tiny_config(), num_runs=runs, out_dir=tmp_path)
        assert not (tmp_path / "diagnostics.txt").exists()

    def test_binomial_lower_test(self):
        assert binomial_lower_test(400, 400, 0.9)
        assert binomial_lower_test(355, 400, 0.9)  # marginally low but plausible
        assert not binomial_lower_test(300, 400, 0.9)
        assert binomial_lower_test(0, 400, 0.0)


class TestScalingStudy:
    def test_single_cell_degenerates_to_run_experiment(self, tmp_path):
        cfg = tiny_config(num_runs=2)
        result = run_experiment(cfg, out_dir=tmp_path / "exp")
        study = scaling_study(cfg, [250], [60], out_dir=tmp_path / "sweep")
        cell = study.cells[0]
        agg = result.aggregates["tsod"]
        assert cell.mean_final_regret == pytest.approx(float(agg.mean_cum_regret[-1]), abs=1e-12)
        assert (tmp_path / "sweep" / "scaling.csv").is_file()

    def test_grid_and_slope(self, tmp_path):
        cfg = tiny_config(num_runs=2)
        study = scaling_study(cfg, [200, 400], [40, 80], out_dir=tmp_path)
        assert len(study.cells) == 4
        finals = {(c.s_len, c.t_horizon) for c in study.cells}
        assert finals == {(200, 40), (200, 80), (400, 40), (400, 80)}

    def test_workers_match_serial(self, tmp_path):
        for workers in (1, 2):
            cfg = tiny_config(num_runs=2, workers=workers)
            scaling_study(cfg, [200, 400], [40], out_dir=tmp_path / str(workers))
        assert (tmp_path / "1" / "scaling.csv").read_bytes() == (
            tmp_path / "2" / "scaling.csv"
        ).read_bytes()

    def test_workers_are_bounded(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        cfg = tiny_config(num_runs=2, workers=64, t_horizon=10)
        scaling_study(cfg, [200, 400], [10], out_dir=tmp_path)
        assert pool_sizes == [4]


class TestConfigValidation:
    def test_rejects_theta_outside_q(self):
        with pytest.raises(Exception, match="set_q"):
            tiny_config(
                a_star=[[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]],
                b_star=[[0.0, 0.0]] * 3,
                a_sim=[[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]],
                b_sim=[[0.0, 0.0]] * 3,
            )

    def test_rejects_bad_r(self):
        from tsodlqr.errors import ConfigError

        with pytest.raises(ConfigError, match="r_matrix"):
            tiny_config(r_matrix=[[1.0, 0.0], [0.0, -1.0]])

    def test_delta1_schedule(self):
        # S > T keeps the plain split; otherwise max(S, T + 1) takes over.
        assert delta1_for(0.1, 3000, 1500) == pytest.approx(0.1 / (16 * 3000))
        assert delta1_for(0.1, 100, 1500) == pytest.approx(0.1 / (16 * 1501))

    def test_experiment_json_round_trip(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, out_dir=tmp_path)
        payload = json.loads((tmp_path / "experiment.json").read_text())
        assert payload["fingerprint"] == cfg.fingerprint()
        assert payload["config"]["s_len"] == 250
