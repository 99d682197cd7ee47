import json
import logging
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsodlqr import harness
from tsodlqr.cli import build_parser, main
from tsodlqr.config import MAX_WORKERS, ExperimentConfig, build_experiment_config, dotted_keys, load_experiment_config
from tsodlqr.controller import VARIANTS
from tsodlqr.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIG1 = CONFIGS / "paper_fig1.cfg"

# The test_cli system: (a_sim, b_sim) has Frobenius norm about 2.16, so it
# lies in set_p for phi = 5 and outside it for phi = 2.
SYSTEM = {
    "n": 3,
    "m": 2,
    "a_star": [[0.6, 0.5, 0.4], [0.0, 0.5, 0.4], [0.0, 0.0, 0.4]],
    "b_star": [[1.0, 0.5], [0.5, 1.0], [0.5, 0.5]],
    "a_sim": [[0.7, 0.5, 0.4], [0.0, 0.5, 0.4], [0.0, 0.0, 0.4]],
    "b_sim": [[1.1, 0.5], [0.5, 1.0], [0.5, 0.5]],
    "m_delta": 0.15,
    "s_len": 120,
    "t_horizon": 20,
    "num_runs": 1,
    "base_seed": 11,
}
OUTSIDE_SET_P = {**SYSTEM, "set_p": {"m_sim": 50.0, "phi": 2.0, "rho_sim": 0.99}}
FIXED_GAIN = {"controller_mode": "fixed_gain", "fixed_gain": [[0.0] * 3] * 2}
# Values that a bare int(), float() or bool() conversion would accept.
LOOSELY_TYPED = [
    {"base_seed": 3.7},
    {"base_seed": True},
    {"base_seed": "7"},
    {"m_delta": True},
    {"state_ceiling": True},
    {"delta": "0.1"},
    {"set_q": {"rho": True}},
    {"share_offline": "false"},
    {"share_offline": 1},
    {"sample_delta": "true"},
    {"sample_delta": 0},
]

# Values that read as a repeat, an unset key or the directory "None" or "5".
REPEATED_OR_EMPTY = [
    {"variants": ["tsod", "tsod"]},
    {"s_len": [400, 400]},
    {"sweep_s_values": [300, 300]},
    {"output_dir": None},
    {"output_dir": ""},
    {"output_dir": 5},
    {"sweep_s_values": 0},
    {"sweep_t_values": []},
]


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


class TestAdmissibilityAtLoad:
    def test_ce_dither_needs_sim_in_set_p(self):
        with pytest.raises(ConfigError, match="set_p"):
            build_experiment_config(OUTSIDE_SET_P)

    @pytest.mark.parametrize("subcommand", ["sweep", "offline", "run", "diagnostics"])
    def test_every_subcommand_exits_two(self, tmp_path, capsys, subcommand):
        config = write(tmp_path / "c.cfg", OUTSIDE_SET_P)
        assert main([subcommand, "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "set_p" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fixed_gain_accepts_sim_outside_set_p(self, tmp_path):
        cfg = build_experiment_config({**OUTSIDE_SET_P, "offline": FIXED_GAIN})
        assert cfg.offline.controller_mode == "fixed_gain"
        config = write(tmp_path / "c.cfg", {**OUTSIDE_SET_P, "offline": FIXED_GAIN})
        assert main(["offline", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "offline" / "s120_run000.json").is_file()


class TestHorizonWarning:
    def test_logged_once_at_load(self, caplog):
        with caplog.at_level(logging.WARNING, logger="tsodlqr"):
            build_experiment_config({**SYSTEM, "s_len": 20, "t_horizon": 20})
        assert [r.getMessage() for r in caplog.records] == [
            "offline length S=20 does not exceed the horizon T=20; the confidence "
            "schedule falls back to max(S, T + 1)"
        ]

    def test_silent_when_s_exceeds_t(self, caplog):
        with caplog.at_level(logging.WARNING, logger="tsodlqr"):
            build_experiment_config(SYSTEM)
        assert caplog.records == []


class TestDissimilarityWarning:
    def test_logged_when_theta_star_lies_beyond_m_delta(self, caplog):
        with caplog.at_level(logging.WARNING, logger="tsodlqr"):
            load_experiment_config(CONFIGS / "paper_fig2.cfg", ["m_delta=0.02"])
        assert [r.getMessage() for r in caplog.records] == [
            "the true system lies 0.1414 from the auxiliary system in Frobenius norm, "
            "farther than the dissimilarity bound m_delta=0.02"
        ]

    @pytest.mark.parametrize("name", ["paper_fig1.cfg", "paper_fig2.cfg", "corollary1.cfg"])
    def test_shipped_configs_are_silent(self, caplog, name):
        with caplog.at_level(logging.WARNING, logger="tsodlqr"):
            load_experiment_config(CONFIGS / name)
        assert caplog.records == []


class TestSchema:
    def test_help_lists_every_schema_key(self):
        text = build_parser().format_help()
        names = [name for name, _ in dotted_keys()]
        assert "set_q.m_p" in names and "offline.fixed_gain" in names
        for name in names:
            assert re.search(rf"^  {re.escape(name)} ", text, re.MULTILINE), name


class TestWrongTypes:
    @pytest.mark.parametrize(
        "override",
        [
            {"set_q": 5},
            {"set_p": [50.0, 5.0, 0.99]},
            {"offline": "ce_dither"},
            {"delta": "abc"},
            {"m_delta": [0.15]},
            {"beta_mdelta_scale": "wide"},
            {"state_ceiling": None},
            {"diag_delta1": "abc"},
            {"diag_delta2": {}},
            {"base_seed": "abc"},
            {"set_q": {"rho": "high"}},
            {"set_p": {"phi": None}},
            {"offline": {"dither_std": [1.0]}},
            {"offline": {"state_ceiling": "big"}},
            {"sweep_s_values": "abc"},
            {"sweep_t_values": 2.5},
            {"set_q": {"m_p": float("nan")}},
            {"m_delta": float("nan")},
            {"state_ceiling": -1},
            {"offline": {"state_ceiling": 0}},
            {"beta_mdelta_scale": -1000},
            *LOOSELY_TYPED,
            *REPEATED_OR_EMPTY,
        ],
    )
    def test_config_error(self, override):
        with pytest.raises(ConfigError):
            build_experiment_config({**SYSTEM, **override})

    @pytest.mark.parametrize("override", [{"set_q": 5}, {"delta": "abc"}, *LOOSELY_TYPED])
    def test_riccati_exits_two(self, tmp_path, capsys, override):
        config = write(tmp_path / "c.cfg", {**SYSTEM, **override})
        assert main(["riccati", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("config error:")


    @pytest.mark.parametrize(
        "override",
        ['variants=["tsod","tsod"]', "s_len=[400,400]", "output_dir=null", "sweep_s_values=0", "sweep_t_values=[]"],
    )
    def test_run_exits_two_and_writes_nothing(self, tmp_path, monkeypatch, capsys, override):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("TSOD_OUT_DIR", raising=False)
        argv = ["run", "--config", str(FIG1)]
        for item in ("num_runs=2", "t_horizon=50", "s_len=400", override):
            argv += ["--set", item]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert list(tmp_path.iterdir()) == []


# JSON-shaped values: scalars, lists of them (empty and repeated ones too),
# small objects, and nested arrays such as matrices.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, -1, 1, 2, 3, 10**30]),
    st.integers(-10, 5000),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, 0.5, 1e308]),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(VARIANTS + ("ce_dither", "fixed_gain")),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        inner.map(lambda x: [x, x]),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=10,
)


class TestSchemaProperties:
    @pytest.mark.parametrize("name", [name for name, _ in dotted_keys()])
    @settings(max_examples=100, deadline=None)
    @given(value=JSON_VALUES)
    @example(value=10**30)  # n or m this large must fail the shape checks before np.eye
    @example(value=float("nan"))
    @example(value=[])
    @example(value=False)
    def test_any_value_loads_or_is_a_config_error(self, name, value):
        section, _, key = name.rpartition(".")
        data = {**SYSTEM, section: {key: value}} if section else {**SYSTEM, name: value}
        try:
            cfg = build_experiment_config(data)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)

    def test_every_default_passes_its_parser(self):
        for name, key in dotted_keys():
            if key.default is not None:
                key.parse(key.default, name)


class TestWorkersCeiling:
    def test_absurd_count_exits_two_before_any_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda *a, **k: pytest.fail("pool started"))
        config = write(tmp_path / "c.cfg", SYSTEM)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--workers", "100000", "--out", str(out)]) == 2
        assert f"workers must be at most {MAX_WORKERS}" in capsys.readouterr().err
        assert not out.exists()

    def test_ceiling_loads(self):
        assert build_experiment_config({**SYSTEM, "workers": MAX_WORKERS}).workers == MAX_WORKERS
        with pytest.raises(ConfigError, match="workers"):
            build_experiment_config({**SYSTEM, "workers": MAX_WORKERS + 1})
