import json
import re

import pytest

from tsodlqr.cli import build_parser, main


def write_config(path, **overrides):
    data = {
        "n": 3,
        "m": 2,
        "a_star": [[0.6, 0.5, 0.4], [0.0, 0.5, 0.4], [0.0, 0.0, 0.4]],
        "b_star": [[1.0, 0.5], [0.5, 1.0], [0.5, 0.5]],
        "a_sim": [[0.7, 0.5, 0.4], [0.0, 0.5, 0.4], [0.0, 0.0, 0.4]],
        "b_sim": [[1.1, 0.5], [0.5, 1.0], [0.5, 0.5]],
        "m_delta": 0.15,
        "s_len": 120,
        "t_horizon": 40,
        "num_runs": 2,
        "base_seed": 11,
        "variants": ["tsod"],
        "set_p": {"m_sim": 50.0, "phi": 5.0, "rho_sim": 0.99},
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


class TestParsing:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["run", "--config", str(missing)])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_bad_r_matrix_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", r_matrix=[[1.0, 0.0], [0.0, -1.0]])
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "r_matrix" in capsys.readouterr().err

    def test_unknown_override_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg")
        code = main(["run", "--config", str(cfg), "--set", "bogus_key=1"])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_malformed_override_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg")
        code = main(["run", "--config", str(cfg), "--set", "novalue"])
        assert code == 1

    @pytest.mark.parametrize("runs", ["0", "-5"])
    def test_diagnostics_runs_below_one_exits_two(self, tmp_path, capsys, runs):
        cfg = write_config(tmp_path / "c.cfg")
        out_dir = tmp_path / "out"
        assert main(["diagnostics", "--config", str(cfg), "--runs", runs, "--out", str(out_dir)]) == 2
        assert "diag_runs" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_help_lists_config_symbols(self):
        text = build_parser().format_help()
        for token in ("s_len", "t_horizon", "m_delta", "delta", "set_q.m_p", "set_q.rho",
                      "set_p.m_sim", "set_p.phi", "M_P", "rho", "phi"):
            assert token in text


class TestDispatch:
    def test_riccati_trivial_system(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "triv.cfg",
            a_star=[[0.0] * 3] * 3,
            b_star=[[0.0, 0.0]] * 3,
            a_sim=[[0.0] * 3] * 3,
            b_sim=[[0.0, 0.0]] * 3,
            m_delta=0.0,
            offline={"controller_mode": "fixed_gain", "fixed_gain": [[0.0] * 3] * 2},
        )
        code = main(["riccati", "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "P =" in out and "K =" in out
        assert "J = 3" in out
        # P equals Q (identity) and K is zero for the zero system.
        assert re.search(r"1\.\s", out) or "1. " in out

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "aggregate.csv").is_file()
        assert (out_dir / "regret.svg").is_file()
        assert (out_dir / "runs" / "tsod_run000.csv").is_file()

    def test_run_reproducible(self, tmp_path):
        cfg = write_config(tmp_path / "rep.cfg")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()
        for name in (a / "runs").iterdir():
            assert name.read_bytes() == (b / "runs" / name.name).read_bytes()

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "seed.cfg")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a), "--seed", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b), "--seed", "2"]) == 0
        assert (a / "aggregate.csv").read_bytes() != (b / "aggregate.csv").read_bytes()

    def test_offline_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "off.cfg", num_runs=1)
        out_dir = tmp_path / "out"
        assert main(["offline", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "offline" / "s120_run000.csv").is_file()
        assert (out_dir / "offline" / "s120_run000.json").is_file()

    def test_diagnostics_subcommand(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "diag.cfg", diag_delta1=0.25, diag_delta2=0.25, diag_runs=5
        )
        out_dir = tmp_path / "out"
        code = main(["diagnostics", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"THM1_COVERAGE=([0-9.eE+-]+)", out)
        assert match is not None
        assert 0.0 <= float(match.group(1)) <= 1.0
        assert (out_dir / "diagnostics.txt").is_file()

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "sweep.cfg",
            num_runs=2,
            sweep_s_values=[100, 200],
            sweep_t_values=[30],
        )
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "scaling.csv").is_file()
        assert "mean_final_regret" in capsys.readouterr().out

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "io.cfg", num_runs=1, t_horizon=5)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["run", "--config", str(cfg), "--out", str(blocker)])
        assert code == 3
        assert "runtime error" in capsys.readouterr().err

    def test_env_out_dir_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "env.cfg", num_runs=1, t_horizon=10)
        target = tmp_path / "envout"
        monkeypatch.setenv("TSOD_OUT_DIR", str(target))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (target / "aggregate.csv").is_file()
