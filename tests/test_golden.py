"""Byte-identity pins: SHA-256 digests of the harness outputs for fixed configs.

The digests were recorded with numpy 2.4.6 (Python 3.11.7).  The package
runs on numpy alone and bytes are only promised on the same numpy build, so
the pins are checked only when that version is installed.  A change that
alters any digest changes the output contract and must say so.
"""

import hashlib
import json

import numpy as np
import pytest

from tsodlqr.cli import main
from tsodlqr.config import build_experiment_config
from tsodlqr.harness import run_diagnostics, run_experiment, scaling_study

RECORDED_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"digests recorded with numpy {RECORDED_NUMPY}",
)

# The system of tiny_config in test_harness.py, copied so that the pins do not
# move with that helper.
TINY = {
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
ALL_VARIANTS = ["tsod", "ts_no_offline", "offline_estimate_only", "oracle"]

GOLDEN = {
    "run_experiment": "09374634c2d447bb5164cc5104f41664a21665c06756086e3d85d0ec0d21071f",
    "run_experiment_shared": "f6143b134ea3d338e9ef8a76e6b94e8e06812e5750cc82407a959f7c6246c88e",
    "diagnostics": "0505032be9d3c87d3ffdf97362e0662ce21d360b09542572a7398bededeb49b2",
    "scaling": "5b3be6e12d7b87c3cae65fb952712960a8fb00d0c4411b4d6a158012d3cf6aae",
    "offline_cli": "4e684fe78ab54e5ac57cc3db45c8cdcbaf7fabab6cf7f325ecd34d5df835b2ae",
}


def tiny(**overrides):
    return build_experiment_config({**TINY, **overrides})


def digest_tree(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def digest_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_experiment_all_variants(tmp_path):
    run_experiment(tiny(variants=ALL_VARIANTS, num_runs=2), out_dir=tmp_path)
    assert digest_tree(tmp_path) == GOLDEN["run_experiment"]


def test_run_experiment_shared_offline(tmp_path):
    run_experiment(tiny(variants=ALL_VARIANTS, num_runs=2, share_offline=True), out_dir=tmp_path)
    assert digest_tree(tmp_path) == GOLDEN["run_experiment_shared"]


def test_diagnostics_report(tmp_path):
    run_diagnostics(tiny(), num_runs=10, out_dir=tmp_path)
    assert digest_file(tmp_path / "diagnostics.txt") == GOLDEN["diagnostics"]


def test_scaling_csv(tmp_path):
    scaling_study(tiny(num_runs=2), [200, 400], [60], out_dir=tmp_path)
    assert digest_file(tmp_path / "scaling.csv") == GOLDEN["scaling"]


def test_offline_subcommand(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(json.dumps({**TINY, "s_len": [120, 250], "num_runs": 2}))
    assert main(["offline", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert digest_tree(tmp_path / "out" / "offline") == GOLDEN["offline_cli"]
