"""Config file loading, override handling, and validation into an
ExperimentConfig."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

from .controller import VARIANTS
from .errors import ConfigError, UsageError
from .harness import ExperimentConfig
from .lqr import ConstraintSetP, ConstraintSetQ, CostMatrices, in_set_q
from .offline import CONTROLLER_MODES, OfflineConfig

# Full key schema with defaults; None means "required or derived".
DEFAULTS = {
    "n": None,
    "m": None,
    "a_sim": None,
    "b_sim": None,
    "a_star": None,
    "b_star": None,
    "sample_delta": False,
    "m_delta": 0.0,
    "q_matrix": None,  # identity when omitted
    "r_matrix": None,  # identity when omitted
    "s_len": None,
    "t_horizon": None,
    "delta": 0.1,
    "num_runs": 10,
    "base_seed": 1,
    "variants": ["tsod"],
    "set_q": {"m_p": 50.0, "rho": 0.99},
    "set_p": {"m_sim": 50.0, "phi": 5.0, "rho_sim": 0.99},
    "offline": {
        "dither_std": 1.0,
        "regularizer": 1.0,
        "controller_mode": "ce_dither",
        "fixed_gain": None,
        "gain_refresh": 50,
        "state_ceiling": 1e6,
    },
    "beta_mdelta_scale": 1.0,
    "max_attempts": 100,
    "share_offline": False,
    "workers": 1,
    "output_dir": "out",
    "state_ceiling": 1e6,
    "diag_runs": 200,
    "diag_delta1": None,
    "diag_delta2": None,
    "sweep_s_values": None,
    "sweep_t_values": None,
}


def load_config_file(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must contain a JSON object")
    return data


def apply_overrides(data: dict, overrides) -> dict:
    """Apply `key=value` strings (dotted keys for nested sections).

    Values parse as JSON when possible, otherwise as plain strings.
    """
    merged = copy.deepcopy(data)
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"override {item!r} is not of the form key=value")
        key, raw_value = item.split("=", 1)
        key = key.strip()
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        parts = key.split(".")
        schema = DEFAULTS
        node = merged
        for i, part in enumerate(parts):
            if not isinstance(schema, dict) or part not in schema:
                raise ConfigError(f"override references unknown config key: {key}")
            if i == len(parts) - 1:
                node[part] = value
            else:
                schema = schema[part]
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"config key {part} is not a section")
    return merged


def _require(data: dict, key: str):
    if key not in data or data[key] is None:
        raise ConfigError(f"missing required config key: {key}")
    return data[key]


def _matrix(data, key: str, shape) -> np.ndarray:
    try:
        mat = np.array(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} is not a numeric matrix: {exc}") from exc
    if mat.shape != shape:
        raise ConfigError(f"{key} must have shape {shape}, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"{key} has non-finite entries")
    return mat


def _positive_int(value, key: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{key} must be a positive integer, got {value!r}")
    return int(value)


def build_experiment_config(data: dict) -> ExperimentConfig:
    """Merge defaults, coerce matrices, and validate cross-field constraints."""
    merged = copy.deepcopy(DEFAULTS)
    for key, value in data.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        if isinstance(DEFAULTS[key], dict) and isinstance(value, dict):
            for sub_key, sub_value in value.items():
                if sub_key not in DEFAULTS[key]:
                    raise ConfigError(f"unknown config key: {key}.{sub_key}")
                merged[key][sub_key] = sub_value
        else:
            merged[key] = value

    n = _positive_int(_require(merged, "n"), "n")
    m = _positive_int(_require(merged, "m"), "m")
    a_sim = _matrix(_require(merged, "a_sim"), "a_sim", (n, n))
    b_sim = _matrix(_require(merged, "b_sim"), "b_sim", (n, m))
    sample_delta = bool(merged["sample_delta"])
    a_star = b_star = None
    if not sample_delta:
        a_star = _matrix(_require(merged, "a_star"), "a_star", (n, n))
        b_star = _matrix(_require(merged, "b_star"), "b_star", (n, m))
    elif merged.get("a_star") is not None or merged.get("b_star") is not None:
        raise ConfigError("a_star/b_star must be omitted when sample_delta is true")

    q = (
        np.eye(n)
        if merged["q_matrix"] is None
        else _matrix(merged["q_matrix"], "q_matrix", (n, n))
    )
    r = (
        np.eye(m)
        if merged["r_matrix"] is None
        else _matrix(merged["r_matrix"], "r_matrix", (m, m))
    )
    try:
        costs = CostMatrices(q, r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    s_raw = _require(merged, "s_len")
    s_list = s_raw if isinstance(s_raw, list) else [s_raw]
    s_values = tuple(_positive_int(s, "s_len") for s in s_list)
    if not s_values:
        raise ConfigError("s_len must name at least one offline length")
    t_horizon = _positive_int(_require(merged, "t_horizon"), "t_horizon")

    delta = float(merged["delta"])
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    m_delta = float(merged["m_delta"])
    if m_delta < 0:
        raise ConfigError("m_delta must be nonnegative")
    if sample_delta and m_delta == 0.0:
        raise ConfigError("sample_delta requires a positive m_delta")

    variants = merged["variants"]
    if not isinstance(variants, list) or not variants:
        raise ConfigError("variants must be a non-empty list")
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")

    try:
        set_q = ConstraintSetQ(
            m_p=float(merged["set_q"]["m_p"]), rho=float(merged["set_q"]["rho"])
        )
        set_p = ConstraintSetP(
            m_sim=float(merged["set_p"]["m_sim"]),
            phi=float(merged["set_p"]["phi"]),
            rho_sim=float(merged["set_p"]["rho_sim"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid constraint-set constants: {exc}") from exc

    off = merged["offline"]
    fixed_gain = off["fixed_gain"]
    try:
        offline_cfg = OfflineConfig(
            set_p=set_p,
            dither_std=float(off["dither_std"]),
            regularizer=float(off["regularizer"]),
            controller_mode=str(off["controller_mode"]),
            fixed_gain=None if fixed_gain is None else _matrix(fixed_gain, "offline.fixed_gain", (m, n)),
            gain_refresh=_positive_int(off["gain_refresh"], "offline.gain_refresh"),
            state_ceiling=float(off["state_ceiling"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid offline section: {exc}") from exc
    if offline_cfg.controller_mode not in CONTROLLER_MODES:
        raise ConfigError(f"offline.controller_mode must be one of {CONTROLLER_MODES}")

    num_runs = _positive_int(merged["num_runs"], "num_runs")
    workers = _positive_int(merged["workers"], "workers")
    max_attempts = _positive_int(merged["max_attempts"], "max_attempts")
    diag_runs = _positive_int(merged["diag_runs"], "diag_runs")
    for key in ("diag_delta1", "diag_delta2"):
        if merged[key] is not None and not 0.0 < float(merged[key]) < 1.0:
            raise ConfigError(f"{key} must lie in (0, 1)")

    sweep_s = merged["sweep_s_values"]
    sweep_t = merged["sweep_t_values"]
    sweep_s_values = (
        tuple(_positive_int(v, "sweep_s_values") for v in sweep_s) if sweep_s else None
    )
    sweep_t_values = (
        tuple(_positive_int(v, "sweep_t_values") for v in sweep_t) if sweep_t else None
    )

    cfg = ExperimentConfig(
        n=n,
        m=m,
        a_sim=a_sim,
        b_sim=b_sim,
        a_star=a_star,
        b_star=b_star,
        sample_delta=sample_delta,
        m_delta=m_delta,
        q_matrix=costs.q_matrix,
        r_matrix=costs.r_matrix,
        s_values=s_values,
        t_horizon=t_horizon,
        delta=delta,
        num_runs=num_runs,
        base_seed=int(merged["base_seed"]),
        variants=tuple(variants),
        set_q=set_q,
        set_p=set_p,
        offline=offline_cfg,
        beta_mdelta_scale=float(merged["beta_mdelta_scale"]),
        max_attempts=max_attempts,
        share_offline=bool(merged["share_offline"]),
        workers=workers,
        output_dir=str(merged["output_dir"]),
        state_ceiling=float(merged["state_ceiling"]),
        diag_runs=diag_runs,
        diag_delta1=None if merged["diag_delta1"] is None else float(merged["diag_delta1"]),
        diag_delta2=None if merged["diag_delta2"] is None else float(merged["diag_delta2"]),
        sweep_s_values=sweep_s_values,
        sweep_t_values=sweep_t_values,
        raw=_canonical_raw(merged),
    )

    explicit = cfg.theta_star_explicit
    if explicit is not None and not in_set_q(explicit, cfg.costs, cfg.set_q):
        raise ConfigError(
            "the configured true system (a_star, b_star) lies outside set_q; "
            "adjust set_q.m_p / set_q.rho or the matrices"
        )
    return cfg


def _canonical_raw(merged: dict) -> dict:
    def convert(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {k: convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        return value

    return convert(merged)


def load_experiment_config(path, overrides=None) -> ExperimentConfig:
    data = load_config_file(path)
    data = apply_overrides(data, overrides)
    return build_experiment_config(data)

