"""The experiment config: its key schema with defaults and help lines, file
loading, override handling, and the validation that turns it into an
ExperimentConfig."""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .controller import VARIANTS
from .errors import ConfigError, UsageError
from .lqr import ConstraintSetP, ConstraintSetQ, CostMatrices, ThetaParams, in_set_p, in_set_q
from .offline import OfflineConfig

logger = logging.getLogger(__name__)

# A fixed ceiling on `workers`; the executor further clamps it to the number
# of runs and of CPUs.
MAX_WORKERS = 256


class Key(NamedTuple):
    """One config key: its default (None means required or derived) and the
    line that documents it in `tsodlqr --help`."""

    default: object
    help: str


# The key schema; a nested dict is a section, addressed with dotted keys.
SCHEMA = {
    "n": Key(None, "state dimension"),
    "m": Key(None, "input dimension"),
    "a_sim": Key(None, "auxiliary (offline) system matrix A_sim"),
    "b_sim": Key(None, "auxiliary (offline) system matrix B_sim"),
    "a_star": Key(None, "true system matrix A (omit with sample_delta)"),
    "b_star": Key(None, "true system matrix B (omit with sample_delta)"),
    "sample_delta": Key(False, "draw the true system as sim + random offset per run"),
    "m_delta": Key(0.0, "dissimilarity bound M_delta on the offset norm"),
    "q_matrix": Key(None, "state cost weight Q (default: identity)"),
    "r_matrix": Key(None, "input cost weight R (default: identity)"),
    "s_len": Key(None, "offline trajectory length S (int or list of ints)"),
    "t_horizon": Key(None, "online horizon T"),
    "delta": Key(0.1, "confidence budget: delta1 = delta/(16 max(S, T+1)), delta2 = delta/(16 T)"),
    "num_runs": Key(10, "Monte-Carlo repetitions per variant and S"),
    "base_seed": Key(1, "seed every run's seed derives from"),
    "variants": Key(["tsod"], "subset of: " + ", ".join(VARIANTS)),
    "set_q": {
        "m_p": Key(50.0, "admissible-set trace bound M_P"),
        "rho": Key(0.99, "admissible-set closed-loop norm bound rho"),
    },
    "set_p": {
        "m_sim": Key(50.0, "auxiliary-system trace bound M_sim"),
        "phi": Key(5.0, "auxiliary-system Frobenius-norm bound phi"),
        "rho_sim": Key(0.99, "auxiliary-system closed-loop norm bound rho_sim"),
    },
    "offline": {
        "dither_std": Key(1.0, "standard deviation of the offline exploration dither"),
        "regularizer": Key(1.0, "ridge regularizer lambda of the offline estimate"),
        "controller_mode": Key("ce_dither", "ce_dither (a_sim, b_sim must lie in set_p) or fixed_gain"),
        "fixed_gain": Key(None, "m x n gain of fixed_gain mode"),
        "gain_refresh": Key(50, "steps between ce_dither gain refreshes"),
        "state_ceiling": Key(1e6, "offline state norm that aborts the rollout"),
    },
    "beta_mdelta_scale": Key(1.0, "scale on the sqrt(lambda_max(U)) * M_delta width term"),
    "max_attempts": Key(100, "rejection-sampling budget per step"),
    "share_offline": Key(False, "reuse one offline dataset across the runs of a cell"),
    "workers": Key(1, f"processes for run, diagnostics and sweep (at most {MAX_WORKERS}, one per CPU and run)"),
    "output_dir": Key("out", "output directory (also --out / TSOD_OUT_DIR)"),
    "state_ceiling": Key(1e6, "online state norm that aborts the episode"),
    "diag_runs": Key(200, "diagnostics run count"),
    "diag_delta1": Key(None, "diagnostics override of delta1"),
    "diag_delta2": Key(None, "diagnostics override of delta2"),
    "sweep_s_values": Key(None, "S grid of the sweep subcommand (default: s_len)"),
    "sweep_t_values": Key(None, "T grid of the sweep subcommand (default: t_horizon)"),
}


DEFAULTS = {
    name: entry.default if isinstance(entry, Key) else {sub: key.default for sub, key in entry.items()}
    for name, entry in SCHEMA.items()
}


def dotted_keys():
    """Yield (dotted name, Key) for every config key, sections flattened."""
    for name, entry in SCHEMA.items():
        if isinstance(entry, Key):
            yield name, entry
        else:
            yield from ((f"{name}.{sub}", key) for sub, key in entry.items())


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully resolved and validated experiment description.

    `s_values` always holds at least one offline trajectory length; labels in
    the outputs carry the length only when more than one is configured.  The
    true system is drawn per run (`sample_delta`) exactly when `a_star` is
    None.
    """

    n: int
    m: int
    a_sim: np.ndarray
    b_sim: np.ndarray
    a_star: Optional[np.ndarray]
    b_star: Optional[np.ndarray]
    m_delta: float
    q_matrix: np.ndarray
    r_matrix: np.ndarray
    s_values: Tuple[int, ...]
    t_horizon: int
    delta: float
    num_runs: int
    base_seed: int
    variants: Tuple[str, ...]
    set_q: ConstraintSetQ
    offline: OfflineConfig
    beta_mdelta_scale: float
    max_attempts: int
    share_offline: bool
    workers: int
    output_dir: str
    state_ceiling: float
    diag_runs: int
    diag_delta1: Optional[float]
    diag_delta2: Optional[float]
    sweep_s_values: Optional[Tuple[int, ...]]
    sweep_t_values: Optional[Tuple[int, ...]]
    raw: dict = field(repr=False)

    @property
    def costs(self) -> CostMatrices:
        return CostMatrices(self.q_matrix, self.r_matrix)

    @property
    def theta_sim(self) -> ThetaParams:
        return ThetaParams(self.a_sim, self.b_sim)

    @property
    def theta_star_explicit(self) -> Optional[ThetaParams]:
        if self.a_star is None:
            return None
        return ThetaParams(self.a_star, self.b_star)

    def fingerprint(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


def _positive_ints(value, key: str) -> Tuple[int, ...]:
    """One positive integer or a list of them, as a tuple."""
    return tuple(_positive_int(v, key) for v in (value if isinstance(value, list) else [value]))


def _number(value, key: str, kind=float):
    """A finite JSON number, and an integer when kind is int; a bool or a
    string is neither."""
    allowed = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    try:
        number = kind(value)
    except OverflowError as exc:
        raise ConfigError(f"{key} must be finite, got {value!r}") from exc
    if isinstance(number, float) and not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _flag(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def build_experiment_config(data: dict) -> ExperimentConfig:
    """Merge defaults, coerce matrices, and validate cross-field constraints."""
    merged = copy.deepcopy(DEFAULTS)
    for key, value in data.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        if isinstance(DEFAULTS[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be a section (a JSON object), got {value!r}")
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
    sample_delta = _flag(merged["sample_delta"], "sample_delta")
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

    s_values = _positive_ints(_require(merged, "s_len"), "s_len")
    if not s_values:
        raise ConfigError("s_len must name at least one offline length")
    t_horizon = _positive_int(_require(merged, "t_horizon"), "t_horizon")

    delta = _number(merged["delta"], "delta")
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    m_delta = _number(merged["m_delta"], "m_delta")
    if m_delta < 0:
        raise ConfigError("m_delta must be nonnegative")
    if sample_delta and m_delta == 0.0:
        raise ConfigError("sample_delta requires a positive m_delta")
    beta_mdelta_scale = _number(merged["beta_mdelta_scale"], "beta_mdelta_scale")
    if beta_mdelta_scale < 0:
        raise ConfigError("beta_mdelta_scale must be nonnegative")
    state_ceiling = _number(merged["state_ceiling"], "state_ceiling")
    if state_ceiling <= 0:
        raise ConfigError("state_ceiling must be positive")

    variants = merged["variants"]
    if not isinstance(variants, list) or not variants:
        raise ConfigError("variants must be a non-empty list")
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")

    try:
        set_q = ConstraintSetQ(**{k: _number(v, f"set_q.{k}") for k, v in merged["set_q"].items()})
        set_p = ConstraintSetP(**{k: _number(v, f"set_p.{k}") for k, v in merged["set_p"].items()})
    except ValueError as exc:
        raise ConfigError(f"invalid constraint-set constants: {exc}") from exc

    off = merged["offline"]
    fixed_gain = off["fixed_gain"]
    try:
        offline_cfg = OfflineConfig(
            set_p=set_p,
            dither_std=_number(off["dither_std"], "offline.dither_std"),
            regularizer=_number(off["regularizer"], "offline.regularizer"),
            controller_mode=str(off["controller_mode"]),
            fixed_gain=None if fixed_gain is None else _matrix(fixed_gain, "offline.fixed_gain", (m, n)),
            gain_refresh=_positive_int(off["gain_refresh"], "offline.gain_refresh"),
            state_ceiling=_number(off["state_ceiling"], "offline.state_ceiling"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid offline section: {exc}") from exc

    num_runs = _positive_int(merged["num_runs"], "num_runs")
    workers = _positive_int(merged["workers"], "workers")
    if workers > MAX_WORKERS:
        raise ConfigError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    max_attempts = _positive_int(merged["max_attempts"], "max_attempts")
    diag_runs = _positive_int(merged["diag_runs"], "diag_runs")
    diag_deltas = {}
    for key in ("diag_delta1", "diag_delta2"):
        value = diag_deltas[key] = None if merged[key] is None else _number(merged[key], key)
        if value is not None and not 0.0 < value < 1.0:
            raise ConfigError(f"{key} must lie in (0, 1)")

    sweep_s_values, sweep_t_values = (
        _positive_ints(merged[key], key) if merged[key] else None
        for key in ("sweep_s_values", "sweep_t_values")
    )

    if a_star is not None and not in_set_q(ThetaParams(a_star, b_star), costs, set_q):
        raise ConfigError(
            "the configured true system (a_star, b_star) lies outside set_q; "
            "adjust set_q.m_p / set_q.rho or the matrices"
        )
    if offline_cfg.controller_mode == "ce_dither" and not in_set_p(
        ThetaParams(a_sim, b_sim), costs, set_p
    ):
        raise ConfigError(
            "the auxiliary system (a_sim, b_sim) lies outside set_p, which "
            "offline.controller_mode=ce_dither requires; adjust set_p or the matrices"
        )
    if min(s_values) <= t_horizon:
        logger.warning(
            "offline length S=%d does not exceed the horizon T=%d; the confidence "
            "schedule falls back to max(S, T + 1)", min(s_values), t_horizon
        )

    return ExperimentConfig(
        n=n,
        m=m,
        a_sim=a_sim,
        b_sim=b_sim,
        a_star=a_star,
        b_star=b_star,
        m_delta=m_delta,
        q_matrix=costs.q_matrix,
        r_matrix=costs.r_matrix,
        s_values=s_values,
        t_horizon=t_horizon,
        delta=delta,
        num_runs=num_runs,
        base_seed=_number(merged["base_seed"], "base_seed", int),
        variants=tuple(variants),
        set_q=set_q,
        offline=offline_cfg,
        beta_mdelta_scale=beta_mdelta_scale,
        max_attempts=max_attempts,
        share_offline=_flag(merged["share_offline"], "share_offline"),
        workers=workers,
        output_dir=str(merged["output_dir"]),
        state_ceiling=state_ceiling,
        diag_runs=diag_runs,
        **diag_deltas,
        sweep_s_values=sweep_s_values,
        sweep_t_values=sweep_t_values,
        raw=_canonical_raw(merged),
    )


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

