"""The experiment config: its key schema with defaults, parsers and help lines,
file loading, override handling, and the checks across keys that turn it into
an ExperimentConfig."""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .controller import VARIANTS
from .errors import ConfigError, UsageError
from .lqr import ConstraintSetP, ConstraintSetQ, CostMatrices, ThetaParams, p_membership, q_membership
from .offline import OfflineConfig

logger = logging.getLogger(__name__)

# A fixed ceiling on `workers`; the executor further clamps it to the number
# of runs and of CPUs.
MAX_WORKERS = 256


# Parsers: each takes one raw value and its dotted key, checks the value's
# type and range, and returns it or raises ConfigError.


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_count(x) -> bool:
    return _is_int(x) and x >= 1


def _is_finite(x) -> bool:
    # The comparison is exact for any int, and false for nan.
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_distinct(items: list) -> bool:
    return len(items) > 0 and len(set(items)) == len(items)


def _check(test: Callable[[object], bool], words: str, convert: Callable):
    """The parser that returns convert(value) for a value that passes `test`."""

    def parse(value, key: str):
        if not test(value):
            raise ConfigError(f"{key} must be {words}, got {value!r}")
        return convert(value)

    return parse


_integer = _check(_is_int, "an integer", int)
_count = _check(_is_count, "a positive integer", int)
_workers = _check(
    lambda x: _is_count(x) and x <= MAX_WORKERS, f"at most {MAX_WORKERS}, and a positive integer", int
)
_counts = _check(
    lambda x: _is_count(x) or (isinstance(x, list) and all(map(_is_count, x)) and _is_distinct(x)),
    "a positive integer or a non-empty list of distinct ones",
    lambda x: tuple(map(int, x)) if isinstance(x, list) else (int(x),),
)
_number = _check(_is_finite, "a finite number", float)
_fraction = _check(lambda x: _is_finite(x) and 0.0 < x < 1.0, "a number in (0, 1)", float)
_nonnegative = _check(lambda x: _is_finite(x) and x >= 0.0, "a nonnegative number", float)
_positive = _check(lambda x: _is_finite(x) and x > 0.0, "a positive number", float)
_flag = _check(lambda x: isinstance(x, bool), "true or false", bool)
_text = _check(lambda x: isinstance(x, str) and x != "", "a non-empty string", str)
_variants = _check(
    lambda x: isinstance(x, list) and all(v in VARIANTS for v in x) and _is_distinct(x),
    f"a non-empty list of distinct names from {VARIANTS}",
    tuple,
)


def _matrix(value, key: str) -> np.ndarray:
    """A finite numeric matrix; its shape is checked against n and m later."""
    try:
        mat = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} is not a numeric matrix: {exc}") from exc
    if mat.ndim != 2:
        raise ConfigError(f"{key} must be a matrix (nested numeric arrays), got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"{key} has non-finite entries")
    return mat


def _optional(parse):
    """None means unset; any other value goes through `parse`."""
    return lambda value, key: None if value is None else parse(value, key)


def _required(parse):
    def required(value, key: str):
        if value is None:
            raise ConfigError(f"missing required config key: {key}")
        return parse(value, key)

    return required


class Key(NamedTuple):
    """One config key: its default (None means required or unset), the parser
    of its value, and the line that documents it in `tsodlqr --help`."""

    default: object
    parse: Callable
    help: str


# The key schema; a nested dict is a section, addressed with dotted keys.  The
# ranges of the section keys are checked by the dataclasses they build.
SCHEMA = {
    "n": Key(None, _required(_count), "state dimension"),
    "m": Key(None, _required(_count), "input dimension"),
    "a_sim": Key(None, _required(_matrix), "auxiliary (offline) system matrix A_sim"),
    "b_sim": Key(None, _required(_matrix), "auxiliary (offline) system matrix B_sim"),
    "a_star": Key(None, _optional(_matrix), "true system matrix A (omit with sample_delta)"),
    "b_star": Key(None, _optional(_matrix), "true system matrix B (omit with sample_delta)"),
    "sample_delta": Key(False, _flag, "draw the true system as sim + random offset per run"),
    "m_delta": Key(0.0, _nonnegative, "dissimilarity bound M_delta on the offset norm"),
    "q_matrix": Key(None, _optional(_matrix), "state cost weight Q (default: identity)"),
    "r_matrix": Key(None, _optional(_matrix), "input cost weight R (default: identity)"),
    "s_len": Key(None, _required(_counts), "offline trajectory length S (int or list of ints)"),
    "t_horizon": Key(None, _required(_count), "online horizon T"),
    "delta": Key(0.1, _fraction, "confidence budget: delta1 = delta/(16 max(S, T+1)), delta2 = delta/(16 T)"),
    "num_runs": Key(10, _count, "Monte-Carlo repetitions per variant and S"),
    "base_seed": Key(1, _integer, "seed every run's seed derives from"),
    "variants": Key(["tsod"], _variants, "subset of: " + ", ".join(VARIANTS)),
    "set_q": {
        "m_p": Key(50.0, _number, "admissible-set trace bound M_P"),
        "rho": Key(0.99, _number, "admissible-set closed-loop norm bound rho"),
    },
    "set_p": {
        "m_sim": Key(50.0, _number, "auxiliary-system trace bound M_sim"),
        "phi": Key(5.0, _number, "auxiliary-system Frobenius-norm bound phi"),
        "rho_sim": Key(0.99, _number, "auxiliary-system closed-loop norm bound rho_sim"),
    },
    "offline": {
        "dither_std": Key(1.0, _number, "standard deviation of the offline exploration dither"),
        "regularizer": Key(1.0, _number, "ridge regularizer lambda of the offline estimate"),
        "controller_mode": Key("ce_dither", _text, "ce_dither (a_sim, b_sim must lie in set_p) or fixed_gain"),
        "fixed_gain": Key(None, _optional(_matrix), "m x n gain of fixed_gain mode"),
        "gain_refresh": Key(50, _count, "steps between ce_dither gain refreshes"),
        "state_ceiling": Key(1e6, _number, "offline state norm that aborts the rollout"),
    },
    "beta_mdelta_scale": Key(1.0, _nonnegative, "scale on the sqrt(lambda_max(U)) * M_delta width term"),
    "max_attempts": Key(100, _count, "rejection-sampling budget per step"),
    "share_offline": Key(False, _flag, "reuse run 0's offline dataset for every run of an S"),
    "workers": Key(
        1, _workers, f"processes for run, diagnostics and sweep (at most {MAX_WORKERS}, one per CPU and run)"
    ),
    "output_dir": Key("out", _text, "output directory (also --out / TSOD_OUT_DIR)"),
    "state_ceiling": Key(1e6, _positive, "online state norm that aborts the episode"),
    "diag_runs": Key(200, _count, "diagnostics run count"),
    "diag_delta1": Key(None, _optional(_fraction), "diagnostics override of delta1"),
    "diag_delta2": Key(None, _optional(_fraction), "diagnostics override of delta2"),
    "sweep_s_values": Key(None, _optional(_counts), "S grid of the sweep subcommand (default: s_len)"),
    "sweep_t_values": Key(None, _optional(_counts), "T grid of the sweep subcommand (default: t_horizon)"),
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
    """Apply `key=value` strings, nesting dotted keys into sections.

    Values parse as JSON when possible, otherwise as plain strings.  Key names
    are checked when the config is built.
    """
    merged = copy.deepcopy(data)
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"override {item!r} is not of the form key=value")
        key, raw_value = item.split("=", 1)
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        *sections, last = key.strip().split(".")
        node = merged
        for part in sections:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"config key {part} is not a section")
        node[last] = value
    return merged


def _parse(schema: dict, data: dict, prefix: str = "") -> Tuple[dict, dict]:
    """(raw, parsed): the keys of `data` laid over the schema defaults, and
    each of those values run through its key's parser."""
    for name in data:
        if name not in schema:
            raise ConfigError(f"unknown config key: {prefix}{name}")
    raw, parsed = {}, {}
    for name, entry in schema.items():
        if isinstance(entry, Key):
            raw[name] = data.get(name, entry.default)
            parsed[name] = entry.parse(raw[name], prefix + name)
            continue
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be a section (a JSON object), got {section!r}")
        raw[name], parsed[name] = _parse(entry, section, f"{name}.")
    return raw, parsed


def _build(cls, prefix: str, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # Every message of these constructors starts with the field's name.
        raise ConfigError(prefix + str(exc)) from exc


def build_experiment_config(data: dict) -> ExperimentConfig:
    """Parse every key through its schema entry, then check what spans keys."""
    raw, v = _parse(SCHEMA, data)
    n, m = v["n"], v["m"]
    if v["sample_delta"]:
        if v["a_star"] is not None or v["b_star"] is not None:
            raise ConfigError("a_star/b_star must be omitted when sample_delta is true")
        if v["m_delta"] == 0.0:
            raise ConfigError("sample_delta requires a positive m_delta")
    else:
        for key in ("a_star", "b_star"):
            if v[key] is None:
                raise ConfigError(f"missing required config key: {key}")

    # Shapes come before anything is allocated from n or m.
    shapes = {
        "a_sim": (v["a_sim"], (n, n)),
        "b_sim": (v["b_sim"], (n, m)),
        "a_star": (v["a_star"], (n, n)),
        "b_star": (v["b_star"], (n, m)),
        "q_matrix": (v["q_matrix"], (n, n)),
        "r_matrix": (v["r_matrix"], (m, m)),
        "offline.fixed_gain": (v["offline"]["fixed_gain"], (m, n)),
    }
    for key, (mat, shape) in shapes.items():
        if mat is not None and mat.shape != shape:
            raise ConfigError(f"{key} must have shape {shape}, got {mat.shape}")

    q, r = v["q_matrix"], v["r_matrix"]
    costs = _build(
        CostMatrices, "", q_matrix=np.eye(n) if q is None else q, r_matrix=np.eye(m) if r is None else r
    )
    set_q = _build(ConstraintSetQ, "set_q.", **v["set_q"])
    set_p = _build(ConstraintSetP, "set_p.", **v["set_p"])
    offline_cfg = _build(OfflineConfig, "offline.", set_p=set_p, **v["offline"])

    if v["a_star"] is not None and q_membership(ThetaParams(v["a_star"], v["b_star"]), costs, set_q) is None:
        raise ConfigError(
            "the configured true system (a_star, b_star) lies outside set_q; "
            "adjust set_q.m_p / set_q.rho or the matrices"
        )
    if offline_cfg.controller_mode == "ce_dither" and p_membership(
        ThetaParams(v["a_sim"], v["b_sim"]), costs, set_p
    ) is None:
        raise ConfigError(
            "the auxiliary system (a_sim, b_sim) lies outside set_p, which "
            "offline.controller_mode=ce_dither requires; adjust set_p or the matrices"
        )
    if min(v["s_len"]) <= v["t_horizon"]:
        logger.warning(
            "offline length S=%d does not exceed the horizon T=%d; the confidence "
            "schedule falls back to max(S, T + 1)", min(v["s_len"]), v["t_horizon"]
        )

    v["s_values"] = v.pop("s_len")
    v.update(q_matrix=costs.q_matrix, r_matrix=costs.r_matrix, set_q=set_q, offline=offline_cfg)
    del v["sample_delta"], v["set_p"]
    return ExperimentConfig(**v, raw=_canonical_raw(raw))


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
