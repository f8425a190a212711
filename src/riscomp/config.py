"""Experiment configuration: a line-oriented key=value format with dotted
keys, comments, and exhaustive validation against per-kind schemas.

All decibel quantities carry unit suffixes in their key names (_db / _dbm)
so units are always explicit; conversion to linear scale happens in the
scenario constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .moppo import TrainConfig
from .scenarios import (
    AerialScenario,
    CoordinatedScenario,
    MultiCellScenario,
    tiny_aerial_scenario,
)
from .units import db_to_linear, dbm_to_watts

KINDS = (
    "pdf-validation",
    "er-sweep",
    "outage-sweep",
    "exhaustive-star",
    "ee-sweep",
    "osum-sweep",
    "split-sweep",
    "drl-train",
    "drl-eval",
)

_COORDINATED_KEYS = {
    "p_t_dbm": float,
    "rho_o_db": float,
    "bandwidth_hz": float,
    "noise_figure_db": float,
    "zeta_center": float,
    "zeta_edge": float,
    "k_elements": int,
    "beta_t": float,
    "beta_r": float,
    "m_direct": float,
    "m_bs_ris": float,
    "m_ris_user": float,
    "threshold_center_db": float,
    "threshold_edge_db": float,
    "assignment_1": int,
    "assignment_2": int,
}

_MULTICELL_KEYS = {
    "n_cells": int,
    "n_coop": int,
    "k_elements": int,
    "p_t_dbm": float,
    "rho_o_db": float,
    "bandwidth_hz": float,
    "zeta_edge": float,
    "kappa_db": float,
    "r_center_min": float,
    "r_edge_min": float,
    "amp_efficiency": float,
    "static_power_dbm": float,
    "element_power_dbm": float,
    "n_trials": int,
}

_AERIAL_KEYS = {
    "k_elements": int,
    "t_slots": int,
    "p_t_dbm": float,
    "rho_o_db": float,
    "kappa_db": float,
    "d_min": float,
    "step_length": float,
    "k_viol": float,
    "r_center_min": float,
    "r_edge_min": float,
    "default_alloc": float,
    "oma": bool,
    "tiny": bool,
    "uav_start_x": float,
    "uav_start_y": float,
}

_TRAIN_KEYS = {
    "learning_rate": float,
    "clip_eps": float,
    "gamma": float,
    "episodes": int,
    "epochs": int,
    "batch": int,
    "rollout": int,
    "hidden": int,
    "head_hidden": int,
    "value_coef": float,
    "entropy_coef": float,
    "episodes_per_update": int,
    "kl_stop": float,
    "entropy_decay": bool,
}

_TOP_KEYS = {
    "kind": str,
    "seed": int,
    "trials": int,
    "out": str,
    "checkpoint": str,
}

# Sweep keys each kind's runner reads.
_SWEEP_KEYS_BY_KIND = {
    "er-sweep": ("p_t_dbm",),
    "outage-sweep": ("p_t_dbm",),
    "exhaustive-star": ("assignment_values", "beta_t_values"),
    "ee-sweep": ("j_values", "k_values", "p_t_dbm", "r_th_values"),
    "osum-sweep": ("p_t_dbm",),
    "split-sweep": ("splits", "j_values"),
}

_SCENARIO_KEYS_BY_KIND = {
    "pdf-validation": _COORDINATED_KEYS,
    "er-sweep": _COORDINATED_KEYS,
    "outage-sweep": _COORDINATED_KEYS,
    "exhaustive-star": _COORDINATED_KEYS,
    "ee-sweep": _MULTICELL_KEYS,
    "osum-sweep": _MULTICELL_KEYS,
    "split-sweep": _MULTICELL_KEYS,
    "drl-train": _AERIAL_KEYS,
    "drl-eval": _AERIAL_KEYS,
}


class ConfigError(ValueError):
    """Parse or validation failure; message lists every violation."""


@dataclass
class ExperimentConfig:
    kind: str = "pdf-validation"
    seed: int = 1
    trials: int | None = None
    out: str = "runs"
    checkpoint: str = ""
    scenario: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)

    def coordinated_scenario(self) -> CoordinatedScenario:
        kw = dict(self.scenario)
        thr_c = kw.pop("threshold_center_db", 0.0)
        thr_f = kw.pop("threshold_edge_db", 0.0)
        a1 = kw.pop("assignment_1", None)
        a2 = kw.pop("assignment_2", None)
        k = kw.get("k_elements", CoordinatedScenario.k_elements)
        if a1 is None and a2 is None:
            assignment = (k - k // 2, k // 2)
        else:
            a1 = k // 2 if a1 is None else a1
            a2 = k - a1 if a2 is None else a2
            assignment = (a1, a2)
        return CoordinatedScenario(
            thresholds_db=(thr_c, thr_f), assignment=assignment, **kw
        )

    def multicell_scenario(self) -> MultiCellScenario:
        return MultiCellScenario(**self.scenario)

    def aerial_scenario(self) -> AerialScenario:
        kw = dict(self.scenario)
        tiny = kw.pop("tiny", False)
        x = kw.pop("uav_start_x", None)
        y = kw.pop("uav_start_y", None)
        if x is not None or y is not None:
            base = tiny_aerial_scenario(**kw) if tiny else AerialScenario(**kw)
            start = (
                x if x is not None else base.uav_start[0],
                y if y is not None else base.uav_start[1],
            )
            return base.with_overrides(uav_start=start)
        return tiny_aerial_scenario(**kw) if tiny else AerialScenario(**kw)


def _parse_value(raw: str, lineno: int):
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    if "," in raw:
        return [_parse_value(part, lineno) for part in raw.split(",") if part.strip()]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _coerce(value, typ, key: str, errors: list[str]):
    if typ is list:
        return value if isinstance(value, list) else [value]
    if typ is bool:
        if isinstance(value, bool):
            return value
        errors.append(f"key {key}: expected true/false, got {value!r}")
        return False
    if typ is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"key {key}: expected integer, got {value!r}")
            return 0
        return value
    if typ is str:
        return str(value)
    if not isinstance(value, typ):
        errors.append(f"key {key}: expected {typ.__name__}, got {value!r}")
        return typ()
    return value


def parse_text(text: str) -> dict:
    """Flat dotted-key dictionary from config text."""
    out: dict[str, object] = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in out:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        out[key] = _parse_value(raw, lineno)
    if errors:
        raise ConfigError("config parse failed:\n  " + "\n  ".join(errors))
    return out


def from_mapping(flat: dict) -> ExperimentConfig:
    """Validated ExperimentConfig from a flat dotted-key mapping.

    Unknown keys are rejected; every violation is reported at once.
    """
    errors: list[str] = []
    kind = flat.get("kind", "pdf-validation")
    if kind not in KINDS:
        errors.append(f"kind {kind!r} unknown; choose from {', '.join(KINDS)}")
        raise ConfigError("config validation failed:\n  " + "\n  ".join(errors))
    scenario_schema = _SCENARIO_KEYS_BY_KIND[kind]
    cfg = ExperimentConfig(kind=kind)
    for key, value in flat.items():
        if key == "kind":
            continue
        if key in _TOP_KEYS:
            setattr(cfg, key, _coerce(value, _TOP_KEYS[key], key, errors))
        elif key.startswith("scenario."):
            sub = key[len("scenario."):]
            if sub not in scenario_schema:
                errors.append(f"unknown scenario key {sub!r} for kind {kind}")
            else:
                cfg.scenario[sub] = _coerce(value, scenario_schema[sub], key, errors)
        elif key.startswith("sweep."):
            sub = key[len("sweep."):]
            if sub not in _SWEEP_KEYS_BY_KIND.get(kind, ()):
                errors.append(f"unknown sweep key {sub!r} for kind {kind}")
            else:
                cfg.sweep[sub] = _coerce(value, list, key, errors)
        elif key.startswith("train."):
            sub = key[len("train."):]
            if sub not in _TRAIN_KEYS:
                errors.append(f"unknown train key {sub!r}")
            else:
                cfg.train[sub] = _coerce(value, _TRAIN_KEYS[sub], key, errors)
        else:
            errors.append(f"unknown key {key!r}")
    if errors:
        raise ConfigError("config validation failed:\n  " + "\n  ".join(errors))
    validate(cfg)
    return cfg


def _sweep_bounds(cfg: ExperimentConfig) -> dict[str, tuple[type, float, float]]:
    """Element type and closed range of every sweep list."""
    k = cfg.scenario.get("k_elements", CoordinatedScenario.k_elements)
    n_cells = cfg.scenario.get("n_cells", MultiCellScenario.n_cells)
    return {
        "p_t_dbm": (float, -math.inf, math.inf),
        "r_th_values": (float, 0.0, math.inf),
        "splits": (float, 0.0, 1.0),
        "beta_t_values": (float, 0.0, 1.0),
        "j_values": (int, 1, n_cells),
        "k_values": (int, 0, math.inf),
        "assignment_values": (int, 0, k),
    }


def _describe(typ: type, lo: float, hi: float) -> str:
    name = "integer" if typ is int else "finite number"
    if math.isinf(hi):
        return name if math.isinf(lo) else f"{name} >= {lo}"
    return f"{name} in [{lo}, {hi}]"


def _overflows(key: str, value: float) -> bool:
    """True when a _db/_dbm value has no finite linear-scale value."""
    to_linear = dbm_to_watts if key.endswith("_dbm") else db_to_linear
    try:
        return not math.isfinite(to_linear(value))
    except OverflowError:
        return True


def _sweep_errors(cfg: ExperimentConfig) -> list[str]:
    errors = []
    bounds = _sweep_bounds(cfg)
    for key, values in cfg.sweep.items():
        typ, lo, hi = bounds[key]
        if not values:
            errors.append(f"sweep.{key}: needs at least one value")
        for i, v in enumerate(values):
            number = isinstance(v, int if typ is int else (int, float)) and not isinstance(v, bool)
            if not (number and math.isfinite(v) and lo <= v <= hi):
                errors.append(f"sweep.{key}[{i}]: expected {_describe(typ, lo, hi)}, got {v!r}")
            elif key.endswith("_dbm") and _overflows(key, v):
                errors.append(f"sweep.{key}[{i}]: {v!r} overflows on conversion to linear scale")
    return errors


def _link_budget_errors(cfg: ExperimentConfig, scn) -> list[str]:
    """sigma^2 from the bandwidth and noise figure must be finite and > 0, and
    rho = P_t / sigma^2 finite at every transmit power of the run (powers
    already reported as invalid are skipped)."""
    try:
        noise = scn.noise_w
    except (ValueError, OverflowError):
        noise = math.nan
    if not 0.0 < noise < math.inf:
        named = " and ".join(f"scenario.{key} = {getattr(scn, key)!r}"
                             for key in ("bandwidth_hz", "noise_figure_db")
                             if key in _SCENARIO_KEYS_BY_KIND[cfg.kind])
        return [f"noise power sigma^2 from {named} is not finite and > 0"]
    powers = [("scenario.p_t_dbm", scn.p_t_dbm),
              *((f"sweep.p_t_dbm[{i}]", p) for i, p in enumerate(cfg.sweep.get("p_t_dbm", ())))]
    return [f"{key}: {p!r} gives rho = P_t / sigma^2 beyond the float range "
            f"(sigma^2 = {noise!r} W)" for key, p in powers
            if isinstance(p, (int, float)) and math.isfinite(p) and not _overflows(key, p)
            and not math.isfinite(dbm_to_watts(p) / noise)]


def validate(cfg: ExperimentConfig) -> None:
    """Range and invariant checks; also re-run after the CLI overrides fields."""
    errors = []
    if cfg.trials is not None and cfg.trials < 1:
        errors.append(f"trials must be >= 1, got {cfg.trials}")
    if cfg.seed < 0:
        errors.append(f"seed must be >= 0, got {cfg.seed}")
    if cfg.kind == "drl-eval" and not cfg.checkpoint:
        errors.append("drl-eval requires checkpoint = <policy.bin path>")
    errors.extend(_sweep_errors(cfg))
    schema = _SCENARIO_KEYS_BY_KIND[cfg.kind]
    for key, value in cfg.scenario.items():
        if schema.get(key) is not float:
            continue
        if not math.isfinite(value):
            errors.append(f"scenario.{key}: expected a finite number, got {value!r}")
        elif key.endswith(("_db", "_dbm")) and _overflows(key, value):
            errors.append(f"scenario.{key}: {value!r} overflows on conversion to linear scale")
    drl = cfg.kind in ("drl-train", "drl-eval")
    if drl:
        for key, value in cfg.train.items():
            if _TRAIN_KEYS.get(key) is float and not math.isfinite(value):
                errors.append(f"train.{key}: expected a finite number, got {value!r}")
    # Construct the scenario (and training setup) once to surface invariant
    # violations.
    try:
        if cfg.kind in ("pdf-validation", "er-sweep", "outage-sweep", "exhaustive-star"):
            scn = cfg.coordinated_scenario()
        elif cfg.kind in ("ee-sweep", "osum-sweep", "split-sweep"):
            scn = cfg.multicell_scenario()
        else:
            scn = cfg.aerial_scenario()
    except (TypeError, ValueError) as exc:
        errors.append(str(exc))
    else:
        errors.extend(_link_budget_errors(cfg, scn))
    if drl:
        try:
            TrainConfig(**cfg.train)
        except (TypeError, ValueError) as exc:
            errors.append(f"train: {exc}")
    if errors:
        raise ConfigError("config validation failed:\n  " + "\n  ".join(errors))


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; empty files mean all defaults."""
    text = Path(path).read_text()
    return from_mapping(parse_text(text))


def dump_config(cfg: ExperimentConfig, header: str = "") -> str:
    """Canonical serialization; re-loading reproduces the config exactly."""
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append(f"kind = {cfg.kind}")
    lines.append(f"seed = {cfg.seed}")
    if cfg.trials is not None:
        lines.append(f"trials = {cfg.trials}")
    lines.append(f"out = {cfg.out}")
    if cfg.checkpoint:
        lines.append(f"checkpoint = {cfg.checkpoint}")

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, list):
            return ", ".join(fmt(x) for x in v)
        if isinstance(v, float):
            text = f"{v:.17g}"
            # "-0" would load back as the integer 0 and lose the sign.
            return "-0.0" if text == "-0" else text
        return str(v)

    for section, data in (("scenario", cfg.scenario), ("sweep", cfg.sweep),
                          ("train", cfg.train)):
        for key in sorted(data):
            lines.append(f"{section}.{key} = {fmt(data[key])}")
    return "\n".join(lines) + "\n"
