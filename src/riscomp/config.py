"""Experiment configuration: a line-oriented key=value format with dotted
keys and comments, typed and validated against per-kind schemas.

The type of every scenario and train key is the annotation of its field in
the scenario dataclass or `TrainConfig`; only the top-level keys, the sweep
lists and the few scenario pseudo-keys that are no field are typed here.
Every value is converted once, in `from_mapping`, to the type of its key:
config text arrives as strings and is parsed by that type (a string key
keeps its text), and Python values (presets, tests) must already have it.
Only `sweep.*` values are comma-separated lists.

All decibel quantities carry unit suffixes in their key names (_db / _dbm)
so units are always explicit; the scenario classes convert them to linear
scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

from .analysis import coordinated_distributions
from .moppo import TrainConfig
from .montecarlo import KS_MIN_SAMPLES
from .scenarios import (
    AerialScenario,
    CoordinatedScenario,
    MultiCellScenario,
    tiny_aerial_scenario,
)
from .units import db_to_linear, dbm_to_watts


def _schema(cls: type, names: tuple[str, ...], **pseudo: type) -> dict[str, type]:
    """Key -> type of the exposed fields `names` of cls, as annotated, then
    of the pseudo-keys, which are no field of cls; the scenario methods of
    `ExperimentConfig` turn them into fields (`tiny` picks the base scenario)."""
    hints = get_type_hints(cls)
    return {**{name: hints[name] for name in names}, **pseudo}


_COORDINATED_KEYS = _schema(
    CoordinatedScenario,
    ("p_t_dbm", "rho_o_db", "bandwidth_hz", "noise_figure_db", "zeta_center",
     "zeta_edge", "k_elements", "beta_t", "beta_r", "m_direct", "m_bs_ris",
     "m_ris_user"),
    threshold_center_db=float, threshold_edge_db=float, assignment_1=int, assignment_2=int,
)

_MULTICELL_KEYS = _schema(
    MultiCellScenario,
    ("n_cells", "n_coop", "k_elements", "p_t_dbm", "rho_o_db", "bandwidth_hz",
     "zeta_edge", "kappa_db", "r_center_min", "r_edge_min", "amp_efficiency",
     "static_power_dbm", "element_power_dbm"),
)

_AERIAL_KEYS = _schema(
    AerialScenario,
    ("k_elements", "t_slots", "p_t_dbm", "rho_o_db", "kappa_db", "d_min",
     "step_length", "k_viol", "r_center_min", "r_edge_min", "default_alloc", "oma"),
    tiny=bool, uav_start_x=float, uav_start_y=float,
)

_TRAIN_KEYS = _schema(
    TrainConfig,
    ("learning_rate", "clip_eps", "gamma", "episodes", "epochs", "batch",
     "rollout", "hidden", "head_hidden", "value_coef", "entropy_coef",
     "episodes_per_update", "kl_stop", "entropy_decay"),
)

_TOP_KEYS = {
    "kind": str,
    "seed": int,
    "trials": int,
    "out": str,
    "checkpoint": str,
}

# Element type of every sweep list and the kinds whose runners read it.
_SWEEP_KEYS = {
    "p_t_dbm": (float, ("er-sweep", "outage-sweep", "ee-sweep", "osum-sweep")),
    "r_th_values": (float, ("ee-sweep",)),
    "splits": (float, ("split-sweep",)),
    "beta_t_values": (float, ("exhaustive-star",)),
    "j_values": (int, ("ee-sweep", "split-sweep")),
    "k_values": (int, ("ee-sweep",)),
    "assignment_values": (int, ("exhaustive-star",)),
}

# The fixed lists the runners sweep when the config sets none; the other
# defaults (assignment_values, j_values) are computed from the scenario.
_SWEEP_DEFAULTS = {
    "er-sweep": {"p_t_dbm": [-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0]},
    "outage-sweep": {"p_t_dbm": [-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]},
    "exhaustive-star": {"beta_t_values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]},
    "osum-sweep": {"p_t_dbm": [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]},
    "split-sweep": {"splits": [0.0, 0.25, 0.5, 0.75, 1.0]},
}

# The scenario family of every kind, named by its key schema.
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

KINDS = tuple(_SCENARIO_KEYS_BY_KIND)


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

    def sweep_values(self, key: str) -> list:
        """The values of sweep.<key> the runner uses: the config's list, or
        the kind's fixed default."""
        return self.sweep.get(key, _SWEEP_DEFAULTS[self.kind][key])

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
        scn = tiny_aerial_scenario(**kw) if tiny else AerialScenario(**kw)
        if x is None and y is None:
            return scn
        return replace(scn, uav_start=(scn.uav_start[0] if x is None else x,
                                       scn.uav_start[1] if y is None else y))


_TYPE_NAMES = {int: "integer", float: "number", bool: "true/false", str: "text"}


def _convert(value, typ: type, key: str, errors: list[str]):
    """value as typ, or None with an error appended. A string is parsed by
    typ, except that a str key keeps it as is; any other value must already
    be a typ, where an int also counts as a float and a bool is no number."""
    if isinstance(value, str) and typ is not str:
        value = value.strip()
        if typ is not bool:
            try:
                return typ(value)
            except ValueError:
                pass
        elif value.lower() in ("true", "false"):
            return value.lower() == "true"
    elif (isinstance(value, (int, float) if typ is float else typ)
          and isinstance(value, bool) == (typ is bool)):
        return typ(value)
    errors.append(f"{key}: expected {_TYPE_NAMES[typ]}, got {value!r}")
    return None


def parse_text(text: str) -> dict:
    """Flat dotted-key dictionary of the raw value strings of config text
    (surrounding whitespace removed); `from_mapping` types them."""
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
        out[key] = raw.strip()
    if errors:
        raise ConfigError("config parse failed:\n  " + "\n  ".join(errors))
    return out


def from_mapping(flat: dict) -> ExperimentConfig:
    """Validated ExperimentConfig from a flat dotted-key mapping.

    Each value is converted to its key's type (see `_convert`); a `sweep.*`
    string is first split on commas, and each element is converted to the
    key's element type. Unknown keys and values of the wrong type are
    reported together, before the range and invariant checks of `validate`.
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
            setattr(cfg, key, _convert(value, _TOP_KEYS[key], key, errors))
        elif key.startswith("scenario."):
            sub = key[len("scenario."):]
            if sub not in scenario_schema:
                errors.append(f"unknown scenario key {sub!r} for kind {kind}")
            else:
                cfg.scenario[sub] = _convert(value, scenario_schema[sub], key, errors)
        elif key.startswith("sweep."):
            sub = key[len("sweep."):]
            typ, kinds = _SWEEP_KEYS.get(sub, (None, ()))
            if kind not in kinds:
                errors.append(f"unknown sweep key {sub!r} for kind {kind}")
            elif isinstance(value, (str, list)):
                if isinstance(value, str):
                    value = [part for part in value.split(",") if part.strip()]
                cfg.sweep[sub] = [_convert(v, typ, f"{key}[{i}]", errors)
                                  for i, v in enumerate(value)]
            else:
                errors.append(f"{key}: expected a list, got {value!r}")
        elif key.startswith("train."):
            sub = key[len("train."):]
            if sub not in _TRAIN_KEYS:
                errors.append(f"unknown train key {sub!r}")
            else:
                cfg.train[sub] = _convert(value, _TRAIN_KEYS[sub], key, errors)
        else:
            errors.append(f"unknown key {key!r}")
    if errors:
        raise ConfigError("config validation failed:\n  " + "\n  ".join(errors))
    validate(cfg)
    return cfg


def _sweep_ranges(cfg: ExperimentConfig) -> dict[str, tuple[float, float]]:
    """Closed range of the elements of every sweep list."""
    k = cfg.scenario.get("k_elements", CoordinatedScenario.k_elements)
    n_cells = cfg.scenario.get("n_cells", MultiCellScenario.n_cells)
    return {
        "p_t_dbm": (-math.inf, math.inf),
        "r_th_values": (0.0, math.inf),
        "splits": (0.0, 1.0),
        "beta_t_values": (0.0, 1.0),
        "j_values": (1, n_cells),
        "k_values": (0, math.inf),
        "assignment_values": (0, k),
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


def _int_range_errors(cfg: ExperimentConfig) -> list[str]:
    """Integers that no float can hold, each named. The seed is exempt: it
    only seeds the generators, which take any nonnegative integer."""
    named = [("trials", cfg.trials),
             *((f"scenario.{k}", v) for k, v in cfg.scenario.items()),
             *((f"train.{k}", v) for k, v in cfg.train.items()),
             *((f"sweep.{k}[{i}]", v) for k, vs in cfg.sweep.items()
               for i, v in enumerate(vs))]
    return [f"{key}: integer beyond the float range" for key, value in named
            if type(value) is int and abs(value) > sys.float_info.max]


def _sweep_errors(cfg: ExperimentConfig) -> list[str]:
    errors = []
    ranges = _sweep_ranges(cfg)
    for key, values in cfg.sweep.items():
        lo, hi = ranges[key]
        if not values:
            errors.append(f"sweep.{key}: needs at least one value")
        for i, v in enumerate(values):
            if not (math.isfinite(v) and lo <= v <= hi):
                errors.append(f"sweep.{key}[{i}]: expected "
                              f"{_describe(_SWEEP_KEYS[key][0], lo, hi)}, got {v!r}")
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
            if math.isfinite(p) and not _overflows(key, p)
            and not math.isfinite(dbm_to_watts(p) / noise)]


def _ee_power_errors(cfg: ExperimentConfig, scn) -> list[str]:
    """Energy efficiency divides by P_Q, P_element and every transmit power
    a point uses, so none may be 0 W (a dBm value far below 0 underflows).
    scenario.p_t_dbm is unused when sweep.p_t_dbm is the only axis or forms
    the grid with sweep.r_th_values; powers already reported are skipped."""
    sweep = cfg.sweep
    keys = ["scenario.static_power_dbm", "scenario.element_power_dbm"]
    if "p_t_dbm" not in sweep or ("r_th_values" not in sweep
                                  and sweep.keys() & {"j_values", "k_values"}):
        keys.append("scenario.p_t_dbm")
    powers = [(key, getattr(scn, key[len("scenario."):])) for key in keys]
    powers += [(f"sweep.p_t_dbm[{i}]", p) for i, p in enumerate(sweep.get("p_t_dbm", ()))]
    return [f"{key}: {p!r} dBm is 0 W; energy efficiency needs a positive power"
            for key, p in powers
            if math.isfinite(p) and not _overflows(key, p) and dbm_to_watts(p) == 0.0]


def _fit_errors(cfg: ExperimentConfig, scn: CoordinatedScenario) -> list[str]:
    """Fit the closed-form SINR laws at every power and beta_t the
    coordinated runner fits them at; a point whose fit fails is named by the
    key that sets it."""
    if cfg.kind == "exhaustive-star":
        points = [(f"sweep.beta_t_values[{i}]", {"beta_t": b, "beta_r": 1.0 - b})
                  for i, b in enumerate(cfg.sweep_values("beta_t_values"))]
    elif cfg.kind == "pdf-validation":
        points = [("scenario.p_t_dbm", {})]
    else:
        points = [(f"sweep.p_t_dbm[{i}]", {"p_t_dbm": p})
                  for i, p in enumerate(cfg.sweep_values("p_t_dbm"))]
    errors = []
    for key, changes in points:
        at = ", ".join(f"{k} = {v!r}" for k, v in
                       {"p_t_dbm": scn.p_t_dbm, "beta_t": scn.beta_t, **changes}.items())
        try:
            coordinated_distributions(replace(scn, **changes))
        except (ValueError, ArithmeticError) as exc:
            errors.append(f"{key}: the closed-form SINR laws cannot be fitted at {at}: {exc}")
    return errors


def validate(cfg: ExperimentConfig) -> None:
    """Range and invariant checks; also re-run after the CLI overrides fields."""
    # The checks below do float arithmetic, which such integers would crash.
    errors = _int_range_errors(cfg)
    if errors:
        raise ConfigError("config validation failed:\n  " + "\n  ".join(errors))
    # pdf-validation runs a KS test on each SINR sample of `trials` draws.
    least = KS_MIN_SAMPLES if cfg.kind == "pdf-validation" else 1
    if cfg.trials is not None and cfg.trials < least:
        errors.append(f"trials must be >= {least}, got {cfg.trials}")
    if cfg.seed < 0:
        errors.append(f"seed must be >= 0, got {cfg.seed}")
    if cfg.kind == "drl-eval" and not cfg.checkpoint:
        errors.append("drl-eval requires checkpoint = <policy.bin path>")
    for key in ("out", "checkpoint"):
        text = getattr(cfg, key)
        if text != text.strip() or len(text.splitlines()) > 1:
            errors.append(f"{key}: {text!r} has surrounding whitespace or a line break, "
                          "which the manifest cannot record")
    errors.extend(_sweep_errors(cfg))
    schema = _SCENARIO_KEYS_BY_KIND[cfg.kind]
    drl = schema is _AERIAL_KEYS
    sections = [("scenario", cfg.scenario, schema)]
    if drl:
        sections.append(("train", cfg.train, _TRAIN_KEYS))
    else:
        errors.extend(f"train.{key}: kind {cfg.kind} reads no train keys (only "
                      "drl-train and drl-eval do)" for key in cfg.train)
    for section, values, keys in sections:
        for key, value in values.items():
            if keys.get(key) is not float:
                continue
            if not math.isfinite(value):
                errors.append(f"{section}.{key}: expected a finite number, got {value!r}")
            elif key.endswith(("_db", "_dbm")) and _overflows(key, value):
                errors.append(f"{section}.{key}: {value!r} overflows on conversion to "
                              "linear scale")
    # Construct the scenario (and training setup) once to surface invariant
    # violations.
    try:
        if schema is _COORDINATED_KEYS:
            scn = cfg.coordinated_scenario()
        elif schema is _MULTICELL_KEYS:
            scn = cfg.multicell_scenario()
        else:
            scn = cfg.aerial_scenario()
    except (TypeError, ValueError) as exc:
        errors.append(str(exc))
    else:
        errors.extend(_link_budget_errors(cfg, scn))
        if cfg.kind == "ee-sweep":
            errors.extend(_ee_power_errors(cfg, scn))
        # The fits need every value above to be usable.
        if schema is _COORDINATED_KEYS and not errors:
            errors.extend(_fit_errors(cfg, scn))
    if drl:
        try:
            tc = TrainConfig(**cfg.train)
        except (TypeError, ValueError) as exc:
            errors.append(f"train: {exc}")
        else:
            # PPO updates once per full round of episodes_per_update episodes.
            if cfg.kind == "drl-train" and tc.episodes < tc.episodes_per_update:
                errors.append(f"train.episodes = {tc.episodes} is below "
                              f"train.episodes_per_update = {tc.episodes_per_update}, "
                              "so no update round fills and the policy is never trained")
    if errors:
        raise ConfigError("config validation failed:\n  " + "\n  ".join(errors))


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; empty files mean all defaults."""
    text = Path(path).read_text()
    return from_mapping(parse_text(text))


def dump_config(cfg: ExperimentConfig, header: str = "") -> str:
    """Canonical serialization; loading it back reproduces a validated
    config exactly (floats are written with 17 significant digits)."""
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
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    for section, data in (("scenario", cfg.scenario), ("sweep", cfg.sweep),
                          ("train", cfg.train)):
        for key in sorted(data):
            lines.append(f"{section}.{key} = {fmt(data[key])}")
    return "\n".join(lines) + "\n"
