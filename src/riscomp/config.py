"""Experiment configuration: a line-oriented key=value format with dotted
keys and comments, typed and validated against per-kind schemas.

The type of every scenario and train key is the annotation of its field in
the scenario dataclass or `TrainConfig`; only the top-level keys, the sweep
axes (`_AXES`) and the few scenario pseudo-keys that are no field are typed
here. Only `sweep.*` values are comma-separated lists.

Two walks name every value by its key. `from_mapping` walks the keys once:
a key's section picks its schema (a sweep's is its kind's axes), which
refuses an unknown key and converts the value to the key's type; config
text arrives as strings and is parsed by that type (a string key keeps its
text), and Python values (presets, tests) must already have it. `validate`
lists every value once as (config key, schema key, value) and walks that
list once for the checks that read a value alone, after refusing the
integers no float holds.

All decibel quantities carry unit suffixes in their key names (_db / _dbm)
so units are always explicit; the scenario classes convert them to linear
scale.

`validate` turns a config into the `Plan` of its run, with each kind's
defaults (`_KINDS`, the one place they are written) applied, or refuses it
naming every violation by its key. The plan carries the frozen config, and
for a coordinated run the closed-form SINR laws of every point, fitted
once; the runners read the plan and nothing else.

Engines are imported by the code that runs them: this module imports none
at load, and each kind's check imports the one engine helper it reads, so
validating a config loads only its own family's engine. `TrainConfig`, the
parsed `train.*` section, lives here for that reason; `moppo` reads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, get_type_hints

from .scenarios import (
    COOP_RANGE,
    NOT_FINITE,
    AerialScenario,
    CoordinatedScenario,
    MultiCellScenario,
    tiny_aerial_scenario,
)
from .units import db_to_linear, dbm_to_watts

if TYPE_CHECKING:
    from .analysis import CoordinatedDistributions


def _schema(cls: type, names: tuple[str, ...], **pseudo: type) -> dict[str, type]:
    """Key -> type of the exposed fields `names` of cls, as annotated, then
    of the pseudo-keys, which are no field of cls; `_scenario` turns them
    into fields (`tiny` picks the base scenario)."""
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


@dataclass(frozen=True)
class TrainConfig:
    """PPO hyperparameters (defaults follow the full-scale training setup)."""

    learning_rate: float = 2.75e-4
    clip_eps: float = 0.1
    gamma: float = 0.98
    episodes: int = 750
    epochs: int = 20
    batch: int = 128
    rollout: int = 128  # n-step advantage horizon
    hidden: int = 64
    head_hidden: int = 64
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    log_std_init: float = -0.5
    normalize_adv: bool = True
    episodes_per_update: int = 1
    kl_stop: float = 0.05
    entropy_decay: bool = False

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning rate must be > 0")
        if not 0 < self.clip_eps < 1:
            raise ValueError("clip epsilon must lie in (0, 1)")
        if not 0 < self.gamma <= 1:
            raise ValueError("discount must lie in (0, 1]")
        if min(self.episodes, self.epochs, self.batch, self.rollout, self.hidden,
               self.head_hidden, self.episodes_per_update) < 1:
            raise ValueError("counts must be >= 1")


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

# Each kind's scenario keys and its defaults, the one place they are written:
# its Monte Carlo trials, the episodes a drl-eval run steps in lockstep, and
# each sweep axis it reads, in run order, with the values it sweeps where
# the config sets none (a list, a function of the base scenario, or None
# where the axis runs only when set). `validate` applies them.
_KINDS = {
    "pdf-validation": {"keys": _COORDINATED_KEYS, "trials": 10_000},
    "er-sweep": {"keys": _COORDINATED_KEYS, "trials": 100_000, "axes": {
        "p_t_dbm": [-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0]}},
    "outage-sweep": {"keys": _COORDINATED_KEYS, "trials": 10_000, "axes": {
        "p_t_dbm": [-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]}},
    "exhaustive-star": {"keys": _COORDINATED_KEYS, "axes": {
        "assignment_values": lambda scn: range(
            0, scn.k_elements + 1, max(1, scn.k_elements // 8)),
        "beta_t_values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]}},
    # J over every cooperative set size only when no axis is set (see _sweeps).
    "ee-sweep": {"keys": _MULTICELL_KEYS, "trials": 10_000, "axes": {
        "j_values": lambda scn: range(1, scn.n_cells + 1),
        "k_values": None, "p_t_dbm": None, "r_th_values": None}},
    "osum-sweep": {"keys": _MULTICELL_KEYS, "trials": 10_000, "axes": {
        "p_t_dbm": [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]}},
    # J = 1, I // 2 and I, each once and >= 1 (I = 1 gives [1]).
    "split-sweep": {"keys": _MULTICELL_KEYS, "trials": 10_000, "axes": {
        "splits": [0.0, 0.25, 0.5, 0.75, 1.0],
        "j_values": lambda scn: sorted({1, scn.n_cells // 2, scn.n_cells} - {0})}},
    "drl-train": {"keys": _AERIAL_KEYS},
    "drl-eval": {"keys": _AERIAL_KEYS, "episodes": 10},
}

KINDS = tuple(_KINDS)

# Each sweep axis's element type and the scenario at one of its values from
# the one before it (_points), or None where its values only label rows: one
# rate threshold r sets both users' targets.
_AXES = {
    "p_t_dbm": (float, lambda scn, p: replace(scn, p_t_dbm=p)),
    "r_th_values": (float, lambda scn, r: replace(scn, r_center_min=r, r_edge_min=r)),
    "splits": (float, None),
    "beta_t_values": (float, lambda scn, b: replace(scn, beta_t=b, beta_r=1.0 - b)),
    "j_values": (int, lambda scn, j: replace(scn, n_coop=j)),
    "k_values": (int, lambda scn, k: replace(scn, k_elements=k)),
    "assignment_values": (int, None),
}


class ConfigError(ValueError):
    """Parse or validation failure; message lists every violation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A typed config, frozen, with read-only copies of its three mappings."""

    kind: str = "pdf-validation"
    seed: int = 1
    trials: int | None = None
    out: str = "runs"
    checkpoint: str = ""
    scenario: Mapping = field(default_factory=dict)
    sweep: Mapping = field(default_factory=dict)
    train: Mapping = field(default_factory=dict)

    def __post_init__(self):
        for name in ("scenario", "sweep", "train"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


@dataclass(frozen=True)
class Plan:
    """Everything a run reads, built from its frozen `config` by `validate`.
    `sweeps` are the run's sweeps in order, each mapping its axes' sweep
    keys, in order, to their values (a list, or a range where the default
    is one). `points` holds each sweep's points in run order (`_points`),
    which the checks and the runners read. `trials` is the Monte Carlo
    trial count, `episodes` the number of episodes an aerial run steps in
    lockstep, and `train` its training setup. `fits` holds the closed-form
    laws fitted at each point of a coordinated run, in run order."""

    config: ExperimentConfig
    trials: int | None
    scenario: CoordinatedScenario | MultiCellScenario | AerialScenario
    sweeps: tuple[dict[str, list | range], ...]
    episodes: int | None
    train: TrainConfig | None
    points: tuple[tuple[tuple, ...], ...] = ()
    fits: tuple[CoordinatedDistributions, ...] = ()


def _scenario(cfg: ExperimentConfig):
    """The base scenario of cfg, of its kind's family, with the scenario
    pseudo-keys made fields."""
    kw = dict(cfg.scenario)
    keys = _KINDS[cfg.kind]["keys"]
    if keys is _MULTICELL_KEYS:
        # A run that sets J at every point reads no base J: unless the config
        # sets one, the base takes the default clipped to [1, I].
        cells = kw.get("n_cells", MultiCellScenario.n_cells)
        named = f"scenario.n_cells = {cells}"
        if "n_coop" in kw or not all("j_values" in names for names in _axis_names(cfg)):
            coop = kw.get("n_coop", f"{MultiCellScenario.n_coop} (default)")
            named = f"scenario.n_coop = {coop}, {named}"
        else:
            kw["n_coop"] = max(1, min(MultiCellScenario.n_coop, cells))
        try:
            return MultiCellScenario(**kw)
        except ValueError as exc:  # J and I named by their keys
            raise ValueError(str(exc).replace(COOP_RANGE, f"{named}: {COOP_RANGE}")) from None
    if keys is _AERIAL_KEYS:
        make = tiny_aerial_scenario if kw.pop("tiny", False) else AerialScenario
        x, y = kw.pop("uav_start_x", None), kw.pop("uav_start_y", None)
        if x is not None or y is not None:  # the other coordinate: the base's
            x0, y0 = make().uav_start
            kw["uav_start"] = (x0 if x is None else x, y0 if y is None else y)
        return make(**kw)
    thresholds = (kw.pop("threshold_center_db", 0.0), kw.pop("threshold_edge_db", 0.0))
    a1, a2 = kw.pop("assignment_1", None), kw.pop("assignment_2", None)
    k = kw.get("k_elements", CoordinatedScenario.k_elements)
    if a1 is None and a2 is None:
        assignment = (k - k // 2, k // 2)
    else:
        a1 = k // 2 if a1 is None else a1
        assignment = (a1, k - a1 if a2 is None else a2)
    return CoordinatedScenario(thresholds_db=thresholds, assignment=assignment, **kw)


def _axis_names(cfg: ExperimentConfig) -> tuple[tuple[str, ...], ...]:
    """The sweep keys of each sweep of cfg's run, in run order (see `Plan`)."""
    axes = _KINDS[cfg.kind].get("axes", {})
    if cfg.kind != "ee-sweep":
        return (tuple(name for name, default in axes.items()
                      if name in cfg.sweep or default is not None),)
    # One sweep per axis the config sets, or its J default when it sets
    # none; sweep.p_t_dbm with sweep.r_th_values is their grid alone.
    if cfg.sweep.keys() >= {"p_t_dbm", "r_th_values"}:
        return (("p_t_dbm", "r_th_values"),)
    return tuple((name,) for name in axes if name in cfg.sweep) or (("j_values",),)


def _sweeps(cfg: ExperimentConfig, scn) -> tuple[dict[str, list | range], ...]:
    """The sweeps of cfg's run at its base scenario, each axis's default
    applied where cfg sets no values (see `Plan`)."""
    values = {name: cfg.sweep.get(name, default)
              for name, default in _KINDS[cfg.kind].get("axes", {}).items()}
    return tuple({name: values[name](scn) if callable(values[name]) else values[name]
                  for name in names} for names in _axis_names(cfg))


def _points(run: Plan, errors: list[str]) -> tuple[tuple[tuple, ...], ...]:
    """Each sweep's points in run order, built once: a point is the scenario
    at one value of each axis that sets a field (_AXES), the values,
    and {axis: the key of its value, sweep.<axis>[i]}; a split or an
    exhaustive-star's k1 only labels the rows of each point. A value that
    its point's scenario refuses adds no point and is named by its key,
    each problem once (a grid meets it in every row), in the config's key
    order; values reported as not finite are skipped. A k1 is checked as
    the scenario checks its assignment (k1, K - k1)."""
    refused = {"assignment_values": {  # axis -> each problem once, in the order met
        f"sweep.assignment_values[{i}]: assignment entries must be >= 0 and sum to "
        "k_elements": None for i, k1 in enumerate(run.config.sweep.get("assignment_values", ()))
        if not 0 <= k1 <= run.scenario.k_elements}}
    sweeps = []
    for sweep in run.sweeps:
        points = [(run.scenario, (), {})]
        for name, rule in [(name, _AXES[name][1]) for name in sweep if _AXES[name][1]]:
            points, last = [], points
            for (scn, values, keys), (i, v) in product(last, enumerate(sweep[name])):
                key = f"sweep.{name}[{i}]"
                try:
                    if math.isfinite(v):
                        at = rule(scn, v)
                        points.append((at, (*values, v), {**keys, name: key}))
                except ValueError as exc:  # a scenario lists each problem on a line
                    refused.setdefault(name, {}).update(
                        dict.fromkeys(f"{key}: {line}" for line in str(exc).splitlines()))
        sweeps.append(tuple(points))
    errors.extend(line for name in run.config.sweep for line in refused.get(name, ()))
    return tuple(sweeps)


_TYPE_NAMES = {int: "integer", float: "number", bool: "true/false", str: "text"}


def _convert(value, typ: type, key: str, errors: list[str]):
    """value as typ, or None with an error appended. A string is parsed by
    typ, except that a str key keeps it as is; any other value must already
    be a typ, where an int that a float can hold also counts as a float and
    a bool is no number."""
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
        try:
            return typ(value)
        except OverflowError:
            errors.append(f"{key}: integer beyond the float range")
            return None
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


def from_mapping(flat: dict) -> Plan:
    """The Plan of the config in a flat dotted-key mapping (see `validate`).

    Each value is converted to its key's type (see `_convert`); a `sweep.*`
    string is first split on commas, and each element is converted to the
    key's element type. Unknown keys and values of the wrong type are
    reported together, before the range and invariant checks of `validate`.
    """
    kind = flat.get("kind", "pdf-validation")
    if kind not in KINDS:
        raise _refused([f"kind {kind!r} unknown; choose from {', '.join(KINDS)}"])
    schemas = {"scenario": _KINDS[kind]["keys"], "train": _TRAIN_KEYS,
               "sweep": {axis: _AXES[axis][0] for axis in _KINDS[kind].get("axes", {})}}
    errors: list[str] = []
    top, sections = {}, {section: {} for section in schemas}
    for key, value in flat.items():
        section, dot, sub = key.partition(".")
        schema = schemas.get(section) if dot else None
        if key in _TOP_KEYS:
            top[key] = _convert(value, _TOP_KEYS[key], key, errors)
        elif schema is None:
            errors.append(f"unknown key {key!r}")
        elif sub not in schema:  # the train keys are the same for every kind
            errors.append(f"unknown {section} key {sub!r}"
                          + ("" if section == "train" else f" for kind {kind}"))
        elif section != "sweep":
            sections[section][sub] = _convert(value, schema[sub], key, errors)
        elif isinstance(value, (str, list)):
            if isinstance(value, str):
                value = [part for part in value.split(",") if part.strip()]
            sections[section][sub] = [_convert(v, schema[sub], f"{key}[{i}]", errors)
                                      for i, v in enumerate(value)]
        else:
            errors.append(f"{key}: expected a list, got {value!r}")
    if errors:
        raise _refused(errors)
    return validate(ExperimentConfig(**top, **sections))


def _refused(errors: list[str]) -> ConfigError:
    return ConfigError("config validation failed:\n  " + "\n  ".join(errors))


def _overflows(key: str, value: float) -> bool:
    """True when a _db/_dbm value has no finite linear-scale value."""
    to_linear = dbm_to_watts if key.endswith("_dbm") else db_to_linear
    try:
        return not math.isfinite(to_linear(value))
    except OverflowError:
        return True


def _link_budget_errors(run: Plan) -> list[str]:
    """sigma^2 from the bandwidth and noise figure must be finite and > 0, and
    rho = P_t / sigma^2 finite at the scenario's power and at every point's
    (powers already reported as overflowing are skipped)."""
    scn = run.scenario
    try:
        noise = scn.noise_w
    except (ValueError, OverflowError):
        noise = math.nan
    if not 0.0 < noise < math.inf:
        named = " and ".join(f"scenario.{key} = {getattr(scn, key)!r}"
                             for key in ("bandwidth_hz", "noise_figure_db")
                             if key in _KINDS[run.config.kind]["keys"])
        return [f"noise power sigma^2 from {named} is not finite and > 0"]
    scns = {"scenario.p_t_dbm": scn, **{keys.get("p_t_dbm", "scenario.p_t_dbm"): s
                                        for points in run.points for s, _, keys in points}}
    return [f"{key}: {s.p_t_dbm!r} gives rho = P_t / sigma^2 beyond the float range "
            f"(sigma^2 = {noise!r} W)" for key, s in scns.items()
            if not _overflows("p_t_dbm", s.p_t_dbm) and not math.isfinite(s.rho)]


def _ee_power_errors(run: Plan) -> list[str]:
    """Energy efficiency divides by P_Q, P_element and every point's
    transmit power, so none may be 0 W (only a dBm value far below 0
    underflows, and only one above 0 can overflow)."""
    powers = {f"scenario.{key}": getattr(run.scenario, key)
              for key in ("static_power_dbm", "element_power_dbm")}
    powers.update((keys.get("p_t_dbm", "scenario.p_t_dbm"), scn.p_t_dbm)
                  for points in run.points for scn, _, keys in points)
    return [f"{key}: {p!r} dBm is 0 W; energy efficiency needs a positive power"
            for key, p in powers.items() if p < 0 and dbm_to_watts(p) == 0.0]


# Ceiling on what one multicell chunk (energy.chunk_bytes), pdf-validation's
# samples (montecarlo.run_bytes), one aerial slot's normals or one policy
# network may hold: 1 GiB.
_MEMORY_BUDGET = 1 << 30
_ABOVE_BUDGET = f"above the budget of {_MEMORY_BUDGET / 2**30:g} GiB"


def _chunk_errors(run: Plan) -> list[str]:
    """What the multicell engine would hold per chunk (energy.chunk_bytes,
    at the scenario's n_cells, the run's trials and distinct splits) above
    _MEMORY_BUDGET, named by its key: scenario.n_cells when the cells alone
    exceed it, else every element count a point runs at that does. The size
    is computed, never allocated."""
    from .energy import chunk_bytes
    n_cells, n = run.scenario.n_cells, run.trials
    splits = len({split for sweep in run.sweeps for split in sweep.get("splits", ())})
    cells = chunk_bytes(n_cells, 0, n, splits)
    if cells > _MEMORY_BUDGET:
        return [f"scenario.n_cells: {n_cells} cells need {cells / 2**30:.3g} GiB per "
                f"chunk of draws at any element count, {_ABOVE_BUDGET}"]
    counts = {keys.get("k_values", "scenario.k_elements"): scn.k_elements
              for points in run.points for scn, _, keys in points}
    return [f"{key}: {k} elements need {chunk_bytes(n_cells, k, n, splits) / 2**30:.3g} "
            f"GiB per chunk of draws, {_ABOVE_BUDGET}"
            for key, k in counts.items() if chunk_bytes(n_cells, k, n, splits) > _MEMORY_BUDGET]


def _trial_errors(run: Plan) -> list[str]:
    """What a pdf-validation run would hold at its trials
    (montecarlo.run_bytes: the SINR samples and the KS arrays) above
    _MEMORY_BUDGET, named by `trials`; the sweeps hold no trial-sized
    array. The size is computed, never allocated."""
    from .montecarlo import run_bytes
    size = run_bytes(run.trials)
    if size <= _MEMORY_BUDGET:
        return []
    return [f"trials: {run.trials} trials need {size / 2**30:.3g} GiB of draws and SINR "
            f"samples, {_ABOVE_BUDGET}"]


def _aerial_errors(run: Plan) -> list[str]:
    """The aerial engine's K-sized allocations, each refused above
    _MEMORY_BUDGET: one lockstep slot's normals (aerial.slot_normals, for
    the run's episodes in lockstep), the policy network (moppo.policy_bytes)
    and, for drl-train, one round's raw actions and sampling noise, two
    arrays of E T (K + n_bs) floats. The sizes are computed, never
    allocated."""
    from .aerial import slot_normals
    from .moppo import policy_bytes
    scn, tc, episodes = run.scenario, run.train, run.episodes
    errors = []
    normals = 8 * slot_normals(scn, episodes)
    if normals > _MEMORY_BUDGET:
        errors.append(f"scenario.k_elements: {scn.k_elements} elements need "
                      f"{normals / 2**30:.3g} GiB of normals per slot of {episodes} "
                      f"episodes, {_ABOVE_BUDGET}")
    actions = 2 * 8 * episodes * scn.t_slots * scn.action_dim_continuous
    if run.config.kind == "drl-train" and actions > _MEMORY_BUDGET:
        errors.append(f"scenario.k_elements: {scn.k_elements} elements need "
                      f"{actions / 2**30:.3g} GiB of raw actions and sampling noise per "
                      f"round of {episodes} episodes of {scn.t_slots} slots, {_ABOVE_BUDGET}")
    weights = policy_bytes(scn, tc)
    if weights > _MEMORY_BUDGET:
        errors.append(f"scenario.k_elements = {scn.k_elements}, train.hidden = {tc.hidden} "
                      f"and train.head_hidden = {tc.head_hidden} give a policy network "
                      f"of {weights / 2**30:.3g} GiB, {_ABOVE_BUDGET}")
    return errors


def _fits(run: Plan, errors: list[str]) -> tuple[CoordinatedDistributions, ...]:
    """The closed-form SINR laws fitted at every point of a coordinated run
    in run order: at each beta_t of an exhaustive-star, and at each power
    otherwise (pdf-validation's one, the scenario's). A point whose fit
    fails is named in errors by the config key that sets it."""
    from .analysis import coordinated_distributions
    k, [points] = run.scenario.k_elements, run.points
    # K enters every fit through the cascade moments, up to (K sqrt(beta))^4
    # (stats.cascade_moment), which no power changes: a K at which that
    # leaves the float range is named once, not as every point's fit.
    try:
        (k * math.sqrt(max(b for scn, _, _ in points for b in (scn.beta_t, scn.beta_r)))) ** 4
    except OverflowError:
        errors.append(f"scenario.k_elements: {k} elements overflow the cascade "
                      "moments of the closed-form SINR laws, (K sqrt(beta))^4")
        return ()
    fits = []
    for scn, _, keys in points:
        try:
            fits.append(coordinated_distributions(scn))
        except (ValueError, ArithmeticError) as exc:
            key = next(iter(keys.values()), "scenario.p_t_dbm")
            errors.append(f"{key}: the closed-form SINR laws cannot be fitted at p_t_dbm = "
                          f"{scn.p_t_dbm!r}, beta_t = {scn.beta_t!r}, beta_r = {scn.beta_r!r}: "
                          f"{exc}")
    return tuple(fits)


def validate(cfg: ExperimentConfig) -> Plan:
    """The Plan of cfg's run, the one way a config becomes a run. Integers
    no float holds are refused alone; then come the checks of the top-level
    keys, of each value alone (one walk), and of the training setup's and
    the scenario's invariants, then checks over the plan, each of which sees
    exactly the points the run will take; a coordinated run's laws are
    fitted here, once per point. Raises ConfigError naming every violation
    by its key."""
    # Every value but the seed and the texts, as (config key, schema key,
    # value): an integer no float holds is refused alone, since the checks
    # below do float arithmetic; the seed only seeds the generators, which
    # take any nonnegative integer.
    named = [("trials", "trials", cfg.trials),
             *((f"sweep.{k}[{i}]", k, v) for k, vs in cfg.sweep.items() for i, v in enumerate(vs)),
             *((f"scenario.{k}", k, v) for k, v in cfg.scenario.items()),
             *((f"train.{k}", k, v) for k, v in cfg.train.items())]
    errors = [f"{key}: integer beyond the float range" for key, _, value in named
              if type(value) is int and abs(value) > sys.float_info.max]
    if errors:
        raise _refused(errors)
    # pdf-validation runs a KS test on each SINR sample of `trials` draws.
    least = 1
    if cfg.kind == "pdf-validation":
        from .montecarlo import KS_MIN_SAMPLES as least
    if cfg.trials is not None and "trials" not in _KINDS[cfg.kind]:
        errors.append(f"trials: kind {cfg.kind} draws no Monte Carlo trials, so it reads "
                      "no trials")
    elif cfg.trials is not None and cfg.trials < least:
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
    errors.extend(f"sweep.{key}: needs at least one value"
                  for key, values in cfg.sweep.items() if not values)
    schema = _KINDS[cfg.kind]["keys"]
    drl = schema is _AERIAL_KEYS
    for key, name, value in named:
        if key.startswith("train.") and not drl:
            errors.append(f"{key}: kind {cfg.kind} reads no train keys (only drl-train "
                          "and drl-eval do)")
        elif isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{key}: expected a finite number, got {value!r}")
        elif name == "splits" and not 0.0 <= value <= 1.0:  # no scenario checks a split
            errors.append(f"{key}: expected a number in [0, 1], got {value!r}")
        elif name.endswith(("_db", "_dbm")) and _overflows(name, value):
            errors.append(f"{key}: {value!r} overflows on conversion to linear scale")
    # Build the training setup and the scenario once, surfacing their
    # invariant violations, then build the plan and check it.
    tc = None
    if drl:
        try:
            tc = TrainConfig(**cfg.train)
        except (TypeError, ValueError) as exc:
            errors.append(f"train: {exc}")
    # PPO updates once per full round of episodes_per_update episodes.
    if cfg.kind == "drl-train" and tc is not None and tc.episodes < tc.episodes_per_update:
        errors.append(f"train.episodes = {tc.episodes} is below "
                      f"train.episodes_per_update = {tc.episodes_per_update}, "
                      "so no update round fills and the policy is never trained")
    try:
        scn = _scenario(cfg)
    except (TypeError, ValueError) as exc:  # a scenario lists each problem on a line
        # A field that is not a finite number is named above by its key.
        raise _refused(errors + [line for line in str(exc).splitlines()
                                 if not line.endswith(NOT_FINITE)]) from None
    defaults = _KINDS[cfg.kind]
    trials = defaults.get("trials") if cfg.trials is None else cfg.trials
    episodes = (tc.episodes_per_update if cfg.kind == "drl-train" and tc is not None
                else defaults.get("episodes"))
    run = Plan(cfg, trials, scn, _sweeps(cfg, scn), episodes, tc)
    # A multicell run whose cells alone exceed the chunk budget builds no
    # points: its default J axis lists every J up to I.
    cells = _chunk_errors(run) if schema is _MULTICELL_KEYS else []
    run = run if cells else replace(run, points=_points(run, errors))
    # Only an ee-sweep's power x threshold grid leaves a sweep key unread.
    errors.extend(f"sweep.{key}: not read, since an ee-sweep with sweep.p_t_dbm and "
                  "sweep.r_th_values runs only their grid"
                  for key in sorted(cfg.sweep.keys() - {n for sweep in run.sweeps for n in sweep}))
    errors.extend(_link_budget_errors(run))
    if cfg.kind == "ee-sweep":
        errors.extend(_ee_power_errors(run))
    if schema is _MULTICELL_KEYS:
        errors.extend(cells or _chunk_errors(run))
    if cfg.kind == "pdf-validation":
        errors.extend(_trial_errors(run))
    # The fits need every value above to be usable.
    if schema is _COORDINATED_KEYS and not errors:
        run = replace(run, fits=_fits(run, errors))
    if tc is not None:
        errors.extend(_aerial_errors(run))
    if errors:
        raise _refused(errors)
    return run


def load_config(path) -> Plan:
    """The Plan of a config file; empty files mean all defaults."""
    text = Path(path).read_text()
    return from_mapping(parse_text(text))


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical serialization; loading it back reproduces a validated
    config exactly (floats are written with 17 significant digits)."""
    lines = [f"kind = {cfg.kind}", f"seed = {cfg.seed}"]
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
