import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riscomp import config as config_module
from riscomp import experiments
from riscomp.cli import main
from riscomp.config import (
    KINDS,
    ConfigError,
    dump_config,
    from_mapping,
    load_config,
    parse_text,
)
from riscomp.quadrature import QuadratureError


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.kind == "pdf-validation"
    scn = cfg.coordinated_scenario()
    # Defaults trace the two-cell setup: exponents and allocation factors.
    assert scn.alpha_edge == 3.5
    assert scn.zeta_center == 0.3
    assert scn.kappa_ris_edge_db == 4.0


def test_parse_comments_and_types(tmp_path):
    text = """
# comment line
kind = er-sweep
seed = 7
sweep.p_t_dbm = -10, -5, 0
scenario.k_elements = 16
"""
    cfg = from_mapping(parse_text(text))
    assert cfg.kind == "er-sweep"
    assert cfg.seed == 7
    assert cfg.sweep["p_t_dbm"] == [-10, -5, 0]
    assert cfg.scenario["k_elements"] == 16


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        from_mapping({"kind": "er-sweep", "bogus": 1})
    with pytest.raises(ConfigError, match="unknown scenario key"):
        from_mapping({"kind": "er-sweep", "scenario.bogus": 1})


def test_invariant_violation_named():
    with pytest.raises(ConfigError, match="beta_t \\+ beta_r"):
        from_mapping({
            "kind": "pdf-validation",
            "scenario.beta_t": 0.7,
            "scenario.beta_r": 0.7,
        })


def test_every_violation_listed():
    with pytest.raises(ConfigError) as err:
        from_mapping({
            "kind": "er-sweep",
            "scenario.nope": 1,
            "sweep.never": 2,
        })
    msg = str(err.value)
    assert "nope" in msg and "never" in msg


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("kind = er-sweep\nthis line has no equals\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_text("seed = 1\nseed = 2\n")


def test_dump_load_roundtrip(tmp_path):
    cfg = from_mapping({
        "kind": "ee-sweep",
        "seed": 3,
        "trials": 500,
        "scenario.k_elements": 42,
        "sweep.j_values": [1, 2, 3],
    })
    path = tmp_path / "dump.cfg"
    path.write_text(dump_config(cfg))
    cfg2 = load_config(path)
    assert dump_config(cfg2) == dump_config(cfg)


def test_cli_validate_and_errors(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("kind = ee-sweep\nscenario.k_elements = 8\n")
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "kind = ee-sweep" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = nonsense\n")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_reproduce_unknown_figure(capsys):
    assert main(["reproduce", "fig9.9"]) == 2
    err = capsys.readouterr().err
    assert "fig3.2" in err and "fig4.2" in err  # lists available presets


def test_cli_run_small_experiment(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(
        "kind = pdf-validation\nseed = 2\ntrials = 600\n"
        f"out = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(path)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert any(p.endswith("manifest.cfg") for p in printed)
    assert any(p.endswith("ks_table.csv") for p in printed)


def test_cli_seed_and_out_overrides(tmp_path):
    path = tmp_path / "r.cfg"
    path.write_text("kind = pdf-validation\ntrials = 300\n")
    out = tmp_path / "alt"
    assert main(["run", str(path), "--seed", "9", "--out", str(out)]) == 0
    manifest = (out / "manifest.cfg").read_text()
    assert "seed = 9" in manifest


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RISCOMP_OUTDIR", str(tmp_path / "envout"))
    path = tmp_path / "e.cfg"
    path.write_text("kind = pdf-validation\ntrials = 300\n")
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "envout" / "manifest.cfg").exists()


def test_trials_must_be_positive_for_every_kind():
    for kind in KINDS:
        for trials in (0, -3):
            with pytest.raises(ConfigError, match="trials must be >= 1"):
                from_mapping({"kind": kind, "trials": trials})
    with pytest.raises(ConfigError, match="n_trials must be >= 1"):
        from_mapping({"kind": "osum-sweep", "scenario.n_trials": 0})


def test_cli_trials_zero_override_rejected(tmp_path, capsys):
    assert main(["reproduce", "fig4.3", "--trials", "0", "--out", str(tmp_path)]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_trials_negative_override_rejected(tmp_path, capsys):
    assert main(["reproduce", "fig4.3", "--trials", "-3", "--out", str(tmp_path)]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "outage_sum_rate.csv").exists()


def test_cli_validate_rejects_bad_sweep_elements(tmp_path, capsys):
    path = tmp_path / "j.cfg"
    path.write_text("kind = ee-sweep\nsweep.j_values = a, b\n")
    assert main(["validate", str(path)]) == 2
    assert "sweep.j_values[0]: expected integer" in capsys.readouterr().err
    path.write_text("kind = split-sweep\nsweep.splits = 0.5, 2.5\n")
    assert main(["validate", str(path)]) == 2
    assert "sweep.splits[1]" in capsys.readouterr().err
    # A sweep key the kind does not read is rejected, not ignored.
    path.write_text("kind = er-sweep\nsweep.splits = 0.5\n")
    assert main(["validate", str(path)]) == 2
    assert "unknown sweep key 'splits' for kind er-sweep" in capsys.readouterr().err


_WRONG_TYPE = st.one_of(st.text("abcxyz", min_size=1), st.booleans())
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_ANY_FLOAT = st.floats(allow_nan=False)
_COUNT = st.one_of(_WRONG_TYPE, _ANY_FLOAT)
_FRACTION = st.one_of(_WRONG_TYPE, _NONFINITE, st.floats(max_value=-1e-9),
                      st.floats(min_value=1.0 + 1e-9))
_DBM = st.one_of(_WRONG_TYPE, _NONFINITE)

# (kind, sweep key) -> (a valid element, strategy of invalid elements). The
# defaults give n_cells = 6 and, for exhaustive-star, k_elements = 34.
SWEEP_CASES = {
    ("ee-sweep", "j_values"): (2, st.one_of(_COUNT, st.integers(max_value=0),
                                           st.integers(min_value=7))),
    ("split-sweep", "j_values"): (1, st.one_of(_COUNT, st.integers(max_value=0),
                                              st.integers(min_value=7))),
    ("ee-sweep", "k_values"): (30, st.one_of(_COUNT, st.integers(max_value=-1))),
    ("exhaustive-star", "assignment_values"): (
        17, st.one_of(_COUNT, st.integers(max_value=-1), st.integers(min_value=35))),
    ("split-sweep", "splits"): (0.5, _FRACTION),
    ("exhaustive-star", "beta_t_values"): (0.3, _FRACTION),
    ("ee-sweep", "r_th_values"): (0.5, st.one_of(_DBM, st.floats(max_value=-1e-9))),
    ("ee-sweep", "p_t_dbm"): (0, _DBM),
    ("er-sweep", "p_t_dbm"): (-10, _DBM),
    ("outage-sweep", "p_t_dbm"): (5.5, _DBM),
    ("osum-sweep", "p_t_dbm"): (20, _DBM),
}


@given(case=st.sampled_from(sorted(SWEEP_CASES)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_sweep_elements_rejected(case, data):
    kind, key = case
    valid, invalid = SWEEP_CASES[case]
    from_mapping({"kind": kind, f"sweep.{key}": [valid, valid]})
    pos = data.draw(st.integers(0, 2))
    values = [valid, valid]
    values.insert(pos, data.draw(invalid))
    with pytest.raises(ConfigError, match=rf"sweep\.{key}\[{pos}\]"):
        from_mapping({"kind": kind, f"sweep.{key}": values})


def test_cli_library_error_is_one_line(tmp_path, monkeypatch, capsys):
    def failing(cfg, outdir):
        raise QuadratureError("quadrature did not reach tolerance")

    monkeypatch.setitem(experiments._RUNNERS, "pdf-validation", failing)
    path = tmp_path / "q.cfg"
    path.write_text(f"kind = pdf-validation\nout = {tmp_path / 'out'}\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: quadrature did not reach tolerance"]


def _validate_error_lines(tmp_path, capsys, text):
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error:")], path


def test_cli_validate_rejects_drl_eval_without_checkpoint(tmp_path, capsys):
    errors, path = _validate_error_lines(
        tmp_path, capsys, "kind = drl-eval\nscenario.tiny = true\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match="requires checkpoint"):
        load_config(path)


def test_cli_validate_rejects_zero_amplifier_efficiency(tmp_path, capsys):
    errors, path = _validate_error_lines(
        tmp_path, capsys, "kind = ee-sweep\nscenario.amp_efficiency = 0\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match="amplifier efficiency"):
        load_config(path)


def test_cli_validate_rejects_infinite_kappa(tmp_path, capsys):
    errors, path = _validate_error_lines(
        tmp_path, capsys, "kind = ee-sweep\nscenario.kappa_db = inf\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=r"scenario\.kappa_db: expected a finite number"):
        load_config(path)


def test_cli_validate_rejects_nan_power(tmp_path, capsys):
    errors, path = _validate_error_lines(
        tmp_path, capsys, "kind = osum-sweep\nscenario.p_t_dbm = nan\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=r"scenario\.p_t_dbm: expected a finite number"):
        load_config(path)


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind in ("pdf-validation", "ee-sweep", "drl-train")
     for key, typ in config_module._SCENARIO_KEYS_BY_KIND[kind].items() if typ is float],
)
def test_nonfinite_scenario_floats_rejected(kind, key):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=rf"scenario\.{key}: expected a finite"):
            from_mapping({"kind": kind, f"scenario.{key}": value})


def test_cli_validate_rejects_train_clip_out_of_range(tmp_path, capsys):
    errors, path = _validate_error_lines(
        tmp_path, capsys, "kind = drl-train\nscenario.tiny = true\ntrain.clip_eps = 5\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=r"clip epsilon must lie in \(0, 1\)"):
        load_config(path)


def test_cli_validate_rejects_nan_learning_rate(tmp_path, capsys):
    errors, path = _validate_error_lines(
        tmp_path, capsys, "kind = drl-train\nscenario.tiny = true\ntrain.learning_rate = nan\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=r"train\.learning_rate: expected a finite number"):
        load_config(path)


@pytest.mark.parametrize("text, key", [
    # One case per scenario family; each ran into an OverflowError naming no
    # key at run time.
    ("kind = pdf-validation\nscenario.p_t_dbm = 1e6\n", r"scenario\.p_t_dbm"),
    ("kind = osum-sweep\nscenario.kappa_db = 1e5\n", r"scenario\.kappa_db"),
    ("kind = drl-train\nscenario.tiny = true\nscenario.p_t_dbm = 1e6\n",
     r"scenario\.p_t_dbm"),
    ("kind = er-sweep\nsweep.p_t_dbm = 0, 1e6\n", r"sweep\.p_t_dbm\[1\]"),
])
def test_cli_validate_rejects_db_overflow(tmp_path, capsys, text, key):
    errors, path = _validate_error_lines(tmp_path, capsys, text)
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=key + r": 1000\d+\.0 overflows"):
        load_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ("pdf-validation", "ee-sweep", "drl-train"))
def test_every_db_scenario_key_checked_for_overflow(kind):
    keys = [key for key, typ in config_module._SCENARIO_KEYS_BY_KIND[kind].items()
            if typ is float and key.endswith(("_db", "_dbm"))]
    assert keys
    for key in keys:
        with pytest.raises(ConfigError, match=rf"scenario\.{key}: .* overflows"):
            from_mapping({"kind": kind, f"scenario.{key}": 4000.0})
        from_mapping({"kind": kind, f"scenario.{key}": -4000.0})  # underflow to 0 is finite


@pytest.mark.parametrize("kind", ["drl-train", "drl-eval"])
@pytest.mark.parametrize(
    "key", [key for key, typ in config_module._TRAIN_KEYS.items() if typ is float])
def test_nonfinite_train_floats_rejected(kind, key):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=rf"train\.{key}: expected a finite"):
            from_mapping({"kind": kind, "checkpoint": "p.bin", f"train.{key}": value})


_DB = st.floats(-200.0, 200.0)
_OPEN_HALF_TO_ONE = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
# Valid values of the constrained scenario keys; a _db/_dbm key takes _DB, a
# bool key either value, any other key a positive number.
_SCENARIO_VALUES = {
    "amp_efficiency": st.floats(0.0, 1.0, exclude_min=True),
    "default_alloc": _OPEN_HALF_TO_ONE,
    "uav_start_x": st.floats(-50.0, 50.0),  # inside the tiny scenario's area
    "uav_start_y": st.floats(-50.0, 50.0),
    "n_trials": st.integers(1, 10**6),
    "t_slots": st.integers(1, 500),
    "k_elements": st.integers(0, 300),
}


def _one_minus(key, partner, lo, hi):
    """key drawn in [lo, hi] with partner = 1 - key, as the sum checks need."""
    return st.floats(lo, hi).map(lambda v: {key: v, partner: 1.0 - v})


def _scenario_draws(kind):
    """Strategies of valid scenario entries for kind, each a dict of keys."""
    schema = config_module._SCENARIO_KEYS_BY_KIND[kind]
    if schema is config_module._COORDINATED_KEYS:
        draws = [_one_minus("zeta_center", "zeta_edge", 1e-6, 0.5 - 1e-6),
                 _one_minus("beta_t", "beta_r", 0.0, 1.0)]
    elif "zeta_edge" in schema:
        draws = [_OPEN_HALF_TO_ONE.map(lambda v: {"zeta_edge": v})]
    else:
        draws = []
    fixed = {"zeta_center", "zeta_edge", "beta_t", "beta_r",
             "assignment_1", "assignment_2", "n_cells", "n_coop"}
    for key, typ in schema.items():
        if key in fixed:
            continue
        if key in _SCENARIO_VALUES:
            values = _SCENARIO_VALUES[key]
        elif typ is bool:
            values = st.booleans()
        elif key.endswith(("_db", "_dbm")):
            values = _DB
        else:
            values = st.floats(1e-6, 1e6)
        draws.append(values.map(lambda v, key=key: {key: v}))
    return draws


_TRAIN_DRAWS = {
    "learning_rate": st.floats(1e-8, 1.0),
    "clip_eps": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "gamma": st.floats(0.0, 1.0, exclude_min=True),
    "episodes": st.integers(1, 1000),
    "epochs": st.integers(1, 100),
    "batch": st.integers(1, 512),
    "rollout": st.integers(1, 512),
    "hidden": st.integers(1, 256),
    "head_hidden": st.integers(1, 256),
    "value_coef": st.floats(0.0, 10.0),
    "entropy_coef": st.floats(0.0, 10.0),
    "episodes_per_update": st.integers(1, 10),
    "kl_stop": st.floats(0.0, 1.0),
    "entropy_decay": st.booleans(),
}


def _sweep_draws(kind, flat):
    k = flat.get("scenario.k_elements", 34)
    elements = {
        "p_t_dbm": st.one_of(_DB, st.integers(-200, 200)),
        "r_th_values": st.floats(0.0, 1e3),
        "splits": st.floats(0.0, 1.0),
        "beta_t_values": st.floats(0.0, 1.0),
        "j_values": st.integers(1, 6),
        "k_values": st.integers(0, 500),
        "assignment_values": st.integers(0, k),
    }
    return {key: st.lists(elements[key], min_size=1, max_size=4)
            for key in config_module._SWEEP_KEYS_BY_KIND.get(kind, ())}


@given(kind=st.sampled_from(config_module.KINDS), data=st.data())
@settings(max_examples=300, deadline=None)
def test_dump_parse_roundtrip_property(kind, data):
    flat = {"kind": kind, "seed": data.draw(st.integers(0, 2**63)), "out": "runs/x"}
    if data.draw(st.booleans()):
        flat["trials"] = data.draw(st.integers(1, 10**9))
    if kind == "drl-eval":
        flat["checkpoint"] = "runs/train/policy.bin"
    for entry in _scenario_draws(kind):
        if data.draw(st.booleans()):
            flat.update({f"scenario.{k}": v for k, v in data.draw(entry).items()})
    for key, strat in _sweep_draws(kind, flat).items():
        if data.draw(st.booleans()):
            flat[f"sweep.{key}"] = data.draw(strat)
    if kind in ("drl-train", "drl-eval"):
        for key, strat in _TRAIN_DRAWS.items():
            if data.draw(st.booleans()):
                flat[f"train.{key}"] = data.draw(strat)
    text = dump_config(from_mapping(flat))
    assert dump_config(from_mapping(parse_text(text))) == text
