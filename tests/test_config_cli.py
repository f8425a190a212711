import math
import re

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
from riscomp.montecarlo import KS_MIN_SAMPLES
from riscomp.moppo import TrainConfig
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
    with pytest.raises(ConfigError, match="unknown scenario key 'n_trials' for kind osum-sweep"):
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
    def failing(cfg):
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


@pytest.mark.parametrize("line, message", [
    ("train.clip_eps = 5", r"clip epsilon must lie in \(0, 1\)"),
    # A network without units ignores its input; a step of 0 or less never
    # moves the weights or moves them uphill.
    ("train.hidden = 0", "counts must be >= 1"),
    ("train.head_hidden = 0", "counts must be >= 1"),
    ("train.learning_rate = 0", "learning rate must be > 0"),
    ("train.learning_rate = -1e-3", "learning rate must be > 0"),
], ids=["clip_eps", "hidden", "head_hidden", "learning_rate-0", "learning_rate-negative"])
def test_cli_validate_rejects_train_out_of_range(tmp_path, capsys, line, message):
    errors, path = _validate_error_lines(
        tmp_path, capsys, f"kind = drl-train\nscenario.tiny = true\n{line}\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=rf"train: {message}"):
        load_config(path)


def test_cli_validate_rejects_training_that_never_updates(tmp_path, capsys):
    # PPO updates once per full round of episodes_per_update episodes, so
    # fewer episodes than that train nothing.
    text = ("kind = drl-train\nscenario.tiny = true\ntrain.episodes = 5\n"
            "train.episodes_per_update = 6\n")
    errors, path = _validate_error_lines(tmp_path, capsys, text)
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=r"train\.episodes = 5 is below "
                                          r"train\.episodes_per_update = 6"):
        load_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    # drl-eval trains nothing, so the same train keys are fine there.
    from_mapping({"kind": "drl-eval", "checkpoint": "p.bin", "scenario.tiny": True,
                  "train.episodes": 5, "train.episodes_per_update": 6})


def test_cli_validate_rejects_nan_learning_rate(tmp_path, capsys):
    errors, path = _validate_error_lines(
        tmp_path, capsys, "kind = drl-train\nscenario.tiny = true\ntrain.learning_rate = nan\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=r"train\.learning_rate: expected a finite number"):
        load_config(path)


@pytest.mark.parametrize("kind", [k for k in KINDS if k not in ("drl-train", "drl-eval")])
def test_train_keys_rejected_on_non_drl_kinds(kind, tmp_path, capsys):
    # Only drl-train and drl-eval read train keys; elsewhere they would be
    # unchecked and still written into the manifest.
    with pytest.raises(ConfigError) as err:
        from_mapping({"kind": kind, "train.hidden": 0, "train.gamma": math.nan})
    for key in ("hidden", "gamma"):
        assert f"train.{key}: kind {kind} reads no train keys" in str(err.value)
    cfg = from_mapping({"kind": kind})
    cfg.train["episodes"] = 10
    with pytest.raises(ConfigError, match=r"train\.episodes: kind .* reads no train keys"):
        config_module.validate(cfg)
    path = tmp_path / "c.cfg"
    path.write_text(f"kind = {kind}\ntrain.epochs = 4\n")
    assert main(["validate", str(path)]) == 2
    assert f"train.epochs: kind {kind} reads no train keys" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind", ("osum-sweep", "ee-sweep", "drl-train"))
def test_cli_validate_rejects_negative_k_elements(tmp_path, capsys, kind):
    # Each used to validate and then fail at run time naming no key.
    tiny = "scenario.tiny = true\n" if kind == "drl-train" else ""
    errors, path = _validate_error_lines(
        tmp_path, capsys, f"kind = {kind}\n{tiny}scenario.k_elements = -1\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match="k_elements must be >= 0"):
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
        if key == "noise_figure_db":  # sigma^2 underflows to 0: no finite rho
            with pytest.raises(ConfigError, match=r"noise power .* is not finite and > 0"):
                from_mapping({"kind": kind, f"scenario.{key}": -4000.0})
        elif kind == "ee-sweep" and key in ("p_t_dbm", "static_power_dbm", "element_power_dbm"):
            # Finite, but energy efficiency divides by the 0 W it underflows to.
            with pytest.raises(ConfigError, match=rf"scenario\.{key}: -4000\.0 dBm is 0 W"):
                from_mapping({"kind": kind, f"scenario.{key}": -4000.0})
        elif kind == "pdf-validation" and key in ("p_t_dbm", "rho_o_db"):
            # Finite, but no received power leaves no SINR law to fit.
            with pytest.raises(ConfigError, match=r"scenario\.p_t_dbm: the closed-form "
                                                  r"SINR laws cannot be fitted"):
                from_mapping({"kind": kind, f"scenario.{key}": -4000.0})
        else:
            from_mapping({"kind": kind, f"scenario.{key}": -4000.0})  # underflow to 0 is finite


@pytest.mark.parametrize("text, message", [
    ("kind = er-sweep\ntrials = 200\nsweep.p_t_dbm = 0, 3000\n",
     r"sweep\.p_t_dbm\[1\]: 3000\.0 gives rho = P_t / sigma\^2 beyond the float range"),
    ("kind = pdf-validation\ntrials = 200\nscenario.p_t_dbm = 3000\n",
     r"scenario\.p_t_dbm: 3000\.0 gives rho = P_t / sigma\^2 beyond the float range"),
    ("kind = pdf-validation\ntrials = 200\nscenario.bandwidth_hz = 0\n",
     r"noise power sigma\^2 from scenario\.bandwidth_hz = 0\.0 and "
     r"scenario\.noise_figure_db = 12\.0 is not finite and > 0"),
])
def test_cli_validate_rejects_uncomputable_link_budget(tmp_path, capsys, text, message):
    errors, path = _validate_error_lines(tmp_path, capsys, text)
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, key", [
    ("kind = er-sweep\nsweep.p_t_dbm = -10, -80\n", r"sweep\.p_t_dbm\[1\]"),
    ("kind = outage-sweep\nsweep.p_t_dbm = -80\n", r"sweep\.p_t_dbm\[0\]"),
    ("kind = pdf-validation\nscenario.p_t_dbm = -80\n", r"scenario\.p_t_dbm"),
    ("kind = exhaustive-star\nscenario.p_t_dbm = -80\nsweep.beta_t_values = 0.5\n",
     r"sweep\.beta_t_values\[0\]"),
], ids=["er-sweep", "outage-sweep", "pdf-validation", "exhaustive-star"])
def test_cli_validate_rejects_degenerate_moment_fits(tmp_path, capsys, text, key):
    # Each used to validate and then fail at run time naming no key.
    errors, path = _validate_error_lines(tmp_path, capsys, text)
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=key + r": the closed-form SINR laws cannot be "
                                          r"fitted at p_t_dbm = -80\.0, .*degenerate moments"):
        load_config(path)
    assert main(["run", str(path), "--trials", "100", "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_validate_fits_the_default_sweep():
    # With no sweep.p_t_dbm the runner sweeps its default powers, and each
    # is fitted; at rho_o = -200 dB every one of the seven degenerates.
    with pytest.raises(ConfigError) as info:
        from_mapping({"kind": "er-sweep", "scenario.rho_o_db": -200.0})
    lines = str(info.value).splitlines()[1:]
    assert [line.split(":")[0].strip() for line in lines] == [
        f"sweep.p_t_dbm[{i}]" for i in range(7)]


_BEYOND_FLOAT = "1" + "0" * 400  # 10**400: no float holds it


@pytest.mark.parametrize("text, key", [
    (f"kind = ee-sweep\nsweep.k_values = {_BEYOND_FLOAT}\n", r"sweep\.k_values\[0\]"),
    (f"kind = pdf-validation\nscenario.k_elements = {_BEYOND_FLOAT}\n",
     r"scenario\.k_elements"),
], ids=["ee-sweep", "pdf-validation"])
def test_cli_validate_rejects_integers_beyond_float_range(tmp_path, capsys, text, key):
    errors, path = _validate_error_lines(tmp_path, capsys, text)
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=key + ": integer beyond the float range"):
        load_config(path)
    if "pdf-validation" in text:  # an ee-sweep at such a K would allocate without bound
        assert main(["run", str(path), "--trials", "200", "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, key", [
    ("scenario.element_power_dbm = -4000\n", r"scenario\.element_power_dbm: -4000\.0"),
    ("scenario.static_power_dbm = -4000\n", r"scenario\.static_power_dbm: -4000\.0"),
    ("scenario.p_t_dbm = -4000\nsweep.k_values = 4\n", r"scenario\.p_t_dbm: -4000\.0"),
    ("sweep.p_t_dbm = 0, -4000\n", r"sweep\.p_t_dbm\[1\]: -4000\.0"),
], ids=["element", "static", "p_t", "sweep-p_t"])
def test_cli_validate_rejects_zero_watt_ee_powers(tmp_path, capsys, text, key):
    # Energy efficiency divides by these powers; -4000 dBm underflows to 0 W.
    errors, path = _validate_error_lines(tmp_path, capsys, "kind = ee-sweep\n" + text)
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=key + " dBm is 0 W"):
        load_config(path)
    assert main(["run", str(path), "--trials", "10", "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_ee_power_of_an_unused_scenario_p_t_not_checked():
    # With sweep.p_t_dbm as the only axis no point uses scenario.p_t_dbm.
    from_mapping({"kind": "ee-sweep", "scenario.p_t_dbm": -4000.0, "sweep.p_t_dbm": [0.0]})


def test_cli_validate_rejects_pdf_validation_below_ks_minimum(tmp_path, capsys):
    errors, path = _validate_error_lines(
        tmp_path, capsys, "kind = pdf-validation\ntrials = 10\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError, match=r"trials must be >= 100, got 10"):
        load_config(path)


def test_cli_reproduce_rejects_trials_below_ks_minimum(tmp_path, capsys):
    assert main(["reproduce", "fig3.2", "--trials", "50", "--out", str(tmp_path / "out")]) == 2
    assert "trials must be >= 100, got 50" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    "t_slots": st.integers(1, 500),
    "k_elements": st.integers(0, 300),
    **dict.fromkeys(("m_direct", "m_bs_ris", "m_ris_user"), st.floats(0.5, 1e6)),  # Nakagami
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
            for key, (_, kinds) in config_module._SWEEP_KEYS.items() if kind in kinds}


def _manifest_safe(text):
    """dump_config writes text on one line after "key = ", so it loads back
    only without surrounding whitespace or a line break."""
    return text == text.strip() and len(text.splitlines()) <= 1


@given(kind=st.sampled_from(config_module.KINDS), data=st.data())
@settings(max_examples=300, deadline=None)
def test_dump_parse_roundtrip_property(kind, data):
    flat = {"kind": kind, "seed": data.draw(st.integers(0, 2**63)), "out": data.draw(st.text())}
    if data.draw(st.booleans()):
        least = KS_MIN_SAMPLES if kind == "pdf-validation" else 1
        flat["trials"] = data.draw(st.integers(least, 10**9))
    if kind == "drl-eval" or data.draw(st.booleans()):
        flat["checkpoint"] = data.draw(st.text(min_size=kind == "drl-eval"))
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
    unsafe = [key for key in ("out", "checkpoint") if not _manifest_safe(flat.get(key, ""))]
    if unsafe:
        with pytest.raises(ConfigError, match=rf"\n  {unsafe[0]}: .* surrounding whitespace"):
            from_mapping(flat)
        return
    if kind == "drl-train" and (flat.get("train.episodes", TrainConfig.episodes)
                                < flat.get("train.episodes_per_update",
                                           TrainConfig.episodes_per_update)):
        with pytest.raises(ConfigError, match=r"\n  train\.episodes = \d+ is below "
                                              r"train\.episodes_per_update"):
            from_mapping(flat)
        return
    try:
        cfg = from_mapping(flat)
    except ConfigError as exc:
        # At extreme powers and shapes the coordinated moment fits degenerate;
        # validate rejects each such point, and nothing else may be rejected.
        assert all(": the closed-form SINR laws cannot be fitted at " in line
                   for line in str(exc).splitlines()[1:]), exc
        return
    text = dump_config(cfg)
    loaded = from_mapping(parse_text(text))
    assert loaded == cfg
    assert dump_config(loaded) == text


@pytest.mark.parametrize("line, key, value", [
    ("out = 1.50", "out", "1.50"),
    ("out = a,b", "out", "a,b"),
    ("out = true", "out", "true"),
    ("out = Infinity", "out", "Infinity"),
    ("out = runs/a,b", "out", "runs/a,b"),
    ("checkpoint = 007", "checkpoint", "007"),
])
def test_string_values_kept_verbatim(line, key, value):
    # Each of these used to be typed by a guess before the key was known.
    lines = ["kind = drl-eval", "scenario.tiny = true", line]
    if key != "checkpoint":
        lines.append("checkpoint = p.bin")
    cfg = from_mapping(parse_text("\n".join(lines)))
    assert getattr(cfg, key) == value
    dumped = dump_config(cfg)
    assert f"\n{line}\n" in dumped
    assert from_mapping(parse_text(dumped)) == cfg


@pytest.mark.parametrize("key, value", [
    # Text is parsed by the key's type.
    ("seed", "1.0"), ("scenario.k_elements", "4.5"), ("scenario.oma", "1"),
    ("scenario.p_t_dbm", "true"), ("train.episodes", "1e3"),
    # Any other value must have the type already: a bool is never a number,
    # a float never an int, and a str key takes only text.
    ("scenario.p_t_dbm", True), ("scenario.k_elements", 34.0), ("seed", False),
    ("out", 5), ("sweep.p_t_dbm", 0.5),
])
def test_value_of_other_type_rejected(key, value):
    flat = ({"kind": "er-sweep"} if key.startswith("sweep.")
            else {"kind": "drl-train", "scenario.tiny": True})
    with pytest.raises(ConfigError, match=rf"failed:\n  {re.escape(key)}: expected [^\n]*$"):
        from_mapping({**flat, key: value})


def test_negative_zero_keeps_its_sign():
    cfg = from_mapping(parse_text("kind = er-sweep\nscenario.p_t_dbm = -0\n"))
    assert math.copysign(1.0, cfg.scenario["p_t_dbm"]) == -1.0
    reloaded = from_mapping(parse_text(dump_config(cfg)))
    assert math.copysign(1.0, reloaded.scenario["p_t_dbm"]) == -1.0


def test_cli_validate_prints_sweep_as_floats(tmp_path, capsys):
    path = tmp_path / "p.cfg"
    path.write_text("kind = er-sweep\nsweep.p_t_dbm = -10, -5.5, 0\n")
    assert main(["validate", str(path)]) == 0
    assert "\nsweep.p_t_dbm = -10, -5.5, 0\n" in capsys.readouterr().out
    assert load_config(path).sweep["p_t_dbm"] == [-10.0, -5.5, 0.0]
    assert {type(v) for v in load_config(path).sweep["p_t_dbm"]} == {float}


@pytest.mark.parametrize("out", [" runs", "runs ", "a\nb", "runs\r"])
def test_cli_run_rejects_out_the_manifest_cannot_record(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text("kind = pdf-validation\ntrials = 200\n")
    assert main(["run", "c.cfg", "--out", out]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]
    with pytest.raises(ConfigError, match=rf"\n  out: {re.escape(repr(out))} has surrounding"):
        from_mapping({"kind": "pdf-validation", "out": out})


def test_checkpoint_the_manifest_cannot_record_rejected():
    with pytest.raises(ConfigError, match=r"\n  checkpoint: 'p\.bin ' has surrounding"):
        from_mapping({"kind": "drl-eval", "scenario.tiny": True, "checkpoint": "p.bin "})


@pytest.mark.parametrize("name", sorted(experiments.PRESETS))
def test_preset_dump_roundtrips_with_schema_types(name):
    cfg = from_mapping(dict(experiments.PRESETS[name]))
    text = dump_config(cfg)
    loaded = from_mapping(parse_text(text))
    assert dump_config(loaded) == text
    scenario_schema = config_module._SCENARIO_KEYS_BY_KIND[cfg.kind]
    for c in (cfg, loaded):
        assert (type(c.seed), type(c.out)) == (int, str)
        assert c.trials is None or type(c.trials) is int
        for key, value in c.scenario.items():
            assert type(value) is scenario_schema[key], key
        for key, values in c.sweep.items():
            assert all(type(v) is config_module._SWEEP_KEYS[key][0] for v in values), key
        for key, value in c.train.items():
            assert type(value) is config_module._TRAIN_KEYS[key], key
