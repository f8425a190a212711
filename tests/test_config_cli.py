import dataclasses
import math
import re
import tracemalloc
import warnings

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
from riscomp.montecarlo import KS_MIN_SAMPLES, run_bytes
from riscomp.config import TrainConfig
from riscomp.quadrature import QuadratureError
from riscomp.scenarios import (
    AerialScenario,
    CoordinatedScenario,
    MultiCellScenario,
    tiny_aerial_scenario,
)


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    run = load_config(path)
    assert run.config.kind == "pdf-validation"
    scn = run.scenario
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
    cfg = from_mapping(parse_text(text)).config
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
    }).config
    path = tmp_path / "dump.cfg"
    path.write_text(dump_config(cfg))
    cfg2 = load_config(path).config
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


_NO_TRIALS = ("exhaustive-star", "drl-train", "drl-eval")  # the kinds that draw no trials


def test_trials_must_be_positive_for_every_kind():
    # A kind that draws no trials refuses the key by name, whatever its value.
    for kind in KINDS:
        for trials in (0, -3, 5):
            if kind in _NO_TRIALS:
                message = (rf"\n  trials: kind {kind} draws no Monte Carlo trials, so it "
                           "reads no trials$")
            elif trials < 1:
                message = "trials must be >= 1"
            else:
                continue
            with pytest.raises(ConfigError, match=message):
                from_mapping({"kind": kind, "trials": trials, "checkpoint": "p.bin"})
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


@pytest.mark.parametrize("text, lines", [
    ("kind = ee-sweep\nsweep.j_values = 0, 7\nsweep.k_values = -1\n", [
        "sweep.j_values[0]: cooperative set must satisfy 1 <= J <= I",
        "sweep.j_values[1]: cooperative set must satisfy 1 <= J <= I",
        "sweep.k_values[0]: k_elements must be >= 0"]),
    ("kind = exhaustive-star\nsweep.beta_t_values = 1.5\nsweep.assignment_values = 40\n", [
        "sweep.beta_t_values[0]: beta_t = 1.5, beta_r = -0.5: each must lie in [0, 1]",
        "sweep.assignment_values[0]: assignment entries must be >= 0 and sum to k_elements"]),
    ("kind = ee-sweep\nsweep.r_th_values = 0.5, -1\n", [
        "sweep.r_th_values[1]: r_center_min must be >= 0",
        "sweep.r_th_values[1]: r_edge_min must be >= 0"]),
], ids=["ee-sweep", "exhaustive-star", "ee-sweep-r_th"])
def test_sweep_values_refused_by_the_scenario_at_their_point(tmp_path, capsys, text, lines):
    # A sweep value that sets a scenario field is checked by the scenario
    # built at its point, and each problem is named under the value's key.
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert err.splitlines() == ["error: config validation failed:", *(f"  {ln}" for ln in lines)]


def test_a_grid_names_each_refused_value_once():
    # The grid builds each threshold at every power, and meets a refused
    # threshold once per power; it is named once.
    with pytest.raises(ConfigError) as info:
        from_mapping({"kind": "ee-sweep", "sweep.p_t_dbm": [0.0, 5.0],
                      "sweep.r_th_values": [0.5, -1.0]})
    assert str(info.value).splitlines()[1:] == [
        "  sweep.r_th_values[1]: r_center_min must be >= 0",
        "  sweep.r_th_values[1]: r_edge_min must be >= 0"]


@pytest.mark.parametrize("kind", ["er-sweep", "osum-sweep"])
def test_a_swept_power_that_converts_but_overflows_rho_is_refused(kind):
    # 3100 dBm is 1.3e307 W, a finite power, but rho = P_t / sigma^2 is not.
    with pytest.raises(ConfigError, match=r"sweep\.p_t_dbm\[1\]: 3100\.0 gives rho = P_t / "
                                          r"sigma\^2 beyond the float range"):
        from_mapping({"kind": kind, "sweep.p_t_dbm": [0.0, 3100.0]})


@pytest.mark.parametrize("kind", ["ee-sweep", "osum-sweep", "split-sweep", "drl-train"])
@pytest.mark.parametrize("key", ["r_center_min", "r_edge_min"])
def test_negative_rate_target_refused(kind, key):
    # A negative rate target puts its SINR threshold below every SINR, so no
    # trial would ever be in outage; the scenario refuses it by name, as it
    # refuses a negative sweep.r_th_values element.
    from_mapping({"kind": kind, f"scenario.{key}": 0.0})
    with pytest.raises(ConfigError) as exc:
        from_mapping({"kind": kind, f"scenario.{key}": -1.0})
    assert str(exc.value) == f"config validation failed:\n  {key} must be >= 0"


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
     for key, typ in config_module._KINDS[kind]["keys"].items() if typ is float],
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
    cfg = config_module.ExperimentConfig(kind=kind, train={"episodes": 10})
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


@pytest.mark.parametrize("kind", ("osum-sweep", "ee-sweep", "drl-train", "pdf-validation"))
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
    keys = [key for key, typ in config_module._KINDS[kind]["keys"].items()
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


@pytest.mark.parametrize("kind", ("er-sweep", "pdf-validation", "exhaustive-star"))
@pytest.mark.parametrize("key", ("m_direct", "m_bs_ris", "m_ris_user"))
def test_cli_validate_names_a_bad_nakagami_shape_once(tmp_path, capsys, kind, key):
    # The scenario refuses the shape itself, so no point's fit is blamed.
    _, path = _validate_error_lines(tmp_path, capsys, f"kind = {kind}\nscenario.{key} = 0.2\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).splitlines()[1:] == [f"  {key} = 0.2: Nakagami shape must be >= 0.5"]


_HUGE_K = 10**11


@pytest.mark.parametrize("text, key", [
    ("kind = ee-sweep\nscenario.k_elements = {k}\n", "scenario.k_elements"),
    ("kind = osum-sweep\nscenario.k_elements = {k}\n", "scenario.k_elements"),
    ("kind = split-sweep\nscenario.k_elements = {k}\n", "scenario.k_elements"),
    ("kind = ee-sweep\nsweep.k_values = 30, {k}\n", r"sweep\.k_values\[1\]"),
    ("kind = ee-sweep\nscenario.k_elements = {k}\nsweep.j_values = 1\nsweep.k_values = 30\n",
     "scenario.k_elements"),
], ids=["ee", "osum", "split", "ee-k_values", "ee-j-and-k"])
def test_cli_validate_bounds_the_multicell_chunk(tmp_path, capsys, text, key):
    # Only the size is computed: 10^11 elements would need about 19 TB of
    # normals for even one trial.
    _, path = _validate_error_lines(tmp_path, capsys, "trials = 1\n" + text.format(k=_HUGE_K))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    [line] = str(info.value).splitlines()[1:]
    assert re.fullmatch(rf"  {key}: {_HUGE_K} elements need \S+ GiB per chunk of draws, "
                        r"above the budget of 1 GiB", line)


@pytest.mark.parametrize("kind", ["pdf-validation", "er-sweep", "outage-sweep"])
def test_cli_validate_bounds_the_coordinated_trials(tmp_path, capsys, kind):
    if kind != "pdf-validation":
        # The sweeps hold one chunk of draws at a time, whatever n is.
        path = tmp_path / "c.cfg"
        path.write_text(f"kind = {kind}\ntrials = 1000000000\n")
        assert main(["validate", str(path)]) == 0
        assert "\ntrials = 1000000000\n" in capsys.readouterr().out
        return
    # Only the size is computed: at 10^9 trials the samples alone would be 80 GB.
    _, path = _validate_error_lines(tmp_path, capsys, f"kind = {kind}\ntrials = 1000000000\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    [line] = str(info.value).splitlines()[1:]
    assert re.fullmatch(r"  trials: 1000000000 trials need \S+ GiB of draws and SINR "
                        r"samples, above the budget of 1 GiB", line)
    # The refusal starts at the first trial count run_bytes puts above it.
    per_trial = run_bytes(1) - run_bytes(0)
    most = (config_module._MEMORY_BUDGET - run_bytes(0)) // per_trial
    from_mapping({"kind": kind, "trials": most})
    with pytest.raises(ConfigError, match="trials: "):
        from_mapping({"kind": kind, "trials": most + 1})


def test_cli_validate_names_the_cell_count(tmp_path, capsys):
    # 2000 cells' center gains alone need 244 GiB of normals per chunk of
    # 4096 trials, so no element count is to blame.
    _, path = _validate_error_lines(tmp_path, capsys, "kind = ee-sweep\ntrials = 4096\n"
                                    "scenario.n_cells = 2000\nscenario.k_elements = 1\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    [line] = str(info.value).splitlines()[1:]
    assert re.fullmatch(r"  scenario\.n_cells: 2000 cells need \S+ GiB per chunk of draws at "
                        r"any element count, above the budget of 1 GiB", line)


def test_unused_element_counts_are_not_bounded():
    # A K sweep alone replaces the scenario's K, which then draws nothing,
    # and the power x threshold grid reads no sweep.k_values: that key is
    # refused as unread, not as too large.
    from_mapping({"kind": "ee-sweep", "trials": 1, "scenario.k_elements": _HUGE_K,
                  "sweep.k_values": [30]})
    with pytest.raises(ConfigError) as info:
        from_mapping({"kind": "ee-sweep", "trials": 1, "sweep.k_values": [_HUGE_K],
                      "sweep.p_t_dbm": [0.0], "sweep.r_th_values": [1.0]})
    [line] = str(info.value).splitlines()[1:]
    assert line.startswith("  sweep.k_values: not read")


@pytest.mark.parametrize("extra, keys", [
    ("sweep.k_values = 3, 5\n", ["k_values"]),
    ("sweep.j_values = 1, 2\n", ["j_values"]),
    ("sweep.k_values = 3, 5\nsweep.j_values = 1, 2\n", ["j_values", "k_values"]),
], ids=["k", "j", "j-and-k"])
def test_cli_validate_refuses_axes_the_ee_grid_ignores(tmp_path, capsys, extra, keys):
    # With both grid axes set, the ee-sweep runner writes ee_grid.csv alone.
    text = "kind = ee-sweep\ntrials = 4\nsweep.p_t_dbm = 0\nsweep.r_th_values = 1\n" + extra
    errors, path = _validate_error_lines(tmp_path, capsys, text)
    assert len(errors) == 1
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).splitlines()[1:] == [
        f"  sweep.{key}: not read, since an ee-sweep with sweep.p_t_dbm and "
        "sweep.r_th_values runs only their grid" for key in keys]
    from_mapping(experiments.PRESETS["fig4.5"])  # the grid alone still validates


@pytest.mark.parametrize("text, episodes", [
    ("kind = drl-train\nscenario.k_elements = {k}\n", 1),
    ("kind = drl-train\nscenario.tiny = true\nscenario.k_elements = {k}\n"
     "train.episodes = 6\ntrain.episodes_per_update = 6\n", 6),
    ("kind = drl-eval\ncheckpoint = policy.bin\nscenario.k_elements = {k}\n", 10),
], ids=["train", "train-tiny-e6", "eval"])
def test_cli_validate_bounds_the_aerial_engine(tmp_path, capsys, text, episodes):
    # Only the sizes are computed: at 10^11 elements one slot's normals and
    # the policy would need thousands of GiB; validate allocates under 1 MB.
    tracemalloc.start()
    try:
        _, path = _validate_error_lines(tmp_path, capsys, text.format(k=_HUGE_K))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ConfigError) as info:
        load_config(path)
    normals, *actions, policy = str(info.value).splitlines()[1:]
    assert re.fullmatch(rf"  scenario\.k_elements: {_HUGE_K} elements need \S+ GiB of normals "
                        rf"per slot of {episodes} episodes, above the budget of 1 GiB", normals)
    # drl-eval keeps no round of raw actions and sampling noise.
    assert len(actions) == ("drl-train" in text)
    for line in actions:
        assert re.fullmatch(rf"  scenario\.k_elements: {_HUGE_K} elements need \S+ GiB of raw "
                            rf"actions and sampling noise per round of {episodes} episodes of "
                            r"\d+ slots, above the budget of 1 GiB", line)
    assert re.fullmatch(rf"  scenario\.k_elements = {_HUGE_K}, train\.hidden = 64 and "
                        r"train\.head_hidden = 64 give a policy network of \S+ GiB, above "
                        r"the budget of 1 GiB", policy)


def test_validate_bounds_the_round_buffer():
    # At K = 10^6, T = 250 and E = 6 the round's raw actions and sampling
    # noise need 12 GB each, while one slot's normals (0.48 GB) and a policy
    # with head_hidden = 1 (48 MB) fit: the round alone is refused, by K.
    cfg = {"kind": "drl-train", "scenario.k_elements": 10**6, "train.head_hidden": 1,
           "train.episodes": 6, "train.episodes_per_update": 6}
    with pytest.raises(ConfigError) as info:
        from_mapping(cfg)
    assert str(info.value).splitlines()[1:] == [
        "  scenario.k_elements: 1000000 elements need 22.4 GiB of raw actions and sampling "
        "noise per round of 6 episodes of 250 slots, above the budget of 1 GiB"]
    from_mapping({**cfg, "scenario.k_elements": 10**4})


def test_validate_bounds_the_policy_width():
    # A wide network alone is refused; fig5.2's K = 120 at hidden 64 is not.
    with pytest.raises(ConfigError, match=r"train\.hidden = 100000 and train\.head_hidden = "
                                          r"64 give a policy network of 448 GiB"):
        from_mapping({"kind": "drl-train", "train.hidden": 100_000})
    from_mapping(experiments.PRESETS["fig5.2"])


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


@pytest.mark.parametrize("kind, key, value, named", [
    ("er-sweep", "scenario.p_t_dbm", 10**400, r"scenario\.p_t_dbm"),
    ("ee-sweep", "sweep.r_th_values", [1.0, 10**400], r"sweep\.r_th_values\[1\]"),
    ("drl-train", "train.learning_rate", 10**400, r"train\.learning_rate"),
])
def test_float_key_given_an_integer_beyond_float_range_is_refused(kind, key, value, named):
    # A Python int no float holds fails its conversion to the key's float type.
    with pytest.raises(ConfigError, match=named + ": integer beyond the float range$"):
        from_mapping({"kind": kind, key: value})


def test_cli_validate_names_k_when_the_cascade_moments_overflow(tmp_path, capsys):
    # At K = 10^300, (K sqrt(beta))^4 leaves the float range at every power:
    # the fits are blamed on K, once, not on scenario.p_t_dbm.
    k = 10**300
    _, path = _validate_error_lines(
        tmp_path, capsys, f"kind = pdf-validation\nscenario.k_elements = {k}\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).splitlines()[1:] == [
        f"  scenario.k_elements: {k} elements overflow the cascade moments of the "
        "closed-form SINR laws, (K sqrt(beta))^4"]


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


@pytest.mark.parametrize("kind", ["drl-train", "drl-eval"])
def test_cli_validate_rejects_a_start_within_d_min(tmp_path, capsys, kind):
    # It used to validate and then fail at run time naming no key.
    errors, path = _validate_error_lines(
        tmp_path, capsys, f"kind = {kind}\ncheckpoint = p.bin\nscenario.tiny = true\n"
                          "scenario.d_min = 1000\n")
    assert len(errors) == 1
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).splitlines()[1:] == [
        "  d_min = 1000.0: the UAV start (-40.0, -40.0) lies within d_min of an obstacle"]
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_configured_start_is_checked_not_the_default_one():
    # At d_min = 60 the tiny scenario's default start (-40, -40) lies 55.9 m
    # from the obstacle at (-15, 10); the configured (45, -45) lies 81.4 m away.
    cfg = {"kind": "drl-train", "scenario.tiny": True, "scenario.d_min": 60.0}
    with pytest.raises(ConfigError, match=r"UAV start \(-40\.0, -40\.0\)"):
        from_mapping(cfg)
    from_mapping({**cfg, "scenario.uav_start_x": 45.0, "scenario.uav_start_y": -45.0})


@pytest.mark.parametrize("kind, beta_t, beta_r", [("er-sweep", 1.5, -0.5),
                                                   ("pdf-validation", -0.5, 1.5)])
def test_cli_validate_refuses_a_star_ris_split_outside_the_unit_range(
        tmp_path, capsys, kind, beta_t, beta_r):
    # The split sums to 1: it used to pass and then crash the fit's overflow
    # check on the square root of the negative share (exit 1).
    path = tmp_path / "c.cfg"
    path.write_text(f"kind = {kind}\nscenario.beta_t = {beta_t}\nscenario.beta_r = {beta_r}\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config validation failed:",
        f"  beta_t = {beta_t}, beta_r = {beta_r}: each must lie in [0, 1]"]
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    for edge in (0.0, 1.0):  # the ends of the range are splits the run takes
        from_mapping({"kind": kind, "scenario.beta_t": edge, "scenario.beta_r": 1.0 - edge})


def test_cli_validate_names_a_far_away_start_and_nothing_else(tmp_path, capsys):
    # A start at 1e300 overflowed the clearance's dot product, and numpy's
    # RuntimeWarning went to stderr before the message.
    path = tmp_path / "c.cfg"
    path.write_text("kind = drl-train\nscenario.tiny = true\nscenario.uav_start_x = 1e300\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", str(path)]) == 2
    assert caught == []
    assert capsys.readouterr().err.splitlines() == [
        "error: config validation failed:", "  UAV start outside the operating area"]


@pytest.mark.parametrize("flat", [
    {"kind": "osum-sweep", "scenario.n_cells": 3},
    {"kind": "ee-sweep", "scenario.n_cells": 3, "sweep.k_values": [8]},
])
def test_a_base_j_that_the_run_reads_is_refused_by_its_key(flat):
    # These runs read the base J at every point: its default 4 does not fit
    # I = 3 cells, and the refusal names the key that sets it.
    with pytest.raises(ConfigError) as info:
        from_mapping(flat)
    assert str(info.value).splitlines()[1:] == [
        "  scenario.n_coop = 4 (default), scenario.n_cells = 3: "
        "cooperative set must satisfy 1 <= J <= I"]
    with pytest.raises(ConfigError, match=r"scenario\.n_coop = 5, scenario\.n_cells = 3: "):
        from_mapping({**flat, "scenario.n_coop": 5})


def test_a_j_the_config_sets_is_checked_even_where_no_point_reads_it():
    with pytest.raises(ConfigError, match=r"scenario\.n_coop = 5, scenario\.n_cells = 3: "):
        from_mapping({"kind": "split-sweep", "scenario.n_cells": 3, "scenario.n_coop": 5})
    # Without a J, too few cells are named by their key alone.
    with pytest.raises(ConfigError, match=r"  scenario\.n_cells = 0: cooperative set"):
        from_mapping({"kind": "split-sweep", "scenario.n_cells": 0})


def test_default_j_axis_is_not_built_to_bound_it():
    # An ee-sweep without axes sweeps J = 1..I; at I = 10^12 the cells alone
    # are refused, and the axis is never listed.
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"scenario\.n_cells: 1000000000000 cells need"):
            from_mapping({"kind": "ee-sweep", "scenario.n_cells": 10**12, "scenario.n_coop": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    schema = config_module._KINDS[kind]["keys"]
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


def _start_within_d_min(flat):
    """Whether the aerial scenario of flat starts the UAV within d_min of an
    obstacle."""
    scn = tiny_aerial_scenario() if flat.get("scenario.tiny") else AerialScenario()
    x = flat.get("scenario.uav_start_x", scn.uav_start[0])
    y = flat.get("scenario.uav_start_y", scn.uav_start[1])
    d_min = flat.get("scenario.d_min", scn.d_min)
    return any(math.hypot(x - ox, y - oy) < d_min for ox, oy in scn.obstacle_positions)


@given(kind=st.sampled_from(config_module.KINDS), data=st.data())
@settings(max_examples=300, deadline=None)
def test_dump_parse_roundtrip_property(kind, data):
    flat = {"kind": kind, "seed": data.draw(st.integers(0, 2**63)), "out": data.draw(st.text())}
    if kind not in _NO_TRIALS and data.draw(st.booleans()):
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
    if kind == "ee-sweep" and {"sweep.p_t_dbm", "sweep.r_th_values"} <= flat.keys() and (
            flat.keys() & {"sweep.j_values", "sweep.k_values"}):
        with pytest.raises(ConfigError, match=r"\n  sweep\.[jk]_values: not read"):
            from_mapping(flat)
        return
    if kind == "pdf-validation" and run_bytes(flat.get("trials", 0)) > config_module._MEMORY_BUDGET:
        # Its KS test holds whole samples: the trial counts above the budget
        # are refused by name.
        with pytest.raises(ConfigError, match=r"\n  trials: \d+ trials need .* above the budget"):
            from_mapping(flat)
        return
    if kind in ("drl-train", "drl-eval") and _start_within_d_min(flat):
        with pytest.raises(ConfigError, match=r"\n  d_min = .*: the UAV start .* lies within "
                                              r"d_min of an obstacle"):
            from_mapping(flat)
        return
    try:
        run = from_mapping(flat)
    except ConfigError as exc:
        # At extreme powers and shapes the coordinated moment fits degenerate;
        # validate rejects each such point, and nothing else may be rejected.
        assert all(": the closed-form SINR laws cannot be fitted at " in line
                   for line in str(exc).splitlines()[1:]), exc
        return
    text = dump_config(run.config)
    loaded = from_mapping(parse_text(text))
    assert loaded == run
    assert dump_config(loaded.config) == text


@given(kind=st.sampled_from(("ee-sweep", "osum-sweep", "split-sweep")), data=st.data())
@settings(max_examples=200, deadline=None)
def test_accepted_multicell_configs_run_property(kind, data):
    """Every multicell config that from_mapping accepts runs through its
    runner at trials = 1: I in [1, 8] with a valid J, K <= 64, and scenario
    keys and sweep lists drawn as the round-trip property draws them."""
    n_cells = data.draw(st.integers(1, 8))
    flat = {"kind": kind, "trials": 1, "scenario.n_cells": n_cells,
            "scenario.n_coop": data.draw(st.integers(1, n_cells))}
    for entry in _scenario_draws(kind):
        if data.draw(st.booleans()):
            flat.update({f"scenario.{k}": v for k, v in data.draw(entry).items()})
    flat["scenario.k_elements"] = data.draw(st.integers(0, 64))
    bounded = {"j_values": st.integers(1, n_cells), "k_values": st.integers(0, 64)}
    for key, strat in _sweep_draws(kind, flat).items():
        if data.draw(st.booleans()):
            if key in bounded:
                strat = st.lists(bounded[key], min_size=1, max_size=4)
            flat[f"sweep.{key}"] = data.draw(strat)
    try:
        run = from_mapping(flat)
    except ConfigError:
        return
    experiments._RUNNERS[kind](run)


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
    cfg = from_mapping(parse_text("\n".join(lines))).config
    assert getattr(cfg, key) == value
    dumped = dump_config(cfg)
    assert f"\n{line}\n" in dumped
    assert from_mapping(parse_text(dumped)).config == cfg


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
    cfg = from_mapping(parse_text("kind = er-sweep\nscenario.p_t_dbm = -0\n")).config
    assert math.copysign(1.0, cfg.scenario["p_t_dbm"]) == -1.0
    reloaded = from_mapping(parse_text(dump_config(cfg))).config
    assert math.copysign(1.0, reloaded.scenario["p_t_dbm"]) == -1.0


def test_cli_validate_prints_sweep_as_floats(tmp_path, capsys):
    path = tmp_path / "p.cfg"
    path.write_text("kind = er-sweep\nsweep.p_t_dbm = -10, -5.5, 0\n")
    assert main(["validate", str(path)]) == 0
    assert "\nsweep.p_t_dbm = -10, -5.5, 0\n" in capsys.readouterr().out
    assert load_config(path).config.sweep["p_t_dbm"] == [-10.0, -5.5, 0.0]
    assert {type(v) for v in load_config(path).config.sweep["p_t_dbm"]} == {float}


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
    cfg = from_mapping(dict(experiments.PRESETS[name])).config
    text = dump_config(cfg)
    loaded = from_mapping(parse_text(text)).config
    assert dump_config(loaded) == text
    scenario_schema = config_module._KINDS[cfg.kind]["keys"]
    for c in (cfg, loaded):
        assert (type(c.seed), type(c.out)) == (int, str)
        assert c.trials is None or type(c.trials) is int
        for key, value in c.scenario.items():
            assert type(value) is scenario_schema[key], key
        for key, values in c.sweep.items():
            assert all(type(v) is config_module._SWEEP_KEYS[key][0] for v in values), key
        for key, value in c.train.items():
            assert type(value) is config_module._TRAIN_KEYS[key], key


@pytest.mark.parametrize("argv, env", [
    (["run", "{cfg}"], False),
    (["run", "{cfg}", "--seed", "4", "--trials", "200", "--out", "{tmp}/o"], False),
    (["run", "{cfg}"], True),
    (["reproduce", "fig3.5"], False),
    (["reproduce", "fig3.4", "--seed", "2", "--trials", "100", "--out", "{tmp}/o"], False),
    (["reproduce", "fig3.5"], True),
])
def test_cli_validates_once_per_run(tmp_path, monkeypatch, argv, env):
    # The overrides are applied to the config's keys before they are typed,
    # so the config is validated once, not again after the overrides.
    calls = []
    real = config_module.validate
    monkeypatch.setattr(config_module, "validate", lambda cfg: calls.append(cfg) or real(cfg))
    monkeypatch.chdir(tmp_path)
    if env:
        monkeypatch.setenv("RISCOMP_OUTDIR", str(tmp_path / "env"))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("kind = pdf-validation\ntrials = 100\nout = runs\n")
    assert main([a.format(cfg=cfg, tmp=tmp_path) for a in argv]) == 0
    assert len(calls) == 1
    out = tmp_path / ("o" if "--out" in argv else "env" if env else "runs")
    assert (out / "manifest.cfg").exists()


def test_cli_validate_lists_every_scenario_problem(tmp_path, capsys):
    errors, _ = _validate_error_lines(
        tmp_path, capsys, "kind = drl-train\nscenario.tiny = true\nscenario.k_elements = -1\n"
                          "scenario.default_alloc = 0.3\n")
    assert errors == ["error: config validation failed:"]
    path = tmp_path / "c.cfg"
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).splitlines()[1:] == [
        "  k_elements must be >= 0", "  default allocation factor must lie in (0.5, 1)"]


@pytest.mark.parametrize("make, message", [
    (lambda: CoordinatedScenario(beta_t=0.6), "beta_t + beta_r must equal 1"),
    (lambda: CoordinatedScenario(assignment=(1, 2)),
     "assignment entries must be >= 0 and sum to k_elements"),
    (lambda: CoordinatedScenario(zeta_center=0.2), "allocation factors must sum to 1"),
    (lambda: MultiCellScenario(n_coop=7), "cooperative set must satisfy 1 <= J <= I"),
    (lambda: MultiCellScenario(zeta_edge=0.5), "edge allocation factor must lie in (0.5, 1)"),
    (lambda: AerialScenario(uav_start=(90.0, 0.0)), "UAV start outside the operating area"),
    (lambda: AerialScenario(t_slots=0), "episode length must be >= 1"),
])
def test_a_single_scenario_violation_keeps_its_message(make, message):
    # Negative K, a bad Nakagami shape, the amplifier efficiency and the
    # start clearance have their own tests above.
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


_SCENARIO_FLOATS = [(cls, f.name) for cls in (CoordinatedScenario, MultiCellScenario, AerialScenario)
                    for f in dataclasses.fields(cls) if f.type == "float"]


@pytest.mark.parametrize("cls, name", _SCENARIO_FLOATS,
                         ids=[f"{cls.__name__}-{name}" for cls, name in _SCENARIO_FLOATS])
def test_a_scenario_refuses_a_float_field_that_is_not_a_finite_number(cls, name):
    # NaN passes every comparison-based check, so each float field is
    # checked for it by name. kappa_db's infinities are the pure-LoS and
    # Rayleigh limits, and only it takes them.
    for value in (math.nan, math.inf, -math.inf):
        if name == "kappa_db" and math.isinf(value):
            cls(**{name: value})
            continue
        with pytest.raises(ValueError) as info:
            cls(**{name: value})
        assert f"{name} = {value!r}: not a finite number" in str(info.value).splitlines()
    # A NaN beta no longer passes the range check either.
    if name == "beta_t":
        with pytest.raises(ValueError, match=r"beta_t = nan, beta_r = nan: each must lie"):
            CoordinatedScenario(beta_t=math.nan, beta_r=math.nan)
