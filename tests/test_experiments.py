import csv
import filecmp
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from riscomp import experiments
from riscomp.analysis import coordinated_distributions
from riscomp.cli import main
from riscomp.config import from_mapping, parse_text
from riscomp.experiments import PRESETS, preset, run_experiment
from riscomp.montecarlo import SINR_KINDS, ks_statistic, run_bytes, run_trials
from riscomp.moppo import init_policy, save_params
from riscomp.scenarios import CoordinatedScenario, MultiCellScenario, tiny_aerial_scenario
from riscomp.stats import ergodic_rates


def _run(tmp_path, name, mapping):
    run = from_mapping({**mapping, "out": str(tmp_path / name)})
    return run, run_experiment(run)


@pytest.mark.parametrize("fig", ["fig3.2", "fig3.3", "fig3.4"])
@pytest.mark.parametrize("n", [4133, 100_000])
def test_run_bytes_bounds_the_traced_peak(tmp_path, fig, n):
    # run_bytes is what validate holds against the memory budget, so it must
    # bound what a run holds: the draws and their buffer, the batches, and
    # pdf-validation's samples and KS arrays; at two chunks with a short
    # last one, and where the trial-sized arrays outweigh the rest.
    run = from_mapping({**preset(fig), "trials": n, "out": str(tmp_path)})
    tracemalloc.start()
    try:
        run_experiment(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= run_bytes(run.config.kind, n)


def test_manifest_rerun_byte_identical(tmp_path):
    base = {
        "kind": "pdf-validation",
        "seed": 4,
        "trials": 1200,
    }
    _, outputs = _run(tmp_path, "first", base)
    manifest = outputs[0]
    # Re-run from the manifest into a second directory.
    # As --out does, the second directory replaces the manifest's out.
    rerun = from_mapping({**parse_text(manifest.read_text()), "out": str(tmp_path / "second")})
    outputs2 = run_experiment(rerun)
    first_csv = [p for p in outputs if p.suffix == ".csv"]
    second_csv = [p for p in outputs2 if p.suffix == ".csv"]
    assert len(first_csv) == len(second_csv) == 1
    assert filecmp.cmp(first_csv[0], second_csv[0], shallow=False)


def _hash_line(manifest):
    [line] = [ln for ln in manifest.read_text().splitlines() if ln.startswith("# config sha256")]
    return line


def test_manifest_hash_names_the_config_not_the_directory(tmp_path):
    # The same config run into two directories carries one hash; a changed
    # key changes it.
    base = {"kind": "exhaustive-star", "sweep.beta_t_values": [0.3, 0.6]}
    _, first = _run(tmp_path, "a", base)
    _, second = _run(tmp_path, "b", base)
    _, other = _run(tmp_path, "c", {**base, "scenario.p_t_dbm": -5.0})
    assert first[0].read_text() != second[0].read_text()
    assert _hash_line(first[0]) == _hash_line(second[0])
    assert _hash_line(other[0]) != _hash_line(first[0])


def test_pdf_validation_rows_equal_one_ks_test_each(tmp_path):
    # The runner scores its ten rows in one stacked KS test; every row must
    # read what its own one-sample test gives.
    run, outputs = _run(tmp_path, "ks", {"kind": "pdf-validation", "seed": 4, "trials": 1200})
    with open(outputs[1], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    scn = run.scenario
    fitted = coordinated_distributions(scn).laws
    laws = {kind: fitted[kind] for kind in SINR_KINDS if kind in fitted}
    want = []
    for coupling in ("fitted", "physical"):
        batch = run_trials(scn, 1200, 4, coupling=coupling).batch(scn)
        for kind, law in laws.items():
            d, ok, crit = ks_statistic(batch[kind], law.cdf)
            want.append([coupling, kind, "1200", f"{d:.17g}", f"{crit:.17g}", str(int(ok))])
    assert rows == want
    # Each coupling lists every sampled SINR with a law once, in the order
    # of the sample kinds.
    assert [row[1] for row in rows] == [kind for kind in SINR_KINDS if kind != "edge_nocomp"] * 2


def test_law_keys_are_sample_kinds():
    laws = coordinated_distributions(from_mapping({"kind": "pdf-validation"}).scenario).laws
    assert list(laws) == [kind for kind in (*SINR_KINDS, "edge_high_snr") if kind in laws]
    assert set(laws) == {*SINR_KINDS, "edge_high_snr"} - {"edge_nocomp"}


@pytest.mark.parametrize("mapping, axis, values", [
    ({"kind": "er-sweep", "trials": 200, "sweep.p_t_dbm": [-10, 0]}, "p_t_dbm", [-10, 0]),
    ({"kind": "outage-sweep", "trials": 200, "sweep.p_t_dbm": [-10, 0]}, "p_t_dbm", [-10, 0]),
    ({"kind": "exhaustive-star", "sweep.beta_t_values": [0.3, 0.6]}, "beta_t", [0.3, 0.6]),
    ({"kind": "pdf-validation", "trials": 200}, "p_t_dbm", [-10]),
], ids=["er-sweep", "outage-sweep", "exhaustive-star", "pdf-validation"])
def test_validate_fits_the_laws_at_the_points_the_runner_runs(
        monkeypatch, tmp_path, mapping, axis, values):
    # `validate` fits the laws once per point, in run order, and the run
    # reads those fits: from_mapping then run_experiment fit each point
    # exactly once, and the runner fits nothing.
    fit = coordinated_distributions
    fitted = []

    def recording(scn):
        fitted.append(scn)
        return fit(scn)

    for module in ("analysis", "config", "experiments"):
        monkeypatch.setattr(f"riscomp.{module}.coordinated_distributions", recording,
                            raising=False)
    run = from_mapping({**mapping, "out": str(tmp_path / "out")})
    validated = list(fitted)
    run_experiment(run)
    assert fitted == validated
    assert [getattr(scn, axis) for scn in validated] == values
    assert [d.scenario for d in run.fits] == validated


# Scenarios that from_mapping builds per preset: the base, then one per
# point, and for fig4.5's grid one per power too, from which each of its
# power x threshold points is built.
_SCENARIOS_BUILT = {"fig3.2": 1, "fig3.3": 8, "fig3.4": 9, "fig3.5": 10, "fig4.2": 7,
                    "fig4.3": 8, "fig4.4": 8, "fig4.5": 36, "fig4.6": 4}


@pytest.mark.parametrize("fig", sorted(_SCENARIOS_BUILT))
def test_each_point_is_built_once_in_the_plan(monkeypatch, tmp_path, fig):
    # validate builds every scenario a run reads, and the run builds none: a
    # coordinated fit is at its point's scenario itself, not at a copy.
    built = []

    def counting(post_init):
        def wrapped(scn):
            built.append(scn)
            post_init(scn)
        return wrapped

    for cls in (CoordinatedScenario, MultiCellScenario):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__))
    trials = 100 if fig == "fig3.2" else 10
    run = from_mapping({**preset(fig), "trials": trials, "out": str(tmp_path / "out")})
    assert len(built) == _SCENARIOS_BUILT[fig]
    run_experiment(run)
    assert len(built) == _SCENARIOS_BUILT[fig]
    if run.fits:
        [points] = run.points
        assert len(run.fits) == len(points)
        assert all(fit.scenario is scn for fit, (scn, _, _) in zip(run.fits, points))


@pytest.mark.parametrize("fig, kinds", [
    ("fig3.3", ["center1_own", "center2_own", "edge", "edge_high_snr"]),
    ("fig3.5", ["center1_own", "center2_own", "edge"]),
])
def test_a_rate_runner_integrates_the_laws_it_writes_in_one_call(monkeypatch, tmp_path, fig,
                                                                kinds):
    # er-sweep writes each user's rate and the high-SNR approximation;
    # exhaustive-star writes the users' rates alone, so it integrates no
    # edge_high_snr law. Each runner integrates every law of its run at once.
    integrated = []

    def recording(laws):
        integrated.append(list(laws))
        return ergodic_rates(laws)

    monkeypatch.setattr("riscomp.analysis.ergodic_rates", recording)
    run, _ = _run(tmp_path, fig, {**preset(fig), "trials": 200})
    assert integrated == [[d.laws[kind] for d in run.fits for kind in kinds]]
    assert len(integrated[0]) == {"fig3.3": 7 * 4, "fig3.5": 9 * 3}[fig]


def test_the_plans_config_is_frozen():
    run = from_mapping({"kind": "drl-train", "scenario.tiny": True, "train.episodes": 6})
    with pytest.raises(FrozenInstanceError):
        run.config.out = "elsewhere"
    with pytest.raises(TypeError):
        run.config.train["episodes"] = 10
    assert run.config.train["episodes"] == run.train.episodes == 6


def test_er_sweep_artifacts(tmp_path):
    _, outputs = _run(tmp_path, "er", {
        "kind": "er-sweep",
        "seed": 1,
        "trials": 4000,
        "sweep.p_t_dbm": [-10, 0],
    })
    csv = [p for p in outputs if p.name == "ergodic_rates.csv"][0]
    text = csv.read_text().splitlines()
    assert text[0] == "p_t_dbm,user,er_analytic,er_mc,rel_err"
    assert len(text) == 1 + 2 * 4  # three users + high-SNR row per point


def test_exhaustive_star_grid(tmp_path):
    _, outputs = _run(tmp_path, "star", {
        "kind": "exhaustive-star",
        "seed": 1,
        "scenario.k_elements": 8,
        "sweep.assignment_values": [0, 4, 8],
        "sweep.beta_t_values": [0.25, 0.75],
    })
    csv = [p for p in outputs if p.name == "exhaustive_star.csv"][0]
    rows = csv.read_text().splitlines()
    assert len(rows) == 1 + 3 * 2


def test_ee_and_split_sweeps(tmp_path):
    _, outputs = _run(tmp_path, "ee", {
        "kind": "ee-sweep",
        "seed": 1,
        "trials": 400,
        "scenario.n_cells": 3,
        "scenario.n_coop": 2,
        "scenario.k_elements": 8,
        "sweep.j_values": [1, 3],
    })
    assert any(p.name == "ee_sweep_j.csv" for p in outputs)
    _, outputs = _run(tmp_path, "split", {
        "kind": "split-sweep",
        "seed": 1,
        "trials": 300,
        "scenario.n_cells": 3,
        "scenario.n_coop": 2,
        "scenario.k_elements": 8,
        "sweep.splits": [0.0, 1.0],
        "sweep.j_values": [1],
    })
    assert any(p.name == "split_sweep.csv" for p in outputs)


def test_drl_roundtrip(tmp_path):
    _, outputs = _run(tmp_path, "train", {
        "kind": "drl-train",
        "seed": 1,
        "scenario.tiny": True,
        "scenario.k_elements": 2,
        "scenario.t_slots": 8,
        "train.episodes": 4,
        "train.epochs": 2,
        "train.rollout": 4,
    })
    curve = [p for p in outputs if p.name == "learning_curve.csv"][0]
    ckpt = [p for p in outputs if p.name == "policy.bin"][0]
    assert curve.read_text().startswith("episode,reward,ma100")
    run = from_mapping({
        "kind": "drl-eval",
        "seed": 1,
        "checkpoint": str(ckpt),
        "out": str(tmp_path / "eval"),
        "scenario.tiny": True,
        "scenario.k_elements": 2,
        "scenario.t_slots": 8,
    })
    outputs = run_experiment(run)
    names = {p.name for p in outputs}
    assert {"trajectory.csv", "eval_summary.csv"} <= names


def test_presets_all_validate():
    for figure in PRESETS:
        run = from_mapping(preset(figure))
        assert run.config.kind in PRESETS[figure]["kind"]


def test_preset_parameters():
    scn = from_mapping(preset("fig4.2")).scenario
    assert scn.n_cells == 6
    assert scn.k_elements == 70
    assert scn.p_t_dbm == 0.0
    scn34 = from_mapping(preset("fig3.4")).scenario
    assert scn34.thresholds_db == (0.0, 0.0)
    assert scn34.threshold_edge == 1.0
    fig52 = from_mapping(preset("fig5.2"))
    aerial = fig52.scenario
    assert aerial.k_elements == 120
    assert aerial.t_slots == 250
    assert fig52.config.train["episodes"] == 750
    assert fig52.config.train["batch"] == 128


@pytest.mark.parametrize("n_cells, j_default", [(1, [1]), (2, [1, 2]), (3, [1, 3])])
def test_split_sweep_default_j_is_distinct_and_positive(n_cells, j_default):
    run = from_mapping({"kind": "split-sweep", "trials": 1, "scenario.n_cells": n_cells,
                        "scenario.n_coop": 1, "scenario.k_elements": 4,
                        "sweep.splits": [0.5]})
    header, rows = experiments._run_split_sweep(run)["split_sweep.csv"]
    assert [row[header.index("J")] for row in rows] == j_default


@pytest.mark.parametrize("mapping", [
    {"kind": "osum-sweep", "scenario.r_edge_min": 600.0},
    {"kind": "ee-sweep", "sweep.r_th_values": [0.5, 1500.0]},
], ids=["osum-r-edge-600", "ee-r-th-1500"])
def test_rate_targets_beyond_the_float_range_run(tmp_path, mapping):
    """2^(R / share) overflows at R / share >= 1024: the threshold is
    scored as +inf, so every trial is in outage and the run completes."""
    _, outputs = _run(tmp_path, "run", {**mapping, "trials": 1})
    assert all(p.exists() for p in outputs)


def test_ee_joint_grid(tmp_path):
    _, outputs = _run(tmp_path, "grid", {
        "kind": "ee-sweep",
        "seed": 1,
        "trials": 300,
        "scenario.n_cells": 3,
        "scenario.n_coop": 2,
        "scenario.k_elements": 8,
        "sweep.r_th_values": [0.5, 1.0],
        "sweep.p_t_dbm": [0, 10],
    })
    grid = [p for p in outputs if p.name == "ee_grid.csv"][0]
    rows = grid.read_text().splitlines()
    assert rows[0] == "p_t_dbm,r_th,mode,ee,outage_sum_rate"
    assert len(rows) == 1 + 2 * 2 * 4  # P_t x R_th x four modes


def test_failed_run_leaves_no_manifest(tmp_path, monkeypatch):
    def failing(cfg):
        raise ValueError("runner failed")

    monkeypatch.setitem(experiments._RUNNERS, "pdf-validation", failing)
    run = from_mapping({"kind": "pdf-validation", "out": str(tmp_path / "out")})
    with pytest.raises(ValueError, match="runner failed"):
        run_experiment(run)
    assert not (tmp_path / "out").exists()


def test_cli_failed_run_creates_and_writes_nothing(tmp_path, monkeypatch, capsys):
    def failing(cfg):
        raise ValueError("runner failed")

    monkeypatch.setitem(experiments._RUNNERS, "pdf-validation", failing)
    path = tmp_path / "c.cfg"
    path.write_text("kind = pdf-validation\n")
    nested = tmp_path / "a" / "b" / "out"
    assert main(["run", str(path), "--out", str(nested)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: runner failed"]
    assert not (tmp_path / "a").exists()
    # An existing output directory keeps exactly what it held.
    existing = tmp_path / "out"
    existing.mkdir()
    kept = existing / "ks_table.csv"
    kept.write_bytes(b"earlier run\n")
    assert main(["run", str(path), "--out", str(existing)]) == 1
    assert list(existing.iterdir()) == [kept]
    assert kept.read_bytes() == b"earlier run\n"


def test_drl_eval_rejects_checkpoint_of_other_width(tmp_path, monkeypatch, capsys):
    scn = tiny_aerial_scenario(k_elements=2, t_slots=8)
    ckpt = tmp_path / "policy.bin"
    # The network input is the state plus a remaining-time feature.
    save_params(ckpt, init_policy(scn.state_dim + 1, scn.action_dim_continuous,
                                  np.random.default_rng(0), hidden=8))

    def never(*args, **kwargs):
        raise AssertionError("evaluate must not run on a mismatched checkpoint")

    monkeypatch.setattr("riscomp.moppo.evaluate", never)
    path = tmp_path / "eval.cfg"
    path.write_text(
        f"kind = drl-eval\ncheckpoint = {ckpt}\nout = {tmp_path / 'eval'}\n"
        "scenario.tiny = true\nscenario.k_elements = 2\nscenario.t_slots = 8\n"
        "train.hidden = 16\n"
    )
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "array w1 has shape (8, 9)" in err[0] and "need (16, 9)" in err[0]
    assert not (tmp_path / "eval" / "trajectory.csv").exists()


# The CSV and column to which each kind writes the values of each sweep axis.
_AXIS_COLUMNS = {
    "pdf-validation": {},
    "er-sweep": {"p_t_dbm": ("ergodic_rates.csv", "p_t_dbm")},
    "outage-sweep": {"p_t_dbm": ("outage.csv", "p_t_dbm")},
    "exhaustive-star": {"assignment_values": ("exhaustive_star.csv", "k1"),
                        "beta_t_values": ("exhaustive_star.csv", "beta_t")},
    "ee-sweep": {"j_values": ("ee_sweep_j.csv", "value")},
    "osum-sweep": {"p_t_dbm": ("outage_sum_rate.csv", "p_t_dbm")},
    "split-sweep": {"splits": ("split_sweep.csv", "split"), "j_values": ("split_sweep.csv", "J")},
    "drl-train": {},
    "drl-eval": {},
}
_TINY_DRL = {"scenario.tiny": True, "scenario.k_elements": 2, "scenario.t_slots": 4,
             "train.episodes": 2, "train.episodes_per_update": 1, "train.hidden": 4,
             "train.head_hidden": 4}


@pytest.mark.parametrize("kind", list(_AXIS_COLUMNS))
def test_the_plan_is_what_runs(tmp_path, kind):
    """With no sweep.* keys every kind runs its defaults, as its plan lists
    them: each axis's values are written to its CSV column in plan order."""
    mapping = {"kind": kind, "trials": 100 if kind == "pdf-validation" else 1}
    if kind.startswith("drl-"):
        mapping.update(_TINY_DRL)
    if kind == "drl-eval":
        _run(tmp_path, "train", {**mapping, "kind": "drl-train"})
        mapping["checkpoint"] = str(tmp_path / "train" / "policy.bin")
    run, outputs = _run(tmp_path, "run", mapping)
    tables = {p.name: list(csv.DictReader(p.open())) for p in outputs[1:] if p.suffix == ".csv"}
    files = {name for name, _ in _AXIS_COLUMNS[kind].values()}
    assert files <= tables.keys()
    assert [axis for sweep in run.sweeps for axis in sweep] == list(_AXIS_COLUMNS[kind])
    for sweep in run.sweeps:
        for axis, values in sweep.items():
            name, column = _AXIS_COLUMNS[kind][axis]
            written = [type(values[0])(row[column]) for row in tables[name]]
            assert list(dict.fromkeys(written)) == list(values)
    if kind == "ee-sweep":
        assert sorted(tables) == ["ee_sweep_j.csv"]
    if kind == "pdf-validation":
        assert {int(row["n"]) for row in tables["ks_table.csv"]} == {run.trials}
    if kind == "drl-train":
        assert len(tables["learning_curve.csv"]) == run.train.episodes
    if kind == "drl-eval":
        assert len(tables["trajectory.csv"]) == run.episodes * run.scenario.t_slots == 40
