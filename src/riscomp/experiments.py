"""Experiment orchestration and the figure-style presets.

Each runner maps the plan that `config.validate` makes of a config (the
scenario, its sweeps and the scenario at each of their points, the trials,
a coordinated run's fitted laws) to its outputs, an ordered mapping from
file name to content; it builds no scenario and writes nothing.
`run_experiment` alone touches the disk: once the runner has returned it
writes every output and a manifest that reproduces the run byte-for-byte.

Engines are imported by the code that runs them: each runner imports its
own engine when called, so a process loads only the engine of the kind it
runs, and this module (with `config`) loads none.
"""

from __future__ import annotations

import csv
import hashlib
import os
from functools import partial
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, Plan, dump_config

if TYPE_CHECKING:
    from .moppo import PolicyParams

# File name -> content: a CSV (header, rows) or a policy checkpoint.
Outputs = dict[str, "tuple[list[str], list[tuple]] | PolicyParams"]


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _manifest(cfg: ExperimentConfig, outdir: Path) -> Path:
    body = dump_config(cfg)
    # The hash names the configuration, not the directory it was run into.
    hashed = "".join(line for line in body.splitlines(keepends=True)
                     if not line.startswith("out = "))
    header = (
        f"# run manifest (re-run with: riscomp run <this file>)\n"
        f"# version = {__version__}\n"
        f"# config sha256/16 = {hashlib.sha256(hashed.encode()).hexdigest()[:16]}\n"
    )
    path = outdir / "manifest.cfg"
    tmp = outdir / "manifest.cfg.tmp"
    tmp.write_text(header + body)
    os.replace(tmp, path)
    return path


def _run_pdf_validation(run: Plan) -> Outputs:
    from .montecarlo import BATCH_KINDS, ks_statistic, run_trials
    from .stats import stacked_cdf
    [fit] = run.fits
    scn, n = fit.scenario, run.trials
    # Each sampled SINR's law, in the sample kinds' order.
    laws = {kind: fit.laws[kind] for kind in BATCH_KINDS["pdf-validation"]}
    couplings = ("fitted", "physical")
    samples = np.empty((len(couplings), len(laws), n))
    for row, coupling in zip(samples, couplings):
        batch = run_trials(scn, n, run.config.seed, coupling=coupling).batch(scn, laws)
        np.stack([batch[kind] for kind in laws], out=row)
    # One stacked KS test: one betainc_reg call scores all ten rows.
    d, passed, crit = ks_statistic(samples.reshape(-1, n),
                                   partial(stacked_cdf, list(laws.values()) * len(couplings)))
    rows = [(coupling, kind, n, di, crit, int(ok))
            for (coupling, kind), di, ok in zip(product(couplings, laws), d.tolist(), passed)]
    return {"ks_table.csv": (["coupling", "sinr", "n", "ks_stat", "critical", "pass"], rows)}


def _run_er_sweep(run: Plan) -> Outputs:
    from .analysis import analytic_ergodic_rates
    from .montecarlo import BATCH_KINDS, USER_SINR, estimate_ergodic_rate, run_trials
    draws = run_trials(run.scenario, run.trials, run.config.seed, coupling="fitted")
    ers = analytic_ergodic_rates(run.fits, {**USER_SINR, "edge_high_snr": "edge_high_snr"})
    rows = []
    for fit, er in zip(run.fits, ers):
        scn = fit.scenario
        mc = estimate_ergodic_rate(draws.batch(scn, BATCH_KINDS["er-sweep"]))
        for user in USER_SINR:
            rel = abs(er[user] / mc[user] - 1.0) if mc[user] else float("inf")
            rows.append((scn.p_t_dbm, user, er[user], mc[user], rel))
        rows.append((scn.p_t_dbm, "edge_high_snr", er["edge_high_snr"], mc["edge"],
                     abs(er["edge_high_snr"] / mc["edge"] - 1.0)))
    return {"ergodic_rates.csv": (["p_t_dbm", "user", "er_analytic", "er_mc", "rel_err"], rows)}


def _run_outage_sweep(run: Plan) -> Outputs:
    from .analysis import analytic_outages
    from .montecarlo import BATCH_KINDS, USER_SINR, estimate_outage, run_trials
    draws = run_trials(run.scenario, run.trials, run.config.seed, coupling="fitted")
    rows = []
    for fit, closed in zip(run.fits, analytic_outages(run.fits)):
        scn = fit.scenario
        mc = estimate_outage(draws.batch(scn, BATCH_KINDS["outage-sweep"]), scn)
        for user in USER_SINR:
            rows.append((scn.p_t_dbm, user, closed[user], mc[user],
                         abs(closed[user] - mc[user])))
        rows.append((scn.p_t_dbm, "edge_nocomp", float("nan"), mc["edge_nocomp"], float("nan")))
    return {"outage.csv": (["p_t_dbm", "user", "outage_closed", "outage_mc", "abs_err"], rows)}


def _run_exhaustive_star(run: Plan) -> Outputs:
    from .analysis import analytic_ergodic_rates
    from .montecarlo import USER_SINR
    k = run.scenario.k_elements
    # `analysis` does not read the assignment: the rates depend on beta_t only.
    # Only the users' own rates are written, so only their laws are integrated.
    points = [(fit.scenario.beta_t, fit.scenario.beta_r, [er[user] for user in USER_SINR])
              for fit, er in zip(run.fits, analytic_ergodic_rates(run.fits, USER_SINR))]
    rows = [(k1, k - k1, beta_t, beta_r, *rates, sum(rates))
            for k1 in run.sweeps[0]["assignment_values"] for beta_t, beta_r, rates in points]
    return {"exhaustive_star.csv": (
        ["k1", "k2", "beta_t", "beta_r", *(f"er_{user}" for user in USER_SINR), "er_sum"], rows)}


# The CSV name and axis label of each single-axis ee-sweep sweep key.
_EE_AXES = {"j_values": "J", "k_values": "K", "p_t_dbm": "P_t", "r_th_values": "R_th"}


def _run_ee_sweep(run: Plan) -> Outputs:
    from .energy import MODES, energy_efficiency, simulate_network
    # Every sweep's points in every mode; the whole run is one
    # simulate_network call, so every chunk is drawn once. zip reads MODES
    # first, so each zip(MODES, aggs) takes one point's modes.
    aggs = iter(simulate_network(run.scenario, [
        (scn, mode, None) for points in run.points for scn, _, _ in points for mode in MODES],
        run.trials, run.config.seed))
    outputs = {}
    for sweep, points in zip(run.sweeps, run.points):
        scored = [(values, mode, energy_efficiency(scn, mode, noma), noma)
                  for scn, values, _ in points for mode, (noma, _) in zip(MODES, aggs)]
        if len(sweep) == 2:  # the joint power/threshold grid (contour)
            outputs["ee_grid.csv"] = (["p_t_dbm", "r_th", "mode", "ee", "outage_sum_rate"], [
                (*values, mode, ee, noma.outage_sum_rate) for values, mode, ee, noma in scored])
        else:
            axis = _EE_AXES[next(iter(sweep))]
            outputs[f"ee_sweep_{axis.lower()}.csv"] = ([
                "axis", "value", "mode", "ee", "outage_sum_rate", "edge_outage",
                "mean_center_outage"], [
                (axis, value, mode, ee, noma.outage_sum_rate, noma.edge_outage,
                 float(np.mean(noma.center_outage))) for (value,), mode, ee, noma in scored])
    return outputs


def _run_osum_sweep(run: Plan) -> Outputs:
    from .energy import MODES, simulate_network
    [points] = run.points
    aggs = iter(simulate_network(run.scenario, [(scn, mode, None) for scn, _, _ in points
                                                for mode in MODES], run.trials, run.config.seed))
    rows = []
    for _, [p], _ in points:
        by_mode = dict(zip(MODES, aggs))
        rows += [(p, f"noma-{mode}", noma.outage_sum_rate) for mode, (noma, _) in by_mode.items()]
        # The OMA baseline, on the "ec" point's draws.
        rows.append((p, "oma-ec", by_mode["ec"][1].outage_sum_rate))
    return {"outage_sum_rate.csv": (["p_t_dbm", "mode", "outage_sum_rate"], rows)}


def _run_split_sweep(run: Plan) -> Outputs:
    from .energy import simulate_network
    [sweep], [points] = run.sweeps, run.points
    keys = [(scn, j, split) for scn, [j], _ in points for split in sweep["splits"]]
    aggs = simulate_network(run.scenario, [(scn, "ec", split) for scn, _, split in keys],
                            run.trials, run.config.seed)
    return {"split_sweep.csv": (["split", "J", "outage_sum_rate"], [
        (split, j, noma.outage_sum_rate) for (_, j, split), (noma, _) in zip(keys, aggs)])}


def _run_drl_train(run: Plan) -> Outputs:
    from .moppo import train
    result = train(run.scenario, run.train, seed=run.config.seed)
    ma = result.moving_average(100)
    offset = len(result.rewards) - len(ma)
    rows = [(ep, float(r), float(ma[ep - offset]) if ep >= offset else float("nan"))
            for ep, r in enumerate(result.rewards)]
    return {"learning_curve.csv": (["episode", "reward", "ma100"], rows),
            "policy.bin": result.params}


def _run_drl_eval(run: Plan) -> Outputs:
    from .moppo import check_checkpoint, evaluate, load_params
    scn = run.scenario
    params = load_params(run.config.checkpoint)
    check_checkpoint(params, scn, run.train, run.config.checkpoint)
    ev = evaluate(scn, params, seed=run.config.seed, episodes=run.episodes)
    user_cols = [f"rate_center{i + 1}" for i in range(scn.n_bs)] + ["rate_edge"]
    return {
        "trajectory.csv": (
            ["t", "x", "y", "reward", *user_cols, "safety_violation", "qos_violations"],
            [tuple(t) for t in ev["traces"]],
        ),
        "eval_summary.csv": (["mean_sum_rate", "mean_reward"],
                             [(ev["mean_sum_rate"], ev["mean_reward"])]),
    }


_RUNNERS = {
    "pdf-validation": _run_pdf_validation,
    "er-sweep": _run_er_sweep,
    "outage-sweep": _run_outage_sweep,
    "exhaustive-star": _run_exhaustive_star,
    "ee-sweep": _run_ee_sweep,
    "osum-sweep": _run_osum_sweep,
    "split-sweep": _run_split_sweep,
    "drl-train": _run_drl_train,
    "drl-eval": _run_drl_eval,
}


def run_experiment(run: Plan) -> list[Path]:
    """Run the plan that `config.validate` made, then write its outputs;
    return their paths, manifest.cfg first.

    The runner of the plan's kind maps the plan to every output, in memory.
    Only once it has returned is the config's `out` created and each output
    written, in the runner's order (a tuple as a CSV, a checkpoint by
    `moppo.save_params`), followed by manifest.cfg, the config's dump;
    running the manifest reproduces the outputs byte-for-byte. A run that
    fails therefore creates and writes nothing. An I/O error while
    writing (a full disk, `out` naming a file) can still leave the outputs
    written before it.
    """
    outputs = _RUNNERS[run.config.kind](run)
    outdir = Path(run.config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, content in outputs.items():
        path = outdir / name
        if isinstance(content, tuple):
            _write_csv(path, *content)
        else:  # a policy checkpoint
            from .moppo import save_params
            save_params(path, content)
        paths.append(path)
    return [_manifest(run.config, outdir), *paths]


# Figure-style presets -------------------------------------------------------

PRESETS: dict[str, dict] = {
    # SINR distribution validation: K=34, m_direct=1, m_ris=2, P_t=-40 dBm
    # (noise-dominated operating point; KS pass for all three SINRs).
    "fig3.2": {
        "kind": "pdf-validation",
        "seed": 1,
        "trials": 10_000,
        "scenario.p_t_dbm": -40.0,
        "scenario.k_elements": 34,
        "scenario.m_direct": 1.0,
        "scenario.m_bs_ris": 2.0,
        "scenario.m_ris_user": 2.0,
    },
    # Ergodic-rate consistency sweep, quadrature vs model-assumption MC.
    "fig3.3": {
        "kind": "er-sweep",
        "seed": 1,
        "trials": 100_000,
        "sweep.p_t_dbm": [-20, -15, -10, -5, 0, 5, 10],
    },
    # Outage probability vs transmit power at 0 dB thresholds.
    "fig3.4": {
        "kind": "outage-sweep",
        "seed": 1,
        "trials": 10_000,
        "scenario.threshold_center_db": 0.0,
        "scenario.threshold_edge_db": 0.0,
        "sweep.p_t_dbm": [-15, -10, -5, 0, 5, 10, 15, 20],
    },
    # Ergodic-rate surface over element assignment and amplitude split. The
    # rates depend on beta_t only: `analysis` does not read the assignment, so
    # the k1/k2 columns do not change them.
    "fig3.5": {
        "kind": "exhaustive-star",
        "seed": 1,
        "scenario.p_t_dbm": -10.0,
        "scenario.k_elements": 34,
    },
    # Energy efficiency vs number of cooperative BSs (I=6, K=70, 0 dBm).
    "fig4.2": {
        "kind": "ee-sweep",
        "seed": 1,
        "scenario.n_cells": 6,
        "scenario.k_elements": 70,
        "scenario.p_t_dbm": 0.0,
        "sweep.j_values": [1, 2, 3, 4, 5, 6],
    },
    # Outage sum rate vs transmit power with J=4, K=70, OMA baseline included.
    "fig4.3": {
        "kind": "osum-sweep",
        "seed": 1,
        "scenario.n_coop": 4,
        "scenario.k_elements": 70,
        "sweep.p_t_dbm": [-10, -5, 0, 5, 10, 15, 20],
    },
    # Energy efficiency vs element count at J=4, 0 dBm.
    "fig4.4": {
        "kind": "ee-sweep",
        "seed": 1,
        "scenario.n_coop": 4,
        "scenario.p_t_dbm": 0.0,
        "sweep.k_values": [30, 50, 70, 90, 110, 130, 150],
    },
    # Energy-efficiency contour axes: joint rate threshold sweep at J=4, K=70.
    "fig4.5": {
        "kind": "ee-sweep",
        "seed": 1,
        "scenario.n_coop": 4,
        "scenario.k_elements": 70,
        "sweep.r_th_values": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5],
        "sweep.p_t_dbm": [-10, -5, 0, 5, 10],
    },
    # Outage sum rate vs cancellation/enhancement split (K=72).
    "fig4.6": {
        "kind": "split-sweep",
        "seed": 1,
        "scenario.k_elements": 72,
        "sweep.splits": [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0],
        "sweep.j_values": [1, 3, 6],
    },
    # Full-scale MO-PPO training (K=120, T=250, table hyperparameters).
    "fig5.2": {
        "kind": "drl-train",
        "seed": 1,
        "scenario.k_elements": 120,
        "scenario.t_slots": 250,
        "scenario.p_t_dbm": 20.0,
        "train.episodes": 750,
        "train.epochs": 20,
        "train.batch": 128,
        "train.rollout": 128,
    },
    # Desk-scale training variant (tiny instance, minutes not hours).
    "fig5.2-tiny": {
        "kind": "drl-train",
        "seed": 1,
        "scenario.tiny": True,
        "scenario.k_elements": 4,
        "scenario.t_slots": 40,
        "train.episodes": 300,
        "train.rollout": 4,
        "train.learning_rate": 3e-4,
        "train.entropy_coef": 0.005,
        "train.episodes_per_update": 6,
        "train.kl_stop": 0.02,
        "train.gamma": 0.95,
    },
}


def preset(figure_id: str) -> dict:
    """A copy of the flat config mapping of a figure-style experiment id
    (e.g. 'fig4.2'); `config.from_mapping` makes it a plan."""
    if figure_id not in PRESETS:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return dict(PRESETS[figure_id])
