"""Experiment orchestration and the figure-style presets.

Each runner maps a validated config to its outputs, an ordered mapping from
file name to content, and writes nothing. `run_experiment` alone touches the
disk: once the runner has returned it writes every output and a manifest
that reproduces the run byte-for-byte.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import replace
from pathlib import Path

from . import __version__
from .analysis import (
    analytic_ergodic_rates,
    analytic_outage,
    coordinated_distributions,
)
from .config import ConfigError, ExperimentConfig, dump_config, from_mapping
from .energy import ee_grid, ee_sweep, osum_sweep, split_sweep
from .montecarlo import (
    estimate_ergodic_rate,
    estimate_outage,
    ks_statistic,
    run_trials,
)
from .moppo import (
    PolicyParams,
    TrainConfig,
    check_checkpoint,
    evaluate,
    load_params,
    save_params,
    train,
)

# File name -> content: a CSV (header, rows) or a policy checkpoint.
Outputs = dict[str, tuple[list[str], list[tuple]] | PolicyParams]


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _manifest(cfg: ExperimentConfig, outdir: Path) -> Path:
    body = dump_config(cfg)
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    header = (
        f"run manifest (re-run with: riscomp run <this file>)\n"
        f"version = {__version__}\n"
        f"config sha256/16 = {digest}"
    )
    path = outdir / "manifest.cfg"
    tmp = outdir / "manifest.cfg.tmp"
    tmp.write_text(dump_config(cfg, header=header))
    os.replace(tmp, path)
    return path


def _trials(cfg: ExperimentConfig, default: int) -> int:
    return cfg.trials if cfg.trials is not None else default


def _run_pdf_validation(cfg: ExperimentConfig) -> Outputs:
    scn = cfg.coordinated_scenario()
    n = _trials(cfg, 10_000)
    dists = coordinated_distributions(scn)
    analytic = {
        "center1_own": dists.center_own[0],
        "center1_sic": dists.center_sic[0],
        "center2_own": dists.center_own[1],
        "center2_sic": dists.center_sic[1],
        "edge": dists.edge,
    }
    rows = []
    for coupling in ("fitted", "physical"):
        batch = run_trials(scn, n, cfg.seed, coupling=coupling).batch(scn)
        for kind, dist in analytic.items():
            d, passed, crit = ks_statistic(batch.sinr[kind], dist.cdf)
            rows.append((coupling, kind, n, d, crit, int(passed)))
    return {"ks_table.csv": (["coupling", "sinr", "n", "ks_stat", "critical", "pass"], rows)}


def _run_er_sweep(cfg: ExperimentConfig) -> Outputs:
    scn = cfg.coordinated_scenario()
    n = _trials(cfg, 100_000)
    p_values = cfg.sweep_values("p_t_dbm")
    draws = run_trials(scn, n, cfg.seed, coupling="fitted")
    rows = []
    for p_t in p_values:
        scn_p = replace(scn, p_t_dbm=p_t)
        er = analytic_ergodic_rates(scn_p)
        mc = estimate_ergodic_rate(draws.batch(scn_p))
        for user in ("center1", "center2", "edge"):
            rel = abs(er[user] / mc[user] - 1.0) if mc[user] else float("inf")
            rows.append((p_t, user, er[user], mc[user], rel))
        rows.append((p_t, "edge_high_snr", er["edge_high_snr"], mc["edge"],
                     abs(er["edge_high_snr"] / mc["edge"] - 1.0)))
    return {"ergodic_rates.csv": (["p_t_dbm", "user", "er_analytic", "er_mc", "rel_err"], rows)}


def _run_outage_sweep(cfg: ExperimentConfig) -> Outputs:
    scn = cfg.coordinated_scenario()
    n = _trials(cfg, 10_000)
    p_values = cfg.sweep_values("p_t_dbm")
    draws = run_trials(scn, n, cfg.seed, coupling="fitted")
    rows = []
    for p_t in p_values:
        scn_p = replace(scn, p_t_dbm=p_t)
        closed = analytic_outage(scn_p)
        mc = estimate_outage(draws.batch(scn_p), scn_p)
        for user in ("center1", "center2", "edge"):
            rows.append((p_t, user, closed[user], mc[user],
                         abs(closed[user] - mc[user])))
        rows.append((p_t, "edge_nocomp", float("nan"), mc["edge_nocomp"], float("nan")))
    return {"outage.csv": (["p_t_dbm", "user", "outage_closed", "outage_mc", "abs_err"], rows)}


def _run_exhaustive_star(cfg: ExperimentConfig) -> Outputs:
    scn = cfg.coordinated_scenario()
    k = scn.k_elements
    k1_values = cfg.sweep.get("assignment_values", list(range(0, k + 1, max(1, k // 8))))
    beta_values = cfg.sweep_values("beta_t_values")
    # `analysis` does not read the assignment: the rates depend on beta_t only.
    ers = [analytic_ergodic_rates(replace(scn, beta_t=b, beta_r=1.0 - b)) for b in beta_values]
    rows = [(k1, k - k1, beta_t, 1.0 - beta_t, er["center1"], er["center2"],
             er["edge"], er["center1"] + er["center2"] + er["edge"])
            for k1 in k1_values for beta_t, er in zip(beta_values, ers)]
    return {"exhaustive_star.csv": (
        ["k1", "k2", "beta_t", "beta_r", "er_center1", "er_center2", "er_edge", "er_sum"],
        rows,
    )}


def _run_ee_sweep(cfg: ExperimentConfig) -> Outputs:
    scn = cfg.multicell_scenario()
    n = _trials(cfg, 10_000)
    # Joint power/threshold grid (contour) when both axes are requested.
    if "r_th_values" in cfg.sweep and "p_t_dbm" in cfg.sweep:
        rows = [
            (r["p_t_dbm"], r["r_th"], r["mode"], r["ee"], r["outage_sum_rate"])
            for r in ee_grid(scn, cfg.sweep["p_t_dbm"], cfg.sweep["r_th_values"],
                             n=n, seed=cfg.seed)
        ]
        return {"ee_grid.csv": (["p_t_dbm", "r_th", "mode", "ee", "outage_sum_rate"], rows)}
    sweeps = []
    if "j_values" in cfg.sweep:
        sweeps.append(("J", cfg.sweep["j_values"]))
    if "k_values" in cfg.sweep:
        sweeps.append(("K", cfg.sweep["k_values"]))
    if "p_t_dbm" in cfg.sweep:
        sweeps.append(("P_t", cfg.sweep["p_t_dbm"]))
    if "r_th_values" in cfg.sweep:
        sweeps.append(("R_th", cfg.sweep["r_th_values"]))
    if not sweeps:
        sweeps = [("J", list(range(1, scn.n_cells + 1)))]
    header = ["axis", "value", "mode", "ee", "outage_sum_rate", "edge_outage",
              "mean_center_outage"]
    return {
        f"ee_sweep_{axis.lower()}.csv": (header, [
            (r["axis"], r["value"], r["mode"], r["ee"], r["outage_sum_rate"],
             r["edge_outage"], r["mean_center_outage"])
            for r in ee_sweep(scn, axis, values, n=n, seed=cfg.seed)
        ])
        for axis, values in sweeps
    }


def _run_osum_sweep(cfg: ExperimentConfig) -> Outputs:
    scn = cfg.multicell_scenario()
    n = _trials(cfg, 10_000)
    p_values = cfg.sweep_values("p_t_dbm")
    rows = [
        (r["p_t_dbm"], r["mode"], r["outage_sum_rate"])
        for r in osum_sweep(scn, p_values, n=n, seed=cfg.seed)
    ]
    return {"outage_sum_rate.csv": (["p_t_dbm", "mode", "outage_sum_rate"], rows)}


def _run_split_sweep(cfg: ExperimentConfig) -> Outputs:
    scn = cfg.multicell_scenario()
    n = _trials(cfg, 10_000)
    splits = cfg.sweep_values("splits")
    coop_counts = cfg.sweep.get("j_values", [1, scn.n_cells // 2, scn.n_cells])
    rows = [
        (r["split"], r["J"], r["outage_sum_rate"])
        for r in split_sweep(scn, splits, coop_counts, n=n, seed=cfg.seed)
    ]
    return {"split_sweep.csv": (["split", "J", "outage_sum_rate"], rows)}


def _run_drl_train(cfg: ExperimentConfig) -> Outputs:
    scn = cfg.aerial_scenario()
    result = train(scn, TrainConfig(**cfg.train), seed=cfg.seed)
    ma = result.moving_average(100)
    offset = len(result.rewards) - len(ma)
    rows = [(ep, float(r), float(ma[ep - offset]) if ep >= offset else float("nan"))
            for ep, r in enumerate(result.rewards)]
    return {"learning_curve.csv": (["episode", "reward", "ma100"], rows),
            "policy.bin": result.params}


def _run_drl_eval(cfg: ExperimentConfig) -> Outputs:
    scn = cfg.aerial_scenario()
    params = load_params(cfg.checkpoint)
    check_checkpoint(params, scn, TrainConfig(**cfg.train), cfg.checkpoint)
    ev = evaluate(scn, params, seed=cfg.seed, episodes=10)
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


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Run the experiment, then write its outputs; return their paths,
    manifest.cfg first.

    The runner computes every output in memory. Only once it has returned is
    `cfg.out` created and each output written, in the runner's order,
    followed by manifest.cfg; running the manifest reproduces the outputs
    byte-for-byte. A run that fails therefore creates and writes nothing. An
    I/O error while writing (a full disk, `out` naming a file) can still
    leave the outputs written before it.
    """
    outputs = _RUNNERS[cfg.kind](cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, content in outputs.items():
        path = outdir / name
        if isinstance(content, PolicyParams):
            save_params(path, content)
        else:
            _write_csv(path, *content)
        paths.append(path)
    return [_manifest(cfg, outdir), *paths]


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


def reproduce(figure_id: str) -> ExperimentConfig:
    """Preset config for a figure-style experiment id (e.g. 'fig4.2')."""
    if figure_id not in PRESETS:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return from_mapping(dict(PRESETS[figure_id]))
