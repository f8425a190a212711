"""Multi-cell energy efficiency, outage sum rate, and passive-beamforming
assignment (enhancement / cancellation) experiments.

The Monte Carlo engine draws complex channels (Rayleigh direct links, Rician
RIS links), assigns per-RIS phases according to the network configuration,
and aggregates rates and outage over trials; energy efficiency is formed
from trial-averaged quantities (ratio of means). A sweep hands its points to
one simulate_network call (one per element count K, which the draws depend
on): each chunk is drawn once per call and shared by every point and mode,
and its element-axis reductions are formed once before any point is scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .channel import substream
from .montecarlo import CHUNK
from .scenarios import MultiCellScenario

_STREAM_MC = 301

MODES = ("no-ris", "random", "eo", "ec")
_MODE_CODE = {"off": 0, "random": 1, "eo": 2, "ec": 3}

# Network-level configurations: per-cell RIS mode for cooperative /
# non-cooperative cells. Under "eo" only cooperative surfaces are optimized;
# non-cooperative ones keep random phases. Under "ec" they anti-phase their
# own interference cascade. At J = I the two coincide.
_NETWORK_MODES = {
    "no-ris": ("off", "off"),
    "random": ("random", "random"),
    "eo": ("eo", "random"),
    "ec": ("eo", "ec"),
}


@dataclass(frozen=True)
class PowerModel:
    """Amplifier efficiency, static cell power, per-element RIS power, and
    per-BS transmit power (all linear watts)."""

    amp_efficiency: float
    static_cell_power: float
    per_element_power: float
    tx_power: float

    def __post_init__(self):
        if min(self.static_cell_power, self.per_element_power, self.tx_power) <= 0:
            raise ValueError("powers must be positive")

    def ris_power(self, k_elements: int) -> float:
        return k_elements * self.per_element_power


@dataclass(frozen=True)
class CoopStructure:
    """Cooperative set, total cell count, and per-BS RIS mode."""

    cooperating: tuple[int, ...]
    total_cells: int
    ris_mode: tuple[str, ...]

    def __post_init__(self):
        coop = tuple(sorted(set(self.cooperating)))
        if not coop:
            raise ValueError("at least one cooperating BS is required")
        if any(not 1 <= j <= self.total_cells for j in coop):
            raise ValueError("cooperating indices must lie in 1..total_cells")
        if len(self.ris_mode) != self.total_cells:
            raise ValueError("one RIS mode per cell required")
        if any(m not in _MODE_CODE for m in self.ris_mode):
            raise ValueError(f"RIS modes must be among {sorted(_MODE_CODE)}")
        object.__setattr__(self, "cooperating", coop)


def network_coop(scn: MultiCellScenario, mode: str) -> CoopStructure:
    if mode not in _NETWORK_MODES:
        raise ValueError(f"unknown network mode {mode!r}; choose from {MODES}")
    coop_mode, noncoop_mode = _NETWORK_MODES[mode]
    coop = tuple(range(1, scn.n_coop + 1))
    per_bs = tuple(
        coop_mode if (i + 1) in coop else noncoop_mode for i in range(scn.n_cells)
    )
    return CoopStructure(coop, scn.n_cells, per_bs)


def energy_efficiency(
    center_outage_rates,
    edge_outage_rate: float,
    pm: PowerModel,
    cs: CoopStructure,
    k_elements: int,
) -> float:
    """Sum of per-cell center terms plus per-cooperative-BS edge terms.

    Every cell contributes its center outage rate over P_i/lambda + P_Q; each
    cooperating BS additionally carries the edge outage rate over
    P_j/lambda + P_Q + P_R. Only RIS-bearing (non "off") cooperative terms
    include P_R.
    """
    center_outage_rates = np.asarray(center_outage_rates, dtype=float)
    if center_outage_rates.size != cs.total_cells:
        raise ValueError("one center outage rate per cell required")
    base = pm.tx_power / pm.amp_efficiency + pm.static_cell_power
    total = float(np.sum(center_outage_rates / base))
    for j in cs.cooperating:
        p_ris = 0.0 if cs.ris_mode[j - 1] == "off" else pm.ris_power(k_elements)
        total += edge_outage_rate / (base + p_ris)
    return total


@dataclass(frozen=True)
class ModeAggregates:
    """Trial-averaged per-mode results."""

    mode: str
    center_rates: np.ndarray
    center_outage: np.ndarray
    edge_rate: float
    edge_outage: float
    oma_center_rates: np.ndarray
    oma_center_outage: np.ndarray
    oma_edge_rate: float
    oma_edge_outage: float

    @property
    def outage_sum_rate(self) -> float:
        total = float(
            np.sum((1.0 - self.center_outage) * self.center_rates)
        )
        return total + (1.0 - self.edge_outage) * self.edge_rate

    @property
    def oma_outage_sum_rate(self) -> float:
        total = float(
            np.sum((1.0 - self.oma_center_outage) * self.oma_center_rates)
        )
        return total + (1.0 - self.oma_edge_outage) * self.oma_edge_rate


def _draw_channels(scn: MultiCellScenario, rng, m: int):
    """Complex channel draws for m trials: edge-direct, per-element cascade
    products, random unit phasors, and center direct gains."""
    n_cells, k = scn.n_cells, scn.k_elements
    sqrt_half = math.sqrt(0.5)
    g_edge_direct = math.sqrt(scn.gain(scn.d_edge, scn.alpha_edge))
    ed = (rng.standard_normal((m, n_cells)) + 1j * rng.standard_normal((m, n_cells)))
    ed *= sqrt_half * g_edge_direct
    # Rician BS->RIS and RIS->edge vectors, per cell. The LoS steering phase
    # profile is arbitrary for the statistics; a fixed broadside profile keeps
    # draws cheap. Cascade product folds both path losses.
    w_los = math.sqrt(scn.kappa / (1.0 + scn.kappa))
    w_nlos = math.sqrt(1.0 / (1.0 + scn.kappa))
    g_br = math.sqrt(scn.gain(scn.d_bs_ris, scn.alpha_ris))
    g_ru = math.sqrt(scn.gain(scn.d_ris_edge, scn.alpha_ris))
    shape = (m, n_cells, k)
    h_br = w_los + w_nlos * sqrt_half * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    h_ru = w_los + w_nlos * sqrt_half * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    casc = (g_br * g_ru) * np.conj(h_ru) * h_br
    del h_br, h_ru
    phi = rng.uniform(-math.pi, math.pi, shape)
    rnd = np.cos(phi) + 1j * np.sin(phi)
    # Center-user direct gains |h_{j -> center_i}|^2 with own-cell distance
    # d_center and cross distances d_ici.
    hij = sqrt_half * (
        rng.standard_normal((m, n_cells, n_cells))
        + 1j * rng.standard_normal((m, n_cells, n_cells))
    )
    cg = hij.real**2 + hij.imag**2
    own = scn.gain(scn.d_center, scn.alpha_center)
    cross = scn.gain(scn.d_ici, scn.alpha_ici)
    scale = np.full((n_cells, n_cells), cross)
    np.fill_diagonal(scale, own)
    cg = cg * scale[None, :, :]
    return ed, casc, rnd, cg


# MultiCellScenario fields _draw_channels reads: points of one
# simulate_network call must agree on them to share its draws.
_DRAW_FIELDS = (
    "n_cells", "k_elements", "kappa_db", "rho_o_db", "d_center", "d_edge",
    "d_ici", "d_bs_ris", "d_ris_edge", "alpha_center", "alpha_edge",
    "alpha_ris", "alpha_ici",
)


class _Point:
    """Per-point constants and running sums of one simulate_network point."""

    def __init__(self, scn: MultiCellScenario, mode: str, split: float | None):
        cs = network_coop(scn, mode)
        self.scn, self.mode = scn, mode
        self.code = [_MODE_CODE[m_] for m_ in cs.ris_mode]
        self.coop = np.array([1 if (i + 1) in cs.cooperating else 0
                              for i in range(scn.n_cells)], dtype=np.uint8)
        self.n_co = None if split is None else math.ceil(split * scn.k_elements)
        self.thr_c = 2.0**scn.r_center_min - 1.0
        self.thr_f = 2.0**scn.r_edge_min - 1.0
        # OMA rates are half-slot; outage compares the halved rate to the targets.
        self.thr_c_oma = 2.0 ** (2.0 * scn.r_center_min) - 1.0
        self.thr_f_oma = 2.0 ** (2.0 * scn.r_edge_min) - 1.0
        self.c_rate = np.zeros(scn.n_cells)
        self.c_out = np.zeros(scn.n_cells)
        self.c_rate_oma = np.zeros(scn.n_cells)
        self.c_out_oma = np.zeros(scn.n_cells)
        self.e_rate = self.e_out = self.e_rate_oma = self.e_out_oma = 0.0

    def edge_gains(self, by_code, by_split):
        if self.n_co is not None:
            return by_split[self.n_co]
        return np.stack([by_code[c][:, i] for i, c in enumerate(self.code)], axis=1)

    def add(self, edge, edge_oma, c_own, c_cf, c_oma):
        self.e_rate += float(np.sum(np.log2(1.0 + edge)))
        self.e_out += float(np.sum(edge < self.thr_f))
        self.e_rate_oma += 0.5 * float(np.sum(np.log2(1.0 + edge_oma)))
        self.e_out_oma += float(np.sum(edge_oma < self.thr_f_oma))
        self.c_rate += np.sum(np.log2(1.0 + c_own), axis=0)
        self.c_out += np.sum((c_cf < self.thr_f) | (c_own < self.thr_c), axis=0)
        self.c_rate_oma += 0.5 * np.sum(np.log2(1.0 + c_oma), axis=0)
        self.c_out_oma += np.sum(c_oma < self.thr_c_oma, axis=0)

    def aggregates(self, n: int) -> ModeAggregates:
        return ModeAggregates(
            mode=self.mode,
            center_rates=self.c_rate / n,
            center_outage=self.c_out / n,
            edge_rate=self.e_rate / n,
            edge_outage=self.e_out / n,
            oma_center_rates=self.c_rate_oma / n,
            oma_center_outage=self.c_out_oma / n,
            oma_edge_rate=self.e_rate_oma / n,
            oma_edge_outage=self.e_out_oma / n,
        )


def simulate_network(
    scn: MultiCellScenario,
    points,
    n: int | None = None,
    seed: int = 0,
) -> list[ModeAggregates]:
    """Monte Carlo aggregates of several network RIS configurations over one
    set of channel draws: one ModeAggregates per point, in order.

    Each point is (scn_v, mode, split). scn fixes the draws (and n_trials
    when n is None); every scn_v must agree with it on the fields the draws
    read (_DRAW_FIELDS), else ValueError. Each chunk is drawn once per call
    and shared by every point and mode; the powers, thresholds, cooperative
    set and mode of a point come from its scn_v. split, when not None,
    replaces the mode's RIS assignment of every cell, cooperative or not, by
    the cancellation/enhancement element split; used by the split-ratio
    experiment.
    """
    n = scn.n_trials if n is None else n
    pts = []
    for scn_v, mode, split in points:
        differ = [f for f in _DRAW_FIELDS if getattr(scn_v, f) != getattr(scn, f)]
        if differ:
            raise ValueError(
                f"point ({mode!r}) differs from the drawn scenario in {', '.join(differ)}"
            )
        pts.append(_Point(scn_v, mode, split))
    codes = {c for p in pts if p.n_co is None for c in p.code}
    n_cos = sorted({p.n_co for p in pts if p.n_co is not None})
    start = 0
    while start < n:
        m = min(CHUNK, n - start)
        ed, casc, rnd, cg = _draw_channels(scn, substream(seed, _STREAM_MC, start // CHUNK), m)
        by_code, by_split = kernels.multicell_edge_gains(ed, casc, rnd, codes, n_cos)
        del ed, casc, rnd
        for p in pts:
            p.add(*kernels.multicell_edge_sinr(
                p.edge_gains(by_code, by_split), cg, p.coop, p.scn.zeta_edge,
                p.scn.tx_power_w, p.scn.noise_w,
            ))
        start += m
    return [p.aggregates(n) for p in pts]


def _ee_rows(keyed, modes, n, seed) -> list[dict]:
    """EE rows of every (key, scenario) pair and mode, pair-major, each row
    starting with its key's fields; one simulate_network call, so the
    scenarios must share their draw fields."""
    if not keyed:
        return []
    points = [(key, scn_v, mode) for key, scn_v in keyed for mode in modes]
    aggs = simulate_network(keyed[0][1], [(s, m, None) for _, s, m in points],
                            n=n, seed=seed)
    rows = []
    for (key, scn_v, mode), agg in zip(points, aggs):
        pm = PowerModel(
            scn_v.amp_efficiency, scn_v.static_power_w, scn_v.element_power_w,
            scn_v.tx_power_w,
        )
        ee = energy_efficiency(
            (1.0 - agg.center_outage) * agg.center_rates,
            (1.0 - agg.edge_outage) * agg.edge_rate,
            pm, network_coop(scn_v, mode), scn_v.k_elements,
        )
        rows.append(
            {
                **key,
                "mode": mode,
                "ee": ee,
                "outage_sum_rate": agg.outage_sum_rate,
                "edge_outage": agg.edge_outage,
                "mean_center_outage": float(np.mean(agg.center_outage)),
            }
        )
    return rows


def ee_sweep(
    scn: MultiCellScenario,
    axis: str,
    values,
    modes=MODES,
    n: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Energy-efficiency sweep along one axis (J, K, P_t, or R_th).

    Sweep points share trial substreams (common random numbers), so
    per-seed orderings are not noise artifacts. Each chunk is drawn once per
    simulate_network call and shared by every point and mode: one call for
    the whole J, P_t or R_th sweep, one per value of K (the draws depend on K).
    """
    field_by_axis = {
        "J": "n_coop",
        "K": "k_elements",
        "P_t": "p_t_dbm",
        "R_th": None,
    }
    if axis not in field_by_axis:
        raise ValueError(f"axis must be one of {sorted(field_by_axis)}")
    keyed = []
    for value in values:
        if axis == "R_th":
            scn_v = replace(scn, r_center_min=value, r_edge_min=value)
        else:
            scn_v = replace(scn, **{field_by_axis[axis]: value})
        keyed.append(({"axis": axis, "value": value}, scn_v))
    groups = [[pair] for pair in keyed] if axis == "K" else [keyed]
    return [row for group in groups for row in _ee_rows(group, modes, n, seed)]


def ee_grid(
    scn: MultiCellScenario,
    p_t_values,
    r_th_values,
    modes=MODES,
    n: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Energy efficiency over the joint transmit-power x rate-threshold grid
    (power-major, then threshold, then mode), from one simulate_network call."""
    keyed = [
        ({"p_t_dbm": p_t, "r_th": r},
         replace(scn, p_t_dbm=p_t, r_center_min=r, r_edge_min=r))
        for p_t in p_t_values for r in r_th_values
    ]
    return _ee_rows(keyed, modes, n, seed)


def osum_sweep(
    scn: MultiCellScenario,
    p_t_values,
    modes=MODES,
    n: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Outage sum rate vs transmit power, NOMA modes plus the OMA baseline
    (on the "ec" draws), from one simulate_network call."""
    modes = tuple(modes)
    point_modes = modes + (("ec",) if "ec" not in modes else ())
    p_t_values = list(p_t_values)
    points = [
        (replace(scn, p_t_dbm=p_t), mode, None)
        for p_t in p_t_values for mode in point_modes
    ]
    aggs = iter(simulate_network(scn, points, n=n, seed=seed))
    rows = []
    for p_t in p_t_values:
        by_mode = {mode: next(aggs) for mode in point_modes}
        rows += [{"p_t_dbm": p_t, "mode": f"noma-{mode}",
                  "outage_sum_rate": by_mode[mode].outage_sum_rate} for mode in modes]
        rows.append({"p_t_dbm": p_t, "mode": "oma-ec",
                     "outage_sum_rate": by_mode["ec"].oma_outage_sum_rate})
    return rows


def split_sweep(
    scn: MultiCellScenario,
    splits,
    coop_counts,
    n: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Outage sum rate vs cancellation/enhancement element split ratio, from
    one simulate_network call."""
    keys = [(j, split) for j in coop_counts for split in splits]
    points = [(replace(scn, n_coop=j), "ec", split) for j, split in keys]
    aggs = simulate_network(scn, points, n=n, seed=seed)
    return [
        {"split": split, "J": j, "outage_sum_rate": agg.outage_sum_rate}
        for (j, split), agg in zip(keys, aggs)
    ]
