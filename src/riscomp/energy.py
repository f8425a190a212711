"""Multi-cell energy efficiency, outage sum rate, and passive-beamforming
assignment (enhancement / cancellation) experiments.

The Monte Carlo engine draws complex channels (Rayleigh direct links, Rician
RIS links), assigns per-RIS phases according to the network configuration,
and aggregates rates and outage over trials; energy efficiency is formed
from trial-averaged quantities (ratio of means).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def simulate_network(
    scn: MultiCellScenario,
    mode: str,
    n: int | None = None,
    seed: int = 0,
    split: float | None = None,
) -> ModeAggregates:
    """Monte Carlo aggregates for one network RIS configuration.

    split, when given, replaces the mode's RIS assignment of every cell,
    cooperative or not, by the cancellation/enhancement element split; used
    by the split-ratio experiment.
    """
    n = scn.n_trials if n is None else n
    cs = network_coop(scn, mode)
    code = np.array([_MODE_CODE[m_] for m_ in cs.ris_mode], dtype=np.uint8)
    coop = np.array([1 if (i + 1) in cs.cooperating else 0 for i in range(scn.n_cells)],
                    dtype=np.uint8)
    thr_c = 2.0**scn.r_center_min - 1.0
    thr_f = 2.0**scn.r_edge_min - 1.0
    # OMA rates are half-slot; outage compares the halved rate to the targets.
    thr_c_oma = 2.0 ** (2.0 * scn.r_center_min) - 1.0
    thr_f_oma = 2.0 ** (2.0 * scn.r_edge_min) - 1.0

    sums = {
        "c_rate": np.zeros(scn.n_cells),
        "c_out": np.zeros(scn.n_cells),
        "c_rate_oma": np.zeros(scn.n_cells),
        "c_out_oma": np.zeros(scn.n_cells),
        "e_rate": 0.0,
        "e_out": 0.0,
        "e_rate_oma": 0.0,
        "e_out_oma": 0.0,
    }
    start = 0
    while start < n:
        chunk_index = start // CHUNK
        m = min(CHUNK, n - start)
        rng = substream(seed, _STREAM_MC, chunk_index)
        ed, casc, rnd, cg = _draw_channels(scn, rng, m)
        if split is not None:
            edge, edge_oma, c_own, c_cf, c_oma = _split_mode_sinr(
                scn, ed, casc, rnd, cg, coop, split
            )
        else:
            edge, edge_oma, c_own, c_cf, c_oma = kernels.multicell_edge_sinr(
                ed.real, ed.imag, casc.real, casc.imag, rnd.real, rnd.imag, cg,
                coop, code, scn.zeta_edge, scn.tx_power_w, scn.noise_w,
            )
        sums["e_rate"] += float(np.sum(np.log2(1.0 + edge)))
        sums["e_out"] += float(np.sum(edge < thr_f))
        sums["e_rate_oma"] += 0.5 * float(np.sum(np.log2(1.0 + edge_oma)))
        sums["e_out_oma"] += float(np.sum(edge_oma < thr_f_oma))
        sums["c_rate"] += np.sum(np.log2(1.0 + c_own), axis=0)
        sums["c_out"] += np.sum((c_cf < thr_f) | (c_own < thr_c), axis=0)
        sums["c_rate_oma"] += 0.5 * np.sum(np.log2(1.0 + c_oma), axis=0)
        sums["c_out_oma"] += np.sum(c_oma < thr_c_oma, axis=0)
        start += m
    return ModeAggregates(
        mode=mode,
        center_rates=sums["c_rate"] / n,
        center_outage=sums["c_out"] / n,
        edge_rate=sums["e_rate"] / n,
        edge_outage=sums["e_out"] / n,
        oma_center_rates=sums["c_rate_oma"] / n,
        oma_center_outage=sums["c_out_oma"] / n,
        oma_edge_rate=sums["e_rate_oma"] / n,
        oma_edge_outage=sums["e_out_oma"] / n,
    )


def _split_mode_sinr(scn, ed, casc, rnd, cg, coop, split):
    """Every RIS runs the element split: the first ceil(split*K) elements
    anti-phase against the direct link, the rest co-phase. The resultant
    on-axis amplitude is |h| - S_co + S_eo (squared for the gain)."""
    n_co = math.ceil(split * scn.k_elements)
    amp_d = np.abs(ed)
    mag = np.abs(casc)
    s_co = np.sum(mag[:, :, :n_co], axis=2)
    s_eo = np.sum(mag[:, :, n_co:], axis=2)
    d = amp_d - s_co + s_eo
    # The kernel's no-RIS mode squares the supplied direct components, so the
    # split gain rides in as a (possibly negative) real amplitude.
    zeros = np.zeros_like(d)
    code_eff = np.zeros(scn.n_cells, dtype=np.uint8)
    return kernels.multicell_edge_sinr(
        d, zeros, casc.real, casc.imag, rnd.real, rnd.imag, cg,
        coop, code_eff, scn.zeta_edge, scn.tx_power_w, scn.noise_w,
    )


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
    per-seed orderings are not noise artifacts.
    """
    field_by_axis = {
        "J": "n_coop",
        "K": "k_elements",
        "P_t": "p_t_dbm",
        "R_th": None,
    }
    if axis not in field_by_axis:
        raise ValueError(f"axis must be one of {sorted(field_by_axis)}")
    rows = []
    for value in values:
        if axis == "R_th":
            scn_v = scn.with_overrides(r_center_min=float(value), r_edge_min=float(value))
        else:
            caster = int if axis in ("J", "K") else float
            scn_v = scn.with_overrides(**{field_by_axis[axis]: caster(value)})
        pm = PowerModel(
            scn_v.amp_efficiency, scn_v.static_power_w, scn_v.element_power_w,
            scn_v.tx_power_w,
        )
        for mode in modes:
            agg = simulate_network(scn_v, mode, n=n, seed=seed)
            cs = network_coop(scn_v, mode)
            ee = energy_efficiency(
                (1.0 - agg.center_outage) * agg.center_rates,
                (1.0 - agg.edge_outage) * agg.edge_rate,
                pm, cs, scn_v.k_elements,
            )
            rows.append(
                {
                    "axis": axis,
                    "value": value,
                    "mode": mode,
                    "ee": ee,
                    "outage_sum_rate": agg.outage_sum_rate,
                    "edge_outage": agg.edge_outage,
                    "mean_center_outage": float(np.mean(agg.center_outage)),
                }
            )
    return rows


def osum_sweep(
    scn: MultiCellScenario,
    p_t_values,
    modes=MODES,
    include_oma: bool = True,
    oma_mode: str = "ec",
    n: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Outage sum rate vs transmit power, NOMA modes plus the OMA baseline."""
    rows = []
    for p_t in p_t_values:
        scn_v = scn.with_overrides(p_t_dbm=float(p_t))
        aggs = {mode: simulate_network(scn_v, mode, n=n, seed=seed) for mode in modes}
        for mode in modes:
            rows.append(
                {"p_t_dbm": p_t, "mode": f"noma-{mode}",
                 "outage_sum_rate": aggs[mode].outage_sum_rate}
            )
        if include_oma:
            agg = aggs.get(oma_mode) or simulate_network(scn_v, oma_mode, n=n, seed=seed)
            rows.append(
                {"p_t_dbm": p_t, "mode": f"oma-{oma_mode}",
                 "outage_sum_rate": agg.oma_outage_sum_rate}
            )
    return rows


def split_sweep(
    scn: MultiCellScenario,
    splits,
    coop_counts,
    n: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Outage sum rate vs cancellation/enhancement element split ratio."""
    rows = []
    for j in coop_counts:
        scn_j = scn.with_overrides(n_coop=int(j))
        for split in splits:
            agg = simulate_network(scn_j, "ec", n=n, seed=seed, split=float(split))
            rows.append(
                {"split": split, "J": j, "outage_sum_rate": agg.outage_sum_rate}
            )
    return rows
