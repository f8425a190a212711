"""Multi-cell energy efficiency, outage sum rate, and passive-beamforming
assignment (enhancement / cancellation) experiments.

The Monte Carlo engine draws complex channels (Rayleigh direct links, Rician
RIS links), assigns per-RIS phases according to the network configuration,
and aggregates rates and outage over trials into one Aggregates record per
access scheme (NOMA, and the OMA baseline on the same draws); energy
efficiency is formed from the trial-averaged NOMA record and the powers of
the point's scenario (ratio of means). A sweep hands its points to one
simulate_network call (one per element count K, which the draws depend on):
each chunk is drawn once per call and shared by every point and mode, and
its element-axis reductions are formed once before any point is scored.
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

# Network-level configurations: the kernel's RIS mode code
# (kernels.multicell_edge_gains: 0 off, 1 random, 2 enhancement,
# 3 cancellation) of cooperative / non-cooperative cells. Under "eo" only
# cooperative surfaces are optimized; non-cooperative ones keep random
# phases. Under "ec" they anti-phase their own interference cascade. At
# J = I the two coincide.
_NETWORK_MODES = {
    "no-ris": (0, 0),
    "random": (1, 1),
    "eo": (2, 1),
    "ec": (2, 3),
}


@dataclass(frozen=True)
class Aggregates:
    """Trial-averaged results of one access scheme at one point: per-cell
    center-user rates and outage probabilities, and the edge user's."""

    center_rates: np.ndarray
    center_outage: np.ndarray
    edge_rate: float
    edge_outage: float

    @property
    def outage_sum_rate(self) -> float:
        total = float(np.sum((1.0 - self.center_outage) * self.center_rates))
        return total + (1.0 - self.edge_outage) * self.edge_rate


def energy_efficiency(scn: MultiCellScenario, mode: str, agg: Aggregates) -> float:
    """Sum of per-cell center terms plus per-cooperative-BS edge terms.

    Every cell contributes its center outage rate (1 - p_out) * R over
    P_t/lambda + P_Q; each of the J cooperating BSs additionally carries the
    edge outage rate over P_t/lambda + P_Q + P_R, with P_R = K * P_element
    except under "no-ris", where it is 0. The powers are scn's.
    """
    base = scn.tx_power_w / scn.amp_efficiency + scn.static_power_w
    total = float(np.sum(((1.0 - agg.center_outage) * agg.center_rates) / base))
    edge = (1.0 - agg.edge_outage) * agg.edge_rate
    p_ris = 0.0 if mode == "no-ris" else scn.k_elements * scn.element_power_w
    for _ in range(scn.n_coop):  # one term per BS: J * term would round differently
        total += edge / (base + p_ris)
    return total


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


class _Sums:
    """Running sums of one access scheme whose users hold a share of the
    slot (1.0 NOMA, 0.5 OMA): a rate is share * log2(1 + SINR), and its
    outage threshold on the SINR is 2^(R_min / share) - 1."""

    def __init__(self, scn: MultiCellScenario, share: float):
        self.share = share
        self.thr_c = 2.0 ** (scn.r_center_min / share) - 1.0
        self.thr_f = 2.0 ** (scn.r_edge_min / share) - 1.0
        self.c_rate = np.zeros(scn.n_cells)
        self.c_out = np.zeros(scn.n_cells)
        self.e_rate = self.e_out = 0.0

    def add(self, edge, center, center_sic=None):
        """One chunk's SINRs. A NOMA center user is also in outage when its
        SIC stage (center_sic) misses the edge user's target."""
        out = center < self.thr_c
        if center_sic is not None:
            out |= center_sic < self.thr_f
        self.e_rate += self.share * float(np.sum(np.log2(1.0 + edge)))
        self.e_out += float(np.sum(edge < self.thr_f))
        self.c_rate += self.share * np.sum(np.log2(1.0 + center), axis=0)
        self.c_out += np.sum(out, axis=0)

    def aggregates(self, n: int) -> Aggregates:
        return Aggregates(self.c_rate / n, self.c_out / n, self.e_rate / n, self.e_out / n)


class _Point:
    """Per-point constants and the NOMA and OMA sums of one simulate_network
    point."""

    def __init__(self, scn: MultiCellScenario, mode: str, split: float | None):
        if mode not in _NETWORK_MODES:
            raise ValueError(f"unknown network mode {mode!r}; choose from {MODES}")
        self.scn = scn
        self.coop = np.arange(scn.n_cells) < scn.n_coop
        coop_code, noncoop_code = _NETWORK_MODES[mode]
        self.code = [coop_code if c else noncoop_code for c in self.coop]
        self.n_co = None if split is None else math.ceil(split * scn.k_elements)
        self.noma, self.oma = _Sums(scn, 1.0), _Sums(scn, 0.5)

    def edge_gains(self, by_code, by_split):
        if self.n_co is not None:
            return by_split[self.n_co]
        return np.stack([by_code[c][:, i] for i, c in enumerate(self.code)], axis=1)


def simulate_network(
    scn: MultiCellScenario,
    points,
    n: int,
    seed: int = 0,
) -> list[tuple[Aggregates, Aggregates]]:
    """Monte Carlo aggregates of several network RIS configurations over one
    set of n trials' channel draws: one (NOMA, OMA) pair of Aggregates per
    point, in order.

    Each point is (scn_v, mode, split). scn fixes the draws; every scn_v
    must agree with it on the fields the draws read (_DRAW_FIELDS), else
    ValueError, as for a mode not in MODES. Each chunk is drawn once per call
    and shared by every point and mode; the powers, thresholds, cooperative
    set (the first n_coop cells) and mode of a point come from its scn_v.
    split, when not None, replaces the mode's RIS assignment of every cell,
    cooperative or not, by the cancellation/enhancement element split; used
    by the split-ratio experiment. OMA is equal-time TDMA on the same draws.
    """
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
            edge, edge_oma, c_own, c_cf, c_oma = kernels.multicell_edge_sinr(
                p.edge_gains(by_code, by_split), cg, p.coop, p.scn.zeta_edge,
                p.scn.tx_power_w, p.scn.noise_w,
            )
            p.noma.add(edge, c_own, c_cf)
            p.oma.add(edge_oma, c_oma)
        start += m
    return [(p.noma.aggregates(n), p.oma.aggregates(n)) for p in pts]


def _ee_rows(keyed, modes, n, seed) -> list[dict]:
    """EE rows of every (key, scenario) pair and mode, pair-major, each row
    starting with its key's fields; one simulate_network call, so the
    scenarios must share their draw fields."""
    if not keyed:
        return []
    points = [(key, scn_v, mode) for key, scn_v in keyed for mode in modes]
    aggs = simulate_network(keyed[0][1], [(s, m, None) for _, s, m in points], n, seed)
    return [
        {
            **key,
            "mode": mode,
            "ee": energy_efficiency(scn_v, mode, noma),
            "outage_sum_rate": noma.outage_sum_rate,
            "edge_outage": noma.edge_outage,
            "mean_center_outage": float(np.mean(noma.center_outage)),
        }
        for (key, scn_v, mode), (noma, _) in zip(points, aggs)
    ]


def ee_sweep(
    scn: MultiCellScenario,
    axis: str,
    values,
    modes=MODES,
    *,
    n: int,
    seed: int = 0,
) -> list[dict]:
    """Energy-efficiency sweep along one axis (J, K, P_t, or R_th) over n
    trials.

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
    *,
    n: int,
    seed: int = 0,
) -> list[dict]:
    """Energy efficiency over the joint transmit-power x rate-threshold grid
    (power-major, then threshold, then mode), from one simulate_network call
    of n trials."""
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
    *,
    n: int,
    seed: int = 0,
) -> list[dict]:
    """Outage sum rate vs transmit power, NOMA modes plus the OMA baseline
    (on the "ec" draws), from one simulate_network call of n trials."""
    modes = tuple(modes)
    point_modes = modes + (("ec",) if "ec" not in modes else ())
    p_t_values = list(p_t_values)
    points = [
        (replace(scn, p_t_dbm=p_t), mode, None)
        for p_t in p_t_values for mode in point_modes
    ]
    aggs = iter(simulate_network(scn, points, n, seed))
    rows = []
    for p_t in p_t_values:
        by_mode = {mode: next(aggs) for mode in point_modes}
        rows += [{"p_t_dbm": p_t, "mode": f"noma-{mode}",
                  "outage_sum_rate": by_mode[mode][0].outage_sum_rate} for mode in modes]
        rows.append({"p_t_dbm": p_t, "mode": "oma-ec",
                     "outage_sum_rate": by_mode["ec"][1].outage_sum_rate})
    return rows


def split_sweep(
    scn: MultiCellScenario,
    splits,
    coop_counts,
    n: int,
    seed: int = 0,
) -> list[dict]:
    """Outage sum rate vs cancellation/enhancement element split ratio, from
    one simulate_network call of n trials."""
    keys = [(j, split) for j in coop_counts for split in splits]
    points = [(replace(scn, n_coop=j), "ec", split) for j, split in keys]
    aggs = simulate_network(scn, points, n, seed)
    return [
        {"split": split, "J": j, "outage_sum_rate": noma.outage_sum_rate}
        for (j, split), (noma, _) in zip(keys, aggs)
    ]
