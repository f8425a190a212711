"""Multi-cell energy efficiency and outage sum rate of the network's
passive-beamforming modes (enhancement / cancellation), by Monte Carlo;
the scenario of each point comes from the run's plan (config.validate).

The Monte Carlo engine draws complex channels (Rayleigh direct links, Rician
RIS links), gives each cell's RIS one setting by the network mode or
element split: off, random phases (unit phasors by the tangent half-angle
identity, ris.phasors: one vectorized tan, not libm's cos and sin) or the
count of its elements anti-phased, the rest co-phased; and aggregates
rates and outage over trials into one Aggregates record per access scheme
(NOMA, and the OMA baseline on the same draws); energy efficiency is formed
from the trial-averaged NOMA record and the powers of the point's scenario
(ratio of means). A multicell run (experiments' ee-sweep, osum-sweep and
split-sweep runners) hands all its points, over K and over several sweeps
too, to one simulate_network call: each chunk's normals are drawn once and
shared by every point and mode, each element count K reading its own prefix
of them, and each K's element-axis reductions are formed once per
setting, in trial blocks on element-major real planes, before any of its
points is scored, each element sum one ordered reduce
(kernels.multicell_edge_gains). The setting changes
only the edge user's gains, so per K the center SINRs are formed once per
center key (cooperative set, zeta_edge, transmit and noise powers) and
their sums once per center key and rate thresholds; each point scores only
its edge user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .channel import substream
from .montecarlo import CHUNK
from .ris import phasors
from .scenarios import MultiCellScenario

_STREAM_MC = 301

MODES = ("no-ris", "random", "eo", "ec")

# The RIS setting of cooperative / non-cooperative cells under each network
# mode: "off", "random" or the share of a cell's K elements anti-phased,
# ceil(share K) of them (kernels.multicell_edge_gains), 0.0 enhancement and
# 1.0 cancellation. Under "eo" only cooperative surfaces are optimized;
# non-cooperative ones keep random phases. Under "ec" they anti-phase their
# own interference cascade. At J = I the two coincide. A split point sets
# every cell to its split.
_NETWORK_MODES = {"no-ris": ("off", "off"), "random": ("random", "random"),
                  "eo": (0.0, "random"), "ec": (0.0, 1.0)}


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


# Trial x cell x element entries of one trial block: each K's element-axis
# work (Rician vectors, the cascade and phasor planes (K, b, I) of b trials,
# kernels.multicell_edge_gains) runs one block at a time, so its arrays stay
# this small while the chunk's normal stream is held.
_BLOCK = 1 << 15


def _rician(re, im, w_los: float, w_nlos: float, scale: float | None = None):
    """Complex Rician vectors w_los + w_nlos sqrt(1/2) (re + j im), or, given
    scale, their conjugates times scale; each part is formed on a real array
    and written once (the bits of numpy's complex ops by real scalars)."""
    out, c = np.empty(re.shape, complex), w_nlos * math.sqrt(0.5)
    part = np.multiply(re, c)
    if scale is None:
        np.add(part, w_los, out=out.real)
        np.multiply(im, c, out=out.imag)
        return out
    part += w_los
    np.multiply(part, scale, out=out.real)
    np.multiply(np.multiply(im, c, out=part), -scale, out=out.imag)
    return out


def _center_gains(scn: MultiCellScenario, rng, m: int):
    """Center-user direct gains |h_{j -> center_i}|^2, source-major
    (I, m, I), [j, :, i], with own-cell distance d_center and cross
    distances d_ici: |h|^2 of h = sqrt(1/2) (re + j im), formed in place on
    the real and imaginary normals, drawn (m, I, I)."""
    n_cells = scn.n_cells
    sqrt_half = math.sqrt(0.5)
    re = rng.standard_normal((m, n_cells, n_cells))
    im = rng.standard_normal((m, n_cells, n_cells))
    for part in (re, im):
        part *= sqrt_half
        np.multiply(part, part, out=part)
    re += im
    own = scn.gain(scn.d_center, scn.alpha_center)
    cross = scn.gain(scn.d_ici, scn.alpha_ici)
    scale = np.full((n_cells, n_cells), cross)
    np.fill_diagonal(scale, own)
    return np.multiply(np.moveaxis(re, 1, 0), scale[:, None, :],
                       out=im.reshape(n_cells, m, n_cells))


def _edge_gains(scn: MultiCellScenario, ed, normals, rng, k: int, settings):
    """Per-cell edge gains of m trials at K = k elements under each RIS
    setting (kernels.multicell_edge_gains), formed one trial block at a
    time into full (m, I) arrays.

    ed: (m, I) edge-direct links; normals: the 4 mIK normals of h_br re/im,
    then h_ru re/im. The random phases are drawn from rng, block by block,
    and become phasors only when settings holds "random"."""
    m, n_cells = ed.shape
    # Rician BS->RIS and RIS->edge vectors, per cell. The LoS steering phase
    # profile is arbitrary for the statistics; a fixed broadside profile keeps
    # draws cheap. Cascade product folds both path losses.
    w_los, w_nlos = scn.rician_weights
    g_casc = math.sqrt(scn.gain(scn.d_bs_ris, scn.alpha_ris)) * math.sqrt(
        scn.gain(scn.d_ris_edge, scn.alpha_ris))
    br_re, br_im, ru_re, ru_im = normals.reshape(4, m, n_cells, k)
    gains = {s: np.empty((m, n_cells)) for s in settings}
    step = max(1, _BLOCK // max(1, n_cells * k))
    for t0 in range(0, m, step):
        t = slice(t0, t0 + step)
        shape = br_re[t].shape
        # casc = (g conj(h_ru)) h_br by numpy's complex multiply, whose loop
        # fixes its bits, copied once into element-major planes (re, im),
        # each (K, b, I); the phasors' planes (cos, sin) follow them
        # (ris.phasors, by the tangent half-angle identity).
        casc = _rician(br_re[t], br_im[t], w_los, w_nlos)
        np.multiply(_rician(ru_re[t], ru_im[t], w_los, w_nlos, g_casc), casc, out=casc)
        planes = np.stack([np.moveaxis(part, -1, 0) for part in (casc.real, casc.imag)])
        del casc
        # The phases are drawn whether or not a setting reads them, so the
        # stream stays where every K's center gains expect it; only "random"
        # turns them into phasors.
        phi = rng.uniform(-math.pi, math.pi, shape)
        rnd = (phasors(np.moveaxis(phi, -1, 0), np.empty_like(planes))
               if "random" in settings else None)
        del phi  # before the kernel allocates its temporaries
        for key, g in kernels.multicell_edge_gains(ed[t], planes, rnd, settings).items():
            gains[key][t] = g
        del planes, rnd  # before the next block allocates its own
    return gains


# MultiCellScenario fields the draws read besides k_elements: points of one
# simulate_network call must agree on them to share its draws. Each point's
# K cuts its own prefix of the chunk's normal stream.
_DRAW_FIELDS = (
    "n_cells", "kappa_db", "rho_o_db", "d_center", "d_edge",
    "d_ici", "d_bs_ris", "d_ris_edge", "alpha_center", "alpha_edge",
    "alpha_ris", "alpha_ici",
)


def chunk_bytes(n_cells: int, k_max: int, n: int, n_splits: int) -> int:
    """Bytes simulate_network holds per chunk of min(n, CHUNK) = m trials of
    n_cells = I cells at element counts up to k_max, for points at n_splits
    distinct element splits: the normal stream, 8 (2mI + 4mI k_max); the
    center gains, 16 mI^2 while drawn (_center_gains); 24 per-cell (m, I)
    float arrays for the edge-direct links, the edge gains of the modes'
    settings ("off", "random" and the anti-phased counts 0 and K), two
    center keys' SINRs and the center kernel's accumulators and temporaries
    (at most 12); one more (m, I) array of
    edge gains per other anti-phased count ceil(split K) of a split point,
    of which there are at most min(n_splits, k_max + 1); and one trial
    block's arrays, each of E <= max(_BLOCK, I k_max) entries or of its
    b <= m trials x I cells: at most 9 E-arrays and 11 bI-arrays at once.
    Forming the cascade holds its complex factors and a real temporary (5),
    its element-major planes the phases, the phasors' planes and t^2 (6);
    the kernel holds both planes, its K + 1 rows and a temporary (6), with
    element sums of at most 2K + 1 rows and gains of K + 3 settings."""
    m = min(n, CHUNK)
    per_cell = 24 + min(n_splits, k_max + 1)
    return (8 * (2 * m * n_cells + 4 * m * n_cells * k_max) + 16 * m * n_cells**2
            + 8 * per_cell * m * n_cells
            + 8 * (9 * max(_BLOCK, n_cells * k_max) + 11 * m * n_cells))


def _sinr_threshold(r_min: float, share: float) -> float:
    """SINR threshold 2^(r_min / share) - 1 of a rate target, or +inf where
    that power of two leaves the float range: no SINR reaches it, so every
    trial is in outage."""
    try:
        return 2.0 ** (r_min / share) - 1.0
    except OverflowError:
        return math.inf


class _Sums:
    """Running sums of one access scheme whose users hold a share of the
    slot (1.0 NOMA, 0.5 OMA): a rate is share * log2(1 + SINR), and its
    outage threshold on the SINR is 2^(R_min / share) - 1 (_sinr_threshold).
    A point sums its edge user in its own _Sums (add_edge); its center users
    are summed in the _Sums its center key shares (add_center)."""

    def __init__(self, scn: MultiCellScenario, share: float):
        self.share = share
        self.thr_c = _sinr_threshold(scn.r_center_min, share)
        self.thr_f = _sinr_threshold(scn.r_edge_min, share)
        self.c_rate = np.zeros(scn.n_cells)
        self.c_out = np.zeros(scn.n_cells)
        self.e_rate = self.e_out = 0.0

    def add_edge(self, edge):
        self.e_rate += self.share * float(np.sum(np.log2(1.0 + edge)))
        self.e_out += float(np.sum(edge < self.thr_f))

    def add_center(self, center, sic=None):
        """One chunk's center SINRs. A NOMA center user is also in outage
        when its SIC stage's SINR, sic, misses the edge user's target."""
        out = center < self.thr_c
        if sic is not None:
            out |= sic < self.thr_f
        self.c_rate += self.share * np.sum(np.log2(1.0 + center), axis=0)
        self.c_out += np.sum(out, axis=0)


def _center_key(scn: MultiCellScenario):
    """What a point's center SINRs read besides the draws: the cooperative
    set (the first n_coop cells), zeta_edge, the transmit power and the
    noise power."""
    return scn.n_coop, scn.zeta_edge, scn.tx_power_w, scn.noise_w


class _Point:
    """Per-point constants, the NOMA and OMA edge sums of one
    simulate_network point, and the center sums (center: NOMA, OMA) it
    shares with every point of its K, center key and rate thresholds."""

    def __init__(self, scn: MultiCellScenario, mode: str, split: float | None, center):
        if mode not in _NETWORK_MODES:
            raise ValueError(f"unknown network mode {mode!r}; choose from {MODES}")
        self.scn = scn
        self.coop = np.arange(scn.n_cells) < scn.n_coop
        coop_s, noncoop_s = _NETWORK_MODES[mode] if split is None else (split, split)
        self.settings = [s if isinstance(s, str) else math.ceil(s * scn.k_elements)
                         for s in (coop_s if c else noncoop_s for c in self.coop)]
        self.noma, self.oma = _Sums(scn, 1.0), _Sums(scn, 0.5)
        self.center = center

    def edge_gains(self, gains):
        return np.stack([gains[s][:, i] for i, s in enumerate(self.settings)], axis=1)

    def aggregates(self, n: int) -> tuple[Aggregates, Aggregates]:
        return tuple(
            Aggregates(c.c_rate / n, c.c_out / n, e.e_rate / n, e.e_out / n)
            for e, c in zip((self.noma, self.oma), self.center)
        )


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
    ValueError, as for a mode not in MODES. The powers, thresholds,
    cooperative set (the first n_coop cells), element count K and mode of a
    point come from its scn_v. split, when not None, replaces the mode's RIS
    setting of every cell, cooperative or not, by ceil(split K) anti-phased
    elements, the rest co-phased; used by the split-ratio experiment. OMA
    is equal-time TDMA on the same draws.

    Chunk c of m trials comes from substream (seed, 301, c), and a point's
    draws are those of a call at its K alone: edge-direct normals (2mI),
    h_br and h_ru normals (4mIK), K's phases (mIK uniforms), then its center
    gains (2mI^2 normals). The first 2mI + 4mIK normals are shared by every
    K, so they fill one buffer of 2mI + 4mI K_max float64 in ascending K;
    each K draws its phases and center gains from the generator state saved
    at the end of its prefix, restored before the buffer grows. The buffer
    (118 MB at m = 4096, I = 6, K_max = 150; chunk_bytes) is held while the
    chunk is scored, so each K's element work runs in trial blocks
    (_edge_gains).

    The RIS settings change only the edge user's gains. So, per chunk
    and K, the center SINRs are formed once per distinct center key
    (_center_key), and their NOMA and OMA rate and outage sums once per
    center key and (r_center_min, r_edge_min); each point keeps only its
    edge sums. Every sum adds its chunks in order, so a point's aggregates
    are bitwise those of a call with that point alone.
    """
    by_k = {}  # K -> (points, {center key: {thresholds: (NOMA, OMA) center sums}})
    pts = []
    for scn_v, mode, split in points:
        differ = [f for f in _DRAW_FIELDS if getattr(scn_v, f) != getattr(scn, f)]
        if differ:
            raise ValueError(
                f"point ({mode!r}) differs from the drawn scenario in {', '.join(differ)}"
            )
        group, centers = by_k.setdefault(scn_v.k_elements, ([], {}))
        by_thr = centers.setdefault(_center_key(scn_v), {})
        thr = (scn_v.r_center_min, scn_v.r_edge_min)
        if thr not in by_thr:
            by_thr[thr] = (_Sums(scn_v, 1.0), _Sums(scn_v, 0.5))
        pts.append(_Point(scn_v, mode, split, by_thr[thr]))
        group.append(pts[-1])
    n_cells = scn.n_cells
    g_edge_direct = math.sqrt(scn.gain(scn.d_edge, scn.alpha_edge))
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        rng = substream(seed, _STREAM_MC, start // CHUNK)
        mi = m * n_cells
        stream = np.empty(2 * mi + 4 * mi * max(by_k, default=0))
        rng.standard_normal(out=stream[:2 * mi])
        ed = stream[:mi].reshape(m, n_cells) + 1j * stream[mi:2 * mi].reshape(m, n_cells)
        ed *= math.sqrt(0.5) * g_edge_direct
        filled = 2 * mi
        for k in sorted(by_k):
            end = 2 * mi + 4 * mi * k
            rng.standard_normal(out=stream[filled:end])
            filled = end
            # K's phases and center gains come next in its stream; the next
            # K's normals continue from here.
            state = rng.bit_generator.state
            group, centers = by_k[k]
            gains = _edge_gains(scn, ed, stream[2 * mi:end], rng, k,
                                {s for p in group for s in p.settings})
            cg = _center_gains(scn, rng, m)
            rng.bit_generator.state = state
            for (n_coop, zeta, p_w, sigma2), by_thr in centers.items():
                c_own, c_cf, c_oma = kernels.multicell_center_sinr(
                    cg, np.arange(n_cells) < n_coop, zeta, p_w, sigma2)
                for noma, oma in by_thr.values():
                    noma.add_center(c_own, c_cf)
                    oma.add_center(c_oma)
            del cg
            for p in group:
                edge, edge_oma = kernels.multicell_edge_sinr(
                    p.edge_gains(gains), p.coop, p.scn.zeta_edge,
                    p.scn.tx_power_w, p.scn.noise_w,
                )
                p.noma.add_edge(edge)
                p.oma.add_edge(edge_oma)
    return [p.aggregates(n) for p in pts]

