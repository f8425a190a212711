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
(kernels.multicell_edge_gains). The points are then scored as a table per
K and cooperative set, in blocks of points and, since the setting changes
only the edge user's gains, of center keys, one SINR kernel call per
block; the rate and outage tallies are arrays over points and keys.
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
    time into one table, settings[s] the row of setting s, (rows, m, I).

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
    gains = np.empty((len(settings), m, n_cells))
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
            gains[settings[key], t] = g
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
    float arrays: the edge-direct links, the gain table's rows of the
    modes' settings ("off", "random" and the anti-phased counts 0 and K)
    and a center block of one key (18); one more row per other anti-phased
    count ceil(split K) of a split point, at most min(n_splits, k_max + 1);
    and one trial block's or one scoring block's arrays. A trial block's
    arrays each hold E <= max(_BLOCK, I k_max) entries or its b <= m trials
    x I cells: at most 9 E-arrays and 11 bI-arrays. Forming the cascade holds
    its complex factors and a real temporary (5), its element-major planes
    the phases, the phasors' planes and t^2 (6); the kernel holds both
    planes, its K + 1 rows and a temporary (6), with element sums of at most
    2K + 1 rows and gains of K + 3 settings. A scoring block of P points
    holds at most 8 arrays of Pm <= max(m, _BLOCK) entries (two gain rows,
    three sums, two SINRs, a temporary); one of C center keys at most 16 of
    CmI <= max(mI, _BLOCK / 2) (five sums, 3 + 5 temporaries, three SINRs):
    single rows fit the per-cell arrays, larger blocks the 9 E-arrays."""
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


# Each scheme's slot share, NOMA then OMA: a rate is share * log2(1 + SINR),
# and a rate target R_min is the SINR threshold 2^(R_min / share) - 1.
_SHARES = (1.0, 0.5)
# A point's center key: what its SINRs read besides draws and cooperative set.
_KEY = ("zeta_edge", "tx_power_w", "noise_w")


class _Group:
    """The points of one simulate_network call at one K and cooperative set
    as a table: point and center-key columns and, per scheme (NOMA, OMA),
    tallies as arrays: each point's edge rate and outage sums, each key's
    center rate sums and each key and rate-target pair's outage counts."""

    def __init__(self, pts, rows):
        self.index, scns, settings = zip(*pts)
        self.coop = np.arange(scns[0].n_cells) < scns[0].n_coop
        self.sel = np.array([[rows[s] for s in st] for st in settings]).T  # (I, P)
        keys, self.at = {}, []  # key -> (row, {rate targets: column}); per point (row, column)
        for s in scns:
            c, thr = keys.setdefault(tuple(getattr(s, f) for f in _KEY), (len(keys), {}))
            self.at.append((c, thr.setdefault((s.r_center_min, s.r_edge_min), len(thr))))
        self.point_cols = [np.array([getattr(s, f) for s in scns])[:, None] for f in _KEY]
        self.key_cols = [np.array(col)[:, None, None] for col in zip(*keys)]
        # Edge thresholds (2, P, 1); per rate-target column, (3, C, 1, 1),
        # the NOMA own and SIC and the OMA center thresholds, -inf where a
        # key has fewer columns: no SINR is below it.
        self.thr_f = np.array([[_sinr_threshold(s.r_edge_min, sh) for s in scns]
                               for sh in _SHARES])[..., None]
        self.thr_c = np.full((1 + max(t for _, t in self.at), 3, len(keys), 1, 1), -np.inf)
        for s, (c, t) in zip(scns, self.at):
            self.thr_c[t, :, c, 0, 0] = [_sinr_threshold(r, sh) for r, sh in (
                (s.r_center_min, 1.0), (s.r_edge_min, 1.0), (s.r_center_min, 0.5))]
        self.e_rate, self.e_out = np.zeros((2, 2, len(scns)))
        self.c_rate = np.zeros((2, len(keys), len(self.coop)))
        self.c_out = np.zeros((len(self.thr_c), 2, len(keys), len(self.coop)))

    def score(self, gains, cg):
        """Adds one chunk from the K's gain table (rows, m, I) and center
        gains (I, m, I), in blocks (chunk_bytes): per block one kernel call,
        one log2, one sum over trials and, per rate-target column, one count."""
        n_cells, m = cg.shape[:2]
        shares = np.array(_SHARES)[:, None]
        step = max(1, _BLOCK // (2 * m * n_cells))
        for b in (slice(c, c + step) for c in range(0, self.c_rate.shape[1], step)):
            sinr = kernels.multicell_center_sinr(cg, self.coop, *(x[b] for x in self.key_cols))
            self.c_rate[:, b] += shares[:, None] * np.sum(np.log2(1.0 + sinr[::2]), axis=2)
            for thr, out in zip(self.thr_c[:, :, b], self.c_out):
                below = sinr < thr
                below[1] |= below[0]  # NOMA: own message or SIC stage
                out[:, b] += np.count_nonzero(below[1:], axis=2)
            del sinr, below  # before the next block's kernel call
        step = max(1, _BLOCK // m)
        for b in (slice(p, p + step) for p in range(0, len(self.at), step)):
            edge = kernels.multicell_edge_sinr(
                (gains[sel, :, i] for i, sel in enumerate(self.sel[:, b])), self.coop,
                *(x[b] for x in self.point_cols))
            self.e_rate[:, b] += shares * np.sum(np.log2(1.0 + edge), axis=-1)
            self.e_out[:, b] += np.count_nonzero(edge < self.thr_f[:, b], axis=-1)
            del edge

    def aggregates(self, n: int):
        for p, (c, t) in enumerate(self.at):
            yield tuple(Aggregates(self.c_rate[s, c] / n, self.c_out[t, s, c] / n,
                                   float(self.e_rate[s, p]) / n, float(self.e_out[s, p]) / n)
                        for s in range(2))


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

    The points are scored as a table per K and cooperative set (_Group):
    per chunk, a block of center keys (_KEY) gets its SINRs from one kernel
    call with (C, 1, 1) columns, each key its rate sums once and outage
    counts once per rate-target pair (r_center_min, r_edge_min), and a block
    of points its edge SINRs from one call with (P, 1) columns. Every sum
    adds its chunks in order, each trial sum over a C-ordered block as over
    one point's trials, so a point's aggregates are bitwise those of a call
    with that point alone.
    """
    by_k = {}  # K -> {n_coop: [(index, scn_v, each cell's RIS setting)]}
    for i, (scn_v, mode, split) in enumerate(points):
        if differ := [f for f in _DRAW_FIELDS if getattr(scn_v, f) != getattr(scn, f)]:
            raise ValueError(f"point ({mode!r}) differs from the drawn scenario in "
                             f"{', '.join(differ)}")
        if mode not in _NETWORK_MODES:
            raise ValueError(f"unknown network mode {mode!r}; choose from {MODES}")
        coop_s, noncoop_s = _NETWORK_MODES[mode] if split is None else (split, split)
        settings = [s if isinstance(s, str) else math.ceil(s * scn_v.k_elements)
                    for s in [coop_s] * scn_v.n_coop + [noncoop_s] * (scn.n_cells - scn_v.n_coop)]
        by_k.setdefault(scn_v.k_elements, {}).setdefault(scn_v.n_coop, []).append(
            (i, scn_v, settings))
    tables = {}  # K -> ({setting: its gain-table row}, the K's groups)
    for k, by_j in by_k.items():
        rows = {kind: r for r, kind in enumerate(dict.fromkeys(
            s for pts in by_j.values() for _, _, st in pts for s in st))}
        tables[k] = rows, [_Group(pts, rows) for pts in by_j.values()]
    n_cells = scn.n_cells
    g_edge_direct = math.sqrt(scn.gain(scn.d_edge, scn.alpha_edge))
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        rng = substream(seed, _STREAM_MC, start // CHUNK)
        mi = m * n_cells
        stream = np.empty(2 * mi + 4 * mi * max(tables, default=0))
        rng.standard_normal(out=stream[:2 * mi])
        ed = stream[:mi].reshape(m, n_cells) + 1j * stream[mi:2 * mi].reshape(m, n_cells)
        ed *= math.sqrt(0.5) * g_edge_direct
        filled = 2 * mi
        for k in sorted(tables):
            end = 2 * mi + 4 * mi * k
            rng.standard_normal(out=stream[filled:end])
            filled = end
            # K's phases and center gains come next in its stream; the next
            # K's normals continue from here.
            state = rng.bit_generator.state
            rows, groups = tables[k]
            gains = _edge_gains(scn, ed, stream[2 * mi:end], rng, k, rows)
            cg = _center_gains(scn, rng, m)
            rng.bit_generator.state = state
            for group in groups:
                group.score(gains, cg)
            del gains, cg  # before the next K's are formed
    out = {i: pair for _, groups in tables.values() for group in groups
           for i, pair in zip(group.index, group.aggregates(n))}
    return [out[i] for i in range(len(points))]
