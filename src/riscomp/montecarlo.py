"""Monte Carlo trial engine and goodness-of-fit statistics.

Trials for the coordinated two-cell scenario are generated under the
moment-matching model assumptions: Nakagami magnitudes with the co-phased
cascade K sqrt(beta) |h_iR| |h_Ru|. Two coupling modes are supported:

- "physical": within a trial, every SINR expression shares the same channel
  draws (the simulation view of the network).
- "fitted": every moment-matched building block (each Z, each interference
  term, numerator vs denominator) is drawn independently, mirroring the
  independence assumptions under which the closed forms are derived. This is
  the oracle the analytic framework is exact against, up to Gamma-fit error.

Reproducibility: trials are partitioned into fixed chunks of CHUNK trials;
chunk j draws from substream (seed, label, j), so results are independent of
worker count and scheduling.

No draw depends on power or allocation: `run_trials` draws once, 17 float64
per trial held until a sweep ends, and `TrialDraws.batch` scores per scenario.

The estimators score a batch at the scenario's own SINR thresholds, the
numbers the closed forms in `analysis` read, and the KS test compares a
sample with a fitted CDF at the fixed level alpha = 0.01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .channel import substream
from .scenarios import CoordinatedScenario

CHUNK = 4096

# Stream labels (part of the documented substream scheme).
_STREAM_TRIALS = 101

# In the order of the kernel's output rows.
SINR_KINDS = ("center1_own", "center1_sic", "center2_own", "center2_sic",
              "edge", "edge_nocomp")

KS_COEFF = 1.63  # asymptotic KS critical value times sqrt(n) at alpha = 0.01
KS_MIN_SAMPLES = 100  # below this the asymptotic critical values do not hold


@dataclass(frozen=True)
class TrialBatch:
    """Per-kind SINR sample arrays of n_trials trials each."""

    sinr: dict[str, np.ndarray]
    n_trials: int

    def __post_init__(self):
        for name, arr in self.sinr.items():
            if arr.shape != (self.n_trials,):
                raise ValueError(f"sample array {name} does not match n_trials")


def _drawn_from(scn: CoordinatedScenario) -> tuple:
    """The links (center 1, 2, edge 1, 2) and cascade amplitudes (center,
    edge) that a scenario's trials are drawn from."""
    return (scn.center_links(1), scn.center_links(2), scn.edge_links(1), scn.edge_links(2),
            scn.cascade_amp_center(), scn.cascade_amp_edge())


@dataclass(frozen=True)
class TrialDraws:
    """Combined cascade rows z (N_Z_ROWS, n) and interference powers x
    (N_X_ROWS, n) of n trials, and what they were drawn from."""

    z: np.ndarray
    x: np.ndarray
    drawn_from: tuple

    def batch(self, scenario: CoordinatedScenario) -> TrialBatch:
        """The trials' SINRs at the scenario's rho and zeta; ValueError if
        its links or cascade amplitudes are not those drawn from."""
        if _drawn_from(scenario) != self.drawn_from:
            raise ValueError("the scenario's links or cascade amplitudes are not those drawn from")
        res = kernels.coordinated_sinr(self.z, self.x, scenario.zeta_center, scenario.zeta_center,
                                       scenario.zeta_edge, scenario.rho)
        return TrialBatch(sinr=dict(zip(SINR_KINDS, res)), n_trials=self.z.shape[1])


def _nakagami_pow(rng, p, size):
    """Squared-magnitude draws: Gamma(m, omega/m)."""
    return rng.gamma(p.m, p.omega / p.m, size)


def _fill_z_rows(rng, z_pow, rows, links, n, shared):
    """Fill kernel Z rows for one (BS,user) block.

    The first row always draws; each later row draws afresh unless shared,
    in which case it reuses the first row's arrays.
    """
    for i, r in enumerate(rows):
        if i == 0 or not shared:
            h = _nakagami_pow(rng, links["direct"], n)
            a = _nakagami_pow(rng, links["bs_ris"], n)
            b = _nakagami_pow(rng, links["ris_user"], n)
        z_pow[r, 0], z_pow[r, 1], z_pow[r, 2] = h, a, b


def run_trials(
    scenario: CoordinatedScenario,
    n: int,
    seed: int,
    coupling: str = "physical",
) -> TrialDraws:
    """n independent channel realizations, drawn once: 17 float64 per
    trial, which `TrialDraws.batch` scores at any power and allocation."""
    if n < 0:
        raise ValueError("trial count must be >= 0")
    if coupling not in ("physical", "fitted"):
        raise ValueError("coupling must be 'physical' or 'fitted'")
    shared = coupling == "physical"
    c1, c2, e1, e2, amp_center, amp_edge = drawn_from = _drawn_from(scenario)
    amp = np.repeat([amp_center, amp_edge], [6, kernels.N_Z_ROWS - 6])
    z = np.empty((kernels.N_Z_ROWS, n))
    x = np.empty((kernels.N_X_ROWS, n))
    start = 0
    while start < n:
        chunk_index = start // CHUNK
        m = min(CHUNK, n - start)
        rng = substream(seed, _STREAM_TRIALS, chunk_index)
        z_pow = np.empty((kernels.N_Z_ROWS, 3, m))
        _fill_z_rows(rng, z_pow, (kernels.Z_CF1_S, kernels.Z_CF1_I, kernels.Z_C1_S),
                     c1, m, shared)
        _fill_z_rows(rng, z_pow, (kernels.Z_CF2_S, kernels.Z_CF2_I, kernels.Z_C2_S),
                     c2, m, shared)
        _fill_z_rows(rng, z_pow, (kernels.Z_F1_V, kernels.Z_F1_W, kernels.Z_NC1_V,
                                  kernels.Z_NC1_W), e1, m, shared)
        _fill_z_rows(rng, z_pow, (kernels.Z_F2_V, kernels.Z_F2_W, kernels.Z_NC2_W),
                     e2, m, shared)
        # Interference rows, coupled as the Z rows are.
        for links, rows in ((c1, (kernels.X_CF1, kernels.X_C1)),
                            (c2, (kernels.X_CF2, kernels.X_C2))):
            for i, r in enumerate(rows):
                if i == 0 or not shared:
                    draw = _nakagami_pow(rng, links["ici"], m)
                x[r, start:start + m] = draw
        z[:, start:start + m] = kernels.coordinated_z(z_pow, amp)
        start += m
    return TrialDraws(z=z, x=x, drawn_from=drawn_from)


def ks_statistic(
    samples,
    cdf: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, bool, float]:
    """One-sample KS sup-distance against an analytic CDF.

    `cdf` maps an array of points to an array of probabilities of the same
    shape; it is called once, on the sorted sample. A callable that does not
    (a scalar-only function) raises ValueError.

    Returns (D, passed, critical) with critical = KS_COEFF/sqrt(n), the
    alpha = 0.01 level.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS test needs at least {KS_MIN_SAMPLES} samples")
    s = np.sort(samples)
    contract = "the KS cdf must map an array of points to an array of probabilities"
    try:
        f = np.asarray(cdf(s), dtype=float)
    except (TypeError, ValueError) as exc:
        # What scalar-only code raises on an array: math.* a TypeError, an
        # `if x <= 0` test a ValueError.
        raise ValueError(f"{contract}; on the sample array it raised: {exc}") from exc
    if f.shape != s.shape:
        raise ValueError(f"{contract}: got shape {f.shape} for {s.shape} points")
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    d = max(float(np.max(np.abs(hi - f))), float(np.max(np.abs(lo - f))))
    critical = KS_COEFF / math.sqrt(n)
    return d, d < critical, critical


def estimate_outage(batch: TrialBatch, scn: CoordinatedScenario) -> dict[str, float]:
    """Per-user empirical outage frequencies at the scenario's SINR
    thresholds. The events are strict, SINR < threshold, as in the closed
    forms' CDFs; a center user is out when SIC of the edge message fails or
    its own message does."""
    if batch.n_trials == 0:
        raise ValueError("cannot estimate from an empty batch")
    s = batch.sinr
    thr_c, thr_f = scn.threshold_center, scn.threshold_edge
    out = {}
    for i in (1, 2):
        sic_fail = s[f"center{i}_sic"] < thr_f
        own_fail = s[f"center{i}_own"] < thr_c
        out[f"center{i}"] = float(np.mean(sic_fail | own_fail))
    out["edge"] = float(np.mean(s["edge"] < thr_f))
    out["edge_nocomp"] = float(np.mean(s["edge_nocomp"] < thr_f))
    return out


def estimate_ergodic_rate(batch: TrialBatch) -> dict[str, float]:
    """Per-user mean Shannon rate log2(1 + sinr) in bps/Hz."""
    if batch.n_trials == 0:
        raise ValueError("cannot estimate from an empty batch")
    s = batch.sinr
    kinds = {"center1": "center1_own", "center2": "center2_own",
             "edge": "edge", "edge_nocomp": "edge_nocomp"}
    return {user: float(np.mean(np.log1p(s[kind]) / math.log(2.0)))
            for user, kind in kinds.items()}
