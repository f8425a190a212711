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

No draw depends on power or allocation: `run_trials` yields a run's draws
chunk by chunk, 17 float64 per trial of one chunk in one reused buffer, and
`TrialDraws.batch` scores a chunk per scenario at the kinds its caller
reads, kind -> (m,) SINR samples in `SINR_KINDS` order. No code path holds
a whole run's draws. The sweeps add each chunk's `rate_sums` and
`outage_counts` into per-point tallies and divide by n once;
pdf-validation copies each chunk's batch into its whole samples, which the
KS test needs, and `run_bytes` is its peak size, which `validate` bounds.

The estimators score a batch at the scenario's own SINR thresholds, the
numbers the closed forms in `analysis` read, and the KS test compares a
sample with a fitted CDF at the fixed level alpha = 0.01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterator

import numpy as np

from . import kernels
from .channel import substream
from .kernels import SINR_KINDS  # re-exported, beside USER_SINR
from .scenarios import CoordinatedScenario

CHUNK = 4096

# Stream labels (part of the documented substream scheme).
_STREAM_TRIALS = 101

# The SINR kind each user's rate reads, in the order the sweep tables list
# the users; the no-CoMP edge SINR is a baseline, not a user.
USER_SINR = {"center1": "center1_own", "center2": "center2_own", "edge": "edge"}

# The SINR kinds each coordinated run kind reads: those with a closed-form
# law (all but the no-CoMP edge baseline), the users' kinds, and all.
BATCH_KINDS = {"pdf-validation": SINR_KINDS[:-1], "er-sweep": tuple(USER_SINR.values()),
               "outage-sweep": SINR_KINDS}

KS_COEFF = 1.63  # asymptotic KS critical value times sqrt(n) at alpha = 0.01
KS_MIN_SAMPLES = 100  # below this the asymptotic critical values do not hold


def _drawn_from(scn: CoordinatedScenario) -> tuple:
    """The links (CoordinatedScenario.links) and cascade amplitudes (center,
    edge) that a scenario's trials are drawn from."""
    return (*scn.links, scn.cascade_amp_center(), scn.cascade_amp_edge())


@dataclass(frozen=True)
class TrialDraws:
    """Combined cascade rows z (N_Z_ROWS, m) and interference powers x
    (N_X_ROWS, m) of one chunk of m trials, and what they were drawn from."""

    z: np.ndarray
    x: np.ndarray
    drawn_from: tuple

    def batch(self, scenario: CoordinatedScenario,
              kinds: Collection[str] = SINR_KINDS) -> dict[str, np.ndarray]:
        """The trials' SINRs of `kinds` alone (default every kind) at the
        scenario's rho and zeta, kind -> (m,) samples in SINR_KINDS order,
        fresh arrays that outlive the chunk's draws.
        ValueError if a kind is unknown (naming it) or the scenario's links
        or cascade amplitudes are not those drawn from."""
        if _drawn_from(scenario) != self.drawn_from:
            raise ValueError("the scenario's links or cascade amplitudes are not those drawn from")
        return kernels.coordinated_sinr(self.z, self.x, scenario.zeta_center,
                                        scenario.zeta_edge, scenario.rho, kinds)


# The kernel's Z rows of each (BS, user) block in draw order (center 1, 2,
# edge 1, 2, as CoordinatedScenario.links), then the interference rows.
_Z_BLOCKS = ((kernels.Z_CF1_S, kernels.Z_CF1_I, kernels.Z_C1_S),
             (kernels.Z_CF2_S, kernels.Z_CF2_I, kernels.Z_C2_S),
             (kernels.Z_F1_V, kernels.Z_F1_W, kernels.Z_NC1_V, kernels.Z_NC1_W),
             (kernels.Z_F2_V, kernels.Z_F2_W, kernels.Z_NC2_W))
_X_BLOCKS = ((kernels.X_CF1, kernels.X_C1), (kernels.X_CF2, kernels.X_C2))


def _nakagami_pow_into(rng, p, out) -> None:
    """Squared-magnitude draws Gamma(m, omega/m) into out: numpy's
    gamma(m, s) is s * standard_gamma(m), bit for bit."""
    rng.standard_gamma(p.m, out=out)
    out *= p.omega / p.m


def run_trials(
    scenario: CoordinatedScenario,
    n: int,
    seed: int,
    coupling: str = "physical",
) -> Iterator[TrialDraws]:
    """n independent channel realizations, one TrialDraws per chunk of
    CHUNK trials in chunk order (the last chunk may be short), which
    `TrialDraws.batch` scores at any power and allocation. Every chunk is
    drawn into the same (17, CHUNK) buffer, so a chunk's draws hold only
    until the next chunk is asked for: score each before that. A Z row's
    powers are drawn into one reused (3, CHUNK) buffer and combined in its
    row of z, an x row is drawn in place; physical mode copies shared rows.
    ValueError, once iteration starts, for n < 0 or an unknown coupling."""
    if n < 0:
        raise ValueError("trial count must be >= 0")
    if coupling not in ("physical", "fitted"):
        raise ValueError("coupling must be 'physical' or 'fitted'")
    shared = coupling == "physical"
    c1, c2, e1, e2, amp_c, amp_e = drawn_from = _drawn_from(scenario)
    z_buf = np.empty((kernels.N_Z_ROWS, min(n, CHUNK)))
    x_buf = np.empty((kernels.N_X_ROWS, min(n, CHUNK)))
    pow_buf = np.empty((3, min(n, CHUNK)))
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        z, x, pow3 = z_buf[:, :m], x_buf[:, :m], pow_buf[:, :m]
        rng = substream(seed, _STREAM_TRIALS, start // CHUNK)
        for links, amp, rows in zip((c1, c2, e1, e2), (amp_c, amp_c, amp_e, amp_e), _Z_BLOCKS):
            for r in rows[:1] if shared else rows:
                for row, link in zip(pow3, ("direct", "bs_ris", "ris_user")):
                    _nakagami_pow_into(rng, links[link], row)
                kernels.coordinated_z(pow3, amp, z[r])
        for links, rows in zip((c1, c2), _X_BLOCKS):
            for r in rows[:1] if shared else rows:
                _nakagami_pow_into(rng, links["ici"], x[r])
        if shared:
            for a, blocks in ((z, _Z_BLOCKS), (x, _X_BLOCKS)):
                for rows in blocks:
                    a[list(rows[1:])] = a[rows[0]]
        yield TrialDraws(z=z, x=x, drawn_from=drawn_from)


# What pdf-validation holds that no trial count scales: the draws of one
# chunk and their (3, CHUNK) buffer, one chunk's batch, one block of the
# incomplete beta's continued fraction (special._BLOCK entries, about 22
# arrays of it at once in the KS CDF), the closed forms and the rows of the
# table.
_FIXED_BYTES = 8 << 20


def run_bytes(n: int) -> int:
    """Bytes pdf-validation holds at its peak at n trials, computed, never
    allocated: 8 per entry of each trial-sized array, plus _FIXED_BYTES.
    The sweeps hold no trial-sized array. pdf-validation fills its (2, L, n)
    samples of L laws chunk by chunk; its KS test then holds the samples
    and the 2L sorted rows, and beside them the CDF holds 2L points and 2L
    values, and then the sup distance the values, a difference and its
    absolute value, 2L rows each, and the grids hi and lo: 10 L + 2 arrays
    of n."""
    return 8 * (10 * len(BATCH_KINDS["pdf-validation"]) + 2) * n + _FIXED_BYTES


def ks_statistic(
    samples,
    cdf: Callable[[np.ndarray], np.ndarray],
) -> tuple:
    """One-sample KS sup-distance against an analytic CDF.

    samples is one sample (n,) or L samples stacked as rows (L, n), each row
    tested on its own. `cdf` maps an array of points to an array of
    probabilities of the same shape; it is called once, on the sorted sample
    (each row sorted). A callable that does not (a scalar-only function)
    raises ValueError.

    Returns (D, passed, critical) with critical = KS_COEFF/sqrt(n), the
    alpha = 0.01 level: D a float and passed a bool for one sample, arrays of
    L for a stack.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim not in (1, 2):
        raise ValueError(f"KS samples must be (n,) or (L, n), got shape {samples.shape}")
    n = samples.shape[-1]
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS test needs at least {KS_MIN_SAMPLES} samples")
    s = np.sort(samples, axis=-1)
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
    d = np.maximum(np.max(np.abs(hi - f), axis=-1), np.max(np.abs(lo - f), axis=-1))
    critical = KS_COEFF / math.sqrt(n)
    if samples.ndim == 1:
        d = float(d)
    return d, d < critical, critical


def outage_counts(batch: dict[str, np.ndarray], scn: CoordinatedScenario) -> np.ndarray:
    """Per-user outage counts of a batch (TrialDraws.batch) at the
    scenario's SINR thresholds, as integers in USER_SINR order, then the
    no-CoMP edge baseline's, `edge_nocomp`. The events are strict, SINR <
    threshold, as in the closed forms' CDFs; a center user is out when SIC
    of the edge message fails or its own message does. A run's outage
    frequencies are its chunks' counts added, divided by n once."""
    thr_c, thr_f = scn.threshold_center, scn.threshold_edge
    return np.array([*(np.count_nonzero((batch[f"center{i}_sic"] < thr_f)
                                        | (batch[f"center{i}_own"] < thr_c)) for i in (1, 2)),
                     *(np.count_nonzero(batch[kind] < thr_f) for kind in ("edge", "edge_nocomp"))])


def rate_sums(batch: dict[str, np.ndarray]) -> np.ndarray:
    """Per-user sums of the Shannon rate log2(1 + sinr) in bps/Hz over a
    batch (TrialDraws.batch), in USER_SINR order. A run's ergodic rates are
    its chunks' sums added in chunk order, divided by n once."""
    return np.array([np.sum(np.log1p(batch[kind]) / math.log(2.0)) for kind in USER_SINR.values()])
