import math
from dataclasses import replace

import numpy as np
import pytest

from riscomp.channel import substream
from riscomp.montecarlo import (
    SINR_KINDS,
    TrialBatch,
    estimate_ergodic_rate,
    estimate_outage,
    ks_statistic,
    run_trials,
)
from riscomp.scenarios import CoordinatedScenario
from riscomp.stats import GammaParams

SCN = CoordinatedScenario(p_t_dbm=-20.0)


def _synthetic_batch(arrays: dict) -> TrialBatch:
    n = len(next(iter(arrays.values())))
    full = {k: np.asarray(arrays.get(k, np.ones(n)), dtype=float) for k in SINR_KINDS}
    return TrialBatch(sinr=full, n_trials=n)


def test_empty_batch():
    batch = run_trials(SCN, 0, seed=1).batch(SCN)
    assert batch.n_trials == 0
    with pytest.raises(ValueError):
        estimate_ergodic_rate(batch)


def test_determinism_both_couplings():
    for coupling in ("physical", "fitted"):
        a = run_trials(SCN, 5000, seed=3, coupling=coupling).batch(SCN)
        b = run_trials(SCN, 5000, seed=3, coupling=coupling).batch(SCN)
        for kind in SINR_KINDS:
            assert np.array_equal(a.sinr[kind], b.sinr[kind]), (coupling, kind)


def test_chunking_invariance():
    # Results must not depend on how many chunks the trial range spans.
    a = run_trials(SCN, 5000, seed=9).batch(SCN)
    b = run_trials(SCN, 4096, seed=9).batch(SCN)
    for kind in SINR_KINDS:
        assert np.array_equal(a.sinr[kind][:4096], b.sinr[kind])


def test_vanishing_power_means_outage_everywhere():
    # Degenerate scenario: transmit power so low every link is effectively
    # blocked; all SINRs ~ 0 and every outage indicator is true.
    scn = replace(SCN, p_t_dbm=-200.0)
    batch = run_trials(scn, 500, seed=5).batch(scn)
    for kind in SINR_KINDS:
        assert np.all(batch.sinr[kind] < 1e-9)
    outage = estimate_outage(batch, scn)
    assert all(v == 1.0 for v in outage.values())


def test_ks_calibration():
    # Samples from the tested CDF itself pass at alpha = 0.01 in >= 19/20 runs.
    passes = 0
    for seed in range(20):
        samples = substream(seed, 2).exponential(1.0, 10_000)
        _, ok, _ = ks_statistic(samples, lambda x: 1.0 - np.exp(-x))
        passes += ok
    assert passes >= 19


def test_ks_power_against_shift():
    samples = substream(3, 3).exponential(1.0, 10_000) + 0.05
    d, ok, crit = ks_statistic(samples, lambda x: 1.0 - np.exp(-x))
    assert not ok and d > crit


def test_ks_needs_samples():
    with pytest.raises(ValueError):
        ks_statistic(np.ones(50), lambda x: x)


@pytest.mark.parametrize("cdf", [
    lambda x: 1.0 - math.exp(-x),  # scalar-only: math rejects an array
    GammaParams(2.0, 1.0).cdf,  # scalar-only: `if x <= 0` on an array
    lambda x: 0.5,  # a scalar for the whole sample
    lambda x: (1.0 - np.exp(-x))[:-1],  # one point short
])
def test_ks_rejects_cdf_not_mapping_arrays(cdf):
    samples = substream(5, 5).exponential(1.0, 200)
    with pytest.raises(ValueError, match="must map an array of points to an array"):
        ks_statistic(samples, cdf)


def test_ks_calls_cdf_once_on_sorted_sample():
    samples = substream(6, 6).exponential(1.0, 300)
    calls = []

    def cdf(x):
        calls.append(x.copy())
        return 1.0 - np.exp(-x)

    ks_statistic(samples, cdf)
    assert len(calls) == 1 and np.array_equal(calls[0], np.sort(samples))


def test_estimate_outage_extremes():
    n = 100
    all_out = _synthetic_batch({k: np.zeros(n) for k in SINR_KINDS})
    assert all(v == 1.0 for v in estimate_outage(all_out, SCN).values())
    none_out = _synthetic_batch({k: np.full(n, 100.0) for k in SINR_KINDS})
    assert all(v == 0.0 for v in estimate_outage(none_out, SCN).values())


def test_outage_at_the_threshold_is_not_outage_at_minus_10_db():
    # Every SINR sits exactly on the -10 dB thresholds (0.1). The events are
    # strict, as in the closed forms' CDFs, so no user is out. A threshold
    # sent through a target rate and back, 2^log2(1 + 0.1) - 1, is
    # 0.10000000000000009 and would put every user out.
    scn = replace(SCN, thresholds_db=(-10.0, -10.0))
    assert scn.threshold_center == scn.threshold_edge == 0.1
    batch = _synthetic_batch({k: np.full(8, scn.threshold_edge) for k in SINR_KINDS})
    assert estimate_outage(batch, scn) == dict.fromkeys(
        ("center1", "center2", "edge", "edge_nocomp"), 0.0)


def test_estimate_outage_binomial():
    rng = substream(6, 6)
    n = 10_000
    # Edge SINR below the threshold with probability 0.3.
    edge = np.where(rng.uniform(size=n) < 0.3, 0.0, 10.0)
    batch = _synthetic_batch({"edge": edge})
    out = estimate_outage(batch, SCN)
    assert out["edge"] == pytest.approx(0.30, abs=0.015)


def test_estimate_ergodic_rate_constant():
    batch = _synthetic_batch({k: np.ones(64) for k in SINR_KINDS})
    er = estimate_ergodic_rate(batch)
    assert er["center1"] == 1.0
    assert er["edge"] == 1.0


def test_estimator_consistency_sqrt_n():
    # Doubling n shrinks the standard error of the outage estimate by
    # ~1/sqrt(2); 40 seeds keep the std-of-std noise inside the 20% band.
    scn = replace(SCN, p_t_dbm=-22.0)
    est1, est2 = [], []
    for seed in range(40):
        est1.append(estimate_outage(run_trials(scn, 1000, seed=seed).batch(scn), scn)["center1"])
        est2.append(estimate_outage(run_trials(scn, 2000, seed=1000 + seed).batch(scn),
                                    scn)["center1"])
    ratio = np.std(est2) / np.std(est1)
    assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.20)


def test_outage_monotone_in_power_common_random_numbers():
    draws = run_trials(SCN, 10_000, seed=11)
    prev = None
    for p_t in (-20, -15, -10, -5, 0, 5):
        scn = replace(SCN, p_t_dbm=float(p_t))
        out = estimate_outage(draws.batch(scn), scn)
        if prev is not None:
            assert out["edge"] <= prev + 1e-12
        prev = out["edge"]


def test_invalid_coupling():
    with pytest.raises(ValueError):
        run_trials(SCN, 10, seed=0, coupling="other")


@pytest.mark.parametrize("coupling", ["physical", "fitted"])
def test_draws_do_not_depend_on_power_or_allocation(coupling):
    # Scoring one power's draws at another scenario equals drawing there.
    draws = run_trials(SCN, 5000, seed=4, coupling=coupling)
    for other in (replace(SCN, p_t_dbm=7.5),
                  replace(SCN, p_t_dbm=-33.0, zeta_center=0.2, zeta_edge=0.8)):
        scored = draws.batch(other)
        direct = run_trials(other, 5000, seed=4, coupling=coupling).batch(other)
        for kind in SINR_KINDS:
            assert np.array_equal(scored.sinr[kind], direct.sinr[kind]), (coupling, kind)


@pytest.mark.parametrize("changes", [
    {"k_elements": 36, "assignment": (18, 18)},
    {"beta_t": 0.6, "beta_r": 0.4},
    {"m_direct": 2.0},
    {"m_bs_ris": 3.0},
    {"m_ris_user": 1.5},
    {"edge": (0.0, 36.0, 1.0)},
    {"ris": (0.0, 25.0, 6.0)},
    {"alpha_ici": 3.8},
    {"alpha_ris_edge": 2.4},
    {"rho_o_db": -31.0},
])
def test_scoring_at_other_links_or_amplitudes_raises(changes):
    draws = run_trials(SCN, 100, seed=4)
    with pytest.raises(ValueError, match="drawn from"):
        draws.batch(replace(SCN, **changes))
