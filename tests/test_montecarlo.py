import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (reference_batch, reference_mean_rates, reference_outage_frequencies,
                     reference_trial_draws)
from riscomp.channel import substream
from riscomp.montecarlo import (
    BATCH_KINDS,
    CHUNK,
    SINR_KINDS,
    USER_SINR,
    ks_statistic,
    outage_counts,
    rate_sums,
    run_trials,
)
from riscomp.scenarios import CoordinatedScenario
from riscomp.stats import GammaParams

SCN = CoordinatedScenario(p_t_dbm=-20.0)
OUTAGE_USERS = (*USER_SINR, "edge_nocomp")  # the order of outage_counts


def _streamed(scn, n, seed, coupling="physical", at=None):
    """kind -> (n,) SINR samples of run_trials' chunks drawn at scn and
    scored at `at` (default scn), each chunk's batch formed before the next
    chunk is drawn, then joined."""
    at = at or scn
    chunks = [draws.batch(at) for draws in run_trials(scn, n, seed, coupling)]
    return {kind: np.concatenate([c[kind] for c in chunks]) for kind in SINR_KINDS}


def _synthetic_batch(arrays: dict) -> dict:
    n = len(next(iter(arrays.values())))
    return {k: np.asarray(arrays.get(k, np.ones(n)), dtype=float) for k in SINR_KINDS}


def test_no_trials_yield_no_chunk():
    assert list(run_trials(SCN, 0, seed=1)) == []


def test_chunks_share_one_buffer():
    # No run holds more than one chunk of draws: every chunk is drawn into
    # the first one's buffer, the last one short.
    chunks = [(d.z, d.x) for d in run_trials(SCN, 2 * CHUNK + 5, seed=1)]
    assert [z.shape[1] for z, _ in chunks] == [CHUNK, CHUNK, 5]
    (z0, x0), *rest = chunks
    assert all(np.shares_memory(z, z0) and np.shares_memory(x, x0) for z, x in rest)


def test_determinism_both_couplings():
    for coupling in ("physical", "fitted"):
        a = _streamed(SCN, 5000, 3, coupling)
        b = _streamed(SCN, 5000, 3, coupling)
        for kind in SINR_KINDS:
            assert np.array_equal(a[kind], b[kind]), (coupling, kind)


def test_chunking_invariance():
    # Results must not depend on how many chunks the trial range spans.
    a = _streamed(SCN, 5000, 9)
    b = _streamed(SCN, 4096, 9)
    for kind in SINR_KINDS:
        assert np.array_equal(a[kind][:4096], b[kind])


@pytest.mark.parametrize("coupling", ["physical", "fitted"])
@pytest.mark.parametrize("n", [1, 4096, 4133, 8193])
def test_draws_match_the_row_by_row_reference(coupling, n):
    # One trial, a full chunk, a short last chunk and a one-trial last chunk;
    # shapes below 1, at 1 and fractional take each of numpy's gamma paths.
    scn = replace(SCN, m_direct=1.0, m_bs_ris=0.5, m_ris_user=2.7)
    chunks = [(d.z.copy(), d.x.copy()) for d in run_trials(scn, n, seed=6, coupling=coupling)]
    z, x = reference_trial_draws(scn, n, 6, coupling)
    assert np.array_equal(np.concatenate([c[0] for c in chunks], axis=1), z)
    assert np.array_equal(np.concatenate([c[1] for c in chunks], axis=1), x)


@pytest.mark.parametrize("coupling", ["physical", "fitted"])
@pytest.mark.parametrize("n", [1, 4096, 4097, 20_000])
def test_streamed_estimates_match_the_whole_run_oracle(coupling, n):
    # The runners never hold a whole run's draws: pdf-validation copies each
    # chunk's batch into its samples, the sweeps add each chunk's outage
    # counts and rate sums and divide by n once. Against all n trials drawn
    # and scored at once, then averaged by np.mean, the samples and outage
    # frequencies keep every bit; the rates are summed in another order.
    scn = replace(SCN, p_t_dbm=-15.0)
    whole = reference_batch(scn, n, 8, coupling)
    counts = sums = 0
    for draws in run_trials(scn, n, 8, coupling):
        batch = draws.batch(scn)
        counts, sums = counts + outage_counts(batch, scn), sums + rate_sums(batch)
    samples = _streamed(scn, n, 8, coupling)
    for kind in SINR_KINDS:
        assert np.array_equal(samples[kind], whole[kind]), kind
    frequencies = dict(zip(OUTAGE_USERS, (counts / n).tolist()))
    assert frequencies == reference_outage_frequencies(whole, scn)
    want = reference_mean_rates(whole)
    np.testing.assert_allclose(sums / n, [want[user] for user in USER_SINR], rtol=1e-13, atol=0)


def test_a_scenario_makes_its_links_once():
    # Every batch checks its scenario's links, so a scenario keeps them; a
    # replaced scenario makes its own, and equality still reads the fields.
    scn = replace(SCN, p_t_dbm=3.0)
    assert scn.links is scn.links
    assert scn.center_links(2) is scn.links[1] and scn.edge_links(1) is scn.links[2]
    assert replace(scn, p_t_dbm=3.0) == scn
    assert replace(scn, alpha_ici=3.9).center_links(1)["ici"] != scn.center_links(1)["ici"]


def test_batch_forms_just_the_named_kinds():
    draws = next(run_trials(SCN, 300, seed=2))
    full = draws.batch(SCN)
    assert tuple(full) == SINR_KINDS
    for kinds in ((), ("edge",), ("edge", "center1_own"), *BATCH_KINDS.values()):
        batch = draws.batch(SCN, kinds)
        assert tuple(batch) == tuple(kind for kind in SINR_KINDS if kind in kinds)
        for kind, samples in batch.items():
            assert np.array_equal(samples, full[kind]), (kinds, kind)
    with pytest.raises(ValueError, match="'edge_high_snr'"):
        draws.batch(SCN, ("edge", "edge_high_snr"))


def test_vanishing_power_means_outage_everywhere():
    # Degenerate scenario: transmit power so low every link is effectively
    # blocked; all SINRs ~ 0 and every outage indicator is true.
    scn = replace(SCN, p_t_dbm=-200.0)
    batch = next(run_trials(scn, 500, seed=5)).batch(scn)
    for kind in SINR_KINDS:
        assert np.all(batch[kind] < 1e-9)
    assert outage_counts(batch, scn).tolist() == [500] * len(OUTAGE_USERS)


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


def test_stacked_ks_equals_per_row_calls_and_calls_cdf_once():
    samples = substream(7, 7).exponential(1.0, (4, 300)) + np.array([[0.0], [0.02], [0.3], [0.0]])
    calls = []

    def cdf(x):
        calls.append(x.copy())
        return 1.0 - np.exp(-x)

    d, passed, crit = ks_statistic(samples, cdf)
    assert len(calls) == 1 and np.array_equal(calls[0], np.sort(samples, axis=1))
    assert d.shape == passed.shape == (4,)
    for i, row in enumerate(samples):
        assert (d[i], passed[i], crit) == ks_statistic(row, lambda x: 1.0 - np.exp(-x))
    assert set(passed.tolist()) == {True, False}


def test_outage_counts_extremes():
    n = 100
    all_out = _synthetic_batch({k: np.zeros(n) for k in SINR_KINDS})
    assert outage_counts(all_out, SCN).tolist() == [n] * len(OUTAGE_USERS)
    none_out = _synthetic_batch({k: np.full(n, 100.0) for k in SINR_KINDS})
    assert outage_counts(none_out, SCN).tolist() == [0] * len(OUTAGE_USERS)


def test_outage_at_the_threshold_is_not_outage_at_minus_10_db():
    # Every SINR sits exactly on the -10 dB thresholds (0.1). The events are
    # strict, as in the closed forms' CDFs, so no user is out. A threshold
    # sent through a target rate and back, 2^log2(1 + 0.1) - 1, is
    # 0.10000000000000009 and would put every user out.
    scn = replace(SCN, thresholds_db=(-10.0, -10.0))
    assert scn.threshold_center == scn.threshold_edge == 0.1
    batch = _synthetic_batch({k: np.full(8, scn.threshold_edge) for k in SINR_KINDS})
    assert outage_counts(batch, scn).tolist() == [0] * len(OUTAGE_USERS)


def test_outage_counts_binomial():
    rng = substream(6, 6)
    n = 10_000
    # Edge SINR below the threshold with probability 0.3.
    edge = np.where(rng.uniform(size=n) < 0.3, 0.0, 10.0)
    batch = _synthetic_batch({"edge": edge})
    out = dict(zip(OUTAGE_USERS, outage_counts(batch, SCN) / n))
    assert out["edge"] == pytest.approx(0.30, abs=0.015)


def test_rate_sums_constant():
    # log2(1 + 1) = 1 bps/Hz per trial, for each user in USER_SINR order.
    batch = _synthetic_batch({k: np.ones(64) for k in SINR_KINDS})
    assert list(USER_SINR) == ["center1", "center2", "edge"]
    assert rate_sums(batch).tolist() == [64.0] * 3


def test_estimator_consistency_sqrt_n():
    # Doubling n shrinks the standard error of the outage estimate by
    # ~1/sqrt(2); 40 seeds keep the std-of-std noise inside the 20% band.
    scn = replace(SCN, p_t_dbm=-22.0)
    est1, est2 = [], []
    for est, n, offset in ((est1, 1000, 0), (est2, 2000, 1000)):
        for seed in range(40):
            batch = next(run_trials(scn, n, seed=offset + seed)).batch(scn)
            est.append(outage_counts(batch, scn)[0] / n)
    ratio = np.std(est2) / np.std(est1)
    assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.20)


def test_outage_monotone_in_power_common_random_numbers():
    scns = [replace(SCN, p_t_dbm=float(p_t)) for p_t in (-20, -15, -10, -5, 0, 5)]
    edge = 0
    for draws in run_trials(SCN, 10_000, seed=11):
        edge = edge + np.array([outage_counts(draws.batch(scn), scn)[2] for scn in scns])
    assert np.all(np.diff(edge) <= 0)


def test_invalid_coupling():
    with pytest.raises(ValueError):
        next(run_trials(SCN, 10, seed=0, coupling="other"))


@pytest.mark.parametrize("coupling", ["physical", "fitted"])
def test_draws_do_not_depend_on_power_or_allocation(coupling):
    # Scoring one power's draws at another scenario equals drawing there.
    for other in (replace(SCN, p_t_dbm=7.5),
                  replace(SCN, p_t_dbm=-33.0, zeta_center=0.2, zeta_edge=0.8)):
        scored = _streamed(SCN, 5000, 4, coupling, at=other)
        direct = _streamed(other, 5000, 4, coupling)
        for kind in SINR_KINDS:
            assert np.array_equal(scored[kind], direct[kind]), (coupling, kind)


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
    draws = next(run_trials(SCN, 100, seed=4))
    with pytest.raises(ValueError, match="drawn from"):
        draws.batch(replace(SCN, **changes))
