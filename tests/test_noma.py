import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LinkBudget, NomaPair, sinr_edge_comp
from riscomp.montecarlo import SINR_KINDS, outage_counts
from riscomp.scenarios import CoordinatedScenario

PAIR = NomaPair(zeta_center=0.3, zeta_edge=0.7, tx_power=1.0)
SCN = CoordinatedScenario()  # 0 dB thresholds: both SINR thresholds = 1


def _batch(**sinr) -> dict:
    """One-trial batch: the given SINRs, every other kind at 1.0."""
    return {k: np.array([float(sinr.get(k, 1.0))]) for k in SINR_KINDS}


def test_pair_validation():
    with pytest.raises(ValueError):
        NomaPair(0.6, 0.4, 1.0)
    with pytest.raises(ValueError):
        NomaPair(0.3, 0.6, 1.0)
    with pytest.raises(ValueError):
        NomaPair(0.3, 0.7, 0.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget([-1.0], noise_power=1.0)
    with pytest.raises(ValueError):
        LinkBudget([1.0], noise_power=0.0)


def test_sinr_edge_comp_examples():
    pairs = [PAIR, PAIR]
    assert sinr_edge_comp(pairs, LinkBudget([0.0, 0.0], noise_power=1.0)) == 0.0
    val = sinr_edge_comp(pairs, LinkBudget([1e9, 1e9], noise_power=1e-3))
    assert val == pytest.approx(7.0 / 3.0, rel=1e-6)
    val = sinr_edge_comp(pairs, LinkBudget([1.0, 2.0], noise_power=1.0))
    assert val == pytest.approx(2.1 / 1.9)


def test_outage_center_examples():
    # Two-stage center outage: SIC failure alone is an outage, and so is an
    # own-message failure after SIC succeeded.
    for sic, own, want in ((2.0, 2.0, 0.0), (0.5, 2.0, 1.0), (2.0, 0.5, 1.0)):
        out = outage_counts(_batch(center1_sic=sic, center1_own=own), SCN)
        assert out[0] == want, (sic, own)


def test_outage_edge_boundary_is_non_outage():
    # Exact tie in binary floating point: 0.75/(0.25 + 0.5) == 1.0 == 0 dB.
    tie = sinr_edge_comp(NomaPair(0.25, 0.75, 1.0), LinkBudget([1.0], noise_power=0.5))
    assert tie == SCN.threshold_edge == 1.0
    assert outage_counts(_batch(edge=tie), SCN)[2] == 0
    assert outage_counts(_batch(edge=0.0), SCN)[2] == 1


@given(
    g1=st.floats(0.0, 1e6), g2=st.floats(0.0, 1e6),
    ici=st.floats(0.0, 1e6), noise=st.floats(1e-9, 1e3),
    scale=st.floats(1e-3, 1e3),
)
@settings(max_examples=300, deadline=None)
def test_scale_invariance_and_saturation(g1, g2, ici, noise, scale):
    pairs = [PAIR, PAIR]
    budget = LinkBudget([g1, g2], [ici], noise)
    val = sinr_edge_comp(pairs, budget)
    assert val >= 0.0
    #

    scaled = LinkBudget([g1, g2], [ici * scale], noise * scale)
    pairs_s = [NomaPair(0.3, 0.7, scale) for _ in range(2)]
    assert sinr_edge_comp(pairs_s, scaled) == pytest.approx(val, rel=1e-9, abs=1e-12)
    # NOMA saturation bound with no ICI.
    no_ici = LinkBudget([g1, g2], noise_power=noise)
    assert sinr_edge_comp(pairs, no_ici) <= 0.7 / 0.3 + 1e-12


@given(
    sic=st.floats(0.0, 1e3), own=st.floats(0.0, 1e3),
    t_base=st.floats(-20.0, 10.0), t_delta=st.floats(0.0, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_outage_threshold_monotonicity(sic, own, t_base, t_delta):
    # Raising either threshold (dB) alone never turns an outage into a
    # non-outage.
    batch = _batch(center1_sic=sic, center1_own=own)
    hi_center = CoordinatedScenario(thresholds_db=(t_base + t_delta, t_base))
    hi_edge = CoordinatedScenario(thresholds_db=(t_base, t_base + t_delta))
    lo = CoordinatedScenario(thresholds_db=(t_base, t_base))
    if outage_counts(batch, lo)[0] == 1:
        assert outage_counts(batch, hi_center)[0] == 1
        assert outage_counts(batch, hi_edge)[0] == 1


def test_edge_comp_monotonicity():
    pairs = [PAIR, PAIR]
    base = sinr_edge_comp(pairs, LinkBudget([1.0, 1.0], [1.0], 1.0))
    assert sinr_edge_comp(pairs, LinkBudget([2.0, 1.0], [1.0], 1.0)) >= base
    assert sinr_edge_comp(pairs, LinkBudget([1.0, 1.0], [2.0], 1.0)) <= base
