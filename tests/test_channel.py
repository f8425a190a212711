import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RicianParams, los_steering, sample_rayleigh, sample_rician_vector
from riscomp.channel import NakagamiParams, substream
from riscomp.montecarlo import _nakagami_pow
from riscomp.scenarios import AerialScenario, CoordinatedScenario, MultiCellScenario

N_BIG = 100_000
# Reference gains rho_o of 1e-3 (-30 dB) and 1 (0 dB) at 1 m.
SCN_30DB = MultiCellScenario(rho_o_db=-30.0)
SCN_0DB = MultiCellScenario(rho_o_db=0.0)


def _sample_nakagami(p, rng, size):
    """Nakagami magnitude: square root of the engine's Gamma power draws."""
    return np.sqrt(_nakagami_pow(rng, p, size))


def test_path_gain_examples():
    assert SCN_30DB.gain(1.0, 3.0) == pytest.approx(1e-3)
    assert SCN_0DB.gain(1.0, 2.0) == pytest.approx(1.0)
    assert SCN_30DB.gain(100.0, 3.0) == pytest.approx(1e-9)


def test_families_share_one_link_budget():
    budget = dict(p_t_dbm=7.0, rho_o_db=-25.0, bandwidth_hz=2e6, noise_figure_db=3.0)
    ref = CoordinatedScenario(**budget)
    for scn in (MultiCellScenario(**budget), AerialScenario(**budget)):
        for name in ("rho_o", "tx_power_w", "noise_w", "rho"):
            assert getattr(scn, name) == getattr(ref, name), name
        assert scn.gain(40.0, 2.7) == ref.gain(40.0, 2.7)
    assert ref.omega((0.0, 0.0, 0.0), (3.0, 4.0, 0.0), 2.0) == ref.gain(5.0, 2.0)
    # Rician families only; kappa = inf is pure LoS.
    assert not hasattr(ref, "kappa")
    for cls in (MultiCellScenario, AerialScenario):
        w_los, w_nlos = cls(kappa_db=3.0).rician_weights
        assert w_los**2 + w_nlos**2 == pytest.approx(1.0)
        assert w_los**2 / w_nlos**2 == pytest.approx(10 ** 0.3)
        assert cls(kappa_db=math.inf).rician_weights == (1.0, 0.0)


@given(
    d1=st.floats(1.0, 1e4), d2=st.floats(1.0, 1e4),
    a1=st.floats(2.0, 6.0), a2=st.floats(2.0, 6.0),
)
@settings(max_examples=200, deadline=None)
def test_path_gain_monotonicity(d1, d2, a1, a2):
    if d1 < d2:
        assert SCN_30DB.gain(d1, a1) >= SCN_30DB.gain(d2, a1)
    if a1 < a2 and d1 > 1.0:
        assert SCN_30DB.gain(d1, a1) >= SCN_30DB.gain(d1, a2)


def test_param_validation():
    with pytest.raises(ValueError):
        NakagamiParams(0.3, 1.0)
    with pytest.raises(ValueError):
        NakagamiParams(1.0, 0.0)
    with pytest.raises(ValueError):
        RicianParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        RicianParams(1.0, math.pi)


def test_rayleigh_moments():
    rng = substream(7, 1)
    v = sample_rayleigh(rng, N_BIG)
    assert np.mean(np.abs(v) ** 2) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(v.real)) < 0.01
    assert abs(np.mean(v.imag)) < 0.01


def test_rayleigh_determinism():
    a = sample_rayleigh(substream(123, 5), 1000)
    b = sample_rayleigh(substream(123, 5), 1000)
    assert np.array_equal(a, b)


def test_nakagami_moments():
    rng = substream(11, 2)
    m1 = _sample_nakagami(NakagamiParams(1.0, 1.0), rng, N_BIG)
    assert np.mean(m1**2) == pytest.approx(1.0, abs=0.02)
    assert np.mean(m1) == pytest.approx(math.sqrt(math.pi) / 2, abs=0.01)
    m2 = _sample_nakagami(NakagamiParams(2.0, 2.0), rng, N_BIG)
    assert np.var(m2**2) == pytest.approx(2.0, abs=0.1)


def test_los_steering_examples():
    assert np.allclose(los_steering(3, 0.0), np.ones(3))
    assert np.allclose(los_steering(2, math.pi / 2), [1.0, -1.0])
    assert np.allclose(los_steering(1, 1.234), [1.0])


def test_rician_pure_los():
    vec = sample_rician_vector(4, RicianParams(math.inf, 0.0), substream(1, 3))
    assert np.array_equal(vec, np.ones(4, dtype=complex))


def test_rician_zero_factor_is_rayleigh():
    vec = sample_rician_vector(2, RicianParams(0.0, 0.3), substream(5, 4))
    ray = sample_rayleigh(substream(5, 4), 2)
    assert np.allclose(vec, ray)


def test_rician_unit_power():
    rng = substream(9, 6)
    acc = np.zeros(8)
    n = N_BIG // 10
    for _ in range(n):
        acc += np.abs(sample_rician_vector(8, RicianParams(2.0, 0.7), rng)) ** 2
    assert np.all(np.abs(acc / n - 1.0) < 0.05)


def test_rician_empty_vector():
    vec = sample_rician_vector(0, RicianParams(2.0, 0.0), substream(0, 0))
    assert vec.shape == (0,)


def test_second_moment_within_three_standard_errors():
    # E|h|^2 = omega for every sampled channel family.
    rng = substream(21, 8)
    cases = [
        ("rayleigh", np.abs(sample_rayleigh(rng, N_BIG)) ** 2, 1.0),
        ("nakagami", _sample_nakagami(NakagamiParams(2.5, 3.0), rng, N_BIG) ** 2, 3.0),
        (
            "rician",
            np.abs(sample_rician_vector(N_BIG, RicianParams(2.0, 0.1), rng)) ** 2,
            1.0,
        ),
    ]
    for name, power, omega in cases:
        se = np.std(power) / math.sqrt(N_BIG)
        assert abs(np.mean(power) - omega) < 3 * se, name


def test_nakagami_m1_matches_rayleigh_ks():
    rng = substream(33, 9)
    a = np.sort(_sample_nakagami(NakagamiParams(1.0, 1.0), rng, N_BIG))
    b = np.sort(np.abs(sample_rayleigh(rng, N_BIG)))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / N_BIG
    fb = np.searchsorted(b, grid, side="right") / N_BIG
    d = np.max(np.abs(fa - fb))
    critical = 1.63 * math.sqrt(2.0 / N_BIG)  # two-sample, alpha = 0.01
    assert d < critical


def test_substream_key_independence():
    a = substream(42, 1, 0).standard_normal(4)
    b = substream(42, 1, 1).standard_normal(4)
    c = substream(42, 2, 0).standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert np.array_equal(a, substream(42, 1, 0).standard_normal(4))
