import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PhaseMatrix, ec_phases, effective_channel, eo_phases, sample_rayleigh
from riscomp.channel import substream
from riscomp.ris import wrap_phase
from riscomp.scenarios import CoordinatedScenario


def _random_instance(rng, k):
    h = complex(sample_rayleigh(rng))
    h_ru = sample_rayleigh(rng, k)
    h_br = sample_rayleigh(rng, k)
    return h, h_ru, h_br


def test_energy_conservation_validation():
    with pytest.raises(ValueError):
        CoordinatedScenario(beta_t=0.6, beta_r=0.3)


def test_effective_channel_empty():
    theta = PhaseMatrix(np.zeros(0), np.zeros(0))
    assert effective_channel(0.3 + 0.1j, [], theta, []) == 0.3 + 0.1j


def test_effective_channel_identity_cascade():
    theta = PhaseMatrix(np.ones(1), np.zeros(1))
    assert effective_channel(0.0, [1.0], theta, [1.0]) == pytest.approx(1.0 + 0.0j)


def test_effective_channel_cophased_sum():
    rng = substream(3, 1)
    h = 1.0 + 0.0j
    h_ru = 0.5 * np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
    h_br = np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
    phases = eo_phases(h, h_ru, h_br)
    theta = PhaseMatrix(np.ones(2), phases)
    val = effective_channel(h, h_ru, theta, h_br)
    assert abs(val) == pytest.approx(2.0, abs=1e-12)


def test_effective_channel_shape_error():
    theta = PhaseMatrix(np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        effective_channel(0.0, [1.0], theta, [1.0, 2.0])


def test_effective_channel_linearity():
    rng = substream(4, 2)
    h, h_ru, h_br = _random_instance(rng, 3)
    theta = PhaseMatrix(np.ones(3), h_br.real)  # arbitrary valid phases
    base = effective_channel(0.0, h_ru, theta, h_br)
    assert effective_channel(h, h_ru, theta, h_br) == pytest.approx(h + base)
    doubled = effective_channel(0.0, h_ru, theta, 2.0 * h_br)
    assert doubled == pytest.approx(2.0 * base)


def test_eo_phase_example():
    # Cascade product argument pi/2 against a real direct link.
    phases = eo_phases(1.0 + 0.0j, [-1.0j], [1.0])
    # conj(h_ru) * h_br = +1j, so the phase must rotate by -pi/2.
    assert phases[0] == pytest.approx(-math.pi / 2)
    theta = PhaseMatrix(np.ones(1), phases)
    assert abs(effective_channel(1.0, [-1.0j], theta, [1.0])) == pytest.approx(2.0)


def test_eo_blocked_direct_link():
    rng = substream(5, 3)
    _, h_ru, h_br = _random_instance(rng, 4)
    phases = eo_phases(0.0, h_ru, h_br)
    theta = PhaseMatrix(np.ones(4), phases)
    val = effective_channel(0.0, h_ru, theta, h_br)
    target = np.sum(np.abs(h_ru) * np.abs(h_br))
    assert val == pytest.approx(target, abs=1e-12)
    assert abs(np.angle(val)) < 1e-12


def test_eo_zero_cascade_entry():
    phases = eo_phases(1.0, [0.0, 1.0], [1.0, 1.0])
    assert phases[0] == 0.0


def test_ec_examples():
    theta = PhaseMatrix(np.ones(1), ec_phases(1.0, [1.0], [1.0]))
    assert abs(effective_channel(1.0, [1.0], theta, [1.0])) == pytest.approx(0.0, abs=1e-12)
    theta = PhaseMatrix(np.ones(1), ec_phases(1.0, [0.3], [1.0]))
    assert abs(effective_channel(1.0, [0.3], theta, [1.0])) == pytest.approx(0.7, abs=1e-12)


def test_eo_dominates_random_search():
    rng = substream(6, 4)
    for k in (1, 2, 4, 16):
        h, h_ru, h_br = _random_instance(rng, k)
        best = abs(effective_channel(h, h_ru, PhaseMatrix(np.ones(k), eo_phases(h, h_ru, h_br)), h_br))
        target = abs(h) + np.sum(np.abs(h_ru) * np.abs(h_br))
        assert best == pytest.approx(target, abs=1e-12)
        draws = rng.uniform(-math.pi, math.pi, (10_000, k))
        casc = np.conj(h_ru) * h_br
        vals = np.abs(h + (np.exp(1j * draws) * casc).sum(axis=1))
        assert np.all(vals <= best + 1e-12)


def test_ec_dominates_random_search_when_feasible():
    # Anti-phasing is the global minimizer when the cascade budget cannot
    # exceed the direct magnitude.
    rng = substream(7, 5)
    for k in (1, 2, 4, 16):
        h, h_ru, h_br = _random_instance(rng, k)
        scale = 0.9 * abs(h) / np.sum(np.abs(h_ru) * np.abs(h_br))
        h_br = h_br * scale
        worst = abs(effective_channel(h, h_ru, PhaseMatrix(np.ones(k), ec_phases(h, h_ru, h_br)), h_br))
        target = abs(abs(h) - np.sum(np.abs(h_ru) * np.abs(h_br)))
        assert worst == pytest.approx(target, abs=1e-12)
        draws = rng.uniform(-math.pi, math.pi, (10_000, k))
        casc = np.conj(h_ru) * h_br
        vals = np.abs(h + (np.exp(1j * draws) * casc).sum(axis=1))
        assert np.all(vals >= worst - 1e-12)


def test_assignment_validation():
    with pytest.raises(ValueError):
        CoordinatedScenario(k_elements=10, assignment=(4, 7))
    with pytest.raises(ValueError):
        CoordinatedScenario(k_elements=10, assignment=(-1, 11))


@given(st.floats(-50.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_wrap_phase_interval(x):
    w = float(wrap_phase(x))
    assert -math.pi <= w < math.pi
    assert math.cos(w) == pytest.approx(math.cos(x), abs=1e-9)
    assert math.sin(w) == pytest.approx(math.sin(x), abs=1e-9)
