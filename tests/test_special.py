"""Special functions against the scipy oracle."""

import math

import numpy as np
import pytest
from scipy import special as sp

import oracles
from riscomp import special
from riscomp.analysis import coordinated_distributions
from riscomp.config import from_mapping
from riscomp.experiments import PRESETS
from riscomp.montecarlo import run_trials
from riscomp.special import betainc_reg, betaln, gammainc_lower_reg


def test_gammaln_range():
    # The module's log-gamma is the C library's math.lgamma.
    xs = np.concatenate([np.linspace(0.1, 10, 200), np.linspace(10, 150, 100)])
    for x in xs:
        assert math.lgamma(float(x)) == pytest.approx(sp.gammaln(x), rel=1e-13, abs=1e-13)


def test_betaln_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = 10 ** rng.uniform(-1, 2)
        b = 10 ** rng.uniform(-1, 2)
        assert betaln(a, b) == pytest.approx(sp.betaln(a, b), rel=1e-12, abs=1e-12)


def test_betainc_random_sweep():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(5000):
        a = 10 ** rng.uniform(-1, 2.5)
        b = 10 ** rng.uniform(-1, 2.5)
        x = rng.uniform()
        worst = max(worst, abs(betainc_reg(a, b, x) - sp.betainc(a, b, x)))
    assert worst < 1e-11


def test_betainc_large_shapes():
    # The SIC-stage fits can reach k ~ 1e5 in the noise-dominated regime; the
    # continued fraction keeps ~9 digits there, ample for outage targets.
    for a, b, x in [(0.9, 4.5e4, 2e-5), (1.2, 4.4e5, 1e-6), (300.0, 2.0, 0.995)]:
        assert betainc_reg(a, b, x) == pytest.approx(sp.betainc(a, b, x), abs=5e-9)


def test_betainc_edges():
    assert betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert betainc_reg(2.0, 3.0, 1.0) == 1.0
    assert betainc_reg(1.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        betainc_reg(0.0, 1.0, 0.5)


def test_gammainc_random_sweep():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(5000):
        a = 10 ** rng.uniform(-1, 2.5)
        x = 10 ** rng.uniform(-2, 3)
        worst = max(worst, abs(gammainc_lower_reg(a, x) - sp.gammainc(a, x)))
    assert worst < 1e-12


def test_gammainc_edges():
    assert gammainc_lower_reg(2.0, 0.0) == 0.0
    assert gammainc_lower_reg(1.0, 1e6) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gammainc_lower_reg(-1.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_lower_reg(1.0, -1.0)


def _fig32_laws_and_points():
    """The fig3.2 fitted Beta-prime laws and their CDF arguments x/(x+scale)
    at the preset's Monte Carlo samples (preset seed, 2,000 trials)."""
    cfg = from_mapping({**PRESETS["fig3.2"], "out": "unused"})
    scn = cfg.coordinated_scenario()
    dists = coordinated_distributions(scn)
    batch = run_trials(scn, 2000, cfg.seed, coupling="physical").batch(scn)
    laws = [(dists.center_own[0], "center1_own"), (dists.center_sic[0], "center1_sic"),
            (dists.center_own[1], "center2_own"), (dists.center_sic[1], "center2_sic"),
            (dists.edge, "edge")]
    points = []
    for p, kind in laws:
        s = np.sort(batch.sinr[kind])
        points.append((p, s / (s + p.scale)))
    return points


def test_array_betainc_equals_scalar_oracle():
    cases = []
    grid = np.linspace(0.0, 1.0, 201)  # includes x = 0 and x = 1
    for a, b in [(0.5, 0.5), (2.0, 3.0), (30.0, 2.5), (1.0, 1.0), (0.2, 40.0)]:
        cases.append((a, b, grid))
    for a, b, x in [(0.9, 4.5e4, 2e-5), (1.2, 4.4e5, 1e-6), (300.0, 2.0, 0.995)]:
        cases.append((a, b, np.array([x, 0.0, 1.0])))
    for p, y in _fig32_laws_and_points():
        cases.append((p.a, p.b, y))
    branches = set()
    for a, b, x in cases:
        got = betainc_reg(a, b, x)
        want = np.array([oracles.betainc_reg(a, b, float(v)) for v in x])
        assert np.array_equal(got, want), (a, b)
        inner = x[(x > 0) & (x < 1)]
        branches.update(inner < (a + 1.0) / (a + b + 2.0))
    assert branches == {True, False}


def test_betainc_scalar_returns_float():
    r = betainc_reg(2.0, 3.0, 0.25)
    assert type(r) is float and r == oracles.betainc_reg(2.0, 3.0, 0.25)
    assert type(betainc_reg(2.0, 3.0, 0.0)) is float
    assert betainc_reg(2.0, 3.0, np.zeros((2, 3))).shape == (2, 3)


def test_betainc_nonconvergence_names_arguments(monkeypatch):
    monkeypatch.setattr(special, "_MAX_ITER", 3)
    with pytest.raises(special.ConvergenceError, match=r"a=30\.0, b=2\.5, x=0\.5\)"):
        betainc_reg(30.0, 2.5, np.array([0.0, 0.5, 0.6]))
