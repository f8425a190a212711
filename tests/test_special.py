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
from riscomp.montecarlo import SINR_KINDS, run_trials
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
    with pytest.raises(ValueError):
        betainc_reg(np.array([[1.0], [2.0]]), np.array([[1.0], [-1.0]]), np.zeros((2, 3)))


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
    at the preset's Monte Carlo samples (preset seed, 2,000 trials): the five
    laws under fitted coupling, then under physical, as the KS table runs."""
    run = from_mapping({**PRESETS["fig3.2"], "out": "unused"})
    scn = run.scenario
    fitted = coordinated_distributions(scn).laws
    laws = [(fitted[kind], kind) for kind in SINR_KINDS if kind in fitted]
    points = []
    for coupling in ("fitted", "physical"):
        # 2,000 trials: one chunk.
        batch = next(run_trials(scn, 2000, run.config.seed, coupling=coupling)).batch(scn)
        for p, kind in laws:
            s = np.sort(batch[kind])
            points.append((p, s / (s + p.scale)))
    return points


@pytest.fixture(scope="module")
def fig32():
    """_fig32_laws_and_points with each row's scalar-oracle values."""
    return [(p, y, np.array([oracles.betainc_reg(p.a, p.b, float(v)) for v in y]))
            for p, y in _fig32_laws_and_points()]


def test_array_betainc_equals_scalar_oracle(fig32):
    cases = []
    grid = np.linspace(0.0, 1.0, 201)  # includes x = 0 and x = 1
    for a, b in [(0.5, 0.5), (2.0, 3.0), (30.0, 2.5), (1.0, 1.0), (0.2, 40.0)]:
        cases.append((a, b, grid))
    for a, b, x in [(0.9, 4.5e4, 2e-5), (1.2, 4.4e5, 1e-6), (300.0, 2.0, 0.995)]:
        cases.append((a, b, np.array([x, 0.0, 1.0])))
    for p, y, _ in fig32:
        cases.append((p.a, p.b, y))
    branches = set()
    for a, b, x in cases:
        got = betainc_reg(a, b, x)
        want = np.array([oracles.betainc_reg(a, b, float(v)) for v in x])
        assert np.array_equal(got, want), (a, b)
        inner = x[(x > 0) & (x < 1)]
        branches.update(inner < (a + 1.0) / (a + b + 2.0))
    assert branches == {True, False}


@pytest.mark.parametrize("block", [special._BLOCK, 777])
def test_stacked_betainc_equals_scalar_oracle(fig32, monkeypatch, block):
    # fig3.2's ten laws in one call: (10, 1) shapes against (10, 2000) points,
    # in one block and in blocks that split laws.
    monkeypatch.setattr(special, "_BLOCK", block)
    laws, points, want = zip(*fig32)
    a = np.array([[p.a] for p in laws])
    b = np.array([[p.b] for p in laws])
    assert np.array_equal(betainc_reg(a, b, np.stack(points)), np.stack(want))


def test_prefactor_within_rounding_of_the_c_library(fig32):
    # numpy's log, log1p and exp against math's on the fig3.2 points and the
    # edge cases above: each prefactor within 4 eps relative per unit of its
    # exponent's terms, 1 + |a ln x| + |b ln(1-x)| + |ln B(a, b)|, the size
    # of a few roundings of the exponent after exp.
    grid = np.linspace(0.0, 1.0, 201)[1:-1]
    cases = [(a, b, grid) for a, b in [(0.5, 0.5), (2.0, 3.0), (30.0, 2.5), (1.0, 1.0),
                                       (0.2, 40.0)]]
    cases += [(a, b, np.array([x])) for a, b, x in
              [(0.9, 4.5e4, 2e-5), (1.2, 4.4e5, 1e-6), (300.0, 2.0, 0.995)]]
    cases += [(p.a, p.b, y[(y > 0) & (y < 1)]) for p, y, _ in fig32]
    differ = 0
    for a, b, x in cases:
        lnb = betaln(a, b)
        got = special._prefactor(np.full(x.size, a), np.full(x.size, b), np.full(x.size, lnb), x)
        libm = np.array([math.exp(a * math.log(v) + b * math.log1p(-v) - lnb)
                         for v in x.tolist()])
        terms = 1.0 + np.abs(a * np.log(x)) + np.abs(b * np.log1p(-x)) + abs(lnb)
        assert np.all(np.abs(got / libm - 1.0) <= 4 * np.finfo(float).eps * terms), (a, b)
        differ += np.count_nonzero(got != libm)
    assert differ  # the two libraries do differ in the last bits


def test_betainc_is_independent_of_element_order(fig32, monkeypatch):
    # fig3.2's ten laws, one element per (a, b, x) triple, in a shuffled
    # order and in blocks that split laws: the output is the input's
    # permutation, bit for bit.
    monkeypatch.setattr(special, "_BLOCK", 777)
    a = np.concatenate([np.full(y.size, p.a) for p, y, _ in fig32])
    b = np.concatenate([np.full(y.size, p.b) for p, y, _ in fig32])
    x = np.concatenate([y for _, y, _ in fig32])
    perm = np.random.default_rng(5).permutation(x.size)
    assert np.array_equal(betainc_reg(a[perm], b[perm], x[perm]), betainc_reg(a, b, x)[perm])


def test_broadcast_betainc_equals_scalar_oracle():
    # Laws interleaved along the last axis, x = 0 and x = 1 among them, both
    # sides of the symmetry transform, and a scalar shape against an array.
    a = np.array([0.5, 2.0, 30.0])
    b = np.array([[0.5], [3.0], [40.0]])
    x = np.linspace(0.0, 1.0, 101)[:, None, None]
    got = betainc_reg(a, b, x)
    assert got.shape == (101, 3, 3)
    for i, j, k in np.ndindex(got.shape):
        assert got[i, j, k] == oracles.betainc_reg(a[k], b[j, 0], x[i, 0, 0]), (i, j, k)
    got = betainc_reg(a, 2.5, 0.7)
    assert np.array_equal(got, [oracles.betainc_reg(v, 2.5, 0.7) for v in a])


def test_betainc_nan_point_is_nan_and_leaves_the_loop(monkeypatch):
    # A NaN x gives NaN, as numpy and scipy do, and is kept out of the
    # continued fraction: with no iteration allowed, any point in the loop
    # raises ConvergenceError. The other points keep their bits.
    out = betainc_reg(1.0, 2.0, [0.5, math.nan, 0.0, 1.0])
    assert out[0] == oracles.betainc_reg(1.0, 2.0, 0.5) and math.isnan(out[1])
    assert out[2:].tolist() == [0.0, 1.0]
    assert math.isnan(betainc_reg(1.0, 2.0, math.nan))
    assert np.isnan(sp.betainc(1.0, 2.0, math.nan))
    monkeypatch.setattr(special, "_MAX_ITER", 0)
    out = betainc_reg(1.0, 2.0, [math.nan, -1.0, 2.0, math.nan])
    assert np.isnan(out[[0, 3]]).all() and out[1:3].tolist() == [0.0, 1.0]


def test_betainc_refuses_nan_shapes():
    for a, b in [(math.nan, 2.0), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="requires a, b > 0"):
            betainc_reg(a, b, 0.5)


def test_betainc_scalar_returns_float():
    r = betainc_reg(2.0, 3.0, 0.25)
    assert type(r) is float and r == oracles.betainc_reg(2.0, 3.0, 0.25)
    assert type(betainc_reg(2.0, 3.0, 0.0)) is float
    assert betainc_reg(2.0, 3.0, np.zeros((2, 3))).shape == (2, 3)


def test_betainc_nonconvergence_names_arguments(monkeypatch):
    monkeypatch.setattr(special, "_MAX_ITER", 3)
    with pytest.raises(special.ConvergenceError, match=r"a=30\.0, b=2\.5, x=0\.5\)"):
        betainc_reg(30.0, 2.5, np.array([0.0, 0.5, 0.6]))
