import math

import numpy as np
import pytest

from oracles import integrate_half_line
from riscomp.channel import NakagamiParams, substream
from riscomp.scenarios import CoordinatedScenario
from riscomp.special import betainc_reg
from riscomp.stats import (
    BetaPrimeParams,
    FitError,
    GammaParams,
    MomentPair,
    cascade_moment,
    edge_ratio_moments,
    effective_power_moments,
    ergodic_rate,
    gamma_from_moments,
    nakagami_moment,
    outage_center_closed,
    outage_edge_closed,
    sinr_dist_center_decode_edge,
    sinr_dist_center_own,
    sinr_dist_edge,
    sinr_dist_edge_high_snr,
    weighted_sum_moments,
)

UNIT = NakagamiParams(1.0, 1.0)
M2 = NakagamiParams(2.0, 1.0)


def test_nakagami_moment_examples():
    assert nakagami_moment(UNIT, 2) == pytest.approx(1.0)
    assert nakagami_moment(UNIT, 1) == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-5)
    assert nakagami_moment(NakagamiParams(2.0, 2.0), 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        nakagami_moment(UNIT, 5)


def test_cascade_moment_examples():
    assert cascade_moment(1, 1.0, UNIT, UNIT, 2) == pytest.approx(1.0)
    assert cascade_moment(1, 1.0, UNIT, UNIT, 1) == pytest.approx(math.pi / 4)
    assert cascade_moment(0, 0.7, UNIT, UNIT, 2) == 0.0
    assert cascade_moment(4, 0.0, UNIT, UNIT, 1) == 0.0


def test_gamma_from_moments_examples():
    g = gamma_from_moments(MomentPair(1.0, 2.0))
    assert (g.k, g.theta) == (pytest.approx(1.0), pytest.approx(1.0))
    g = gamma_from_moments(MomentPair(2.0, 6.0))
    assert (g.k, g.theta) == (pytest.approx(2.0), pytest.approx(1.0))
    src = GammaParams(3.0, 0.5)
    back = gamma_from_moments(src.moments())
    assert back.k == pytest.approx(3.0, rel=1e-12)
    assert back.theta == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(FitError):
        gamma_from_moments(MomentPair(2.0, 4.0))


def test_moment_roundtrip_tight():
    for k, theta in [(0.3, 2.0), (7.0, 1e-6), (120.0, 3.0)]:
        m = GammaParams(k, theta).moments()
        g = gamma_from_moments(m)
        m2 = g.moments()
        assert m2.m1 == pytest.approx(m.m1, rel=1e-12)
        assert m2.m2 == pytest.approx(m.m2, rel=1e-12)


def test_effective_power_moments_no_ris():
    m = effective_power_moments(NakagamiParams(2.0, 3.0), 0, 0.5, M2, M2)
    assert m.m1 == pytest.approx(3.0)
    assert m.m2 == pytest.approx(9.0 * (1 + 0.5))  # omega^2 (1 + 1/m)


def test_effective_power_moments_blocked_direct():
    m = effective_power_moments(None, 1, 1.0, UNIT, UNIT)
    assert m.m1 == pytest.approx(1.0)


def test_effective_power_moments_against_mc():
    # Full parameters: m_direct=1, m_cascade=2, K=34, beta=0.5.
    k, beta = 34, 0.5
    m = effective_power_moments(UNIT, k, beta, M2, M2)
    rng = substream(17, 0)
    n = 1_000_000
    h = np.sqrt(rng.gamma(1.0, 1.0, n))
    a = np.sqrt(rng.gamma(2.0, 0.5, n))
    b = np.sqrt(rng.gamma(2.0, 0.5, n))
    z = (h + k * math.sqrt(beta) * a * b) ** 2
    assert m.m1 == pytest.approx(float(np.mean(z)), rel=0.01)
    assert m.m2 == pytest.approx(float(np.mean(z**2)), rel=0.02)


def test_weighted_sum_gamma_examples():
    z = GammaParams(2.0, 1.5)
    same = gamma_from_moments(weighted_sum_moments(1.0, z.moments(), 0.0, UNIT))
    assert same.k == pytest.approx(2.0, rel=1e-12)
    assert same.theta == pytest.approx(1.5, rel=1e-12)
    expo = gamma_from_moments(weighted_sum_moments(0.0, z.moments(), 1.0, UNIT))
    assert expo.k == pytest.approx(1.0, rel=1e-12)
    assert expo.theta == pytest.approx(1.0, rel=1e-12)
    scaled = gamma_from_moments(weighted_sum_moments(2.0, z.moments(), 0.0, UNIT))
    assert scaled.k == pytest.approx(2.0, rel=1e-12)
    assert scaled.theta == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(FitError):
        weighted_sum_moments(0.0, z.moments(), 0.0, UNIT)


def _fig_style_dists(p_t_dbm=-30.0):
    scn = CoordinatedScenario(p_t_dbm=p_t_dbm)
    from riscomp.analysis import coordinated_distributions

    return scn, coordinated_distributions(scn)


def test_densities_normalize():
    _, dists = _fig_style_dists()
    for dist in (dists.center_own[0], dists.center_sic[0], dists.edge):
        total = integrate_half_line(
            dist.pdf, rtol=1e-9, breakpoints=[dist.scale * 0.01, dist.scale, dist.scale * 100]
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_beta_prime_cdf_examples():
    p = BetaPrimeParams(1.0, 1.0, 1.0)
    assert p.cdf(0.0) == 0.0
    assert p.cdf(math.inf) == 1.0
    assert p.cdf(1.0) == pytest.approx(0.5, abs=1e-12)


def test_beta_prime_mode_matches_dense_search():
    # Analytic mode of the scaled Beta-prime is scale*(a-1)/(b+1); dense
    # numerical maximization of the density must land on it.
    p = BetaPrimeParams(2.7, 4.1, 1.9)
    mode = p.scale * (p.a - 1.0) / (p.b + 1.0)
    grid = np.linspace(max(mode - 0.5, 1e-9), mode + 0.5, 100_001)
    vals = np.array([p.pdf(x) for x in grid])
    assert grid[np.argmax(vals)] == pytest.approx(mode, abs=1e-4)


def test_ergodic_rate_degenerate_concentration():
    # k -> inf limit with matched mean gamma_0: ER -> log2(1 + gamma_0).
    for gamma0 in (0.5, 2.0, 11.0):
        big = 1e6
        p = BetaPrimeParams(big, big, gamma0 * (big - 1.0) / big)
        assert ergodic_rate(p) == pytest.approx(math.log2(1 + gamma0), abs=1e-3)


def test_ergodic_rate_monotone_in_scale():
    p1 = BetaPrimeParams(2.0, 3.0, 1.0)
    p2 = BetaPrimeParams(2.0, 3.0, 1.5)
    assert ergodic_rate(p2) > ergodic_rate(p1)


def test_ergodic_rate_vs_mc_sampling():
    _, dists = _fig_style_dists()
    p = dists.edge
    rng = substream(23, 1)
    n = 100_000
    v = rng.gamma(p.a, 1.0, n)
    w = rng.gamma(p.b, 1.0, n)
    mc = float(np.mean(np.log2(1.0 + p.scale * v / w)))
    assert ergodic_rate(p) == pytest.approx(mc, rel=0.02)


def test_ergodic_rate_symmetry_under_bs_swap():
    z1 = effective_power_moments(UNIT, 8, 0.5, M2, M2)
    z2 = effective_power_moments(NakagamiParams(1.0, 2.0), 8, 0.5, M2, M2)
    a = sinr_dist_edge(z1, z2, 0.3, 0.3, 0.7, 0.7, 100.0)
    b = sinr_dist_edge(z2, z1, 0.3, 0.3, 0.7, 0.7, 100.0)
    assert ergodic_rate(a) == pytest.approx(ergodic_rate(b), rel=1e-12)


def test_high_snr_agreement_at_rho_1e6():
    z = effective_power_moments(UNIT, 34, 0.5, M2, M2)
    rho = 1e6
    exact = ergodic_rate(sinr_dist_edge(z, z, 0.3, 0.3, 0.7, 0.7, rho))
    approx = ergodic_rate(
        sinr_dist_edge_high_snr(z, z, 0.3, 0.3, 0.7, 0.7, rho)
    )
    assert abs(exact - approx) < 0.05


def test_high_snr_scale_cancellation():
    z = effective_power_moments(UNIT, 34, 0.5, M2, M2)
    a = sinr_dist_edge_high_snr(z, z, 0.3, 0.3, 0.7, 0.7, 1e4)
    b = sinr_dist_edge_high_snr(z, z, 0.3, 0.3, 0.7, 0.7, 1e7)
    assert a.scale == pytest.approx(b.scale, rel=1e-12)
    assert ergodic_rate(a) == pytest.approx(ergodic_rate(b), rel=1e-10)


def test_high_snr_saturation_with_concentrated_fits():
    # Large Nakagami shapes concentrate the fits; the interference-limited
    # value approaches log2(1 + zeta_f / zeta_c).
    conc = NakagamiParams(50.0, 1.0)
    z = effective_power_moments(conc, 0, 0.0, M2, M2)
    p = sinr_dist_edge_high_snr(z, z, 0.3, 0.3, 0.7, 0.7, 1e9)
    assert ergodic_rate(p) == pytest.approx(math.log2(1 + 0.7 / 0.3), abs=0.05)


def test_outage_edge_examples():
    _, dists = _fig_style_dists()
    p = dists.edge
    assert outage_edge_closed(p, 0.0) == 0.0
    assert outage_edge_closed(p, 1e12) == pytest.approx(1.0, abs=1e-9)
    x = 0.37
    assert outage_edge_closed(p, x) == p.cdf(x)  # shared code path


def test_outage_center_closed_limits():
    scn, dists = _fig_style_dists()
    z = dists.z_center[0]
    val = outage_center_closed(
        dists.center_sic[0], dists.center_own[0], z, scn.rho, scn.zeta_center, 0.0, 0.0
    )
    assert val == 0.0
    # SIC-pass factor vanishes as the edge threshold grows.
    p = dists.center_sic[0]
    psi = p.scale / (p.scale + 1e9)
    assert betainc_reg(p.b, p.a, psi) < 1e-6
    total = outage_center_closed(
        dists.center_sic[0], dists.center_own[0], z, scn.rho, scn.zeta_center, 1e9, 1.0
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_outage_center_floor_applies():
    scn, dists = _fig_style_dists(p_t_dbm=-25.0)
    z = dists.z_center[0]
    floor = z.cdf(1.0 / (scn.rho * scn.zeta_center))
    val = outage_center_closed(
        dists.center_sic[0], dists.center_own[0], z, scn.rho, scn.zeta_center, 1.0, 1.0
    )
    assert val >= floor


def test_edge_ratio_moments_symmetric():
    z1 = MomentPair(1.0, 2.5)
    z2 = MomentPair(2.0, 9.0)
    v12, w12 = edge_ratio_moments(z1, z2, 0.3, 0.3, 0.7, 0.7, 10.0)
    v21, w21 = edge_ratio_moments(z2, z1, 0.3, 0.3, 0.7, 0.7, 10.0)
    assert v12.m1 == pytest.approx(v21.m1)
    assert v12.m2 == pytest.approx(v21.m2)
    assert w12.m1 == pytest.approx(w21.m1)
    assert w12.m2 == pytest.approx(w21.m2)


def test_center_dist_construction():
    z = effective_power_moments(UNIT, 4, 0.5, M2, M2)
    ici = NakagamiParams(1.0, 0.1)
    sic = sinr_dist_center_decode_edge(z, ici, 10.0, 0.3, 0.7)
    own = sinr_dist_center_own(z, ici, 10.0, 0.3)
    assert sic.a == pytest.approx(own.a)  # both built on the same Z fit
    # Scale assembles as rho * zeta * theta_Z / theta_W from the fitted parts.
    zg = gamma_from_moments(z)
    w = gamma_from_moments(weighted_sum_moments(10.0 * 0.3, z, 10.0, ici).shifted(1.0))
    assert sic.scale == pytest.approx(10.0 * 0.7 * zg.theta / w.theta, rel=1e-12)
    assert sic.b == pytest.approx(w.k, rel=1e-12)
    # Degenerate fits (variance lost to rounding) raise rather than clamp.
    weak = NakagamiParams(1.0, 1e-12)
    with pytest.raises(FitError):
        sinr_dist_center_own(z, weak, 1e-9, 0.3)
