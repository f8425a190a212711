import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import beta_prime_pdf, integrate_half_line, reference_ergodic_rate
from riscomp.analysis import analytic_outages, coordinated_distributions
from riscomp.channel import NakagamiParams, substream
from riscomp.config import from_mapping
from riscomp.experiments import preset
from riscomp.montecarlo import USER_SINR
from riscomp.quadrature import QuadratureError
from riscomp.scenarios import CoordinatedScenario
from riscomp.special import betainc_reg
from riscomp.stats import (
    BetaPrimeParams,
    FitError,
    GammaParams,
    MomentPair,
    cascade_moment,
    effective_power_moments,
    ergodic_rates,
    gamma_from_moments,
    nakagami_moment,
    sinr_dist_center,
    sinr_dist_edge,
    stacked_cdf,
    weighted_sum_moments,
)

UNIT = NakagamiParams(1.0, 1.0)
M2 = NakagamiParams(2.0, 1.0)


def _moments(g: GammaParams) -> MomentPair:
    """Raw moments of a Gamma law: k theta and k (k + 1) theta^2."""
    return MomentPair(g.k * g.theta, g.k * (g.k + 1.0) * g.theta**2)


def _rate(p: BetaPrimeParams) -> float:
    """The ergodic rate of the law p, integrated alone."""
    [rate] = ergodic_rates([p])
    return rate


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
    back = gamma_from_moments(_moments(src))
    assert back.k == pytest.approx(3.0, rel=1e-12)
    assert back.theta == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(FitError):
        gamma_from_moments(MomentPair(2.0, 4.0))


def test_moment_roundtrip_tight():
    for k, theta in [(0.3, 2.0), (7.0, 1e-6), (120.0, 3.0)]:
        m = _moments(GammaParams(k, theta))
        g = gamma_from_moments(m)
        m2 = _moments(g)
        assert m2.m1 == pytest.approx(m.m1, rel=1e-12)
        assert m2.m2 == pytest.approx(m.m2, rel=1e-12)


def test_effective_power_moments_no_ris():
    m = effective_power_moments(NakagamiParams(2.0, 3.0), 0, 0.5, M2, M2)
    assert m.m1 == pytest.approx(3.0)
    assert m.m2 == pytest.approx(9.0 * (1 + 0.5))  # omega^2 (1 + 1/m)


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
    same = gamma_from_moments(weighted_sum_moments(1.0, _moments(z), 0.0, UNIT))
    assert same.k == pytest.approx(2.0, rel=1e-12)
    assert same.theta == pytest.approx(1.5, rel=1e-12)
    expo = gamma_from_moments(weighted_sum_moments(0.0, _moments(z), 1.0, UNIT))
    assert expo.k == pytest.approx(1.0, rel=1e-12)
    assert expo.theta == pytest.approx(1.0, rel=1e-12)
    scaled = gamma_from_moments(weighted_sum_moments(2.0, _moments(z), 0.0, UNIT))
    assert scaled.k == pytest.approx(2.0, rel=1e-12)
    assert scaled.theta == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(FitError):
        weighted_sum_moments(0.0, _moments(z), 0.0, UNIT)


def _fig_style_dists(p_t_dbm=-30.0):
    scn = CoordinatedScenario(p_t_dbm=p_t_dbm)
    return scn, coordinated_distributions(scn)


def test_densities_normalize():
    # The fitted laws' densities integrate to 1, and the CDF at the scale
    # equals the density's integral up to it.
    _, dists = _fig_style_dists()
    for dist in (dists.laws["center1_own"], dists.laws["center1_sic"], dists.laws["edge"]):
        pdf = functools.partial(beta_prime_pdf, dist)
        total = integrate_half_line(
            pdf, rtol=1e-9, breakpoints=[dist.scale * 0.01, dist.scale, dist.scale * 100]
        )
        assert total == pytest.approx(1.0, abs=1e-6)
        below = integrate_half_line(
            lambda x: pdf(x) if x <= dist.scale else 0.0, rtol=1e-9,
            breakpoints=[dist.scale * 0.01, dist.scale],
        )
        assert dist.cdf(dist.scale) == pytest.approx(below, abs=1e-6)


def test_beta_prime_cdf_examples():
    p = BetaPrimeParams(1.0, 1.0, 1.0)
    assert p.cdf(0.0) == 0.0
    assert p.cdf(math.inf) == 1.0
    assert p.cdf(1.0) == pytest.approx(0.5, abs=1e-12)


def test_stacked_cdf_equals_per_law_cdf():
    laws = [BetaPrimeParams(1.0, 1.0, 1.0), BetaPrimeParams(2.5, 8.8e6, 4.4e3),
            BetaPrimeParams(0.7, 3.0, 0.2)]
    x = np.array([[-1.0, 0.0, 0.5, 3.0, math.inf],
                  [1e-4, 2e-4, 5e-4, 1e-3, 0.0],
                  [0.01, 0.1, 1.0, 10.0, 100.0]])
    got = stacked_cdf(laws, x)
    for p, row, values in zip(laws, x, got):
        assert np.array_equal(values, p.cdf(row))
    with pytest.raises(ValueError, match="one row of points per law"):
        stacked_cdf(laws, x[:2])


def test_stacked_cdf_of_zero_laws_is_empty():
    # The parameter columns are (L, 1) for every L, L = 0 included.
    for n in (0, 1, 3):
        assert stacked_cdf([], np.empty((0, n))).shape == (0, n)


def test_ergodic_rate_degenerate_concentration():
    # k -> inf limit with matched mean gamma_0: ER -> log2(1 + gamma_0).
    for gamma0 in (0.5, 2.0, 11.0):
        big = 1e6
        p = BetaPrimeParams(big, big, gamma0 * (big - 1.0) / big)
        assert _rate(p) == pytest.approx(math.log2(1 + gamma0), abs=1e-3)


def test_ergodic_rate_monotone_in_scale():
    p1 = BetaPrimeParams(2.0, 3.0, 1.0)
    p2 = BetaPrimeParams(2.0, 3.0, 1.5)
    assert _rate(p2) > _rate(p1)


def test_ergodic_rate_vs_mc_sampling():
    _, dists = _fig_style_dists()
    p = dists.laws["edge"]
    rng = substream(23, 1)
    n = 100_000
    v = rng.gamma(p.a, 1.0, n)
    w = rng.gamma(p.b, 1.0, n)
    mc = float(np.mean(np.log2(1.0 + p.scale * v / w)))
    assert _rate(p) == pytest.approx(mc, rel=0.02)


def test_ergodic_rate_symmetry_under_bs_swap():
    z1 = effective_power_moments(UNIT, 8, 0.5, M2, M2)
    z2 = effective_power_moments(NakagamiParams(1.0, 2.0), 8, 0.5, M2, M2)
    a = sinr_dist_edge(z1, z2, 0.3, 0.7, 100.0, noise=1.0)
    b = sinr_dist_edge(z2, z1, 0.3, 0.7, 100.0, noise=1.0)
    assert _rate(a) == pytest.approx(_rate(b), rel=1e-12)


def test_high_snr_agreement_at_rho_1e6():
    z = effective_power_moments(UNIT, 34, 0.5, M2, M2)
    rho = 1e6
    exact = _rate(sinr_dist_edge(z, z, 0.3, 0.7, rho, noise=1.0))
    approx = _rate(sinr_dist_edge(z, z, 0.3, 0.7, rho, noise=0.0))
    assert abs(exact - approx) < 0.05


def test_high_snr_scale_cancellation():
    z = effective_power_moments(UNIT, 34, 0.5, M2, M2)
    a = sinr_dist_edge(z, z, 0.3, 0.7, 1e4, noise=0.0)
    b = sinr_dist_edge(z, z, 0.3, 0.7, 1e7, noise=0.0)
    assert a.scale == pytest.approx(b.scale, rel=1e-12)
    assert _rate(a) == pytest.approx(_rate(b), rel=1e-10)


def test_high_snr_saturation_with_concentrated_fits():
    # Large Nakagami shapes concentrate the fits; the interference-limited
    # value approaches log2(1 + zeta_f / zeta_c).
    conc = NakagamiParams(50.0, 1.0)
    z = effective_power_moments(conc, 0, 0.0, M2, M2)
    p = sinr_dist_edge(z, z, 0.3, 0.7, 1e9, noise=0.0)
    assert _rate(p) == pytest.approx(math.log2(1 + 0.7 / 0.3), abs=0.05)


@functools.cache
def _run_laws() -> tuple[BetaPrimeParams, ...]:
    """The laws whose rates fig3.3 and fig3.5 write, then criterion 2's: its
    users' laws over its power sweep and its two laws at rho = 1e6."""
    laws = []
    for fig, kinds in (("fig3.3", (*USER_SINR.values(), "edge_high_snr")),
                       ("fig3.5", USER_SINR.values())):
        laws += [fit.laws[kind] for fit in from_mapping(preset(fig)).fits for kind in kinds]
    for p_t in range(-20, 11, 5):
        fit = coordinated_distributions(
            CoordinatedScenario(p_t_dbm=float(p_t), k_elements=34, assignment=(17, 17)))
        laws += [fit.laws[kind] for kind in USER_SINR.values()]
    z = effective_power_moments(UNIT, 34, 0.5, M2, M2)
    laws += [sinr_dist_edge(z, z, 0.3, 0.7, 1e6, noise=noise) for noise in (1.0, 0.0)]
    return tuple(laws)


def test_ergodic_rates_equal_the_scalar_reference():
    # numpy's log, log1p and exp may round differently from libm's in the
    # last bit, which may move a rate in its last digits and no further.
    laws = _run_laws()
    for p, rate in zip(laws, ergodic_rates(laws)):
        assert rate == pytest.approx(reference_ergodic_rate(p), rel=1e-14, abs=0.0), p


_DRAWN_LAWS = st.lists(st.builds(BetaPrimeParams, st.floats(0.3, 200.0), st.floats(1.5, 1e5),
                                 st.floats(1e-3, 1e3)), max_size=4)


@given(drawn=_DRAWN_LAWS)
@settings(max_examples=25, deadline=None)
def test_a_laws_rate_does_not_depend_on_the_laws_beside_it(drawn):
    laws = [*_run_laws(), *drawn]
    alone = [_rate(p) for p in laws]
    assert ergodic_rates(laws) == alone
    assert ergodic_rates(laws[::-1]) == alone[::-1]


def test_an_ergodic_rate_that_fails_names_its_law():
    ok = BetaPrimeParams(2.0, 3.0, 1.0)
    # The integrand overflows (betaln cancels at these shapes).
    with pytest.raises(QuadratureError, match=r"law a=1e\+30, b=1e\+30, scale=1\.0: integral 1 "
                                              r"has a non-finite integrand value inf") as info:
        ergodic_rates([ok, BetaPrimeParams(1e30, 1e30, 1.0)])
    assert info.value.index == 1
    with pytest.raises(QuadratureError, match=r"law a=10000000000\.0, b=10000000000\.0, "
                                              r"scale=1e\+300: quadrature of integral 0 did not"):
        ergodic_rates([BetaPrimeParams(1e10, 1e10, 1e300), ok])


def test_an_ergodic_rate_whose_breakpoints_overflow_names_its_law():
    # (a + b)^2 leaves the float range before any node is evaluated.
    ok = BetaPrimeParams(2.0, 3.0, 1.0)
    with pytest.raises(QuadratureError, match=r"law a=1e\+300, b=1e\+300, scale=1\.0: "
                                              r"\(a \+ b\)\^2 of its breakpoints overflows") as info:
        ergodic_rates([ok, BetaPrimeParams(1e300, 1e300, 1.0)])
    assert info.value.index == 1


def test_outage_edge_examples():
    scn, dists = _fig_style_dists()
    p = dists.laws["edge"]
    assert p.cdf(0.0) == 0.0
    assert p.cdf(1e12) == pytest.approx(1.0, abs=1e-9)
    # The closed-form edge outage is the law's CDF at the scenario threshold.
    assert analytic_outages([dists])[0]["edge"] == p.cdf(scn.threshold_edge)


def _at_thresholds(center_db, edge_db, p_t_dbm=-30.0):
    """The fig-style fit with SINR thresholds of center_db and edge_db dB."""
    return coordinated_distributions(
        CoordinatedScenario(p_t_dbm=p_t_dbm, thresholds_db=(center_db, edge_db)))


def test_outage_center_closed_limits():
    # Zero thresholds (-inf dB): no user is ever in outage.
    [zero] = analytic_outages([_at_thresholds(-math.inf, -math.inf)])
    assert zero == {"edge": 0.0, "center1": 0.0, "center2": 0.0}
    # SIC-pass factor vanishes as the edge threshold grows.
    p = _fig_style_dists()[1].laws["center1_sic"]
    psi = p.scale / (p.scale + 1e9)
    assert betainc_reg(p.b, p.a, psi) < 1e-6
    [total] = analytic_outages([_at_thresholds(0.0, 90.0)])  # t_e = 1e9, t_c = 1
    assert total["center1"] == pytest.approx(1.0, abs=1e-6)


def test_outage_center_floor_applies():
    d = _at_thresholds(0.0, 0.0, p_t_dbm=-25.0)
    scn = d.scenario
    floor = d.z_center[0].cdf(1.0 / (scn.rho * scn.zeta_center))
    assert analytic_outages([d])[0]["center1"] >= floor


def test_outage_lies_in_the_unit_interval_where_sic_almost_never_fails():
    # Center1's SIC law is (a, b) = (0.5, 1.32e4) with t_e / (t_e + s) =
    # 1.4e-12, and its own SINR is always below t_c. The SIC pass
    # probability taken as a CDF of its own, at s / (s + t_e) rounded, put
    # the outage at 1.0000000021.
    run = from_mapping({"kind": "outage-sweep", "trials": 200, "scenario.k_elements": 0,
                        "scenario.m_direct": 0.5, "scenario.zeta_center": 1e-6,
                        "scenario.zeta_edge": 0.999999, "scenario.threshold_edge_db": -62.4,
                        "sweep.p_t_dbm": [-15.0]})
    [outage] = analytic_outages(run.fits)
    assert all(0.0 <= value <= 1.0 for value in outage.values())


def _per_fit_outages(d):
    """d's outages, each CDF its own scalar call."""
    scn = d.scenario
    thr_e, thr_c = scn.threshold_edge, scn.threshold_center
    out = {"edge": d.laws["edge"].cdf(thr_e)}
    for i, z in zip((1, 2), d.z_center):
        sic, own = d.laws[f"center{i}_sic"], d.laws[f"center{i}_own"]
        fail = sic.cdf(thr_e)
        floor = z.cdf(thr_c / (scn.rho * scn.zeta_center))
        out[f"center{i}"] = max(fail + (1.0 - fail) * own.cdf(thr_c), floor)
    return out


def test_outages_in_one_call_equal_the_per_fit_values():
    # fig3.4's eight fits and two at other thresholds, scored together:
    # every value equals its fit's own scalar calls.
    fits = [*from_mapping(preset("fig3.4")).fits,
            _at_thresholds(3.0, -2.0, p_t_dbm=10.0), _at_thresholds(-3.0, 5.0, p_t_dbm=0.0)]
    assert analytic_outages(fits) == [_per_fit_outages(d) for d in fits]
    assert analytic_outages([]) == []


def test_sinr_dist_edge_symmetric():
    # Swapping the two serving links leaves the edge law unchanged, with and
    # without the noise term.
    z1 = MomentPair(1.0, 2.5)
    z2 = MomentPair(2.0, 9.0)
    for noise in (1.0, 0.0):
        a = sinr_dist_edge(z1, z2, 0.3, 0.7, 10.0, noise)
        b = sinr_dist_edge(z2, z1, 0.3, 0.7, 10.0, noise)
        assert (b.a, b.b, b.scale) == (
            pytest.approx(a.a), pytest.approx(a.b), pytest.approx(a.scale))


def test_center_dist_construction():
    z = effective_power_moments(UNIT, 4, 0.5, M2, M2)
    ici = NakagamiParams(1.0, 0.1)
    sic = sinr_dist_center(z, ici, 10.0, 0.7, 0.3)
    own = sinr_dist_center(z, ici, 10.0, 0.3, 0.0)
    assert sic.a == pytest.approx(own.a)  # both built on the same Z fit
    # Scale assembles as rho * zeta * theta_Z / theta_W from the fitted parts.
    zg = gamma_from_moments(z)
    w = gamma_from_moments(weighted_sum_moments(10.0 * 0.3, z, 10.0, ici).shifted(1.0))
    assert sic.scale == pytest.approx(10.0 * 0.7 * zg.theta / w.theta, rel=1e-12)
    assert sic.b == pytest.approx(w.k, rel=1e-12)
    # Degenerate fits (variance lost to rounding) raise rather than clamp.
    weak = NakagamiParams(1.0, 1e-12)
    with pytest.raises(FitError):
        sinr_dist_center(z, weak, 1e-9, 0.3, 0.0)
