"""Scenario-level assembly of the closed-form SINR laws.

Maps a CoordinatedScenario onto the fitted Beta-prime law of every SINR,
keyed by sample kind: the `montecarlo.SINR_KINDS` name of the Monte Carlo
sample the law models (the no-CoMP edge SINR has no law), plus
`edge_high_snr`, the edge law without its noise term. From the fits, which
`config.validate` makes once per point of a run, it evaluates ergodic rates
and outage probabilities, each all of a run's at once, the outages at each
fitted scenario's own SINR thresholds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import NakagamiParams
from .scenarios import CoordinatedScenario
from .stats import (
    BetaPrimeParams,
    GammaParams,
    MomentPair,
    effective_power_moments,
    ergodic_rates,
    gamma_from_moments,
    sinr_dist_center,
    sinr_dist_edge,
    stacked_cdf,
)


@dataclass(frozen=True)
class CoordinatedDistributions:
    """Fitted laws for the coordinated cluster's SINRs at `scenario`: `laws`
    maps each sample kind, in `SINR_KINDS` order, then `edge_high_snr` to
    its Beta-prime law; `z_center` holds the Gamma fits of the center
    users' effective channel powers."""

    scenario: CoordinatedScenario
    laws: dict[str, BetaPrimeParams]
    z_center: tuple[GammaParams, GammaParams]


def _power_moments(
    scn: CoordinatedScenario, links: dict[str, NakagamiParams], beta: float
) -> MomentPair:
    """Moments of Z for one BS-user link set, at the RIS side's beta."""
    return effective_power_moments(
        links["direct"], scn.k_elements, beta, links["bs_ris"], links["ris_user"],
    )


def coordinated_distributions(scn: CoordinatedScenario) -> CoordinatedDistributions:
    rho, zc, zf = scn.rho, scn.zeta_center, scn.zeta_edge
    laws = {}
    z_c = []
    for i in (1, 2):
        links = scn.center_links(i)
        zm = _power_moments(scn, links, scn.beta_r)
        laws[f"center{i}_own"] = sinr_dist_center(zm, links["ici"], rho, zc, 0.0)
        laws[f"center{i}_sic"] = sinr_dist_center(zm, links["ici"], rho, zf, zc)
        z_c.append(gamma_from_moments(zm))
    z1 = _power_moments(scn, scn.edge_links(1), scn.beta_t)
    z2 = _power_moments(scn, scn.edge_links(2), scn.beta_t)
    laws["edge"] = sinr_dist_edge(z1, z2, zc, zf, rho, noise=1.0)
    laws["edge_high_snr"] = sinr_dist_edge(z1, z2, zc, zf, rho, noise=0.0)
    return CoordinatedDistributions(scenario=scn, laws=laws, z_center=tuple(z_c))


def analytic_ergodic_rates(fits: Sequence[CoordinatedDistributions],
                           users: dict[str, str]) -> list[dict[str, float]]:
    """Per fit, the rate of each user of `users` (user -> the sample kind of
    its law) from that fitted law, all in one `ergodic_rates` call."""
    rates = iter(ergodic_rates([d.laws[kind] for d in fits for kind in users.values()]))
    return [{user: next(rates) for user in users} for _ in fits]


def analytic_outages(fits: Sequence[CoordinatedDistributions]) -> list[dict[str, float]]:
    """Per fit, each user's outage at the fitted scenario's thresholds t_c and
    t_e, every Beta-prime CDF in one call. The edge user is out below t_e. A
    center user is out when SIC fails, with probability F, the CDF of its
    SIC law at t_e, or passes and its own SINR is below t_c: F + (1 - F)
    o_own, which cannot exceed 1 (1 - F, not the pass probability as a CDF
    of its own, whose argument s/(s + t_e) rounds near 1); floored by its
    noise-only outage, its Gamma-fitted channel power below
    t_c / (rho zeta_center)."""
    cdfs, floors = [], []  # per fit: five (law, x), in the order read below; two floors
    for d in fits:
        scn = d.scenario
        t_e, t_c = scn.threshold_edge, scn.threshold_center
        cdfs.append((d.laws["edge"], t_e))
        for i, z in zip((1, 2), d.z_center):
            cdfs += [(d.laws[f"center{i}_sic"], t_e), (d.laws[f"center{i}_own"], t_c)]
            floors.append(z.cdf(t_c / (scn.rho * scn.zeta_center)) if t_c > 0 else 0.0)
    column = np.reshape([x for _, x in cdfs], (-1, 1))  # one point per law
    values = stacked_cdf([law for law, _ in cdfs], column).reshape(-1, 5).tolist()
    return [{"edge": edge, "center1": max(s1 + (1.0 - s1) * o1, f1),
             "center2": max(s2 + (1.0 - s2) * o2, f2)}
            for (edge, s1, o1, s2, o2), f1, f2 in zip(values, floors[::2], floors[1::2])]
