"""Scenario-level assembly of the closed-form SINR laws.

Maps a CoordinatedScenario onto the fitted Beta-prime law of every SINR,
keyed by sample kind: the `montecarlo.SINR_KINDS` name of the Monte Carlo
sample the law models (the no-CoMP edge SINR has no law), plus
`edge_high_snr`, the edge law without its noise term. From the fits, which
`config.validate` makes once per point of a run, it evaluates ergodic rates,
all of a run's at once, and outage probabilities, at the fitted scenario's
own SINR thresholds, each user reading the SINR `montecarlo.USER_SINR` names.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .channel import NakagamiParams
from .montecarlo import USER_SINR
from .scenarios import CoordinatedScenario
from .stats import (
    BetaPrimeParams,
    GammaParams,
    MomentPair,
    effective_power_moments,
    ergodic_rates,
    gamma_from_moments,
    outage_center_closed,
    sinr_dist_center,
    sinr_dist_edge,
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
    laws["edge"] = sinr_dist_edge(z1, z2, zc, zc, zf, zf, rho, noise=1.0)
    laws["edge_high_snr"] = sinr_dist_edge(z1, z2, zc, zc, zf, zf, rho, noise=0.0)
    return CoordinatedDistributions(scenario=scn, laws=laws, z_center=tuple(z_c))


def analytic_ergodic_rates(fits: Sequence[CoordinatedDistributions],
                           users: dict[str, str]) -> list[dict[str, float]]:
    """Per fit, the rate of each user of `users` (user -> the sample kind of
    its law) from that fitted law, all in one `ergodic_rates` call."""
    rates = iter(ergodic_rates([d.laws[kind] for d in fits for kind in users.values()]))
    return [{user: next(rates) for user in users} for _ in fits]


def analytic_outage(d: CoordinatedDistributions) -> dict[str, float]:
    """Each user's outage probability at the fitted scenario's thresholds."""
    scn = d.scenario
    out = {"edge": d.laws["edge"].cdf(scn.threshold_edge)}
    for i in (1, 2):
        out[f"center{i}"] = outage_center_closed(
            d.laws[f"center{i}_sic"],
            d.laws[f"center{i}_own"],
            d.z_center[i - 1],
            scn.rho,
            scn.zeta_center,
            scn.threshold_edge,
            scn.threshold_center,
        )
    return out
