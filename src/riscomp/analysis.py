"""Scenario-level assembly of the closed-form SINR laws.

Maps a CoordinatedScenario onto the fitted Gamma / Beta-prime distributions
of every user SINR, and evaluates ergodic rates and outage probabilities
from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scenarios import CoordinatedScenario
from .stats import (
    BetaPrimeParams,
    GammaParams,
    MomentPair,
    effective_power_moments,
    ergodic_rate,
    gamma_from_moments,
    outage_center_closed,
    outage_edge_closed,
    sinr_dist_center_decode_edge,
    sinr_dist_center_own,
    sinr_dist_edge,
    sinr_dist_edge_high_snr,
)


@dataclass(frozen=True)
class CoordinatedDistributions:
    """Fitted laws for the coordinated cluster's SINRs."""

    center_own: tuple[BetaPrimeParams, BetaPrimeParams]
    center_sic: tuple[BetaPrimeParams, BetaPrimeParams]
    edge: BetaPrimeParams
    edge_high_snr: BetaPrimeParams
    z_center: tuple[GammaParams, GammaParams]


def center_power_moments(scn: CoordinatedScenario, i: int) -> MomentPair:
    links = scn.center_links(i)
    return effective_power_moments(
        links["direct"], scn.k_elements, scn.beta_r,
        links["bs_ris"], links["ris_user"],
    )


def edge_power_moments(scn: CoordinatedScenario, i: int) -> MomentPair:
    links = scn.edge_links(i)
    return effective_power_moments(
        links["direct"], scn.k_elements, scn.beta_t,
        links["bs_ris"], links["ris_user"],
    )


def coordinated_distributions(scn: CoordinatedScenario) -> CoordinatedDistributions:
    rho = scn.rho
    own = []
    sic = []
    z_c = []
    for i in (1, 2):
        zm = center_power_moments(scn, i)
        ici = scn.center_links(i)["ici"]
        own.append(sinr_dist_center_own(zm, ici, rho, scn.zeta_center))
        sic.append(
            sinr_dist_center_decode_edge(zm, ici, rho, scn.zeta_center, scn.zeta_edge)
        )
        z_c.append(gamma_from_moments(zm))
    zf1 = edge_power_moments(scn, 1)
    zf2 = edge_power_moments(scn, 2)
    edge = sinr_dist_edge(
        zf1, zf2, scn.zeta_center, scn.zeta_center, scn.zeta_edge, scn.zeta_edge, rho
    )
    edge_hs = sinr_dist_edge_high_snr(
        zf1, zf2, scn.zeta_center, scn.zeta_center, scn.zeta_edge, scn.zeta_edge, rho
    )
    return CoordinatedDistributions(
        center_own=tuple(own),
        center_sic=tuple(sic),
        edge=edge,
        edge_high_snr=edge_hs,
        z_center=tuple(z_c),
    )


def analytic_ergodic_rates(scn: CoordinatedScenario) -> dict[str, float]:
    d = coordinated_distributions(scn)
    return {
        "center1": ergodic_rate(d.center_own[0]),
        "center2": ergodic_rate(d.center_own[1]),
        "edge": ergodic_rate(d.edge),
        "edge_high_snr": ergodic_rate(d.edge_high_snr),
    }


def analytic_outage(scn: CoordinatedScenario) -> dict[str, float]:
    d = coordinated_distributions(scn)
    out = {"edge": outage_edge_closed(d.edge, scn.threshold_edge)}
    for i in (1, 2):
        out[f"center{i}"] = outage_center_closed(
            d.center_sic[i - 1],
            d.center_own[i - 1],
            d.z_center[i - 1],
            scn.rho,
            scn.zeta_center,
            scn.threshold_edge,
            scn.threshold_center,
        )
    return out
