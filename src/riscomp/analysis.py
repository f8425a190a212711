"""Scenario-level assembly of the closed-form SINR laws.

Maps a CoordinatedScenario onto the fitted Gamma / Beta-prime distributions
of every user SINR, and evaluates ergodic rates and outage probabilities
from them, at the scenario's own SINR thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import NakagamiParams
from .scenarios import CoordinatedScenario
from .stats import (
    BetaPrimeParams,
    GammaParams,
    MomentPair,
    effective_power_moments,
    ergodic_rate,
    gamma_from_moments,
    outage_center_closed,
    sinr_dist_center,
    sinr_dist_edge,
)


@dataclass(frozen=True)
class CoordinatedDistributions:
    """Fitted laws for the coordinated cluster's SINRs."""

    center_own: tuple[BetaPrimeParams, BetaPrimeParams]
    center_sic: tuple[BetaPrimeParams, BetaPrimeParams]
    edge: BetaPrimeParams
    edge_high_snr: BetaPrimeParams
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
    own = []
    sic = []
    z_c = []
    for i in (1, 2):
        links = scn.center_links(i)
        zm = _power_moments(scn, links, scn.beta_r)
        own.append(sinr_dist_center(zm, links["ici"], rho, zc, 0.0))
        sic.append(sinr_dist_center(zm, links["ici"], rho, zf, zc))
        z_c.append(gamma_from_moments(zm))
    z1 = _power_moments(scn, scn.edge_links(1), scn.beta_t)
    z2 = _power_moments(scn, scn.edge_links(2), scn.beta_t)
    return CoordinatedDistributions(
        center_own=tuple(own),
        center_sic=tuple(sic),
        edge=sinr_dist_edge(z1, z2, zc, zc, zf, zf, rho, noise=1.0),
        edge_high_snr=sinr_dist_edge(z1, z2, zc, zc, zf, zf, rho, noise=0.0),
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
    out = {"edge": d.edge.cdf(scn.threshold_edge)}
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
