"""Scenario definitions: geometry, channel parameters, powers, thresholds.

One dataclass per network family, with table defaults. The families share
one link budget (LinkBudget, and RicianLinks for the Rician families), whose
properties convert the dB/dBm fields to linear scale on each access; downstream
code reads only those linear quantities. The rule of where the UAV may be is
AerialScenario's alone: `inside`, `obstacle_dists` and `clear`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .channel import NakagamiParams
from .units import db_to_linear, dbm_to_watts, noise_power_watts


class LinkBudget:
    """The link budget every scenario family shares, from its p_t_dbm,
    rho_o_db, bandwidth_hz and noise_figure_db fields: the transmit power,
    the 1 m reference gain rho_o, the thermal noise power over the bandwidth
    with the noise figure added, and the transmit SNR rho."""

    @property
    def rho_o(self) -> float:
        return db_to_linear(self.rho_o_db)

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.p_t_dbm)

    @property
    def noise_w(self) -> float:
        return noise_power_watts(self.bandwidth_hz, self.noise_figure_db)

    @property
    def rho(self) -> float:
        """Transmit SNR rho = P_t / sigma^2."""
        return self.tx_power_w / self.noise_w

    def gain(self, d: float, alpha: float) -> float:
        """Path gain rho_o / d^alpha at distance d and exponent alpha."""
        return self.rho_o / d**alpha


class RicianLinks:
    """The Rician factor kappa of a family's Rician links, from its kappa_db
    field, and their LoS/NLoS weights."""

    @property
    def kappa(self) -> float:
        return db_to_linear(self.kappa_db)

    @property
    def rician_weights(self) -> tuple[float, float]:
        """(sqrt(kappa / (1 + kappa)), sqrt(1 / (1 + kappa))); pure LoS,
        (1, 0), at kappa = inf."""
        kappa = self.kappa
        w_los = math.sqrt(kappa / (1.0 + kappa)) if math.isfinite(kappa) else 1.0
        return w_los, math.sqrt(1.0 / (1.0 + kappa))


NOT_FINITE = "not a finite number"  # ends each line _numbers refuses
COOP_RANGE = "cooperative set must satisfy 1 <= J <= I"


def _numbers(scn, limits=()) -> list:
    """A failed check for each float field of scn that holds NaN or, unless
    it is in `limits`, whose infinities are limiting cases, an infinity."""
    values = {f.name: getattr(scn, f.name) for f in fields(scn) if f.type == "float"}
    return [(f"{name} = {v!r}: {NOT_FINITE}", False) for name, v in values.items()
            if not (math.isfinite(v) or (name in limits and not math.isnan(v)))]


def _refuse(checks) -> None:
    """Raise one ValueError naming every failed check of a scenario, one per
    line; checks are (message, holds) pairs."""
    problems = [message for message, holds in checks if not holds]
    if problems:
        raise ValueError("\n".join(problems))


@dataclass(frozen=True)
class CoordinatedScenario(LinkBudget):
    """Two-cell STAR-RIS coordinated NOMA cluster.

    Two BSs each serve a center user; the shared edge user is served by both.
    The STAR-RIS sits between the cells: the edge user lies in its
    transmission region (amplitude share beta_t), center users in the
    reflection region (beta_r).
    """

    p_t_dbm: float = -10.0
    rho_o_db: float = -30.0
    bandwidth_hz: float = 1e6
    noise_figure_db: float = 12.0
    zeta_center: float = 0.3
    zeta_edge: float = 0.7
    k_elements: int = 34
    beta_t: float = 0.5
    beta_r: float = 0.5
    # Elements assigned to cell 1 and cell 2. Validated (entries >= 0, summing
    # to k_elements) but read by nothing else: the closed forms in `analysis`
    # and the trial engine use the full cascade amplitude K sqrt(beta), so the
    # assignment does not change any rate.
    assignment: tuple[int, int] = (17, 17)
    # Nakagami shapes: direct/interfering BS-user links, BS-RIS, RIS-user.
    m_direct: float = 1.0
    m_bs_ris: float = 2.0
    m_ris_user: float = 2.0
    # Path-loss exponents per link class.
    alpha_center: float = 3.0
    alpha_edge: float = 3.5
    alpha_bs_ris: float = 3.0
    alpha_ris_center: float = 2.7
    alpha_ris_edge: float = 2.3
    alpha_ici: float = 4.0
    # Geometry (meters).
    bs1: tuple = (-50.0, 0.0, 25.0)
    bs2: tuple = (50.0, 0.0, 25.0)
    ris: tuple = (0.0, 25.0, 5.0)
    center1: tuple = (-40.0, 18.0, 1.0)
    center2: tuple = (30.0, 22.0, 1.0)
    edge: tuple = (0.0, 35.0, 1.0)
    thresholds_db: tuple[float, float] = (0.0, 0.0)  # (center, edge) SINR thresholds

    def __post_init__(self):
        k = self.k_elements
        _refuse([
            *_numbers(self),
            ("k_elements must be >= 0", k >= 0),
            *((f"{key} = {getattr(self, key)!r}: Nakagami shape must be >= 0.5",
               getattr(self, key) >= 0.5) for key in ("m_direct", "m_bs_ris", "m_ris_user")),
            (f"beta_t = {self.beta_t!r}, beta_r = {self.beta_r!r}: each must lie in [0, 1]",
             all(0.0 <= b <= 1.0 for b in (self.beta_t, self.beta_r))),
            ("beta_t + beta_r must equal 1", not abs(self.beta_t + self.beta_r - 1.0) > 1e-12),
            # The assignment is checked against K only where K itself is valid.
            ("assignment entries must be >= 0 and sum to k_elements",
             k < 0 or (min(self.assignment) >= 0 and sum(self.assignment) == k)),
            ("allocation factors violate the decoding order",
             0.0 < self.zeta_center < 0.5 < self.zeta_edge < 1.0),
            ("allocation factors must sum to 1",
             not abs(self.zeta_center + self.zeta_edge - 1.0) > 1e-12),
        ])

    @property
    def threshold_center(self) -> float:
        return db_to_linear(self.thresholds_db[0])

    @property
    def threshold_edge(self) -> float:
        return db_to_linear(self.thresholds_db[1])

    def omega(self, p: tuple, q: tuple, alpha: float) -> float:
        """Mean power of the link between positions p and q: its path gain."""
        d = float(np.linalg.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)))
        return self.gain(d, alpha)

    def _bs(self, i: int) -> tuple:
        return (self.bs1, self.bs2)[i - 1]

    def _center(self, i: int) -> tuple:
        return (self.center1, self.center2)[i - 1]

    def _links(self, i: int, user: tuple, alpha: float, alpha_ris: float) -> dict:
        """Direct (exponent alpha), BS-RIS and RIS-user (alpha_ris) links
        from BS i to the user at `user`."""
        bs = self._bs(i)
        return {
            "direct": NakagamiParams(self.m_direct, self.omega(bs, user, alpha)),
            "bs_ris": NakagamiParams(self.m_bs_ris, self.omega(bs, self.ris, self.alpha_bs_ris)),
            "ris_user": NakagamiParams(self.m_ris_user, self.omega(self.ris, user, alpha_ris)),
        }

    def _center_links(self, i: int) -> dict[str, NakagamiParams]:
        other = 2 if i == 1 else 1
        center = self._center(i)
        return {
            **self._links(i, center, self.alpha_center, self.alpha_ris_center),
            "ici": NakagamiParams(
                self.m_direct, self.omega(self._bs(other), center, self.alpha_ici)
            ),
        }

    @cached_property
    def links(self) -> tuple[dict[str, NakagamiParams], ...]:
        """Nakagami parameters of the links of center 1, center 2, edge 1
        and edge 2 (center_links, edge_links), computed once per instance:
        the trial engine draws from them and checks each batch against
        them, and `analysis` fits the laws at them."""
        return (self._center_links(1), self._center_links(2),
                *(self._links(i, self.edge, self.alpha_edge, self.alpha_ris_edge) for i in (1, 2)))

    def center_links(self, i: int) -> dict[str, NakagamiParams]:
        """Nakagami parameters of every link feeding center user i's SINRs."""
        return self.links[i - 1]

    def edge_links(self, i: int) -> dict[str, NakagamiParams]:
        return self.links[i + 1]

    def cascade_amp_center(self) -> float:
        """Co-phased cascade multiplier K*sqrt(beta_r) for the reflection region."""
        return self.k_elements * math.sqrt(self.beta_r)

    def cascade_amp_edge(self) -> float:
        return self.k_elements * math.sqrt(self.beta_t)


@dataclass(frozen=True)
class MultiCellScenario(LinkBudget, RicianLinks):
    """Symmetric I-cell CoMP-NOMA network with one RIS per cell edge.

    All geometry is specified through the distance table; cells are
    statistically identical. The first n_coop cells form the cooperative set.
    """

    n_cells: int = 6
    n_coop: int = 4
    k_elements: int = 70
    p_t_dbm: float = 0.0
    rho_o_db: float = -30.0
    bandwidth_hz: float = 1e7
    noise_figure_db: float = 0.0
    zeta_edge: float = 0.7
    kappa_db: float = 3.0
    d_center: float = 50.0
    d_edge: float = 150.0
    d_ici: float = 200.0
    d_bs_ris: float = 75.0
    d_ris_edge: float = 75.0
    alpha_center: float = 3.0
    alpha_edge: float = 3.5
    alpha_ris: float = 2.7
    alpha_ici: float = 4.0
    r_center_min: float = 1.0
    r_edge_min: float = 0.5
    amp_efficiency: float = 0.4
    static_power_dbm: float = 30.0
    element_power_dbm: float = 5.0

    def __post_init__(self):
        _refuse([
            *_numbers(self, limits=("kappa_db",)),
            (COOP_RANGE, 1 <= self.n_coop <= self.n_cells),
            ("k_elements must be >= 0", self.k_elements >= 0),
            ("r_center_min must be >= 0", not self.r_center_min < 0),
            ("r_edge_min must be >= 0", not self.r_edge_min < 0),
            ("edge allocation factor must lie in (0.5, 1)", 0.5 < self.zeta_edge < 1.0),
            ("amplifier efficiency must lie in (0, 1]", 0 < self.amp_efficiency <= 1),
        ])

    @property
    def static_power_w(self) -> float:
        return dbm_to_watts(self.static_power_dbm)

    @property
    def element_power_w(self) -> float:
        return dbm_to_watts(self.element_power_dbm)


@dataclass(frozen=True)
class AerialScenario(LinkBudget, RicianLinks):
    """Two-cell CoMP-NOMA network served by one UAV-mounted RIS.

    The UAV moves on a horizontal grid inside the square area; obstacles
    carry circular forbidden zones evaluated in the horizontal plane.
    Direct BS-edge links are blocked.
    """

    half_extent: float = 75.0
    bs_positions: tuple = ((-35.0, -35.0, 25.0), (35.0, 35.0, 25.0))
    center_positions: tuple = ((-25.0, -45.0, 0.0), (45.0, 25.0, 0.0))
    edge_position: tuple = (0.0, 35.0, 0.0)
    obstacle_positions: tuple = ((-20.0, 10.0), (30.0, -25.0))
    ris_altitude: float = 50.0
    uav_start: tuple = (0.0, 35.0)
    d_min: float = 10.0
    step_length: float = 5.0
    k_elements: int = 120
    t_slots: int = 250
    p_t_dbm: float = 20.0
    rho_o_db: float = -30.0
    bandwidth_hz: float = 1e7
    noise_figure_db: float = 0.0
    kappa_db: float = 3.0
    alpha_direct: float = 3.0
    alpha_ris: float = 2.2
    alpha_ici: float = 3.5
    r_center_min: float = 0.5
    r_edge_min: float = 0.2
    k_viol: float = 7.0
    default_alloc: float = 0.75
    oma: bool = False

    def __post_init__(self):
        start = self.uav_start
        _refuse([
            *_numbers(self, limits=("kappa_db",)),
            ("one center user per BS required",
             len(self.center_positions) == len(self.bs_positions)),
            ("entity outside the operating area", all(map(self.inside, (
                *self.bs_positions, *self.center_positions, self.edge_position)))),
            ("obstacle outside the operating area", all(map(self.inside, self.obstacle_positions))),
            ("UAV start outside the operating area", self.inside(start)),
            ("d_min must be positive", not self.d_min <= 0),
            ("k_elements must be >= 0", self.k_elements >= 0),
            ("episode length must be >= 1", self.t_slots >= 1),
            ("r_center_min must be >= 0", not self.r_center_min < 0),
            ("r_edge_min must be >= 0", not self.r_edge_min < 0),
            ("default allocation factor must lie in (0.5, 1)", 0.5 < self.default_alloc < 1.0),
            # Measured only for a start inside the area, which the check above names.
            (f"d_min = {self.d_min!r}: the UAV start {tuple(start)} lies within "
             "d_min of an obstacle", not self.inside(start) or self.clear(start)),
        ])

    def inside(self, xy) -> bool:
        """Whether the point xy (its first two coordinates) lies in the area."""
        half = self.half_extent
        return abs(xy[0]) <= half and abs(xy[1]) <= half

    def obstacle_dists(self, xy) -> list[float]:
        """Horizontal distances from the UAV at xy to every obstacle, each
        sqrt(v.dot(v)), which is how np.linalg.norm(v) computes it."""
        xy = np.asarray(xy, dtype=float)
        return [math.sqrt(d.dot(d)) for d in
                (xy - np.asarray(o[:2], dtype=float) for o in self.obstacle_positions)]

    def clear(self, xy, dists=None) -> bool:
        """Whether the UAV may be at xy: inside the area and at least d_min
        from every obstacle, at the distances `dists` where the caller has
        measured them (obstacle_dists(xy)). ArisEnv cancels a move to a
        position not clear."""
        return self.inside(xy) and all(
            d >= self.d_min for d in (self.obstacle_dists(xy) if dists is None else dists))

    @property
    def n_bs(self) -> int:
        return len(self.bs_positions)

    @property
    def n_obstacles(self) -> int:
        return len(self.obstacle_positions)

    @property
    def n_users(self) -> int:
        return len(self.center_positions) + 1

    @property
    def state_dim(self) -> int:
        # uav xy + obstacle distances + allocation factors + per-user rates
        return 2 + self.n_obstacles + self.n_bs + self.n_users

    @property
    def action_dim_continuous(self) -> int:
        return self.k_elements + self.n_bs


def tiny_aerial_scenario(k_elements: int = 4, t_slots: int = 40, **kw) -> AerialScenario:
    """Desk-scale instance for training sanity checks and grid baselines.

    The UAV starts in a far corner so trajectory learning is visible in the
    reward curve: flying toward the user cluster strengthens every cascade.
    """
    base = dict(
        half_extent=50.0,
        bs_positions=((-20.0, -20.0, 25.0), (20.0, 20.0, 25.0)),
        center_positions=((-15.0, -25.0, 0.0), (25.0, 15.0, 0.0)),
        edge_position=(0.0, 20.0, 0.0),
        obstacle_positions=((-15.0, 10.0),),
        uav_start=(-40.0, -40.0),
        ris_altitude=30.0,
        k_elements=k_elements,
        t_slots=t_slots,
        p_t_dbm=20.0,
    )
    base.update(kw)
    return AerialScenario(**base)
