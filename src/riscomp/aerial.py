"""Aerial-RIS Markov decision process: a UAV-mounted RIS over a two-cell
CoMP-NOMA network with obstacles.

Discrete time steps: the agent moves the UAV on a horizontal grid, sets the
RIS phases and the per-BS power-allocation factors; channels are redrawn
i.i.d. every slot; the reward is the QoS-scaled sum rate minus a safety
penalty. Moves that would leave the area or enter a forbidden zone are
canceled (the position holds) and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import substream
from .ris import wrap_phase
from .scenarios import AerialScenario

_STREAM_ENV = 501
_SQRT_HALF = math.sqrt(0.5)
# Positions a geometry cache holds before it is emptied: more than the
# default scenario's 31 x 31 lattice, and a bound on memory when off-lattice
# positions (a step length that drifts in floating point) keep arriving.
_POSITION_CACHE_MAX = 2048

# Left, right, down, up, hover.
MOVES = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (0.0, 0.0))


@dataclass(frozen=True)
class MdpState:
    """UAV position, per-obstacle distances, allocation factors, last rates."""

    uav_xy: np.ndarray
    obstacle_dists: np.ndarray
    alloc_factors: np.ndarray
    rates: np.ndarray

    def vector(self) -> np.ndarray:
        return np.concatenate(
            [self.uav_xy, self.obstacle_dists, self.alloc_factors, self.rates]
        )


@dataclass(frozen=True)
class MdpAction:
    """Hybrid action: one discrete move, K phase shifts, I allocation factors."""

    move: int
    phases: np.ndarray
    alloc_factors: np.ndarray

    def __post_init__(self):
        if not 0 <= self.move < len(MOVES):
            raise ValueError("move index out of range")
        object.__setattr__(self, "phases", wrap_phase(self.phases))
        alloc = np.asarray(self.alloc_factors, dtype=float)
        if np.any(alloc <= 0.5) or np.any(alloc >= 1.0):
            raise ValueError("allocation factors must lie in (0.5, 1)")
        object.__setattr__(self, "alloc_factors", alloc)


def _store(cache: dict, key: bytes, value) -> None:
    if len(cache) >= _POSITION_CACHE_MAX:
        cache.clear()
    cache[key] = value


class ArisEnv:
    """Single-agent environment; one instance is single-threaded."""

    def __init__(self, scenario: AerialScenario, seed: int = 0):
        self.scn = scenario
        self.seed = seed
        self._users = [np.asarray(p, dtype=float) for p in scenario.center_positions]
        self._users.append(np.asarray(scenario.edge_position, dtype=float))
        self._bs = [np.asarray(p, dtype=float) for p in scenario.bs_positions]
        self._obstacles = [np.asarray(p[:2], dtype=float) for p in scenario.obstacle_positions]
        # Direct BS-center link amplitudes: the UAV is on none of these links.
        self._amp_direct = np.empty((scenario.n_bs, len(self._users) - 1))
        for i, bs in enumerate(self._bs):
            for u, pu in enumerate(self._users[:-1]):
                alpha = scenario.alpha_direct if u == i else scenario.alpha_ici
                d = float(np.linalg.norm(bs - pu))
                self._amp_direct[i, u] = math.sqrt(scenario.rho_o / d**alpha)
        kappa = scenario.kappa
        self._w_los = math.sqrt(kappa / (1.0 + kappa)) if math.isfinite(kappa) else 1.0
        self._w_nlos = math.sqrt(1.0 / (1.0 + kappa))
        self._rate_mins = np.array([scenario.r_center_min] * scenario.n_bs
                                   + [scenario.r_edge_min])
        # Per-position geometry, keyed by the bytes of the UAV's (x, y): the
        # UAV moves on a lattice, so the entries are few, and every hit is
        # the same bits the scalar code computes on a miss.
        self._link_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self._dist_cache: dict[bytes, np.ndarray] = {}
        self._rng = None
        self._t = 0
        self._pos = None
        self._alloc = None
        self._episode = -1
        self.last_violation = False
        self.last_qos = None

    # Geometry ------------------------------------------------------------
    def _obstacle_dists(self, xy: np.ndarray) -> np.ndarray:
        """Horizontal distances from xy to every obstacle (cached, read-only)."""
        key = xy.tobytes()
        dists = self._dist_cache.get(key)
        if dists is None:
            dists = np.array([float(np.linalg.norm(xy - o)) for o in self._obstacles])
            dists.flags.writeable = False
            _store(self._dist_cache, key, dists)
        return dists

    def _inside(self, xy) -> bool:
        half = self.scn.half_extent
        return abs(xy[0]) <= half and abs(xy[1]) <= half

    def _safe(self, xy: np.ndarray) -> bool:
        return self._inside(xy) and bool(np.all(self._obstacle_dists(xy) >= self.scn.d_min))

    def _link_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Path amplitudes (n_links, 1) and weighted LoS steering vectors
        (n_links, K) of the RIS links, BSs first, at the UAV's position.

        Per-link geometry stays scalar: numpy's vectorized norm, arctan2 and
        power round some inputs differently.
        """
        key = self._pos.tobytes()
        geometry = self._link_cache.get(key)
        if geometry is None:
            scn = self.scn
            uav = np.array([self._pos[0], self._pos[1], scn.ris_altitude])
            amp, sines = [], []
            for p in self._bs + self._users:
                d = float(np.linalg.norm(uav - p))
                aoa = float(wrap_phase(math.atan2(p[1] - uav[1], p[0] - uav[0])))
                amp.append(math.sqrt(scn.rho_o / d**scn.alpha_ris))
                sines.append(np.sin(aoa))
            los = np.exp(1j * np.arange(scn.k_elements) * np.pi * np.array(sines)[:, None])
            geometry = (np.array(amp)[:, None], self._w_los * los)
            _store(self._link_cache, key, geometry)
        return geometry

    # Channels ------------------------------------------------------------
    def _draw_channels(self, n: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """n i.i.d. slots: RIS-side Rician vectors (n, n_bs + n_users, K), BSs
        first, and direct BS-center Rayleigh links (n, n_bs, n_centers); the
        BS-edge links are blocked by obstacles.

        Each slot reads K real then K imaginary normals per RIS link, then
        each direct link's real and imaginary part, so one batch of n equals
        n single draws.
        """
        scn = self.scn
        k = scn.k_elements
        amp, los = self._link_geometry()
        n_ris = 2 * k * amp.shape[0]
        z = self._rng.standard_normal((n, n_ris + 2 * self._amp_direct.size))
        zr = z[:, :n_ris].reshape(n, amp.shape[0], 2, k)
        nlos = (zr[:, :, 0] + 1j * zr[:, :, 1]) * _SQRT_HALF
        ris = amp * (los + self._w_nlos * nlos)
        zd = z[:, n_ris:].reshape(n, scn.n_bs, -1, 2)
        direct = self._amp_direct * ((zd[..., 0] + 1j * zd[..., 1]) * _SQRT_HALF)
        return ris, direct

    def _gains(self, ris: np.ndarray, direct: np.ndarray, phasors: np.ndarray) -> np.ndarray:
        """|direct + sum_k conj(ris_user) * phasor * bs_ris|^2: (..., n, n_bs,
        n_users) for phasors (..., K) and the n slots of _draw_channels."""
        n_bs = self.scn.n_bs
        bs_ris, ris_user = ris[:, :n_bs], ris[:, n_bs:]
        cascade = np.conj(ris_user)[:, None] * phasors[..., None, None, None, :]
        eff = np.sum(cascade * bs_ris[:, :, None], axis=-1)
        eff[..., : direct.shape[-1]] += direct
        return np.abs(eff) ** 2

    def _rates(self, g: np.ndarray, alloc: np.ndarray) -> np.ndarray:
        """Per-user rates (..., n_bs + 1), centers then edge, from gains
        g (..., n_bs, n_users) and allocation factors alloc (n_bs,).

        NOMA, or with scenario.oma equal-time TDMA: centers in slot 1 under
        full-power interference, cooperative JT toward the edge in slot 2.
        One slot, g (n_bs, n_users), takes math.log2: np.log2 rounds some
        inputs differently.
        """
        scn = self.scn
        rho = scn.rho
        n_bs = scn.n_bs
        log2 = math.log2 if g.ndim == 2 else np.log2
        slot = 0.5 if scn.oma else 1.0
        share = np.ones(n_bs) if scn.oma else 1.0 - alloc
        rates = []
        for i in range(n_bs):
            ici = rho * sum(g[..., j, i] for j in range(n_bs) if j != i)
            rates.append(slot * log2(1.0 + share[i] * rho * g[..., i, i] / (ici + 1.0)))
        if scn.oma:
            sinr_edge = rho * sum(g[..., i, -1] for i in range(n_bs))
        else:
            num = sum(alloc[i] * rho * g[..., i, -1] for i in range(n_bs))
            den = sum((1.0 - alloc[i]) * rho * g[..., i, -1] for i in range(n_bs)) + 1.0
            sinr_edge = num / den
        rates.append(slot * log2(1.0 + sinr_edge))
        return np.stack(rates, axis=-1)

    # MDP interface ---------------------------------------------------------
    def reset(self) -> MdpState:
        self._episode += 1
        self._rng = substream(self.seed, _STREAM_ENV, self._episode)
        self._pos = np.asarray(self.scn.uav_start, dtype=float).copy()
        if not self._safe(self._pos):
            raise ValueError("start position violates the safety constraints")
        self._t = 0
        self._alloc = np.full(self.scn.n_bs, self.scn.default_alloc)
        g = self._gains(*self._draw_channels(), np.ones(self.scn.k_elements, dtype=complex))
        rates = self._rates(g[0], self._alloc)
        return MdpState(self._pos.copy(), self._obstacle_dists(self._pos),
                        self._alloc.copy(), rates)

    def qos_indicators(self, rates: np.ndarray) -> np.ndarray:
        """1 when the rate is at or below its target (violation uses <=)."""
        return (rates <= self._rate_mins).astype(float)

    def reward(self, rates: np.ndarray, qos: np.ndarray, safety_flag: bool) -> float:
        r_sum = float(np.sum(rates))
        penalty = self.scn.k_viol if safety_flag else 0.0
        return r_sum * (1.0 - float(np.mean(qos))) - penalty

    def step(self, action: MdpAction) -> tuple[MdpState, float, bool]:
        if self._pos is None:
            raise RuntimeError("call reset() before step()")
        if action.phases.size != self.scn.k_elements:
            raise ValueError("phase action length must equal k_elements")
        if action.alloc_factors.size != self.scn.n_bs:
            raise ValueError("one allocation factor per BS required")
        move = np.asarray(MOVES[action.move])
        candidate = self._pos + self.scn.step_length * move
        violated = not self._safe(candidate)
        if not violated:
            self._pos = candidate
        self._alloc = action.alloc_factors.copy()
        g = self._gains(*self._draw_channels(), np.exp(1j * action.phases))
        rates = self._rates(g[0], self._alloc)
        qos = self.qos_indicators(rates)
        reward = self.reward(rates, qos, violated)
        self._t += 1
        done = self._t >= self.scn.t_slots
        self.last_violation = violated
        self.last_qos = qos
        state = MdpState(self._pos.copy(), self._obstacle_dists(self._pos),
                         self._alloc.copy(), rates)
        return state, reward, done
