"""Aerial-RIS Markov decision process: a UAV-mounted RIS over a two-cell
CoMP-NOMA network with obstacles.

Discrete time steps: the agent moves the UAV on a horizontal grid, sets the
RIS phases and the per-BS power-allocation factors; channels are redrawn
i.i.d. every slot; the reward is the QoS-scaled sum rate minus a safety
penalty. Moves that would leave the area or enter a forbidden zone are
canceled (the position holds) and flagged.

`ArisEnv` steps a batch of episodes in lockstep, as a vectorized
environment does: `reset(n)` starts the next n episodes, and states, actions
and rewards carry a leading episode axis. Each episode draws its channels
from its own substream, so its trajectory under given actions does not
depend on the episodes that share its batch.
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
    """Per episode (leading axis E): UAV position (E, 2), per-obstacle
    distances (E, n_obstacles), allocation factors (E, n_bs) and last rates
    (E, n_users)."""

    uav_xy: np.ndarray
    obstacle_dists: np.ndarray
    alloc_factors: np.ndarray
    rates: np.ndarray

    def vector(self) -> np.ndarray:
        """The state vectors (E, state_dim)."""
        return np.concatenate(
            [self.uav_xy, self.obstacle_dists, self.alloc_factors, self.rates], axis=-1
        )


@dataclass(frozen=True)
class MdpAction:
    """Hybrid action of E episodes: integer moves (E,), K phase shifts
    (E, K) and I allocation factors (E, I). Every row is checked: each move
    indexes MOVES and each allocation factor lies in (0.5, 1); the phases
    are wrapped into [-pi, pi)."""

    move: np.ndarray
    phases: np.ndarray
    alloc_factors: np.ndarray

    def __post_init__(self):
        move = np.asarray(self.move)
        phases = wrap_phase(self.phases)
        alloc = np.asarray(self.alloc_factors, dtype=float)
        if (move.ndim, phases.ndim, alloc.ndim) != (1, 2, 2) or not (
                move.shape[0] == phases.shape[0] == alloc.shape[0]):
            raise ValueError("an action holds moves (E,), phases (E, K) and allocation "
                             "factors (E, n_bs) of the same E episodes")
        if move.dtype.kind not in "iu" or ((move < 0) | (move >= len(MOVES))).any():
            raise ValueError("move index out of range")
        if not ((alloc > 0.5) & (alloc < 1.0)).all():
            raise ValueError("allocation factors must lie in (0.5, 1)")
        object.__setattr__(self, "move", move)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "alloc_factors", alloc)


def _store(cache: dict, key: bytes, value) -> None:
    if len(cache) >= _POSITION_CACHE_MAX:
        cache.clear()
    cache[key] = value


def _log2_each(x: np.ndarray) -> np.ndarray:
    """math.log2 of every element of x."""
    return np.array([math.log2(v) for v in x.ravel().tolist()]).reshape(x.shape)



class ArisEnv:
    """Environment stepping a batch of episodes in lockstep; one instance is
    single-threaded.

    `reset(n)` starts the next n episodes. Episode j (counted over the
    instance's life) draws from substream (seed, 501, j), n_normals standard
    normals per slot, so a batch of n gives each episode the bits it gets
    when the episodes run one at a time. The per-position geometry caches
    are shared by all episodes.
    """

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
        # Normals of one slot: K real and K imaginary per RIS link, then two
        # per direct link.
        self.n_normals = (2 * scenario.k_elements * (scenario.n_bs + len(self._users))
                          + 2 * self._amp_direct.size)
        self._rho = scenario.rho
        self._move_steps = scenario.step_length * np.array(MOVES)
        # Flat (bs, user) indices of the gains the rates read. Column i serves
        # center i: row 0 is its own BS's gain, the next rows the gains of
        # the BSs j != i that interfere at it, in BS order, and the last row
        # BS i's gain toward the edge user.
        n_bs, n_users = scenario.n_bs, len(self._users)
        rows = [[i] + [j for j in range(n_bs) if j != i] for i in range(n_bs)]
        self._rate_gains = np.array(
            [[j * n_users + i for j in bs] + [i * n_users + n_users - 1]
             for i, bs in enumerate(rows)]).T
        # Per-position geometry, keyed by the bytes of the UAV's (x, y): the
        # UAV moves on a lattice, so the entries are few, and every hit is
        # the same bits the scalar code computes on a miss. Each entry has a
        # leading axis of 1, so the entries of a batch concatenate into it.
        self._link_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self._dist_cache: dict[bytes, np.ndarray] = {}
        self._safe_cache: dict[bytes, bool] = {}
        self._rngs = []
        self._t = 0
        self._pos = None
        self._alloc = None
        self._z = None  # the normals of one slot of every episode
        self._episodes = 0
        self.last_violation = None
        self.last_qos = None

    # Geometry ------------------------------------------------------------
    def _obstacle_dists(self, xy: np.ndarray) -> np.ndarray:
        """Horizontal distances (1, n_obstacles) from xy to every obstacle
        (cached, read-only)."""
        key = xy.tobytes()
        dists = self._dist_cache.get(key)
        if dists is None:
            dists = np.array([[float(np.linalg.norm(xy - o)) for o in self._obstacles]])
            dists.flags.writeable = False
            _store(self._dist_cache, key, dists)
        return dists

    def _inside(self, xy) -> bool:
        half = self.scn.half_extent
        return abs(xy[0]) <= half and abs(xy[1]) <= half

    def _safe(self, xy: np.ndarray) -> bool:
        """Whether xy lies inside the area and outside every forbidden zone
        (cached)."""
        key = xy.tobytes()
        safe = self._safe_cache.get(key)
        if safe is None:
            safe = self._inside(xy) and bool((self._obstacle_dists(xy) >= self.scn.d_min).all())
            _store(self._safe_cache, key, safe)
        return safe

    def _link_geometry(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Path amplitudes (1, n_links, 1) and weighted LoS steering vectors
        (1, n_links, K) of the RIS links, BSs first, with the UAV at xy.

        Per-link geometry stays scalar: numpy's vectorized norm, arctan2 and
        power round some inputs differently.
        """
        key = xy.tobytes()
        geometry = self._link_cache.get(key)
        if geometry is None:
            scn = self.scn
            uav = np.array([xy[0], xy[1], scn.ris_altitude])
            amp, sines = [], []
            for p in self._bs + self._users:
                d = float(np.linalg.norm(uav - p))
                aoa = float(wrap_phase(math.atan2(p[1] - uav[1], p[0] - uav[0])))
                amp.append(math.sqrt(scn.rho_o / d**scn.alpha_ris))
                sines.append(np.sin(aoa))
            los = np.exp(1j * np.arange(scn.k_elements) * np.pi * np.array(sines)[:, None])
            geometry = (np.array(amp)[None, :, None], self._w_los * los[None])
            _store(self._link_cache, key, geometry)
        return geometry

    # Channels ------------------------------------------------------------
    def _channels(self, xy: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Channels of n i.i.d. slots from their normals z (n, n_normals),
        with the UAV at xy (n, 2), one position per slot, or (1, 2) for all:
        RIS-side Rician vectors (n, n_bs + n_users, K), BSs first, and direct
        BS-center Rayleigh links (n, n_bs, n_centers); the BS-edge links are
        blocked by obstacles.

        Each slot reads K real then K imaginary normals per RIS link, then
        each direct link's real and imaginary part.
        """
        scn = self.scn
        k = scn.k_elements
        geometry = [self._link_geometry(p) for p in xy]
        amp = np.concatenate([a for a, _ in geometry])
        los = np.concatenate([w for _, w in geometry])
        n, n_links = z.shape[0], amp.shape[1]
        n_ris = 2 * k * n_links
        zr = z[:, :n_ris].reshape(n, n_links, 2, k)
        nlos = (zr[:, :, 0] + 1j * zr[:, :, 1]) * _SQRT_HALF
        ris = amp * (los + self._w_nlos * nlos)
        # Direct links read (real, imaginary) pairs: complex values in place.
        zd = z[:, n_ris:].view(complex).reshape(n, *self._amp_direct.shape)
        direct = self._amp_direct * (zd * _SQRT_HALF)
        return ris, direct

    def _gains(self, ris: np.ndarray, direct: np.ndarray, phasors: np.ndarray) -> np.ndarray:
        """|direct + sum_k conj(ris_user) * phasor * bs_ris|^2: (..., n, n_bs,
        n_users) for the n slots of _channels and phasors (..., n, K), one
        per slot, or (..., 1, K) and (K,) for every slot."""
        n_bs = self.scn.n_bs
        bs_ris, ris_user = ris[:, :n_bs], ris[:, n_bs:]
        cascade = np.conj(ris_user)[:, None] * phasors[..., None, None, :]
        eff = np.add.reduce(cascade * bs_ris[:, :, None], axis=-1)
        eff[..., : direct.shape[-1]] += direct
        return np.abs(eff) ** 2

    def _rates(self, g: np.ndarray, alloc: np.ndarray, log2=_log2_each) -> np.ndarray:
        """Per-user rates (..., n_bs + 1), centers then edge, from gains
        g (..., n_bs, n_users) and allocation factors alloc (..., n_bs).

        NOMA, or with scenario.oma equal-time TDMA: centers in slot 1 under
        full-power interference, cooperative JT toward the edge in slot 2.
        The MDP's rates take math.log2 element by element (the default
        `_log2_each`): np.log2 rounds about 0.13% of inputs differently
        (measured on a million), which would move the learning curves. A
        bulk caller such as a grid search may pass np.log2, which is faster.
        """
        oma = self.scn.oma
        rho = self._rho
        sel = g.reshape(*g.shape[:-2], -1)[..., self._rate_gains]
        own, to_edge = sel[..., 0, :], sel[..., -1, :]
        ici = rho * np.add.reduce(sel[..., 1:-1, :], axis=-2)
        share_rho = rho if oma else (1.0 - alloc) * rho
        center = 1.0 + share_rho * own / (ici + 1.0)
        if oma:
            sinr_edge = rho * np.add.reduce(to_edge, axis=-1)
        else:
            sinr_edge = (np.add.reduce(alloc * rho * to_edge, axis=-1)
                         / (np.add.reduce(share_rho * to_edge, axis=-1) + 1.0))
        args = np.concatenate([center, 1.0 + sinr_edge[..., None]], axis=-1)
        return (0.5 if oma else 1.0) * log2(args)

    # MDP interface ---------------------------------------------------------
    def _slot(self, phasors: np.ndarray) -> np.ndarray:
        """Rates (E, n_users) of one new slot of every episode, each drawn
        from its episode's stream at its UAV position."""
        for rng, row in zip(self._rngs, self._z):
            rng.standard_normal(out=row)
        return self._rates(self._gains(*self._channels(self._pos, self._z), phasors), self._alloc)

    def _state(self, rates: np.ndarray) -> MdpState:
        dists = np.concatenate([self._obstacle_dists(xy) for xy in self._pos])
        return MdpState(self._pos.copy(), dists, self._alloc.copy(), rates)

    def reset(self, n: int = 1) -> MdpState:
        """Start the next n episodes, in lockstep, at the start position."""
        if n < 1:
            raise ValueError("reset needs n >= 1 episodes")
        start = np.asarray(self.scn.uav_start, dtype=float)
        if not self._safe(start):
            raise ValueError("start position violates the safety constraints")
        first = self._episodes
        self._episodes += n
        self._rngs = [substream(self.seed, _STREAM_ENV, j) for j in range(first, first + n)]
        self._pos = np.tile(start, (n, 1))
        self._z = np.empty((n, self.n_normals))
        self._t = 0
        self._alloc = np.full((n, self.scn.n_bs), self.scn.default_alloc)
        return self._state(self._slot(np.ones(self.scn.k_elements, dtype=complex)))

    def qos_indicators(self, rates: np.ndarray) -> np.ndarray:
        """1 when the rate is at or below its target (violation uses <=)."""
        return (rates <= self._rate_mins).astype(float)

    def reward(self, rates: np.ndarray, qos: np.ndarray, violated) -> np.ndarray:
        """Per episode: the sum rate times the share of users whose QoS
        holds, minus k_viol where the move was canceled."""
        penalty = np.where(violated, self.scn.k_viol, 0.0)
        mean_qos = np.add.reduce(qos, axis=-1) / qos.shape[-1]
        return np.add.reduce(rates, axis=-1) * (1.0 - mean_qos) - penalty

    def step(self, action: MdpAction) -> tuple[MdpState, np.ndarray, bool]:
        """Apply one action per running episode. Returns the states, the
        rewards (E,) and whether the episodes, which share their slot
        count, have ended; `last_violation` (E,) and `last_qos` (E,
        n_users) hold the step's canceled moves and QoS violations."""
        if self._pos is None:
            raise RuntimeError("call reset() before step()")
        n = self._pos.shape[0]
        if action.move.shape[0] != n:
            raise ValueError(f"the action holds {action.move.shape[0]} episodes, "
                             f"the environment runs {n}")
        if action.phases.shape[1] != self.scn.k_elements:
            raise ValueError("phase action length must equal k_elements")
        if action.alloc_factors.shape[1] != self.scn.n_bs:
            raise ValueError("one allocation factor per BS required")
        candidate = self._pos + self._move_steps[action.move]
        violated = np.array([not self._safe(xy) for xy in candidate])
        if violated.any():
            candidate[violated] = self._pos[violated]
        self._pos = candidate
        self._alloc = action.alloc_factors.copy()
        rates = self._slot(np.exp(1j * action.phases))
        qos = self.qos_indicators(rates)
        reward = self.reward(rates, qos, violated)
        self._t += 1
        self.last_violation = violated
        self.last_qos = qos
        return self._state(rates), reward, self._t >= self.scn.t_slots
