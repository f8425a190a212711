"""Independent reference implementations that the tests check the engines
against: per-user NOMA SINR arithmetic, RIS phase operators and the
effective-channel composition, half-line quadrature, per-link Rayleigh
and Rician channel draws, one aerial slot drawn link by link, the scalar
incomplete beta, the per-array Adam step, the policy initialisation as
one literal dict of arrays, MO-PPO training with its episodes rolled out
one at a time, and the exhaustive grid search over static aerial
configurations that the trained policy is measured against.

Nothing in the package calls these. The engines compute the same quantities
in vectorized closed forms; these scalar versions state the definitions
directly, so agreement between the two is evidence for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator

from riscomp.aerial import ArisEnv
from riscomp.channel import substream
from riscomp.moppo import (
    _ADAM_B1,
    _ADAM_B2,
    _ADAM_EPS,
    _STREAM_AGENT,
    LOG_STD_MAX,
    LOG_STD_MIN,
    N_MOVES,
    Minibatch,
    TrainConfig,
    _input_dim,
    _net_input,
    _orthogonal,
    _ppo_epochs,
    _round_config,
    advantage,
    forward,
    gaussian_logp,
    init_policy,
    state_scale,
    to_env_action,
)
from riscomp.quadrature import integrate
from riscomp.ris import wrap_phase
from riscomp.scenarios import AerialScenario
from riscomp.special import _EPS, _MAX_ITER, _TINY, ConvergenceError, betaln

_STREAM_GRID = 801


@dataclass(frozen=True)
class NomaPair:
    """Power-allocation split of one BS: center factor, edge factor, power."""

    zeta_center: float
    zeta_edge: float
    tx_power: float

    def __post_init__(self):
        if abs(self.zeta_center + self.zeta_edge - 1.0) > 1e-12:
            raise ValueError("allocation factors must sum to 1")
        if not (0.0 < self.zeta_center < 0.5 < self.zeta_edge < 1.0):
            raise ValueError("decoding order requires zeta_center < 0.5 < zeta_edge")
        if self.tx_power <= 0:
            raise ValueError("transmit power must be positive")


@dataclass(frozen=True)
class LinkBudget:
    """Per-BS effective gains toward one user, received interference powers,
    and noise power (all linear)."""

    effective_gains: np.ndarray
    interference_gains: np.ndarray = field(default_factory=lambda: np.zeros(0))
    noise_power: float = 1.0

    def __post_init__(self):
        eff = np.atleast_1d(np.asarray(self.effective_gains, dtype=float))
        ici = np.atleast_1d(np.asarray(self.interference_gains, dtype=float))
        if np.any(eff < 0) or np.any(ici < 0):
            raise ValueError("gains must be nonnegative")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
        object.__setattr__(self, "effective_gains", eff)
        object.__setattr__(self, "interference_gains", ici)


def _as_pairs(pairs) -> Sequence[NomaPair]:
    if isinstance(pairs, NomaPair):
        return (pairs,)
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("at least one serving BS is required")
    return pairs


def _check(pairs: Sequence[NomaPair], budget: LinkBudget):
    if len(pairs) != budget.effective_gains.size:
        raise ValueError("one NomaPair per effective gain is required")


def sinr_edge_comp(pairs, budget: LinkBudget) -> float:
    """Non-coherent JT-CoMP edge SINR: received edge powers add, center
    components remain as intra-cluster interference."""
    pairs = _as_pairs(pairs)
    _check(pairs, budget)
    g = budget.effective_gains
    num = sum(p.zeta_edge * p.tx_power * g[j] for j, p in enumerate(pairs))
    den = sum(p.zeta_center * p.tx_power * g[j] for j, p in enumerate(pairs))
    den += float(np.sum(budget.interference_gains)) + budget.noise_power
    return num / den


@dataclass(frozen=True)
class PhaseMatrix:
    """Diagonal operator: elementwise multiply by amplitude * e^{j phase}."""

    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        ph = wrap_phase(np.atleast_1d(self.phases))
        if amp.shape != ph.shape:
            raise ValueError("amplitudes and phases must have equal length")
        if np.any(amp < 0) or np.any(amp > 1):
            raise ValueError("amplitudes must lie in [0, 1]")
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "phases", ph)

    @property
    def k_elements(self) -> int:
        return self.amplitudes.size

    @property
    def values(self) -> np.ndarray:
        return self.amplitudes * np.exp(1j * self.phases)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.size != self.k_elements:
            raise ValueError("vector length does not match element count")
        return self.values * vec


def cascade_terms(h_ris_user: np.ndarray, h_bs_ris: np.ndarray) -> np.ndarray:
    """Per-element cascade factor conj(h_ru) * h_br (unit phase shift)."""
    h_ru = np.asarray(h_ris_user)
    h_br = np.asarray(h_bs_ris)
    if h_ru.shape != h_br.shape:
        raise ValueError("cascade vectors must have equal length")
    return np.conj(h_ru) * h_br


def effective_channel(
    h_direct: complex,
    h_ris_user: np.ndarray,
    theta: PhaseMatrix,
    h_bs_ris: np.ndarray,
) -> complex:
    """h_direct + h_ru^H Theta h_br; an empty operator returns h_direct."""
    h_ru = np.asarray(h_ris_user)
    h_br = np.asarray(h_bs_ris)
    if h_ru.size != theta.k_elements or h_br.size != theta.k_elements:
        raise ValueError("channel vectors must match the operator element count")
    if theta.k_elements == 0:
        return complex(h_direct)
    return complex(h_direct + np.sum(cascade_terms(h_ru, h_br) * theta.values))


def eo_phases(h_direct: complex, h_ris_user, h_bs_ris) -> np.ndarray:
    """Co-phasing: rotate every cascade term onto arg(h_direct), so the
    effective magnitude reaches |h_direct| + sum_k |cascade_k|.

    arg(0) is taken as 0 (blocked direct link); zero cascade entries get
    phase 0 since their contribution vanishes either way.
    """
    terms = cascade_terms(h_ris_user, h_bs_ris)
    target = float(np.angle(h_direct)) if h_direct != 0 else 0.0
    phases = wrap_phase(target - np.angle(terms))
    phases[terms == 0] = 0.0
    return phases


def ec_phases(h_direct: complex, h_ris_user, h_bs_ris) -> np.ndarray:
    """Anti-phasing: every cascade term opposes arg(h_direct), so the
    effective magnitude drops to | |h_direct| - sum_k |cascade_k| |."""
    return wrap_phase(eo_phases(h_direct, h_ris_user, h_bs_ris) + math.pi)


def integrate_half_line(
    f: Callable[[float], float],
    rtol: float = 1e-8,
    atol: float = 1e-12,
    breakpoints: Sequence[float] = (),
    limit: int = 4000,
) -> float:
    """Integral of f over (0, inf) via x = t/(1-t)."""

    def g(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        one_m = 1.0 - t
        x = t / one_m
        if math.isinf(x):
            return 0.0
        return f(x) / (one_m * one_m)

    pts = [x / (1.0 + x) for x in breakpoints if x > 0 and math.isfinite(x)]
    return integrate(g, 0.0, 1.0, rtol=rtol, atol=atol, breakpoints=pts, limit=limit)


_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class RicianParams:
    """Linear K-factor and angle of arrival of the LoS component."""

    kappa: float
    aoa: float

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("Rician factor must be >= 0")
        if not (-math.pi <= self.aoa < math.pi):
            raise ValueError("aoa must lie in [-pi, pi)")


def sample_rayleigh(rng: Generator, size=None) -> np.ndarray | complex:
    """Circularly symmetric complex Gaussian with E[|v|^2] = 1."""
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    v = (re + 1j * im) * _SQRT_HALF
    return v if size is not None else complex(v)


def los_steering(k_elements: int, aoa: float) -> np.ndarray:
    """Progressive-phase steering vector, k-th entry e^{j(k-1) pi sin(aoa)}."""
    if k_elements < 0:
        raise ValueError("element count must be >= 0")
    k = np.arange(k_elements)
    return np.exp(1j * k * np.pi * np.sin(aoa))


def sample_rician_vector(k_elements: int, p: RicianParams, rng: Generator) -> np.ndarray:
    """LoS steering plus Rayleigh scatter, per-element E[|.|^2] = 1.

    k_elements = 0 returns an empty vector (the no-RIS degenerate case).
    """
    if k_elements == 0:
        return np.zeros(0, dtype=np.complex128)
    los = los_steering(k_elements, p.aoa)
    if math.isinf(p.kappa):
        return los
    nlos = sample_rayleigh(rng, k_elements)
    w_los = math.sqrt(p.kappa / (1.0 + p.kappa))
    w_nlos = math.sqrt(1.0 / (1.0 + p.kappa))
    return w_los * los + w_nlos * nlos


def aerial_slot_draw(scn, xy, rng):
    """One slot drawn link by link: Rician RIS vectors (BSs, then centers and
    edge) and Rayleigh direct BS-center links, each scaled by its path gain."""
    uav = np.array([xy[0], xy[1], scn.ris_altitude])
    users = [np.asarray(p, dtype=float) for p in (*scn.center_positions, scn.edge_position)]
    bss = [np.asarray(p, dtype=float) for p in scn.bs_positions]
    ris = []
    for p in bss + users:
        d = float(np.linalg.norm(uav - p))
        aoa = float(wrap_phase(math.atan2(p[1] - uav[1], p[0] - uav[0])))
        vec = sample_rician_vector(scn.k_elements, RicianParams(scn.kappa, aoa), rng)
        ris.append(math.sqrt(scn.rho_o / d**scn.alpha_ris) * vec)
    direct = np.zeros((scn.n_bs, len(users)), dtype=complex)  # edge column blocked
    for i, bs in enumerate(bss):
        for u, pu in enumerate(users[:-1]):
            alpha = scn.alpha_direct if u == i else scn.alpha_ici
            gain = scn.rho_o / float(np.linalg.norm(bs - pu)) ** alpha
            direct[i, u] = math.sqrt(gain) * sample_rayleigh(rng)
    return ris, direct


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(f"incomplete beta continued fraction (a={a}, b={b}, x={x})")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("betainc_reg requires a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - betaln(a, b)
    front = math.exp(ln_front)
    # Symmetry transform keeps the continued fraction in its convergent region.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def adam_step(weights: dict, adam_m: dict, adam_v: dict, grads: dict, t: int,
              lr: float) -> None:
    """Adam descent on -J for step t, array by array, then the log_std clip.

    Updates the three dicts in place: moments in place, weights rebound.
    """
    for k in weights:
        g_loss = -grads[k]  # descend on -J
        m = adam_m[k]
        vv = adam_v[k]
        m[...] = _ADAM_B1 * m + (1.0 - _ADAM_B1) * g_loss
        vv[...] = _ADAM_B2 * vv + (1.0 - _ADAM_B2) * g_loss**2
        m_hat = m / (1.0 - _ADAM_B1**t)
        v_hat = vv / (1.0 - _ADAM_B2**t)
        weights[k] = weights[k] - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    np.clip(weights["log_std"], LOG_STD_MIN, LOG_STD_MAX, out=weights["log_std"])


def init_policy_arrays(state_dim: int, n_cont: int, rng, hidden: int = 64,
                       head_hidden: int = 64, log_std_init: float = -0.5) -> dict:
    """The policy's initial arrays, written out name by name."""
    return {
        "w1": _orthogonal(rng, (hidden, state_dim), math.sqrt(2.0)),
        "b1": np.zeros(hidden),
        "w2": _orthogonal(rng, (hidden, hidden), math.sqrt(2.0)),
        "b2": np.zeros(hidden),
        "wd": _orthogonal(rng, (head_hidden, hidden), math.sqrt(2.0)),
        "bd": np.zeros(head_hidden),
        "wdo": _orthogonal(rng, (N_MOVES, head_hidden), 0.01),
        "bdo": np.zeros(N_MOVES),
        "wc": _orthogonal(rng, (head_hidden, hidden), math.sqrt(2.0)),
        "bc": np.zeros(head_hidden),
        "wco": _orthogonal(rng, (n_cont, head_hidden), 0.01),
        "bco": np.zeros(n_cont),
        "wv": _orthogonal(rng, (head_hidden, hidden), math.sqrt(2.0)),
        "bv": np.zeros(head_hidden),
        "wvo": _orthogonal(rng, (1, head_hidden), 1.0),
        "bvo": np.zeros(1),
        "log_std": np.full(n_cont, log_std_init),
    }


def exhaustive_baseline(
    scenario: AerialScenario,
    n_positions: int = 25,
    phase_levels: int = 8,
    alloc_levels: int = 5,
    n_eval: int = 256,
    seed: int = 0,
    max_evaluations: int = 10_000_000,
) -> dict:
    """Global grid search over static (position, phases, allocation) triples.

    Evaluates the mean per-slot sum rate over n_eval channel draws per
    position and enumerates the full product grid. Draws and rates are the
    environment's own (NOMA or, with scenario.oma, OMA), the rates in bulk
    with np.log2. Intended for tiny
    instances: the phase grid is phase_levels**K and the gains of all phase
    combinations and draws of one position are held at once."""
    k = scenario.k_elements
    n_bs = scenario.n_bs
    n_phase = phase_levels**k
    n_alloc = alloc_levels**n_bs
    total = n_positions * n_phase * n_alloc
    if total > max_evaluations:
        raise ValueError(f"grid of {total} configurations exceeds the cap")
    side = int(round(math.sqrt(n_positions)))
    if side * side != n_positions:
        raise ValueError("n_positions must be a perfect square")
    half = scenario.half_extent
    coords = np.linspace(-half, half, side + 2)[1:-1]
    phase_grid = np.linspace(-math.pi, math.pi, phase_levels, endpoint=False)
    alloc_grid = np.linspace(0.55, 0.95, alloc_levels)
    phase_combos = np.stack(
        np.meshgrid(*([phase_grid] * k), indexing="ij"), axis=-1
    ).reshape(-1, k)
    alloc_combos = np.stack(
        np.meshgrid(*([alloc_grid] * n_bs), indexing="ij"), axis=-1
    ).reshape(-1, n_bs)
    phasors = np.exp(1j * phase_combos)  # (n_phase, k)

    best = {"value": -np.inf}
    env = ArisEnv(scenario, seed=seed)
    for xi, x in enumerate(coords):
        for yi, y in enumerate(coords):
            pos = np.array([x, y])
            if not env._safe(pos):
                continue
            z = substream(seed, _STREAM_GRID, xi, yi).standard_normal((n_eval, env.n_normals))
            # Gains for every phase combo and draw: (n_phase, n_eval, bs, user).
            gain = env._gains(*env._channels(pos[None], z), phasors[:, None])
            for alloc in alloc_combos:
                rates = env._rates(gain, alloc, log2=np.log2)
                mean_rates = np.mean(np.sum(rates, axis=-1), axis=1)
                pi = int(np.argmax(mean_rates))
                if mean_rates[pi] > best["value"]:
                    best = {
                        "value": float(mean_rates[pi]),
                        "position": (float(x), float(y)),
                        "phases": phase_combos[pi].copy(),
                        "alloc": alloc.copy(),
                    }
    return best


def reference_train(scenario: AerialScenario, cfg: TrainConfig, seed: int = 0):
    """MO-PPO training with every episode rolled out on its own: the
    environment runs one episode at a time, the policy sees one state per
    forward, and the move is drawn by rng.choice, then the raw continuous
    action from one standard_normal call. Rounds of episodes_per_update
    episodes feed the package's PPO epochs. Returns (reward curve, params);
    `riscomp.moppo.train`, which steps a round's episodes in lockstep, must
    give the same bits."""
    env = ArisEnv(scenario, seed=seed)
    rng = substream(seed, _STREAM_AGENT)
    params = init_policy(
        _input_dim(scenario), scenario.action_dim_continuous, rng,
        hidden=cfg.hidden, head_hidden=cfg.head_hidden, log_std_init=cfg.log_std_init,
    )
    scale = state_scale(scenario)
    n = scenario.t_slots
    curve = np.empty(cfg.episodes)
    buffers = []
    for ep in range(cfg.episodes):
        svec = _net_input(env.reset().vector(), scale, 0, n)[0]
        states = np.empty((n, svec.size))
        moves = np.empty(n, dtype=int)
        raws = np.empty((n, scenario.action_dim_continuous))
        lpd, lpc, rewards = np.empty(n), np.empty(n), np.empty(n)
        values = np.empty(n + 1)
        dones = np.zeros(n, dtype=bool)
        total = 0.0
        for t in range(n):
            probs, mu, std, v, _ = forward(params, svec)
            move = int(rng.choice(N_MOVES, p=probs[0]))
            raw = mu[0] + std * rng.standard_normal(mu.shape[1])
            nstate, r, done = env.step(to_env_action(np.array([move]), raw[None], scenario))
            states[t], moves[t], raws[t] = svec, move, raw
            lpd[t] = float(np.log(probs[0, move]))
            lpc[t] = float(gaussian_logp(raw, mu[0], std))
            rewards[t], values[t], dones[t] = r[0], v[0], done
            total += float(r[0])
            svec = _net_input(nstate.vector(), scale, t + 1, n)[0]
        values[n] = 0.0  # terminal
        adv = advantage(rewards, values, dones, cfg.gamma, cfg.rollout)
        buffers.append((states, moves, raws, lpd, lpc, adv, adv + values[:n]))
        curve[ep] = total
        if len(buffers) == cfg.episodes_per_update:
            buffer = Minibatch(*(np.concatenate(parts) for parts in zip(*buffers)))
            params = _ppo_epochs(params, buffer, _round_config(cfg, ep), rng)
            buffers = []
    return curve, params
