"""Multi-output PPO: a shared-trunk network with a discrete softmax head, a
Gaussian head for the continuous actions, and a value head, trained with
per-head clipped surrogate objectives and Adam. Everything (forward,
backprop, Adam) is implemented directly on numpy arrays; gradients are
verified against central finite differences in the test suite.

Baselines: a hover variant (`train`/`evaluate` with hover=True: position
pinned, discrete head disabled) and an exhaustive grid search over static
configurations for desk-scale instances.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .aerial import MOVES, ArisEnv, MdpAction
from .channel import substream
from .ris import wrap_phase
from .scenarios import AerialScenario

_STREAM_AGENT = 601
_STREAM_EVAL = 701
_STREAM_GRID = 801

N_MOVES = len(MOVES)
LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
_ADAM_B1, _ADAM_B2, _ADAM_EPS = 0.9, 0.999, 1e-8
_LOG_2PI = math.log(2.0 * math.pi)

CHECKPOINT_MAGIC = b"RCPPO1\n"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """PPO hyperparameters (defaults follow the full-scale training setup)."""

    learning_rate: float = 2.75e-4
    clip_eps: float = 0.1
    gamma: float = 0.98
    episodes: int = 750
    epochs: int = 20
    batch: int = 128
    rollout: int = 128  # n-step advantage horizon
    hidden: int = 64
    head_hidden: int = 64
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    log_std_init: float = -0.5
    normalize_adv: bool = True
    discrete_enabled: bool = True
    episodes_per_update: int = 1
    kl_stop: float = 0.05
    entropy_decay: bool = False

    def __post_init__(self):
        if not 0 < self.clip_eps < 1:
            raise ValueError("clip epsilon must lie in (0, 1)")
        if not 0 < self.gamma <= 1:
            raise ValueError("discount must lie in (0, 1]")
        if min(self.episodes, self.epochs, self.batch, self.rollout,
               self.episodes_per_update) < 1:
            raise ValueError("counts must be >= 1")


@dataclass
class PolicyParams:
    """Network weights plus Adam moment accumulators and step counter."""

    weights: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step: int
    state_dim: int
    n_cont: int

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            {k: v.copy() for k, v in self.weights.items()},
            {k: v.copy() for k, v in self.adam_m.items()},
            {k: v.copy() for k, v in self.adam_v.items()},
            self.step,
            self.state_dim,
            self.n_cont,
        )


def _orthogonal(rng, shape, gain):
    a = rng.standard_normal(shape)
    if a.ndim != 2:
        raise ValueError("orthogonal init needs a matrix")
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return np.ascontiguousarray(gain * q[: shape[0], : shape[1]])


def init_policy(
    state_dim: int,
    n_cont: int,
    rng,
    hidden: int = 64,
    head_hidden: int = 64,
    log_std_init: float = -0.5,
) -> PolicyParams:
    w = {
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
    zeros = {k: np.zeros_like(v) for k, v in w.items()}
    return PolicyParams(w, zeros, {k: v.copy() for k, v in zeros.items()},
                        0, state_dim, n_cont)


def _softmax(z):
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward(params: PolicyParams, states) -> tuple:
    """Batch forward pass.

    Returns (probs, means, stds, values, cache); states may be (S,) or (B,S).
    """
    x = np.atleast_2d(np.asarray(states, dtype=float))
    if x.shape[1] != params.state_dim:
        raise ValueError(
            f"state dimension {x.shape[1]} does not match network ({params.state_dim})"
        )
    w = params.weights
    t1 = np.tanh(x @ w["w1"].T + w["b1"])
    t2 = np.tanh(t1 @ w["w2"].T + w["b2"])
    hd = np.tanh(t2 @ w["wd"].T + w["bd"])
    logits = hd @ w["wdo"].T + w["bdo"]
    probs = _softmax(logits)
    hc = np.tanh(t2 @ w["wc"].T + w["bc"])
    mu = hc @ w["wco"].T + w["bco"]
    hv = np.tanh(t2 @ w["wv"].T + w["bv"])
    v = (hv @ w["wvo"].T + w["bvo"])[:, 0]
    std = np.exp(np.clip(w["log_std"], LOG_STD_MIN, LOG_STD_MAX))
    cache = {"x": x, "t1": t1, "t2": t2, "hd": hd, "hc": hc, "hv": hv,
             "probs": probs, "mu": mu, "v": v, "std": std}
    return probs, mu, std, v, cache


def gaussian_logp(x, mu, std):
    z = (x - mu) / std
    return np.sum(-0.5 * z * z - np.log(std) - 0.5 * _LOG_2PI, axis=-1)


def sample_action(probs, mu, std, rng, discrete_enabled: bool = True):
    """Draw (move, raw continuous vector, discrete log-prob, continuous
    log-prob) from the policy outputs for a single state."""
    probs = np.asarray(probs, dtype=float).ravel()
    mu = np.asarray(mu, dtype=float).ravel()
    if discrete_enabled:
        move = int(rng.choice(N_MOVES, p=probs))
        lp_d = float(np.log(probs[move]))
    else:
        move = N_MOVES - 1  # hover
        lp_d = 0.0
    raw = mu + std * rng.standard_normal(mu.size)
    lp_c = float(gaussian_logp(raw, mu, std))
    return move, raw, lp_d, lp_c


def to_env_action(move: int, raw: np.ndarray, scenario: AerialScenario) -> MdpAction:
    """Map raw policy outputs into the environment's action space: phases are
    wrapped into [-pi, pi), allocation factors squashed into (0.5, 1)."""
    k = scenario.k_elements
    phases = wrap_phase(raw[:k])
    alloc = 0.5 + 0.5 / (1.0 + np.exp(-raw[k:]))
    alloc = np.clip(alloc, 0.5 + 1e-9, 1.0 - 1e-9)
    return MdpAction(move=move, phases=phases, alloc_factors=alloc)


def advantage(rewards, values, dones, gamma: float, t_hat: int) -> np.ndarray:
    """n-step advantage: discounted reward window plus bootstrapped tail value
    minus the current value. Windows truncate at episode ends (terminal value
    zero); values must carry one extra entry for the post-rollout state."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    n = rewards.size
    if values.size < n + 1:
        raise ValueError("values must include the bootstrap entry")
    if t_hat < 1:
        raise ValueError("advantage horizon must be >= 1")
    adv = np.empty(n)
    for t in range(n):
        acc = 0.0
        g = 1.0
        terminal = False
        end = t
        for k in range(t_hat):
            if t + k >= n:
                break
            acc += g * rewards[t + k]
            g *= gamma
            end = t + k + 1
            if dones[t + k]:
                terminal = True
                break
        if not terminal:
            acc += g * values[end]
        adv[t] = acc - values[t]
    return adv


def clipped_loss(ratio, adv, eps: float):
    """Per-sample clipped surrogate min(r*A, clip(r, 1-eps, 1+eps)*A)."""
    ratio = np.asarray(ratio, dtype=float)
    adv = np.asarray(adv, dtype=float)
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps)
    return np.minimum(ratio * adv, clipped * adv)


def _surrogate_grad_mask(ratio, adv, eps):
    """1 where the unclipped branch is active (gradient flows)."""
    blocked_hi = (ratio > 1.0 + eps) & (adv > 0)
    blocked_lo = (ratio < 1.0 - eps) & (adv < 0)
    return ~(blocked_hi | blocked_lo)


@dataclass(frozen=True)
class Minibatch:
    states: np.ndarray
    moves: np.ndarray
    raw_actions: np.ndarray
    logp_d_old: np.ndarray
    logp_c_old: np.ndarray
    adv: np.ndarray
    v_target: np.ndarray


def objective_and_grads(params: PolicyParams, mb: Minibatch, cfg: TrainConfig):
    """PPO objective J (to be maximized) and dJ/dtheta for every weight."""
    b = mb.states.shape[0]
    probs, mu, std, v, cache = forward(params, mb.states)
    adv = mb.adv
    if cfg.normalize_adv and b > 1:
        adv = (adv - np.mean(adv)) / (np.std(adv) + 1e-8)

    lp_c = gaussian_logp(mb.raw_actions, mu, std)
    r_c = np.exp(lp_c - mb.logp_c_old)
    mask_c = _surrogate_grad_mask(r_c, adv, cfg.clip_eps)
    j_cont = float(np.mean(clipped_loss(r_c, adv, cfg.clip_eps)))
    ent_c = float(np.sum(np.log(std) + 0.5 * (_LOG_2PI + 1.0)))

    dmu = (mask_c * r_c * adv)[:, None] * (mb.raw_actions - mu) / (std**2) / b
    z2 = ((mb.raw_actions - mu) / std) ** 2
    dlog_std = np.sum((mask_c * r_c * adv)[:, None] * (z2 - 1.0), axis=0) / b
    dlog_std += cfg.entropy_coef

    if cfg.discrete_enabled:
        lp_d = np.log(probs[np.arange(b), mb.moves])
        r_d = np.exp(lp_d - mb.logp_d_old)
        mask_d = _surrogate_grad_mask(r_d, adv, cfg.clip_eps)
        j_disc = float(np.mean(clipped_loss(r_d, adv, cfg.clip_eps)))
        ent_d = float(np.mean(-np.sum(probs * np.log(probs + 1e-12), axis=1)))
        onehot = np.zeros_like(probs)
        onehot[np.arange(b), mb.moves] = 1.0
        dlogits = (mask_d * r_d * adv)[:, None] * (onehot - probs) / b
        h_rows = -np.sum(probs * np.log(probs + 1e-12), axis=1, keepdims=True)
        dlogits += cfg.entropy_coef * (-probs * (np.log(probs + 1e-12) + h_rows)) / b
    else:
        j_disc = 0.0
        ent_d = 0.0
        dlogits = np.zeros_like(probs)

    v_err = v - mb.v_target
    j_value = float(np.mean(v_err**2))
    dv = -2.0 * cfg.value_coef * v_err / b

    j = (
        j_disc
        + j_cont
        + cfg.entropy_coef * (ent_d + ent_c)
        - cfg.value_coef * j_value
    )
    grads = _backward(params, cache, dlogits, dmu, dlog_std, dv)
    info = {"j": j, "j_disc": j_disc, "j_cont": j_cont, "value_loss": j_value,
            "entropy_d": ent_d, "entropy_c": ent_c}
    return j, grads, info


def _backward(params, cache, dlogits, dmu, dlog_std, dv):
    w = params.weights
    x, t1, t2 = cache["x"], cache["t1"], cache["t2"]
    hd, hc, hv = cache["hd"], cache["hc"], cache["hv"]
    g = {}
    # Discrete head
    g["wdo"] = dlogits.T @ hd
    g["bdo"] = dlogits.sum(axis=0)
    d_hd = (dlogits @ w["wdo"]) * (1.0 - hd**2)
    g["wd"] = d_hd.T @ t2
    g["bd"] = d_hd.sum(axis=0)
    # Continuous head
    g["wco"] = dmu.T @ hc
    g["bco"] = dmu.sum(axis=0)
    d_hc = (dmu @ w["wco"]) * (1.0 - hc**2)
    g["wc"] = d_hc.T @ t2
    g["bc"] = d_hc.sum(axis=0)
    # Value head
    dv2 = dv[:, None]
    g["wvo"] = dv2.T @ hv
    g["bvo"] = dv2.sum(axis=0)
    d_hv = (dv2 @ w["wvo"]) * (1.0 - hv**2)
    g["wv"] = d_hv.T @ t2
    g["bv"] = d_hv.sum(axis=0)
    # Trunk
    d_t2 = (d_hd @ w["wd"] + d_hc @ w["wc"] + d_hv @ w["wv"]) * (1.0 - t2**2)
    g["w2"] = d_t2.T @ t1
    g["b2"] = d_t2.sum(axis=0)
    d_t1 = (d_t2 @ w["w2"]) * (1.0 - t1**2)
    g["w1"] = d_t1.T @ x
    g["b1"] = d_t1.sum(axis=0)
    g["log_std"] = dlog_std
    return g


def update(params: PolicyParams, mb: Minibatch, cfg: TrainConfig) -> PolicyParams:
    """One Adam ascent step on the PPO objective; returns updated params."""
    j, grads, info = objective_and_grads(params, mb, cfg)
    for k, gv in grads.items():
        if not np.all(np.isfinite(gv)):
            raise RuntimeError(
                f"non-finite gradient in {k}: objective parts {info}"
            )
    params.step += 1
    t = params.step
    lr = cfg.learning_rate
    for k in params.weights:
        g_loss = -grads[k]  # descend on -J
        m = params.adam_m[k]
        vv = params.adam_v[k]
        m[...] = _ADAM_B1 * m + (1.0 - _ADAM_B1) * g_loss
        vv[...] = _ADAM_B2 * vv + (1.0 - _ADAM_B2) * g_loss**2
        m_hat = m / (1.0 - _ADAM_B1**t)
        v_hat = vv / (1.0 - _ADAM_B2**t)
        params.weights[k] = params.weights[k] - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    np.clip(params.weights["log_std"], LOG_STD_MIN, LOG_STD_MAX,
            out=params.weights["log_std"])
    return params


@dataclass
class TrainResult:
    rewards: np.ndarray
    params: PolicyParams
    config: TrainConfig

    def moving_average(self, window: int = 100) -> np.ndarray:
        r = self.rewards
        if r.size < window:
            window = r.size
        c = np.cumsum(np.insert(r, 0, 0.0))
        return (c[window:] - c[:-window]) / window


def _user_centroid(scn: AerialScenario) -> tuple[float, float]:
    pts = np.array([p[:2] for p in (*scn.center_positions, scn.edge_position)])
    return float(np.mean(pts[:, 0])), float(np.mean(pts[:, 1]))


def state_scale(scn: AerialScenario) -> np.ndarray:
    """Per-component scale bringing state vectors to O(1) network inputs
    (positions by the half extent, distances by the area diagonal, rates by
    a nominal few bps/Hz)."""
    half = scn.half_extent
    diag = math.sqrt(8.0) * half
    return np.concatenate(
        [
            np.full(2, half),
            np.full(scn.n_obstacles, diag),
            np.ones(scn.n_bs),
            np.full(scn.n_users, 4.0),
        ]
    )


def _input_dim(scenario: AerialScenario) -> int:
    return scenario.state_dim + 1


def _net_input(svec: np.ndarray, scale: np.ndarray, t: int, t_total: int) -> np.ndarray:
    """Network input: scaled state plus a remaining-time feature. The value of
    a fixed-horizon episode depends on the remaining slots, which the
    environment state cannot expose; the extra feature makes it learnable."""
    return np.concatenate([svec / scale, [(t_total - t) / t_total]])


def train(
    scenario: AerialScenario,
    cfg: TrainConfig,
    seed: int = 0,
    hover: bool = False,
) -> TrainResult:
    """Full MO-PPO loop: per-episode rollouts, n-step advantages, E epochs of
    minibatch updates, then the sampling policy synchronizes (fresh log-probs
    next episode). Deterministic given (scenario, cfg, seed)."""
    if hover:
        cfg = replace(cfg, discrete_enabled=False)
    pin = _user_centroid(scenario) if hover else None
    env = ArisEnv(scenario, seed=seed, pin_position=pin)
    rng = substream(seed, _STREAM_AGENT)
    params = init_policy(
        _input_dim(scenario), scenario.action_dim_continuous, rng,
        hidden=cfg.hidden, head_hidden=cfg.head_hidden,
        log_std_init=cfg.log_std_init,
    )
    scale = state_scale(scenario)
    curve = np.empty(cfg.episodes)
    buffers = []
    for ep in range(cfg.episodes):
        n = scenario.t_slots
        svec = _net_input(env.reset().vector(), scale, 0, n)
        states = np.empty((n, svec.size))
        moves = np.empty(n, dtype=int)
        raws = np.empty((n, scenario.action_dim_continuous))
        lpd = np.empty(n)
        lpc = np.empty(n)
        rewards = np.empty(n)
        values = np.empty(n + 1)
        dones = np.zeros(n, dtype=bool)
        total = 0.0
        for t in range(n):
            probs, mu, std, v, _ = forward(params, svec)
            move, raw, lp_d, lp_c = sample_action(
                probs[0], mu[0], std, rng, discrete_enabled=cfg.discrete_enabled
            )
            nstate, r, done = env.step(to_env_action(move, raw, scenario))
            states[t] = svec
            moves[t] = move
            raws[t] = raw
            lpd[t] = lp_d
            lpc[t] = lp_c
            rewards[t] = r
            values[t] = v[0]
            dones[t] = done
            total += r
            svec = _net_input(nstate.vector(), scale, t + 1, n)
        values[n] = 0.0  # terminal
        adv = advantage(rewards, values, dones, cfg.gamma, cfg.rollout)
        v_target = adv + values[:n]
        buffers.append((states, moves, raws, lpd, lpc, adv, v_target))
        curve[ep] = total
        if len(buffers) < cfg.episodes_per_update:
            continue
        update_cfg = cfg
        if cfg.entropy_decay:
            frac = 1.0 - ep / max(cfg.episodes - 1, 1)
            update_cfg = replace(cfg, entropy_coef=cfg.entropy_coef * frac)
        cat = [np.concatenate(parts) for parts in zip(*buffers)]
        buffers = []
        all_states, all_moves, all_raws, all_lpd, all_lpc, all_adv, all_vt = cat
        m = all_states.shape[0]
        stop = False
        for _ in range(cfg.epochs):
            order = rng.permutation(m)
            for start in range(0, m, cfg.batch):
                sel = order[start : start + cfg.batch]
                mb = Minibatch(all_states[sel], all_moves[sel], all_raws[sel],
                               all_lpd[sel], all_lpc[sel], all_adv[sel],
                               all_vt[sel])
                params = update(params, mb, update_cfg)
            # Approximate-KL brake against policy churn on small buffers.
            probs_n, mu_n, std_n, _, _ = forward(params, all_states)
            lpd_n = np.log(probs_n[np.arange(m), all_moves] + 1e-12)
            lpc_n = gaussian_logp(all_raws, mu_n, std_n)
            kl_d = float(np.mean(all_lpd - lpd_n)) if cfg.discrete_enabled else 0.0
            kl_c = float(np.mean(all_lpc - lpc_n))
            if max(abs(kl_d), abs(kl_c)) > cfg.kl_stop:
                stop = True
            if stop:
                break
    return TrainResult(rewards=curve, params=params, config=cfg)


def evaluate(
    scenario: AerialScenario,
    params: PolicyParams,
    cfg: TrainConfig,
    seed: int = 0,
    episodes: int = 5,
    hover: bool = False,
) -> dict:
    """Deterministic-policy evaluation: mean per-slot sum rate and reward."""
    pin = _user_centroid(scenario) if hover else None
    env = ArisEnv(scenario, seed=seed, pin_position=pin)
    scale = state_scale(scenario)
    sum_rates = []
    rewards = []
    traces = []
    for _ in range(episodes):
        state = env.reset()
        svec = _net_input(state.vector(), scale, 0, scenario.t_slots)
        for t in range(scenario.t_slots):
            probs, mu, std, v, _ = forward(params, svec)
            move = int(np.argmax(probs[0])) if cfg.discrete_enabled else N_MOVES - 1
            nstate, r, done = env.step(to_env_action(move, mu[0], scenario))
            sum_rates.append(float(np.sum(nstate.rates)))
            rewards.append(r)
            traces.append((t, nstate.uav_xy[0], nstate.uav_xy[1], r,
                           *nstate.rates, int(env.last_violation),
                           int(np.sum(env.last_qos))))
            svec = _net_input(nstate.vector(), scale, t + 1, scenario.t_slots)
    return {
        "mean_sum_rate": float(np.mean(sum_rates)),
        "mean_reward": float(np.mean(rewards)),
        "traces": traces,
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
    environment's own (NOMA or, with scenario.oma, OMA). Intended for tiny
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
            env._pos = pos
            env._rng = substream(seed, _STREAM_GRID, xi, yi)
            # Gains for every phase combo and draw: (n_phase, n_eval, bs, user).
            gain = env._gains(*env._draw_channels(n_eval), phasors)
            for alloc in alloc_combos:
                mean_rates = np.mean(np.sum(env._rates(gain, alloc), axis=-1), axis=1)
                pi = int(np.argmax(mean_rates))
                if mean_rates[pi] > best["value"]:
                    best = {
                        "value": float(mean_rates[pi]),
                        "position": (float(x), float(y)),
                        "phases": phase_combos[pi].copy(),
                        "alloc": alloc.copy(),
                    }
    return best


# Checkpoint serialization -------------------------------------------------

def save_params(path, params: PolicyParams) -> None:
    """Flat binary layout: magic, version, counts, shape table, row-major
    float64 payloads (weights, then Adam moments)."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<II", CHECKPOINT_VERSION, len(params.weights)))
    buf.write(struct.pack("<qII", params.step, params.state_dim, params.n_cont))
    ordered = sorted(params.weights)
    for name in ordered:
        arr = params.weights[name]
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
    for name in ordered:
        buf.write(np.ascontiguousarray(params.weights[name], dtype=np.float64).tobytes())
        buf.write(np.ascontiguousarray(params.adam_m[name], dtype=np.float64).tobytes())
        buf.write(np.ascontiguousarray(params.adam_v[name], dtype=np.float64).tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def check_checkpoint(params: PolicyParams, scenario: AerialScenario, cfg: TrainConfig,
                     path) -> None:
    """Raise ValueError, naming the array and both shapes, when a loaded
    checkpoint is not the network train builds for scenario and cfg."""
    expected = {
        name: w.shape for name, w in init_policy(
            _input_dim(scenario), scenario.action_dim_continuous, np.random.default_rng(0),
            hidden=cfg.hidden, head_hidden=cfg.head_hidden,
        ).weights.items()
    }
    for name in [*expected, *(k for k in params.weights if k not in expected)]:
        got = params.weights[name].shape if name in params.weights else None
        if got != expected.get(name):
            raise ValueError(
                f"{path}: checkpoint array {name} has shape {got}, but hidden = "
                f"{cfg.hidden}, head_hidden = {cfg.head_hidden} and the scenario "
                f"need {expected.get(name)}"
            )


def load_params(path) -> PolicyParams:
    with open(path, "rb") as fh:
        data = fh.read()
    off = len(CHECKPOINT_MAGIC)
    if data[:off] != CHECKPOINT_MAGIC:
        raise ValueError("not a policy checkpoint (bad magic)")
    version, n_arrays = struct.unpack_from("<II", data, off)
    off += 8
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    step, state_dim, n_cont = struct.unpack_from("<qII", data, off)
    off += 16
    shapes = []
    for _ in range(n_arrays):
        (nlen,) = struct.unpack_from("<H", data, off)
        off += 2
        name = data[off : off + nlen].decode()
        off += nlen
        (ndim,) = struct.unpack_from("<B", data, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}q", data, off)
        off += 8 * ndim
        shapes.append((name, shape, math.prod(shape)))
    expected = 3 * 8 * sum(count for _, _, count in shapes)
    if len(data) - off != expected:
        raise ValueError(
            f"{path}: checkpoint payload holds {len(data) - off} bytes, "
            f"its shape table needs {expected}"
        )
    weights, adam_m, adam_v = {}, {}, {}
    for name, shape, count in shapes:
        for target in (weights, adam_m, adam_v):
            arr = np.frombuffer(data, dtype=np.float64, count=count, offset=off)
            off += 8 * count
            target[name] = arr.reshape(shape).copy()
    return PolicyParams(weights, adam_m, adam_v, step, state_dim, n_cont)
