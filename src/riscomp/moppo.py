"""Multi-output PPO: a shared-trunk network with a discrete softmax head, a
Gaussian head for the continuous actions, and a value head, trained with
per-head clipped surrogate objectives and Adam. Everything (forward,
backprop, Adam) is implemented directly on numpy arrays; gradients are
verified against central finite differences in the test suite.

The weights and both Adam moments each live in one flat float64 vector
(`PolicyParams`); the named arrays are views into it, in the order and
shapes of `_layout`, and `update` rewrites the vectors in place through
preallocated gradient and scratch vectors, so a training step allocates
nothing of the network's size. A checkpoint holds the weights only: the
magic, (version 2, state_dim, n_cont, hidden, head_hidden) as uint32, then
theta. Only version 2 loads; an older file is refused with its version named.

There is one agent: it moves the UAV (discrete head) and sets the RIS phases
and allocation factors (Gaussian head). The exhaustive grid search that the
acceptance tests compare it against lives with the test oracles.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .aerial import MOVES, ArisEnv, MdpAction
from .channel import substream
from .scenarios import AerialScenario

_STREAM_AGENT = 601

N_MOVES = len(MOVES)
LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
_ADAM_B1, _ADAM_B2, _ADAM_EPS = 0.9, 0.999, 1e-8
_LOG_2PI = math.log(2.0 * math.pi)
_P_ATOL = math.sqrt(np.finfo(float).eps)  # rng.choice's tolerance on sum(p)

CHECKPOINT_MAGIC = b"RCPPO1\n"
CHECKPOINT_VERSION = 2


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
    episodes_per_update: int = 1
    kl_stop: float = 0.05
    entropy_decay: bool = False

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning rate must be > 0")
        if not 0 < self.clip_eps < 1:
            raise ValueError("clip epsilon must lie in (0, 1)")
        if not 0 < self.gamma <= 1:
            raise ValueError("discount must lie in (0, 1]")
        if min(self.episodes, self.epochs, self.batch, self.rollout, self.hidden,
               self.head_hidden, self.episodes_per_update) < 1:
            raise ValueError("counts must be >= 1")


def _layout(state_dim: int, n_cont: int, hidden: int, head_hidden: int) -> dict:
    """Name -> shape of every network array, in the order they tile theta."""
    return {
        "w1": (hidden, state_dim), "b1": (hidden,),
        "w2": (hidden, hidden), "b2": (hidden,),
        "wd": (head_hidden, hidden), "bd": (head_hidden,),
        "wdo": (N_MOVES, head_hidden), "bdo": (N_MOVES,),
        "wc": (head_hidden, hidden), "bc": (head_hidden,),
        "wco": (n_cont, head_hidden), "bco": (n_cont,),
        "wv": (head_hidden, hidden), "bv": (head_hidden,),
        "wvo": (1, head_hidden), "bvo": (1,),
        "log_std": (n_cont,),
    }


def _size(shapes: dict) -> int:
    return sum(math.prod(shape) for shape in shapes.values())


class PolicyParams:
    """Weights `theta` and Adam moments `m`, `v` (flat float64 vectors) and
    the Adam step. `weights`, `adam_m` and `adam_v` map each name of
    `_layout` to its row-major view and are read-only, so an array cannot be
    rebound and detached; write through the views or the vectors. `grad` is
    the flat gradient of the last `update`; `_tmp` is Adam's scratch.
    """

    def __init__(self, state_dim: int, n_cont: int, hidden: int, head_hidden: int):
        shapes = _layout(state_dim, n_cont, hidden, head_hidden)
        size = _size(shapes)
        self.theta = np.zeros(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        # Adam works in preallocated vectors: at hidden = 64 one is ~146 KB,
        # above glibc's 128 KiB mmap threshold, so each temporary of that
        # size would be a fresh mapping whose pages fault in on every update.
        self.grad = np.empty(size)
        self._tmp = (np.empty(size), np.empty(size))
        self.weights, self.adam_m, self.adam_v = (
            _views(flat, shapes) for flat in (self.theta, self.m, self.v))
        self.step = 0
        self.state_dim, self.n_cont = state_dim, n_cont
        self.sizes = (state_dim, n_cont, hidden, head_hidden)  # _layout's arguments


def _views(flat: np.ndarray, shapes: dict[str, tuple]) -> MappingProxyType:
    views, off = {}, 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        views[name] = flat[off : off + count].reshape(shape)
        off += count
    return MappingProxyType(views)


def _orthogonal(rng, shape, gain):
    a = rng.standard_normal(shape)
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
    """Orthogonal matrices drawn in layout order (gain sqrt(2); 0.01 for the
    action outputs, 1 for the value output), zero biases, constant log_std."""
    params = PolicyParams(state_dim, n_cont, hidden, head_hidden)
    gains = {"wdo": 0.01, "wco": 0.01, "wvo": 1.0}
    for name, view in params.weights.items():
        if view.ndim == 2:
            view[...] = _orthogonal(rng, view.shape, gains.get(name, math.sqrt(2.0)))
    params.weights["log_std"][...] = log_std_init
    return params


def _softmax(z):
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward(params: PolicyParams, states) -> tuple:
    """Forward pass over states (S,), one row, or (..., S).

    Returns (probs (..., 5), means (..., n_cont), stds (n_cont,), values
    (...), cache). Stacked states go through numpy's matmul, which runs one
    BLAS product per trailing (B, S) matrix: the rows of an (E, 1, S) stack
    are the bits of E one-row calls, whereas the rows of one (E, S) matrix
    may differ from those in the last bits.
    """
    x = np.atleast_2d(np.asarray(states, dtype=float))
    if x.shape[-1] != params.state_dim:
        raise ValueError(
            f"state dimension {x.shape[-1]} does not match network ({params.state_dim})"
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
    v = (hv @ w["wvo"].T + w["bvo"])[..., 0]
    std = np.exp(np.clip(w["log_std"], LOG_STD_MIN, LOG_STD_MAX))
    cache = {"x": x, "t1": t1, "t2": t2, "hd": hd, "hc": hc, "hv": hv,
             "probs": probs, "mu": mu, "v": v, "std": std}
    return probs, mu, std, v, cache


def gaussian_logp(x, mu, std):
    z = (x - mu) / std
    return np.sum(-0.5 * z * z - np.log(std) - 0.5 * _LOG_2PI, axis=-1)


def _check_probs(probs: np.ndarray) -> None:
    """Raise the ValueError of rng.choice(p=row) unless every row of probs
    is a probability vector: no NaN, no negative entry, a sum within
    sqrt(eps) of 1."""
    p_sum = probs.sum(axis=-1)
    if (np.abs(p_sum - 1.0) <= _P_ATOL).all() and probs.min() >= 0.0:
        return
    if np.isnan(p_sum).any():
        raise ValueError("Probabilities contain NaN")
    if (probs < 0.0).any():
        raise ValueError("Probabilities are not non-negative")
    raise ValueError("Probabilities do not sum to 1")


def sample_action(probs, mu, std, uniforms, normals):
    """Draw one action per row of the policy outputs probs (E, 5) and mu
    (E, n_cont) from the row's noise: a uniform (E,) for the move and
    normals (E, n_cont). Returns (moves, raw continuous vectors, discrete
    log-probs, continuous log-probs).

    The move is the first index whose normalized cumulative probability
    exceeds the uniform, which is what rng.choice(5, p=row) draws from the
    same uniform; the rows are checked as rng.choice checks p.
    """
    _check_probs(probs)
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[:, -1:]
    moves = (cdf <= uniforms[:, None]).sum(axis=-1)
    lp_d = np.log(probs[np.arange(moves.size), moves])
    raw = mu + std * normals
    return moves, raw, lp_d, gaussian_logp(raw, mu, std)


def to_env_action(moves: np.ndarray, raw: np.ndarray, scenario: AerialScenario) -> MdpAction:
    """Map raw policy outputs, moves (E,) and raw (E, n_cont), into the
    environment's action space: phases are wrapped into [-pi, pi) (by
    MdpAction), allocation factors squashed into (0.5, 1)."""
    k = scenario.k_elements
    alloc = 0.5 + 0.5 / (1.0 + np.exp(-raw[:, k:]))
    alloc = np.clip(alloc, 0.5 + 1e-9, 1.0 - 1e-9)
    return MdpAction(move=moves, phases=raw[:, :k], alloc_factors=alloc)


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
    """One Adam ascent step on the PPO objective, in place; returns params.

    The gradients are gathered into `params.grad`, checked once for
    finiteness, and every Adam operation writes into the flat vectors
    (`out=`). Per element the arithmetic is that of the textbook per-array
    update, so the results are the same bits.
    """
    j, grads, info = objective_and_grads(params, mb, cfg)
    g = params.grad
    np.concatenate([grads[k].reshape(-1) for k in params.weights], out=g)
    if not np.all(np.isfinite(g)):
        bad = next(k for k, gv in grads.items() if not np.all(np.isfinite(gv)))
        raise RuntimeError(f"non-finite gradient in {bad}: objective parts {info}")
    params.step += 1
    t = params.step
    m, v, s1, s2 = params.m, params.v, *params._tmp
    # Descend on -J: m + (1 - b1) * (-g) is m - (1 - b1) * g to the bit, and
    # (-g)**2 is g**2, so g is never negated.
    np.multiply(m, _ADAM_B1, out=m)
    np.multiply(g, 1.0 - _ADAM_B1, out=s1)
    np.subtract(m, s1, out=m)
    np.multiply(v, _ADAM_B2, out=v)
    np.square(g, out=s1)
    np.multiply(s1, 1.0 - _ADAM_B2, out=s1)
    np.add(v, s1, out=v)
    np.divide(m, 1.0 - _ADAM_B1**t, out=s1)  # m_hat
    np.multiply(s1, cfg.learning_rate, out=s1)
    np.divide(v, 1.0 - _ADAM_B2**t, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    np.add(s2, _ADAM_EPS, out=s2)
    np.divide(s1, s2, out=s1)
    np.subtract(params.theta, s1, out=params.theta)
    log_std = params.weights["log_std"]
    np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX, out=log_std)
    return params


@dataclass
class TrainResult:
    rewards: np.ndarray
    params: PolicyParams
    config: TrainConfig

    def moving_average(self, window: int = 100) -> np.ndarray:
        window = min(window, self.rewards.size)
        c = np.cumsum(np.insert(self.rewards, 0, 0.0))
        return (c[window:] - c[:-window]) / window


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
    """Network inputs (E, S): scaled states (E, state_dim) plus a
    remaining-time feature. The value of a fixed-horizon episode depends on
    the remaining slots, which the environment state cannot expose; the
    extra feature makes it learnable."""
    remaining = np.full((svec.shape[0], 1), (t_total - t) / t_total)
    return np.concatenate([svec / scale, remaining], axis=1)


def _round_config(cfg: TrainConfig, last_episode: int) -> TrainConfig:
    """The configuration of the update after episode last_episode: with
    cfg.entropy_decay the entropy coefficient falls linearly to 0 at the
    last episode."""
    if not cfg.entropy_decay:
        return cfg
    frac = 1.0 - last_episode / max(cfg.episodes - 1, 1)
    return replace(cfg, entropy_coef=cfg.entropy_coef * frac)


def _ppo_epochs(params: PolicyParams, buffer: Minibatch, cfg: TrainConfig, rng) -> PolicyParams:
    """Up to cfg.epochs epochs of minibatch updates on one round's buffer,
    each over a fresh rng permutation of its rows. After every epoch an
    approximate-KL check on the whole buffer (discrete and continuous
    heads) ends the epochs early when either exceeds cfg.kl_stop."""
    m = buffer.states.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch):
            sel = order[start : start + cfg.batch]
            mb = Minibatch(buffer.states[sel], buffer.moves[sel], buffer.raw_actions[sel],
                           buffer.logp_d_old[sel], buffer.logp_c_old[sel], buffer.adv[sel],
                           buffer.v_target[sel])
            params = update(params, mb, cfg)
        # Approximate-KL brake against policy churn on small buffers.
        probs_n, mu_n, std_n, _, _ = forward(params, buffer.states)
        lpd_n = np.log(probs_n[np.arange(m), buffer.moves] + 1e-12)
        lpc_n = gaussian_logp(buffer.raw_actions, mu_n, std_n)
        kl_d = float(np.mean(buffer.logp_d_old - lpd_n))
        kl_c = float(np.mean(buffer.logp_c_old - lpc_n))
        if max(abs(kl_d), abs(kl_c)) > cfg.kl_stop:
            break
    return params


def _agent_noise(rng, episodes: int, slots: int, n_cont: int) -> tuple:
    """A round's sampling noise: uniforms (episodes, slots) and normals
    (episodes, slots, n_cont), drawn episode by episode and slot by slot, a
    uniform before its normals, which is the order in which rolling the
    episodes out one at a time with rng.choice draws them."""
    uniforms = np.empty((episodes, slots))
    normals = np.empty((episodes, slots, n_cont))
    for e in range(episodes):
        for t in range(slots):
            uniforms[e, t] = rng.random()
            normals[e, t] = rng.standard_normal(n_cont)
    return uniforms, normals


def train(scenario: AerialScenario, cfg: TrainConfig, seed: int = 0) -> TrainResult:
    """Full MO-PPO loop over update rounds. A round rolls out its E =
    min(episodes_per_update, episodes left) episodes in lockstep: one
    environment steps all E (`ArisEnv.reset(E)`), one forward per slot
    evaluates the policy on the E states stacked (E, 1, S), and the round's
    sampling noise is drawn ahead (`_agent_noise`). Every bit therefore
    equals rolling the episodes out one after another. Then come n-step
    advantages and `_ppo_epochs` on the round's buffer, and the next round
    samples from the updated policy. A last round shorter than
    episodes_per_update is rolled out but not trained on. Deterministic
    given (scenario, cfg, seed)."""
    env = ArisEnv(scenario, seed=seed)
    rng = substream(seed, _STREAM_AGENT)
    params = init_policy(
        _input_dim(scenario), scenario.action_dim_continuous, rng,
        hidden=cfg.hidden, head_hidden=cfg.head_hidden,
        log_std_init=cfg.log_std_init,
    )
    scale = state_scale(scenario)
    n, n_cont = scenario.t_slots, scenario.action_dim_continuous
    dones = np.zeros(n, dtype=bool)
    dones[-1] = True
    curve = np.empty(cfg.episodes)
    for first in range(0, cfg.episodes, cfg.episodes_per_update):
        e = min(cfg.episodes_per_update, cfg.episodes - first)
        uniforms, normals = _agent_noise(rng, e, n, n_cont)
        svec = _net_input(env.reset(e).vector(), scale, 0, n)
        states = np.empty((e, n, svec.shape[1]))
        moves = np.empty((e, n), dtype=int)
        raws = np.empty((e, n, n_cont))
        lpd = np.empty((e, n))
        lpc = np.empty((e, n))
        rewards = np.empty((e, n))
        values = np.zeros((e, n + 1))  # the terminal value stays 0
        totals = np.zeros(e)
        for t in range(n):
            probs, mu, std, v, _ = forward(params, svec[:, None])
            move, raw, lp_d, lp_c = sample_action(probs[:, 0], mu[:, 0], std,
                                                  uniforms[:, t], normals[:, t])
            nstate, r, _ = env.step(to_env_action(move, raw, scenario))
            states[:, t] = svec
            moves[:, t] = move
            raws[:, t] = raw
            lpd[:, t] = lp_d
            lpc[:, t] = lp_c
            rewards[:, t] = r
            values[:, t] = v[:, 0]
            totals += r
            svec = _net_input(nstate.vector(), scale, t + 1, n)
        curve[first : first + e] = totals
        if e < cfg.episodes_per_update:
            break
        adv = np.stack([advantage(rewards[i], values[i], dones, cfg.gamma, cfg.rollout)
                        for i in range(e)])
        buffer = Minibatch(states.reshape(e * n, -1), moves.ravel(), raws.reshape(e * n, -1),
                           lpd.ravel(), lpc.ravel(), adv.ravel(), (adv + values[:, :n]).ravel())
        params = _ppo_epochs(params, buffer, _round_config(cfg, first + e - 1), rng)
    return TrainResult(rewards=curve, params=params, config=cfg)


def evaluate(
    scenario: AerialScenario,
    params: PolicyParams,
    seed: int = 0,
    episodes: int = 5,
) -> dict:
    """Deterministic-policy evaluation (the most probable move and the mean
    continuous action) of the network params holds, over `episodes`
    episodes run in lockstep as in train: mean per-slot sum rate and
    reward, and one trace row per slot, episode after episode."""
    env = ArisEnv(scenario, seed=seed)
    scale = state_scale(scenario)
    n = scenario.t_slots
    sum_rates = np.empty((episodes, n))
    rewards = np.empty((episodes, n))
    steps = []
    svec = _net_input(env.reset(episodes).vector(), scale, 0, n)
    for t in range(n):
        probs, mu, _, _, _ = forward(params, svec[:, None])
        moves = np.argmax(probs[:, 0], axis=-1)
        nstate, r, _ = env.step(to_env_action(moves, mu[:, 0], scenario))
        sum_rates[:, t] = np.sum(nstate.rates, axis=-1)
        rewards[:, t] = r
        steps.append((nstate, r, env.last_violation, np.sum(env.last_qos, axis=-1)))
        svec = _net_input(nstate.vector(), scale, t + 1, n)
    traces = [(t, s.uav_xy[i, 0], s.uav_xy[i, 1], float(r[i]), *s.rates[i],
               int(viol[i]), int(qos[i]))
              for i in range(episodes) for t, (s, r, viol, qos) in enumerate(steps)]
    return {
        "mean_sum_rate": float(np.mean(sum_rates.ravel())),
        "mean_reward": float(np.mean(rewards.ravel())),
        "traces": traces,
    }


# Checkpoint serialization -------------------------------------------------

_HEADER = struct.Struct("<5I")  # version, then PolicyParams.sizes


def save_params(path, params: PolicyParams) -> None:
    """Checkpoint version 2: magic, header, theta as float64."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + _HEADER.pack(CHECKPOINT_VERSION, *params.sizes)
                 + params.theta.tobytes())


def check_checkpoint(params: PolicyParams, scenario: AerialScenario, cfg: TrainConfig,
                     path) -> None:
    """Raise ValueError, naming the array, both shapes and the file's sizes,
    when a loaded checkpoint is not the network train builds for scenario
    and cfg."""
    expected = _layout(_input_dim(scenario), scenario.action_dim_continuous,
                       cfg.hidden, cfg.head_hidden)
    for name, shape in expected.items():
        if params.weights[name].shape != shape:
            raise ValueError(
                f"{path}: checkpoint array {name} has shape {params.weights[name].shape}, "
                f"but hidden = {cfg.hidden}, head_hidden = {cfg.head_hidden} and the "
                f"scenario need {shape}; the file was trained with (state_dim, n_cont, "
                f"hidden, head_hidden) = {params.sizes}"
            )


def _payload(path, data: bytes, off: int, count: int) -> np.ndarray:
    """The float64 values from off to the end, which must number count."""
    if len(data) - off != 8 * count:
        raise ValueError(f"{path}: checkpoint payload holds {len(data) - off} bytes, "
                         f"its header needs {8 * count}")
    return np.frombuffer(data, np.float64, count, off)


def load_params(path) -> PolicyParams:
    """Weights of a version 2 checkpoint; Adam starts afresh. Raise
    ValueError, naming the file, on a bad magic, any other version (older
    files included), a malformed header or a payload of the wrong length."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a policy checkpoint (bad magic)")
    try:
        version, *sizes = _HEADER.unpack_from(data, len(CHECKPOINT_MAGIC))
    except struct.error as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc})") from exc
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    theta = _payload(path, data, len(CHECKPOINT_MAGIC) + _HEADER.size, _size(_layout(*sizes)))
    params = PolicyParams(*sizes)
    params.theta[...] = theta
    return params
