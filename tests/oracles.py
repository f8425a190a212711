"""Independent reference implementations that the tests check the engines
against: per-user NOMA SINR arithmetic, RIS phase operators and the
effective-channel composition, scalar adaptive Gauss-Kronrod quadrature
(half-line integrals and the ergodic rate of a Beta-prime law, one node at
a time on libm), per-link Rayleigh and Rician channel draws, one aerial
slot drawn link by link, the scalar incomplete beta, the PPO objective and
its backprop with every intermediate a fresh array and numpy's mean, std,
clip and sum, the per-array Adam step, the policy initialisation as one
literal dict of arrays, the n-step advantage as a double loop, MO-PPO training and
deterministic evaluation with their episodes run one at a time on these
forms alone, the coordinated engine's trial draws drawn row by row and
its estimates from a whole run's draws at once, the KS test evaluating
the CDF at every sorted point,
the multicell engine drawing every
element count's channels afresh and scoring every point on its own, the
exact OMA center outage of the multicell network under Rayleigh
interference and the exact edge-gain means of each RIS setting, and the
exhaustive grid search over static aerial
configurations that the trained policy is measured against.

Nothing in the package calls these. The engines compute the same quantities
in vectorized closed forms; these scalar versions state the definitions
directly, so agreement between the two is evidence for both.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator

from riscomp.aerial import ArisEnv, MdpAction
from riscomp.channel import substream
from riscomp.energy import _STREAM_MC, Aggregates
from riscomp.moppo import (
    _ADAM_B1,
    _ADAM_B2,
    _ADAM_EPS,
    _LOG_2PI,
    _STREAM_AGENT,
    LOG_STD_MAX,
    LOG_STD_MIN,
    N_MOVES,
    Minibatch,
    TrainConfig,
    _input_dim,
    _orthogonal,
    _round_config,
    state_scale,
)
from riscomp import kernels
from riscomp.montecarlo import _STREAM_TRIALS, CHUNK, SINR_KINDS, USER_SINR
from riscomp.quadrature import _NODES, _WG, _WK, QuadratureError
from riscomp.ris import phasors, wrap_phase
from riscomp.scenarios import AerialScenario, CoordinatedScenario, MultiCellScenario
from riscomp.special import _EPS, _MAX_ITER, _TINY, ConvergenceError, betaln
from riscomp.stats import _er_breakpoints

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


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(K15, |K15 - G7|) of f over [a, b], one node at a time."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    k15 = _WK[7] * fc
    g7 = _WG[3] * fc
    for i in range(7):
        x = half * float(_NODES[i])
        f1 = f(mid - x)
        f2 = f(mid + x)
        k15 += _WK[i] * (f1 + f2)
        if i % 2 == 1:
            g7 += _WG[i // 2] * (f1 + f2)
    k15 *= half
    g7 *= half
    return k15, abs(k15 - g7)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    rtol: float = 1e-8,
    atol: float = 1e-12,
    breakpoints: Sequence[float] = (),
    limit: int = 4000,
) -> float:
    """Integral of a scalar f over [a, b]: adaptive GK15 that bisects the
    panel with the largest error estimate, one integral at a time."""
    if not b > a:
        raise ValueError("integrate requires b > a")
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    heap: list[tuple[float, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val))
    splits = 0
    while total_err > max(atol, rtol * abs(total)):
        if splits >= limit or not heap:
            raise QuadratureError(
                f"quadrature did not reach tolerance (err={total_err:.3e}, value={total:.6e})"
            )
        neg_err, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            total_err += neg_err
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) + neg_err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        splits += 1
    return total


def reference_ergodic_rate(p, rtol: float = 1e-8) -> float:
    """E[log2(1 + X)] for X ~ the scaled Beta-prime law p, by the scalar
    quadrature above with libm's log, log1p and exp at each node of
    u = x/(scale + x), where the weight is Beta(a, b)'s density."""
    a, b, q = p.a, p.b, p.scale
    lnb = betaln(a, b)

    def integrand(u: float) -> float:
        if u <= 0.0 or u >= 1.0:
            return 0.0
        x = q * u / (1.0 - u)
        if x <= 0.0 or math.isinf(x):
            return 0.0
        w = math.exp((a - 1.0) * math.log(u) + (b - 1.0) * math.log1p(-u) - lnb)
        return w * math.log1p(x) / math.log(2.0)

    return integrate(integrand, 0.0, 1.0, rtol=rtol, atol=1e-12,
                     breakpoints=_er_breakpoints(a, b))


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


def beta_prime_pdf(p, x: float) -> float:
    """Density at x of a scaled Beta-prime law p (X/p.scale ~ BetaPrime(p.a, p.b))."""
    if x <= 0:
        return 0.0
    y = x / p.scale
    ln = (p.a - 1.0) * math.log(y) - (p.a + p.b) * math.log1p(y)
    return math.exp(ln - betaln(p.a, p.b)) / p.scale


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
    # numpy's log, log1p and exp on the scalar: the same bits as on any
    # element of an array, where the C library's differ in the last bits.
    front = float(np.exp(a * np.log(x) + b * np.log1p(-x) - betaln(a, b)))
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


def reference_forward(weights, x: np.ndarray) -> dict:
    """The network on inputs x (B, S), each layer tanh(x @ W.T + b) as one
    expression: the hidden activations, probs, mu, std and v by name."""
    w = weights
    t1 = np.tanh(x @ w["w1"].T + w["b1"])
    t2 = np.tanh(t1 @ w["w2"].T + w["b2"])
    hd = np.tanh(t2 @ w["wd"].T + w["bd"])
    logits = hd @ w["wdo"].T + w["bdo"]
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / np.sum(e, axis=-1, keepdims=True)
    hc = np.tanh(t2 @ w["wc"].T + w["bc"])
    mu = hc @ w["wco"].T + w["bco"]
    hv = np.tanh(t2 @ w["wv"].T + w["bv"])
    v = (hv @ w["wvo"].T + w["bvo"])[..., 0]
    std = np.exp(np.clip(w["log_std"], LOG_STD_MIN, LOG_STD_MAX))
    return {"x": x, "t1": t1, "t2": t2, "hd": hd, "hc": hc, "hv": hv,
            "probs": probs, "mu": mu, "v": v, "std": std}


def reference_gaussian_logp(x, mu, std):
    """Diagonal Gaussian log-density of the rows of x."""
    z = (x - mu) / std
    return np.sum(-0.5 * z * z - np.log(std) - 0.5 * _LOG_2PI, axis=-1)


def reference_clipped_loss(ratio, adv, eps: float):
    """Per-sample clipped surrogate min(r*A, clip(r, 1-eps, 1+eps)*A)."""
    return np.minimum(ratio * adv, np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv)


def reference_grad_mask(ratio, adv, eps):
    """1 where the unclipped branch of the surrogate is active."""
    blocked_hi = (ratio > 1.0 + eps) & (adv > 0)
    blocked_lo = (ratio < 1.0 - eps) & (adv < 0)
    return ~(blocked_hi | blocked_lo)


def reference_advantage(rewards, values, dones, gamma: float, t_hat: int) -> np.ndarray:
    """n-step advantage, window by window and term by term: each window
    adds g * reward with g = 1, gamma, gamma**2, ... formed by repeated
    products, stops after an episode end (terminal value zero) or at the
    rollout's end, and otherwise bootstraps g * values[end]."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    n = rewards.size
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


def reference_to_env_action(moves, raw, scenario: AerialScenario) -> MdpAction:
    """Raw policy outputs to an action: phases as they are (MdpAction wraps
    them), allocation factors squashed into (0.5, 1) and clipped."""
    k = scenario.k_elements
    alloc = 0.5 + 0.5 / (1.0 + np.exp(-raw[:, k:]))
    alloc = np.clip(alloc, 0.5 + 1e-9, 1.0 - 1e-9)
    return MdpAction(move=moves, phases=raw[:, :k], alloc_factors=alloc)


def _reference_net_input(state: np.ndarray, scale: np.ndarray, t: int, t_total: int):
    """One network input row: the scaled state and the remaining-time share."""
    return np.concatenate([state / scale, [(t_total - t) / t_total]])


def reference_objective_and_grads(weights, mb: Minibatch, cfg: TrainConfig):
    """The PPO objective J, dJ/dtheta as a fresh dict of arrays, and the
    objective's parts, each term written out where it is used;
    `riscomp.moppo.objective_and_grads` must give the same bits."""
    b = mb.states.shape[0]
    c = reference_forward(weights, mb.states)
    probs, mu, std, v = c["probs"], c["mu"], c["std"], c["v"]
    adv = mb.adv
    if cfg.normalize_adv and b > 1:
        adv = (adv - np.mean(adv)) / (np.std(adv) + 1e-8)

    lp_c = reference_gaussian_logp(mb.raw_actions, mu, std)
    r_c = np.exp(lp_c - mb.logp_c_old)
    mask_c = reference_grad_mask(r_c, adv, cfg.clip_eps)
    j_cont = float(np.mean(reference_clipped_loss(r_c, adv, cfg.clip_eps)))
    ent_c = float(np.sum(np.log(std) + 0.5 * (_LOG_2PI + 1.0)))

    dmu = (mask_c * r_c * adv)[:, None] * (mb.raw_actions - mu) / (std**2) / b
    z2 = ((mb.raw_actions - mu) / std) ** 2
    dlog_std = np.sum((mask_c * r_c * adv)[:, None] * (z2 - 1.0), axis=0) / b
    dlog_std += cfg.entropy_coef

    lp_d = np.log(probs[np.arange(b), mb.moves])
    r_d = np.exp(lp_d - mb.logp_d_old)
    mask_d = reference_grad_mask(r_d, adv, cfg.clip_eps)
    j_disc = float(np.mean(reference_clipped_loss(r_d, adv, cfg.clip_eps)))
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
    w = weights
    x, t1, t2, hd, hc, hv = (c[k] for k in ("x", "t1", "t2", "hd", "hc", "hv"))
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
    info = {"j": j, "j_disc": j_disc, "j_cont": j_cont, "value_loss": j_value,
            "entropy_d": ent_d, "entropy_c": ent_c}
    return j, g, info


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
            if not scenario.clear(pos):
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


class _ReferenceAgent:
    """The network as a dict of arrays, its Adam moments and step count."""

    def __init__(self, scenario: AerialScenario, cfg: TrainConfig, rng):
        self.weights = init_policy_arrays(
            _input_dim(scenario), scenario.action_dim_continuous, rng,
            hidden=cfg.hidden, head_hidden=cfg.head_hidden, log_std_init=cfg.log_std_init)
        self.adam_m = {k: np.zeros_like(a) for k, a in self.weights.items()}
        self.adam_v = {k: np.zeros_like(a) for k, a in self.weights.items()}
        self.step = 0

    def epochs(self, buffer: Minibatch, cfg: TrainConfig, rng) -> None:
        """Up to cfg.epochs epochs of minibatch Adam steps over fresh rng
        permutations of the buffer; after each epoch but the last, stop
        when the mean approximate KL of either head, from a full forward on
        the buffer, exceeds cfg.kl_stop."""
        m = buffer.states.shape[0]
        columns = [getattr(buffer, f.name) for f in fields(buffer)]
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(m)
            for start in range(0, m, cfg.batch):
                sel = order[start : start + cfg.batch]
                mb = Minibatch(*(column[sel] for column in columns))
                _, grads, _ = reference_objective_and_grads(self.weights, mb, cfg)
                self.step += 1
                adam_step(self.weights, self.adam_m, self.adam_v, grads, self.step,
                          cfg.learning_rate)
            if epoch == cfg.epochs:
                break
            c = reference_forward(self.weights, buffer.states)
            lpd_n = np.log(c["probs"][np.arange(m), buffer.moves] + 1e-12)
            lpc_n = reference_gaussian_logp(buffer.raw_actions, c["mu"], c["std"])
            kl_d = float(np.mean(buffer.logp_d_old - lpd_n))
            kl_c = float(np.mean(buffer.logp_c_old - lpc_n))
            if max(abs(kl_d), abs(kl_c)) > cfg.kl_stop:
                break


def reference_train(scenario: AerialScenario, cfg: TrainConfig, seed: int = 0):
    """MO-PPO training on the forms above alone, with every episode rolled
    out on its own: the environment runs one episode at a time, the policy
    sees one state per forward, and the move is drawn by rng.choice, then
    the raw continuous action from one standard_normal call. Rounds of
    episodes_per_update episodes feed the reference epochs. Returns (reward
    curve, weights by name); `riscomp.moppo.train`, which steps a round's
    episodes in lockstep, must give the same bits."""
    env = ArisEnv(scenario, seed=seed)
    rng = substream(seed, _STREAM_AGENT)
    agent = _ReferenceAgent(scenario, cfg, rng)
    scale = state_scale(scenario)
    n, n_cont = scenario.t_slots, scenario.action_dim_continuous
    curve = np.empty(cfg.episodes)
    buffers = []
    for ep in range(cfg.episodes):
        svec = _reference_net_input(env.reset().vector()[0], scale, 0, n)
        states = np.empty((n, svec.size))
        moves = np.empty(n, dtype=int)
        raws = np.empty((n, n_cont))
        lpd, lpc, rewards = np.empty(n), np.empty(n), np.empty(n)
        values = np.empty(n + 1)
        dones = np.zeros(n, dtype=bool)
        total = 0.0
        for t in range(n):
            c = reference_forward(agent.weights, svec[None])
            probs, mu, std = c["probs"][0], c["mu"][0], c["std"]
            move = int(rng.choice(N_MOVES, p=probs))
            raw = mu + std * rng.standard_normal(n_cont)
            nstate, r, done = env.step(
                reference_to_env_action(np.array([move]), raw[None], scenario))
            states[t], moves[t], raws[t] = svec, move, raw
            lpd[t] = float(np.log(probs[move]))
            lpc[t] = float(reference_gaussian_logp(raw, mu, std))
            rewards[t], values[t], dones[t] = r[0], c["v"][0], done
            total += float(r[0])
            svec = _reference_net_input(nstate.vector()[0], scale, t + 1, n)
        values[n] = 0.0  # terminal
        adv = reference_advantage(rewards, values, dones, cfg.gamma, cfg.rollout)
        buffers.append((states, moves, raws, lpd, lpc, adv, adv + values[:n]))
        curve[ep] = total
        if len(buffers) == cfg.episodes_per_update:
            buffer = Minibatch(*(np.concatenate(parts) for parts in zip(*buffers)))
            agent.epochs(buffer, _round_config(cfg, ep), rng)
            buffers = []
    return curve, agent.weights


def reference_evaluate(scenario: AerialScenario, weights, seed: int = 0, episodes: int = 5):
    """Deterministic evaluation (the most probable move, the mean continuous
    action) with the episodes run one after another, one state per
    forward: (mean per-slot sum rate, mean reward, trace rows), the rows
    as `riscomp.moppo.evaluate` writes them."""
    env = ArisEnv(scenario, seed=seed)
    scale = state_scale(scenario)
    n = scenario.t_slots
    sum_rates, rewards, traces = [], [], []
    for _ in range(episodes):
        svec = _reference_net_input(env.reset().vector()[0], scale, 0, n)
        for t in range(n):
            c = reference_forward(weights, svec[None])
            move = int(np.argmax(c["probs"][0]))
            nstate, r, _ = env.step(
                reference_to_env_action(np.array([move]), c["mu"], scenario))
            sum_rates.append(np.sum(nstate.rates[0]))
            rewards.append(r[0])
            traces.append((t, nstate.uav_xy[0, 0], nstate.uav_xy[0, 1], float(r[0]),
                           *nstate.rates[0], int(env.last_violation[0]),
                           int(np.sum(env.last_qos[0]))))
            svec = _reference_net_input(nstate.vector()[0], scale, t + 1, n)
    return float(np.mean(sum_rates)), float(np.mean(rewards)), traces


def reference_trial_draws(scn: CoordinatedScenario, n: int, seed: int, coupling: str):
    """The coordinated engine's draws (z, x) of n trials, row by row: chunk j
    of CHUNK trials draws from substream (seed, _STREAM_TRIALS, j) the rows
    of center 1, center 2, edge 1 and edge 2 in turn, each row a fresh
    rng.gamma(m, omega/m) array per role (direct, BS-RIS, RIS-user), then
    the interference rows of center 1 and center 2; in physical mode a
    block's later rows copy its first row's draws. Each Z row is
    (sqrt(h^2) + K sqrt(beta) sqrt(a^2) sqrt(b^2))^2, written out."""
    k = kernels
    shared = coupling == "physical"
    amp_c, amp_e = scn.cascade_amp_center(), scn.cascade_amp_edge()
    blocks = [(scn.links[0], amp_c, (k.Z_CF1_S, k.Z_CF1_I, k.Z_C1_S)),
              (scn.links[1], amp_c, (k.Z_CF2_S, k.Z_CF2_I, k.Z_C2_S)),
              (scn.links[2], amp_e, (k.Z_F1_V, k.Z_F1_W, k.Z_NC1_V, k.Z_NC1_W)),
              (scn.links[3], amp_e, (k.Z_F2_V, k.Z_F2_W, k.Z_NC2_W))]
    ici = [(scn.links[0]["ici"], (k.X_CF1, k.X_C1)),
           (scn.links[1]["ici"], (k.X_CF2, k.X_C2))]
    z = np.empty((k.N_Z_ROWS, n))
    x = np.empty((k.N_X_ROWS, n))
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        rng = substream(seed, _STREAM_TRIALS, start // CHUNK)
        for links, amp, rows in blocks:
            for i, r in enumerate(rows):
                if i == 0 or not shared:
                    h, a, b = [rng.gamma(links[role].m, links[role].omega / links[role].m, m)
                               for role in ("direct", "bs_ris", "ris_user")]
                s = np.sqrt(h) + amp * np.sqrt(a) * np.sqrt(b)
                z[r, start:start + m] = s * s
        for p, rows in ici:
            for i, r in enumerate(rows):
                if i == 0 or not shared:
                    draw = rng.gamma(p.m, p.omega / p.m, m)
                x[r, start:start + m] = draw
    return z, x



def reference_batch(scn: CoordinatedScenario, n: int, seed: int, coupling: str,
                    kinds=SINR_KINDS) -> dict[str, np.ndarray]:
    """The SINR samples of `kinds` of n trials, kind -> (n,): all n trials
    drawn at once (reference_trial_draws), then scored in one kernel call."""
    z, x = reference_trial_draws(scn, n, seed, coupling)
    return kernels.coordinated_sinr(z, x, scn.zeta_center, scn.zeta_edge, scn.rho, kinds)


def reference_outage_frequencies(batch: dict[str, np.ndarray],
                                 scn: CoordinatedScenario) -> dict[str, float]:
    """Per-user outage frequencies of a whole batch, each np.mean of its
    strict events at the scenario's thresholds (a center user is out when
    SIC or its own message fails), then the no-CoMP edge baseline's."""
    thr_c, thr_f = scn.threshold_center, scn.threshold_edge
    out = {f"center{i}": float(np.mean((batch[f"center{i}_sic"] < thr_f)
                                       | (batch[f"center{i}_own"] < thr_c))) for i in (1, 2)}
    out["edge"] = float(np.mean(batch["edge"] < thr_f))
    out["edge_nocomp"] = float(np.mean(batch["edge_nocomp"] < thr_f))
    return out


def reference_mean_rates(batch: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-user mean Shannon rate log2(1 + sinr) of a whole batch, np.mean
    over every trial at once."""
    return {user: float(np.mean(np.log1p(batch[kind]) / math.log(2.0)))
            for user, kind in USER_SINR.items()}


def reference_ks_statistic(samples, cdf) -> tuple:
    """The one-sample KS test on whole samples: cdf called once on every
    sorted point of (n,) or (L, n) samples, D = max(max |hi - F|, max |lo - F|)
    per row with hi_i = (i + 1)/n and lo_i = i/n, and (D, D < critical,
    critical) at critical = 1.63/sqrt(n), D a float for one sample."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1]
    s = np.sort(samples, axis=-1)
    f = np.asarray(cdf(s), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    d = np.maximum(np.max(np.abs(hi - f), axis=-1), np.max(np.abs(lo - f), axis=-1))
    critical = 1.63 / math.sqrt(n)
    if samples.ndim == 1:
        d = float(d)
    return d, d < critical, critical

def multicell_draws(scn: MultiCellScenario, rng: Generator, m: int):
    """Complex channel draws for m trials at the element count scn.k_elements,
    each array drawn whole in turn: edge-direct links, the per-element
    cascade products, random unit phasors and the center direct gains."""
    n_cells, k = scn.n_cells, scn.k_elements
    sqrt_half = math.sqrt(0.5)
    g_edge_direct = math.sqrt(scn.gain(scn.d_edge, scn.alpha_edge))
    ed = (rng.standard_normal((m, n_cells)) + 1j * rng.standard_normal((m, n_cells)))
    ed *= sqrt_half * g_edge_direct
    w_los = math.sqrt(scn.kappa / (1.0 + scn.kappa))
    w_nlos = math.sqrt(1.0 / (1.0 + scn.kappa))
    g_br = math.sqrt(scn.gain(scn.d_bs_ris, scn.alpha_ris))
    g_ru = math.sqrt(scn.gain(scn.d_ris_edge, scn.alpha_ris))
    shape = (m, n_cells, k)
    h_br = w_los + w_nlos * sqrt_half * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    h_ru = w_los + w_nlos * sqrt_half * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    casc = (g_br * g_ru) * np.conj(h_ru) * h_br
    phi = rng.uniform(-math.pi, math.pi, shape)
    rnd = np.empty(shape, complex)
    rnd.real, rnd.imag = phasors(phi, np.empty((2, *shape)))
    hij = sqrt_half * (
        rng.standard_normal((m, n_cells, n_cells))
        + 1j * rng.standard_normal((m, n_cells, n_cells))
    )
    cg = hij.real**2 + hij.imag**2
    scale = np.full((n_cells, n_cells), scn.gain(scn.d_ici, scn.alpha_ici))
    np.fill_diagonal(scale, scn.gain(scn.d_center, scn.alpha_center))
    cg = cg * scale[None, :, :]
    return ed, casc, rnd, cg


def element_planes(z):
    """The element-major real and imaginary planes, (2, K, n, I), of
    complex (n, I, K) element values: the layout in which the multicell
    engine hands its cascade and phasors to kernels.multicell_edge_gains."""
    return np.ascontiguousarray(np.moveaxis(np.stack([z.real, z.imag]), -1, 1))


def reference_edge_gains(ed, casc, rnd, n_cos):
    """The multicell edge gains of every mode code (0 off, 1 random,
    2 enhancement, 3 cancellation) and of each anti-phased count in n_cos,
    each element sum one sequential += per element."""
    ed_re, ed_im = ed.real, ed.imag
    h2 = ed_re * ed_re + ed_im * ed_im
    k = casc.shape[2]
    by_code = {0: h2}
    hre = ed_re.copy()
    parts = rnd.real * casc.real - rnd.imag * casc.imag
    for q in range(k):
        hre += parts[:, :, q]
    him = ed_im.copy()
    parts = rnd.real * casc.imag + rnd.imag * casc.real
    for q in range(k):
        him += parts[:, :, q]
    by_code[1] = hre * hre + him * him
    c_re, c_im = casc.real, casc.imag
    mag = np.sqrt(c_re * c_re + c_im * c_im)
    s = np.zeros(h2.shape)
    for q in range(k):
        s += mag[:, :, q]
    amp = np.sqrt(h2)
    by_code[2] = (amp + s) * (amp + s)
    by_code[3] = (amp - s) * (amp - s)
    by_split = {}
    for n_co in n_cos:
        s_co = np.zeros(h2.shape)
        for q in range(n_co):
            s_co += mag[:, :, q]
        s_eo = np.zeros(h2.shape)
        for q in range(n_co, k):
            s_eo += mag[:, :, q]
        d = amp - s_co + s_eo
        by_split[n_co] = d * d
    return by_code, by_split


def reference_multicell_sinr(g_edge, cg, coop, zeta_f, p_w, sigma2):
    """Every multicell SINR of one point, (edge, edge_oma, c_own, c_cf,
    c_oma), from its per-cell edge gains and the center gains, summed over
    cells in index order."""
    n, n_cells = g_edge.shape
    sig_e = np.zeros(n)
    intra_e = np.zeros(n)
    ici_e = np.zeros(n)
    for i in range(n_cells):
        if coop[i]:
            sig_e += zeta_f * p_w * g_edge[:, i]
            intra_e += (1.0 - zeta_f) * p_w * g_edge[:, i]
        else:
            ici_e += p_w * g_edge[:, i]
    edge = sig_e / (intra_e + ici_e + sigma2)
    edge_oma = (sig_e + intra_e) / (ici_e + sigma2)
    c_own = np.empty((n, n_cells))
    c_cf = np.empty((n, n_cells))
    c_oma = np.empty((n, n_cells))
    for i in range(n_cells):
        coop_g = np.zeros(n)
        ici_g = np.zeros(n)
        oma_ici = np.zeros(n)
        for j in range(n_cells):
            if j != i:
                oma_ici += p_w * cg[:, j, i]
            if coop[j]:
                if j != i:
                    coop_g += (1.0 - zeta_f) * p_w * cg[:, j, i]
            else:
                if j != i:
                    ici_g += p_w * cg[:, j, i]
        own_sig = cg[:, i, i] * p_w
        if coop[i]:
            c_own[:, i] = (1.0 - zeta_f) * own_sig / (coop_g + ici_g + sigma2)
            num_cf = np.zeros(n)
            den_cf = np.zeros(n)
            for j in range(n_cells):
                if coop[j]:
                    num_cf += zeta_f * p_w * cg[:, j, i]
                    den_cf += (1.0 - zeta_f) * p_w * cg[:, j, i]
            c_cf[:, i] = num_cf / (den_cf + ici_g + sigma2)
        else:
            den = oma_ici + sigma2
            c_own[:, i] = (1.0 - zeta_f) * own_sig / den
            c_cf[:, i] = zeta_f * own_sig / ((1.0 - zeta_f) * own_sig + den)
        c_oma[:, i] = own_sig / (oma_ici + sigma2)
    return edge, edge_oma, c_own, c_cf, c_oma


# Mode codes (0 off, 1 random, 2 enhancement, 3 cancellation) of the
# cooperative and the non-cooperative cells under each network mode.
_REFERENCE_MODES = {"no-ris": (0, 0), "random": (1, 1), "eo": (2, 1), "ec": (2, 3)}


class _ReferenceSums:
    """One point's running sums of one access scheme with slot share
    `share`: every user's rate and outage count, edge and center alike."""

    def __init__(self, scn: MultiCellScenario, share: float):
        self.share = share
        self.thr_c = 2.0 ** (scn.r_center_min / share) - 1.0
        self.thr_f = 2.0 ** (scn.r_edge_min / share) - 1.0
        self.c_rate = np.zeros(scn.n_cells)
        self.c_out = np.zeros(scn.n_cells)
        self.e_rate = self.e_out = 0.0

    def add(self, edge, center, center_sic=None):
        out = center < self.thr_c
        if center_sic is not None:
            out |= center_sic < self.thr_f
        self.e_rate += self.share * float(np.sum(np.log2(1.0 + edge)))
        self.e_out += float(np.sum(edge < self.thr_f))
        self.c_rate += self.share * np.sum(np.log2(1.0 + center), axis=0)
        self.c_out += np.sum(out, axis=0)

    def aggregates(self, n: int) -> Aggregates:
        return Aggregates(self.c_rate / n, self.c_out / n, self.e_rate / n, self.e_out / n)


def reference_simulate_network(scn: MultiCellScenario, points, n: int, seed: int = 0):
    """The multicell engine at one element count: every chunk drawn whole by
    multicell_draws from its substream, at scn.k_elements, which every
    point shares, and every point scored on all its trials at once, its
    edge gains, all five SINRs and its sums of its own. Returns one (NOMA,
    OMA) pair of Aggregates per point; `riscomp.energy.simulate_network`,
    which draws each chunk's normals once for every K, scores each K in
    trial blocks and shares center SINRs and sums between points, must give
    the same bits."""
    assert all(scn_v.k_elements == scn.k_elements for scn_v, _, _ in points)
    sums = [(_ReferenceSums(scn_v, 1.0), _ReferenceSums(scn_v, 0.5)) for scn_v, _, _ in points]
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        ed, casc, rnd, cg = multicell_draws(scn, substream(seed, _STREAM_MC, start // CHUNK), m)
        for (scn_v, mode, split), (noma, oma) in zip(points, sums):
            coop = np.arange(scn_v.n_cells) < scn_v.n_coop
            n_co = None if split is None else math.ceil(split * scn_v.k_elements)
            by_code, by_split = reference_edge_gains(ed, casc, rnd, [] if n_co is None else [n_co])
            if n_co is None:
                codes = [_REFERENCE_MODES[mode][0 if c else 1] for c in coop]
                g_edge = np.stack([by_code[c][:, i] for i, c in enumerate(codes)], axis=1)
            else:
                g_edge = by_split[n_co]
            edge, edge_oma, c_own, c_cf, c_oma = reference_multicell_sinr(
                g_edge, cg, coop, scn_v.zeta_edge, scn_v.tx_power_w, scn_v.noise_w)
            noma.add(edge, c_own, c_cf)
            oma.add(edge_oma, c_oma)
    return [(noma.aggregates(n), oma.aggregates(n)) for noma, oma in sums]


def exact_edge_gain_means(scn: MultiCellScenario, n_cos) -> dict:
    """Exact means of one cell's edge gain under "off", "random" and each
    anti-phased count in n_cos, at K = scn.k_elements. With the cascade
    c = g conj(h_ru) h_br of Rician links, S = sum_k eps_k |c_k| (eps = -1
    on the first n_co elements, +1 on the rest) and s = K - 2 n_co:
    off E|h_d|^2, random E|h_d|^2 + K E|c|^2, and n_co
    E|h_d|^2 + 2s E|h_d| E|c| + K E|c|^2 + (s^2 - K) (E|c|)^2, since the
    links are independent. E|c|^2 = g^2 (w_los^2 + w_nlos^2)^2,
    E|c| = g (E|h|)^2 with E|h| the Rician mean, and the Rayleigh direct
    link has E|h_d| = sqrt(pi/4 E|h_d|^2) (Simon & Alouini, ch. 2)."""
    from scipy.stats import rice

    k = scn.k_elements
    w_los, w_nlos = scn.rician_weights
    g = math.sqrt(scn.gain(scn.d_bs_ris, scn.alpha_ris) * scn.gain(scn.d_ris_edge, scn.alpha_ris))
    sigma = w_nlos * math.sqrt(0.5)
    e_h = float(rice(w_los / sigma, scale=sigma).mean())
    e_c, e_c2 = g * e_h**2, g**2 * (w_los**2 + w_nlos**2) ** 2
    h2 = scn.gain(scn.d_edge, scn.alpha_edge)
    e_hd = math.sqrt(math.pi / 4.0 * h2)
    means = {"off": h2, "random": h2 + k * e_c2}
    for n_co in n_cos:
        s = k - 2 * n_co
        means[n_co] = h2 + 2 * s * e_hd * e_c + k * e_c2 + (s * s - k) * e_c**2
    return means


def exact_oma_center_outage(scn: MultiCellScenario) -> float:
    """Exact OMA outage of each cell's center user, Pr(SINR < theta), which
    the RIS does not enter. Under equal-time TDMA the rate is
    0.5 log2(1 + SINR), so theta = 2^(r_center_min / 0.5) - 1. The own gain
    X and the I - 1 cross gains Y_j are exponential (Rayleigh), of means
    mu_X = gain(d_center, alpha_center) and mu_Y = gain(d_ici, alpha_ici),
    and the user is out when X < theta (sum_j Y_j + sigma^2 / P):
    p = 1 - exp(-theta sigma^2 / (P mu_X)) (1 + theta mu_Y / mu_X)^-(I - 1)
    (Simon & Alouini, Digital Communication over Fading Channels, ch. 9)."""
    return _center_outage(scn, 2.0 ** (scn.r_center_min / 0.5) - 1.0)


def exact_noma_noncoop_center_outage(scn: MultiCellScenario) -> float:
    """Exact NOMA outage of a non-cooperative cell's center user, whose
    slot is whole (share 1), so each target r_min sets t = 2^r_min - 1.
    With zeta = zeta_edge and X, Y_j as in `exact_oma_center_outage`, its
    own message, SINR (1 - zeta) X / (sum_j Y_j + sigma^2 / P), fails when
    X < c1 (sum_j Y_j + sigma^2 / P) with c1 = t_c / (1 - zeta); its SIC
    stage, SINR zeta X / ((1 - zeta) X + sum_j Y_j + sigma^2 / P), fails
    when X < c2 (...) with c2 = t_f / (zeta - t_f (1 - zeta)), and always
    when zeta <= t_f (1 - zeta). The user is out when either fails, the
    OMA law's event at the larger factor: p = that law at max(c1, c2)."""
    zeta = scn.zeta_edge
    t_c, t_f = 2.0 ** scn.r_center_min - 1.0, 2.0 ** scn.r_edge_min - 1.0
    sic_margin = zeta - t_f * (1.0 - zeta)
    c2 = t_f / sic_margin if sic_margin > 0 else math.inf
    return _center_outage(scn, max(t_c / (1.0 - zeta), c2))


def _center_outage(scn: MultiCellScenario, c: float) -> float:
    """Pr(X < c (sum_j Y_j + sigma^2 / P)) for a center user's exponential
    own gain X and its I - 1 exponential cross gains Y_j; 1 at c = inf."""
    mu_x = scn.gain(scn.d_center, scn.alpha_center)
    mu_y = scn.gain(scn.d_ici, scn.alpha_ici)
    noise_term = math.exp(-c * scn.noise_w / (scn.tx_power_w * mu_x))
    return 1.0 - noise_term * (1.0 + c * mu_y / mu_x) ** -(scn.n_cells - 1)
