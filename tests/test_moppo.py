import itertools
import math

import numpy as np
import pytest

from oracles import (
    _STREAM_GRID,
    adam_step,
    exhaustive_baseline,
    init_policy_arrays,
    reference_train,
)
from riscomp.aerial import ArisEnv
from riscomp.channel import substream
from riscomp.moppo import (
    CHECKPOINT_MAGIC,
    LOG_STD_MAX,
    Minibatch,
    TrainConfig,
    advantage,
    clipped_loss,
    forward,
    gaussian_logp,
    init_policy,
    load_params,
    objective_and_grads,
    sample_action,
    save_params,
    to_env_action,
    train,
    update,
)
from riscomp.scenarios import tiny_aerial_scenario

TINY_CFG = TrainConfig(
    episodes=40, batch=128, epochs=4, rollout=4, learning_rate=3e-4,
    entropy_coef=0.005, episodes_per_update=4, kl_stop=0.02, gamma=0.95,
)


def _params(state_dim=9, n_cont=3, hidden=4):
    return init_policy(state_dim, n_cont, substream(0, 1), hidden=hidden,
                       head_hidden=hidden, log_std_init=-0.4)


def _batch(params, b=6, seed=5):
    rng = substream(seed, 2)
    states = rng.standard_normal((b, params.state_dim))
    moves = rng.integers(0, 5, b)
    raws = rng.standard_normal((b, params.n_cont))
    probs, mu, std, v, _ = forward(params, states)
    lpd = np.log(probs[np.arange(b), moves])
    lpc = gaussian_logp(raws, mu, std)
    return states, moves, raws, lpd, lpc


def test_forward_uniform_probs_for_zero_weights():
    params = _params()
    params.theta[...] = 0.0
    probs, mu, std, v, _ = forward(params, np.ones(9))
    assert np.allclose(probs, 0.2)
    assert np.allclose(mu, 0.0)
    assert v[0] == 0.0


def test_forward_probability_simplex():
    params = _params(hidden=16)
    states = substream(1, 3).standard_normal((1000, 9)) * 5
    probs, _, std, v, _ = forward(params, states)
    assert np.allclose(np.sum(probs, axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0)
    assert np.all(std > 0)
    assert np.all(np.isfinite(v))


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        forward(_params(), np.ones(8))


def _sample(probs, mu, std, rng):
    """sample_action on rows, with a row's noise drawn from rng."""
    probs, mu = np.atleast_2d(probs), np.atleast_2d(mu)
    return sample_action(probs, mu, std, rng.random(len(probs)),
                         rng.standard_normal(mu.shape))


def test_sample_action_degenerate_discrete():
    rng = substream(2, 4)
    for _ in range(20):
        move, _, lp_d, _ = _sample([1.0, 0.0, 0.0, 0.0, 0.0],
                                   np.zeros(3), np.full(3, 1.0), rng)
        assert move[0] == 0
        assert lp_d[0] == pytest.approx(0.0)


def test_sample_action_small_std_reaches_mean():
    rng = substream(3, 5)
    mu = np.array([0.3, -1.2])
    _, raw, _, lp_c = _sample([0.2] * 5, mu, np.full(2, 1e-7), rng)
    assert np.allclose(raw[0], mu, atol=1e-5)
    assert lp_c[0] == pytest.approx(float(gaussian_logp(raw[0], mu, np.full(2, 1e-7))))


def test_sample_action_logp_matches_probability():
    rng = substream(4, 6)
    probs = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    move, _, lp_d, _ = _sample(probs, np.zeros(1), np.ones(1), rng)
    assert lp_d[0] == pytest.approx(np.log(probs[move[0]]))


def test_sample_action_move_equals_rng_choice():
    # The move is the one rng.choice draws from the same uniform, on
    # softmax rows and on rows with exact zeros and ties.
    rows = substream(5, 7)
    probs = np.exp(rows.standard_normal((300, 5)) * 3.0)
    probs[::7, 2] = 0.0
    probs[1::5, :] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    a, b = substream(5, 8), substream(5, 8)
    expect = [int(a.choice(5, p=row)) for row in probs]
    moves, _, _, _ = sample_action(probs, np.zeros((300, 1)), np.ones(1),
                                   b.random(300), np.zeros((300, 1)))
    assert moves.tolist() == expect


@pytest.mark.parametrize("bad", [
    [math.nan, 0.5, 0.5, 0.0, 0.0],
    [-0.1, 0.6, 0.5, 0.0, 0.0],
    [0.3, 0.3, 0.3, 0.0, 0.0],
], ids=["nan", "negative", "unnormalized"])
def test_sample_action_rejects_what_rng_choice_rejects(bad):
    with pytest.raises(ValueError) as expected:
        substream(6, 0).choice(5, p=np.array(bad))
    probs = np.array([[0.2] * 5, bad])
    with pytest.raises(ValueError) as raised:
        sample_action(probs, np.zeros((2, 1)), np.ones(1), np.full(2, 0.5), np.zeros((2, 1)))
    assert str(expected.value).startswith(str(raised.value))


@pytest.mark.parametrize("e", [1, 2, 6, 7])
def test_forward_stacked_rows_equal_one_row_calls(e):
    # The rollout evaluates E states stacked (E, 1, S); each row must be the
    # bits of a forward on that state alone.
    params = init_policy(12, 6, substream(0, 2))
    states = substream(9, e).standard_normal((e, 12))
    probs, mu, std, v, _ = forward(params, states[:, None])
    assert probs.shape == (e, 1, 5) and mu.shape == (e, 1, 6) and v.shape == (e, 1)
    for i in range(e):
        p1, mu1, std1, v1, _ = forward(params, states[i])
        assert np.array_equal(probs[i], p1)
        assert np.array_equal(mu[i], mu1)
        assert np.array_equal(v[i], v1)
        assert np.array_equal(std, std1)


def test_advantage_examples():
    # One-step window, V = 0 everywhere.
    adv = advantage([1.0], [0.0, 0.0], [True], gamma=0.98, t_hat=1)
    assert adv[0] == pytest.approx(1.0)
    # Zero rewards: gamma^T_hat V - V.
    vals = np.array([2.0, 2.0, 2.0, 2.0, 2.0])
    adv = advantage(np.zeros(4), vals, [False] * 4, gamma=0.9, t_hat=2)
    assert adv[0] == pytest.approx(0.9**2 * 2.0 - 2.0)
    # gamma = 1, two rewards, terminal value 0.
    adv = advantage([1.0, 1.0], [0.0, 0.0, 0.0], [False, True], gamma=1.0, t_hat=2)
    assert adv[0] == pytest.approx(2.0)


def test_advantage_truncates_at_episode_end():
    rewards = [1.0, 1.0, 5.0]
    values = [0.0, 0.0, 0.0, 9.0]
    dones = [False, True, False]
    adv = advantage(rewards, values, dones, gamma=1.0, t_hat=10)
    assert adv[0] == pytest.approx(2.0)  # window stops at the done flag
    assert adv[2] == pytest.approx(5.0 + 9.0)  # bootstraps the extra value


def test_clipped_loss_examples():
    assert clipped_loss(1.0, 2.5, 0.1) == pytest.approx(2.5)
    assert clipped_loss(1.3, 2.0, 0.1) == pytest.approx(2.2)
    assert clipped_loss(0.5, -1.0, 0.1) == pytest.approx(-0.9)


def test_clipped_loss_bound_property():
    rng = substream(5, 7)
    r = rng.uniform(0, 3, 1000)
    a = rng.standard_normal(1000) * 4
    vals = clipped_loss(r, a, 0.1)
    pos = a > 0
    assert np.all(vals[pos] <= (1.1) * np.abs(a[pos]) + 1e-12)


def test_update_no_change_for_zero_advantage():
    params = _params()
    states, moves, raws, lpd, lpc = _batch(params)
    probs, mu, std, v, _ = forward(params, states)
    mb = Minibatch(states, moves, raws, lpd, lpc, np.zeros(len(moves)), v.copy())
    cfg = TrainConfig(entropy_coef=0.0, normalize_adv=False)
    before = {k: v.copy() for k, v in params.weights.items()}
    update(params, mb, cfg)
    for k in before:
        assert np.max(np.abs(params.weights[k] - before[k])) < 1e-8, k


def test_update_equals_per_array_adam_oracle():
    # Five updates on random minibatches against the per-array Adam step;
    # log_std[0] starts at the clip and the entropy bonus pushes it above.
    params = _params(hidden=8)
    params.weights["log_std"][...] = [LOG_STD_MAX, 0.0, -1.0]
    w_ref, m_ref, v_ref = ({k: a.copy() for k, a in views.items()}
                           for views in (params.weights, params.adam_m, params.adam_v))
    cfg = TrainConfig(learning_rate=0.05, entropy_coef=1.0)
    for step in range(1, 6):
        states, moves, raws, lpd, lpc = _batch(params, b=16, seed=30 + step)
        rng = substream(31, step)
        mb = Minibatch(states, moves, raws, lpd, lpc, rng.standard_normal(16),
                       rng.standard_normal(16))
        _, grads, _ = objective_and_grads(params, mb, cfg)
        assert grads["log_std"][0] > 0  # ascent would leave the clip range
        update(params, mb, cfg)
        adam_step(w_ref, m_ref, v_ref, grads, step, cfg.learning_rate)
        assert params.step == step
        assert params.weights["log_std"][0] == LOG_STD_MAX
        for k in w_ref:
            assert np.array_equal(params.weights[k], w_ref[k]), k
            assert np.array_equal(params.adam_m[k], m_ref[k]), k
            assert np.array_equal(params.adam_v[k], v_ref[k]), k


def _assert_views_tile_buffers(params):
    for views, flat in ((params.weights, params.theta), (params.adam_m, params.m),
                        (params.adam_v, params.v)):
        assert flat.flags.c_contiguous and flat.dtype == np.float64
        assert sum(a.size for a in views.values()) == flat.size
        for k, arr in views.items():
            assert np.shares_memory(arr, flat), k
        with pytest.raises(TypeError):
            views["w1"] = np.zeros_like(views["w1"])


def test_params_are_views_of_flat_buffers(tmp_path):
    params = _params()
    _assert_views_tile_buffers(params)
    states, moves, raws, lpd, lpc = _batch(params)
    mb = Minibatch(states, moves, raws, lpd, lpc, np.ones(len(moves)), np.zeros(len(moves)))
    before = params.theta.copy()
    update(params, mb, TrainConfig())
    _assert_views_tile_buffers(params)
    assert not np.array_equal(params.theta, before)
    save_params(tmp_path / "p.bin", params)
    _assert_views_tile_buffers(load_params(tmp_path / "p.bin"))


def test_gradcheck_toy_network():
    # 9-4-5 toy: input 9, hidden 4, 5 discrete outputs (+3 continuous dims).
    # clip_eps = 0.5 keeps every ratio strictly inside the clip region: the
    # surrogate's min() kink is non-differentiable and excluded by design.
    params = _params()
    states, moves, raws, lpd, lpc = _batch(params)
    rng = substream(9, 9)
    adv = rng.standard_normal(len(moves)) * 2
    vt = rng.standard_normal(len(moves))
    mb = Minibatch(states, moves, raws, lpd + 0.05, lpc - 0.03, adv, vt)
    cfg = TrainConfig(normalize_adv=False, clip_eps=0.5)
    _, grads, _ = objective_and_grads(params, mb, cfg)
    h = 1e-5
    worst = 0.0
    for key in ("w1", "wdo", "wco", "wvo", "log_std", "b2"):
        w = params.weights[key]
        flat = w.reshape(-1)
        idx = substream(10, hash(key) % 100).choice(flat.size, size=min(6, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            jp, _, _ = objective_and_grads(params, mb, cfg)
            flat[i] = orig - h
            jm, _, _ = objective_and_grads(params, mb, cfg)
            flat[i] = orig
            fd = (jp - jm) / (2 * h)
            an = grads[key].reshape(-1)[i]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    assert worst < 1e-4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_raises():
    params = _params()
    states, moves, raws, lpd, lpc = _batch(params)
    mb = Minibatch(states, moves, raws, lpd, lpc,
                   np.full(len(moves), np.inf), np.zeros(len(moves)))
    with pytest.raises(RuntimeError):
        update(params, mb, TrainConfig(normalize_adv=False))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_names_first_array_and_leaves_params():
    # A NaN value target reaches the value head first (in backprop order).
    params = _params()
    states, moves, raws, lpd, lpc = _batch(params)
    mb = Minibatch(states, moves, raws, lpd, lpc, np.zeros(len(moves)),
                   np.full(len(moves), np.nan))
    before = [flat.copy() for flat in (params.theta, params.m, params.v)]
    with pytest.raises(RuntimeError, match="non-finite gradient in wvo: objective parts"):
        update(params, mb, TrainConfig(normalize_adv=False))
    assert params.step == 0
    for flat, old in zip((params.theta, params.m, params.v), before):
        assert np.array_equal(flat, old)


def test_init_policy_equals_literal_arrays():
    for sizes in ((9, 3, 4, 4), (12, 5, 8, 6), (7, 2, 3, 16)):
        rng, rng_ref = substream(0, 1), substream(0, 1)
        params = init_policy(*sizes[:2], rng, hidden=sizes[2], head_hidden=sizes[3],
                             log_std_init=-0.4)
        ref = init_policy_arrays(*sizes[:2], rng_ref, hidden=sizes[2],
                                 head_hidden=sizes[3], log_std_init=-0.4)
        assert list(params.weights) == list(ref)
        assert np.array_equal(params.theta, np.concatenate([a.ravel() for a in ref.values()]))
        assert rng.standard_normal() == rng_ref.standard_normal()  # same draws used


def test_checkpoint_roundtrip(tmp_path):
    params = _params(state_dim=12, n_cont=5, hidden=8)
    path = tmp_path / "policy.bin"
    save_params(path, params)
    loaded = load_params(path)
    assert loaded.state_dim == 12 and loaded.n_cont == 5
    for k in params.weights:
        assert np.array_equal(params.weights[k], loaded.weights[k])
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_params(bad)


def test_checkpoint_v2_is_header_plus_theta(tmp_path):
    params = init_policy(11, 4, substream(0, 2), hidden=6, head_hidden=5)
    path = tmp_path / "policy.bin"
    save_params(path, params)
    assert path.stat().st_size == 7 + 20 + 8 * params.theta.size
    loaded = load_params(path)
    assert np.array_equal(loaded.theta, params.theta)
    assert loaded.sizes == (11, 4, 6, 5)


@pytest.mark.parametrize("writer", [save_params])
@pytest.mark.parametrize("cut", [7, 12, 26, 40])  # magic and header: 27 B
def test_checkpoint_truncated_header_rejected(tmp_path, writer, cut):
    path = tmp_path / "policy.bin"
    writer(path, _params())
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="policy.bin"):
        load_params(path)


def test_checkpoint_bad_magic_and_version_rejected(tmp_path):
    path = tmp_path / "policy.bin"
    save_params(path, _params())
    data = path.read_bytes()
    path.write_bytes(b"X" + data[1:])
    with pytest.raises(ValueError, match="policy.bin: not a policy checkpoint"):
        load_params(path)
    for version in (1, 3):  # version 1 carried Adam moments and is no longer read
        path.write_bytes(CHECKPOINT_MAGIC + bytes([version]) + data[len(CHECKPOINT_MAGIC) + 1:])
        with pytest.raises(ValueError,
                           match=f"policy.bin: unsupported checkpoint version {version}"):
            load_params(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "policy.bin"
    save_params(path, _params())
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="policy.bin"):
        load_params(path)


def test_checkpoint_truncated_payload_rejected(tmp_path):
    path = tmp_path / "policy.bin"
    save_params(path, _params())
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="policy.bin"):
        load_params(path)


def test_to_env_action_mapping():
    scn = tiny_aerial_scenario(k_elements=3)
    raw = np.array([4.0, -4.0, 0.5, 10.0, -10.0])
    action = to_env_action(np.array([1]), raw[None], scn)
    assert np.all(action.phases >= -np.pi) and np.all(action.phases < np.pi)
    assert np.all((action.alloc_factors > 0.5) & (action.alloc_factors < 1.0))
    assert action.alloc_factors[0, 0] > 0.99  # large raw saturates near 1


def test_train_determinism():
    scn = tiny_aerial_scenario(t_slots=10)
    cfg = TrainConfig(episodes=6, epochs=2, rollout=4, episodes_per_update=2)
    a = train(scn, cfg, seed=12)
    b = train(scn, cfg, seed=12)
    assert np.array_equal(a.rewards, b.rewards)
    for k in a.params.weights:
        assert np.array_equal(a.params.weights[k], b.params.weights[k])


def test_exhaustive_baseline_single_point():
    scn = tiny_aerial_scenario(k_elements=1, uav_start=(0.0, 0.0))
    best = exhaustive_baseline(scn, n_positions=1, phase_levels=1, alloc_levels=1,
                               n_eval=50, seed=3)
    assert best["position"] == (0.0, 0.0)
    assert best["value"] > 0


@pytest.mark.parametrize("oma", [False, True])
def test_exhaustive_baseline_is_maximum_of_grid(oma):
    # Re-evaluate every grid point slot by slot through the environment's
    # one-step path, on the substream the baseline uses for that position.
    scn = tiny_aerial_scenario(k_elements=1, uav_start=(0.0, 0.0), oma=oma)
    n_eval, seed = 40, 4
    best = exhaustive_baseline(scn, n_positions=4, phase_levels=2, alloc_levels=2,
                               n_eval=n_eval, seed=seed)
    env = ArisEnv(scn, seed=seed)
    coords = np.linspace(-scn.half_extent, scn.half_extent, 4)[1:-1]
    allocs = list(itertools.product([0.55, 0.95], repeat=scn.n_bs))
    values = []
    for (xi, x), (yi, y) in itertools.product(enumerate(coords), repeat=2):
        pos = np.array([x, y])
        if not env._safe(pos):
            continue
        rng = substream(seed, _STREAM_GRID, xi, yi)
        draws = [env._channels(pos[None], rng.standard_normal((1, env.n_normals)))
                 for _ in range(n_eval)]
        for phase in (-np.pi, 0.0):
            phasor = np.exp(1j * np.array([phase]))
            gains = [env._gains(ris, direct, phasor)[0] for ris, direct in draws]
            for alloc in allocs:
                sums = [np.sum(env._rates(g, np.array(alloc))) for g in gains]
                values.append(float(np.mean(sums)))
    assert best["value"] == pytest.approx(max(values), rel=1e-12)
    with pytest.raises(ValueError):
        exhaustive_baseline(scn, n_positions=25, phase_levels=8, alloc_levels=5,
                            n_eval=10, max_evaluations=10)


def test_trained_reward_curve_shape():
    scn = tiny_aerial_scenario(t_slots=10)
    res = train(scn, TINY_CFG, seed=16)
    assert res.rewards.shape == (TINY_CFG.episodes,)
    ma = res.moving_average(10)
    assert ma.size == TINY_CFG.episodes - 9


@pytest.mark.parametrize("oma, k, per_update, episodes, decay", [
    (False, 4, 6, 12, False),
    (True, 4, 6, 13, False),   # a partial last round, rolled out untrained
    (False, 2, 1, 4, False),
    (False, 3, 3, 7, True),
    (True, 3, 3, 6, True),
    (True, 16, 7, 9, False),
    (False, 16, 7, 7, False),
], ids=["noma-k4-e6", "oma-k4-e6-partial", "noma-k2-e1", "noma-k3-e3-decay-partial",
        "oma-k3-e3-decay", "oma-k16-e7-partial", "noma-k16-e7"])
def test_lockstep_train_equals_episode_by_episode_reference(oma, k, per_update, episodes,
                                                            decay):
    scn = tiny_aerial_scenario(k_elements=k, t_slots=10, oma=oma)
    cfg = TrainConfig(episodes=episodes, epochs=3, batch=16, rollout=3,
                      episodes_per_update=per_update, entropy_decay=decay, kl_stop=0.05)
    res = train(scn, cfg, seed=19)
    curve, params = reference_train(scn, cfg, seed=19)
    assert np.array_equal(res.rewards, curve)
    assert np.array_equal(res.params.theta, params.theta)
