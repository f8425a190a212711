import math

import numpy as np
import pytest

from oracles import RicianParams, sample_rayleigh, sample_rician_vector
from riscomp.aerial import ArisEnv, MdpAction
from riscomp.channel import substream
from riscomp.ris import wrap_phase
from riscomp.scenarios import AerialScenario, tiny_aerial_scenario


def _action(scn, move=4, phases=None, alloc=0.75, rng=None):
    phases = np.zeros(scn.k_elements) if phases is None else phases
    if rng is not None:
        phases = rng.uniform(-np.pi, np.pi, scn.k_elements)
    return MdpAction(move=move, phases=phases,
                     alloc_factors=np.full(scn.n_bs, alloc))


def test_reset_default_position_and_state_shape():
    scn = AerialScenario()
    env = ArisEnv(scn, seed=0)
    state = env.reset()
    assert tuple(state.uav_xy) == (0.0, 35.0)
    assert state.vector().size == scn.state_dim == 2 + 2 + 2 + 3
    # Obstacle distances are horizontal Euclidean norms.
    expect = [np.hypot(35.0 - o[1], 0.0 - o[0]) for o in scn.obstacle_positions]
    assert np.allclose(state.obstacle_dists, expect)


def test_reset_determinism():
    scn = tiny_aerial_scenario()
    r1 = ArisEnv(scn, seed=3).reset().rates
    r2 = ArisEnv(scn, seed=3).reset().rates
    assert np.array_equal(r1, r2)


def test_action_validation():
    scn = tiny_aerial_scenario()
    with pytest.raises(ValueError):
        MdpAction(move=7, phases=np.zeros(4), alloc_factors=[0.7, 0.7])
    with pytest.raises(ValueError):
        MdpAction(move=0, phases=np.zeros(4), alloc_factors=[0.4, 0.7])
    env = ArisEnv(scn, seed=0)
    env.reset()
    with pytest.raises(ValueError):
        env.step(MdpAction(move=0, phases=np.zeros(3), alloc_factors=[0.7, 0.7]))


def test_hover_reward_equals_sum_rate_when_qos_met():
    scn = tiny_aerial_scenario(r_center_min=0.0, r_edge_min=0.0)
    # Thresholds 0 and rates > 0: violation indicator (rate <= 0) stays 0.
    env = ArisEnv(scn, seed=1)
    env.reset()
    state, reward, done = env.step(_action(scn))
    assert reward == pytest.approx(float(np.sum(state.rates)))
    assert not done


def test_boundary_move_cancelled_with_penalty():
    scn = tiny_aerial_scenario(r_center_min=0.0, r_edge_min=0.0,
                               uav_start=(-50.0, -40.0))
    env = ArisEnv(scn, seed=2)
    start = env.reset().uav_xy.copy()
    state, reward, _ = env.step(_action(scn, move=0))  # move left, off the map
    assert np.array_equal(state.uav_xy, start)
    assert reward == pytest.approx(float(np.sum(state.rates)) - scn.k_viol)


def test_forbidden_zone_move_cancelled():
    scn = tiny_aerial_scenario(uav_start=(-15.0, -3.0), r_center_min=0.0,
                               r_edge_min=0.0)
    # Obstacle at (-15, 10) with d_min 10: moving up from 13 m away would
    # enter the forbidden zone.
    env = ArisEnv(scn, seed=3)
    start = env.reset().uav_xy.copy()
    state, reward, _ = env.step(_action(scn, move=3))
    assert np.array_equal(state.uav_xy, start)
    assert reward < float(np.sum(state.rates))


def test_all_qos_violated_gives_zero_rate_term():
    scn = tiny_aerial_scenario(r_center_min=100.0, r_edge_min=100.0)
    env = ArisEnv(scn, seed=4)
    env.reset()
    state, reward, _ = env.step(_action(scn))
    assert reward == pytest.approx(0.0)


def test_reward_arithmetic_examples():
    scn = tiny_aerial_scenario()
    env = ArisEnv(scn, seed=0)
    env.reset()
    rates = np.array([1.5, 1.0, 0.5])
    assert env.reward(rates, np.zeros(3), False) == pytest.approx(3.0)
    assert env.reward(rates, np.array([1.0, 0.0, 0.0]), False) == pytest.approx(2.0)
    assert env.reward(rates, np.zeros(3), True) == pytest.approx(3.0 - 7.0)


def test_qos_boundary_counts_as_violation():
    scn = tiny_aerial_scenario(r_center_min=0.5, r_edge_min=0.2)
    env = ArisEnv(scn, seed=0)
    env.reset()
    qos = env.qos_indicators(np.array([0.5, 0.7, 0.2]))
    assert qos.tolist() == [1.0, 0.0, 1.0]


def test_episode_length_and_done():
    scn = tiny_aerial_scenario(t_slots=5)
    env = ArisEnv(scn, seed=5)
    env.reset()
    flags = []
    for _ in range(5):
        _, reward, done = env.step(_action(scn))
        assert np.isfinite(reward)
        flags.append(done)
    assert flags == [False, False, False, False, True]


def test_blocked_direct_edge_with_no_elements():
    scn = tiny_aerial_scenario(k_elements=0)
    env = ArisEnv(scn, seed=6)
    state = env.reset()
    assert state.rates[-1] == 0.0  # edge rate: blocked direct, empty cascade


def test_step_determinism():
    scn = tiny_aerial_scenario()
    rng = substream(7, 1)
    actions = [
        _action(scn, move=int(rng.integers(5)), rng=substream(8, i))
        for i in range(10)
    ]
    def run():
        env = ArisEnv(scn, seed=9)
        env.reset()
        return [env.step(a)[1] for a in actions]
    assert run() == run()


def test_oma_variant_halves_slots():
    scn = tiny_aerial_scenario(oma=True, r_center_min=0.0, r_edge_min=0.0)
    env = ArisEnv(scn, seed=10)
    state = env.reset()
    assert np.all(state.rates >= 0)


def test_safety_invariant_random_actions():
    scn = tiny_aerial_scenario(k_elements=0, t_slots=50)
    rng = substream(11, 0)
    env = ArisEnv(scn, seed=11)
    half = scn.half_extent
    obstacles = [np.asarray(o[:2]) for o in scn.obstacle_positions]
    for episode in range(20):
        env.reset()
        for _ in range(50):
            action = MdpAction(
                move=int(rng.integers(5)),
                phases=np.zeros(0),
                alloc_factors=rng.uniform(0.51, 0.99, scn.n_bs),
            )
            state, _, _ = env.step(action)
            x, y = state.uav_xy
            assert abs(x) <= half and abs(y) <= half
            for o in obstacles:
                assert np.hypot(x - o[0], y - o[1]) >= scn.d_min


def _reference_draw(scn, xy, rng):
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


def _reference_gains(scn, ris, direct, phasor):
    bs_ris, ris_user = ris[: scn.n_bs], ris[scn.n_bs :]
    eff = np.empty(direct.shape, dtype=complex)
    for i in range(scn.n_bs):
        for u in range(scn.n_users):
            eff[i, u] = direct[i, u] + np.sum(np.conj(ris_user[u]) * phasor * bs_ris[i])
    # numpy's array abs, as the environment takes it; the scalar complex abs
    # (hypot) rounds differently on some inputs.
    return np.abs(eff) ** 2


@pytest.mark.parametrize("k", [0, 4, 120])
def test_batched_draw_and_gains_equal_per_link_reference(k):
    scn = AerialScenario(k_elements=k)
    env = ArisEnv(scn, seed=0)
    env.reset()
    n = 5
    phase_rng = substream(12, k)
    for xy in ((0.0, 35.0), (-60.0, 20.0), (41.5, -73.0)):
        env._pos = np.array(xy)
        env._rng = substream(13, k)
        ris, direct = env._draw_channels(n)
        assert ris.shape == (n, scn.n_bs + scn.n_users, k)
        assert direct.shape == (n, scn.n_bs, scn.n_users - 1)
        env._rng = substream(13, k)
        singles = [env._draw_channels() for _ in range(n)]
        phasors = np.exp(1j * phase_rng.uniform(-np.pi, np.pi, (3, k)))
        gains = env._gains(ris, direct, phasors)
        assert gains.shape == (3, n, scn.n_bs, scn.n_users)
        ref_rng = substream(13, k)
        for d in range(n):
            ref_ris, ref_direct = _reference_draw(scn, xy, ref_rng)
            assert np.array_equal(ris[d], np.array(ref_ris))
            assert np.array_equal(singles[d][0][0], ris[d])
            assert np.array_equal(direct[d], ref_direct[:, :-1])
            assert np.array_equal(singles[d][1][0], direct[d])
            for p, phasor in enumerate(phasors):
                ref = _reference_gains(scn, ref_ris, ref_direct, phasor)
                assert np.array_equal(gains[p, d], ref)
                assert np.array_equal(env._gains(*singles[d], phasor)[0], ref)


def test_center_count_must_match_bs_count():
    # Rates index center i by BS i: a third BS without a third center user
    # would read the edge user's column as a center rate.
    bs = (*AerialScenario.bs_positions, (0.0, -60.0, 25.0))
    with pytest.raises(ValueError, match="one center user per BS"):
        AerialScenario(bs_positions=bs)
