import numpy as np
import pytest

from oracles import aerial_slot_draw
from riscomp import aerial
from riscomp.aerial import ArisEnv, MdpAction
from riscomp.channel import substream
from riscomp.scenarios import AerialScenario, tiny_aerial_scenario


def _action(scn, move=4, phases=None, alloc=0.75, rng=None):
    """The action of one episode, with its leading episode axis."""
    phases = np.zeros(scn.k_elements) if phases is None else phases
    if rng is not None:
        phases = rng.uniform(-np.pi, np.pi, scn.k_elements)
    return MdpAction(move=np.array([move]), phases=phases[None],
                     alloc_factors=np.full((1, scn.n_bs), alloc))


def test_reset_default_position_and_state_shape():
    scn = AerialScenario()
    env = ArisEnv(scn, seed=0)
    state = env.reset()
    assert tuple(state.uav_xy[0]) == (0.0, 35.0)
    assert state.vector().shape == (1, scn.state_dim)
    assert scn.state_dim == 2 + 2 + 2 + 3
    # Obstacle distances are horizontal Euclidean norms.
    expect = [np.hypot(35.0 - o[1], 0.0 - o[0]) for o in scn.obstacle_positions]
    assert np.allclose(state.obstacle_dists[0], expect)


def test_reset_determinism():
    scn = tiny_aerial_scenario()
    r1 = ArisEnv(scn, seed=3).reset().rates
    r2 = ArisEnv(scn, seed=3).reset().rates
    assert np.array_equal(r1, r2)


def test_action_validation():
    scn = tiny_aerial_scenario()
    with pytest.raises(ValueError):
        MdpAction(move=[7], phases=np.zeros((1, 4)), alloc_factors=[[0.7, 0.7]])
    with pytest.raises(ValueError):
        MdpAction(move=[0], phases=np.zeros((1, 4)), alloc_factors=[[0.4, 0.7]])
    env = ArisEnv(scn, seed=0)
    env.reset()
    with pytest.raises(ValueError):
        env.step(MdpAction(move=[0], phases=np.zeros((1, 3)), alloc_factors=[[0.7, 0.7]]))


def test_hover_reward_equals_sum_rate_when_qos_met():
    scn = tiny_aerial_scenario(r_center_min=0.0, r_edge_min=0.0)
    # Thresholds 0 and rates > 0: violation indicator (rate <= 0) stays 0.
    env = ArisEnv(scn, seed=1)
    env.reset()
    state, reward, done = env.step(_action(scn))
    assert reward[0] == pytest.approx(float(np.sum(state.rates[0])))
    assert not done


def test_boundary_move_cancelled_with_penalty():
    scn = tiny_aerial_scenario(r_center_min=0.0, r_edge_min=0.0,
                               uav_start=(-50.0, -40.0))
    env = ArisEnv(scn, seed=2)
    start = env.reset().uav_xy.copy()
    state, reward, _ = env.step(_action(scn, move=0))  # move left, off the map
    assert np.array_equal(state.uav_xy, start)
    assert reward[0] == pytest.approx(float(np.sum(state.rates[0])) - scn.k_viol)


def test_forbidden_zone_move_cancelled():
    scn = tiny_aerial_scenario(uav_start=(-15.0, -3.0), r_center_min=0.0,
                               r_edge_min=0.0)
    # Obstacle at (-15, 10) with d_min 10: moving up from 13 m away would
    # enter the forbidden zone.
    env = ArisEnv(scn, seed=3)
    start = env.reset().uav_xy.copy()
    state, reward, _ = env.step(_action(scn, move=3))
    assert np.array_equal(state.uav_xy, start)
    assert reward[0] < float(np.sum(state.rates[0]))


def test_all_qos_violated_gives_zero_rate_term():
    scn = tiny_aerial_scenario(r_center_min=100.0, r_edge_min=100.0)
    env = ArisEnv(scn, seed=4)
    env.reset()
    state, reward, _ = env.step(_action(scn))
    assert reward[0] == pytest.approx(0.0)


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
        assert np.isfinite(reward[0])
        flags.append(done)
    assert flags == [False, False, False, False, True]


def test_blocked_direct_edge_with_no_elements():
    scn = tiny_aerial_scenario(k_elements=0)
    env = ArisEnv(scn, seed=6)
    state = env.reset()
    assert state.rates[0, -1] == 0.0  # edge rate: blocked direct, empty cascade


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
        return [float(env.step(a)[1][0]) for a in actions]
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
                move=np.array([rng.integers(5)]),
                phases=np.zeros((1, 0)),
                alloc_factors=rng.uniform(0.51, 0.99, (1, scn.n_bs)),
            )
            state, _, _ = env.step(action)
            x, y = state.uav_xy[0]
            assert abs(x) <= half and abs(y) <= half
            for o in obstacles:
                assert np.hypot(x - o[0], y - o[1]) >= scn.d_min


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
        pos = np.array([xy])
        ris, direct = env._channels(pos, substream(13, k).standard_normal((n, env.n_normals)))
        assert ris.shape == (n, scn.n_bs + scn.n_users, k)
        assert direct.shape == (n, scn.n_bs, scn.n_users - 1)
        rng = substream(13, k)
        singles = [env._channels(pos, rng.standard_normal((1, env.n_normals)))
                   for _ in range(n)]
        phasors = np.exp(1j * phase_rng.uniform(-np.pi, np.pi, (3, k)))
        gains = env._gains(ris, direct, phasors[:, None])
        assert gains.shape == (3, n, scn.n_bs, scn.n_users)
        ref_rng = substream(13, k)
        for d in range(n):
            ref_ris, ref_direct = aerial_slot_draw(scn, xy, ref_rng)
            assert np.array_equal(ris[d], np.array(ref_ris))
            assert np.array_equal(singles[d][0][0], ris[d])
            assert np.array_equal(direct[d], ref_direct[:, :-1])
            assert np.array_equal(singles[d][1][0], direct[d])
            for p, phasor in enumerate(phasors):
                ref = _reference_gains(scn, ref_ris, ref_direct, phasor)
                assert np.array_equal(gains[p, d], ref)
                assert np.array_equal(env._gains(*singles[d], phasor)[0], ref)


def _assert_draws_as_first_visit(env, state, k):
    """Draws and obstacle distances at the env's position equal those of a
    fresh env placed there and of the link-by-link reference."""
    xy = state.uav_xy
    n = 3
    ris, direct = env._channels(xy, substream(22, k).standard_normal((n, env.n_normals)))
    fresh = ArisEnv(env.scn, seed=env.seed)
    fresh_ris, fresh_direct = fresh._channels(
        xy.copy(), substream(22, k).standard_normal((n, fresh.n_normals)))
    assert np.array_equal(ris, fresh_ris)
    assert np.array_equal(direct, fresh_direct)
    ref_rng = substream(22, k)
    for d in range(n):
        ref_ris, ref_direct = aerial_slot_draw(env.scn, xy[0], ref_rng)
        assert np.array_equal(ris[d], np.array(ref_ris).reshape(ris[d].shape))
        assert np.array_equal(direct[d], ref_direct[:, :-1])
    expect = [np.linalg.norm(xy[0] - np.asarray(o)) for o in env.scn.obstacle_positions]
    assert np.array_equal(state.obstacle_dists[0], expect)


@pytest.mark.parametrize("k", [0, 4])
def test_revisited_position_draws_equal_fresh_env_and_reference(k):
    # The UAV goes A -> B -> A -> B: each second visit reads the cached
    # geometry, which must give the bits of a first visit.
    scn = tiny_aerial_scenario(k_elements=k, uav_start=(-40.0, -40.0))
    env = ArisEnv(scn, seed=21)
    a = env.reset()
    b = env.step(_action(scn, move=1))[0]  # right
    assert not np.array_equal(a.uav_xy, b.uav_xy)
    a_again = env.step(_action(scn, move=0))[0]  # left
    assert np.array_equal(a_again.uav_xy, a.uav_xy)
    _assert_draws_as_first_visit(env, a_again, k)
    b_again = env.step(_action(scn, move=1))[0]
    assert np.array_equal(b_again.uav_xy, b.uav_xy)
    _assert_draws_as_first_visit(env, b_again, k)


def test_geometry_caches_stay_bounded(monkeypatch):
    monkeypatch.setattr(aerial, "_POSITION_CACHE_MAX", 4)
    scn = tiny_aerial_scenario(r_center_min=0.0, r_edge_min=0.0)
    env = ArisEnv(scn, seed=0)
    env.reset()
    for _ in range(10):
        state = env.step(_action(scn, move=1))[0]  # ten new positions
        assert len(env._link_cache) <= 4 and len(env._dist_cache) <= 4
    _assert_draws_as_first_visit(env, state, scn.k_elements)


def test_cached_obstacle_distances_are_read_only():
    scn = tiny_aerial_scenario()
    env = ArisEnv(scn, seed=0)
    state = env.reset()
    with pytest.raises(ValueError):
        env._obstacle_dists(state.uav_xy[0])[0, 0] = 0.0
    # A state holds its own copy: writing into it leaves the cache intact.
    expect = state.obstacle_dists.copy()
    state.obstacle_dists[0, 0] = 0.0
    assert np.array_equal(env.step(_action(scn))[0].obstacle_dists, expect)  # hover


def test_center_count_must_match_bs_count():
    # Rates index center i by BS i: a third BS without a third center user
    # would read the edge user's column as a center rate.
    bs = (*AerialScenario.bs_positions, (0.0, -60.0, 25.0))
    with pytest.raises(ValueError, match="one center user per BS"):
        AerialScenario(bs_positions=bs)


@pytest.mark.parametrize("k, oma", [(0, False), (4, False), (4, True)])
def test_lockstep_episodes_equal_episodes_one_at_a_time(k, oma):
    # Two rounds of 3 and 2 episodes in lockstep against the same five
    # episodes stepped at n = 1 with the same actions. The start sits near a
    # corner, so some moves are canceled too.
    scn = tiny_aerial_scenario(k_elements=k, t_slots=12, oma=oma,
                               uav_start=(-45.0, -45.0))
    rng = substream(31, k)
    rounds = []
    for n in (3, 2):
        rounds.append([MdpAction(move=rng.integers(5, size=n),
                                 phases=rng.uniform(-np.pi, np.pi, (n, k)),
                                 alloc_factors=rng.uniform(0.51, 0.99, (n, scn.n_bs)))
                       for _ in range(scn.t_slots)])
    batch_env, single_env = ArisEnv(scn, seed=17), ArisEnv(scn, seed=17)
    violations = 0
    for actions in rounds:
        n = actions[0].move.size
        batch = [(batch_env.reset(n), None, None, None, None)]
        for action in actions:
            state, reward, done = batch_env.step(action)
            batch.append((state, reward, done, batch_env.last_violation, batch_env.last_qos))
        for e in range(n):
            state = single_env.reset()
            assert np.array_equal(state.vector(), batch[0][0].vector()[e : e + 1])
            for t, action in enumerate(actions):
                row = MdpAction(action.move[e : e + 1], action.phases[e : e + 1],
                                action.alloc_factors[e : e + 1])
                state, reward, done = single_env.step(row)
                b_state, b_reward, b_done, b_viol, b_qos = batch[t + 1]
                assert np.array_equal(state.vector(), b_state.vector()[e : e + 1])
                assert np.array_equal(reward, b_reward[e : e + 1])
                assert done == b_done == (t == scn.t_slots - 1)
                assert np.array_equal(single_env.last_violation, b_viol[e : e + 1])
                assert np.array_equal(single_env.last_qos, b_qos[e : e + 1])
                violations += int(b_viol[e])
    assert violations > 0


def test_step_rejects_an_action_for_another_episode_count():
    scn = tiny_aerial_scenario()
    env = ArisEnv(scn, seed=0)
    env.reset(2)
    with pytest.raises(ValueError, match="episodes"):
        env.step(_action(scn))
    with pytest.raises(ValueError):
        MdpAction(move=[0, 1], phases=np.zeros((1, 4)), alloc_factors=[[0.7, 0.7]])
    with pytest.raises(ValueError):
        MdpAction(move=[0.0], phases=np.zeros((1, 4)), alloc_factors=[[0.7, 0.7]])
    with pytest.raises(ValueError):
        MdpAction(move=[0], phases=np.zeros((1, 4)), alloc_factors=[[np.nan, 0.7]])
