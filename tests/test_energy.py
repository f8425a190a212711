import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import riscomp.energy
from oracles import (
    PhaseMatrix,
    ec_phases,
    effective_channel,
    element_planes,
    eo_phases,
    exact_edge_gain_means,
    exact_noma_noncoop_center_outage,
    exact_oma_center_outage,
    reference_simulate_network,
    sample_rayleigh,
)
from riscomp import kernels
from riscomp.channel import substream
from riscomp.config import ConfigError, from_mapping
from riscomp.energy import (
    MODES,
    Aggregates,
    chunk_bytes,
    energy_efficiency,
    simulate_network,
)
from riscomp.experiments import _RUNNERS, run_experiment
from riscomp.montecarlo import CHUNK
from riscomp.scenarios import MultiCellScenario

SCN = MultiCellScenario()
SMALL = MultiCellScenario(n_cells=3, n_coop=2, k_elements=8)
SMALL_KEYS = {"scenario.n_cells": 3, "scenario.n_coop": 2, "scenario.k_elements": 8}
# P_t = 1 W, lambda = 0.4, P_Q = 1 W and P_element = 3.16e-3 W (about 5 dBm),
# so every cell's base power P_t/lambda + P_Q is 3.5 W.
EE_SCN = MultiCellScenario(p_t_dbm=30.0, amp_efficiency=0.4, static_power_dbm=30.0,
                           element_power_dbm=10.0 * math.log10(3.16))


def _agg(center_outage_rates, edge_outage_rate):
    # Outage-free aggregates whose outage rates (1 - p_out) * R are the rates.
    center = np.array(center_outage_rates, dtype=float)
    return Aggregates(center, np.zeros_like(center), edge_outage_rate, 0.0)


def _split_edge_sinr(scn, ed, casc, coop, split):
    # The engine's split path: the split gain of every cell, then the edge SINR.
    n_co = math.ceil(split * scn.k_elements)
    gains = kernels.multicell_edge_gains(ed, element_planes(casc), None, {n_co})
    return kernels.multicell_edge_sinr(
        gains[n_co].T, coop, scn.zeta_edge, scn.tx_power_w, scn.noise_w
    )[0]


def _one(scn, mode, n, seed):
    return simulate_network(scn, [(scn, mode, None)], n=n, seed=seed)[0][0]


def _outputs(flat):
    """A multicell run's outputs, from its plan by its kind's runner."""
    return _RUNNERS[flat["kind"]](from_mapping(flat))


def test_energy_efficiency_single_cell():
    scn = replace(EE_SCN, n_cells=1, n_coop=1, k_elements=0)
    val = energy_efficiency(scn, "no-ris", _agg([1.0], 0.0))
    assert val == pytest.approx(1.0 / 3.5)


def test_energy_efficiency_linearity_and_zero():
    scn = replace(EE_SCN, n_cells=3, n_coop=2, k_elements=70)
    base = energy_efficiency(scn, "ec", _agg([1.0, 2.0, 0.5], 1.5))
    doubled = energy_efficiency(scn, "ec", _agg([2.0, 4.0, 1.0], 3.0))
    assert doubled == pytest.approx(2.0 * base)
    assert energy_efficiency(scn, "ec", _agg([0.0, 0.0, 0.0], 0.0)) == 0.0


def test_energy_efficiency_decreasing_in_power_overheads():
    scn = replace(EE_SCN, n_cells=2, n_coop=1, k_elements=10)
    agg = _agg([1.0, 1.0], 1.0)
    lo = energy_efficiency(scn, "ec", agg)
    hi_pq = replace(scn, static_power_dbm=10.0 * math.log10(2.0) + 30.0)
    hi_pele = replace(scn, element_power_dbm=10.0 * math.log10(6.32))
    assert energy_efficiency(hi_pq, "ec", agg) < lo
    assert energy_efficiency(hi_pele, "ec", agg) < lo


def test_coop_structure_validation():
    # The cooperative set (the first n_coop cells) is checked by the
    # scenario; what simulate_network itself refuses is an unknown mode.
    with pytest.raises(ValueError, match="unknown network mode 'bogus'"):
        simulate_network(SMALL, [(SMALL, "bogus", None)], n=10, seed=0)


def test_network_modes_coincide_at_full_cooperation():
    scn = replace(SMALL, n_coop=SMALL.n_cells)
    (eo, eo_oma), (ec, ec_oma) = simulate_network(
        scn, [(scn, "eo", None), (scn, "ec", None)], n=200, seed=1)
    for a, b in ((eo, ec), (eo_oma, ec_oma)):
        assert a.edge_rate == b.edge_rate and a.edge_outage == b.edge_outage
        assert np.array_equal(a.center_rates, b.center_rates)
        assert np.array_equal(a.center_outage, b.center_outage)


def test_split_mode_matches_phase_oracle():
    # The split engine's on-axis shortcut |h| - S_co + S_eo must equal the
    # channel magnitude under explicit element phases: the first ceil(split*K)
    # elements anti-phased (EC), the rest co-phased (EO).
    scn = MultiCellScenario(n_cells=1, n_coop=1, k_elements=72)
    p, s2, zf = scn.tx_power_w, scn.noise_w, scn.zeta_edge
    k = scn.k_elements
    rng = substream(2, 2)
    c = math.sqrt(s2 / p)  # keeps p*|h|^2 near the noise floor
    h = c * complex(sample_rayleigh(rng))
    h_ru = sample_rayleigh(rng, k) / math.sqrt(k)
    h_br = c * sample_rayleigh(rng, k)
    casc = (np.conj(h_ru) * h_br)[None, None, :]
    eo, ec = eo_phases(h, h_ru, h_br), ec_phases(h, h_ru, h_br)
    for split in (0.0, 0.25, 0.5, 1.0):
        n_co = math.ceil(split * k)
        theta = PhaseMatrix(np.ones(k), np.concatenate([ec[:n_co], eo[n_co:]]))
        g = abs(effective_channel(h, h_ru, theta, h_br)) ** 2
        edge = _split_edge_sinr(scn, np.array([[h]]), casc, np.array([1], dtype=np.uint8),
                                split)
        assert edge[0] == pytest.approx(zf * p * g / ((1 - zf) * p * g + s2), rel=1e-9)


def test_split_applies_to_non_cooperative_cells():
    # With J < I the split replaces every cell's RIS assignment: the
    # non-cooperative cells' edge gains, which enter the edge SINR as
    # interference, are the split amplitude (|h| - S_co + S_eo)^2 too.
    scn = MultiCellScenario(n_cells=3, n_coop=1, k_elements=8)
    p, s2, zf = scn.tx_power_w, scn.noise_w, scn.zeta_edge
    rng = substream(3, 3)
    c = math.sqrt(s2 / p)
    m, cells, k = 50, scn.n_cells, scn.k_elements
    ed = c * sample_rayleigh(rng, (m, cells))
    casc = (c / k) * sample_rayleigh(rng, (m, cells, k))
    coop = np.array([1, 0, 0], dtype=np.uint8)
    split = 0.5
    edge = _split_edge_sinr(scn, ed, casc, coop, split)
    n_co = math.ceil(split * k)
    mag = np.abs(casc)
    g = (np.abs(ed) - mag[:, :, :n_co].sum(axis=2) + mag[:, :, n_co:].sum(axis=2)) ** 2
    ici = p * (g[:, 1] + g[:, 2])
    assert np.allclose(edge, zf * p * g[:, 0] / ((1 - zf) * p * g[:, 0] + ici + s2),
                       rtol=1e-12, atol=0)
    # Non-cooperative cells keeping the "ec" mode would give other gains.
    g_ec = (np.abs(ed) - mag.sum(axis=2)) ** 2
    ici_ec = p * (g_ec[:, 1] + g_ec[:, 2])
    assert not np.allclose(edge, zf * p * g[:, 0] / ((1 - zf) * p * g[:, 0] + ici_ec + s2),
                           rtol=1e-6, atol=0)


@pytest.mark.parametrize("k", [8, 70])
def test_edge_gain_increments_match_the_exact_means(k):
    # Each RIS setting's per-trial increment over "off", g_setting - g_off,
    # on the engine's draws (a chunk's stream, as simulate_network lays it
    # out), against the exact means (oracles), in SE units of the sample
    # mean; the increment is much sharper than the raw mean, whose spread
    # the direct link dominates. A breach is a finding about the engine.
    scn, n_chunks = replace(SCN, k_elements=k), 4
    n_cos = sorted({0, k // 3, k})
    exact = exact_edge_gain_means(scn, n_cos)
    mi = CHUNK * scn.n_cells
    incs = {s: [] for s in ["random", *n_cos]}
    for c in range(n_chunks):
        rng = substream(11, riscomp.energy._STREAM_MC, c)
        stream = rng.standard_normal(2 * mi + 4 * mi * k)
        ed = (stream[:mi] + 1j * stream[mi:2 * mi]).reshape(CHUNK, scn.n_cells)
        ed *= math.sqrt(0.5 * scn.gain(scn.d_edge, scn.alpha_edge))
        kinds = {s: r for r, s in enumerate(["off", *incs])}
        gains = dict(zip(kinds, riscomp.energy._edge_gains(scn, ed, stream[2 * mi:], rng, k,
                                                           kinds)))
        for s, parts in incs.items():
            parts.append(gains[s] - gains["off"])
    for s, parts in incs.items():
        x = np.concatenate(parts).ravel()
        want = exact[s] - exact["off"]
        z = (x.mean() - want) / (x.std(ddof=1) / math.sqrt(x.size))
        assert abs(z) <= 4.5, (s, float(x.mean()), want, float(z))


@pytest.mark.parametrize("k", [0, 8])
def test_oma_center_outage_matches_the_exact_law(k):
    # Every cell's OMA center outage, and each non-cooperative cell's NOMA
    # one, against the closed forms, in binomial SE units of the exact p; a
    # breach is a finding about the engine. The NOMA outage is checked where
    # the own message binds (the default targets), where the SIC stage does
    # (r_edge_min = 1.5) and where the SIC stage always fails (r_edge_min =
    # 2: zeta <= t_f (1 - zeta)), all on the same draws.
    scn, n = replace(SCN, k_elements=k), 40_000
    scns = [replace(scn, r_edge_min=r) for r in (0.5, 1.5, 2.0)]
    aggs = simulate_network(scn, [(s, "ec", None) for s in scns], n=n, seed=3)
    p = exact_oma_center_outage(scn)
    got = aggs[0][1].center_outage
    z = (got - p) / math.sqrt(p * (1.0 - p) / n)
    assert np.all(np.abs(z) <= 4.5), (p, got.tolist(), z.tolist())
    for s, (noma, _) in zip(scns, aggs):
        p = exact_noma_noncoop_center_outage(s)
        got = noma.center_outage[s.n_coop:]
        if p == 1.0:
            assert np.all(got == 1.0), got.tolist()
            continue
        z = (got - p) / math.sqrt(p * (1.0 - p) / n)
        assert np.all(np.abs(z) <= 4.5), (s.r_edge_min, p, got.tolist(), z.tolist())


def test_simulate_network_deterministic():
    a = _one(SCN, "ec", n=1000, seed=4)
    b = _one(SCN, "ec", n=1000, seed=4)
    assert a.edge_rate == b.edge_rate
    assert np.array_equal(a.center_rates, b.center_rates)


def test_eo_ec_identical_at_full_cooperation():
    scn = replace(SCN, n_coop=SCN.n_cells)
    eo = _one(scn, "eo", n=1000, seed=5)
    ec = _one(scn, "ec", n=1000, seed=5)
    assert eo.edge_rate == ec.edge_rate
    assert eo.outage_sum_rate == ec.outage_sum_rate


def test_ec_not_worse_than_eo():
    for j in (1, 3, 5):
        scn = replace(SCN, n_coop=j)
        eo = _one(scn, "eo", n=4000, seed=6)
        ec = _one(scn, "ec", n=4000, seed=6)
        assert ec.outage_sum_rate >= eo.outage_sum_rate


def test_osum_monotone_in_power_per_seed():
    [(_, rows)] = _outputs({"kind": "osum-sweep", "trials": 1500, "seed": 7,
                            "sweep.p_t_dbm": [-10, 0, 10, 20]}).values()
    by_mode = {}
    for p_t, mode, osr in rows:
        by_mode.setdefault(mode, []).append((p_t, osr))
    assert list(by_mode) == [*(f"noma-{mode}" for mode in MODES), "oma-ec"]
    for mode, vals in by_mode.items():
        vals.sort()
        osr = [v for _, v in vals]
        assert all(b >= a - 1e-12 for a, b in zip(osr, osr[1:])), mode


def test_ee_sweep_axes():
    # One threshold r sets both users' rate targets; every mode is scored.
    out = _outputs({"kind": "ee-sweep", "trials": 500, "seed": 8,
                    "sweep.r_th_values": [0.5, 1.0]})
    [(_, rows)] = out.values()
    assert list(out) == ["ee_sweep_r_th.csv"]
    points = [(replace(SCN, r_center_min=r, r_edge_min=r), mode, None)
              for r in (0.5, 1.0) for mode in MODES]
    aggs = simulate_network(SCN, points, n=500, seed=8)
    assert [row[:3] for row in rows] == [("R_th", r, mode) for r in (0.5, 1.0) for mode in MODES]
    assert [row[3] for row in rows] == [energy_efficiency(scn, mode, noma)
                                        for (scn, mode, _), (noma, _) in zip(points, aggs)]
    assert all(row[3] > 0 for row in rows if row[2] == "ec")
    with pytest.raises(ConfigError, match="unknown sweep key 'bogus'"):
        from_mapping({"kind": "ee-sweep", "sweep.bogus": [1]})


def test_split_sweep_runs():
    [(_, rows)] = _outputs({"kind": "split-sweep", "trials": 500, "seed": 9,
                            "sweep.splits": [0.0, 1.0], "sweep.j_values": [1, 6]}).values()
    # J-major: each cooperative set size over every split.
    assert [(j, split) for split, j, _ in rows] == [(1, 0.0), (1, 1.0), (6, 0.0), (6, 1.0)]
    # Full cooperation loses sum rate as cancellation elements grow.
    full = {split: osr for split, j, osr in rows if j == 6}
    assert full[0.0] > full[1.0]


def test_split_sweep_with_no_elements():
    # An empty element axis: every split anti-phases 0 of 0 elements, so each
    # J's rows are bitwise its "ec" point's, whose sums are empty too.
    flat = {**SMALL_KEYS, "kind": "split-sweep", "trials": 300, "seed": 4,
            "scenario.k_elements": 0}
    [(_, rows)] = _outputs(flat).values()
    assert [j for _, j, _ in rows] == [1] * 5 + [3] * 5
    scn = replace(SMALL, k_elements=0)
    for _, j, osr in rows:
        assert osr == _one(replace(scn, n_coop=j), "ec", n=300, seed=4).outage_sum_rate, j


def test_runs_that_set_j_at_every_point_take_fewer_cells_than_the_default_j():
    # I = 3 cells, below the base scenario's default J = 4, which no point of
    # these runs reads: a split-sweep takes its J default [1, 3] and an
    # ee-sweep over J its own values, each writing what it writes under any
    # valid base J.
    base = {"trials": 300, "seed": 4, "scenario.n_cells": 3, "scenario.k_elements": 8}
    split = {**base, "kind": "split-sweep"}
    [(_, rows)] = _outputs(split).values()
    assert [j for _, j, _ in rows] == [1] * 5 + [3] * 5
    ee = {**base, "kind": "ee-sweep", "sweep.j_values": [1, 2]}
    [(_, ee_rows)] = _outputs(ee).values()
    assert [row[1] for row in ee_rows] == [j for j in (1, 2) for _ in MODES]
    for flat in (split, ee):
        assert _outputs(flat) == _outputs({**flat, "scenario.n_coop": 2})


def _count_mc_draws(monkeypatch):
    labels = []

    def counting(seed, *key):
        labels.append(key[0])
        return substream(seed, *key)

    monkeypatch.setattr(riscomp.energy, "substream", counting)
    return lambda: labels.count(riscomp.energy._STREAM_MC)


def test_sweeps_draw_each_chunk_once(monkeypatch):
    draws = _count_mc_draws(monkeypatch)
    base = {**SMALL_KEYS, "trials": CHUNK + 1, "seed": 3}
    _outputs({**base, "kind": "osum-sweep", "sweep.p_t_dbm": [-10, 0, 10, 20]})
    assert draws() == 2
    # Every K reads its prefix of one stream per chunk: one call, one pass.
    _outputs({**base, "kind": "ee-sweep", "sweep.k_values": [4, 8]})
    assert draws() == 2 + 2
    _outputs({**base, "kind": "split-sweep", "sweep.splits": [0.0, 0.5, 1.0]})
    assert draws() == 2 + 2 + 2


def test_ee_sweep_of_several_axes_is_one_pass(monkeypatch, tmp_path):
    # Every sweep of an ee-sweep run shares one simulate_network call, so
    # each chunk is drawn once, and each sweep's CSV is byte for byte that
    # of a run of that axis alone.
    axes = {"sweep.j_values": [1, 3], "sweep.k_values": [4, 8], "sweep.r_th_values": [0.5, 2.0]}
    base = {**SMALL_KEYS, "kind": "ee-sweep", "trials": CHUNK + 1, "seed": 3}
    draws = _count_mc_draws(monkeypatch)
    joint = run_experiment(from_mapping({**base, **axes, "out": str(tmp_path / "joint")}))
    assert draws() == 2
    csvs = [path for path in joint if path.suffix == ".csv"]
    assert [path.name for path in csvs] == ["ee_sweep_j.csv", "ee_sweep_k.csv",
                                            "ee_sweep_r_th.csv"]
    for path, (key, values) in zip(csvs, axes.items()):
        alone = from_mapping({**base, key: values, "out": str(tmp_path / key)})
        [_, single] = run_experiment(alone)
        assert single.read_bytes() == path.read_bytes(), key


def test_mixed_points_equal_single_point_calls():
    # One call over many points shares the draws, and center sums between
    # points of one center key and thresholds, but no other accumulator:
    # every point's aggregates are bitwise those of its own single-point call.
    points = [
        (replace(SMALL, p_t_dbm=p_t, n_coop=j), mode, None)
        for p_t, j in ((0.0, 1), (10.0, 2), (-5.0, 3)) for mode in MODES
    ]
    points += [(replace(SMALL, n_coop=j), "ec", split)
               for j, split in ((1, 0.25), (3, 0.75))]
    base = replace(SMALL, p_t_dbm=0.0, n_coop=1)
    # The center key of the (0 dBm, J = 1) points under a split, and under
    # other thresholds or another zeta_edge alone: a sharing key too coarse
    # to tell these apart would hand them the base points' center sums.
    variants = [(base, "ec", 0.5), (base, "random", 0.5),
                (replace(base, r_center_min=3.0), "ec", None),
                (replace(base, r_edge_min=2.0), "ec", None),
                (replace(base, r_center_min=3.0), "eo", None),
                (replace(base, zeta_edge=0.9), "ec", None)]
    points += variants
    joint = simulate_network(SMALL, points, n=CHUNK + 1, seed=11)
    assert len(joint) == len(points)
    for point, pair in zip(points, joint):
        single = simulate_network(SMALL, [point], n=CHUNK + 1, seed=11)[0]
        for scheme, agg, one in zip(("noma", "oma"), pair, single):
            for field in ("edge_rate", "edge_outage"):
                assert getattr(agg, field) == getattr(one, field), (point, scheme, field)
            for field in ("center_rates", "center_outage"):
                assert np.array_equal(getattr(agg, field), getattr(one, field)), (
                    point, scheme, field)
    # Each threshold or zeta_edge variant has center outages of its own,
    # which a too-coarse key would overwrite with the base points' (the mode
    # does not enter them).
    base_outage = joint[points.index((base, "ec", None))][0].center_outage
    for point in variants[2:]:
        noma = joint[points.index(point)][0]
        assert not np.array_equal(noma.center_outage, base_outage), point


def test_mixed_k_points_equal_per_k_oracle():
    # One call over points of several K, whose trial blocks split each chunk
    # unevenly, gives bitwise the aggregates of drawing every K afresh.
    points = []
    for k in (33, 1, 8, 5):
        points += [(replace(SMALL, k_elements=k, n_coop=j, p_t_dbm=5.0), mode, None)
                   for j, mode in ((1, "no-ris"), (2, "random"), (2, "eo"), (1, "ec"))]
        points += [(replace(SMALL, k_elements=k, n_coop=j), "ec", split)
                   for j, split in ((2, 0.3), (3, 0.75))]
    joint = simulate_network(SMALL, points, n=CHUNK + 1, seed=11)
    for k in (1, 5, 8, 33):
        idx = [i for i, (scn_v, _, _) in enumerate(points) if scn_v.k_elements == k]
        oracle = reference_simulate_network(replace(SMALL, k_elements=k),
                                            [points[i] for i in idx], n=CHUNK + 1, seed=11)
        for i, pair in zip(idx, oracle):
            for agg, ref in zip(joint[i], pair):
                for field in ("center_rates", "center_outage", "edge_rate", "edge_outage"):
                    assert np.array_equal(getattr(agg, field), getattr(ref, field)), (
                        points[i][1:], k, field)


def test_blocks_equal_single_point_calls_and_the_oracle(monkeypatch):
    # One chunk of n = 2000 trials, well above 256, where a block's trial
    # sums would run in another order were its arrays not C-ordered. Per J,
    # a power x rate-target grid in every mode and a split point, 25 points
    # over 3 center keys, of which the 0 dBm key holds a third rate-target
    # pair (the split's): blocks of 16 points and of 2 keys, so each group
    # spans two blocks of each.
    n = 2000
    assert riscomp.energy._BLOCK // n == 16
    assert riscomp.energy._BLOCK // (2 * n * SMALL.n_cells) == 2
    points = [(replace(SMALL, n_coop=j, p_t_dbm=p_t, r_center_min=r, r_edge_min=r), mode, None)
              for j in (1, 3) for p_t in (-5.0, 0.0, 10.0) for r in (0.5, 1.5) for mode in MODES]
    points += [(replace(SMALL, n_coop=1), "ec", 0.25), (replace(SMALL, n_coop=3), "ec", 0.75)]
    calls = []
    for name in ("multicell_edge_sinr", "multicell_center_sinr"):
        def counted(*args, _name=name, _kernel=getattr(kernels, name)):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    joint = simulate_network(SMALL, points, n=n, seed=13)
    # Per J group, one kernel call per block: none per point or per key.
    assert sorted(calls) == ["multicell_center_sinr"] * 4 + ["multicell_edge_sinr"] * 4
    monkeypatch.undo()
    oracle = reference_simulate_network(SMALL, points, n=n, seed=13)
    for point, pair, ref in zip(points, joint, oracle):
        single = simulate_network(SMALL, [point], n=n, seed=13)[0]
        for agg, one, want in zip(pair, single, ref):
            for field in ("center_rates", "center_outage", "edge_rate", "edge_outage"):
                got = getattr(agg, field)
                assert np.array_equal(got, getattr(one, field)), (point[1:], field)
                assert np.array_equal(got, getattr(want, field)), (point[1:], field)


@pytest.mark.parametrize("override", [{"d_edge": 120.0},
                                      {"kappa_db": 6.0}, {"alpha_ici": 3.5}])
def test_point_with_other_draw_fields_rejected(override):
    points = [(SMALL, "ec", None), (replace(SMALL, **override), "ec", None)]
    with pytest.raises(ValueError, match=next(iter(override))):
        simulate_network(SMALL, points, n=10, seed=0)


_FIG45_GRID = ([-10.0, -5.0, 0.0, 5.0, 10.0],
               [{"r_center_min": r, "r_edge_min": r} for r in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)])


@pytest.mark.parametrize("cells, k, n, splits, grid", [
    pytest.param(6, 70, 4096, [0.5], None, id="6-70-4096"),
    pytest.param(12, 40, 2000, [0.5], None, id="12-40-2000"),
    # 201 splits, 71 distinct element counts ceil(split K) at K = 70.
    pytest.param(6, 70, 4096, [i / 200 for i in range(201)], None, id="6-70-4096-201-splits"),
    # fig4.5's 30 power x rate-target points in 4 modes, in full scoring
    # blocks; at K = 0 and 256 trials its 120-point block sets the peak.
    pytest.param(6, 70, 4096, [], _FIG45_GRID, id="6-70-4096-fig4.5-grid"),
    pytest.param(6, 0, 256, [], _FIG45_GRID, id="6-0-256-fig4.5-grid"),
])
def test_chunk_bytes_bounds_the_traced_peak(cells, k, n, splits, grid):
    # chunk_bytes is what validate holds against the memory budget, so it
    # must bound what one call holds: the normal stream, the center gains,
    # the per-cell arrays and a trial or scoring block, under every mode and
    # each split.
    scn = MultiCellScenario(n_cells=cells, k_elements=k)
    powers, targets = grid or ([0.0, 10.0], [{}])
    points = [(replace(scn, p_t_dbm=p_t, **r), mode, None)
              for r in targets for p_t in powers for mode in MODES]
    points += [(scn, "ec", split) for split in splits]
    tracemalloc.start()
    try:
        simulate_network(scn, points, n=n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= chunk_bytes(cells, k, n, len(splits))


def test_unreachable_rate_target_is_full_outage():
    """R_edge = 600 under OMA's half slot needs an SINR of 2^1200 - 1, beyond
    the float range: every trial is in edge outage, as at any target no
    SINR reaches. Under NOMA the threshold 2^600 - 1 is finite."""
    scn = replace(SMALL, r_edge_min=600.0)
    [(noma, oma)] = simulate_network(scn, [(scn, "ec", None)], n=64, seed=2)
    assert oma.edge_outage == 1.0
    assert noma.edge_outage == 1.0
    [(ref_noma, ref_oma)] = simulate_network(SMALL, [(SMALL, "ec", None)], n=64, seed=2)
    assert oma.edge_rate == ref_oma.edge_rate
    assert np.array_equal(oma.center_outage, ref_oma.center_outage)
