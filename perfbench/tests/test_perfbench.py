"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import riscomp.energy  # noqa: E402
import riscomp.special  # noqa: E402
import riscomp.stats  # noqa: E402
from riscomp.scenarios import MultiCellScenario  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [20, 30].
    tree = [("root", 0, 100, -1), ("a", 10, 40, 0), ("c", 20, 30, 1), ("b", 50, 90, 0)]
    got = spans.self_times(tree)
    assert got == pytest.approx([30e-9, 20e-9, 10e-9, 40e-9], abs=1e-15)
    # Self times of a tree add up to its root's duration.
    assert sum(got) == pytest.approx(100e-9, abs=1e-15)


def test_coverage_counts_top_level_spans_inside_the_window():
    tree = [("run", 0, 40, -1), ("inner", 5, 10, 0), ("run", 50, 120, -1)]
    assert spans.coverage(tree, 0, 100) == pytest.approx(0.9)


def test_draws_per_distinct_chunk_on_a_synthetic_log():
    # 7 points x 4 modes redrawing one chunk at one K: 28 draws of one key.
    assert spans.draws_per_distinct_chunk([(1, (0,), 70)] * 28) == 28.0
    # The same draws spread over 7 K values: 4 draws per key.
    log = [(1, (0,), k) for k in range(30, 170, 20) for _ in range(4)]
    assert spans.draws_per_distinct_chunk(log) == 4.0
    # Two chunks, each drawn once.
    assert spans.draws_per_distinct_chunk([(1, (0,), 70), (1, (1,), 70)]) == 1.0
    assert spans.draws_per_distinct_chunk([]) == 0.0


def test_tracer_logs_multicell_draws_by_chunk_and_k():
    scn = MultiCellScenario(n_coop=2, k_elements=8, n_cells=3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        riscomp.energy.osum_sweep(scn, [0.0, 5.0], n=8, seed=4)
        riscomp.energy.ee_sweep(scn, "K", [4, 8], n=8, seed=4)
    finally:
        tracer.uninstall()
    # osum: 2 powers x 4 modes on one key; ee over K: 4 modes on each of 2 keys.
    assert tracer.draw_log.count((4, (0,), 8)) == 8 + 4
    assert tracer.draw_log.count((4, (0,), 4)) == 4
    assert spans.draws_per_distinct_chunk(tracer.draw_log) == 16 / 2


def test_uninstall_restores_every_binding():
    original = riscomp.special.betainc_reg
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Wrapped under the name stats looks it up by, too.
        assert riscomp.stats.betainc_reg is riscomp.special.betainc_reg
        assert riscomp.stats.betainc_reg is not original
        riscomp.stats.BetaPrimeParams(2.0, 3.0, 1.0).cdf(0.5)
    finally:
        tracer.uninstall()
    assert riscomp.special.betainc_reg is original
    assert riscomp.stats.betainc_reg is original
    names = [name for name, *_ in tracer.spans]
    assert names == ["stats.BetaPrimeParams.cdf", "special.betainc_reg", "special.betaln"]
    assert [parent for *_, parent in tracer.spans] == [-1, 0, 1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_traced_runs_give_equal_counts(workload, tmp_path):
    results = []
    for attempt in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            cfgs = workloads.configs(workload, 3, tmp_path / str(attempt))
            workloads.run(cfgs)
        finally:
            tracer.uninstall()
        results.append(spans.layer_metrics(tracer))
    counts = [{k: v for k, v in r.items() if k not in spans.TIMED} for r in results]
    assert counts[0] == counts[1]
    assert set(results[0]) == set(spans.LAYER_METRICS)
    assert counts[0]["experiments.csv.bytes"] > 0


def test_compare_csv_tolerance():
    ref = "p,mode,value\n0,eo,1.2345678901234567\n5,ec,nan\n"
    assert checks.compare_csv(ref, ref) is None
    assert checks.compare_csv(ref.replace("567\n", "566\n"), ref) is None
    assert "beyond tolerance" in checks.compare_csv(ref.replace("1.23456789", "1.23456"), ref)
    assert checks.compare_csv(ref.replace("mode", "modes"), ref) is not None
    assert checks.compare_csv(ref.replace("eo", "ec"), ref) is not None
    assert checks.compare_csv(ref.replace("nan", "0.5"), ref) is not None
    assert checks.compare_csv(ref + "10,eo,1.0\n", ref) is not None


def test_reference_outputs_cover_every_workload_and_seed():
    for workload, presets in workloads.WORKLOADS.items():
        for seed in range(workloads.N_REFERENCE_SEEDS):
            refdir = run.REFERENCE / workload / f"seed{seed:02d}"
            found = {p.relative_to(refdir).parts[0] for p in refdir.rglob("*.csv")}
            assert found == {preset for preset, _ in presets}, refdir
    assert workloads.workload_seed(-1) == workloads.N_REFERENCE_SEEDS - 1


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **spans.LAYER_METRICS, **run.TRACE_METRICS}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_importing_the_runner_does_not_load_numpy():
    # workloads.py pins BLAS to one thread; that only works before numpy loads.
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run, calibration, checks; "
            "sys.exit('numpy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], cwd=ROOT).returncode == 0
