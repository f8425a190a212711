"""The benchmark's workloads: figure presets run through the public API.

Each workload keeps the sweep shape of its presets (axes, points, modes, K
values, episodes per update); only the trial and episode counts are set
here, and they are the run length of one repetition. The workload seed
replaces the preset's seed.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

# Single-threaded BLAS, set before riscomp loads numpy: outputs and timings
# must not depend on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import riscomp.config  # noqa: E402
import riscomp.experiments  # noqa: E402

WORKLOADS = {
    # fig4.3: osum-sweep, I=6, J=4, K=70, 7 powers x 4 modes plus OMA; the 28
    # simulate_network calls redraw the same common-random-number chunks.
    "mc-crn-sweep": (("fig4.3", {"trials": 256}),),
    # fig4.4: ee-sweep over K in 30..150 at J=4; draws change with K, so only
    # the 4 modes of one point could share them, and K=150 sets the memory.
    "mc-k-sweep": (("fig4.4", {"trials": 256}),),
    # fig3.2, fig3.3, fig3.5: the closed-form path (KS, quadrature, special
    # functions) and the coordinated trial engine; never enters energy,
    # aerial or moppo.
    "coord-validate": (
        ("fig3.2", {"trials": 2000}),
        ("fig3.3", {"trials": 20000}),
        ("fig3.5", {}),
    ),
    # fig5.2-tiny: MO-PPO on the tiny aerial scenario, K=4, T=40, 6 episodes
    # per update; the only workload for aerial and moppo.
    "drl-tiny": (("fig5.2-tiny", {"train.episodes": 18}),),
}

# Committed reference outputs exist for workload seeds 0..N_REFERENCE_SEEDS-1;
# the benchmark's --seed selects one of them.
N_REFERENCE_SEEDS = 16


def workload_seed(seed: int) -> int:
    return seed % N_REFERENCE_SEEDS


def configs(workload: str, seed: int, outdir: Path) -> list:
    """Validated configs of one repetition, each writing under outdir/<preset>."""
    out = []
    for preset, overrides in WORKLOADS[workload]:
        flat = dict(riscomp.experiments.PRESETS[preset])
        flat.update(overrides)
        flat["seed"] = seed
        flat["out"] = str(outdir / preset)
        out.append(riscomp.config.from_mapping(flat))
    return out


def run(cfgs) -> tuple[int, int, list[Path]]:
    """Run the configs in order. Returns (start_ns, end_ns, CSVs written):
    the interval from the first call into run_experiment until the last
    returns, after its last CSV is written."""
    csvs = []
    t0 = time.perf_counter_ns()
    for cfg in cfgs:
        csvs.extend(p for p in riscomp.experiments.run_experiment(cfg) if p.suffix == ".csv")
    t1 = time.perf_counter_ns()
    return t0, t1, csvs
