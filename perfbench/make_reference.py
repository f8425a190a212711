#!/usr/bin/env python3
"""Regenerate the committed reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload once per workload seed 0..N_REFERENCE_SEEDS-1 and stores
its CSVs as perfbench/reference/<workload>/seed<NN>/<preset>/<file>.csv.
Regenerate only when a change to riscomp is meant to change its outputs,
and say so in that change.
"""

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports riscomp)


def main(names) -> int:
    scratch = ROOT / ".perfbench_runs" / "reference-build"
    for name in names or workloads.WORKLOADS:
        for seed in range(workloads.N_REFERENCE_SEEDS):
            shutil.rmtree(scratch, ignore_errors=True)
            _, _, csvs = workloads.run(workloads.configs(name, seed, scratch))
            dest = HERE / "reference" / name / f"seed{seed:02d}"
            shutil.rmtree(dest, ignore_errors=True)
            for path in csvs:
                target = dest / path.relative_to(scratch)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, target)
            print(f"{name} seed {seed}: {len(csvs)} CSVs")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
