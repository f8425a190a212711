"""The process whose wall time is one setup_s sample: import riscomp from the
source tree, build and validate one workload's configs, exit.

    python3 perfbench/setup_probe.py <workload> <workload seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports riscomp)

workloads.configs(sys.argv[1], int(sys.argv[2]), ROOT / ".perfbench_runs" / "setup")
