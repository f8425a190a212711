#!/usr/bin/env python3
"""riscomp benchmark: figure-preset workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload mc-crn-sweep --seed 3 --seconds 25 --trace 0

Run from the root of a source tree (it imports riscomp from ./src). One run
is one process and one workload (see workloads.py). It repeats the
workload's presets through riscomp's public API until --seconds have passed,
checks every CSV of every repetition against the committed reference in
perfbench/reference/ (tolerance in checks.py), and prints, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  wall_s       median over repetitions of the time from the first call into
               run_experiment until the last CSV is written
  setup_s      median over SETUP_PROBES fresh processes, spread over the
               run, of the time from process start through `import
               riscomp`, preset load and config validation
  peak_rss_mb  ru_maxrss of this process
Each wall_s and setup_s sample is scaled to a reference machine speed,
measured just before it (calibration.py); the raw medians are printed and
recorded beside them.
fail_frac (checks failed / checks attempted) is the JSON's failed/attempted
and is printed with the other metrics.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of spans.py (medians of times over traced repetitions;
counts must repeat exactly), the tracing overhead, and the share of the
traced wall time its top-level spans cover, which must reach COVERAGE_MIN.

Each run also writes a self-describing record (git sha, source digest,
nproc, Python, numpy, BLAS and its threads, numba availability, every
sample) to .perfbench_runs/; traced runs write one repetition's spans there.
BLAS runs single-threaded (workloads.py).
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import reference_work, scaled
from checks import compare_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
REFERENCE = HERE / "reference"

SETUP_PROBES = 9
COVERAGE_MIN = 0.98
CHILD_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Reported by traced runs beside spans.LAYER_METRICS.
TRACE_METRICS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                 "trace.overhead_s": "s", "trace.coverage": "ratio",
                 "check.csv_identical_frac": "ratio"}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "riscomp").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Threads of the loaded OpenBLAS, asked of the library itself when it
    exports a getter; otherwise the OPENBLAS_NUM_THREADS workloads.py set."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter(), symbol
    return int(os.environ["OPENBLAS_NUM_THREADS"]), "OPENBLAS_NUM_THREADS"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = _blas_threads()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_from": source,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that imports riscomp and builds and
    validates the workload's configs, raw and scaled."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    reference = reference_work()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return elapsed, scaled(elapsed, reference)


class Checker:
    """Compares each repetition's CSVs with the reference of one seed."""

    def __init__(self, refdir: Path, outdir: Path):
        self.outdir = outdir
        self.reference = {
            p.relative_to(refdir).as_posix(): p.read_text()
            for p in sorted(refdir.rglob("*.csv"))
        }
        self.attempted = self.failed = 0
        self.csvs = self.identical = 0  # CSV checks, and those byte-identical
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str = "", checks: int = 1):
        self.attempted += checks
        if not ok:
            self.failed += checks
            self.problems.append(problem)

    def fail_repetition(self, problem: str):
        self.csvs += len(self.reference)
        self.record(False, problem, checks=len(self.reference))

    def check(self, csvs: list[Path]):
        produced = {p.relative_to(self.outdir).as_posix(): p for p in csvs}
        for name in sorted(set(produced) - set(self.reference)):
            self.record(False, f"{name}: no reference")
        for name, ref in self.reference.items():
            self.csvs += 1
            if name not in produced:
                self.record(False, f"{name}: not written")
                continue
            text = produced[name].read_text()
            if text == ref:
                self.identical += 1
                self.record(True)
                continue
            problem = compare_csv(text, ref)
            self.record(problem is None, f"{name}: {problem}")


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n <= 10:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def write_spans(path: Path, spans_list):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "name", "start_ns", "end_ns", "parent"])
        for i, (name, start, end, parent) in enumerate(spans_list):
            w.writerow([i, name, start, end, parent])


def main(argv=None) -> int:
    if not (SRC / "riscomp" / "__init__.py").is_file():
        return _fail(f"no riscomp sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import riscomp
    import spans
    import workloads

    if Path(riscomp.__file__).resolve().parent != (SRC / "riscomp").resolve():
        return _fail(f"imported riscomp from {riscomp.__file__}, not from {SRC}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    seed = workloads.workload_seed(args.seed)
    refdir = REFERENCE / args.workload / f"seed{seed:02d}"
    if not refdir.is_dir():
        return _fail(f"no reference outputs in {refdir}")

    env = environment()
    setup = []
    if not args.trace:
        setup_probe(args.workload, seed)  # not counted: it may compile bytecode
    outdir = RUNS / args.workload
    checker = Checker(refdir, outdir)
    tracer = spans.Tracer() if args.trace else None
    walls, raw_walls, traced_walls, layer_reps, coverages = [], [], [], [], []
    first_spans = None

    start = time.perf_counter()
    rep = 0
    while rep < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
        # Setup probes are spread over the run, so that they and the
        # repetitions sample the same stretch of machine load.
        due = 1 + int((time.perf_counter() - start) * SETUP_PROBES / args.seconds)
        while not args.trace and len(setup) < min(due, SETUP_PROBES):
            setup.append(setup_probe(args.workload, seed))
        traced = bool(args.trace) and rep % 2 == 1
        rep += 1
        shutil.rmtree(outdir, ignore_errors=True)
        gc.collect()
        if traced:
            tracer.install()
        else:
            reference = reference_work()
        try:
            cfgs = workloads.configs(args.workload, seed, outdir)
            t0, t1, csvs = workloads.run(cfgs)
        except Exception as exc:  # a failed repetition fails every check it skips
            checker.fail_repetition(f"repetition {rep} raised {exc!r}")
            continue
        finally:
            if traced:
                tracer.uninstall()
        wall = (t1 - t0) * 1e-9
        checker.check(csvs)
        if not traced:
            raw_walls.append(wall)
            walls.append(scaled(wall, reference))
            continue
        traced_walls.append(wall)
        layer_reps.append(spans.layer_metrics(tracer))
        coverages.append(spans.coverage(tracer.spans, t0, t1))
        if first_spans is None:
            first_spans = tracer.spans
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload, seed))
    elapsed = time.perf_counter() - start

    record = {"workload": args.workload, "seed": args.seed, "workload_seed": seed,
              "trace": args.trace, "seconds": args.seconds, "repetitions": rep,
              "environment": env, "wall_s_samples": walls, "raw_wall_s_samples": raw_walls}
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} (workload seed {seed}) "
          f"trace {args.trace}: {rep} repetitions in {elapsed:.1f} s")
    if not walls or (args.trace and not traced_walls):
        return _fail("a repetition failed: " + "; ".join(checker.problems[:3]))

    if args.trace:
        metrics, unsteady = spans.combine(layer_reps)
        checker.record(not unsteady, f"counts differ between traced repetitions: {unsteady}")
        for c in coverages:
            checker.record(c >= COVERAGE_MIN, f"top-level spans cover {c:.4f} of the "
                           f"traced wall time, below {COVERAGE_MIN}")
        units = {**spans.LAYER_METRICS, **TRACE_METRICS}
        untraced = statistics.median(raw_walls)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        metrics["trace.coverage"] = min(coverages)
        metrics["check.csv_identical_frac"] = checker.identical / checker.csvs
        shares = sorted(((metrics[f"{layer}.self_s"], layer) for layer in spans.LAYERS),
                        reverse=True)
        print("self time by layer (traced, median repetition): " + ", ".join(
            f"{layer} {s / metrics['trace.wall_s']:.1%}" for s, layer in shares if s > 0))
        print(f"tracing overhead {metrics['trace.overhead_s']:+.4f} s on an untraced "
              f"wall_s of {untraced:.4f} s; spans cover >= {min(coverages):.4f}")
        RUNS.mkdir(exist_ok=True)
        write_spans(RUNS / f"{args.workload}-seed{args.seed}-spans.csv", first_spans)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s for _, s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record["setup_s_samples"] = [s for _, s in setup]
        record["raw_setup_s_samples"] = [raw for raw, _ in setup]
        pct = tail(walls)
        tail_text = (f"p{pct[0]} {pct[1]:.4f} s, 10 samples beyond" if pct
                     else "too few samples for a percentile with 10 beyond")
        print(f"wall_s {metrics['wall_s']:.4f} s at reference speed (median of "
              f"{len(walls)}; {tail_text}); raw median "
              f"{statistics.median(raw_walls):.4f} s")
        print(f"setup_s {metrics['setup_s']:.4f} s at reference speed (median of "
              f"{len(setup)} processes); raw median "
              f"{statistics.median(raw for raw, _ in setup):.4f} s")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    fail_frac = checker.failed / checker.attempted
    print(f"fail_frac {fail_frac:.4g} ratio ({checker.failed} of {checker.attempted} "
          f"checks failed); CSVs byte-identical to the reference: "
          f"{checker.identical} of {checker.csvs}")
    for problem in checker.problems[:10]:
        print(f"check failed: {problem}")

    record.update({"metrics": metrics, "units": units, "fail_frac": fail_frac,
                   "csv_identical": checker.identical, "problems": checker.problems})
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
