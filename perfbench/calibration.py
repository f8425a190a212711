"""Machine-speed calibration for the end-to-end times.

On a shared machine the same code runs up to a third faster or slower from
one minute to the next, as other tenants' load comes and goes. run.py times
`reference_work` just before each repetition and each setup probe, and
reports `scaled(elapsed, reference)`: the elapsed time converted to a
machine on which the reference computation takes REFERENCE_WORK_S. Both
are slowed alike, so the drift cancels; the raw times are reported beside
the scaled ones. The reference mixes what riscomp's layers do (complex
numpy draws and reductions, a scalar Python loop) and does not use riscomp,
so no change to the package can change it.
"""

import time

# Typical time of reference_work on the machine the benchmark was set up on:
# a shared 2-vCPU x86-64 VM, Python 3.11, numpy 2.4, OpenBLAS, one thread.
REFERENCE_WORK_S = 0.030


def reference_work() -> float:
    """Seconds taken by the reference computation (about 30 ms)."""
    # Imported here, not at module level, so that importing this module does
    # not load numpy before workloads.py has pinned BLAS to one thread.
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(20):
        a = rng.standard_normal((64, 6, 70)) + 1j * rng.standard_normal((64, 6, 70))
        b = np.abs(a * np.conj(a[::-1])).sum(axis=2)
        acc += float(np.log2(1.0 + b).sum())
    x = 0.3
    for _ in range(20000):
        x = (x * 1.0000001 + 0.5) % 1.0
        acc += x * x
    return time.perf_counter() - t0


def scaled(elapsed: float, reference: float) -> float:
    """elapsed, measured while reference_work took `reference` seconds,
    in seconds of the machine on which it takes REFERENCE_WORK_S."""
    return elapsed * REFERENCE_WORK_S / reference
