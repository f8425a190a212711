"""Adaptive Gauss-Kronrod (G7, K15) quadrature of many integrals in lockstep.

Each integral bisects its panel with the largest embedded error estimate
until its summed estimate meets the absolute+relative target, as QUADPACK's
qag does. Each round bisects every unfinished integral's worst panel, with
all of the round's nodes in one integrand call and the K15/G7 sums as array
operations. An integral keeps its own panels, totals and stopping rule, so
its value does not depend on which integrals share the call. Callers
integrating over (0, inf) map the half line onto a finite interval first.
"""

import heapq
from typing import Callable, Sequence

import numpy as np

# K15 abscissae (symmetric: the positive half, then the center 0) and
# weights. G7 uses every other node.
_NODES = np.array([0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
                   0.586087235467691, 0.405845151377397, 0.207784955007898])
_WK = (0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
       0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


class QuadratureError(ArithmeticError):
    """An integral met a non-finite integrand value or missed its tolerance;
    `index` is its position in the integrate call, None if not known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def _gk15(f, j, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """K15 estimate and |K15 - G7| of integral j[p] over [lo[p], hi[p]] for
    every panel p, from one call of f."""
    j, lo, hi = np.array(j, dtype=np.intp), np.array(lo, dtype=float), np.array(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)[:, None]
    x = half[:, None] * _NODES
    u = np.concatenate((mid, mid - x, mid + x), axis=1)
    fu = f(u.ravel(), np.repeat(j, 15)).reshape(u.shape)
    bad = ~np.isfinite(fu)
    if bad.any():
        p, i = np.argwhere(bad)[0]
        raise QuadratureError(f"integral {j[p]} has a non-finite integrand value "
                              f"{float(fu[p, i])!r} at {float(u[p, i])!r}", int(j[p]))
    fc = fu[:, 0]
    pair = fu[:, 1:8] + fu[:, 8:]
    k15 = _WK[7] * fc
    g7 = _WG[3] * fc
    for i in range(7):
        k15 += _WK[i] * pair[:, i]
        if i % 2 == 1:
            g7 += _WG[i // 2] * pair[:, i]
    k15 *= half
    g7 *= half
    # |K15 - G7| is a conservative error estimate; bisection tightens it fast.
    return k15, np.abs(k15 - g7)


def integrate(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
              intervals: Sequence[tuple[float, float]], rtol: float = 1e-8, atol: float = 1e-12,
              breakpoints: Sequence[Sequence[float]] | None = None, limit: int = 4000
              ) -> np.ndarray:
    """Integral j of f over intervals[j] = (a, b), for every j, as an array.

    f(u, j) is integral j[i]'s integrand at u[i], for float and integer
    arrays u and j of one shape. breakpoints[j] seeds integral j's panels
    with its points inside (a, b); integral j bisects at most `limit` panels.
    QuadratureError, whose `index` is j, reports integral j meeting a
    non-finite integrand value or missing its tolerance."""
    n = len(intervals)
    owner, lo, hi = [], [], []
    for j, ((a, b), pts) in enumerate(zip(intervals, breakpoints or [()] * n)):
        if not b > a:
            raise ValueError(f"integral {j}: integrate requires b > a")
        edges = sorted({a, b, *(p for p in pts if a < p < b)})
        owner += [j] * (len(edges) - 1)
        lo += edges[:-1]
        hi += edges[1:]
    heaps, totals, errs, splits = [[] for _ in range(n)], [0.0] * n, [0.0] * n, [0] * n
    vals, ests = _gk15(f, owner, lo, hi)
    for j, a, b, val, err in zip(owner, lo, hi, vals.tolist(), ests.tolist()):
        totals[j] += val
        errs[j] += err
        heapq.heappush(heaps[j], (-err, a, b, val))

    def worst(j):
        """Integral j's next panel to bisect, None once it meets its target."""
        heap = heaps[j]
        while errs[j] > max(atol, rtol * abs(totals[j])):
            if splits[j] >= limit or not heap:
                raise QuadratureError(f"quadrature of integral {j} did not reach tolerance "
                                      f"(err={errs[j]:.3e}, value={totals[j]:.6e})", j)
            neg_err, a, b, val = heapq.heappop(heap)
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                # Panel at floating-point resolution; accept its estimate.
                errs[j] += neg_err  # removes this panel's error from the budget
                continue
            return j, neg_err, a, mid, b, val
        return None

    pending = range(n)
    while True:
        panels = [p for p in map(worst, pending) if p is not None]
        if not panels:
            return np.array(totals)
        pending, _, los, mids, his, _ = zip(*panels)
        # Left halves, then right halves, of the round's panels.
        vals, ests = _gk15(f, pending * 2, los + mids, mids + his)
        k, vals, ests = len(panels), vals.tolist(), ests.tolist()
        for (j, neg_err, a, mid, b, val), v1, v2, e1, e2 in zip(
                panels, vals[:k], vals[k:], ests[:k], ests[k:]):
            totals[j] += (v1 + v2) - val
            errs[j] += (e1 + e2) + neg_err
            heapq.heappush(heaps[j], (-e1, a, mid, v1))
            heapq.heappush(heaps[j], (-e2, mid, b, v2))
            splits[j] += 1
