"""Adaptive Gauss-Kronrod (G7, K15) quadrature on finite intervals.

Bisects the interval with the largest embedded error estimate until the
summed estimate meets the absolute+relative target. Callers integrating over
(0, inf) map the half line onto a finite interval first.
"""

import heapq
from typing import Callable, Iterable

# K15 abscissae (symmetric; positive half and center) and weights. G7 uses
# every other node.
_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


class QuadratureError(ArithmeticError):
    pass


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    k15 = _WK[7] * fc
    g7 = _WG[3] * fc
    for i in range(7):
        x = half * _NODES[i]
        f1 = f(mid - x)
        f2 = f(mid + x)
        k15 += _WK[i] * (f1 + f2)
        if i % 2 == 1:
            g7 += _WG[i // 2] * (f1 + f2)
    k15 *= half
    g7 *= half
    # |K15 - G7| is a conservative error estimate; bisection tightens it fast.
    return k15, abs(k15 - g7)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    rtol: float = 1e-8,
    atol: float = 1e-12,
    breakpoints: Iterable[float] = (),
    limit: int = 4000,
) -> float:
    """Integral of f over [a, b] to the requested tolerance."""
    if not b > a:
        raise ValueError("integrate requires b > a")
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    heap: list[tuple[float, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val))
    splits = 0
    while total_err > max(atol, rtol * abs(total)):
        if splits >= limit or not heap:
            raise QuadratureError(
                f"quadrature did not reach tolerance (err={total_err:.3e}, value={total:.6e})"
            )
        neg_err, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at floating-point resolution; accept its estimate.
            total_err += neg_err  # removes this interval's error from the budget
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) + neg_err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        splits += 1
    return total
