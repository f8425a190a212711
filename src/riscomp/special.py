"""Special functions needed by the closed-form SINR statistics.

Regularized incomplete beta via modified-Lentz continued fraction with the
symmetry transform, vectorized over x: one loop runs over the array of
still-active elements, each doing the scalar recurrence's operations in the
same order, and the prefactor x^a (1-x)^b / B(a, b) is taken per element from
the C library (math.log, math.log1p, math.exp), whose results numpy's SIMD
log/exp do not match in the last bit. A scalar x returns a Python float.
Regularized lower incomplete gamma via series/continued fraction (scalar).
Log-gamma comes from the C library (math.lgamma), which meets the 1e-13
relative-error target on the argument range used here (<= a few hundred).
"""

import math

import numpy as np

_TINY = 1e-300
_EPS = 1e-15
_MAX_ITER = 2000


class ConvergenceError(ArithmeticError):
    """Continued fraction / series failed to converge."""


def betaln(a: float, b: float) -> float:
    if a <= 0 or b <= 0:
        raise ValueError("betaln requires a, b > 0")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), per element.

    Each element runs exactly the scalar recurrence, in the same order, and
    leaves the loop at the iteration where its own |delta - 1| < _EPS; only
    the still-active elements are carried from one iteration to the next.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    if not x.size:
        return out
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _TINY, _TINY, d)
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[idx[done]] = h[done]
            active = ~done
            if not active.any():
                return out
            idx, x, c, d, h = idx[active], x[active], c[active], d[active], h[active]
    raise ConvergenceError(
        f"incomplete beta continued fraction (a={a}, b={b}, x={x[0]})")


def betainc_reg(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b), elementwise over x.

    A scalar x returns a Python float, an array x an array of its shape. The
    prefactor x^a (1-x)^b / B(a, b) is taken per element with math.log,
    math.log1p and math.exp, so every value is bit-identical to the scalar
    recurrence.
    """
    if a <= 0 or b <= 0:
        raise ValueError("betainc_reg requires a, b > 0")
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    out = np.where(flat >= 1.0, 1.0, 0.0)
    inner = np.flatnonzero(~((flat <= 0.0) | (flat >= 1.0)))
    if inner.size:
        xi = flat[inner]
        lnb = betaln(a, b)
        front = np.array([math.exp(a * math.log(v) + b * math.log1p(-v) - lnb)
                          for v in xi.tolist()])
        # Symmetry transform keeps the continued fraction in its convergent region.
        lo = xi < (a + 1.0) / (a + b + 2.0)
        hi = ~lo
        val = np.empty_like(xi)
        val[lo] = front[lo] * _betacf(a, b, xi[lo]) / a
        val[hi] = 1.0 - front[hi] * _betacf(b, a, 1.0 - xi[hi]) / b
        out[inner] = val
    if xs.ndim == 0:
        return float(out[0])
    return out.reshape(xs.shape)


def _gamma_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError(f"incomplete gamma series (a={a}, x={x})")


def _gamma_cf(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError(f"incomplete gamma continued fraction (a={a}, x={x})")


def gammainc_lower_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0:
        raise ValueError("gammainc_lower_reg requires a > 0")
    if x < 0:
        raise ValueError("gammainc_lower_reg requires x >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cf(a, x)
