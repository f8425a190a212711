"""Special functions needed by the closed-form SINR statistics.

Regularized incomplete beta via modified-Lentz continued fraction with the
symmetry transform, elementwise over a, b and x broadcast together: one loop
runs over the still-active elements of every (a, b) pair and of both sides of
the transform, each doing the scalar recurrence's operations in the same
order. The prefactor x^a (1-x)^b / B(a, b) is one pass of numpy's log,
log1p and exp, which give an element the same bits alone or in any array,
and differ from the C library's by a few roundings of the exponent (2.9e-14
relative where its terms reach 212). All-scalar arguments return a float.
Regularized lower incomplete gamma via series/continued fraction (scalar).

Log-gamma comes from the C library (math.lgamma), within 1e-13 relative of
scipy's gammaln on [0.1, 150]. betaln is lgamma(a) + lgamma(b) - lgamma(a + b),
which cancels when b is much larger than a: its absolute error is about one
unit in the last place of lgamma(b) ~ b (ln b - 1). At the fig3.2 center
laws' b = 2.6e9 it is off by 5e-6 (against scipy.special.betaln), at
b = 2.6e13 by 0.014, and that error scales the incomplete beta's prefactor by
exp(error).
"""

import math

import numpy as np

_TINY = 1e-300
_EPS = 1e-15
_MAX_ITER = 2000
# Elements per continued-fraction loop: the loop's arrays then hold a few
# MB however many points a call takes.
_BLOCK = 1 << 15


class ConvergenceError(ArithmeticError):
    """Continued fraction / series failed to converge."""


def betaln(a: float, b: float) -> float:
    if a <= 0 or b <= 0:
        raise ValueError("betaln requires a, b > 0")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: np.ndarray, b: np.ndarray, law: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), per element.

    Element i runs at the shapes a[law[i]], b[law[i]] exactly the scalar
    recurrence's operations, in the same order, in place on its arrays: each
    half-step forms its coefficient on the (a, b) tables, one value per law,
    and gathers it by law. An element leaves the loop at the iteration where
    its own |delta - 1| < _EPS; only the still-active elements are carried
    from one iteration to the next.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    if not x.size:
        return out
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab[law] * x / qap[law]
    np.copyto(d, _TINY, where=np.abs(d) < _TINY)
    np.divide(1.0, d, out=d)
    h = d.copy()
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        a_m2 = a + m2
        # The even and the odd step: aa = num * x / den.
        for num, den in ((m * (b - m), (qam + m2) * a_m2),
                         (-(a + m) * (qab + m), a_m2 * (qap + m2))):
            aa = num[law]
            aa *= x
            aa /= den[law]
            d *= aa  # d = 1 + aa d
            d += 1.0
            np.copyto(d, _TINY, where=np.abs(d) < _TINY)
            np.divide(aa, c, out=c)  # c = 1 + aa / c
            c += 1.0
            np.copyto(c, _TINY, where=np.abs(c) < _TINY)
            np.divide(1.0, d, out=d)
            delta = d * c
            h *= delta
        delta -= 1.0
        done = np.abs(delta, out=delta) < _EPS
        if done.any():
            out[idx[done]] = h[done]
            active = ~done
            if not active.any():
                return out
            idx, law, x = idx[active], law[active], x[active]
            c, d, h = c[active], d[active], h[active]
    raise ConvergenceError(
        f"incomplete beta continued fraction (a={a[law[0]]}, b={b[law[0]]}, x={x[0]})")


def _prefactor(a: np.ndarray, b: np.ndarray, lnb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^a (1-x)^b / B(a, b) elementwise, given lnb = ln B(a, b), on numpy's
    log, log1p and exp in the scalar form's order."""
    return np.exp(a * np.log(x) + b * np.log1p(-x) - lnb)


def _betainc_block(a: np.ndarray, b: np.ndarray, lnb: np.ndarray, law: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """I_x(a[law], b[law]) for one block of elements, with the (a, b, ln B(a, b))
    tables of every law and each element's law."""
    # x <= 0 gives 0, x >= 1 gives 1 and a NaN x NaN, none of them in the loop.
    out = np.where(x >= 1.0, 1.0, np.where(x <= 0.0, 0.0, np.nan))
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    if not inner.size:
        return out
    law, xi = law[inner], x[inner]
    front = _prefactor(a[law], b[law], lnb[law], xi)
    # Symmetry transform keeps the continued fraction in its convergent
    # region: an element at or above (a+1)/(a+b+2) runs as law t + a.size,
    # I_x(a, b) = 1 - I_{1-x}(b, a).
    swap = ~(xi < ((a + 1.0) / (a + b + 2.0))[law])
    cf_a = np.concatenate((a, b))
    cf_law = law + a.size * swap
    y = np.where(swap, 1.0 - xi, xi)
    val = front * _betacf(cf_a, np.concatenate((b, a)), cf_law, y) / cf_a[cf_law]
    np.subtract(1.0, val, out=val, where=swap)
    out[inner] = val
    return out


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b), elementwise over a, b and x
    broadcast together.

    Each position of the (a, b) broadcast is one law. The elements, taken in
    blocks of up to _BLOCK, run in one continued-fraction loop per block
    (_betacf), whatever their laws, order and side of the symmetry
    transform, and every value is bit-identical to the scalar recurrence.
    A NaN x gives NaN, as numpy and scipy do; a NaN a or b raises
    ValueError with the nonpositive ones.
    ln B(a, b) is taken once per law (betaln); the prefactor
    x^a (1-x)^b / B(a, b) is one numpy pass over each block (_prefactor). A
    call whose arguments are all scalars returns a Python float, any other
    an array of the broadcast shape.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not ((a > 0).all() and (b > 0).all()):  # NaN shapes too
        raise ValueError("betainc_reg requires a, b > 0")
    xs, law = np.broadcast_arrays(np.asarray(x, dtype=float), np.arange(a.size).reshape(a.shape))
    a_tab, b_tab, shape = a.ravel(), b.ravel(), xs.shape
    lnb = np.array([betaln(p, q) for p, q in zip(a_tab.tolist(), b_tab.tolist())])
    out = np.empty(shape)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        flat[block] = _betainc_block(a_tab, b_tab, lnb, law.flat[block], xs.flat[block])
    if not shape:
        return float(out)
    return out


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
