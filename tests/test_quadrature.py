"""Lockstep adaptive Gauss-Kronrod integration against closed forms, scipy's
quad and one integral run alone."""

import math

import numpy as np
import pytest
from scipy import integrate as si

from oracles import integrate_half_line
from riscomp.quadrature import QuadratureError, integrate


def _one(f, a, b, **kw) -> float:
    """The integral of an array integrand f(u) over [a, b], run alone."""
    [value] = integrate(lambda u, j: f(u), [(a, b)], **kw)
    return value


def test_polynomial_exact():
    assert _one(lambda x: x**3, 0, 2) == pytest.approx(4.0, abs=1e-12)


def test_oscillatory():
    val = _one(np.sin, 0.0, 20.0, rtol=1e-10)
    assert val == pytest.approx(1.0 - math.cos(20.0), abs=1e-9)


def test_half_line_exponential():
    assert integrate_half_line(lambda x: math.exp(-x)) == pytest.approx(1.0, abs=1e-10)


def test_half_line_vs_scipy():
    f = lambda x: math.log1p(x) * math.exp(-0.3 * x) / (1 + x * x)
    ref = si.quad(f, 0, np.inf)[0]
    assert integrate_half_line(f, rtol=1e-9) == pytest.approx(ref, rel=1e-8)


def _spike(mu, sd):
    return lambda t: np.exp(-0.5 * ((t - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))


def test_narrow_spike_with_breakpoints():
    # Near-degenerate density: breakpoints must guide the subdivision.
    mu, sd = 0.637, 1e-4
    pts = [[mu - 10 * sd, mu, mu + 10 * sd]]
    assert _one(_spike(mu, sd), 0.0, 1.0, breakpoints=pts, rtol=1e-9) == pytest.approx(1.0, abs=1e-6)


def test_integrals_in_one_call_equal_each_run_alone():
    # Each integral keeps its own panels and stopping rule, so sharing a
    # call with others, in any order, leaves its bits as they are alone.
    cases = [
        (lambda u: u**3, (0.0, 2.0), ()),
        (np.sin, (0.0, 20.0), ()),
        (_spike(0.637, 1e-4), (0.0, 1.0), (0.637 - 1e-3, 0.637, 0.637 + 1e-3)),
        (lambda u: np.log1p(u) * np.exp(-0.3 * u), (0.0, 50.0), (1.0,)),
        (lambda u: 1.0 / np.sqrt(u), (1e-12, 1.0), ()),
    ]
    alone = [_one(f, *ab, breakpoints=[pts]) for f, ab, pts in cases]

    def run(order):
        def f(u, j):
            out = np.empty_like(u)
            for k, (g, _, _) in enumerate(order):
                out[j == k] = g(u[j == k])
            return out
        return integrate(f, [ab for _, ab, _ in order],
                         breakpoints=[pts for _, _, pts in order]).tolist()

    assert run(cases) == alone
    assert run(cases[::-1]) == alone[::-1]


def test_unreachable_tolerance_raises():
    rng = np.random.default_rng(0)

    def noisy(u, j):
        return np.where(j == 1, rng.standard_normal(u.shape), u)

    with pytest.raises(QuadratureError, match="integral 1 did not reach tolerance") as info:
        integrate(noisy, [(0.0, 1.0), (0.0, 1.0)], rtol=1e-14, limit=50)
    assert info.value.index == 1


def test_non_finite_integrand_raises_naming_the_integral():
    def f(u, j):
        return np.where(j == 2, 1.0 / (u - 0.5), u)

    with np.errstate(divide="ignore"):
        with pytest.raises(QuadratureError, match="integral 2 has a non-finite integrand value inf"
                           ) as info:
            integrate(f, [(0.0, 1.0)] * 3)
    assert info.value.index == 2


def test_invalid_interval():
    with pytest.raises(ValueError, match="integral 1: integrate requires b > a"):
        integrate(lambda u, j: np.sin(u), [(0.0, 1.0), (1.0, 1.0)])
