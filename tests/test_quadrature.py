"""Adaptive Gauss-Kronrod integration against scipy.integrate.quad."""

import math

import numpy as np
import pytest
from scipy import integrate as si

from oracles import integrate_half_line
from riscomp.quadrature import QuadratureError, integrate


def test_polynomial_exact():
    assert integrate(lambda x: x**3, 0, 2) == pytest.approx(4.0, abs=1e-12)


def test_oscillatory():
    val = integrate(math.sin, 0.0, 20.0, rtol=1e-10)
    assert val == pytest.approx(1.0 - math.cos(20.0), abs=1e-9)


def test_half_line_exponential():
    assert integrate_half_line(lambda x: math.exp(-x)) == pytest.approx(1.0, abs=1e-10)


def test_half_line_vs_scipy():
    f = lambda x: math.log1p(x) * math.exp(-0.3 * x) / (1 + x * x)
    ref = si.quad(f, 0, np.inf)[0]
    assert integrate_half_line(f, rtol=1e-9) == pytest.approx(ref, rel=1e-8)


def test_narrow_spike_with_breakpoints():
    # Near-degenerate density: breakpoints must guide the subdivision.
    mu, sd = 0.637, 1e-4
    f = lambda t: math.exp(-0.5 * ((t - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
    pts = [mu - 10 * sd, mu, mu + 10 * sd]
    assert integrate(f, 0.0, 1.0, breakpoints=pts, rtol=1e-9) == pytest.approx(1.0, abs=1e-6)


def test_unreachable_tolerance_raises():
    rng = np.random.default_rng(0)
    noisy = lambda x: float(rng.standard_normal())
    with pytest.raises(QuadratureError):
        integrate(noisy, 0.0, 1.0, rtol=1e-14, limit=50)


def test_invalid_interval():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 1.0)
