"""RIS phase arithmetic: phase wrapping, shared by the aerial environment
and the agent, and the unit phasors of the multicell engine's random
phases."""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi


def wrap_phase(theta):
    """Wrap angles into [-pi, pi).

    Just below -pi, theta + pi is a tiny negative number that mod rounds up
    to 2 pi itself, which would give +pi; that result is mapped to -pi. So
    every result lies in [-pi, pi) and wrapping it again changes no bit.
    """
    w = np.mod(np.asarray(theta, dtype=float) + math.pi, _TWO_PI) - math.pi
    return np.where(w == math.pi, -math.pi, w)


def phasors(phi, out):
    """e^{j phi} of every phase in phi, in [-pi, pi], written into the
    complex array out of phi's shape, which is returned.

    By the tangent half-angle identity: with t = tan(phi / 2),
    cos phi = (1 - t^2) / (1 + t^2) and sin phi = 2t / (1 + t^2), so one
    vectorized tan replaces the scalar libm cos and sin. Each component
    lies within 4.5e-16 of np.cos / np.sin and |z| within 4.5e-16 of 1
    (tests/test_ris.py); the bits are not libm's. At phi = -pi,
    t = -1.6e16 and t^2 = 2.7e32 stay finite. Holds two real temporaries
    of phi's size: t and t^2.
    """
    t = np.multiply(phi, 0.5)
    np.tan(t, out=t)
    u = np.multiply(t, t)
    np.subtract(1.0, u, out=out.real)
    u += 1.0
    np.divide(out.real, u, out=out.real)
    t += t
    np.divide(t, u, out=out.imag)
    return out
