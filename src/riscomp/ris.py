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
    """cos phi and sin phi of every phase in phi, in [-pi, pi], written into
    the planes out[0] and out[1] of the real array out, of shape
    (2, *phi.shape), which is returned. phi may be any view of the phases
    (the multicell engine passes its draws element-major); tan runs on the
    contiguous plane out[1].

    By the tangent half-angle identity: with t = tan(phi / 2),
    cos phi = (1 - t^2) / (1 + t^2) and sin phi = 2t / (1 + t^2), so one
    vectorized tan replaces the scalar libm cos and sin. Each lies within
    4.5e-16 of np.cos / np.sin and |cos + j sin| within 4.5e-16 of 1
    (tests/test_ris.py); the bits are not libm's. At phi = -pi,
    t = -1.6e16 and t^2 = 2.7e32 stay finite. Holds one real temporary of
    phi's size, t^2.
    """
    cos, t = out
    np.multiply(phi, 0.5, out=t)
    np.tan(t, out=t)
    u = np.multiply(t, t)
    np.subtract(1.0, u, out=cos)
    u += 1.0
    np.divide(cos, u, out=cos)
    t += t
    np.divide(t, u, out=t)
    return out
