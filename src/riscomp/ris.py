"""RIS phase arithmetic shared by the aerial environment and the agent."""

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
