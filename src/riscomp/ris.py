"""RIS phase arithmetic shared by the aerial environment and the agent."""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi


def wrap_phase(theta):
    """Wrap angles into [-pi, pi)."""
    return np.mod(np.asarray(theta, dtype=float) + math.pi, _TWO_PI) - math.pi
