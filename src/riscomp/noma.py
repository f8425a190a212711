"""NOMA rate arithmetic: target-rate SINR thresholds and Shannon rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RateThresholds:
    """Target rates (bps/Hz) with derived SINR thresholds 2^R - 1."""

    r_center_min: float
    r_edge_min: float

    def __post_init__(self):
        if self.r_center_min < 0 or self.r_edge_min < 0:
            raise ValueError("target rates must be >= 0")

    @property
    def gamma_center(self) -> float:
        return 2.0**self.r_center_min - 1.0

    @property
    def gamma_edge(self) -> float:
        return 2.0**self.r_edge_min - 1.0


def achievable_rate(sinr) -> float:
    """Shannon rate log2(1 + sinr) in bps/Hz."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("SINR must be nonnegative")
    out = np.log1p(sinr) / math.log(2.0)
    return float(out) if out.ndim == 0 else out
