"""Nakagami-m link parameters and reproducible RNG substreams.

Substreams derived from one master seed keep every downstream experiment
reproducible. The engines draw their own fading: `montecarlo` Nakagami
powers, `energy` the multicell Rayleigh/Rician channels, `aerial` the UAV
links. Engines are imported by the code that runs them, and numpy.random
with them: this module names `np.random.Generator` only in an annotation,
so validating a config loads no generator code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NakagamiParams:
    """Shape m >= 0.5 and spread omega = E[|h|^2]."""

    m: float
    omega: float

    def __post_init__(self):
        if self.m < 0.5:
            raise ValueError("Nakagami shape m must be >= 0.5")
        if self.omega <= 0:
            raise ValueError("Nakagami spread omega must be positive")


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from (master seed, key...).

    The spawn key is the documented counter scheme: equal (seed, key) tuples
    yield bit-identical streams regardless of worker count or call order.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))
