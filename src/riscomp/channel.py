"""Fading channel generation: Rayleigh draws, Rician vectors, Nakagami-m and
Rician link parameters, and reproducible RNG substreams.

All sampling is pure given a numpy Generator; substreams derived from one
master seed keep every downstream experiment reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

_SQRT_HALF = math.sqrt(0.5)


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


@dataclass(frozen=True)
class RicianParams:
    """Linear K-factor and angle of arrival of the LoS component."""

    kappa: float
    aoa: float

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("Rician factor must be >= 0")
        if not (-math.pi <= self.aoa < math.pi):
            raise ValueError("aoa must lie in [-pi, pi)")


def sample_rayleigh(rng: Generator, size=None) -> np.ndarray | complex:
    """Circularly symmetric complex Gaussian with E[|v|^2] = 1."""
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    v = (re + 1j * im) * _SQRT_HALF
    return v if size is not None else complex(v)


def los_steering(k_elements: int, aoa: float) -> np.ndarray:
    """Progressive-phase steering vector, k-th entry e^{j(k-1) pi sin(aoa)}."""
    if k_elements < 0:
        raise ValueError("element count must be >= 0")
    k = np.arange(k_elements)
    return np.exp(1j * k * np.pi * np.sin(aoa))


def sample_rician_vector(k_elements: int, p: RicianParams, rng: Generator) -> np.ndarray:
    """LoS steering plus Rayleigh scatter, per-element E[|.|^2] = 1.

    k_elements = 0 returns an empty vector (the no-RIS degenerate case).
    """
    if k_elements == 0:
        return np.zeros(0, dtype=np.complex128)
    los = los_steering(k_elements, p.aoa)
    if math.isinf(p.kappa):
        return los
    nlos = sample_rayleigh(rng, k_elements)
    w_los = math.sqrt(p.kappa / (1.0 + p.kappa))
    w_nlos = math.sqrt(1.0 / (1.0 + p.kappa))
    return w_los * los + w_nlos * nlos


def substream(master_seed: int, *key: int) -> Generator:
    """Independent generator derived from (master seed, key...).

    The spawn key is the documented counter scheme: equal (seed, key) tuples
    yield bit-identical streams regardless of worker count or call order.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))
