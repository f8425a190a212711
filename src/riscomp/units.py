"""dB / dBm conversions.

All internal math is linear scale. Scenarios keep their decibel fields, and
the properties of their shared link budget (`scenarios.LinkBudget`, and
`scenarios.RicianLinks` for kappa) convert them on every access.
"""

import math

THERMAL_NOISE_DBM_PER_HZ = -174.0


def db_to_linear(db: float) -> float:
    """Dimensionless gain/ratio from a dB figure."""
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def noise_power_watts(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise power over a bandwidth, noise figure added in dB."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    dbm = THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return dbm_to_watts(dbm)
