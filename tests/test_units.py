import math

import pytest

from riscomp.units import db_to_linear, dbm_to_watts, noise_power_watts


def test_db_roundtrip():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-30.0) == pytest.approx(1e-3)
    assert 10 * math.log10(db_to_linear(7.3)) == pytest.approx(7.3)


def test_dbm_to_watts():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(5.0) == pytest.approx(3.1623e-3, rel=1e-4)
    assert 10 * math.log10(dbm_to_watts(-17.0)) + 30 == pytest.approx(-17.0)


def test_noise_power():
    # -174 dBm/Hz over 1 MHz with a 12 dB noise figure = -102 dBm.
    sigma2 = noise_power_watts(1e6, noise_figure_db=12.0)
    assert 10 * math.log10(sigma2) + 30 == pytest.approx(-102.0)
    # 10 MHz, no noise figure = -104 dBm.
    assert noise_power_watts(1e7) == pytest.approx(dbm_to_watts(-104.0))


def test_invalid_inputs():
    with pytest.raises(ValueError):
        noise_power_watts(0.0)
