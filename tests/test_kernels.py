"""Kernel arithmetic against direct per-trial formulas."""

import numpy as np
import pytest

from riscomp import kernels
from riscomp.channel import substream


def _coordinated_case(n=257):
    rng = substream(99, 0)
    z = rng.gamma(1.5, 1.0, (kernels.N_Z_ROWS, 3, n))
    x = rng.gamma(1.0, 1.0, (kernels.N_X_ROWS, n))
    amp = rng.uniform(0.0, 30.0, kernels.N_Z_ROWS)
    return (z, x, amp, 0.3, 0.3, 0.7, 123.4)


def _multicell_case(n=101, cells=4, k=7):
    rng = substream(98, 0)
    ed = rng.standard_normal((2, n, cells))
    casc = rng.standard_normal((2, n, cells, k)) * 0.1
    phi = rng.uniform(-np.pi, np.pi, (n, cells, k))
    cg = rng.gamma(1.0, 1.0, (n, cells, cells))
    coop = np.array([1, 1, 0, 0], dtype=np.uint8)
    mode = np.array([2, 2, 3, 1], dtype=np.uint8)
    return (ed[0], ed[1], casc[0], casc[1], np.cos(phi), np.sin(phi), cg,
            coop, mode, 0.7, 1e-3, 4e-14)


def test_coordinated_z_matches_direct_formula():
    z, _, amp, *_ = _coordinated_case(64)
    out = kernels.coordinated_z(z, amp)
    for r in range(kernels.N_Z_ROWS):
        for t in range(64):
            s = np.sqrt(z[r, 0, t]) + amp[r] * np.sqrt(z[r, 1, t]) * np.sqrt(z[r, 2, t])
            assert out[r, t] == pytest.approx(s * s, rel=1e-14)


def test_coordinated_matches_direct_formula():
    # The SINR half, fed the combined rows of the direct formula.
    z_pow, x, amp, zc1, zc2, zf, rho = _coordinated_case(64)
    zz = (np.sqrt(z_pow[:, 0]) + amp[:, None] * np.sqrt(z_pow[:, 1]) * np.sqrt(z_pow[:, 2])) ** 2
    out = kernels.coordinated_sinr(zz, x, zc1, zc2, zf, rho)
    expect = {
        kernels.OUT_CF1: (rho * zf * zz[kernels.Z_CF1_S]) / (
            rho * zc1 * zz[kernels.Z_CF1_I] + rho * x[kernels.X_CF1] + 1.0),
        kernels.OUT_C1: rho * zc1 * zz[kernels.Z_C1_S] / (rho * x[kernels.X_C1] + 1.0),
        kernels.OUT_CF2: (rho * zf * zz[kernels.Z_CF2_S]) / (
            rho * zc2 * zz[kernels.Z_CF2_I] + rho * x[kernels.X_CF2] + 1.0),
        kernels.OUT_C2: rho * zc2 * zz[kernels.Z_C2_S] / (rho * x[kernels.X_C2] + 1.0),
        kernels.OUT_F: (rho * zf * (zz[kernels.Z_F1_V] + zz[kernels.Z_F2_V])) / (
            rho * zc1 * zz[kernels.Z_F1_W] + rho * zc2 * zz[kernels.Z_F2_W] + 1.0),
        kernels.OUT_F_NC: (rho * zf * zz[kernels.Z_NC1_V]) / (
            rho * zc1 * zz[kernels.Z_NC1_W] + rho * zz[kernels.Z_NC2_W] + 1.0),
    }
    assert sorted(expect) == list(range(kernels.N_OUT_ROWS))
    for row, e in expect.items():
        assert np.allclose(out[row], e, rtol=1e-14), row


def test_multicell_matches_reference():
    args = _multicell_case(16, 3, 4)
    ed_re, ed_im, c_re, c_im, r_re, r_im, cg, coop, mode, zf, p, s2 = args
    mode = np.array([2, 3, 1], dtype=np.uint8)
    coop = np.array([1, 0, 0], dtype=np.uint8)
    gains, _ = kernels.multicell_edge_gains(
        ed_re + 1j * ed_im, c_re + 1j * c_im, r_re + 1j * r_im, set(mode.tolist())
    )
    g_edge = np.stack([gains[c][:, i] for i, c in enumerate(mode)], axis=1)
    edge, edge_oma, c_own, c_cf, c_oma = kernels.multicell_edge_sinr(
        g_edge, cg, coop, zf, p, s2
    )
    n, cells, k = c_re.shape
    for t in range(n):
        g = np.empty(cells)
        for i in range(cells):
            if mode[i] == 1:
                h = ed_re[t, i] + 1j * ed_im[t, i]
                h += np.sum((r_re[t, i] + 1j * r_im[t, i]) * (c_re[t, i] + 1j * c_im[t, i]))
                g[i] = abs(h) ** 2
            else:
                amp = abs(ed_re[t, i] + 1j * ed_im[t, i])
                s = np.sum(np.hypot(c_re[t, i], c_im[t, i]))
                d = amp + s if mode[i] == 2 else amp - s
                g[i] = d * d
        sig = zf * p * g[0]
        intra = (1 - zf) * p * g[0]
        ici = p * (g[1] + g[2])
        assert edge[t] == pytest.approx(sig / (intra + ici + s2), rel=1e-12)
        assert edge_oma[t] == pytest.approx((sig + intra) / (ici + s2), rel=1e-12)
        # Cooperative center (cell 0): SIC removes every cooperative edge term.
        ici_c = p * (cg[t, 1, 0] + cg[t, 2, 0])
        own = (1 - zf) * p * cg[t, 0, 0] / (ici_c + s2)
        assert c_own[t, 0] == pytest.approx(own, rel=1e-12)
        cf = zf * p * cg[t, 0, 0] / ((1 - zf) * p * cg[t, 0, 0] + ici_c + s2)
        assert c_cf[t, 0] == pytest.approx(cf, rel=1e-12)
        # Non-cooperative center (cell 1): full-power interference from all.
        den = p * (cg[t, 0, 1] + cg[t, 2, 1]) + s2
        assert c_own[t, 1] == pytest.approx((1 - zf) * p * cg[t, 1, 1] / den, rel=1e-12)
        # Its SIC stage removes only its own cell's edge component.
        own_sig = p * cg[t, 1, 1]
        cf = zf * own_sig / ((1 - zf) * own_sig + den)
        assert c_cf[t, 1] == pytest.approx(cf, rel=1e-12)
        assert c_oma[t, 1] == pytest.approx(p * cg[t, 1, 1] / den, rel=1e-12)
