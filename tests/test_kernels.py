"""Kernel arithmetic against direct per-trial formulas."""

import numpy as np
import pytest

from oracles import element_planes, reference_edge_gains
from riscomp import kernels, montecarlo
from riscomp.channel import substream
from riscomp.energy import _BLOCK


def _coordinated_case(n=257):
    rng = substream(99, 0)
    z = rng.gamma(1.5, 1.0, (kernels.N_Z_ROWS, 3, n))
    x = rng.gamma(1.0, 1.0, (kernels.N_X_ROWS, n))
    amp = rng.uniform(0.0, 30.0, kernels.N_Z_ROWS)
    return (z, x, amp, 0.3, 0.7, 123.4)


def _multicell_case(n=101, cells=4, k=7):
    rng = substream(98, 0)
    ed = rng.standard_normal((2, n, cells))
    casc = rng.standard_normal((2, n, cells, k)) * 0.1
    phi = rng.uniform(-np.pi, np.pi, (n, cells, k))
    cg = rng.gamma(1.0, 1.0, (n, cells, cells))
    return (ed[0], ed[1], casc[0], casc[1], np.cos(phi), np.sin(phi), cg, 0.7, 1e-3, 4e-14)


def test_coordinated_z_matches_direct_formula():
    z, _, amp, *_ = _coordinated_case(64)
    out = np.empty((kernels.N_Z_ROWS, 64))
    for r in range(kernels.N_Z_ROWS):
        pow3 = z[r].copy()
        kernels.coordinated_z(pow3, amp[r], out[r])
        # The square roots are taken in the draw buffer.
        assert np.array_equal(pow3, np.sqrt(z[r]))
    for r in range(kernels.N_Z_ROWS):
        for t in range(64):
            s = np.sqrt(z[r, 0, t]) + amp[r] * np.sqrt(z[r, 1, t]) * np.sqrt(z[r, 2, t])
            assert out[r, t] == pytest.approx(s * s, rel=1e-14)


def test_coordinated_matches_direct_formula():
    # The SINR half, fed the combined rows of the direct formula.
    z_pow, x, amp, zc, zf, rho = _coordinated_case(64)
    zz = (np.sqrt(z_pow[:, 0]) + amp[:, None] * np.sqrt(z_pow[:, 1]) * np.sqrt(z_pow[:, 2])) ** 2
    out = kernels.coordinated_sinr(zz, x, zc, zf, rho, kernels.SINR_KINDS)
    expect = {
        "center1_sic": (rho * zf * zz[kernels.Z_CF1_S]) / (
            rho * zc * zz[kernels.Z_CF1_I] + rho * x[kernels.X_CF1] + 1.0),
        "center1_own": rho * zc * zz[kernels.Z_C1_S] / (rho * x[kernels.X_C1] + 1.0),
        "center2_sic": (rho * zf * zz[kernels.Z_CF2_S]) / (
            rho * zc * zz[kernels.Z_CF2_I] + rho * x[kernels.X_CF2] + 1.0),
        "center2_own": rho * zc * zz[kernels.Z_C2_S] / (rho * x[kernels.X_C2] + 1.0),
        "edge": (rho * zf * (zz[kernels.Z_F1_V] + zz[kernels.Z_F2_V])) / (
            rho * zc * zz[kernels.Z_F1_W] + rho * zc * zz[kernels.Z_F2_W] + 1.0),
        "edge_nocomp": (rho * zf * zz[kernels.Z_NC1_V]) / (
            rho * zc * zz[kernels.Z_NC1_W] + rho * zz[kernels.Z_NC2_W] + 1.0),
    }
    assert sorted(expect) == sorted(out)
    for kind, e in expect.items():
        assert np.allclose(out[kind], e, rtol=1e-14), kind


def test_coordinated_sinr_keys_are_the_sinr_kinds_in_order():
    z_pow, x, amp, zc, zf, rho = _coordinated_case(8)
    z = np.empty((kernels.N_Z_ROWS, 8))
    for r, row in enumerate(z):
        kernels.coordinated_z(z_pow[r], amp[r], row)
    # Asked for in reverse, the kinds still come in SINR_KINDS order.
    out = kernels.coordinated_sinr(z, x, zc, zf, rho, kernels.SINR_KINDS[::-1])
    assert tuple(out) == kernels.SINR_KINDS
    assert montecarlo.SINR_KINDS is kernels.SINR_KINDS
    assert all(v.shape == (8,) for v in out.values())


def test_multicell_matches_reference():
    args = _multicell_case(16, 3, 4)
    ed_re, ed_im, c_re, c_im, r_re, r_im, cg, zf, p, s2 = args
    n, cells, k = c_re.shape
    # Enhancement, cancellation and random phases: the anti-phased counts 0
    # and K, and "random".
    mode = [0, k, "random"]
    coop = np.array([1, 0, 0], dtype=np.uint8)
    gains = kernels.multicell_edge_gains(
        ed_re + 1j * ed_im, element_planes(c_re + 1j * c_im), element_planes(r_re + 1j * r_im),
        set(mode)
    )
    g_edge = np.stack([gains[s][:, i] for i, s in enumerate(mode)], axis=1)
    edge, edge_oma = kernels.multicell_edge_sinr(g_edge, coop, zf, p, s2)
    c_own, c_cf, c_oma = kernels.multicell_center_sinr(np.moveaxis(cg, 1, 0), coop, zf, p, s2)
    for t in range(n):
        g = np.empty(cells)
        for i in range(cells):
            if mode[i] == "random":
                h = ed_re[t, i] + 1j * ed_im[t, i]
                h += np.sum((r_re[t, i] + 1j * r_im[t, i]) * (c_re[t, i] + 1j * c_im[t, i]))
                g[i] = abs(h) ** 2
            else:
                amp = abs(ed_re[t, i] + 1j * ed_im[t, i])
                s = np.sum(np.hypot(c_re[t, i], c_im[t, i]))
                d = amp + s if mode[i] == 0 else amp - s
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


@pytest.mark.parametrize("k", [0, 1, 2, 33, 150])
@pytest.mark.parametrize("case", ["one-trial-one-cell", "one-trial", "above-block"])
def test_multicell_edge_gains_equal_sequential_element_loop(k, case):
    # Each element sum is one reduce over a run of an element-major buffer;
    # it must add the elements in order, as one += per element does, for an
    # empty element axis, a block of one trial of one cell and a block above
    # the engine's. Enhancement and cancellation are the anti-phased counts
    # 0 and K of the one split rule.
    cells = 1 if case == "one-trial-one-cell" else 6
    n = _BLOCK // max(1, cells * k) + 1 if case == "above-block" else 1
    rng = substream(97, k)
    ed = rng.standard_normal((n, cells)) + 1j * rng.standard_normal((n, cells))
    casc = 0.1 * (rng.standard_normal((n, cells, k)) + 1j * rng.standard_normal((n, cells, k)))
    phi = rng.uniform(-np.pi, np.pi, (n, cells, k))
    rnd = np.cos(phi) + 1j * np.sin(phi)
    n_cos = sorted({0, k // 3, k})
    # The kernel reads the element-major planes the engine lays out; at K = 0
    # they are empty, (0, n, I) each.
    casc_p, rnd_p = element_planes(casc), element_planes(rnd)
    assert casc_p.shape == rnd_p.shape == (2, k, n, cells)
    gains = kernels.multicell_edge_gains(ed, casc_p, rnd_p, {"off", "random", *n_cos})
    by_code, by_split = reference_edge_gains(ed, casc, rnd, n_cos)
    for setting, code in (("off", 0), ("random", 1), (0, 2), (k, 3)):
        assert np.array_equal(gains[setting], by_code[code]), setting
    for n_co in n_cos:
        assert np.array_equal(gains[n_co], by_split[n_co]), n_co
    # A setting's gains do not depend on which others are formed beside it,
    # alone or in a set without "random", whose phasors are then None.
    without = kernels.multicell_edge_gains(ed, casc_p, None, {"off", *n_cos})
    assert without.keys() == {"off", *n_cos}
    for setting, g in without.items():
        assert np.array_equal(g, gains[setting]), setting
    for setting, g in gains.items():
        alone = kernels.multicell_edge_gains(
            ed, casc_p, rnd_p if setting == "random" else None, {setting})
        assert alone.keys() == {setting} and np.array_equal(alone[setting], g), setting
