"""Hot numeric kernels of the two Monte Carlo engines, in numpy.

Kernels receive pre-drawn variates and perform only +, -, *, /, sqrt and
complex magnitudes with a fixed accumulation order (sequential over elements
/ cells); every transcendental (log2, phases, gamma draws) happens in the
calling engine.
"""

from __future__ import annotations

import numpy as np


# Row roles for the coordinated two-cell SINR kernel. Each Z row holds the
# (h^2, a^2, b^2) power draws of one effective-channel block; fitted-mode
# sampling fills every role independently, physical mode repeats shared draws.
Z_CF1_S, Z_CF1_I, Z_C1_S = 0, 1, 2
Z_CF2_S, Z_CF2_I, Z_C2_S = 3, 4, 5
Z_F1_V, Z_F2_V, Z_F1_W, Z_F2_W = 6, 7, 8, 9
Z_NC1_V, Z_NC1_W, Z_NC2_W = 10, 11, 12
N_Z_ROWS = 13

X_CF1, X_C1, X_CF2, X_C2 = 0, 1, 2, 3
N_X_ROWS = 4

# Output rows: own-message and SIC-stage SINR per center, CoMP edge SINR,
# and the no-CoMP edge SINR.
OUT_C1, OUT_CF1, OUT_C2, OUT_CF2, OUT_F, OUT_F_NC = 0, 1, 2, 3, 4, 5
N_OUT_ROWS = 6


def coordinated_z(z_pow, amp):
    """Combined rows (sqrt(h^2) + amp*sqrt(a^2)*sqrt(b^2))^2, (N_Z_ROWS, n),
    of z_pow: (N_Z_ROWS, 3, n) gamma power draws (h^2, a^2, b^2) per block,
    amp: per-row cascade multiplier K*sqrt(beta)."""
    z = np.empty((N_Z_ROWS, z_pow.shape[2]))
    for r in range(N_Z_ROWS):
        s = np.sqrt(z_pow[r, 0]) + amp[r] * np.sqrt(z_pow[r, 1]) * np.sqrt(z_pow[r, 2])
        z[r] = s * s
    return z


def coordinated_sinr(z, x_pow, zeta_c1, zeta_c2, zeta_f, rho):
    """Two-cell coordinated-cluster SINRs, (N_OUT_ROWS, n), from the rows z
    of coordinated_z and x_pow: (N_X_ROWS, n) interference power draws."""
    out = np.empty((N_OUT_ROWS, z.shape[1]))
    out[OUT_CF1] = (rho * zeta_f * z[Z_CF1_S]) / (
        rho * zeta_c1 * z[Z_CF1_I] + rho * x_pow[X_CF1] + 1.0
    )
    out[OUT_C1] = (rho * zeta_c1 * z[Z_C1_S]) / (rho * x_pow[X_C1] + 1.0)
    out[OUT_CF2] = (rho * zeta_f * z[Z_CF2_S]) / (
        rho * zeta_c2 * z[Z_CF2_I] + rho * x_pow[X_CF2] + 1.0
    )
    out[OUT_C2] = (rho * zeta_c2 * z[Z_C2_S]) / (rho * x_pow[X_C2] + 1.0)
    out[OUT_F] = (rho * zeta_f * z[Z_F1_V] + rho * zeta_f * z[Z_F2_V]) / (
        rho * zeta_c1 * z[Z_F1_W] + rho * zeta_c2 * z[Z_F2_W] + 1.0
    )
    out[OUT_F_NC] = (rho * zeta_f * z[Z_NC1_V]) / (
        rho * zeta_c1 * z[Z_NC1_W] + rho * z[Z_NC2_W] + 1.0
    )
    return out


def multicell_edge_gains(ed, casc, rnd, codes, n_cos=()):
    """Per-cell edge-user channel gains of one chunk of multicell draws under
    each RIS assignment; the only multicell code that walks the element axis.

    ed: (n, I) complex direct links, casc: (n, I, K) complex cascade products,
    rnd: (n, I, K) random unit phasors. codes: the mode codes to form, of
    0 no-RIS |h|^2, 1 random phases |h + sum_k rnd_k casc_k|^2,
    2 enhancement (|h| + S)^2 and 3 cancellation (|h| - S)^2 with
    S = sum_k |casc_k|. n_cos: element splits, each the gain
    (|h| - S_co + S_eo)^2 with the first n_co elements anti-phased (S_co) and
    the rest co-phased (S_eo). Element sums run sequentially over k, except
    the split sums (numpy's pairwise sum of |casc|). Returns
    ({code: (n, I)}, {n_co: (n, I)}).
    """
    ed_re, ed_im = ed.real, ed.imag
    h2 = ed_re * ed_re + ed_im * ed_im
    k = casc.shape[2]
    by_code = {}
    if 0 in codes:
        by_code[0] = h2
    if 1 in codes:
        hre = ed_re.copy()
        parts = rnd.real * casc.real - rnd.imag * casc.imag
        for q in range(k):
            hre += parts[:, :, q]
        him = ed_im.copy()
        parts = rnd.real * casc.imag + rnd.imag * casc.real
        for q in range(k):
            him += parts[:, :, q]
        del parts
        by_code[1] = hre * hre + him * him
    if 2 in codes or 3 in codes:
        c_re, c_im = casc.real, casc.imag
        mag = np.sqrt(c_re * c_re + c_im * c_im)
        s = np.zeros(h2.shape)
        for q in range(k):
            s += mag[:, :, q]
        del mag
        amp = np.sqrt(h2)
        for code, d in ((2, amp + s), (3, amp - s)):
            if code in codes:
                by_code[code] = d * d
    by_split = {}
    if n_cos:
        amp = np.abs(ed)
        mag = np.abs(casc)
        for n_co in n_cos:
            d = amp - np.sum(mag[:, :, :n_co], axis=2) + np.sum(mag[:, :, n_co:], axis=2)
            by_split[n_co] = d * d
    return by_code, by_split


def multicell_edge_sinr(g_edge, cg, coop, zeta_f, p_w, sigma2):
    """Multi-cell CoMP-NOMA SINRs from per-cell edge gains, in O(n I^2).

    g_edge: (n, I) edge-user gain of each cell's link (multicell_edge_gains),
    cg: (n, I, I) center gains, cg[:, j, i] from BS j to center i; coop: 1 for
    cooperating cells. Returns (edge, edge_oma, c_own, c_cf, c_oma). For a
    non-cooperative cell, c_cf is the center user's SIC stage against its own
    cell's edge component only, zeta_f*own / ((1-zeta_f)*own + ICI + sigma2)
    with own = p_w*cg[:, i, i] and every other cell interfering at full power.
    """
    n, n_cells = g_edge.shape
    sig_e = np.zeros(n)
    intra_e = np.zeros(n)
    ici_e = np.zeros(n)
    for i in range(n_cells):
        if coop[i]:
            sig_e += zeta_f * p_w * g_edge[:, i]
            intra_e += (1.0 - zeta_f) * p_w * g_edge[:, i]
        else:
            ici_e += p_w * g_edge[:, i]
    edge = sig_e / (intra_e + ici_e + sigma2)
    edge_oma = (sig_e + intra_e) / (ici_e + sigma2)

    c_own = np.empty((n, n_cells))
    c_cf = np.empty((n, n_cells))
    c_oma = np.empty((n, n_cells))
    for i in range(n_cells):
        coop_g = np.zeros(n)
        ici_g = np.zeros(n)
        oma_ici = np.zeros(n)
        for j in range(n_cells):
            if j != i:
                oma_ici += p_w * cg[:, j, i]
            if coop[j]:
                if j != i:
                    coop_g += (1.0 - zeta_f) * p_w * cg[:, j, i]
            else:
                if j != i:
                    ici_g += p_w * cg[:, j, i]
        own_sig = cg[:, i, i] * p_w
        if coop[i]:
            c_own[:, i] = (1.0 - zeta_f) * own_sig / (coop_g + ici_g + sigma2)
            num_cf = np.zeros(n)
            den_cf = np.zeros(n)
            for j in range(n_cells):
                if coop[j]:
                    num_cf += zeta_f * p_w * cg[:, j, i]
                    den_cf += (1.0 - zeta_f) * p_w * cg[:, j, i]
            c_cf[:, i] = num_cf / (den_cf + ici_g + sigma2)
        else:
            # Non-cooperative cells still run their own NOMA pair; only the
            # own-cell edge component is SIC-removable, every other cell
            # interferes at full power.
            den = oma_ici + sigma2
            c_own[:, i] = (1.0 - zeta_f) * own_sig / den
            c_cf[:, i] = zeta_f * own_sig / ((1.0 - zeta_f) * own_sig + den)
        c_oma[:, i] = own_sig / (oma_ici + sigma2)
    return edge, edge_oma, c_own, c_cf, c_oma
