"""Hot numeric kernels of the two Monte Carlo engines, in numpy.

Kernels receive pre-drawn variates and perform only +, -, *, /, sqrt with a
fixed accumulation order (sequential over elements / cells); every
transcendental (log2, phases, gamma draws) happens in the calling engine.
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

# Output rows: SIC-stage and own-message SINR per center, CoMP edge SINR,
# and the no-CoMP edge SINR.
OUT_CF1, OUT_C1, OUT_CF2, OUT_C2, OUT_F, OUT_F_NC = 0, 1, 2, 3, 4, 5
N_OUT_ROWS = 6


def coordinated_sinr(z_pow, x_pow, amp, zeta_c1, zeta_c2, zeta_f, rho):
    """Two-cell coordinated-cluster SINRs from pre-drawn power variates.

    z_pow: (N_Z_ROWS, 3, n) gamma power draws (h^2, a^2, b^2) per block,
    x_pow: (N_X_ROWS, n) interference power draws, amp: per-row cascade
    multiplier K*sqrt(beta). Returns (N_OUT_ROWS, n) SINRs.
    """
    n = z_pow.shape[2]
    z = np.empty((N_Z_ROWS, n))
    for r in range(N_Z_ROWS):
        h = np.sqrt(z_pow[r, 0])
        a = np.sqrt(z_pow[r, 1])
        b = np.sqrt(z_pow[r, 2])
        s = h + amp[r] * a * b
        z[r] = s * s
    out = np.empty((N_OUT_ROWS, n))
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


def multicell_edge_sinr(ed_re, ed_im, casc_re, casc_im, rnd_re, rnd_im, cg,
                        coop, mode, zeta_f, p_w, sigma2):
    """Multi-cell CoMP-NOMA SINRs for one RIS phase-assignment mode.

    mode codes per cell: 0 no-RIS, 1 random phases, 2 enhancement (co-phased),
    3 cancellation (anti-phased). Returns (edge, edge_oma, c_own, c_cf, c_oma).
    For a non-cooperative cell, c_cf is the center user's SIC stage against its
    own cell's edge component only, zeta_f*own / ((1-zeta_f)*own + ICI + sigma2)
    with own = p_w*cg[:, i, i] and every other cell interfering at full power.
    """
    n, n_cells, k = casc_re.shape
    g_edge = np.empty((n, n_cells))
    for i in range(n_cells):
        if mode[i] == 0:
            g_edge[:, i] = ed_re[:, i] * ed_re[:, i] + ed_im[:, i] * ed_im[:, i]
        elif mode[i] == 1:
            hre = ed_re[:, i].copy()
            him = ed_im[:, i].copy()
            for q in range(k):
                hre += rnd_re[:, i, q] * casc_re[:, i, q] - rnd_im[:, i, q] * casc_im[:, i, q]
                him += rnd_re[:, i, q] * casc_im[:, i, q] + rnd_im[:, i, q] * casc_re[:, i, q]
            g_edge[:, i] = hre * hre + him * him
        else:
            amp = np.sqrt(ed_re[:, i] * ed_re[:, i] + ed_im[:, i] * ed_im[:, i])
            s = np.zeros(n)
            for q in range(k):
                s += np.sqrt(
                    casc_re[:, i, q] * casc_re[:, i, q]
                    + casc_im[:, i, q] * casc_im[:, i, q]
                )
            d = amp + s if mode[i] == 2 else amp - s
            g_edge[:, i] = d * d
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
