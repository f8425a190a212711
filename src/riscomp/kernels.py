"""Hot numeric kernels of the two Monte Carlo engines, in numpy: the
coordinated engine's (coordinated_*) and the multicell engine's
(multicell_*); the engines share none.

Kernels receive pre-drawn variates and perform only +, -, *, / and sqrt
with a fixed accumulation order (sequential over elements / cells); every
transcendental (log2, phases, gamma draws) happens in the calling engine.
The multicell element axis arrives as element-major real planes, (K, n, I).
coordinated_z forms one cascade row in the caller's row; the coordinated
SINR kernel returns the kinds asked for, kind -> (n,), in SINR_KINDS order.
"""

from __future__ import annotations

import numpy as np


# Row roles for the coordinated two-cell SINR kernel. Each Z row combines the
# (h^2, a^2, b^2) power draws of one effective-channel block; fitted-mode
# sampling draws every role independently, physical mode copies shared rows.
Z_CF1_S, Z_CF1_I, Z_C1_S = 0, 1, 2
Z_CF2_S, Z_CF2_I, Z_C2_S = 3, 4, 5
Z_F1_V, Z_F2_V, Z_F1_W, Z_F2_W = 6, 7, 8, 9
Z_NC1_V, Z_NC1_W, Z_NC2_W = 10, 11, 12
N_Z_ROWS = 13

X_CF1, X_C1, X_CF2, X_C2 = 0, 1, 2, 3
N_X_ROWS = 4

# Coordinated SINR sample kinds: own-message and SIC-stage SINR per center,
# CoMP edge SINR, and the no-CoMP edge SINR; the one place their order is set.
SINR_KINDS = ("center1_own", "center1_sic", "center2_own", "center2_sic",
              "edge", "edge_nocomp")


def coordinated_z(pow3, amp, out):
    """One combined row (sqrt(h^2) + amp*sqrt(a^2)*sqrt(b^2))^2 into out (n,)
    from pow3: (3, n) power draws (h^2, a^2, b^2), square-rooted in place;
    amp: the row's cascade multiplier K*sqrt(beta)."""
    h, a, b = np.sqrt(pow3, out=pow3)
    np.multiply(amp, a, out=out)
    out *= b
    out += h
    out *= out


def coordinated_sinr(z, x_pow, zeta_c, zeta_f, rho, kinds):
    """Two-cell coordinated-cluster SINRs of `kinds` alone, {kind: (n,)} in
    SINR_KINDS order, from the rows z of coordinated_z and x_pow:
    (N_X_ROWS, n) interference power draws; zeta_c is both centers' power
    share, zeta_f the edge's. ValueError names any unknown kind."""
    forms = {
        "center1_own": lambda: (rho * zeta_c * z[Z_C1_S]) / (rho * x_pow[X_C1] + 1.0),
        "center1_sic": lambda: (rho * zeta_f * z[Z_CF1_S]) / (
            rho * zeta_c * z[Z_CF1_I] + rho * x_pow[X_CF1] + 1.0),
        "center2_own": lambda: (rho * zeta_c * z[Z_C2_S]) / (rho * x_pow[X_C2] + 1.0),
        "center2_sic": lambda: (rho * zeta_f * z[Z_CF2_S]) / (
            rho * zeta_c * z[Z_CF2_I] + rho * x_pow[X_CF2] + 1.0),
        "edge": lambda: (rho * zeta_f * z[Z_F1_V] + rho * zeta_f * z[Z_F2_V]) / (
            rho * zeta_c * z[Z_F1_W] + rho * zeta_c * z[Z_F2_W] + 1.0),
        "edge_nocomp": lambda: (rho * zeta_f * z[Z_NC1_V]) / (
            rho * zeta_c * z[Z_NC1_W] + rho * z[Z_NC2_W] + 1.0),
    }
    if unknown := [kind for kind in kinds if kind not in forms]:
        raise ValueError(f"unknown SINR kinds {unknown}; the kinds are {SINR_KINDS}")
    return {kind: forms[kind]() for kind in SINR_KINDS if kind in kinds}


def multicell_edge_gains(ed, casc, rnd, settings):
    """Per-cell edge-user channel gains of one chunk of multicell draws under
    each RIS setting; the only multicell code that walks the element axis.

    ed: (n, I) complex direct links. casc: (2, K, n, I) real and imaginary
    planes of the cascade products, element-major; rnd: (2, K, n, I) planes
    cos and sin of the random phases (ris.phasors), read only for "random"
    (None when settings lacks it). settings: the settings to form, of "off"
    |h|^2, "random" |h + sum_k e^{j phi_k} casc_k|^2 and an anti-phased
    count n_co, (|h| - S_co + S_eo)^2 with the first n_co elements
    anti-phased (S_co = |casc_1| + ... + |casc_n_co|) and the rest
    co-phased (S_eo); n_co = 0 is enhancement, (|h| + S)^2, and n_co = K
    cancellation, (|h| - S)^2. Every element sum is one ordered reduce: the
    terms t_1..t_K fill rows 1..K of a buffer (K + 1, n, I) in the planes'
    order, row 0 holding the start value of the random-phase sums, and
    numpy's reduce over axis 0 of a run of its rows adds them in element
    order, entry by entry; an empty run sums to 0. Returns {setting: (n, I)}.
    """
    ed_re, ed_im = ed.real, ed.imag
    h2 = ed_re * ed_re + ed_im * ed_im
    re, im = casc
    k, n, n_cells = re.shape
    gains = {"off": h2} if "off" in settings else {}
    # Rows of one entry would leave numpy a lone contiguous axis, which it
    # sums pairwise, so such rows get a second entry, held at 0.
    pad = int(n * n_cells == 1)
    rows = np.empty((k + 1, n, n_cells + pad))
    rows[:, :, n_cells:] = 0.0
    terms = rows[1:, :, :n_cells]
    tmp = np.empty_like(re)  # each product that terms cannot hold

    def element_sum(lo, hi):
        return np.add.reduce(rows[lo:hi], axis=0)[:, :n_cells]

    if "random" in settings:
        cos, sin = rnd
        np.multiply(cos, re, out=terms)
        terms -= np.multiply(sin, im, out=tmp)
        rows[0, :, :n_cells] = ed_re
        hre = element_sum(0, k + 1)
        np.multiply(cos, im, out=terms)
        terms += np.multiply(sin, re, out=tmp)
        rows[0, :, :n_cells] = ed_im
        him = element_sum(0, k + 1)
        gains["random"] = hre * hre + him * him
    n_cos = [s for s in settings if not isinstance(s, str)]
    if n_cos:
        np.multiply(re, re, out=terms)
        terms += np.multiply(im, im, out=tmp)
        np.sqrt(terms, out=terms)
        amp = np.sqrt(h2)
        # S_co of n_co sums rows 1..n_co and S_eo rows n_co+1..K, each span
        # once: enhancement's S_eo and cancellation's S_co are one reduce.
        spans = {(lo, hi) for n_co in n_cos for lo, hi in ((1, n_co + 1), (n_co + 1, k + 1))}
        sums = {span: element_sum(*span) for span in spans}
        for n_co in n_cos:
            d = amp - sums[1, n_co + 1] + sums[n_co + 1, k + 1]
            gains[n_co] = d * d
    return gains


def multicell_edge_sinr(g_edge, coop, zeta_f, p_w, sigma2):
    """Edge-user SINRs of one multicell point, NOMA and OMA, in O(n I).

    g_edge: (n, I) edge-user gain of each cell's link (multicell_edge_gains);
    coop: 1 for cooperating cells, whose BSs jointly serve the edge user
    with power share zeta_f, while every other cell interferes at full
    power. Returns (edge, edge_oma).
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
    return edge, edge_oma


def multicell_center_sinr(cg, coop, zeta_f, p_w, sigma2):
    """Center-user SINRs of the multicell network, in O(n I^2); the RIS mode
    does not enter them, so points that differ only in it share them.

    cg: (I, n, I) center gains, cg[j, :, i] from BS j to center i; coop: 1
    for cooperating cells. Returns (c_own, c_cf, c_oma), each (n, I): the
    own-message SINR, the SIC stage's SINR of the edge message and the OMA
    SINR. For a non-cooperative cell, c_cf is the center user's SIC stage
    against its own cell's edge component only,
    zeta_f*own / ((1-zeta_f)*own + ICI + sigma2) with own = p_w*cg[i, :, i]
    and every other cell interfering at full power. Every sum runs over the
    source cell j on all centers at once, (n, I), in index order; a term
    a sum skips (j = i) adds +0.0, which changes no sum of gains.
    """
    n_cells, n = cg.shape[0], cg.shape[1]
    oma_ici, coop_g, ici_g, num_cf, den_cf = np.zeros((5, n, n_cells))
    for j, row in enumerate(cg):
        full = p_w * row
        full[:, j] = 0.0  # center j's own link, which no interference sum holds
        oma_ici += full
        if coop[j]:
            intra = ((1.0 - zeta_f) * p_w) * row
            den_cf += intra
            intra[:, j] = 0.0
            coop_g += intra
            num_cf += (zeta_f * p_w) * row
        else:
            ici_g += full
    own_sig = np.diagonal(cg, axis1=0, axis2=2) * p_w
    den = oma_ici + sigma2
    # Non-cooperative cells still run their own NOMA pair; only the own-cell
    # edge component is SIC-removable, every other cell interferes at full
    # power.
    c_own = ((1.0 - zeta_f) * own_sig) / np.where(coop, coop_g + ici_g + sigma2, den)
    c_cf = np.where(coop, num_cf / (den_cf + ici_g + sigma2),
                    (zeta_f * own_sig) / ((1.0 - zeta_f) * own_sig + den))
    return c_own, c_cf, own_sig / den
