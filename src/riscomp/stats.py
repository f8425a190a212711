"""Closed-form SINR statistics via moment matching.

Effective channel powers Z = (|h| + K sqrt(beta) |h_iR||h_Ru|)^2 are fitted
to Gamma laws from their first two raw moments; weighted interference sums
get Gamma fits the same way; SINRs, as ratios of (approximately) independent
Gamma variables, follow Beta-prime laws. One builder per law: the center
SINR (`sinr_dist_center`, own message or SIC of the edge message) and the
JT-CoMP edge SINR (`sinr_dist_edge`, with or without the noise term). Ergodic
rates come from one lockstep adaptive quadrature of the defining integrals
on numpy ufuncs, outage probabilities from regularized incomplete beta
evaluations of the Beta-prime CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NakagamiParams
from .quadrature import QuadratureError, integrate
from .special import betainc_reg, betaln, gammainc_lower_reg

_LN2 = math.log(2.0)


class FitError(ValueError):
    """Raised when moment matching degenerates (non-positive variance)."""


@dataclass(frozen=True)
class MomentPair:
    """First and second raw moments of a nonnegative variable."""

    m1: float
    m2: float

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError("raw moments must be nonnegative")
        if self.m2 < self.m1**2 * (1.0 - 1e-12):
            raise ValueError("second moment below squared mean")

    @property
    def variance(self) -> float:
        return self.m2 - self.m1**2

    def shifted(self, c: float) -> "MomentPair":
        """Moments of X + c."""
        return MomentPair(self.m1 + c, self.m2 + 2.0 * c * self.m1 + c * c)


@dataclass(frozen=True)
class GammaParams:
    """Shape/scale parameterization; mean k*theta, variance k*theta^2."""

    k: float
    theta: float

    def __post_init__(self):
        if self.k <= 0 or self.theta <= 0:
            raise ValueError("Gamma shape and scale must be positive")

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return gammainc_lower_reg(self.k, x / self.theta)


@dataclass(frozen=True)
class BetaPrimeParams:
    """Scaled Beta-prime: X/scale ~ BetaPrime(a, b)."""

    a: float
    b: float
    scale: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("Beta-prime shapes must be positive")
        if self.scale <= 0:
            raise ValueError("Beta-prime scale must be positive")

    def cdf(self, x):
        """Pr(X <= x), elementwise: 0 for x <= 0, 1 for x = +inf, otherwise
        I_{x/(x+scale)}(a, b). A scalar x returns a Python float, an array x
        an array of its shape."""
        return _beta_prime_cdf(self.a, self.b, self.scale, x)


def _beta_prime_cdf(a, b, scale, x):
    """BetaPrimeParams.cdf with a, b and scale broadcast against x."""
    x = np.asarray(x, dtype=float)
    inner = ~(x <= 0) & (x != math.inf)
    y = np.where(x == math.inf, 1.0, 0.0)
    np.divide(x, x + scale, out=y, where=inner)
    return betainc_reg(a, b, y)


def stacked_cdf(laws, x) -> np.ndarray:
    """Row i of x (L, n) under laws[i], a sequence of L BetaPrimeParams, in
    one betainc_reg call on (L, 1) parameter columns; every value equals
    laws[i].cdf's, and L = 0 gives (0, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != len(laws):
        raise ValueError(f"need one row of points per law: {len(laws)} laws, shape {x.shape}")
    a, b, scale = np.reshape([(p.a, p.b, p.scale) for p in laws], (-1, 3)).T[:, :, None]
    return _beta_prime_cdf(a, b, scale, x)


def gamma_from_moments(m: MomentPair) -> GammaParams:
    """Moment-matched Gamma fit k = m1^2/var, theta = var/m1."""
    var = m.variance
    if var <= 0 or m.m1 <= 0:
        raise FitError(f"degenerate moments for Gamma fit (m1={m.m1}, var={var})")
    return GammaParams(m.m1**2 / var, var / m.m1)


def nakagami_moment(p: NakagamiParams, order: int) -> float:
    """p-th raw moment of a Nakagami(m, omega) magnitude."""
    if order not in (1, 2, 3, 4):
        raise ValueError("supported moment orders are 1..4")
    half = 0.5 * order
    ln = math.lgamma(p.m + half) - math.lgamma(p.m)
    return math.exp(ln) * (p.omega / p.m) ** half


def cascade_moment(
    k_elements: int,
    beta: float,
    i_r: NakagamiParams,
    r_u: NakagamiParams,
    order: int,
) -> float:
    """p-th raw moment of the co-phased cascade K sqrt(beta) |h_iR||h_Ru|."""
    if order not in (1, 2, 3, 4):
        raise ValueError("supported moment orders are 1..4")
    if k_elements < 0 or not 0.0 <= beta <= 1.0:
        raise ValueError("require k_elements >= 0 and beta in [0, 1]")
    if k_elements == 0 or beta == 0.0:
        return 0.0
    half = 0.5 * order
    ln = (
        math.lgamma(r_u.m + half)
        + math.lgamma(i_r.m + half)
        - math.lgamma(i_r.m)
        - math.lgamma(r_u.m)
    )
    scale = (k_elements * math.sqrt(beta)) ** order
    return (
        scale
        * (i_r.omega * r_u.omega) ** half
        * math.exp(ln)
        / (r_u.m * i_r.m) ** half
    )


def effective_power_moments(
    direct: NakagamiParams,
    k_elements: int,
    beta: float,
    i_r: NakagamiParams,
    r_u: NakagamiParams,
) -> MomentPair:
    """Raw moments of Z = (|h| + cascade)^2 via the binomial expansion."""
    mh = [1.0] + [nakagami_moment(direct, p) for p in (1, 2, 3, 4)]
    mg = [1.0] + [cascade_moment(k_elements, beta, i_r, r_u, p) for p in (1, 2, 3, 4)]
    m1 = mh[2] + 2.0 * mh[1] * mg[1] + mg[2]
    m2 = (
        mh[4]
        + 4.0 * mh[3] * mg[1]
        + 6.0 * mh[2] * mg[2]
        + 4.0 * mh[1] * mg[3]
        + mg[4]
    )
    return MomentPair(m1, m2)


def weighted_sum_moments(
    a: float, z: MomentPair, b: float, interferer: NakagamiParams
) -> MomentPair:
    """Moments of a*Z + b*|h'|^2 for an independent Nakagami interferer."""
    if a < 0 or b < 0:
        raise ValueError("weights must be nonnegative")
    if a == 0 and b == 0:
        raise FitError("a = b = 0 gives a degenerate sum")
    omega = interferer.omega
    m1 = a * z.m1 + b * omega
    m2 = (
        a * a * z.m2
        + 2.0 * a * b * z.m1 * omega
        + b * b * omega * omega * (1.0 + 1.0 / interferer.m)
    )
    return MomentPair(m1, m2)


def sinr_dist_center(
    z: MomentPair,
    interferer: NakagamiParams,
    rho: float,
    zeta_signal: float,
    zeta_intra: float,
) -> BetaPrimeParams:
    """Law of rho zeta_signal Z / (rho zeta_intra Z + rho X + 1) at a center
    user: its own message with zeta_intra = 0, or the edge message it decodes
    first for SIC (zeta_signal = zeta_edge, zeta_intra = zeta_center)."""
    zg = gamma_from_moments(z)
    w = gamma_from_moments(
        weighted_sum_moments(rho * zeta_intra, z, rho, interferer).shifted(1.0)
    )
    return BetaPrimeParams(zg.k, w.k, rho * zeta_signal * zg.theta / w.theta)


def sinr_dist_edge(z1: MomentPair, z2: MomentPair, zeta_c: float, zeta_f: float,
                   rho: float, noise: float) -> BetaPrimeParams:
    """Law of the non-coherent JT-CoMP edge SINR gamma_f = V / (W + noise),
    V = rho zeta_f (Z1 + Z2) and W = rho zeta_c (Z1 + Z2), Z1, Z2 independent.
    noise = 1 is the SINR; noise = 0 is the interference-limited high-SNR
    law V / W, whose scale does not depend on rho."""
    def mix(c: float) -> MomentPair:
        """Moments of rho (c Z1 + c Z2)."""
        return MomentPair(rho * (c * z1.m1 + c * z2.m1), rho * rho * (
            c**2 * z1.m2 + 2.0 * c * c * z1.m1 * z2.m1 + c**2 * z2.m2))

    vg = gamma_from_moments(mix(zeta_f))
    wg = gamma_from_moments(mix(zeta_c).shifted(noise))
    return BetaPrimeParams(vg.k, wg.k, vg.theta / wg.theta)


def _er_breakpoints(a: float, b: float) -> list[float]:
    """Support landmarks (in Beta u-space) seeding the adaptive subdivision,
    the mean and 1, 5 and 20 standard deviations either side, of which
    `integrate` keeps those inside (0, 1); critical for near-degenerate fits
    whose density is a narrow spike."""
    mu = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    return [mu + c * sd for c in (-20.0, -5.0, -1.0, 0.0, 1.0, 5.0, 20.0)]


def ergodic_rates(laws) -> list[float]:
    """E[log2(1 + X)] for X ~ each scaled Beta-prime law of `laws`, in order,
    by one lockstep adaptive quadrature whose nodes read their law's
    parameters from per-law arrays: a law's rate does not depend on the laws
    beside it, and is held to 1e-8 relative. Substituting x = scale *
    u/(1-u) maps the half line onto (0, 1) with a Beta(a, b) weight, smooth
    away from the endpoints. An overflow (of the integrand or of the
    breakpoints) or a missed tolerance raises QuadratureError naming the
    law, with its index."""
    def named(j: int, why) -> QuadratureError:
        p = laws[j]
        return QuadratureError(f"ergodic rate of the Beta-prime law a={p.a!r}, b={p.b!r}, "
                               f"scale={p.scale!r}: {why}", j)

    breakpoints = []
    for j, p in enumerate(laws):
        try:
            breakpoints.append(_er_breakpoints(p.a, p.b))
        except OverflowError:
            raise named(j, "(a + b)^2 of its breakpoints overflows") from None
    a, b, q = (np.array([getattr(p, f) for p in laws], dtype=float) for f in ("a", "b", "scale"))
    lnb = np.array([betaln(p.a, p.b) for p in laws], dtype=float)

    def integrand(u: np.ndarray, j: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = q[j] * u / (1.0 - u)
            w = np.exp((a[j] - 1.0) * np.log(u) + (b[j] - 1.0) * np.log1p(-u) - lnb[j])
            value = w * np.log1p(x) / _LN2
        return np.where((u <= 0.0) | (u >= 1.0) | (x <= 0.0) | np.isinf(x), 0.0, value)

    try:
        return integrate(integrand, [(0.0, 1.0)] * len(laws), rtol=1e-8, atol=1e-12,
                         breakpoints=breakpoints).tolist()
    except QuadratureError as exc:
        raise named(exc.index, exc) from None
