"""Shared fixtures-in-spirit: parameter factories and independent oracles."""

from __future__ import annotations

import mpmath
import numpy as np
from scipy.optimize import minimize

from fdrelay import ChannelRealization, Scheme, SystemParams


def make_params(
    m_r: int = 2,
    m_t: int = 2,
    p_s: float = 10.0,
    *,
    d1: float = 1.0,
    d2: float = 1.0,
    tau: float = 3.0,
    eta: float = 1.0,
    alpha: float = 0.5,
    sigma2_li: float = 0.1,
    gamma_th: float = 1.0,
    r_c: float = 1.0,
) -> SystemParams:
    """Benchmark-style defaults: unit distances, 0 dB threshold, moderate loop."""
    return SystemParams(
        m_r=m_r, m_t=m_t, p_s=p_s, d1=d1, d2=d2, tau=tau, eta=eta,
        alpha=alpha, sigma2_li=sigma2_li, gamma_th=gamma_th, r_c=r_c,
    )


def four_antenna_params(alpha: float = 0.5) -> SystemParams:
    """The 4x4 throughput benchmark configuration."""
    return make_params(
        4, 4, 10.0, d1=2.0, d2=2.0, tau=3.1, sigma2_li=0.3, alpha=alpha,
    )


def reference_mrc_outage(params: SystemParams, z: float) -> float:
    """60-digit mpmath value of the MRC/MRT outage at any (m_r, m_t).

    Integrates the survival form 1 - int keep * survive of the single-integral
    CDF with the link coefficients recomputed in extended precision, with
    panel breaks at decades above the lower limit z/c1 where the loop factor
    has its boundary layer.  The subtraction cancels as many digits as the
    outage is small, so 60 digits resolve outages down to about 1e-45.
    """
    with mpmath.workdps(60):
        mpf = mpmath.mpf
        first = mpf(params.p_s) / mpf(params.d1) ** params.tau
        kappa = mpf(params.eta) * params.alpha / (1 - mpf(params.alpha))
        c2 = first * kappa * params.sigma2_li
        c3 = first * kappa / mpf(params.d2) ** params.tau
        z = mpf(z)
        norm = mpmath.gamma(params.m_r)

        def integrand(x):
            keep = -mpmath.expm1(-(first * x / z - 1) / (c2 * x)) if c2 else 1
            survive = mpmath.gammainc(params.m_t, z / (c3 * x), mpmath.inf,
                                      regularized=True)
            return keep * survive * x ** (params.m_r - 1) * mpmath.exp(-x) / norm

        lower = z / first
        breaks = [lower * 10**k for k in range(7) if lower * 10**k < 1]
        return float(1 - mpmath.quad(integrand, breaks + [1, 4, 16, 64, mpmath.inf]))


def reference_sinr(ch: ChannelRealization, params: SystemParams, scheme: Scheme) -> float:
    """Per-draw transcription of the paper's beamformers and SINR.

    Reference for the batched kernels; shares no code with them.  Matched
    filters are w_r = h_sr^H / ||h_sr|| and w_t = h_rd^H / ||h_rd||.  TZF
    projects h_rd^H off a = H_rr^H h_sr, RZF projects h_sr off
    v = H_rr h_rd^H (and conjugates it into a row).  The hops are
    gamma_1 = p_s |w_r h_sr|^2 / (kappa p_s ||h_sr||^2 |w_r H_rr w_t|^2 + d1^tau)
    and gamma_2 = kappa p_s ||h_sr||^2 |h_rd w_t|^2 / (d1^tau d2^tau); half
    duplex is ||h_sr||^2 min(p_s / d1^tau, 2 kappa p_s ||h_rd||^2 / (d1^tau d2^tau)).
    """
    d1t = params.d1**params.tau
    d2t = params.d2**params.tau
    kps = params.kappa * params.p_s
    s = np.linalg.norm(ch.h_sr) ** 2
    if scheme is Scheme.HALF_DUPLEX:
        return s * min(params.p_s / d1t, 2.0 * kps / (d1t * d2t) * np.linalg.norm(ch.h_rd) ** 2)
    combiner = ch.h_sr
    beam = ch.h_rd.conj()
    if scheme is Scheme.TZF:
        a = ch.h_rr.conj().T @ ch.h_sr
        beam = beam - a * (np.vdot(a, beam) / np.vdot(a, a))
    elif scheme is Scheme.RZF:
        v = ch.h_rr @ ch.h_rd.conj()
        combiner = combiner - v * (np.vdot(v, combiner) / np.vdot(v, v))
    w_r = combiner.conj() / np.linalg.norm(combiner)
    w_t = beam / np.linalg.norm(beam)
    first = params.p_s * abs(w_r @ ch.h_sr) ** 2 / (
        kps * s * abs(w_r @ ch.h_rr @ w_t) ** 2 + d1t
    )
    second = kps / (d1t * d2t) * s * abs(ch.h_rd @ w_t) ** 2
    return min(first, second)


def ascent_best_sinr(
    ch: ChannelRealization,
    params: SystemParams,
    restarts: int = 100,
    rng: np.random.Generator | None = None,
) -> float:
    """Independent verifier for the optimal scheme: random-restart ascent.

    Maximizes the end-to-end SINR over the transmit beamformer sphere with
    Nelder-Mead in real coordinates; the combiner for each probe is the
    first-hop-optimal one, obtained here with a dense linear solve (no code
    shared with the searched implementation).  Matched and zero-forcing
    directions seed two of the restarts.
    """
    rng = rng or np.random.default_rng(0)
    m_r, m_t = ch.m_r, ch.m_t
    d1t = params.d1**params.tau
    d2t = params.d2**params.tau
    kps = params.kappa * params.p_s
    s = float(np.sum(np.abs(ch.h_sr) ** 2))
    eye = np.eye(m_r)

    def gamma_of(x: np.ndarray) -> float:
        w = x[:m_t] + 1j * x[m_t:]
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            return 0.0
        w = w / norm
        v = ch.h_rr @ w
        cov = kps * s * np.outer(v, v.conj()) + d1t * eye
        xr = np.linalg.solve(cov, ch.h_sr)
        wr = xr.conj() / np.linalg.norm(xr)
        first = params.p_s * abs(wr @ ch.h_sr) ** 2 / (
            kps * s * abs(wr @ v) ** 2 + d1t
        )
        second = kps / (d1t * d2t) * s * abs(ch.h_rd @ w) ** 2
        return min(first, second)

    def as_real(w: np.ndarray) -> np.ndarray:
        return np.concatenate([w.real, w.imag])

    starts = [as_real(np.conj(ch.h_rd))]
    a = ch.h_rr.conj().T @ ch.h_sr
    na2 = float(np.vdot(a, a).real)
    if m_t > 1 and na2 > 1e-20:
        h = np.conj(ch.h_rd)
        starts.append(as_real(h - a * (np.vdot(a, h) / na2)))
    while len(starts) < restarts:
        starts.append(rng.standard_normal(2 * m_t))

    best = 0.0
    best_x = starts[0]
    for x0 in starts:
        res = minimize(
            lambda x: -gamma_of(x),
            x0,
            method="Nelder-Mead",
            options={"maxiter": 600, "fatol": 1e-12, "xatol": 1e-10},
        )
        if -float(res.fun) > best:
            best = -float(res.fun)
            best_x = res.x
    # Nelder-Mead stagnates on the kinked min(.,.) surface; restarting the
    # simplex at the incumbent reliably polishes the last digits out.
    for _ in range(4):
        res = minimize(
            lambda x: -gamma_of(x),
            best_x,
            method="Nelder-Mead",
            options={"maxiter": 400, "fatol": 1e-14, "xatol": 1e-12},
        )
        if -float(res.fun) > best + 1e-13 * best:
            best = -float(res.fun)
            best_x = res.x
        else:
            break
    return best
