"""Shared fixtures-in-spirit: parameter factories and independent oracles."""

from __future__ import annotations

import mpmath
import numpy as np
from scipy.optimize import minimize

from fdrelay import ChannelRealization, Scheme, SystemParams
from fdrelay.precoding import (
    _beamformers_batch,
    _hops_from_wt_gains,
    _sq_norms,
    _wt_at_leakage,
    _wt_gains,
)


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


def reference_zf_outage(scheme: Scheme, params: SystemParams, z: float) -> float:
    """60-digit mpmath value of the TZF, RZF or half-duplex outage.

    Each is the CDF of W * min(1, V/c) at lam = d1^tau z / rho1, with
    W ~ Gamma(m_r) and V ~ Gamma(b), in its deficiency form

        P(m_r, lam) + int_lam^inf P(b, c lam/x) x^(m_r-1) e^-x dx / Gamma(m_r),

    where (b, c) is (m_t - 1, d2^tau/kappa) for TZF, (m_t, d2^tau/kappa) for
    RZF and (m_t, d2^tau/(2 kappa)) for half duplex; RZF adds the projected
    first hop lam^(m_r-1)/Gamma(m_r) int_lam^inf Q(m_t, c lam/x) e^-x dx.  All
    terms are positive, so no digits cancel however small the outage, and
    the panels break at decades above lam, where the second-hop factor
    turns over.  mpmath's quadrature error test is absolute, so 60 digits
    keep about 15 significant ones in outages down to about 1e-45.
    """
    with mpmath.workdps(60):
        mpf = mpmath.mpf
        m_r, m_t = params.m_r, params.m_t
        lam = mpf(params.d1) ** params.tau * mpf(z) / mpf(params.p_s)
        kappa = mpf(params.eta) * params.alpha / (1 - mpf(params.alpha))
        c = mpf(params.d2) ** params.tau / kappa
        b = m_t - 1 if scheme is Scheme.TZF else m_t
        if scheme is Scheme.HALF_DUPLEX:
            c /= 2
        breaks = [lam * 10**k for k in range(16) if lam * 10**k < 1] or [lam]
        breaks += [x for x in (1, 4, 16, 64) if x > breaks[-1]] + [mpmath.inf]

        def p_reg(a, x):
            return mpmath.gammainc(a, 0, x, regularized=True)

        def tail(x):
            return p_reg(b, c * lam / x) * x ** (m_r - 1) * mpmath.exp(-x)

        out = p_reg(m_r, lam) + mpmath.quad(tail, breaks) / mpmath.gamma(m_r)
        if scheme is Scheme.RZF:
            def projected(x):
                return (1 - p_reg(m_t, c * lam / x)) * mpmath.exp(-x)

            out += lam ** (m_r - 1) / mpmath.gamma(m_r) * mpmath.quad(projected, breaks)
        return float(out)


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


def leakage_range(
    params: SystemParams, hsr: np.ndarray, hrd: np.ndarray, hrr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loop direction a = H_rr^H h_sr, C = H_rr^H H_rr and t_mrt per draw.

    t_mrt = kt S |a^H m|^2 / (1 + kt S m^H C m) is the leakage level of the
    matched beamformer m, the top of the optimal search's leakage range.
    """
    kts = params.kappa * params.p_s / params.d1**params.tau * np.sum(np.abs(hsr) ** 2, axis=1)
    a = np.einsum("nij,ni->nj", np.conj(hrr), hsr)
    c = np.einsum("nij,nik->njk", np.conj(hrr), hrr)
    matched = np.conj(hrd) / np.linalg.norm(hrd, axis=1, keepdims=True)
    aw = np.abs(np.einsum("ni,ni->n", np.conj(a), matched)) ** 2
    cw = np.einsum("ni,nij,nj->n", np.conj(matched), c, matched).real
    return a, c, kts * aw / (1.0 + kts * cw)


def hops_for_wt(
    params: SystemParams, hsr: np.ndarray, hrd: np.ndarray, hrr: np.ndarray, wt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-hop SINR achieved by ``wt`` with its optimal combiner."""
    return _hops_from_wt_gains(params, hsr, _sq_norms(hsr), _wt_gains(hsr, hrd, hrr, wt))[:2]


def cold_leakage_probe(
    params: SystemParams, hsr: np.ndarray, hrd: np.ndarray, a: np.ndarray, c: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """The library's beamformers at leakage levels ``t``, each angle root-find
    started at pi/2 (mu = 0) as on a row's first leakage probe."""
    return _wt_at_leakage(params, hsr, np.conj(hrd), a, c, t, np.full(t.shape, 0.5 * np.pi))[0]


def bisection_best_sinr(
    params: SystemParams, hsr: np.ndarray, hrd: np.ndarray, hrr: np.ndarray
) -> np.ndarray:
    """Reference crossing search: the two seeds, then 34 bisection steps.

    Test-only oracle for the optimal search on batched draws (m_t >= 2, a
    loop on every row).  It scores the matched and transmit-ZF beamformers,
    then halves the leakage bracket [0, t_mrt] 34 times on the sign of
    second - first, probing every row at every halving with no pruning and
    no early stop, and returns the best min(first, second) seen.  It shares
    the inner solve at a leakage level with the library, but not the
    search loop.
    """
    seeds = [_beamformers_batch(s, hsr, hrd, hrr)[1] for s in (Scheme.MRC_MRT, Scheme.TZF)]
    best = np.max([np.minimum(*hops_for_wt(params, hsr, hrd, hrr, wt)) for wt in seeds], axis=0)
    a, c, t_mrt = leakage_range(params, hsr, hrd, hrr)
    lo, hi = np.zeros_like(t_mrt), t_mrt
    for _ in range(34):
        mid = 0.5 * (lo + hi)
        wt = cold_leakage_probe(params, hsr, hrd, a, c, mid)
        first, second = hops_for_wt(params, hsr, hrd, hrr, wt)
        best = np.fmax(best, np.minimum(first, second))
        up = second < first
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return best
