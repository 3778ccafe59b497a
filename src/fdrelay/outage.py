"""Analytic outage probabilities: exact single-integral CDFs and high-SNR laws.

Each scheme's end-to-end SINR factors into independent Gamma/Beta pieces, so
outage (the CDF of the SINR at the threshold) reduces to one tail integral
over the source-relay channel gain.  The recurring normalized threshold is

    lam = d1^tau * z / rho1.

High-SNR approximations expose the diversity orders: min(m_r, m_t - 1) for
transmit ZF and min(m_r - 1, m_t) for receive ZF.  The MRC/MRT scheme keeps
loop interference that grows with the harvested power, so it has no diversity
order (its outage floors out); only its two tractable antenna regimes
(m_t == 1 and m_r == 1) admit analytic CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SystemParams
from .errors import WrongCaseError
from .precoding import Scheme, check_feasible
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    digamma,
    integrate_semi_infinite,
    ln_gamma,
    meijer_special_cdf,
    reg_gamma_p,
    reg_gamma_q,
)

__all__ = [
    "OutageQuery",
    "link_coefficients",
    "outage_tzf",
    "outage_tzf_asymptotic",
    "outage_rzf",
    "outage_rzf_asymptotic",
    "outage_mrc_case1",
    "outage_mrc_case2",
    "outage_hd",
    "diversity_order",
]

_SERIES_MAX_TERMS = 500
_SERIES_REL_TOL = 1e-14


@dataclass(frozen=True)
class OutageQuery:
    """SINR threshold ``z`` paired with the system it applies to."""

    params: SystemParams
    z: float

    def __post_init__(self) -> None:
        if not self.z > 0.0:
            raise ValueError("threshold z must be positive")

    @property
    def lam(self) -> float:
        """Normalized threshold d1^tau * z / rho1 (recomputed, never cached)."""
        return self.params.d1**self.params.tau * self.z / self.params.rho1


def link_coefficients(params: SystemParams) -> tuple[float, float, float]:
    """Scalar link coefficients (c1, c2, c3) used by the MRC/MRT special cases.

    c1 scales the first-hop SNR, c2 the loop interference (it carries the
    per-entry loop variance, so the interference variate stays unit mean),
    and c3 the harvested-power second hop.
    """
    d1t = params.d1**params.tau
    d2t = params.d2**params.tau
    c1 = params.p_s / d1t
    c2 = params.p_s * params.kappa * params.sigma2_li / d1t
    c3 = params.p_s * params.kappa / (d1t * d2t)
    return c1, c2, c3


def _clip_prob(x: float) -> float:
    return float(np.clip(x, 0.0, 1.0))


def _gamma_min_cdf(
    m_first: int, m_second: int, lam: float, c: float, spec: QuadratureSpec
) -> float:
    """CDF at ``lam`` of W * min(1, V/c) with W ~ Gamma(m_first), V ~ Gamma(m_second).

    This is the common shape of the ZF-style outage integrals.  Evaluated in
    deficiency form,

        F = P(m_first, lam)
            + int_lam^inf P(m_second, c*lam/x) x^(m_first-1) e^-x dx / Gamma(m_first),

    whose terms are all small and positive at high SNR; the survival form
    1 - int Q(...) would lose the tiny outage to cancellation.
    """
    norm = math.exp(ln_gamma(m_first))

    def integrand(x: float) -> float:
        return reg_gamma_p(m_second, c * lam / x) * x ** (m_first - 1) * math.exp(-x)

    tail = integrate_semi_infinite(integrand, lam, spec)
    return _clip_prob(reg_gamma_p(m_first, lam) + tail / norm)


def outage_tzf(q: OutageQuery, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Exact outage of the transmit-ZF scheme.

    With the loop fully nulled on the transmit side, the second hop keeps an
    (m_t - 1)-dimensional matched gain, giving

        F(z) = 1 - int_lam^inf Q(m_t - 1, (d2^tau/kappa) lam/x)
                   x^(m_r-1) e^-x / Gamma(m_r) dx.
    """
    p = q.params
    check_feasible(Scheme.TZF, p.m_r, p.m_t)
    return _gamma_min_cdf(p.m_r, p.m_t - 1, q.lam, p.d2**p.tau / p.kappa, spec)


def outage_tzf_asymptotic(q: OutageQuery) -> float:
    """High-SNR approximation of the transmit-ZF outage.

    Three regimes, keyed by m_t versus m_r + 1: the first hop dominates
    (decay lam^m_r, coefficient summed as a series over the second-hop tail),
    the balanced case (extra log(rho1) factor), and the second hop dominates
    (closed form, decay lam^(m_t-1)).
    """
    p = q.params
    check_feasible(Scheme.TZF, p.m_r, p.m_t)
    m_r, m_t = p.m_r, p.m_t
    lam = q.lam
    c = p.d2**p.tau / p.kappa

    if m_t == m_r + 1:
        bracket = 1.0 + (
            c**m_r
            / math.exp(ln_gamma(m_r))
            * (math.log(p.rho1) - math.log(p.d1**p.tau * q.z) + digamma(1.0))
        )
        return bracket * lam**m_r / math.exp(ln_gamma(m_r + 1))

    if m_t > m_r + 1:
        series = 0.0
        for k in range(_SERIES_MAX_TERMS + 1):
            if k == m_r - m_t + 1:
                continue
            log_mag = (
                (m_t + k - 1) * math.log(c)
                - ln_gamma(k + 1.0)
                - math.log(k + m_t - 1)
                - math.log(abs(m_r - m_t - k + 1))
            )
            sign = (-1.0) ** (k + 1) * math.copysign(1.0, m_r - m_t - k + 1)
            term = sign * math.exp(log_mag)
            series += term
            if abs(term) < _SERIES_REL_TOL * max(abs(series), 1e-300):
                break
        coeff = 1.0 / math.exp(ln_gamma(m_r + 1)) + series / math.exp(
            ln_gamma(m_t - 1) + ln_gamma(m_r)
        )
        return coeff * lam**m_r

    coeff = math.exp(ln_gamma(m_r - m_t + 1) - ln_gamma(m_t) - ln_gamma(m_r))
    return coeff * c ** (m_t - 1) * lam ** (m_t - 1)


def outage_rzf(q: OutageQuery, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Exact outage of the receive-ZF scheme.

    The projected combiner keeps a Beta(m_r - 1, 1) share of the first-hop
    gain while the second hop keeps the full m_t-dimensional matched gain:

        F(z) = 1 - Q(m_r, lam)
               + (1/Gamma(m_r)) [ int_lam^inf P(m_t, (d2^tau/kappa) lam/x)
                                      x^(m_r-1) e^-x dx
                                  + lam^(m_r-1) int_lam^inf
                                      Q(m_t, (d2^tau/kappa) lam/x) e^-x dx ].
    """
    p = q.params
    check_feasible(Scheme.RZF, p.m_r, p.m_t)
    lam = q.lam
    c = p.d2**p.tau / p.kappa
    norm = math.exp(ln_gamma(p.m_r))

    def integrand_p(x: float) -> float:
        return reg_gamma_p(p.m_t, c * lam / x) * x ** (p.m_r - 1) * math.exp(-x)

    def integrand_q(x: float) -> float:
        return reg_gamma_q(p.m_t, c * lam / x) * math.exp(-x)

    i_p = integrate_semi_infinite(integrand_p, lam, spec)
    i_q = integrate_semi_infinite(integrand_q, lam, spec)
    value = reg_gamma_p(p.m_r, lam) + (i_p + lam ** (p.m_r - 1) * i_q) / norm
    return _clip_prob(value)


def outage_rzf_asymptotic(q: OutageQuery) -> float:
    """High-SNR approximation of the receive-ZF outage.

    Keyed by m_r versus m_t + 1; the balanced case adds the two equal-order
    contributions of the projected first hop and the harvested second hop.
    """
    p = q.params
    check_feasible(Scheme.RZF, p.m_r, p.m_t)
    m_r, m_t = p.m_r, p.m_t
    lam = q.lam
    c = p.d2**p.tau / p.kappa

    if m_r < m_t + 1:
        return lam ** (m_r - 1) / math.exp(ln_gamma(m_r))
    if m_r == m_t + 1:
        bracket = 1.0 + c**m_t / math.exp(ln_gamma(m_t + 1))
        return bracket * lam**m_t / math.exp(ln_gamma(m_r))
    coeff = math.exp(ln_gamma(m_r - m_t) - ln_gamma(m_r) - ln_gamma(m_t + 1))
    return coeff * c**m_t * lam**m_t


def _mrc_case1(q: OutageQuery, spec: QuadratureSpec, interference_free: bool) -> float:
    p = q.params
    c1, c2, c3 = link_coefficients(p)
    lower = q.z / c1
    norm = math.exp(ln_gamma(p.m_r))

    def integrand(y: float) -> float:
        if interference_free or c2 == 0.0:
            keep = 1.0
        else:
            # max() guards endpoint rounding: the argument is >= 0 on y >= z/c1
            keep = meijer_special_cdf(max((c1 / q.z - 1.0 / y) / c2, 0.0), p.m_r, spec)
        return keep * math.exp(-q.z / (c3 * y)) * y ** (p.m_r - 1) * math.exp(-y) / norm

    return _clip_prob(1.0 - integrate_semi_infinite(integrand, lower, spec))


def outage_mrc_case1(q: OutageQuery, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Exact MRC/MRT outage for the single-transmit-antenna regime (m_t == 1).

    Conditioned on the first-hop gain y, the link survives when the matched
    combiner's loop pickup stays below (c1/z - 1/y)/c2 and the scalar second
    hop clears z/(c3 y); the survival factor of the second hop is
    exp(-z/(c3*y)) (the exponent carries c3, the second-hop coefficient).
    """
    p = q.params
    if p.m_t != 1:
        raise WrongCaseError("this MRC/MRT case needs m_t == 1")
    return _mrc_case1(q, spec, interference_free=False)


def _mrc_case1_alt_exponent(
    q: OutageQuery, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Variant of the m_t == 1 CDF with c2 in the survival exponent.

    Kept only so the validation runner can demonstrate against Monte Carlo
    which exponent is consistent; not part of the public surface.
    """
    p = q.params
    if p.m_t != 1:
        raise WrongCaseError("this MRC/MRT case needs m_t == 1")
    c1, c2, c3 = link_coefficients(p)
    if c2 == 0.0:
        return _mrc_case1(q, spec, interference_free=True)
    lower = q.z / c1
    norm = math.exp(ln_gamma(p.m_r))

    def integrand(y: float) -> float:
        keep = meijer_special_cdf(max((c1 / q.z - 1.0 / y) / c2, 0.0), p.m_r, spec)
        return keep * math.exp(-q.z / (c2 * y)) * y ** (p.m_r - 1) * math.exp(-y) / norm

    return _clip_prob(1.0 - integrate_semi_infinite(integrand, lower, spec))


def outage_mrc_case2(q: OutageQuery, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Exact MRC/MRT outage for the single-receive-antenna regime (m_r == 1).

    Here the scalar first hop fights an Exp(1) loop pickup (variance folded
    into c2) while the second hop keeps the full m_t-dimensional matched
    gain:

        F(z) = 1 - int_{z/c1}^inf (1 - e^{-(c1 x/z - 1)/(c2 x)})
                   Q(m_t, z/(c3 x)) e^-x dx.
    """
    p = q.params
    if p.m_r != 1:
        raise WrongCaseError("this MRC/MRT case needs m_r == 1")
    c1, c2, c3 = link_coefficients(p)
    lower = q.z / c1

    def integrand(x: float) -> float:
        if c2 == 0.0:
            keep = 1.0
        else:
            keep = -math.expm1(-max(c1 * x / q.z - 1.0, 0.0) / (c2 * x))
        return keep * reg_gamma_q(p.m_t, q.z / (c3 * x)) * math.exp(-x)

    return _clip_prob(1.0 - integrate_semi_infinite(integrand, lower, spec))


def outage_hd(q: OutageQuery, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Exact outage of the half-duplex baseline.

    Structurally the transmit-ZF CDF with the second-hop order raised from
    m_t - 1 to m_t and the harvested power doubled (energy spent over half
    the window):

        F(z) = 1 - int_lam^inf Q(m_t, (d2^tau/(2 kappa)) lam/x)
                   x^(m_r-1) e^-x / Gamma(m_r) dx.
    """
    p = q.params
    return _gamma_min_cdf(p.m_r, p.m_t, q.lam, p.d2**p.tau / (2.0 * p.kappa), spec)


def diversity_order(scheme: Scheme, m_r: int, m_t: int) -> int:
    """High-SNR outage decay order of the zero-forcing schemes.

    Only the ZF schemes have one: MRC/MRT floors out (interference grows
    with harvested power) and the optimal scheme is characterized by
    simulation only.
    """
    orders = {Scheme.TZF: min(m_r, m_t - 1), Scheme.RZF: min(m_r - 1, m_t)}
    if scheme not in orders:
        raise ValueError(f"diversity order is not characterized for {scheme}")
    check_feasible(scheme, m_r, m_t)
    return orders[scheme]
