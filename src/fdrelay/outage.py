"""Analytic outage probabilities: exact single-integral CDFs and high-SNR laws.

Each scheme's end-to-end SINR factors into independent Gamma/Beta pieces, so
outage (the CDF of the SINR at the threshold) reduces to one tail integral
over the source-relay channel gain.  The recurring normalized threshold is

    lam = d1^tau * z / rho1.

High-SNR approximations expose the diversity orders: min(m_r, m_t - 1) for
transmit ZF and min(m_r - 1, m_t) for receive ZF.  The MRC/MRT scheme keeps
loop interference that grows with the harvested power, so it has no diversity
order (its outage floors out).  Its CDF is exact at every antenna pair: the
matched w_r and w_t are unit vectors independent of H_rr, so the loop pickup
|w_r H_rr w_t|^2 is Exp(1) for every (m_r, m_t).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

from .channel import SystemParams
from .precoding import Scheme, check_feasible
from .specfun import (
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
    "outage_mrc_mrt",
    "outage_hd",
    "diversity_order",
]


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
    """Scalar link coefficients (c1, c2, c3) of the MRC/MRT outage.

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


def _inf_on_overflow(law: Callable[[OutageQuery], float]) -> Callable[[OutageQuery], float]:
    """``law``, returning inf where its value leaves the float range.

    A Python float power raises OverflowError instead of giving inf, and far
    from high SNR (rho1 = -3000 dB, say) lam^k is past the float range.
    """
    @functools.wraps(law)
    def guarded(q: OutageQuery) -> float:
        try:
            return law(q)
        except OverflowError:
            return math.inf

    return guarded


def _gamma_min_cdf(m_first: int, m_second: int, lam: float, c: float) -> float:
    """CDF at ``lam`` of W * min(1, V/c) with W ~ Gamma(m_first), V ~ Gamma(m_second).

    This is the common shape of the ZF-style outage integrals.  Evaluated in
    deficiency form,

        F = P(m_first, lam)
            + int_lam^inf P(m_second, c*lam/x) x^(m_first-1) e^-x dx / Gamma(m_first),

    whose terms are all small and positive at high SNR; the survival form
    1 - int Q(...) would lose the tiny outage to cancellation.  Where
    P(m_first, lam) rounds to 1 no tail can change F, so it is not
    integrated (far from high SNR its integrand is 0 * inf).
    """
    head = reg_gamma_p(m_first, lam)
    if head == 1.0:
        return 1.0
    norm = math.exp(ln_gamma(m_first))

    def integrand(x: float) -> float:
        return reg_gamma_p(m_second, c * lam / x) * x ** (m_first - 1) * math.exp(-x)

    tail = integrate_semi_infinite(integrand, lam)
    return _clip_prob(head + tail / norm)


def outage_tzf(q: OutageQuery) -> float:
    """Exact outage of the transmit-ZF scheme.

    With the loop fully nulled on the transmit side, the second hop keeps an
    (m_t - 1)-dimensional matched gain, giving

        F(z) = 1 - int_lam^inf Q(m_t - 1, (d2^tau/kappa) lam/x)
                   x^(m_r-1) e^-x / Gamma(m_r) dx.
    """
    p = q.params
    check_feasible(Scheme.TZF, p.m_r, p.m_t)
    return _gamma_min_cdf(p.m_r, p.m_t - 1, q.lam, p.d2**p.tau / p.kappa)


@_inf_on_overflow
def outage_tzf_asymptotic(q: OutageQuery) -> float:
    """High-SNR approximation of the transmit-ZF outage.

    Three regimes, keyed by a = m_t - 1 versus m_r, each in closed form with
    c = d2^tau/kappa.  Substituting x = lam*y in the exact CDF leaves
    lam^m_r/Gamma(m_r) * int_1^inf P(a, c/y) y^(m_r-1) dy, which converges
    for a > m_r; integrating by parts in u = c/y gives

        F ~ lam^m_r/m_r! [Q(a, c) + c^m_r Gamma(a-m_r)/Gamma(a) P(a-m_r, c)].

    At a = m_r the integral diverges as -ln(lam), and the e^-x factor cut
    off at y ~ 1/lam gives the balanced law

        F ~ lam^m_r/m_r! [Q(m_r, c) + c^m_r/Gamma(m_r)
                          (-ln(lam*c) + 2 psi(1) + 1/m_r - E1(c))].

    For a < m_r the second hop dominates, with decay lam^(m_t-1).  A law
    past the float range is inf, and the balanced law at a lam that
    underflows to 0 is 0.
    """
    p = q.params
    check_feasible(Scheme.TZF, p.m_r, p.m_t)
    m_r, a = p.m_r, p.m_t - 1
    lam = q.lam
    c = p.d2**p.tau / p.kappa
    if a < m_r:
        coeff = math.exp(ln_gamma(m_r - a) - ln_gamma(a + 1) - ln_gamma(m_r))
        return coeff * c**a * lam**a

    scale = lam**m_r / math.exp(ln_gamma(m_r + 1))
    if a == m_r:
        if lam == 0.0:  # lam^m_r ln(lam) -> 0, where lam underflows
            return 0.0
        log_term = (
            -math.log(lam) - math.log(c) + 2.0 * digamma(1.0) + 1.0 / m_r - float(exp1(c))
        )
        return scale * (reg_gamma_q(m_r, c) + c**m_r / math.exp(ln_gamma(m_r)) * log_term)
    ratio = math.exp(ln_gamma(a - m_r) - ln_gamma(a))
    return scale * (reg_gamma_q(a, c) + c**m_r * ratio * reg_gamma_p(a - m_r, c))


def outage_rzf(q: OutageQuery) -> float:
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
    unprojected = _gamma_min_cdf(p.m_r, p.m_t, lam, c)
    if unprojected == 1.0:
        return 1.0

    def integrand_q(x: float) -> float:
        return reg_gamma_q(p.m_t, c * lam / x) * math.exp(-x)

    i_q = integrate_semi_infinite(integrand_q, lam)
    projected = lam ** (p.m_r - 1) * i_q / math.exp(ln_gamma(p.m_r))
    return _clip_prob(unprojected + projected)


@_inf_on_overflow
def outage_rzf_asymptotic(q: OutageQuery) -> float:
    """High-SNR approximation of the receive-ZF outage.

    Keyed by m_r versus m_t + 1; the balanced case adds the two equal-order
    contributions of the projected first hop and the harvested second hop.
    For m_r < m_t + 1 only the leading term lam^(m_r-1)/Gamma(m_r) is kept,
    and where c = d2^tau/kappa is large the next-order second-hop term rules
    far past 40 dB: at (m_r, m_t) = (4, 4), d2 = 3, alpha = 0.1 (c = 243) the
    law is 2.37e-5 of the exact ``outage_rzf`` at 40 dB and 0.054 at 80 dB.
    A law past the float range is inf.
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


def outage_mrc_mrt(q: OutageQuery) -> float:
    """Exact outage of the MRC/MRT scheme at every antenna pair.

    Outage is a first-hop gain x below z/c1, a loop pickup above
    u(x) = (c1 x/z - 1)/(c2 x), or a pickup below it and a short second hop:

        F(z) = P(m_r, z/c1) + int_{z/c1}^inf [e^-u + F_loop(u) P(m_t, z/(c3 x))]
                                  x^(m_r-1) e^-x / Gamma(m_r) dx

    with F_loop the Exp(1) CDF of the loop pickup (``meijer_special_cdf``) and
    x the Gamma(m_r) first-hop gain; the second-hop factor carries c3, the
    second-hop coefficient.  Every term is positive, so a deep-tail outage
    keeps its relative accuracy.
    """
    p = q.params
    c1, c2, c3 = link_coefficients(p)
    norm = math.exp(ln_gamma(p.m_r))

    def integrand(x: float) -> float:
        if c2 == 0.0:
            loop_fails, loop_holds = 0.0, 1.0
        else:
            # max() guards endpoint rounding: u >= 0 on x >= z/c1
            u = max(c1 * x / q.z - 1.0, 0.0) / (c2 * x)
            loop_fails, loop_holds = math.exp(-u), meijer_special_cdf(u, p.m_r)
        fails = loop_fails + loop_holds * reg_gamma_p(p.m_t, q.z / (c3 * x))
        return fails * x ** (p.m_r - 1) * math.exp(-x) / norm

    lower = q.z / c1
    return _clip_prob(reg_gamma_p(p.m_r, lower) + integrate_semi_infinite(integrand, lower))


def outage_hd(q: OutageQuery) -> float:
    """Exact outage of the half-duplex baseline.

    Structurally the transmit-ZF CDF with the second-hop order raised from
    m_t - 1 to m_t and the harvested power doubled (energy spent over half
    the window):

        F(z) = 1 - int_lam^inf Q(m_t, (d2^tau/(2 kappa)) lam/x)
                   x^(m_r-1) e^-x / Gamma(m_r) dx.
    """
    p = q.params
    return _gamma_min_cdf(p.m_r, p.m_t, q.lam, p.d2**p.tau / (2.0 * p.kappa))


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
