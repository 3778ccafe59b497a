"""Analytic outage probabilities: exact single-integral CDFs and high-SNR laws.

Each scheme's end-to-end SINR factors into independent Gamma/Beta pieces, so
outage (the CDF of the SINR at the threshold z) reduces to one tail integral
over the source-relay gain X ~ Gamma(m_r).  With the normalized threshold

    lam = d1^tau * z / rho1,

the first hop surely fails for X < lam, and beyond it the two hops fail
independently given X = x:

    F(z) = P(m_r, lam) + int_lam^inf [A + (1 - A) P(m2, c lam/x)] f_X(x) dx,

where A = A(x) is the chance that the first hop fails given x, P(m2, c lam/x)
that the second hop does, and f_X the Gamma(m_r) density.  Each scheme
fixes the second-hop order m2, the coefficient c (d2^tau/kappa, halved for
half duplex) and A: 0 for transmit ZF and half duplex, (lam/x)^(m_r-1) for
receive ZF and e^-u(x) for MRC/MRT.

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
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import specfun
from .channel import SystemParams
from .precoding import Scheme, check_feasible

# integrate_semi_infinite and meijer_special_cdf stay importable here for the
# benchmark's trace hooks (perfbench/fdbench/trace.py); no CDF calls them.
from .specfun import (
    digamma,
    exp1,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
    ln_gamma,
    meijer_special_cdf,
    reg_gamma_p,
    reg_gamma_q,
)

__all__ = [
    "OutageQuery",
    "link_coefficients",
    "outage_tzf",
    "outage_tzf_batch",
    "outage_tzf_asymptotic",
    "outage_rzf",
    "outage_rzf_batch",
    "outage_rzf_asymptotic",
    "outage_mrc_mrt",
    "outage_mrc_mrt_batch",
    "outage_hd",
    "outage_hd_batch",
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


def _columns(
    queries: Sequence[OutageQuery], scheme: Scheme | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(m_r, m_t, lam, c = d2^tau/kappa) of each query, as arrays; raises
    InfeasibleSchemeError if ``scheme`` is infeasible at a query's antennas."""
    if scheme is not None:
        for q in queries:
            check_feasible(scheme, q.params.m_r, q.params.m_t)
    params = [q.params for q in queries]
    return (
        np.array([p.m_r for p in params], dtype=int),
        np.array([p.m_t for p in params], dtype=int),
        np.array([q.lam for q in queries], dtype=float),
        np.array([p.d2**p.tau / p.kappa for p in params], dtype=float),
    )


def _gamma_weight(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gamma(m) density x^(m-1) e^-x / Gamma(m), taken in log space so no
    power overflows where the exponential has already underflowed."""
    return np.exp((m - 1) * np.log(x) - x - specfun.special.gammaln(m))


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


def _outage_cdf(
    m_first: np.ndarray, m_second: np.ndarray, lam: np.ndarray, c: np.ndarray,
    first_fails: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """The module's outage formula with m_r = ``m_first`` and m2 = ``m_second``,
    one row per element of the arrays.

    ``first_fails(x, live)`` gives A at the gains x of the rows ``live`` of
    the arrays; None means A = 0, which makes F the CDF at ``lam`` of
    W * min(1, V/c) with W ~ Gamma(m_first), V ~ Gamma(m_second).  The terms
    are all small and positive at high SNR; the survival form
    1 - int (1 - A) Q(...) would lose the tiny outage to cancellation.  Rows
    where P(m_first, lam) rounds to 1 are 1, as no tail can change them, and
    are not integrated; rows where lam underflows to 0 are the CDF at 0,
    which is 0 (the integrand would start at 0 / 0).  The Gamma density is
    taken in log space, so far from high SNR no row meets 0 * inf.
    """
    head = specfun.special.gammainc(m_first, lam)
    live = (lam > 0.0) & (head < 1.0)
    if not live.any():
        return head
    a, b, c_lam = m_first[live, None], m_second[live, None], (c * lam)[live, None]

    def integrand(x: np.ndarray) -> np.ndarray:
        fails = specfun.special.gammainc(b, c_lam / x)
        if first_fails is not None:
            first = first_fails(x, live)
            fails = first + (1.0 - first) * fails
        return fails * _gamma_weight(a, x)

    tail, _ = integrate_semi_infinite_batch(integrand, lam[live])
    head[live] = np.clip(head[live] + tail, 0.0, 1.0)
    return head


def outage_tzf_batch(queries: Sequence[OutageQuery]) -> np.ndarray:
    """Exact outage of the transmit-ZF scheme at each query.

    With the loop fully nulled on the transmit side, the first hop fails
    only below lam (A = 0) and the second hop keeps an (m_t - 1)-dimensional
    matched gain: the module formula with m2 = m_t - 1 and c = d2^tau/kappa.
    """
    m_r, m_t, lam, c = _columns(queries, Scheme.TZF)
    return _outage_cdf(m_r, m_t - 1, lam, c)


def outage_tzf(q: OutageQuery) -> float:
    """Exact outage of the transmit-ZF scheme; n = 1 of ``outage_tzf_batch``."""
    return float(outage_tzf_batch([q])[0])


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
            -math.log(lam) - math.log(c) + 2.0 * digamma(1.0) + 1.0 / m_r - exp1(c)
        )
        return scale * (reg_gamma_q(m_r, c) + c**m_r / math.exp(ln_gamma(m_r)) * log_term)
    ratio = math.exp(ln_gamma(a - m_r) - ln_gamma(a))
    return scale * (reg_gamma_q(a, c) + c**m_r * ratio * reg_gamma_p(a - m_r, c))


def outage_rzf_batch(queries: Sequence[OutageQuery]) -> np.ndarray:
    """Exact outage of the receive-ZF scheme at each query.

    The projected combiner keeps a Beta(m_r - 1, 1) share of the first-hop
    gain x, which falls below lam with chance A = (lam/x)^(m_r-1), while the
    second hop keeps the full m_t-dimensional matched gain: the module
    formula with m2 = m_t and c = d2^tau/kappa.
    """
    m_r, m_t, lam, c = _columns(queries, Scheme.RZF)
    return _outage_cdf(
        m_r, m_t, lam, c, lambda x, live: (lam[live, None] / x) ** (m_r[live, None] - 1)
    )


def outage_rzf(q: OutageQuery) -> float:
    """Exact outage of the receive-ZF scheme; n = 1 of ``outage_rzf_batch``."""
    return float(outage_rzf_batch([q])[0])


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


def outage_mrc_mrt_batch(queries: Sequence[OutageQuery]) -> np.ndarray:
    """Exact outage of the MRC/MRT scheme at each query, at every antenna pair.

    Given the first-hop gain x, the first hop fails when the loop pickup,
    Exp(1) (``meijer_special_cdf``), exceeds u(x) = (x/lam - 1)/(c2 x), so
    A = e^-u, with c2 the loop coefficient of ``link_coefficients``; with no
    loop (c2 = 0) u is inf and A = 0.  The second hop keeps the full
    m_t-dimensional matched gain: the module formula with m2 = m_t and
    c = d2^tau/kappa.  Every term is positive, so a deep-tail outage keeps
    its relative accuracy.
    """
    m_r, m_t, lam, c = _columns(queries)
    c2 = np.array([link_coefficients(q.params)[1] for q in queries], dtype=float)

    def loop_fails(x: np.ndarray, live: np.ndarray) -> np.ndarray:
        # max() guards endpoint rounding (u >= 0 on x >= lam)
        k2 = c2[live, None]
        u = np.divide(np.maximum(x / lam[live, None] - 1.0, 0.0), k2 * x,
                      out=np.full_like(x, np.inf), where=k2 > 0.0)
        return np.exp(-u)

    return _outage_cdf(m_r, m_t, lam, c, loop_fails)


def outage_mrc_mrt(q: OutageQuery) -> float:
    """Exact outage of the MRC/MRT scheme; n = 1 of ``outage_mrc_mrt_batch``."""
    return float(outage_mrc_mrt_batch([q])[0])


def outage_hd_batch(queries: Sequence[OutageQuery]) -> np.ndarray:
    """Exact outage of the half-duplex baseline at each query.

    Structurally the transmit-ZF CDF (A = 0) with the second-hop order
    raised from m_t - 1 to m_t and the harvested power doubled (energy spent
    over half the window): the module formula with m2 = m_t and
    c = d2^tau/(2 kappa).
    """
    m_r, m_t, lam, c = _columns(queries)
    return _outage_cdf(m_r, m_t, lam, c / 2.0)


def outage_hd(q: OutageQuery) -> float:
    """Exact outage of the half-duplex baseline; n = 1 of ``outage_hd_batch``."""
    return float(outage_hd_batch([q])[0])


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
