"""Receive combiner / transmit beamformer design for each relaying scheme.

Every design is a batched kernel (leading axis = independent realizations):
``_beamformers_batch`` gives the closed-form MRC/MRT, transmit-ZF and
receive-ZF pairs, ``_optimal_wt_batch`` runs the optimal search, and both
are scored by the SINR kernel of :mod:`fdrelay.sinr`.  The Monte Carlo
driver calls the kernels directly; ``mrc_mrt``, ``tzf``, ``rzf`` and
``optimal`` are their n = 1 wrappers, which add the input checks.

The closed-form schemes are matched filters, optionally projected off the
loop direction.  The optimal joint design maximizes the end-to-end SINR:
for a fixed transmit beamformer the best combiner is the solution of a
generalized Rayleigh ratio (a rank-one-regularized matched filter), and the
remaining search over the beamformer is parameterized by the post-combining
loop leakage ``t``.  For each ``t`` the inner problem

    maximize |h_rd w|^2   s.t.  ||w|| = 1,  w^H (A - t C) w = t / (kt * S)

(with ``A = a a^H``, ``a = H_rr^H h_sr``, ``C = H_rr^H H_rr``, ``kt = kappa
p_s / d1^tau`` and ``S = ||h_sr||^2``) is solved exactly through the dual of
its semidefinite relaxation.  One batched eigensolve diagonalizes ``A - t C``
into ``diag(lam)``, and in that basis the top eigenvector of the pencil
``h h^H + mu (A - t C)`` is ``g / (theta - mu lam)`` in closed form (``g``
is ``h`` in the eigenbasis, ``theta`` the eigenvalue).  Only the ratio of
``(theta, mu)`` matters, so the multiplier is one angle on a fixed bracket,
along which the constraint value rises from ``lam_min`` to ``lam_max``; a
safeguarded Newton root-find on that angle meets the constraint.  With one
trace constraint plus the unit-trace normalization the relaxation is tight,
so that eigenvector is a global solution of the inner problem.

The outer 1-D search needs no grid.  With its optimal combiner the first hop
of a beamformer at leakage ``t`` is exactly ``c1 (S - t)`` (``c1 = p_s /
d1^tau``; Sherman-Morrison on the loop covariance), so it falls as ``t``
grows.  The best second hop at leakage ``t`` never falls on ``[0, t_mrt]``,
where ``t_mrt`` is the matched beamformer's own leakage: the gain
``|h_rd w|^2`` has no local maximum on the unit sphere but the matched
beamformer, so below ``t_mrt`` the best gain with leakage at most ``t`` is
reached at leakage exactly ``t``, and allowing more leakage can only raise
it.  So the min of the two peaks where they cross, or at an end of that
range, and the two ends are the transmit-ZF (``t = 0``) and matched
(``t = t_mrt``) beamformers.  The search scores both ends; a nonpositive
``second - first`` at the matched end or a nonnegative one at the
transmit-ZF end makes that end optimal, and otherwise it bisects on the
sign.  Every candidate is scored by its exactly achieved end-to-end SINR,
so search imprecision can only cost optimality, never feasibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemParams
from .errors import DegenerateChannelError, InfeasibleSchemeError
from .sinr import _fd_gains_batch, _fd_hops_from_gains

__all__ = [
    "Scheme",
    "BeamformingPair",
    "mrc_mrt",
    "tzf",
    "rzf",
    "optimal",
]

_DEGENERATE_NORM = 1e-14
_CROSSING_STEPS = 34  # halvings of the leakage bracket [0, t_mrt]


class Scheme(enum.Enum):
    """Relaying / interference-mitigation scheme."""

    OPTIMAL = "optimal"
    TZF = "tzf"
    RZF = "rzf"
    MRC_MRT = "mrc_mrt"
    HALF_DUPLEX = "half_duplex"


def check_feasible(scheme: Scheme, m_r: int, m_t: int) -> None:
    """Reject antenna counts that cannot realize ``scheme``.

    Nulling the loop costs one antenna on the side that does it: transmit
    ZF needs m_t > 1 and receive ZF needs m_r > 1.
    """
    if scheme is Scheme.TZF and m_t < 2:
        raise InfeasibleSchemeError("transmit ZF needs m_t > 1")
    if scheme is Scheme.RZF and m_r < 2:
        raise InfeasibleSchemeError("receive ZF needs m_r > 1")


@dataclass(frozen=True)
class BeamformingPair:
    """Unit-norm receive combiner (row) and transmit beamformer (column)."""

    w_r: np.ndarray  # (m_r,) complex, applied as a row vector
    w_t: np.ndarray  # (m_t,) complex, applied as a column vector
    scheme: Scheme

    def __post_init__(self) -> None:
        for name, vec in (("w_r", self.w_r), ("w_t", self.w_t)):
            norm = np.linalg.norm(vec)
            if not abs(norm - 1.0) <= 1e-10:  # also rejects NaN
                raise ValueError(f"{name} must be unit norm, got ||{name}|| = {norm}")


def _rows(ch: ChannelRealization) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One realization as an n = 1 batch, after the zero-norm input checks."""
    for name, vec in (("h_sr", ch.h_sr), ("h_rd", ch.h_rd)):
        if np.linalg.norm(vec) < _DEGENERATE_NORM:
            raise DegenerateChannelError(f"{name} has numerically zero norm")
    return ch.h_sr[None, :], ch.h_rd[None, :], ch.h_rr[None, :, :]


def _closed_form(ch: ChannelRealization, scheme: Scheme) -> BeamformingPair:
    check_feasible(scheme, ch.m_r, ch.m_t)
    wr, wt = _beamformers_batch(scheme, *_rows(ch))
    if not (wr.any() and wt.any()):
        raise DegenerateChannelError("zero-forcing projection has zero norm")
    return BeamformingPair(wr[0], wt[0], scheme)


def mrc_mrt(ch: ChannelRealization) -> BeamformingPair:
    """Match the combiner to the first hop and the beamformer to the second."""
    return _closed_form(ch, Scheme.MRC_MRT)


def tzf(ch: ChannelRealization) -> BeamformingPair:
    """Transmit zero-forcing: beamformer in the null space of the effective
    loop channel seen after matched combining, combiner matched to h_sr.

    Needs more than one transmit antenna.  If the effective loop channel
    vanishes the zero-forcing constraint is vacuous and the beamformer falls
    back to matched transmission.
    """
    return _closed_form(ch, Scheme.TZF)


def rzf(ch: ChannelRealization) -> BeamformingPair:
    """Receive zero-forcing: matched transmit beamformer, combiner projected
    orthogonal to the loop interference it would otherwise capture.

    Needs more than one receive antenna.  The combiner is the projected
    column conjugate-transposed into row form.  If the loop channel vanishes
    the combiner falls back to maximum ratio combining.
    """
    return _closed_form(ch, Scheme.RZF)


def optimal(ch: ChannelRealization, params: SystemParams) -> BeamformingPair:
    """Jointly SINR-optimal combiner/beamformer pair.

    Runs the leakage-parameterized search described in the module docstring
    and returns the best candidate together with its closed-form optimal
    combiner.  The matched and zero-forcing beamformers are always included
    as candidates, so the achieved SINR dominates every closed-form scheme.
    """
    hsr, hrd, hrr = _rows(ch)
    wt, _ = _optimal_wt_batch(params, hsr, hrd, hrr)
    w_r = _combiner_for_wt(params, hsr, hrr, wt)[0]
    return BeamformingPair(w_r, wt[0], Scheme.OPTIMAL)


# ---------------------------------------------------------------------------
# Batched engine (leading axis = independent realizations)
# ---------------------------------------------------------------------------


def _normalize_rows(w: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    return w / np.where(norms > 0.0, norms, 1.0)


def _loop_vanishes(d: np.ndarray, ref: np.ndarray, hrr: np.ndarray) -> np.ndarray:
    """Rows whose loop direction ``d`` is zero up to rounding.

    ``d`` is H_rr^H h_sr (transmit side) or H_rr h_rd^* (receive side) and
    ``ref`` the link vector it was formed from.  The rule
    ||d|| <= 1e-14 ||ref|| ||H_rr||_F is scale-invariant, so rescaling a
    channel never turns rounding residue into a loop to null, and an
    exactly zero loop always counts as vanished.
    """
    bound = (
        _DEGENERATE_NORM
        * np.linalg.norm(ref, axis=1)
        * np.linalg.norm(hrr, axis=(1, 2))
    )
    return np.sum(np.abs(d) ** 2, axis=1) <= bound**2


def _zero_force(x: np.ndarray, d: np.ndarray, vanished: np.ndarray) -> np.ndarray:
    """Rows of ``x`` with their component along ``d`` removed.

    ``vanished`` rows have no loop direction to null and keep ``x``, the
    matched filter.
    """
    d2 = np.maximum(np.sum(np.abs(d) ** 2, axis=1), 1e-300)
    proj = x - d * (np.einsum("ni,ni->n", np.conj(d), x) / d2)[:, None]
    return np.where(vanished[:, None], x, proj)


def _beamformers_batch(
    scheme: Scheme, hsr: np.ndarray, hrd: np.ndarray, hrr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm combiner and beamformer rows of a closed-form scheme.

    MRC/MRT matches both ends.  Transmit ZF keeps the matched combiner and
    projects the matched beamformer off the effective loop direction
    a = H_rr^H h_sr; receive ZF keeps the matched beamformer and projects
    the combiner off the loop interference v = H_rr h_rd^*.  A zero input
    or projection gives a zero row.
    """
    if scheme is Scheme.RZF:
        h = np.conj(hrd)
        v = np.einsum("nij,nj->ni", hrr, h)
        u = _zero_force(hsr, v, _loop_vanishes(v, hrd, hrr))
        return np.conj(_normalize_rows(u)), _normalize_rows(h)
    wr = _normalize_rows(np.conj(hsr))
    if scheme is Scheme.MRC_MRT:
        return wr, _normalize_rows(np.conj(hrd))
    if scheme is Scheme.TZF:
        a = np.einsum("nij,ni->nj", np.conj(hrr), hsr)
        h = np.conj(hrd)
        return wr, _normalize_rows(_zero_force(h, a, _loop_vanishes(a, hsr, hrr)))
    raise ValueError(f"{scheme} has no closed-form beamformers")


def _combiner_for_wt(
    params: SystemParams, hsr: np.ndarray, hrr: np.ndarray, wt: np.ndarray
) -> np.ndarray:
    """Closed-form SINR-optimal combiner for a given transmit beamformer.

    Sherman-Morrison applied to the rank-one-plus-identity interference
    covariance: x = h_sr - kt*S*(v^H h_sr)/(1 + kt*S*||v||^2) * v with
    v = H_rr w_t; the combiner row is x^H / ||x||.
    """
    d1t = params.d1**params.tau
    kt = params.kappa * params.p_s / d1t
    s = np.sum(np.abs(hsr) ** 2, axis=1)
    v = np.einsum("nij,nj->ni", hrr, wt)
    nv2 = np.sum(np.abs(v) ** 2, axis=1)
    vh = np.einsum("ni,ni->n", np.conj(v), hsr)
    coef = kt * s * vh / (1.0 + kt * s * nv2)
    x = hsr - coef[:, None] * v
    return np.conj(_normalize_rows(x))


def _hops_for_wt(
    params: SystemParams,
    hsr: np.ndarray,
    hrd: np.ndarray,
    hrr: np.ndarray,
    wt: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-hop SINR achieved by ``wt`` with its optimal combiner."""
    wr = _combiner_for_wt(params, hsr, hrr, wt)
    first, second, _ = _fd_hops_from_gains(params, *_fd_gains_batch(hsr, hrd, hrr, wr, wt))
    return first, second


def _top_eig_rank_one(psi: np.ndarray, lam: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of g g^H + mu diag(lam) at the multiplier angle ``psi``.

    An eigenvector v whose eigenvalue theta lies above every mu lam_i
    satisfies (theta - mu lam) v = g (g^H v), so v is proportional to g / d
    with d = theta - mu lam, and only the ratio of (theta, mu) matters.
    With ``lam`` sorted ascending, d_i = (theta - mu lam_min) - mu (lam_i -
    lam_min); writing (theta - mu lam_min, -mu) as (sin psi, cos psi), every
    d_i = sin psi + (lam_i - lam_min) cos psi is positive exactly for psi in
    (0, pi - atan(lam_max - lam_min)).  There v = g / d is the top
    eigenvector at mu = -r cos psi, with eigenvalue r (sin psi - lam_min cos
    psi), where r = sum |g_i|^2 / d_i.  Measuring the angle from the lam_min
    end keeps d_min = sin psi exact to rounding as psi -> 0, where the
    roots of small leakage levels lie.
    """
    d = np.sin(psi)[:, None] + np.cos(psi)[:, None] * (lam - lam[:, :1])
    return _normalize_rows(g / d)


def _constrained_gain_dirs(
    lam: np.ndarray, u_basis: np.ndarray, g: np.ndarray, s_target: np.ndarray
) -> np.ndarray:
    """Beamformers solving the leakage-constrained gain maximization.

    ``lam``/``u_basis`` diagonalize the constraint matrix M (``lam``
    ascending), ``g`` is the matched direction expressed in that basis and
    ``s_target`` the required quadratic-form value.  The top eigenvector
    w(psi) of :func:`_top_eig_rank_one` whose constraint value
    c(psi) = sum lam |w|^2 meets ``s_target`` is a global maximizer.  On the
    angle bracket of that function c rises from lam_min to lam_max: its
    slope c'(psi) = -2 sum (lam_i - c) |w_i|^2 d_i'/d_i is twice the
    covariance, under the weights |w|^2, of lam and -d'/d, and -d_i'/d_i
    increases with lam_i.  So a safeguarded Newton root-find on that fixed
    bracket takes the Newton step when it stays inside the bracket and
    bisects otherwise.  A row stops moving once it meets the residual, so
    each row takes the steps it would take alone, whatever else shares its
    batch.
    """
    span = np.maximum(np.abs(s_target), np.maximum(np.abs(lam).max(axis=1), 1e-30))
    shift = lam - lam[:, :1]
    lo = np.zeros(lam.shape[0])
    hi = np.pi - np.arctan(shift[:, -1])

    def probe(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w = _top_eig_rank_one(psi, lam, g)
        p = np.abs(w) ** 2
        c = np.sum(lam * p, axis=1)
        sin, cos = np.sin(psi)[:, None], np.cos(psi)[:, None]
        rate = (shift * sin - cos) / (sin + shift * cos)  # -d'/d
        return w, c, 2.0 * np.sum((lam - c[:, None]) * p * rate, axis=1)

    # psi = pi/2 is mu = 0, the matched direction g itself; below the
    # matched beamformer's own leakage the root lies beneath it.
    psi = np.full(lam.shape[0], 0.5 * np.pi)
    w, c, slope = probe(psi)
    for _ in range(40):
        below = c < s_target
        lo = np.where(below, psi, lo)
        hi = np.where(below, hi, psi)
        moving = ~(np.abs(c - s_target) <= 1e-12 * span)
        if not moving.any():
            break
        with np.errstate(all="ignore"):  # a flat or NaN slope bisects
            newton = psi - (c - s_target) / slope
        step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        w_step, c_step, slope_step = probe(step)
        psi = np.where(moving, step, psi)
        w = np.where(moving[:, None], w_step, w)
        c = np.where(moving, c_step, c)
        slope = np.where(moving, slope_step, slope)
    return np.einsum("nij,nj->ni", u_basis, w)


def _wt_at_leakage(
    params: SystemParams,
    hsr: np.ndarray,
    h_dir: np.ndarray,
    a_vec: np.ndarray,
    c_mat: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """Candidate beamformer for each trial's leakage level ``t``.

    Solves the inner problem of the module docstring in the eigenbasis of
    its constraint matrix ``a a^H - t C``; the loop direction ``a_vec`` must
    not vanish.  The search scores its ``t = 0`` end with the transmit-ZF
    beamformer itself.
    """
    kt = params.kappa * params.p_s / params.d1**params.tau
    m_mat = a_vec[:, :, None] * np.conj(a_vec[:, None, :]) - t[:, None, None] * c_mat
    lam, u_basis = np.linalg.eigh(m_mat)
    g = np.einsum("nij,ni->nj", np.conj(u_basis), h_dir)
    s_target = t / (kt * np.sum(np.abs(hsr) ** 2, axis=1))
    s_target = np.clip(s_target, lam[:, 0], lam[:, -1])
    return _normalize_rows(_constrained_gain_dirs(lam, u_basis, g, s_target))


def _optimal_wt_batch(
    params: SystemParams,
    hsr: np.ndarray,
    hrd: np.ndarray,
    hrr: np.ndarray,
    resolve_above: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best transmit beamformer and its achieved SINR for each realization.

    Scores the matched (``t = t_mrt``) and transmit-ZF (``t = 0``) seeds,
    then halves the bracket ``[lo, hi] = [0, t_mrt]`` up to
    ``_CROSSING_STEPS`` times toward the crossing of the first hop
    ``c1 (S - t)`` with the nondecreasing second hop.  Since min(first,
    second) peaks at that crossing or at a seed, the bisection is exact up
    to the final bracket width, and the best candidate seen is kept.

    No beamformer beats the bracket ceiling U = min(first(lo), second(hi)):
    for t < lo, f <= second(t) <= second(lo) < first(lo); on [lo, hi], f <=
    min(first(lo), second(hi)); for t > hi, f <= first(hi) <= second(hi).  So
    a realization stops once its incumbent reaches U.  U starts as the
    interference-free first hop c1 S against the matched second hop, and
    first(lo) becomes the transmit-ZF seed's achieved first hop, so a seed
    that wins on its hop signs ends the search with no leakage probe.  With
    ``resolve_above`` set (outage estimation), a realization also stops once
    its outage indicator "SINR < threshold" is decided: when its incumbent
    clears the threshold or U sits below it.  U comes from achieved
    candidates, so every stop is exact up to the root-find's residual.
    """
    n, m_t = hrd.shape
    _, matched = _beamformers_batch(Scheme.MRC_MRT, hsr, hrd, hrr)
    best_wt = matched.copy()
    first_mrt, second_hi = _hops_for_wt(params, hsr, hrd, hrr, best_wt)
    best_gamma = np.minimum(first_mrt, second_hi)

    if m_t == 1:
        return best_wt, best_gamma

    # Each realization's bracket [lo, hi] with the achieved first hop at lo
    # and second hop at hi; ``rows`` indexes the realizations still undecided.
    d1t = params.d1**params.tau
    s = np.sum(np.abs(hsr) ** 2, axis=1)
    a = np.einsum("nij,ni->nj", np.conj(hrr), hsr)
    first_lo = params.p_s / d1t * s
    lo, hi = np.zeros(n), np.zeros(n)

    def undecided(rows: np.ndarray) -> np.ndarray:
        ceiling = np.minimum(first_lo[rows], second_hi[rows])
        keep = ~(best_gamma[rows] >= ceiling)
        if resolve_above is not None:
            keep &= (best_gamma[rows] < resolve_above) & ~(ceiling < resolve_above)
        return rows[keep]

    def score(rows: np.ndarray, ch: tuple, wt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        first, second = _hops_for_wt(params, *ch, wt)
        gamma = np.minimum(first, second)
        better = gamma > best_gamma[rows]
        best_wt[rows[better]] = wt[better]
        best_gamma[rows[better]] = gamma[better]
        return first, second

    # Without a loop direction the matched combiner picks up no leakage, so
    # the matched beamformer is already optimal: search only the others.
    rows = undecided(np.flatnonzero(~_loop_vanishes(a, hsr, hrr)))
    if rows.size == 0:
        return best_wt, best_gamma

    # The bisection bracket starts as [0, t_mrt], where t_mrt is the matched
    # beamformer's own leakage level, and the transmit-ZF seed (t = 0) is
    # scored at its lower end.
    ch = hsr[rows], hrd[rows], hrr[rows]
    v_mrt = np.einsum("nij,nj->ni", ch[2], matched[rows])
    aw = np.abs(np.einsum("ni,ni->n", np.conj(ch[0]), v_mrt)) ** 2
    cw = np.sum(np.abs(v_mrt) ** 2, axis=1)
    kts = params.kappa * params.p_s / d1t * s[rows]
    hi[rows] = kts * aw / (1.0 + kts * cw)
    first_lo[rows] = score(rows, ch, _beamformers_batch(Scheme.TZF, *ch)[1])[0]
    rows = undecided(rows)

    # The first hop falls and the second does not, so the sign of
    # second - first locates their crossing.
    for _ in range(_CROSSING_STEPS):
        if rows.size == 0:
            break
        ch = hsr[rows], hrd[rows], hrr[rows]
        mid = 0.5 * (lo[rows] + hi[rows])
        c = np.einsum("nij,nik->njk", np.conj(ch[2]), ch[2])
        first, second = score(
            rows, ch, _wt_at_leakage(params, ch[0], np.conj(ch[1]), a[rows], c, mid)
        )
        up = second < first
        lo[rows[up]], first_lo[rows[up]] = mid[up], first[up]
        hi[rows[~up]], second_hi[rows[~up]] = mid[~up], second[~up]
        rows = undecided(rows)

    return best_wt, best_gamma
