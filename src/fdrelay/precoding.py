"""Receive combiner / transmit beamformer design for each relaying scheme.

Every design is a batched kernel (leading axis = independent realizations):
``_beamformers_batch`` gives the closed-form MRC/MRT, transmit-ZF and
receive-ZF pairs, ``_optimal_wt_batch`` runs the optimal search on the
alpha-free arrays of ``_optimal_seed_gains`` and returns the best pair it
scored, and both are scored by the SINR kernel of :mod:`fdrelay.sinr`.  The
Monte Carlo driver calls the kernels directly; ``mrc_mrt``, ``tzf``, ``rzf``
and ``optimal`` are their n = 1 wrappers, which add the input checks.

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
safeguarded Newton root-find on that angle meets the constraint, started
from the angle the draw's previous leakage probe ended on.  With one
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
transmit-ZF end makes that end optimal.  Otherwise it finds the crossing
with safeguarded Newton steps on the gap ``g = second - first``: by the
envelope theorem the inner problem's multiplier gives the slope of the best
second hop in ``t`` at no extra solve, and a step that leaves the bracket
of sign changes bisects it instead.  Every candidate is scored by its
exactly achieved end-to-end SINR, so search imprecision can only cost
optimality, never feasibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemParams
from .errors import DegenerateChannelError, InfeasibleSchemeError
from .sinr import _fd_hops_from_gains

__all__ = [
    "Scheme",
    "BeamformingPair",
    "mrc_mrt",
    "tzf",
    "rzf",
    "optimal",
]

_DEGENERATE_NORM = 1e-14


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

    The n = 1 call of the leakage-parameterized search described in the
    module docstring, which returns the best candidate together with the
    closed-form optimal combiner it was scored with.  The matched and
    zero-forcing beamformers are always included as candidates, so the
    achieved SINR dominates every closed-form scheme.
    """
    (w_r, w_t), _ = _optimal_wt_batch(params, *_rows(ch))
    return BeamformingPair(w_r[0], w_t[0], Scheme.OPTIMAL)


# ---------------------------------------------------------------------------
# Batched engine (leading axis = independent realizations)
# ---------------------------------------------------------------------------


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x) ** 2, axis=1)


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
    return _sq_norms(d) <= bound**2


def _zero_force(x: np.ndarray, d: np.ndarray, vanished: np.ndarray) -> np.ndarray:
    """Rows of ``x`` with their component along ``d`` removed.

    ``vanished`` rows have no loop direction to null and keep ``x``, the
    matched filter.
    """
    d2 = np.maximum(_sq_norms(d), 1e-300)
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
        return wr, _transmit_zf(hsr, hrd, hrr)[2]
    raise ValueError(f"{scheme} has no closed-form beamformers")


def _transmit_zf(
    hsr: np.ndarray, hrd: np.ndarray, hrr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loop direction a = H_rr^H h_sr, the rows where it vanishes, and
    the unit transmit-ZF beamformer: the matched h_rd^* projected off a."""
    a = np.einsum("nij,ni->nj", np.conj(hrr), hsr)
    vanished = _loop_vanishes(a, hsr, hrr)
    return a, vanished, _normalize_rows(_zero_force(np.conj(hrd), a, vanished))


def _wt_gains(
    hsr: np.ndarray, hrd: np.ndarray, hrr: np.ndarray, wt: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Alpha-free arrays that fix the hops of ``wt`` under its optimal combiner.

    The beamformer rows w_t, the loop v = H_rr w_t, ||v||^2, v^H h_sr and
    the relay-destination gain |h_rd w_t|^2.
    """
    v = np.einsum("nij,nj->ni", hrr, wt)
    vh = np.einsum("ni,ni->n", np.conj(v), hsr)
    return wt, v, _sq_norms(v), vh, np.abs(np.einsum("ni,ni->n", hrd, wt)) ** 2


def _combiner(
    params: SystemParams, hsr: np.ndarray, s: np.ndarray, gains: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Closed-form SINR-optimal combiner for a beamformer's ``_wt_gains``.

    Sherman-Morrison applied to the rank-one-plus-identity interference
    covariance: x = h_sr - kt*S*(v^H h_sr)/(1 + kt*S*||v||^2) * v with
    S = ``s`` = ||h_sr||^2 and v = H_rr w_t; the combiner row is x^H / ||x||.
    """
    _, v, nv2, vh, _ = gains
    kt = params.kappa * params.p_s / params.d1**params.tau
    coef = kt * s * vh / (1.0 + kt * s * nv2)
    x = hsr - coef[:, None] * v
    return np.conj(_normalize_rows(x))


def _hops_from_wt_gains(
    params: SystemParams, hsr: np.ndarray, s: np.ndarray, gains: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both hops of a beamformer under its optimal combiner, and that combiner.

    ``gains`` are its ``_wt_gains`` and ``s`` is S = ||h_sr||^2.
    """
    wr = _combiner(params, hsr, s, gains)
    _, v, _, _, rd = gains
    sig = np.abs(np.einsum("ni,ni->n", wr, hsr)) ** 2
    leak = np.abs(np.einsum("ni,ni->n", wr, v)) ** 2
    first, second, _ = _fd_hops_from_gains(params, s, sig, leak, rd)
    return first, second, wr


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
    lam: np.ndarray, u_basis: np.ndarray, g: np.ndarray, s_target: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Beamformers solving the leakage-constrained gain maximization, and their angles.

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
    bisects otherwise.  ``psi`` is each row's first angle, clamped strictly
    inside the bracket; the angle each row ends on is returned with the
    beamformers, so a caller can start its next root-find there.  A row
    stops once it meets the residual, and each step probes only the rows
    still moving, so each row takes the steps it would take alone, whatever
    else shares its batch.
    """
    span = np.maximum(np.abs(s_target), np.maximum(np.abs(lam).max(axis=1), 1e-30))
    shift = lam - lam[:, :1]
    lo = np.zeros(lam.shape[0])
    hi = np.pi - np.arctan(shift[:, -1])
    psi = np.clip(psi, 2.0**-40 * hi, (1.0 - 2.0**-40) * hi)

    def probe(psi: np.ndarray, rows: np.ndarray | slice) -> tuple[np.ndarray, ...]:
        lam_r, shift_r = lam[rows], shift[rows]
        w = _top_eig_rank_one(psi, lam_r, g[rows])
        p = np.abs(w) ** 2
        c = np.sum(lam_r * p, axis=1)
        sin, cos = np.sin(psi)[:, None], np.cos(psi)[:, None]
        rate = (shift_r * sin - cos) / (sin + shift_r * cos)  # -d'/d
        return w, c, 2.0 * np.sum((lam_r - c[:, None]) * p * rate, axis=1)

    # ``live`` indexes the rows that have not met the residual yet.
    w, c, slope = probe(psi, slice(None))
    live = np.arange(lam.shape[0])
    for _ in range(40):
        miss = c[live] - s_target[live]
        below = miss < 0.0
        lo[live[below]], hi[live[~below]] = psi[live[below]], psi[live[~below]]
        moving = ~(np.abs(miss) <= 1e-12 * span[live])
        live, miss = live[moving], miss[moving]
        with np.errstate(all="ignore"):  # a flat or NaN slope bisects
            newton = psi[live] - miss / slope[live]
        lo_r, hi_r = lo[live], hi[live]
        step = np.where((newton > lo_r) & (newton < hi_r), newton, 0.5 * (lo_r + hi_r))
        # A bracket too narrow to split ends the row, which never probes an
        # end: there some d_i is 0.
        split = (step > lo_r) & (step < hi_r)
        live = live[split]
        if live.size == 0:
            break
        psi[live] = step[split]
        w[live], c[live], slope[live] = probe(psi[live], live)
    return np.einsum("nij,nj->ni", u_basis, w), psi


def _wt_at_leakage(
    params: SystemParams,
    hsr: np.ndarray,
    h_dir: np.ndarray,
    a_vec: np.ndarray,
    c_mat: np.ndarray,
    t: np.ndarray,
    psi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate beamformer for each trial's leakage level ``t``, and its angle.

    Solves the inner problem of the module docstring in the eigenbasis of
    its constraint matrix ``a a^H - t C``; the loop direction ``a_vec`` must
    not vanish.  The multiplier-angle root-find starts at ``psi`` (pi/2 is
    mu = 0, the matched direction itself) and the angle it ends on is
    returned.  The search scores its ``t = 0`` end with the transmit-ZF
    beamformer itself.
    """
    kt = params.kappa * params.p_s / params.d1**params.tau
    m_mat = a_vec[:, :, None] * np.conj(a_vec[:, None, :]) - t[:, None, None] * c_mat
    lam, u_basis = np.linalg.eigh(m_mat)
    g = np.einsum("nij,ni->nj", np.conj(u_basis), h_dir)
    s_target = t / (kt * _sq_norms(hsr))
    s_target = np.clip(s_target, lam[:, 0], lam[:, -1])
    dirs, psi = _constrained_gain_dirs(lam, u_basis, g, s_target, psi)
    return _normalize_rows(dirs), psi


def _gap_slope(
    params: SystemParams,
    s: np.ndarray,
    h_dir: np.ndarray,
    a_vec: np.ndarray,
    c_mat: np.ndarray,
    t: np.ndarray,
    wt: np.ndarray,
) -> np.ndarray:
    """Slope g'(t) of the hop gap g = second - first at leakage probes ``wt``.

    ``wt`` are the beamformers :func:`_wt_at_leakage` returned for the
    levels ``t`` and ``s`` is S = ||h_sr||^2.  The first hop is c1 (S - t),
    and the second is c3 S V(t), where V(t) is the best gain |h_rd w|^2 at
    leakage t.  By the envelope theorem V'(t) is the derivative of the
    Lagrangian in t at the solution: dV/dt = -mu (w^H C w + 1 / (kt S)),
    where mu is the multiplier of the leakage constraint.  Stationarity
    h (h^H w) + mu M w = theta w with M = a a^H - t C and h = ``h_dir``
    fixes mu from the component of M w orthogonal to w:
    mu = -(P M w)^H h (h^H w) / ||P M w||^2 with P = I - w w^H.  So
    g'(t) = c1 - c3 S mu (w^H C w + 1 / (kt S)), with c1 = p_s / d1^tau,
    kt = kappa c1 and c3 = kt / d2^tau.  Where M w is parallel to w the
    slope is NaN or infinite and the search bisects.
    """
    c1 = params.p_s / params.d1**params.tau
    kt = params.kappa * c1
    cw = np.einsum("nij,nj->ni", c_mat, wt)
    mw = a_vec * np.einsum("ni,ni->n", np.conj(a_vec), wt)[:, None] - t[:, None] * cw
    pmw = mw - wt * np.einsum("ni,ni->n", np.conj(wt), mw)[:, None]
    hw = np.einsum("ni,ni->n", np.conj(h_dir), wt)
    wcw = np.einsum("ni,ni->n", np.conj(wt), cw).real
    with np.errstate(all="ignore"):
        mu = -(np.einsum("ni,ni->n", np.conj(pmw), h_dir) * hw).real / _sq_norms(pmw)
        return c1 - kt / params.d2**params.tau * s * mu * (wcw + 1.0 / (kt * s))


def _optimal_seed_gains(
    hsr: np.ndarray, hrd: np.ndarray, hrr: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The alpha-free arrays ``_optimal_wt_batch`` holds for its draws.

    S = ||h_sr||^2, the loop direction a = H_rr^H h_sr and the rows where
    it vanishes, then the ``_wt_gains`` of the matched seed and of the
    transmit-ZF seed.  Every array has one row per draw.  The seeds are the
    transmit sides of ``_beamformers_batch``, without the combiners it
    would also make.
    """
    a, vanished, tzf_wt = _transmit_zf(hsr, hrd, hrr)
    matched = _wt_gains(hsr, hrd, hrr, _normalize_rows(np.conj(hrd)))
    return _sq_norms(hsr), a, vanished, *matched, *_wt_gains(hsr, hrd, hrr, tzf_wt)


def _optimal_wt_batch(
    params: SystemParams,
    hsr: np.ndarray,
    hrd: np.ndarray,
    hrr: np.ndarray,
    *held: np.ndarray,
    resolve_above: float | None = None,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Best combiner/beamformer rows and their achieved SINR for each realization.

    Returns ``(w_r, w_t), gamma``: the unit combiner and beamformer rows of
    the best candidate scored, the combiner being the closed-form optimal
    one that candidate was scored with, and min(first, second) of that
    pair.  ``held`` is ``_optimal_seed_gains`` of the draws; without it the
    call makes them.  They are alpha-free, so the Monte Carlo driver makes
    them once per chunk and reuses them at every alpha probe.  Per call,
    only the seeds' combiners are solved again at kappa(alpha); the t_mrt
    bracket end, the leakage probes and their scoring are per call too.

    Scores the matched (``t = t_mrt``) and transmit-ZF (``t = 0``) seeds,
    then walks each row toward the crossing of the first hop ``c1 (S - t)``
    with the nondecreasing second hop inside the bracket ``[lo, hi] = [0,
    t_mrt]``.  Every probe moves ``lo`` or ``hi`` on the sign of the gap
    g = second - first, and the next probe is a Newton step on g from the
    last one, with the slope of :func:`_gap_slope`, when it lands strictly
    inside the bracket, and the bracket midpoint otherwise.  The step is
    taken in u = sqrt(t): near t = 0 the second hop grows like sqrt(t),
    which sends a Newton step in t from above the crossing below 0, while g
    is smooth in u.  A row stops after scoring a step of at most 2^-34
    t_mrt, the bracket width at which a bisection of 34 halvings ends, or
    when its Newton step rounds to nothing.  Since min(first, second) peaks
    at that crossing or at a seed, the best candidate seen is kept.  Each
    leakage probe's multiplier-angle root-find starts from the angle the
    row's previous one ended on (pi/2 on its first), so nearby probes take
    fewer angle steps.  Each row takes the steps it would take alone,
    whatever else shares its batch.

    No beamformer beats the bracket ceiling U = min(first(lo), second(hi)):
    for t < lo, f <= second(t) <= second(lo) < first(lo); on [lo, hi], f <=
    min(first(lo), second(hi)); for t > hi, f <= first(hi) <= second(hi).  So
    a realization stops once its incumbent reaches U.  U starts as the
    interference-free first hop c1 S against the matched second hop, and
    first(lo) becomes the transmit-ZF seed's achieved first hop, so a seed
    that wins on its hop signs ends the search with no leakage probe; the
    transmit-ZF seed is scored only on the rows the matched one leaves
    undecided.  With ``resolve_above`` set (outage estimation), a
    realization also stops once its outage indicator "SINR < threshold" is
    decided: when its incumbent clears the threshold or U sits below it.  U
    comes from achieved candidates, so every stop is exact up to the
    root-find's residual.
    """
    n, m_t = hrd.shape
    s, a, vanished, *seeds = held or _optimal_seed_gains(hsr, hrd, hrr)
    matched, tzf_seed = seeds[:5], seeds[5:]
    best_wt = matched[0].copy()
    first_mrt, second_hi, best_wr = _hops_from_wt_gains(params, hsr, s, matched)
    best_gamma = np.minimum(first_mrt, second_hi)

    if m_t == 1:
        return (best_wr, best_wt), best_gamma

    # Each realization's bracket [lo, hi] with the achieved first hop at lo
    # and second hop at hi; ``rows`` indexes the realizations still undecided.
    d1t = params.d1**params.tau
    first_lo = params.p_s / d1t * s
    lo, hi = np.zeros(n), np.zeros(n)

    def undecided(rows: np.ndarray) -> np.ndarray:
        ceiling = np.minimum(first_lo[rows], second_hi[rows])
        keep = ~(best_gamma[rows] >= ceiling)
        if resolve_above is not None:
            keep &= (best_gamma[rows] < resolve_above) & ~(ceiling < resolve_above)
        return rows[keep]

    def score(rows: np.ndarray, h_sr: np.ndarray, gains: tuple) -> tuple[np.ndarray, np.ndarray]:
        first, second, wr = _hops_from_wt_gains(params, h_sr, s[rows], gains)
        gamma = np.minimum(first, second)
        better = gamma > best_gamma[rows]
        won = rows[better]
        best_wr[won], best_wt[won], best_gamma[won] = wr[better], gains[0][better], gamma[better]
        return first, second

    # Without a loop direction the matched combiner picks up no leakage, so
    # the matched beamformer is already optimal: search only the others.
    rows = undecided(np.flatnonzero(~vanished))
    if rows.size == 0:
        return (best_wr, best_wt), best_gamma

    # The bracket starts as [0, t_mrt], where t_mrt is the matched
    # beamformer's own leakage level, and the transmit-ZF seed (t = 0) is
    # scored at its lower end.
    _, _, nv2, vh, _ = matched
    kts = params.kappa * params.p_s / d1t * s[rows]
    hi[rows] = kts * np.abs(vh[rows]) ** 2 / (1.0 + kts * nv2[rows])
    first_lo[rows] = score(rows, hsr[rows], tuple(x[rows] for x in tzf_seed))[0]
    rows = undecided(rows)

    # g = second - first rises through the crossing.  Each row starts at the
    # matched end, where mu = 0 and so g' = c1, and takes Newton steps on g
    # as a function of u = sqrt(t): with q = g / g', u - q / (2u) squares to
    # t - q + q^2 / (4t), and it is positive while q < 2t.
    t, gap, slope = hi.copy(), second_hi - first_mrt, np.full(n, params.p_s / d1t)
    psi = np.full(n, 0.5 * np.pi)
    tol = 2.0**-34 * hi
    while rows.size:
        with np.errstate(all="ignore"):  # a flat or NaN slope bisects
            q = gap[rows] / slope[rows]
            newton = t[rows] - q + q * q / (4.0 * t[rows])
        # A Newton step that rounds to nothing leaves a row at its crossing.
        keep = newton != t[rows]
        rows, q, newton = rows[keep], q[keep], newton[keep]
        if rows.size == 0:
            break
        t_r, lo_r, hi_r = t[rows], lo[rows], hi[rows]
        inside = (q < 2.0 * t_r) & (newton > lo_r) & (newton < hi_r)
        step = np.where(inside, newton, 0.5 * (lo_r + hi_r))
        # The point a step of at most tol lands on is scored, then the row stops.
        moving = np.abs(step - t_r) > tol[rows]
        ch = hsr[rows], hrd[rows], hrr[rows]
        h_dir, a_r = np.conj(ch[1]), a[rows]
        c = np.einsum("nij,nik->njk", np.conj(ch[2]), ch[2])
        wt, psi[rows] = _wt_at_leakage(params, ch[0], h_dir, a_r, c, step, psi[rows])
        first, second = score(rows, ch[0], _wt_gains(*ch, wt))
        t[rows], gap[rows] = step, second - first
        slope[rows] = _gap_slope(params, s[rows], h_dir, a_r, c, step, wt)
        up = second < first
        lo[rows[up]], first_lo[rows[up]] = step[up], first[up]
        hi[rows[~up]], second_hi[rows[~up]] = step[~up], second[~up]
        rows = undecided(rows[moving])

    return (best_wr, best_wt), best_gamma
