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
its semidefinite relaxation: bisection on the multiplier ``mu`` applied to the
pencil ``h h^H + mu (A - t C)``, taking the top eigenvector at each step.
With one trace constraint plus the unit-trace normalization the relaxation is
tight, so the top eigenvector is a global solution of the inner problem.  The
outer 1-D search sweeps a coarse ``t`` grid, then bisects for the crossing
of the decreasing first hop with the nondecreasing second hop (the min of
the two is maximized at that crossing or at an end of the range); every
candidate is scored by its exactly achieved end-to-end SINR, so search
imprecision can only cost optimality, never feasibility.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemParams
from .errors import DegenerateChannelError, InfeasibleSchemeError
from .sinr import _fd_hops_batch

__all__ = [
    "Scheme",
    "BeamformingPair",
    "OptimalSearchSpec",
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
            if abs(norm - 1.0) > 1e-10:
                raise ValueError(f"{name} must be unit norm, got ||{name}|| = {norm}")


@dataclass(frozen=True)
class OptimalSearchSpec:
    """Effort of the optimal scheme's one-dimensional leakage search."""

    t_grid_points: int = 33
    refine_iters: int = 20

    def __post_init__(self) -> None:
        if min(self.t_grid_points, self.refine_iters) < 1:
            raise ValueError("search sizes must be positive")


DEFAULT_SEARCH = OptimalSearchSpec()


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


def optimal(
    ch: ChannelRealization,
    params: SystemParams,
    spec: OptimalSearchSpec = DEFAULT_SEARCH,
) -> BeamformingPair:
    """Jointly SINR-optimal combiner/beamformer pair.

    Runs the leakage-parameterized search described in the module docstring
    and returns the best candidate together with its closed-form optimal
    combiner.  The matched and zero-forcing beamformers are always included
    as candidates, so the achieved SINR dominates every closed-form scheme.
    """
    hsr, hrd, hrr = _rows(ch)
    wt, _ = _optimal_wt_batch(params, hsr, hrd, hrr, spec)
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
    first, second, _ = _fd_hops_batch(params, hsr, hrd, hrr, wr, wt)
    return first, second


def _top_eig_rank_one(lam_mu: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Top eigenvector of diag(lam_mu) + g g^H, in the diagonalizing basis.

    The largest eigenvalue is the root of the secular function
    phi(theta) = sum_i |g_i|^2 / (theta - lam_mu_i) = 1 on
    (max(lam_mu), max(lam_mu) + ||g||^2]; phi is convex and decreasing
    there, so Newton started at the right end converges monotonically.
    The eigenvector is (theta I - diag(lam_mu))^{-1} g.
    """
    g2 = np.abs(g) ** 2
    total = np.maximum(np.sum(g2, axis=1), 1e-300)
    dmax = lam_mu.max(axis=1)
    lo = dmax.copy()          # phi -> +inf here
    hi = dmax + total         # phi <= 1 here
    theta = 0.5 * (lo + hi)
    floor = 1e-16 * total
    for _ in range(30):
        denom = np.maximum(theta[:, None] - lam_mu, floor[:, None])
        frac = g2 / denom
        phi = np.sum(frac, axis=1)
        dphi = -np.sum(frac / denom, axis=1)
        above = phi > 1.0
        lo = np.where(above, theta, lo)
        hi = np.where(above, hi, theta)
        if np.all(hi - lo <= 1e-14 * np.maximum(hi - dmax, floor)):
            theta = 0.5 * (lo + hi)
            break
        # Newton step, bisection fallback when it leaves the bracket.
        newton = theta - (phi - 1.0) / np.minimum(dphi, -1e-300)
        mid = 0.5 * (lo + hi)
        theta = np.where((newton > lo) & (newton < hi), newton, mid)
    w = g / np.maximum(theta[:, None] - lam_mu, floor[:, None])
    return _normalize_rows(w)


def _constrained_gain_dirs(
    lam: np.ndarray,
    u_basis: np.ndarray,
    g: np.ndarray,
    s_target: np.ndarray,
    mu_init: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Beamformers solving the leakage-constrained gain maximization.

    ``lam``/``u_basis`` diagonalize the constraint matrix M, ``g`` is the
    matched direction expressed in that basis and ``s_target`` the required
    quadratic-form value.  Root-finds the dual multiplier mu: the top
    eigenvector w(mu) of g g^H + mu diag(lam) has a constraint value
    c(mu) = w^H diag(lam) w that is non-decreasing in mu, and at c(mu) = s
    the eigenvector is a global maximizer.  ``mu_init`` warm-starts the
    bracket (the root moves smoothly along the outer search grid).  Returns
    the beamformers and the multipliers found.
    """
    spread = np.maximum(lam[:, -1] - lam[:, 0], 1e-30)
    scale = np.maximum(np.sum(np.abs(g) ** 2, axis=1), 1e-30) / spread

    def constraint_value(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = _top_eig_rank_one(mu[:, None] * lam, g)
        return np.sum(lam * np.abs(w) ** 2, axis=1), w

    delta = np.maximum(0.25 * np.abs(mu_init), 0.5 * scale)
    mu_lo = mu_init - delta
    mu_hi = mu_init + delta
    c_lo, _ = constraint_value(mu_lo)
    c_hi, _ = constraint_value(mu_hi)
    for _ in range(12):
        need_lo = c_lo > s_target
        need_hi = c_hi < s_target
        if not (need_lo.any() or need_hi.any()):
            break
        width = mu_hi - mu_lo
        mu_lo = np.where(need_lo, mu_lo - 4.0 * width, mu_lo)
        mu_hi = np.where(need_hi, mu_hi + 4.0 * width, mu_hi)
        if need_lo.any():
            c_lo, _ = constraint_value(mu_lo)
        if need_hi.any():
            c_hi, _ = constraint_value(mu_hi)

    # Bracket shrink: bisection alternating with a clipped secant step (the
    # constraint curve is extremely flat near one end, so pure secant stalls).
    span = np.maximum(np.abs(s_target), np.maximum(np.abs(lam).max(axis=1), 1e-30))
    for it in range(40):
        if np.all(np.minimum(np.abs(c_lo - s_target), np.abs(c_hi - s_target))
                  <= 1e-10 * span):
            break
        mid = 0.5 * (mu_lo + mu_hi)
        if it % 2:
            secant = mu_lo + (s_target - c_lo) * (mu_hi - mu_lo) / np.where(
                c_hi > c_lo, c_hi - c_lo, 1.0
            )
            inside = (secant > mu_lo) & (secant < mu_hi) & (c_hi > c_lo)
            mu_mid = np.where(inside, secant, mid)
        else:
            mu_mid = mid
        c_mid, _ = constraint_value(mu_mid)
        below = c_mid < s_target
        mu_lo = np.where(below, mu_mid, mu_lo)
        c_lo = np.where(below, c_mid, c_lo)
        mu_hi = np.where(below, mu_hi, mu_mid)
        c_hi = np.where(below, c_hi, c_mid)
    closer_hi = np.abs(c_hi - s_target) < np.abs(c_lo - s_target)
    mu = np.where(closer_hi, mu_hi, mu_lo)
    _, w = constraint_value(mu)
    return np.einsum("nij,nj->ni", u_basis, w), mu


def _wt_at_leakage(
    params: SystemParams,
    hsr: np.ndarray,
    hrr: np.ndarray,
    h_dir: np.ndarray,
    a_vec: np.ndarray,
    c_mat: np.ndarray,
    t: np.ndarray,
    mu_init: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate beamformer for each trial's leakage level ``t``.

    ``t = 0`` is the transmit-ZF beamformer (the matched direction projected
    off ``a_vec``); positive levels go through the dual root find,
    warm-started at ``mu_init``, and need a loop direction that does not
    vanish.  Returns beamformers and multipliers.
    """
    d1t = params.d1**params.tau
    kt = params.kappa * params.p_s / d1t
    s_hsr = np.sum(np.abs(hsr) ** 2, axis=1)

    wt = np.array(h_dir, copy=True)
    mu_out = np.array(mu_init, copy=True)
    zero_rows = t <= 0.0
    pos = ~zero_rows

    if zero_rows.any():
        proj = _zero_force(h_dir, a_vec, _loop_vanishes(a_vec, hsr, hrr))
        wt[zero_rows] = proj[zero_rows]

    if pos.any():
        m_mat = a_vec[pos, :, None] * np.conj(a_vec[pos, None, :]) - t[
            pos, None, None
        ] * c_mat[pos]
        lam, u_basis = np.linalg.eigh(m_mat)
        g = np.einsum("nij,ni->nj", np.conj(u_basis), h_dir[pos])
        s_target = t[pos] / (kt * s_hsr[pos])
        s_target = np.clip(s_target, lam[:, 0], lam[:, -1])
        wt_pos, mu_pos = _constrained_gain_dirs(
            lam, u_basis, g, s_target, mu_init[pos]
        )
        wt[pos] = wt_pos
        mu_out[pos] = mu_pos

    return _normalize_rows(wt), mu_out


def _optimal_wt_batch(
    params: SystemParams,
    hsr: np.ndarray,
    hrd: np.ndarray,
    hrr: np.ndarray,
    spec: OptimalSearchSpec = DEFAULT_SEARCH,
    resolve_above: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best transmit beamformer and its achieved SINR for each realization.

    With ``resolve_above`` set (outage estimation), realizations whose
    incumbent SINR already clears that threshold stop being refined, and
    realizations whose achievability ceiling (interference-free first hop,
    matched-gain second hop) sits below it are never searched at all; both
    prunings are exact for the indicator "SINR < threshold".
    """
    n, m_t = hrd.shape
    _, matched = _beamformers_batch(Scheme.MRC_MRT, hsr, hrd, hrr)
    best_wt = matched.copy()
    best_gamma = np.minimum(*_hops_for_wt(params, hsr, hrd, hrr, best_wt))

    if m_t == 1:
        return best_wt, best_gamma

    d1t = params.d1**params.tau
    d2t = params.d2**params.tau
    kt = params.kappa * params.p_s / d1t
    s_all = np.sum(np.abs(hsr) ** 2, axis=1)

    if resolve_above is not None:
        ceiling = np.minimum(
            params.p_s * s_all / d1t,
            params.kappa
            * params.p_s
            / (d1t * d2t)
            * s_all
            * np.sum(np.abs(hrd) ** 2, axis=1),
        )
        active = np.flatnonzero((best_gamma < resolve_above) & (ceiling >= resolve_above))
    else:
        active = np.arange(n)

    # Without a loop direction the matched combiner picks up no leakage, so
    # the matched beamformer is already optimal: search only the others.
    hsr_a, hrd_a, hrr_a = hsr[active], hrd[active], hrr[active]
    a_vec = np.einsum("nij,ni->nj", np.conj(hrr_a), hsr_a)
    keep = ~_loop_vanishes(a_vec, hsr_a, hrr_a)
    active, hsr_a, hrd_a, hrr_a, a_vec = (
        x[keep] for x in (active, hsr_a, hrd_a, hrr_a, a_vec)
    )
    if active.size == 0:
        return best_wt, best_gamma
    hdir_a = np.conj(hrd_a)
    c_mat = np.einsum("nij,nik->njk", np.conj(hrr_a), hrr_a)
    mu_state = np.zeros(active.size)

    # Attainable leakage range: t in [0, t_max] with
    # t_max = a^H (C + I/(kt*S))^{-1} a, the peak of the leakage ratio.
    sigma = 1.0 / (kt * s_all[active])
    shifted = c_mat + sigma[:, None, None] * np.eye(m_t)[None, :, :]
    solved = np.linalg.solve(shifted, a_vec[:, :, None])[:, :, 0]
    t_max = np.einsum("ni,ni->n", np.conj(a_vec), solved).real
    t_max = np.maximum(t_max, 0.0)

    state = {
        "hsr": hsr_a, "hrd": hrd_a, "hrr": hrr_a, "hdir": hdir_a,
        "a": a_vec, "c": c_mat, "tmax": t_max, "mu": mu_state,
    }

    def compress(extra: dict | None = None) -> dict | None:
        """Drop realizations whose outage indicator is already decided."""
        nonlocal active
        if resolve_above is None:
            return extra
        keep = best_gamma[active] < resolve_above
        if keep.all():
            return extra
        active = active[keep]
        for key, val in state.items():
            state[key] = val[keep]
        if extra is not None:
            extra = {key: val[keep] for key, val in extra.items()}
        return extra

    def hops_at(t_sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        wt_sub, state["mu"] = _wt_at_leakage(
            params, state["hsr"], state["hrr"], state["hdir"],
            state["a"], state["c"], t_sub, state["mu"],
        )
        first, second = _hops_for_wt(
            params, state["hsr"], state["hrd"], state["hrr"], wt_sub
        )
        gamma_sub = np.minimum(first, second)
        better = gamma_sub > best_gamma[active]
        rows = active[better]
        best_wt[rows] = wt_sub[better]
        best_gamma[rows] = gamma_sub[better]
        return first, second

    # Coarse sweep of the attainable leakage range seeds the dual warm start
    # and guards the bisection below against non-generic shapes.
    for frac in np.linspace(0.0, 1.0 - 1e-9, spec.t_grid_points):
        if active.size == 0:
            return best_wt, best_gamma
        hops_at(frac * state["tmax"])
        compress()

    if active.size == 0:
        return best_wt, best_gamma

    # The maximum of min(first, second) over the leakage level sits where the
    # decreasing first hop crosses the nondecreasing second hop (or at an end
    # of the range, where the matched/zero-leakage candidates already win).
    # The second hop rises with allowed leakage only up to the matched
    # beamformer's own leakage level, so the bisection bracket stops there.
    v_mrt = np.einsum("nij,nj->ni", state["hrr"], matched[active])
    aw = np.abs(np.einsum("ni,ni->n", np.conj(state["hsr"]), v_mrt)) ** 2
    cw = np.sum(np.abs(v_mrt) ** 2, axis=1)
    kts = kt * s_all[active]
    t_mrt = kts * aw / (1.0 + kts * cw)
    cross = {"lo": np.zeros(active.size), "hi": np.minimum(t_mrt, state["tmax"])}
    for _ in range(spec.refine_iters + 20):
        if active.size == 0:
            return best_wt, best_gamma
        mid = 0.5 * (cross["lo"] + cross["hi"])
        first, second = hops_at(mid)
        go_up = second < first
        cross["lo"] = np.where(go_up, mid, cross["lo"])
        cross["hi"] = np.where(go_up, cross["hi"], mid)
        cross = compress(cross)

    if not np.all(np.isfinite(best_gamma)):
        warnings.warn("optimal search produced non-finite candidates; "
                      "falling back to closed-form beamformers")
        bad = ~np.isfinite(best_gamma)
        best_wt[bad] = matched[bad]
        best_gamma[bad] = np.minimum(*_hops_for_wt(params, hsr, hrd, hrr, best_wt))[bad]
    return best_wt, best_gamma
