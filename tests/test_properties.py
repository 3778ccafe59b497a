"""Property tests: the top-eigenvector kernel and the multiplier root-find
built on it, the hop shapes along the leakage range that make the optimal
search's crossing exact, the envelope-theorem slope of the hop gap that
its Newton steps take, the bracket ceiling that prunes it, the search's
independence of batch order, optimal-search dominance, the rotation
invariance of every scheme's SINR, the batched SINR kernel against its
n = 1 wrappers, and the monotonicity of every analytic outage CDF."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdrelay import (
    ChannelRealization,
    OutageQuery,
    Scheme,
    e2e_sinr,
    hd_snr,
    mrc_mrt,
    optimal,
    outage_hd,
    outage_mrc_mrt,
    outage_rzf,
    outage_tzf,
    rzf,
    sample_channel,
    tzf,
)
from fdrelay.errors import InfeasibleSchemeError
from fdrelay.precoding import (
    _beamformers_batch,
    _constrained_gain_dirs,
    _gap_slope,
    _hops_for_wt,
    _optimal_wt_batch,
    _top_eig_rank_one,
    _wt_at_leakage,
    check_feasible,
)
from fdrelay.simkit import _chunk_channels, _sinr_batch

from helpers import leakage_range, make_params

# Fixed example order so CI runs are reproducible; no example database.
PROPERTY = settings(derandomize=True, database=None, deadline=None)

# A step on a flat or NaN slope must stay inside the search's errstate.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# A small pool of exact values makes repeated eigenvalues and zero entries of
# g common among the drawn examples.
_entries = st.one_of(
    st.sampled_from([0.0, 1.0, -2.0]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def rank_one_updates(draw):
    # lam sorted ascending as from eigh, and no row of g near zero, as the
    # matched direction never is.
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    lam = np.sort(draw(hnp.arrays(np.float64, (n, m), elements=_entries)), axis=1)
    g_re = draw(hnp.arrays(np.float64, (n, m), elements=_entries))
    g_im = draw(hnp.arrays(np.float64, (n, m), elements=_entries))
    g = g_re + 1j * g_im
    assume(np.all(np.linalg.norm(g, axis=1) >= 1e-6))
    return lam, g


def _angle_bracket(lam):
    return np.zeros(lam.shape[0]), np.pi - np.arctan(lam[:, -1] - lam[:, 0])


@PROPERTY
@given(rank_one_updates(), st.floats(1e-6, 1.0 - 1e-6))
def test_top_eig_rank_one_is_the_top_eigenvector(case, frac):
    # At angle psi, g / d is the top eigenvector of g g^H + mu diag(lam) with
    # mu = -cos(psi) r and eigenvalue (sin(psi) - lam_min cos(psi)) r, where
    # d = sin(psi) + (lam - lam_min) cos(psi) and r = sum |g|^2 / d.
    lam, g = case
    lo, hi = _angle_bracket(lam)
    psi = lo + frac * (hi - lo)
    d = np.sin(psi)[:, None] + np.cos(psi)[:, None] * (lam - lam[:, :1])
    r = np.sum(np.abs(g) ** 2 / d, axis=1)
    mu = -np.cos(psi) * r
    mat = g[:, :, None] * np.conj(g[:, None, :])
    for i in range(g.shape[1]):
        mat[:, i, i] += mu * lam[:, i]
    scale = 1.0 + np.abs(mu[:, None] * lam).max() + np.sum(np.abs(g) ** 2, axis=1).max()

    w = _top_eig_rank_one(psi, lam, g)

    assert np.allclose(np.linalg.norm(w, axis=1), 1.0, rtol=0.0, atol=1e-12)
    top = np.linalg.eigvalsh(mat)[:, -1]
    assert np.all(np.abs(top - (np.sin(psi) - lam[:, 0] * np.cos(psi)) * r) <= 1e-12 * scale)
    mw = np.einsum("nij,nj->ni", mat, w)
    rayleigh = np.einsum("ni,ni->n", np.conj(w), mw).real
    assert np.all(np.abs(rayleigh - top) <= 1e-12 * scale)
    assert np.all(np.linalg.norm(mw - top[:, None] * w, axis=1) <= 1e-12 * scale)


@PROPERTY
@given(rank_one_updates(), st.floats(0.0, 1.0))
def test_constraint_value_rises_and_the_root_find_meets_it(case, frac):
    # c(psi) = sum lam |w(psi)|^2 never falls on the angle bracket, so the
    # root-find meets its residual for every target that c reaches inside
    # the bracket and otherwise (zero entries of g, or a target at lam_min
    # or lam_max) ends closer to it than any angle of the grid.
    lam, g = case
    n, m = g.shape
    span = np.maximum(np.abs(lam).max(axis=1), 1e-30)
    lo, hi = _angle_bracket(lam)
    grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 203)[1:-1]
    c_grid = np.stack([
        np.sum(lam * np.abs(_top_eig_rank_one(psi, lam, g)) ** 2, axis=1) for psi in grid.T
    ], axis=1)
    assert np.all(np.diff(c_grid, axis=1) >= -1e-12 * span[:, None])

    s = lam[:, 0] + frac * (lam[:, -1] - lam[:, 0])
    w = _constrained_gain_dirs(lam, np.broadcast_to(np.eye(m), (n, m, m)), g, s)

    assert np.allclose(np.linalg.norm(w, axis=1), 1.0, rtol=0.0, atol=1e-12)
    miss = np.abs(np.sum(lam * np.abs(w) ** 2, axis=1) - s)
    reached = (c_grid.min(axis=1) <= s) & (s <= c_grid.max(axis=1))
    closest = np.abs(c_grid - s[:, None]).min(axis=1)
    assert np.all(miss <= np.where(reached, 0.0, closest) + 1e-12 * span)


@settings(PROPERTY, max_examples=60)
@given(
    m_r=st.integers(1, 6),
    m_t=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    p_s=st.sampled_from([1.0, 10.0, 1e3]),
    sigma2_li=st.sampled_from([0.01, 0.3, 3.0]),
)
@example(m_r=1, m_t=2, seed=3, p_s=1e3, sigma2_li=3.0)
def test_crossing_bisection_misses_nothing_on_the_leakage_range(m_r, m_t, seed, p_s, sigma2_li):
    # On [0, t_mrt] the first hop is c1 (S - t) and the second hop never
    # falls, so min(first, second) peaks at their crossing or at an end, and
    # a dense grid of leakage levels finds nothing better than the search.
    params = make_params(m_r, m_t, p_s, sigma2_li=sigma2_li)
    rng = np.random.default_rng(seed)
    chans = [sample_channel(params, rng) for _ in range(2)]
    hsr, hrd, hrr = (np.stack([getattr(c, name) for c in chans])
                     for name in ("h_sr", "h_rd", "h_rr"))
    c1 = params.p_s / params.d1**params.tau
    s = np.sum(np.abs(hsr) ** 2, axis=1)
    kts = params.kappa * c1 * s
    a = np.einsum("nij,ni->nj", np.conj(hrr), hsr)
    c = np.einsum("nij,nik->njk", np.conj(hrr), hrr)
    matched = np.conj(hrd) / np.linalg.norm(hrd, axis=1, keepdims=True)
    aw = np.abs(np.einsum("ni,ni->n", np.conj(a), matched)) ** 2
    cw = np.einsum("ni,nij,nj->n", np.conj(matched), c, matched).real
    t_mrt = kts * aw / (1.0 + kts * cw)

    firsts, seconds = [], []
    for frac in np.linspace(0.0, 1.0, 65):
        t = frac * t_mrt
        wt = _wt_at_leakage(params, hsr, np.conj(hrd), a, c, t)
        first, second = _hops_for_wt(params, hsr, hrd, hrr, wt)
        assert np.all(np.abs(first - c1 * (s - t)) <= 1e-6 * c1 * s)
        firsts.append(first)
        seconds.append(second)
    seconds = np.array(seconds)
    assert np.all(seconds[1:] >= seconds[:-1] * (1.0 - 1e-9))

    _, g_search = _optimal_wt_batch(params, hsr, hrd, hrr)
    g_grid = np.minimum(np.array(firsts), seconds).max(axis=0)
    assert np.all(g_search >= g_grid * (1.0 - 1e-9))


@settings(PROPERTY, max_examples=60)
@given(
    m_r=st.integers(1, 6),
    m_t=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    p_s=st.sampled_from([1.0, 10.0, 1e3]),
    sigma2_li=st.sampled_from([0.01, 0.3, 3.0]),
)
@example(m_r=1, m_t=2, seed=3, p_s=1e3, sigma2_li=3.0)
def test_gap_slope_matches_central_differences(m_r, m_t, seed, p_s, sigma2_li):
    # The multiplier of the inner solve gives the slope of the best second
    # hop in the leakage level (envelope theorem), so the slope the crossing
    # search steps on matches central differences of the achieved
    # second - first at interior leakage levels.
    params = make_params(m_r, m_t, p_s, sigma2_li=sigma2_li)
    rng = np.random.default_rng(seed)
    chans = [sample_channel(params, rng) for _ in range(2)]
    hsr, hrd, hrr = (np.stack([getattr(c, name) for c in chans])
                     for name in ("h_sr", "h_rd", "h_rr"))
    s = np.sum(np.abs(hsr) ** 2, axis=1)
    a, c, t_mrt = leakage_range(params, hsr, hrd, hrr)

    def gap(t):
        wt = _wt_at_leakage(params, hsr, np.conj(hrd), a, c, t)
        first, second = _hops_for_wt(params, hsr, hrd, hrr, wt)
        return second - first, wt

    h = 1e-5 * t_mrt
    for frac in (0.25, 0.5, 0.75):
        t = frac * t_mrt
        slope = _gap_slope(params, s, np.conj(hrd), a, c, t, gap(t)[1])
        central = (gap(t + h)[0] - gap(t - h)[0]) / (2.0 * h)
        assert np.all(np.abs(slope - central) <= 1e-6 * np.abs(central)), frac


@settings(PROPERTY, max_examples=40)
@given(
    m_r=st.integers(1, 6),
    m_t=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    p_s=st.sampled_from([1.0, 10.0, 100.0]),
    sigma2_li=st.sampled_from([0.03, 0.3, 3.0]),
)
def test_bracket_ceiling_prunes_only_decided_rows(m_r, m_t, seed, p_s, sigma2_li):
    # No beamformer beats min(first(lo), second(hi)), so a search that drops
    # the rows whose ceiling falls below the threshold keeps every outage
    # indicator.  Thresholds halfway between neighbouring SINRs of the batch
    # put rows just above and just below each one.
    params = make_params(m_r, m_t, p_s, sigma2_li=sigma2_li)
    hsr, hrd, hrr = (x[:32] for x in _chunk_channels(params, seed, 0))
    _, g_full = _optimal_wt_batch(params, hsr, hrd, hrr)
    ordered = np.sort(g_full)
    for th in 0.5 * (ordered[1:] + ordered[:-1]):
        _, g_pruned = _optimal_wt_batch(params, hsr, hrd, hrr, resolve_above=th)
        assert np.array_equal(g_pruned < th, g_full < th), th


def test_pruned_search_rows_move_with_their_draws():
    # A batch mixing rows without a loop, rows that each seed decides and
    # rows that reach the crossing bisection: shuffling its rows shuffles
    # (wt, gamma) and changes no bit, without a threshold and with one
    # halfway between two SINRs of the batch.
    params = make_params(3, 3, 100.0, sigma2_li=0.3)
    hsr, hrd, hrr = (x[:128] for x in _chunk_channels(params, 3, 0))
    hrr = hrr.copy()
    hrr[:8] = 0.0
    seeds = [_beamformers_batch(s, hsr, hrd, hrr)[1] for s in (Scheme.MRC_MRT, Scheme.TZF)]
    (f_mrt, s_mrt), (f_tzf, s_tzf) = (_hops_for_wt(params, hsr, hrd, hrr, wt) for wt in seeds)
    matched_wins, tzf_wins = (s_mrt <= f_mrt)[8:], (s_tzf >= f_tzf)[8:]
    assert matched_wins.sum() >= 4 and tzf_wins.sum() >= 4
    assert (~(matched_wins | tzf_wins)).sum() >= 4
    _, g_full = _optimal_wt_batch(params, hsr, hrd, hrr)
    ordered = np.sort(g_full)
    perm = np.random.default_rng(0).permutation(hsr.shape[0])
    for th in (None, 0.5 * (ordered[63] + ordered[64])):
        wt, gamma = _optimal_wt_batch(params, hsr, hrd, hrr, resolve_above=th)
        wt_p, gamma_p = _optimal_wt_batch(
            params, hsr[perm], hrd[perm], hrr[perm], resolve_above=th
        )
        assert np.array_equal(wt_p, wt[perm]) and np.array_equal(gamma_p, gamma[perm]), th


_CLOSED_FORM = {Scheme.MRC_MRT: mrc_mrt, Scheme.TZF: tzf, Scheme.RZF: rzf}


@pytest.mark.parametrize("m_r", range(1, 7))
@pytest.mark.parametrize("m_t", range(1, 7))
@settings(PROPERTY, max_examples=3)
@given(
    seed=st.integers(0, 2**32 - 1),
    sigma2_li=st.sampled_from([0.0, 0.03, 0.3, 3.0]),
    p_s=st.sampled_from([1.0, 10.0, 100.0]),
    alpha=st.sampled_from([0.2, 0.5, 0.8]),
)
def test_optimal_dominates_and_wrapper_matches_batch(m_r, m_t, seed, sigma2_li, p_s, alpha):
    params = make_params(m_r, m_t, p_s, sigma2_li=sigma2_li, alpha=alpha)
    rng = np.random.default_rng(seed)
    chans = [sample_channel(params, rng) for _ in range(2)]
    _, g_batch = _optimal_wt_batch(
        params,
        np.stack([c.h_sr for c in chans]),
        np.stack([c.h_rd for c in chans]),
        np.stack([c.h_rr for c in chans]),
    )
    for i, ch in enumerate(chans):
        g_opt = e2e_sinr(ch, params, optimal(ch, params)).e2e
        assert g_opt == g_batch[i]
        for scheme, design in _CLOSED_FORM.items():
            try:
                pair = design(ch)
            except InfeasibleSchemeError:
                continue
            assert g_opt >= e2e_sinr(ch, params, pair).e2e - 1e-6, scheme


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _scheme_sinr(ch, params, scheme: Scheme) -> float:
    if scheme is Scheme.HALF_DUPLEX:
        return hd_snr(ch, params)
    if scheme is Scheme.OPTIMAL:
        return e2e_sinr(ch, params, optimal(ch, params)).e2e
    return e2e_sinr(ch, params, _CLOSED_FORM[scheme](ch)).e2e


@pytest.mark.parametrize("m_r", range(1, 7))
@pytest.mark.parametrize("m_t", range(1, 7))
@settings(PROPERTY, max_examples=3)
@given(
    seed=st.integers(0, 2**32 - 1),
    sigma2_li=st.sampled_from([0.0, 0.03, 0.3, 3.0]),
    p_s=st.sampled_from([1.0, 10.0, 100.0]),
)
def test_sinr_is_invariant_under_relay_rotations(m_r, m_t, seed, sigma2_li, p_s):
    # Unitary U on the receive side and V on the transmit side map
    # (h_sr, h_rd, H_rr) to (U h_sr, V^T h_rd, U H_rr V); every design rotates
    # along (w_r U^H, V^H w_t), so no SINR may move.
    params = make_params(m_r, m_t, p_s, sigma2_li=sigma2_li)
    rng = np.random.default_rng(seed)
    ch = sample_channel(params, rng)
    u, v = _unitary(rng, m_r), _unitary(rng, m_t)
    rotated = ChannelRealization(u @ ch.h_sr, v.T @ ch.h_rd, u @ ch.h_rr @ v)
    for scheme in Scheme:
        try:
            before = _scheme_sinr(ch, params, scheme)
        except InfeasibleSchemeError:
            continue
        assert _scheme_sinr(rotated, params, scheme) == pytest.approx(before, rel=1e-9), scheme


@pytest.mark.parametrize("m_r", range(1, 7))
@pytest.mark.parametrize("m_t", range(1, 7))
@settings(PROPERTY, max_examples=3)
@given(
    seed=st.integers(0, 2**32 - 1),
    sigma2_li=st.sampled_from([0.0, 0.03, 0.3, 3.0]),
    p_s=st.sampled_from([1.0, 10.0, 100.0]),
    alpha=st.sampled_from([0.2, 0.5, 0.8]),
)
def test_batch_sinr_matches_its_n1_wrappers(m_r, m_t, seed, sigma2_li, p_s, alpha):
    params = make_params(m_r, m_t, p_s, sigma2_li=sigma2_li, alpha=alpha)
    rng = np.random.default_rng(seed)
    chans = [sample_channel(params, rng) for _ in range(3)]
    stacked = [np.stack([getattr(c, name) for c in chans]) for name in ("h_sr", "h_rd", "h_rr")]
    for scheme in (Scheme.MRC_MRT, Scheme.TZF, Scheme.RZF, Scheme.HALF_DUPLEX):
        try:
            check_feasible(scheme, m_r, m_t)
        except InfeasibleSchemeError:
            continue
        batch = _sinr_batch(params, scheme, *stacked)
        for i, ch in enumerate(chans):
            scalar = (hd_snr(ch, params) if scheme is Scheme.HALF_DUPLEX
                      else e2e_sinr(ch, params, _CLOSED_FORM[scheme](ch)).e2e)
            assert scalar == pytest.approx(batch[i], rel=1e-12), scheme


_OUTAGE_CDFS = {
    Scheme.TZF: outage_tzf,
    Scheme.RZF: outage_rzf,
    Scheme.MRC_MRT: outage_mrc_mrt,
    Scheme.HALF_DUPLEX: outage_hd,
}


@settings(PROPERTY, max_examples=60)
@given(
    m_r=st.integers(1, 6),
    m_t=st.integers(1, 6),
    sigma2_li=st.sampled_from([0.0, 0.03, 0.3, 3.0]),
    snr_db=st.floats(-10.0, 60.0),
    alpha=st.floats(0.05, 0.95),
    z=st.floats(1e-2, 1e3),
    ratio=st.floats(1.0, 100.0),
)
def test_outage_cdfs_are_monotone_in_the_threshold(m_r, m_t, sigma2_li, snr_db, alpha, z, ratio):
    # Quadrature rounding may wiggle a value near 1 by an ulp; nothing more.
    params = make_params(m_r, m_t, 10.0 ** (snr_db / 10.0), sigma2_li=sigma2_li, alpha=alpha)
    for scheme, cdf in _OUTAGE_CDFS.items():
        try:
            low = cdf(OutageQuery(params, z))
        except InfeasibleSchemeError:
            continue
        high = cdf(OutageQuery(params, z * ratio))
        assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0
        assert high >= low * (1.0 - 1e-12), scheme
