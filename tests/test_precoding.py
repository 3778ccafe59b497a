"""Beamformer properties: matched gains, zero-forcing residuals, optimality."""

import collections

import numpy as np
import pytest
from scipy import stats

from fdrelay import (
    ChannelRealization,
    Scheme,
    e2e_sinr,
    mrc_mrt,
    optimal,
    rzf,
    sample_channel,
    tzf,
)
from fdrelay.errors import DegenerateChannelError, InfeasibleSchemeError
from fdrelay.precoding import BeamformingPair, _optimal_wt_batch
from fdrelay.simkit import _chunk_channels

from helpers import ascent_best_sinr, bisection_best_sinr, four_antenna_params, make_params

# A step on a flat or NaN slope must stay inside the search's errstate.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _random_channels(params, n, seed):
    rng = np.random.default_rng(seed)
    return [sample_channel(params, rng) for _ in range(n)]


def test_pair_validates_norms():
    with pytest.raises(ValueError):
        BeamformingPair(
            w_r=np.array([0.5 + 0j, 0.0 + 0j]),
            w_t=np.array([1.0 + 0j]),
            scheme=Scheme.MRC_MRT,
        )
    with pytest.raises(ValueError, match="w_t"):
        BeamformingPair(
            w_r=np.array([1.0 + 0j, 0.0 + 0j]),
            w_t=np.array([np.nan + 0j, 0.0 + 0j]),
            scheme=Scheme.OPTIMAL,
        )


class TestMrcMrt:
    def test_unit_basis_channel(self):
        ch = ChannelRealization(
            h_sr=np.array([1.0 + 0j, 0.0 + 0j]),
            h_rd=np.array([0.0 + 0j, 1.0 + 0j]),
            h_rr=np.zeros((2, 2), dtype=complex),
        )
        pair = mrc_mrt(ch)
        assert np.allclose(pair.w_r, [1.0, 0.0])
        assert np.allclose(pair.w_t, [0.0, 1.0])

    def test_matched_gains(self):
        for ch in _random_channels(make_params(3, 2), 50, 11):
            pair = mrc_mrt(ch)
            assert abs(np.dot(pair.w_r, ch.h_sr)) ** 2 == pytest.approx(
                np.sum(np.abs(ch.h_sr) ** 2), rel=1e-12
            )
            assert abs(np.dot(ch.h_rd, pair.w_t)) ** 2 == pytest.approx(
                np.sum(np.abs(ch.h_rd) ** 2), rel=1e-12
            )

    def test_degenerate(self):
        ch = ChannelRealization(
            h_sr=np.zeros(2, dtype=complex),
            h_rd=np.array([1.0 + 0j]),
            h_rr=np.zeros((2, 1), dtype=complex),
        )
        with pytest.raises(DegenerateChannelError):
            mrc_mrt(ch)


class TestTzf:
    def test_infeasible_single_transmit_antenna(self):
        ch = sample_channel(make_params(2, 1), np.random.default_rng(0))
        with pytest.raises(InfeasibleSchemeError):
            tzf(ch)

    def test_vacuous_projector_when_no_loop(self):
        ch = sample_channel(make_params(2, 3, sigma2_li=0.0), np.random.default_rng(1))
        pair = tzf(ch)
        mrt = np.conj(ch.h_rd) / np.linalg.norm(ch.h_rd)
        assert np.allclose(pair.w_t, mrt, atol=1e-12)

    def test_gain_matches_gram_schmidt_oracle(self):
        # |h_rd w_t|^2 must equal the squared norm of h_rd^H minus its
        # component along the loop direction, orthogonalized independently.
        for ch in _random_channels(make_params(2, 2), 200, 3):
            pair = tzf(ch)
            a = ch.h_rr.conj().T @ ch.h_sr
            q = a / np.linalg.norm(a)
            h = np.conj(ch.h_rd)
            residual = h - q * np.vdot(q, h)
            assert abs(np.dot(ch.h_rd, pair.w_t)) ** 2 == pytest.approx(
                float(np.vdot(residual, residual).real), rel=1e-10
            )

    def test_zero_forcing_residual(self):
        for m_r in (2, 3, 4):
            for m_t in (2, 3, 4):
                for ch in _random_channels(make_params(m_r, m_t), 30, m_r * 10 + m_t):
                    pair = tzf(ch)
                    residual = abs(ch.h_sr.conj() @ ch.h_rr @ pair.w_t)
                    scale = np.linalg.norm(ch.h_sr) * np.linalg.norm(ch.h_rr)
                    assert residual <= 1e-9 * scale

    def test_effective_gain_distribution(self):
        # Projected matched gain is Gamma(m_t - 1, 1) distributed.
        params = make_params(2, 3)
        draws = []
        for chunk in range(125):
            hsr, hrd, hrr = _chunk_channels(params, 7, chunk)
            a = np.einsum("nij,ni->nj", np.conj(hrr), hsr)
            q = a / np.linalg.norm(a, axis=1, keepdims=True)
            h = np.conj(hrd)
            res = h - q * np.einsum("ni,ni->n", np.conj(q), h)[:, None]
            draws.append(np.sum(np.abs(res) ** 2, axis=1))
        gains = np.concatenate(draws)[:1_000_000]
        stat = stats.kstest(gains[:100_000], "gamma", args=(2.0, 0.0, 1.0)).statistic
        assert stat < 1.628 / np.sqrt(100_000)
        assert gains.mean() == pytest.approx(2.0, abs=3.0 * gains.std() / 1000.0)


class TestRzf:
    def test_infeasible_single_receive_antenna(self):
        ch = sample_channel(make_params(1, 2), np.random.default_rng(0))
        with pytest.raises(InfeasibleSchemeError):
            rzf(ch)

    def test_vacuous_projector_when_no_loop(self):
        ch = sample_channel(make_params(3, 2, sigma2_li=0.0), np.random.default_rng(1))
        pair = rzf(ch)
        mrc = np.conj(ch.h_sr) / np.linalg.norm(ch.h_sr)
        assert np.allclose(pair.w_r, mrc, atol=1e-12)

    def test_zero_forcing_residual(self):
        for m_r in (2, 3, 4):
            for m_t in (2, 3, 4):
                for ch in _random_channels(make_params(m_r, m_t), 30, m_r + 7 * m_t):
                    pair = rzf(ch)
                    residual = abs(pair.w_r @ ch.h_rr @ pair.w_t)
                    assert residual <= 1e-9 * np.linalg.norm(ch.h_rr)

    def test_combiner_share_distribution(self):
        # |w_r h_sr|^2 / ||h_sr||^2 is Beta(m_r - 1, 1) distributed.
        params = make_params(3, 1)
        shares = []
        for chunk in range(13):
            hsr, hrd, hrr = _chunk_channels(params, 123, chunk)
            v = np.einsum("nij,nj->ni", hrr, np.conj(hrd))
            nv2 = np.sum(np.abs(v) ** 2, axis=1)
            u = hsr - v * (np.einsum("ni,ni->n", np.conj(v), hsr) / nv2)[:, None]
            shares.append(
                np.sum(np.abs(u) ** 2, axis=1) / np.sum(np.abs(hsr) ** 2, axis=1)
            )
        shares = np.concatenate(shares)[:100_000]
        stat = stats.kstest(shares, "beta", args=(2.0, 1.0)).statistic
        assert stat < 1.628 / np.sqrt(shares.size)


class TestUnitNormAndPhase:
    def test_unit_norms(self):
        params = make_params(3, 3)
        for ch in _random_channels(params, 50, 8):
            for pair in (mrc_mrt(ch), tzf(ch), rzf(ch), optimal(ch, params)):
                assert np.linalg.norm(pair.w_r) == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.norm(pair.w_t) == pytest.approx(1.0, abs=1e-10)

    def test_phase_invariance(self):
        params = make_params(2, 2)
        ch = sample_channel(params, np.random.default_rng(21))
        rotated = ChannelRealization(
            h_sr=np.exp(0.7j) * ch.h_sr,
            h_rd=np.exp(-1.3j) * ch.h_rd,
            h_rr=np.exp(0.4j) * ch.h_rr,
        )
        for maker in (mrc_mrt, tzf, rzf, lambda c: optimal(c, params)):
            g0 = e2e_sinr(ch, params, maker(ch)).e2e
            g1 = e2e_sinr(rotated, params, maker(rotated)).e2e
            assert g1 == pytest.approx(g0, abs=1e-10 * max(g0, 1.0))


class TestOptimal:
    def test_collapses_to_mrc_mrt_without_loop(self):
        params = make_params(3, 3, sigma2_li=0.0)
        for ch in _random_channels(params, 10, 31):
            g_opt = e2e_sinr(ch, params, optimal(ch, params)).e2e
            g_mrc = e2e_sinr(ch, params, mrc_mrt(ch)).e2e
            assert g_opt == pytest.approx(g_mrc, rel=1e-9)

    def test_dominates_closed_form_schemes(self):
        params = four_antenna_params()
        hsr, hrd, hrr = _chunk_channels(params, 5, 0)
        hsr, hrd, hrr = hsr[:1000], hrd[:1000], hrr[:1000]
        _, g_opt = _optimal_wt_batch(params, hsr, hrd, hrr)
        from fdrelay.simkit import _sinr_batch

        for scheme in (Scheme.MRC_MRT, Scheme.TZF, Scheme.RZF):
            g = _sinr_batch(params, scheme, hsr, hrd, hrr)
            assert np.all(g_opt >= g - 1e-6)

    def test_scalar_matches_batch(self):
        params = four_antenna_params()
        rng = np.random.default_rng(77)
        chans = [sample_channel(params, rng) for _ in range(16)]
        hsr = np.stack([c.h_sr for c in chans])
        hrd = np.stack([c.h_rd for c in chans])
        hrr = np.stack([c.h_rr for c in chans])
        _, g_batch = _optimal_wt_batch(params, hsr, hrd, hrr)
        for i, ch in enumerate(chans):
            g_scalar = e2e_sinr(ch, params, optimal(ch, params)).e2e
            assert g_scalar == pytest.approx(g_batch[i], rel=1e-9)

    def test_batch_rows_equal_the_per_draw_search(self):
        # Each row of the multiplier root-find stops once it meets the
        # residual, so a draw's optimal SINR does not depend on the draws
        # sharing its batch.
        params = make_params(1, 4, 10.0, sigma2_li=3.0)
        hsr, hrd, hrr = (x[:400] for x in _chunk_channels(params, 1, 0))
        _, g_batch = _optimal_wt_batch(params, hsr, hrd, hrr)
        for i in range(400):
            ch = ChannelRealization(hsr[i], hrd[i], hrr[i])
            assert e2e_sinr(ch, params, optimal(ch, params)).e2e == g_batch[i], i

    @pytest.mark.parametrize("params", [
        four_antenna_params(), make_params(2, 3, 1e3, sigma2_li=0.3),
    ], ids=["matched_wins_mostly", "tzf_wins_mostly"])
    def test_a_winning_seed_ends_the_unpruned_search(self, monkeypatch, params):
        # second <= first at the matched beamformer, or second >= first at
        # transmit ZF, makes that seed optimal: no leakage level is probed
        # and the search returns the better seed.
        from fdrelay import precoding

        hsr, hrd, hrr = (x[:400] for x in _chunk_channels(params, 5, 0))
        seeds = [precoding._beamformers_batch(s, hsr, hrd, hrr)[1]
                 for s in (Scheme.MRC_MRT, Scheme.TZF)]
        (f_mrt, s_mrt), (f_tzf, s_tzf) = (
            precoding._hops_for_wt(params, hsr, hrd, hrr, wt) for wt in seeds
        )
        matched_wins, tzf_wins = s_mrt <= f_mrt, s_tzf >= f_tzf
        assert matched_wins.any() and tzf_wins.any()
        rows = matched_wins | tzf_wins
        calls = []

        def probe(params, hsr, h_dir, a_vec, c_mat, t):
            calls.append(t.size)
            return np.full_like(h_dir, np.nan)

        monkeypatch.setattr(precoding, "_wt_at_leakage", probe)
        _, gamma = _optimal_wt_batch(params, hsr[rows], hrd[rows], hrr[rows])
        assert calls == []
        seed_best = np.maximum(np.minimum(f_mrt, s_mrt), np.minimum(f_tzf, s_tzf))
        assert np.array_equal(gamma, seed_best[rows])

    def test_single_transmit_antenna_short_circuit(self):
        params = make_params(3, 1)
        ch = sample_channel(params, np.random.default_rng(2))
        pair = optimal(ch, params)
        assert pair.w_t.shape == (1,)
        assert abs(abs(pair.w_t[0]) - 1.0) < 1e-12
        # with one transmit antenna the combiner is the only freedom; the
        # result must beat plain MRC/MRT
        assert e2e_sinr(ch, params, pair).e2e >= e2e_sinr(ch, params, mrc_mrt(ch)).e2e - 1e-9

    def test_agrees_with_ascent_oracle_2x2(self):
        params = make_params(2, 2, sigma2_li=0.3)
        rng = np.random.default_rng(1912)
        for i in range(12):
            ch = sample_channel(params, rng)
            g_sdr = e2e_sinr(ch, params, optimal(ch, params)).e2e
            g_oracle = ascent_best_sinr(ch, params, restarts=100, rng=rng)
            assert g_sdr == pytest.approx(g_oracle, rel=1e-4)

    @pytest.mark.parametrize("params", [
        four_antenna_params(), make_params(2, 3, 1e3, sigma2_li=0.3),
    ], ids=["benchmark_4x4", "tzf_wins_mostly"])
    def test_newton_crossing_keeps_up_with_a_34_step_bisection(self, monkeypatch, params):
        # On every draw that no seed decides, the Newton search scores within
        # 2e-9 of a plain 34-step bisection, and no draw makes more than 16
        # leakage probes.
        from fdrelay import precoding

        draws = [np.concatenate(x) for x in zip(*(_chunk_channels(params, 5, k) for k in (0, 1)))]
        seeds = [precoding._beamformers_batch(s, *draws)[1] for s in (Scheme.MRC_MRT, Scheme.TZF)]
        (f_mrt, s_mrt), (f_tzf, s_tzf) = (
            precoding._hops_for_wt(params, *draws, wt) for wt in seeds
        )
        rows = np.flatnonzero(~((s_mrt <= f_mrt) | (s_tzf >= f_tzf)))[:1200]
        assert rows.size >= 1000
        hsr, hrd, hrr = (x[rows] for x in draws)
        probes = collections.Counter()
        solve = precoding._wt_at_leakage

        def counting(params, hsr, *rest):
            probes.update(row.tobytes() for row in hsr)
            return solve(params, hsr, *rest)

        monkeypatch.setattr(precoding, "_wt_at_leakage", counting)
        _, gamma = _optimal_wt_batch(params, hsr, hrd, hrr)
        per_row = np.array([probes[row.tobytes()] for row in hsr])
        assert per_row.min() >= 1 and per_row.max() <= 16
        reference = bisection_best_sinr(params, hsr, hrd, hrr)
        assert np.all(gamma >= reference * (1.0 - 2e-9))

    @pytest.mark.parametrize("resolve_above", [None, 3.0])
    def test_non_finite_candidates_never_replace_matched(self, monkeypatch, resolve_above):
        # A NaN candidate loses every "better than the incumbent" test, so the
        # search returns what its matched and transmit-ZF seeds alone give.
        # The transmit-ZF seed is scored only on rows the matched one leaves
        # undecided: it does not win on its hop signs and, for an outage
        # estimate, neither its SINR nor the ceiling min(c1 S, second) has
        # settled the indicator.
        from fdrelay import precoding

        params = four_antenna_params()
        hsr, hrd, hrr = _chunk_channels(params, 5, 0)
        hsr, hrd, hrr = hsr[:200], hrd[:200], hrr[:200]
        _, matched = precoding._beamformers_batch(Scheme.MRC_MRT, hsr, hrd, hrr)
        _, tzf_wt = precoding._beamformers_batch(Scheme.TZF, hsr, hrd, hrr)
        f_mrt, s_mrt = precoding._hops_for_wt(params, hsr, hrd, hrr, matched)
        g_mrt = np.minimum(f_mrt, s_mrt)
        g_tzf = np.minimum(*precoding._hops_for_wt(params, hsr, hrd, hrr, tzf_wt))
        scored = s_mrt > f_mrt
        if resolve_above is not None:
            c1s = params.p_s / params.d1**params.tau * np.sum(np.abs(hsr) ** 2, axis=1)
            scored &= (g_mrt < resolve_above) & (np.minimum(c1s, s_mrt) >= resolve_above)
        tzf_better = scored & (g_tzf > g_mrt)
        wt_seeds = np.where(tzf_better[:, None], tzf_wt, matched)
        g_seeds = np.where(tzf_better, g_tzf, g_mrt)
        calls = []

        def nan_rows(params, hsr, h_dir, a_vec, c_mat, t):
            calls.append(t.size)
            return np.full_like(h_dir, np.nan)

        monkeypatch.setattr(precoding, "_wt_at_leakage", nan_rows)
        with np.errstate(invalid="ignore"):
            wt, gamma = _optimal_wt_batch(params, hsr, hrd, hrr, resolve_above=resolve_above)
        assert calls and calls[0] > 0
        assert not np.array_equal(wt_seeds, matched)
        assert np.array_equal(wt, wt_seeds)
        assert np.array_equal(gamma, g_seeds)
