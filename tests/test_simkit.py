"""Monte Carlo estimator: reproducibility, limits, throughput optimization."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from fdrelay import (
    OutageEstimate,
    OutageQuery,
    Scheme,
    estimate_outage,
    e2e_sinr,
    hd_snr,
    mrc_mrt,
    optimize_alpha,
    outage_tzf,
    rzf,
    throughput,
    tzf,
)
from fdrelay import precoding, simkit
from fdrelay.channel import ChannelRealization
from fdrelay.errors import InfeasibleSchemeError
from fdrelay.simkit import (
    _CHUNK,
    _chunk_channels,
    _chunk_gains,
    _held_gains,
    _search_alpha_batch,
    _sinr_batch,
    _sinr_from_gains,
    params_at_alpha,
)
from fdrelay.sinr import _fd_gains_batch, _fd_hops_from_gains

from helpers import hops_for_wt, make_params, reference_sinr


def _near_degenerate_channels():
    """Loops whose direction on one side is rounding residue.

    First h_sr orthogonal to the columns of a 3x2 loop with ||H_rr|| ~ 1e4
    (a = H_rr^H h_sr vanishes); then a rank-one 3x2 loop that both h_sr and
    h_rd^* null (a and v = H_rr h_rd^* vanish).
    """
    rng = np.random.default_rng(2015)

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    hrr = 1e4 * cn(3, 2)
    q, _ = np.linalg.qr(hrr, mode="complete")
    yield ChannelRealization(1.3 * q[:, 2], cn(2), hrr)
    u, w = cn(3), cn(2)
    q, _ = np.linalg.qr(u[:, None], mode="complete")
    h_rd = np.conj((2.1 + 0.9j) * np.array([w[1], -w[0]]))
    yield ChannelRealization(1.1 * q[:, 1], h_rd, 1e4 * np.outer(u, w))


def _oracle_estimates(monkeypatch, oracle):
    """Make every outage estimate of the alpha search ``oracle(params, scheme)``."""

    def fake(params, scheme, n_trials, seed, *, threads=1, gains=None):
        return OutageEstimate(oracle(params, scheme), 0.0, n_trials, seed)

    monkeypatch.setattr(simkit, "estimate_outage", fake)


def _search_and_bracket(monkeypatch, oracle, alphas):
    """A lone transmit-ZF search under ``oracle``, and its refinement bracket.

    The bracket is read back from the first two golden-section probes after
    the grid, x1 = hi - phi (hi - lo) and x2 = lo + phi (hi - lo).
    """
    probed = []

    def recording(p, scheme):
        probed.append(p.alpha)
        return oracle(p, scheme)

    _oracle_estimates(monkeypatch, recording)
    (found,) = _search_alpha_batch(make_params(2, 2), [Scheme.TZF], alphas, [1], seed=0)
    x1, x2 = probed[len(alphas):len(alphas) + 2]
    width = (x2 - x1) / (2.0 * simkit._GOLDEN - 1.0)
    return found, (x2 - simkit._GOLDEN * width, x1 + simkit._GOLDEN * width)


class TestEstimateOutage:
    def test_tiny_threshold_never_fails(self):
        params = make_params(2, 2, gamma_th=1e-12)
        est = estimate_outage(params, Scheme.MRC_MRT, 20_000, seed=1)
        assert est.p_hat == 0.0

    def test_starved_harvest_always_fails(self):
        params = make_params(2, 2, alpha=0.001)
        est = estimate_outage(params, Scheme.MRC_MRT, 20_000, seed=1)
        assert est.p_hat >= 0.999

    def test_matches_analytic_tzf(self):
        params = make_params(2, 2, 100.0)
        analytic = outage_tzf(OutageQuery(params, params.gamma_th))
        est = estimate_outage(params, Scheme.TZF, 1_000_000, seed=2, threads=2)
        assert abs(est.p_hat - analytic) <= 3.0 * est.std_err + 1e-3

    def test_reproducible_across_worker_counts(self):
        params = make_params(2, 2)
        estimates = {
            w: estimate_outage(params, Scheme.RZF, 100_000, seed=3, threads=w)
            for w in (1, 4, 16)
        }
        values = {e.p_hat for e in estimates.values()}
        assert len(values) == 1
        assert estimates[1].std_err == estimates[16].std_err

    def test_estimate_invariants(self):
        est = estimate_outage(make_params(2, 2), Scheme.TZF, 50_000, seed=5)
        assert est.std_err == pytest.approx(
            np.sqrt(est.p_hat * (1.0 - est.p_hat) / est.n_trials), rel=1e-12
        )
        assert est.n_trials == 50_000 and est.seed == 5

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n_trials", [3 * _CHUNK + 517, 5000])
    def test_pre_drawn_chunks_give_the_drawn_estimate(self, threads, n_trials):
        # The gains of four chunks of seed 8: all of them for the first
        # count (whose last chunk is partial), only the leading one for the
        # second.
        params = make_params(3, 2, sigma2_li=0.2)
        chunks = [_chunk_channels(params, 8, j) for j in range(4)]
        for scheme in (Scheme.RZF, Scheme.HALF_DUPLEX, Scheme.TZF, Scheme.MRC_MRT,
                       Scheme.OPTIMAL):
            gains = [_chunk_gains(scheme, *chunk) for chunk in chunks]
            given = estimate_outage(params, scheme, n_trials, 8, threads=threads,
                                    gains=gains)
            drawn = estimate_outage(params, scheme, n_trials, 8, threads=threads)
            assert given == drawn

    def test_gains_that_miss_trials_are_rejected(self):
        params = make_params(3, 2)
        gains = [_chunk_gains(Scheme.TZF, *_chunk_channels(params, 8, 0))]
        with pytest.raises(ValueError, match="gains"):
            estimate_outage(params, Scheme.TZF, _CHUNK + 1, 8, gains=gains)
        with pytest.raises(ValueError, match="gains"):
            estimate_outage(params, Scheme.TZF, 10, 8, gains=[])
        # Enough chunks, but the last holds 808 of the 1 308 rows needed.
        params = make_params(2, 2)
        held = _held_gains(params, Scheme.TZF, 9000, 3, threads=1)
        assert [len(chunk[0]) for chunk in held] == [_CHUNK, 808]
        with pytest.raises(ValueError, match="gains"):
            estimate_outage(params, Scheme.TZF, 9500, 3, gains=held)

    def test_infeasible_scheme(self):
        with pytest.raises(InfeasibleSchemeError):
            estimate_outage(make_params(2, 1), Scheme.TZF, 100, seed=0)
        with pytest.raises(InfeasibleSchemeError):
            estimate_outage(make_params(1, 2), Scheme.RZF, 100, seed=0)

    def test_zf_outage_non_increasing_in_snr(self):
        prev = {Scheme.TZF: 1.1, Scheme.RZF: 1.1}
        for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
            params = make_params(2, 2, 10.0 ** (snr_db / 10.0))
            for scheme in (Scheme.TZF, Scheme.RZF):
                est = estimate_outage(params, scheme, 200_000, seed=6)
                assert est.p_hat <= prev[scheme] + 3.0 * est.std_err
                prev[scheme] = est.p_hat

    def test_mrc_floor_and_low_snr_advantage(self):
        # floor: at 40 and 50 dB the MRC/MRT outage stays put while the
        # ZF schemes have long since decayed below it
        p40 = make_params(3, 3, 1e4)
        p50 = make_params(3, 3, 1e5)
        mrc40 = estimate_outage(p40, Scheme.MRC_MRT, 500_000, seed=7)
        mrc50 = estimate_outage(p50, Scheme.MRC_MRT, 500_000, seed=7)
        tzf40 = estimate_outage(p40, Scheme.TZF, 500_000, seed=7)
        tzf50 = estimate_outage(p50, Scheme.TZF, 500_000, seed=7)
        assert mrc50.p_hat >= mrc40.p_hat - 3.0 * mrc40.std_err
        assert mrc40.p_hat > tzf40.p_hat
        assert mrc50.p_hat > tzf50.p_hat
        # crossover: at 0 dB the matched filters win
        p0 = make_params(2, 2, 1.0)
        mrc0 = estimate_outage(p0, Scheme.MRC_MRT, 200_000, seed=7)
        assert mrc0.p_hat <= estimate_outage(p0, Scheme.TZF, 200_000, seed=7).p_hat
        assert mrc0.p_hat <= estimate_outage(p0, Scheme.RZF, 200_000, seed=7).p_hat


class TestBatchScalarConsistency:
    def test_closed_form_schemes_match_per_realization_path(self):
        params = make_params(3, 2, 4.0, sigma2_li=0.2)
        hsr, hrd, hrr = _chunk_channels(params, 11, 0)
        n = 256
        hsr, hrd, hrr = hsr[:n], hrd[:n], hrr[:n]
        makers = {
            Scheme.MRC_MRT: mrc_mrt,
            Scheme.TZF: tzf,
            Scheme.RZF: rzf,
        }
        for scheme, maker in makers.items():
            batch = _sinr_batch(params, scheme, hsr, hrd, hrr)
            for i in range(n):
                ch = ChannelRealization(hsr[i], hrd[i], hrr[i])
                reference = reference_sinr(ch, params, scheme)
                assert batch[i] == pytest.approx(reference, rel=1e-10)
                scalar = e2e_sinr(ch, params, maker(ch)).e2e
                assert scalar == pytest.approx(batch[i], rel=1e-12)

    def test_hd_matches_per_realization_path(self):
        params = make_params(2, 3, 4.0)
        hsr, hrd, hrr = _chunk_channels(params, 12, 0)
        batch = _sinr_batch(params, Scheme.HALF_DUPLEX, hsr[:64], hrd[:64], hrr[:64])
        for i in range(64):
            ch = ChannelRealization(hsr[i], hrd[i], hrr[i])
            reference = reference_sinr(ch, params, Scheme.HALF_DUPLEX)
            assert batch[i] == pytest.approx(reference, rel=1e-12)
            assert hd_snr(ch, params) == pytest.approx(batch[i], rel=1e-12)

    def test_degenerate_loop_rule_is_scale_invariant(self):
        # A loop direction that is only rounding residue must read as no
        # loop (matched filtering) on the batched and the n = 1 path alike,
        # whatever the scale of H_rr.
        params = make_params(3, 2, 4.0, sigma2_li=0.2)
        scales = 10.0 ** np.arange(-4, 9)
        for ch in _near_degenerate_channels():
            hsr = np.repeat(ch.h_sr[None, :], scales.size, axis=0)
            hrd = np.repeat(ch.h_rd[None, :], scales.size, axis=0)
            hrr = scales[:, None, None] * ch.h_rr[None, :, :]
            for scheme, maker in ((Scheme.TZF, tzf), (Scheme.RZF, rzf)):
                batch = _sinr_batch(params, scheme, hsr, hrd, hrr)
                for i in range(scales.size):
                    scaled = ChannelRealization(hsr[i], hrd[i], hrr[i])
                    scalar = e2e_sinr(scaled, params, maker(scaled)).e2e
                    assert scalar == pytest.approx(batch[i], rel=1e-9)
                assert batch == pytest.approx(np.full(scales.size, batch[0]), rel=1e-6)


class TestSplitKernel:
    """Gains computed once give every SINR bit for bit, at any alpha."""

    MAKERS = {Scheme.TZF: tzf, Scheme.RZF: rzf, Scheme.MRC_MRT: mrc_mrt}
    SPLITS = [(0.1, "fixed"), (0.5, "fixed"), (0.3, "rate_coupled"), (0.8, "rate_coupled")]

    def _assert_exact(self, params, hsr, hrd, hrr):
        for scheme in (*self.MAKERS, Scheme.HALF_DUPLEX):
            gains = _chunk_gains(scheme, hsr, hrd, hrr)
            for alpha, mode in self.SPLITS:
                p = params_at_alpha(params, alpha, mode)
                split = _sinr_from_gains(p, scheme, gains)
                assert np.array_equal(split, _sinr_batch(p, scheme, hsr, hrd, hrr))
                for i in range(hsr.shape[0]):
                    ch = ChannelRealization(hsr[i], hrd[i], hrr[i])
                    if scheme is Scheme.HALF_DUPLEX:
                        scalar = hd_snr(ch, p)
                    else:
                        scalar = e2e_sinr(ch, p, self.MAKERS[scheme](ch)).e2e
                    assert scalar == split[i], (scheme, alpha, mode, i)

    def test_matches_batch_and_per_realization_paths(self):
        params = make_params(3, 2, 4.0, sigma2_li=0.2)
        hsr, hrd, hrr = _chunk_channels(params, 11, 0)
        self._assert_exact(params, hsr[:64], hrd[:64], hrr[:64])

    def test_matches_on_degenerate_loops(self):
        params = make_params(3, 2, 4.0, sigma2_li=0.2)
        scales = 10.0 ** np.arange(-4, 9)
        for ch in _near_degenerate_channels():
            hsr = np.repeat(ch.h_sr[None, :], scales.size, axis=0)
            hrd = np.repeat(ch.h_rd[None, :], scales.size, axis=0)
            hrr = scales[:, None, None] * ch.h_rr[None, :, :]
            self._assert_exact(params, hsr, hrd, hrr)

    def test_leading_rows_of_chunk_gains_are_the_gains_of_leading_draws(self):
        params = make_params(3, 3)
        draws = _chunk_channels(params, 5, 0)
        for scheme in (*self.MAKERS, Scheme.HALF_DUPLEX, Scheme.OPTIMAL):
            full = _chunk_gains(scheme, *draws)
            for keep in (1, 517, _CHUNK - 1):
                lead = _chunk_gains(scheme, *(x[:keep] for x in draws))
                assert all(np.array_equal(f[:keep], g) for f, g in zip(full, lead))


class TestHeldSeeds:
    """The optimal search's seeds, held once per chunk, score as if rebuilt."""

    def _assert_exact(self, params, hsr, hrd, hrr):
        gains = _chunk_gains(Scheme.OPTIMAL, hsr, hrd, hrr)
        assert all(x is y for x, y in zip(gains[:3], (hsr, hrd, hrr)))
        s, seeds = gains[3], (gains[6:11], gains[11:])
        for scheme, seed in zip((Scheme.MRC_MRT, Scheme.TZF), seeds):
            assert np.array_equal(seed[0], precoding._beamformers_batch(scheme, hsr, hrd, hrr)[1])
            for alpha, mode in TestSplitKernel.SPLITS:
                p = params_at_alpha(params, alpha, mode)
                held = precoding._hops_from_wt_gains(p, hsr, s, seed)
                rebuilt = hops_for_wt(p, hsr, hrd, hrr, seed[0])
                wr = precoding._combiner(p, hsr, s, seed)
                general = _fd_hops_from_gains(p, *_fd_gains_batch(hsr, hrd, hrr, wr, seed[0]))
                for h, r, g in zip(held, rebuilt, general):
                    assert np.array_equal(h, r) and np.array_equal(h, g), (scheme, alpha, mode)

    def test_ordinary_draws_and_vanished_loops(self):
        params = make_params(3, 2, 4.0, sigma2_li=0.2)
        hsr, hrd, hrr = (x[:64] for x in _chunk_channels(params, 11, 0))
        hrr = hrr.copy()
        hrr[:8] = 0.0
        self._assert_exact(params, hsr, hrd, hrr)

    def test_degenerate_loops(self):
        params = make_params(3, 2, 4.0, sigma2_li=0.2)
        scales = 10.0 ** np.arange(-4, 9)
        for ch in _near_degenerate_channels():
            hsr = np.repeat(ch.h_sr[None, :], scales.size, axis=0)
            hrd = np.repeat(ch.h_rd[None, :], scales.size, axis=0)
            hrr = scales[:, None, None] * ch.h_rr[None, :, :]
            self._assert_exact(params, hsr, hrd, hrr)

    def test_one_transmit_antenna(self):
        params = make_params(3, 1, 4.0, sigma2_li=0.2)
        self._assert_exact(params, *(x[:64] for x in _chunk_channels(params, 11, 0)))


class TestThroughput:
    def test_total_outage_gives_zero(self):
        assert throughput(make_params(2, 2), Scheme.TZF, 1.0) == 0.0

    def test_full_duplex_value(self):
        params = make_params(2, 2, alpha=0.5, r_c=1.0)
        assert throughput(params, Scheme.TZF, 0.0) == pytest.approx(0.5)

    def test_half_duplex_is_half(self):
        params = make_params(2, 2, alpha=0.3, r_c=2.0)
        p_out = 0.25
        fd = throughput(params, Scheme.TZF, p_out)
        hd = throughput(params, Scheme.HALF_DUPLEX, p_out)
        assert hd == pytest.approx(0.5 * fd, rel=1e-12)

    def test_outage_domain(self):
        with pytest.raises(ValueError):
            throughput(make_params(2, 2), Scheme.TZF, 1.5)


class TestThresholdModes:
    def test_fixed_keeps_threshold(self):
        params = make_params(2, 2, gamma_th=3.0)
        assert params_at_alpha(params, 0.7, "fixed").gamma_th == 3.0

    def test_rate_coupled_recomputes(self):
        params = make_params(2, 2, gamma_th=3.0, r_c=1.0)
        p = params_at_alpha(params, 0.5, "rate_coupled")
        assert p.gamma_th == pytest.approx(2.0**2 - 1.0, rel=1e-12)
        assert p.alpha == 0.5

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            params_at_alpha(make_params(2, 2), 0.5, "bogus")


class TestOptimizeAlpha:
    def test_zero_outage_oracle_pushes_alpha_to_zero(self, monkeypatch):
        params = make_params(2, 2)
        _oracle_estimates(monkeypatch, lambda p, s: 0.0)
        point = optimize_alpha(params, Scheme.TZF, n_trials=1, grid=33, seed=0)
        assert point.alpha <= 1.5 / 34.0
        assert point.throughput >= params.r_c * (1.0 - 1.5 / 34.0)

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            optimize_alpha(make_params(2, 2), Scheme.TZF, 100, grid=4, seed=0)

    def test_analytic_oracle_peak(self, monkeypatch):
        # With the analytic transmit-ZF outage as the oracle, the optimizer
        # must find the curve's true maximum.
        params = make_params(2, 2)

        def oracle(p, scheme):
            return outage_tzf(OutageQuery(p, p.gamma_th))

        _oracle_estimates(monkeypatch, oracle)
        point = optimize_alpha(params, Scheme.TZF, n_trials=1, grid=33, seed=0)
        dense = max(
            (1.0 - oracle(params_at_alpha(params, a), None)) * (1.0 - a)
            for a in np.linspace(0.01, 0.99, 197)
        )
        assert point.throughput == pytest.approx(dense, abs=2e-4)

    def test_bracket_is_the_best_points_neighbours(self, monkeypatch):
        # R(alpha) = 1 - alpha peaks at the smallest grid point, whatever the
        # grid's order; past an end point the bracket reaches halfway to 0
        # or 1, and the refined optimum stays inside the bracket.
        cases = {
            (0.9, 0.1, 0.5): (0.05, 0.5),
            (0.3,): (0.15, 0.65),
            (0.2, 0.6): (0.1, 0.6),
        }
        for alphas, bracket in cases.items():
            found, read_back = _search_and_bracket(
                monkeypatch, lambda p, s: 0.0, list(alphas))
            assert [pt.alpha for pt in found.grid] == list(alphas)
            assert read_back == pytest.approx(bracket, rel=1e-12)
            assert bracket[0] <= found.best.alpha <= bracket[1]
            assert found.best.alpha < min(alphas)

    def test_uniform_grid_bracket_matches_the_step_rule(self, monkeypatch):
        # On a uniform open grid the neighbours are one step away and the end
        # brackets stop half a step from the boundary.
        grid = 9
        step = 1.0 / (grid + 1)
        alphas = [(i + 1) * step for i in range(grid)]
        for peak in (0, 4, grid - 1):
            def oracle(p, s, peak=peak):
                return 0.0 if p.alpha == alphas[peak] else 0.9

            _, read_back = _search_and_bracket(monkeypatch, oracle, alphas)
            lo = max(alphas[peak] - step, step / 2.0)
            hi = min(alphas[peak] + step, 1.0 - step / 2.0)
            assert read_back == pytest.approx((lo, hi), rel=1e-12)

    def test_throughput_point_invariant(self):
        params = make_params(2, 2)
        point = optimize_alpha(
            params, Scheme.HALF_DUPLEX, 20_000, grid=9, seed=4,
        )
        assert point.throughput == pytest.approx(
            0.5 * (1.0 - point.outage) * params.r_c * (1.0 - point.alpha), rel=1e-12
        )


ALL_SCHEMES = [Scheme.OPTIMAL, Scheme.RZF, Scheme.MRC_MRT, Scheme.TZF, Scheme.HALF_DUPLEX]
# Two chunks per closed-form estimate, so two threads split each one.
ALL_TRIALS = [300, 9000, 9000, 9000, 9000]
SHORT_GRID = [0.2, 0.5, 0.8]


class TestLockstepSearch:
    """Each batched search returns what it would alone, for any thread count."""

    @pytest.mark.parametrize("mode", ["fixed", "rate_coupled"])
    def test_batch_equals_single_searches_for_any_thread_count(self, mode):
        params = make_params(2, 2)
        by_threads = {}
        for threads in (1, 2, 3):
            batch = _search_alpha_batch(
                params, ALL_SCHEMES, SHORT_GRID, ALL_TRIALS, seed=9,
                threshold_mode=mode, threads=threads,
            )
            for scheme, n, found in zip(ALL_SCHEMES, ALL_TRIALS, batch):
                (alone,) = _search_alpha_batch(
                    params, [scheme], SHORT_GRID, [n], seed=9,
                    threshold_mode=mode, threads=threads,
                )
                assert (found.grid, found.best) == (alone.grid, alone.best), scheme
            by_threads[threads] = batch
        assert by_threads[1] == by_threads[2] == by_threads[3]
        # Shared draws change no estimate: every grid point is the plain
        # estimate with that seed.
        for scheme, n, found in zip(ALL_SCHEMES, ALL_TRIALS, by_threads[2]):
            for point in found.grid:
                p = params_at_alpha(params, point.alpha, mode)
                est = estimate_outage(p, scheme, n, seed=9)
                assert (point.outage, point.std_err) == (est.p_hat, est.std_err)

    def test_shared_draws_under_thread_churn(self):
        # More workers than cores and a short switch interval: the three
        # searches run side by side on the same read-only chunks.
        params = make_params(3, 3)
        schemes = [Scheme.TZF, Scheme.RZF, Scheme.MRC_MRT]
        trials = [5 * 8192 + 7] * 3
        reference = _search_alpha_batch(params, schemes, [0.5], trials, seed=21, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            churned = _search_alpha_batch(params, schemes, [0.5], trials, seed=21, threads=6)
        finally:
            sys.setswitchinterval(interval)
        assert churned == reference

    def test_batch_equals_single_searches_with_an_oracle(self, monkeypatch):
        params = make_params(2, 2)

        def oracle(p, scheme):
            return math.exp(-p.kappa * (1 + ALL_SCHEMES.index(scheme)))

        _oracle_estimates(monkeypatch, oracle)
        batch = _search_alpha_batch(params, ALL_SCHEMES, SHORT_GRID, ALL_TRIALS, seed=0)
        for scheme, found in zip(ALL_SCHEMES, batch):
            (alone,) = _search_alpha_batch(params, [scheme], SHORT_GRID, [1], seed=0)
            assert found == alone
            assert all(pt.std_err == 0.0 for pt in found.grid)

    def test_each_chunk_is_drawn_once_per_search(self, monkeypatch):
        draws = []
        original = simkit._chunk_channels

        def counted(params, seed, chunk_idx):
            draws.append(chunk_idx)
            return original(params, seed, chunk_idx)

        monkeypatch.setattr(simkit, "_chunk_channels", counted)
        params = make_params(2, 2)
        schemes = [Scheme.TZF, Scheme.RZF, Scheme.HALF_DUPLEX]
        for threads in (1, 2):
            draws.clear()
            _search_alpha_batch(
                params, schemes, SHORT_GRID, [9000, 100, 17000], seed=4, threads=threads,
            )
            assert draws == [0, 1, 2]
            draws.clear()
            _search_alpha_batch(params, [Scheme.TZF], SHORT_GRID, [9000], seed=4,
                                threads=threads)
            assert draws == [0, 1]

    def test_each_search_computes_beamformers_once_per_chunk(self, monkeypatch):
        # No probe recomputes the closed-form beamformers: each search builds
        # them once for every chunk its trial count reads (the last one cut
        # to its trials), half duplex uses none, and the optimal search
        # builds its matched and transmit-ZF seeds once per chunk, in
        # ``_optimal_seed_gains``, and no closed-form beamformers.
        built = Counter()
        original = simkit._beamformers_batch
        seeds = simkit._optimal_seed_gains

        def counted(scheme, hsr, hrd, hrr):
            built[scheme, hsr.shape[0]] += 1
            return original(scheme, hsr, hrd, hrr)

        def counted_seeds(hsr, hrd, hrr):
            built[Scheme.OPTIMAL, hsr.shape[0]] += 1
            return seeds(hsr, hrd, hrr)

        for module in (simkit, precoding):
            monkeypatch.setattr(module, "_beamformers_batch", counted)
        monkeypatch.setattr(simkit, "_optimal_seed_gains", counted_seeds)
        params = make_params(2, 2)
        schemes = [Scheme.TZF, Scheme.RZF, Scheme.MRC_MRT, Scheme.HALF_DUPLEX, Scheme.OPTIMAL]
        for threads in (1, 2):
            built.clear()
            _search_alpha_batch(params, schemes, SHORT_GRID, [9000, 100, 17000, 9000, 9000],
                                seed=4, threads=threads)
            assert built == {
                (Scheme.TZF, _CHUNK): 1, (Scheme.TZF, 9000 - _CHUNK): 1,
                (Scheme.RZF, 100): 1,
                (Scheme.MRC_MRT, _CHUNK): 2, (Scheme.MRC_MRT, 17000 - 2 * _CHUNK): 1,
                (Scheme.OPTIMAL, _CHUNK): 1, (Scheme.OPTIMAL, 9000 - _CHUNK): 1,
            }

    def test_optimal_result_does_not_depend_on_its_place(self):
        # Side by side, the optimal search is submitted first wherever it
        # sits in ``schemes``; every search still returns what it would alone.
        params = make_params(3, 3)
        first = _search_alpha_batch(
            params, [Scheme.OPTIMAL, Scheme.TZF, Scheme.RZF], SHORT_GRID,
            [2000, 9000, 9000], seed=13, threads=2,
        )
        last = _search_alpha_batch(
            params, [Scheme.TZF, Scheme.RZF, Scheme.OPTIMAL], SHORT_GRID,
            [9000, 9000, 2000], seed=13, threads=2,
        )
        assert first[0] == last[2]
        assert first[1:] == last[:2]
        (alone,) = _search_alpha_batch(
            params, [Scheme.OPTIMAL], SHORT_GRID, [2000], seed=13, threads=2)
        assert first[0] == alone

    def test_mismatched_trial_counts(self):
        with pytest.raises(ValueError):
            _search_alpha_batch(make_params(2, 2), [Scheme.TZF], SHORT_GRID, [1, 2], seed=0)

    def test_every_estimate_scores_on_one_thread(self, monkeypatch):
        # One schedule: each whole search runs on one thread, alone or side
        # by side, and none of its estimates splits its chunks.
        seen = []
        original = simkit.estimate_outage

        def recording(*args, threads=1, **kwargs):
            seen.append(threads)
            return original(*args, threads=threads, **kwargs)

        monkeypatch.setattr(simkit, "estimate_outage", recording)
        params = make_params(2, 2)
        _search_alpha_batch(params, [Scheme.TZF], SHORT_GRID, [9000], seed=4, threads=3)
        probes = len(SHORT_GRID) + 2 + simkit._REFINE_ITERS
        assert seen == [1] * probes
        seen.clear()
        _search_alpha_batch(params, ALL_SCHEMES, SHORT_GRID, [300, 2000, 2000, 2000, 2000],
                            seed=4, threads=2)
        assert seen == [1] * probes * len(ALL_SCHEMES)


class TestSeeds:
    """A seed that is not an integer >= 0 is rejected where it enters."""

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_rejected_at_every_entry_point(self, seed):
        params = make_params(2, 2)
        with pytest.raises(ValueError, match="seed"):
            estimate_outage(params, Scheme.TZF, 10, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            _search_alpha_batch(params, [Scheme.TZF], SHORT_GRID, [10], seed=seed)


class TestTrialCounts:
    """A trial count or grid size that is not an integer in range is rejected
    where it enters, before any channel is drawn."""

    @pytest.mark.parametrize("count", [0, -3, 2.5, True])
    def test_rejected_at_every_entry_point(self, count, monkeypatch):
        drawn = []
        monkeypatch.setattr(simkit, "_chunk_channels", lambda *args: drawn.append(args))
        params = make_params(2, 2)
        with pytest.raises(ValueError, match="n_trials"):
            estimate_outage(params, Scheme.TZF, count, seed=0)
        with pytest.raises(ValueError, match="trials"):
            optimize_alpha(params, Scheme.TZF, count, grid=8, seed=0)
        with pytest.raises(ValueError, match="grid"):
            optimize_alpha(params, Scheme.TZF, 10, grid=count, seed=0)
        with pytest.raises(ValueError, match=r"trials\[1\]"):
            _search_alpha_batch(params, [Scheme.TZF, Scheme.RZF], SHORT_GRID, [10, count],
                                seed=0)
        assert drawn == []


class TestThreadCounts:
    """A thread count that is not an integer >= 1 is rejected where it enters."""

    @pytest.mark.parametrize("threads", [0, -3, 2.5])
    def test_rejected_at_every_entry_point(self, threads):
        params = make_params(2, 2)
        with pytest.raises(ValueError, match="threads"):
            estimate_outage(params, Scheme.TZF, 10, seed=0, threads=threads)
        with pytest.raises(ValueError, match="threads"):
            _search_alpha_batch(params, [Scheme.TZF, Scheme.RZF], SHORT_GRID, [10, 10],
                                seed=0, threads=threads)
