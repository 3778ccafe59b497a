"""Monte Carlo estimator: reproducibility, limits, throughput optimization."""

import numpy as np
import pytest

from fdrelay import (
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
from fdrelay.channel import ChannelRealization
from fdrelay.errors import InfeasibleSchemeError
from fdrelay.simkit import (
    MC_SEARCH,
    _chunk_channels,
    _sinr_batch,
    _stream_key,
    params_at_alpha,
    search_alpha,
)

from helpers import make_params, reference_sinr


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
        hsr, hrd, hrr = _chunk_channels(params, _stream_key(11, 0), 0)
        n = 256
        hsr, hrd, hrr = hsr[:n], hrd[:n], hrr[:n]
        makers = {
            Scheme.MRC_MRT: mrc_mrt,
            Scheme.TZF: tzf,
            Scheme.RZF: rzf,
        }
        for scheme, maker in makers.items():
            batch = _sinr_batch(params, scheme, hsr, hrd, hrr, MC_SEARCH)
            for i in range(n):
                ch = ChannelRealization(hsr[i], hrd[i], hrr[i])
                reference = reference_sinr(ch, params, scheme)
                assert batch[i] == pytest.approx(reference, rel=1e-10)
                scalar = e2e_sinr(ch, params, maker(ch)).e2e
                assert scalar == pytest.approx(batch[i], rel=1e-12)

    def test_hd_matches_per_realization_path(self):
        params = make_params(2, 3, 4.0)
        hsr, hrd, hrr = _chunk_channels(params, _stream_key(12, 0), 0)
        batch = _sinr_batch(params, Scheme.HALF_DUPLEX, hsr[:64], hrd[:64], hrr[:64], MC_SEARCH)
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
                batch = _sinr_batch(params, scheme, hsr, hrd, hrr, MC_SEARCH)
                for i in range(scales.size):
                    scaled = ChannelRealization(hsr[i], hrd[i], hrr[i])
                    scalar = e2e_sinr(scaled, params, maker(scaled)).e2e
                    assert scalar == pytest.approx(batch[i], rel=1e-9)
                assert batch == pytest.approx(np.full(scales.size, batch[0]), rel=1e-6)


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
    def test_zero_outage_oracle_pushes_alpha_to_zero(self):
        params = make_params(2, 2)
        point = optimize_alpha(
            params, Scheme.TZF, n_trials=1, grid=33, seed=0,
            outage_fn=lambda p, s: 0.0,
        )
        assert point.alpha <= 1.5 / 34.0
        assert point.throughput >= params.r_c * (1.0 - 1.5 / 34.0)

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            optimize_alpha(make_params(2, 2), Scheme.TZF, 100, grid=4, seed=0)

    def test_analytic_oracle_peak(self):
        # With the analytic transmit-ZF outage as the oracle, the optimizer
        # must find the curve's true maximum.
        params = make_params(2, 2)

        def oracle(p, scheme):
            return outage_tzf(OutageQuery(p, p.gamma_th))

        point = optimize_alpha(
            params, Scheme.TZF, n_trials=1, grid=33, seed=0, outage_fn=oracle,
        )
        dense = max(
            (1.0 - oracle(params_at_alpha(params, a), None)) * (1.0 - a)
            for a in np.linspace(0.01, 0.99, 197)
        )
        assert point.throughput == pytest.approx(dense, abs=2e-4)

    def test_bracket_is_the_best_points_neighbours(self):
        # R(alpha) = 1 - alpha peaks at the smallest grid point, whatever the
        # grid's order; past an end point the bracket reaches halfway to 0
        # or 1, and the refined optimum stays inside the bracket.
        params = make_params(2, 2)
        cases = {
            (0.9, 0.1, 0.5): (0.05, 0.5),
            (0.3,): (0.15, 0.65),
            (0.2, 0.6): (0.1, 0.6),
        }
        for alphas, bracket in cases.items():
            found = search_alpha(
                params, Scheme.TZF, list(alphas), n_trials=1, seed=0,
                outage_fn=lambda p, s: 0.0,
            )
            assert [pt.alpha for pt in found.grid] == list(alphas)
            assert found.bracket == pytest.approx(bracket, rel=1e-12)
            assert bracket[0] <= found.best.alpha <= bracket[1]
            assert found.best.alpha < min(alphas)

    def test_uniform_grid_bracket_matches_the_step_rule(self):
        # On a uniform open grid the neighbours are one step away and the end
        # brackets stop half a step from the boundary.
        params = make_params(2, 2)
        grid = 9
        step = 1.0 / (grid + 1)
        alphas = [(i + 1) * step for i in range(grid)]
        for peak in (0, 4, grid - 1):
            def oracle(p, s, peak=peak):
                return 0.0 if p.alpha == alphas[peak] else 0.9

            found = search_alpha(
                params, Scheme.TZF, alphas, n_trials=1, seed=0, outage_fn=oracle,
                refine_iters=2,
            )
            lo = max(alphas[peak] - step, step / 2.0)
            hi = min(alphas[peak] + step, 1.0 - step / 2.0)
            assert found.bracket == pytest.approx((lo, hi), rel=1e-12)

    def test_throughput_point_invariant(self):
        params = make_params(2, 2)
        point = optimize_alpha(
            params, Scheme.HALF_DUPLEX, 20_000, grid=9, seed=4, refine_iters=6,
        )
        assert point.throughput == pytest.approx(
            0.5 * (1.0 - point.outage) * params.r_c * (1.0 - point.alpha), rel=1e-12
        )
