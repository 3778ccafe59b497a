"""Analytic outage CDFs: limits, Monte Carlo agreement, asymptotic laws."""

import math

import numpy as np
import pytest

from fdrelay import (
    OutageQuery,
    Scheme,
    diversity_order,
    estimate_outage,
    outage_hd,
    outage_mrc_mrt,
    outage_rzf,
    outage_rzf_asymptotic,
    outage_tzf,
    outage_tzf_asymptotic,
    reg_gamma_p,
)
from fdrelay.errors import InfeasibleSchemeError
from fdrelay.outage import link_coefficients

from helpers import make_params, reference_mrc_outage


def q_at(params, z=None):
    return OutageQuery(params, params.gamma_th if z is None else z)


class TestLimitsAndDomains:
    def test_small_threshold_limits(self):
        for fn, m_r, m_t in (
            (outage_tzf, 2, 2),
            (outage_rzf, 2, 2),
            (outage_mrc_mrt, 2, 1),
            (outage_mrc_mrt, 1, 2),
            (outage_mrc_mrt, 2, 2),
            (outage_mrc_mrt, 3, 3),
            (outage_hd, 2, 2),
        ):
            params = make_params(m_r, m_t)
            assert fn(OutageQuery(params, 1e-7)) <= 1e-4

    def test_feasibility_errors(self):
        with pytest.raises(InfeasibleSchemeError):
            outage_tzf(q_at(make_params(2, 1)))
        with pytest.raises(InfeasibleSchemeError):
            outage_rzf(q_at(make_params(1, 2)))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            OutageQuery(make_params(2, 2), 0.0)

    def test_lambda_group(self):
        p = make_params(2, 2, 20.0, d1=2.0, tau=3.0)
        assert q_at(p, 1.5).lam == pytest.approx(2.0**3 * 1.5 / 20.0, rel=1e-12)

    def test_monotone_cdfs(self):
        cases = [
            (outage_tzf, make_params(2, 2, 5.0)),
            (outage_rzf, make_params(2, 2, 5.0)),
            (outage_mrc_mrt, make_params(2, 1, 5.0)),
            (outage_mrc_mrt, make_params(1, 2, 5.0)),
            (outage_mrc_mrt, make_params(2, 2, 5.0)),
            (outage_mrc_mrt, make_params(3, 3, 5.0)),
            (outage_hd, make_params(2, 2, 5.0)),
        ]
        zs = np.geomspace(0.01, 50.0, 200)
        for fn, params in cases:
            vals = np.array([fn(OutageQuery(params, float(z))) for z in zs])
            assert np.all(np.diff(vals) >= -1e-9)
            assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestTzf:
    def test_harvest_dominant_limit(self):
        # As the harvesting gain blows up the second hop never binds and the
        # CDF collapses to the first hop's Gamma tail P(m_r, lam).
        params = make_params(2, 3, 10.0, alpha=0.9999995)
        q = q_at(params)
        assert outage_tzf(q) == pytest.approx(reg_gamma_p(2, q.lam), abs=1e-4)

    def test_matches_monte_carlo(self):
        params = make_params(2, 2, 100.0)  # 20 dB
        analytic = outage_tzf(q_at(params))
        est = estimate_outage(params, Scheme.TZF, 1_000_000, seed=4, threads=2)
        assert abs(analytic - est.p_hat) <= 3.0 * est.std_err + 1e-3


class TestTzfAsymptotic:
    def test_second_hop_limited_branch_value(self):
        # m_t < m_r + 1 reduces to Gamma(m_r-m_t+1)/(Gamma(m_t)Gamma(m_r))
        # (d2^tau/kappa)^(m_t-1) lam^(m_t-1).
        params = make_params(2, 2, 1e3, d2=1.3, tau=2.6, alpha=0.35)
        q = q_at(params)
        c = params.d2**params.tau / params.kappa
        assert outage_tzf_asymptotic(q) == pytest.approx(c * q.lam, rel=1e-12)

    def test_balanced_branch_log_decay(self):
        # m_t = m_r + 1 decays as rho^-m_r * log(rho): the ratio to that
        # model stabilizes at high SNR.
        ratios = []
        for rho in (1e6, 1e8):
            params = make_params(2, 3, rho)
            q = q_at(params)
            ratios.append(
                outage_tzf_asymptotic(q) / (rho**-2.0 * math.log(rho))
            )
        assert ratios[1] == pytest.approx(ratios[0], rel=0.05)

    def test_laws_past_the_float_range(self):
        # lam = 1e300 puts lam^2 past the float range, so those laws are
        # inf; lam = 1e-300 / 1e30 underflows to 0, where the balanced
        # law's -ln(lam) would fail and its limit is 0.
        for m_r, m_t, p_s, z, law in ((3, 3, 1.0, 1e300, math.inf),
                                      (2, 4, 1.0, 1e300, math.inf),
                                      (2, 3, 1.0, 1e300, math.inf),
                                      (2, 3, 1e30, 1e-300, 0.0)):
            q = OutageQuery(make_params(m_r, m_t, p_s), z)
            assert outage_tzf_asymptotic(q) == law, (m_r, m_t)
        assert outage_rzf_asymptotic(OutageQuery(make_params(3, 3), 1e300)) == math.inf

    def test_ratio_to_exact_at_40db(self):
        for m_r, m_t in ((2, 2), (2, 3), (3, 2)):
            params = make_params(m_r, m_t, 1e4)
            q = q_at(params)
            assert outage_tzf_asymptotic(q) == pytest.approx(outage_tzf(q), rel=0.1)

    def test_ratio_all_feasible_configs(self):
        # Full antenna sweep, including the first-hop branch m_t > m_r + 1.
        for m_r in range(1, 5):
            for m_t in range(2, 5):
                params = make_params(m_r, m_t, 1e4)
                q = q_at(params)
                assert outage_tzf_asymptotic(q) == pytest.approx(
                    outage_tzf(q), rel=0.1
                ), (m_r, m_t)

    def test_first_hop_limited_laws_at_80db(self):
        # m_t >= m_r + 1 with d2^tau/kappa far from 1, where cancellation in
        # the coefficient would show: the laws stay positive and within 1e-3
        # of the exact CDF.
        for m_r in range(1, 5):
            for m_t in range(m_r + 1, m_r + 4):
                for d2 in (2.0, 3.0):
                    for alpha in (0.1, 0.5):
                        q = q_at(make_params(m_r, m_t, 1e8, d2=d2, alpha=alpha))
                        approx = outage_tzf_asymptotic(q)
                        assert approx > 0.0, (m_r, m_t, d2, alpha)
                        assert approx == pytest.approx(outage_tzf(q), rel=1e-3), (
                            m_r, m_t, d2, alpha)


class TestRzf:
    def test_matches_monte_carlo(self):
        params = make_params(3, 1, 10.0)
        analytic = outage_rzf(q_at(params))
        est = estimate_outage(params, Scheme.RZF, 1_000_000, seed=6, threads=2)
        assert abs(analytic - est.p_hat) <= 3.0 * est.std_err + 1e-3

    def test_harvest_dominant_limit_product_sampler(self):
        # Large harvesting gain: outage -> P(W * X1 < lam) with
        # W ~ Gamma(m_r, 1) and X1 ~ Beta(m_r - 1, 1), sampled directly.
        params = make_params(3, 2, 10.0, alpha=0.9999995)
        q = q_at(params)
        rng = np.random.default_rng(31)
        n = 1_000_000
        w = rng.gamma(3.0, 1.0, n)
        x1 = rng.beta(2.0, 1.0, n)
        p_hat = float(np.mean(w * x1 < q.lam))
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        assert outage_rzf(q) == pytest.approx(p_hat, abs=3.0 * se + 1e-4)


class TestRzfAsymptotic:
    def test_receive_limited_branch_value(self):
        params = make_params(2, 2, 1e3)
        q = q_at(params)
        assert outage_rzf_asymptotic(q) == pytest.approx(q.lam, rel=1e-12)

    def test_balanced_branch_value(self):
        # m_r = m_t + 1: (1/Gamma(m_r)) (1 + (d2^tau/kappa)^m_t / Gamma(m_t+1))
        # lam^m_t; the second-hop coefficient carries Gamma(m_t + 1), pinned
        # against the exact integral.
        params = make_params(3, 2, 1e4)
        q = q_at(params)
        c = params.d2**params.tau / params.kappa
        expected = (1.0 + c**2 / 2.0) * q.lam**2 / 2.0
        assert outage_rzf_asymptotic(q) == pytest.approx(expected, rel=1e-12)
        assert outage_rzf(q) == pytest.approx(expected, rel=0.01)

    def test_ratio_to_exact_at_40db(self):
        for m_r, m_t in ((3, 1), (2, 2), (4, 2)):
            params = make_params(m_r, m_t, 1e4)
            q = q_at(params)
            assert outage_rzf_asymptotic(q) == pytest.approx(outage_rzf(q), rel=0.1)

    def test_ratio_all_feasible_configs(self):
        for m_r in range(2, 5):
            for m_t in range(1, 5):
                params = make_params(m_r, m_t, 1e4)
                q = q_at(params)
                assert outage_rzf_asymptotic(q) == pytest.approx(
                    outage_rzf(q), rel=0.1
                ), (m_r, m_t)


class TestMrcCases:
    def test_interference_free_limit_case1(self):
        params = make_params(2, 1, 10.0, sigma2_li=0.0)
        q = q_at(params)
        c1, _, c3 = link_coefficients(params)

        def integrand(y):
            return math.exp(-q.z / (c3 * y)) * y * math.exp(-y)

        from fdrelay import integrate_semi_infinite

        expected = 1.0 - integrate_semi_infinite(integrand, q.z / c1)
        assert outage_mrc_mrt(q) == pytest.approx(expected, abs=1e-9)

    def test_interference_free_limit_case2(self):
        params = make_params(1, 2, 10.0, sigma2_li=0.0)
        q = q_at(params)
        c1, _, c3 = link_coefficients(params)
        from fdrelay import integrate_semi_infinite, reg_gamma_q

        def integrand(x):
            return reg_gamma_q(2, q.z / (c3 * x)) * math.exp(-x)

        expected = 1.0 - integrate_semi_infinite(integrand, q.z / c1)
        assert outage_mrc_mrt(q) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "m_r, m_t", [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 2), (3, 3), (4, 4)]
    )
    def test_deep_tail_matches_mpmath(self, m_r, m_t):
        # Monte Carlo (criterion 2) cannot resolve a relative error of 1e-6
        # at these outage levels (down to 2e-41 at 100 dB).
        for sigma2_li in (0.1, 0.03, 1e-3):
            for snr_db in (0.0, 20.0, 40.0, 60.0, 100.0):
                p_s = 10.0 ** (snr_db / 10.0)
                params = make_params(m_r, m_t, p_s, sigma2_li=sigma2_li)
                expected = reference_mrc_outage(params, params.gamma_th)
                assert outage_mrc_mrt(q_at(params)) == pytest.approx(
                    expected, rel=1e-6, abs=0.0
                )

    @pytest.mark.parametrize("m_r, m_t, seed", [
        pytest.param(2, 1, 8, id="2-1"),
        pytest.param(1, 2, 9, id="1-2"),
        pytest.param(2, 2, 11, id="2-2"),
    ])
    def test_matches_monte_carlo(self, m_r, m_t, seed):
        params = make_params(m_r, m_t, 10.0)
        analytic = outage_mrc_mrt(q_at(params))
        est = estimate_outage(params, Scheme.MRC_MRT, 1_000_000, seed=seed, threads=2)
        assert abs(analytic - est.p_hat) <= 3.0 * est.std_err + 1e-3


class TestHd:
    def test_structural_identity_with_tzf(self):
        # The half-duplex CDF is the transmit-ZF CDF with one more
        # second-hop dimension and the harvesting gain doubled.
        params_hd = make_params(2, 2, 10.0, alpha=0.4)
        alpha2 = 2.0 * 0.4 / (1.0 + 0.4)  # kappa doubles
        params_tzf = make_params(2, 3, 10.0, alpha=alpha2)
        for z in (0.3, 1.0, 4.0):
            hd = outage_hd(OutageQuery(params_hd, z))
            tz = outage_tzf(OutageQuery(params_tzf, z))
            assert hd == pytest.approx(tz, abs=1e-10)

    def test_matches_monte_carlo(self):
        params = make_params(3, 2, 10.0)
        analytic = outage_hd(q_at(params))
        est = estimate_outage(params, Scheme.HALF_DUPLEX, 1_000_000, seed=10, threads=2)
        assert abs(analytic - est.p_hat) <= 3.0 * est.std_err + 1e-3


class TestDiversityOrder:
    def test_values(self):
        assert diversity_order(Scheme.TZF, 2, 2) == 1
        assert diversity_order(Scheme.RZF, 3, 1) == 1
        assert diversity_order(Scheme.TZF, 4, 4) == 3
        assert diversity_order(Scheme.RZF, 4, 2) == 2

    def test_uncharacterized_schemes(self):
        with pytest.raises(ValueError):
            diversity_order(Scheme.MRC_MRT, 2, 2)
        with pytest.raises(ValueError):
            diversity_order(Scheme.OPTIMAL, 2, 2)

    def test_log_log_slopes(self):
        # Analytic slope between 35 and 45 dB matches the diversity order;
        # the balanced transmit-ZF case uses the log-corrected model.
        def slope(fn, m_r, m_t, correct_log=False):
            vals = []
            for rho in (10**3.5, 10**4.5):
                params = make_params(m_r, m_t, rho)
                val = fn(q_at(params))
                if correct_log:
                    val /= math.log(rho)
                vals.append(val)
            return -(math.log10(vals[1]) - math.log10(vals[0]))

        for m_r, m_t in ((2, 2), (3, 2)):
            assert slope(outage_tzf, m_r, m_t) == pytest.approx(
                diversity_order(Scheme.TZF, m_r, m_t), abs=0.3
            )
        assert slope(outage_tzf, 2, 3, correct_log=True) == pytest.approx(2.0, abs=0.3)
        for m_r, m_t in ((2, 2), (3, 1), (4, 2)):
            assert slope(outage_rzf, m_r, m_t) == pytest.approx(
                diversity_order(Scheme.RZF, m_r, m_t), abs=0.3
            )
