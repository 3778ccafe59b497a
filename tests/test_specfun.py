"""Special-function identities, quadrature closed forms, and sampling oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from fdrelay import (
    QuadratureConvergenceError,
    digamma,
    integrate_semi_infinite,
    ln_gamma,
    meijer_special_cdf,
    reg_gamma_p,
    reg_gamma_q,
    specfun,
)

EULER_GAMMA = 0.5772156649015329


def test_ln_gamma_closed_forms():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-12)


def test_ln_gamma_domain():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-2.5)


def test_reg_gamma_q_closed_forms():
    for a in (0.5, 1.0, 2.0, 7.3):
        assert reg_gamma_q(a, 0.0) == 1.0
    for x in (0.1, 1.0, 4.0, 20.0):
        assert reg_gamma_q(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)
    assert reg_gamma_q(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    # integer order: Q(n, x) = e^-x sum_{k<n} x^k / k!
    for n in (3, 5):
        for x in (0.5, 2.0, 9.0):
            closed = math.exp(-x) * sum(x**k / math.factorial(k) for k in range(n))
            assert reg_gamma_q(n, x) == pytest.approx(closed, rel=1e-12)


def test_reg_gamma_p_closed_forms():
    for a in (0.5, 2.0, 6.0):
        assert reg_gamma_p(a, 0.0) == 0.0
    assert reg_gamma_p(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert reg_gamma_p(3.0, 2.5) == pytest.approx(1.0 - reg_gamma_q(3.0, 2.5), abs=1e-15)


def test_gamma_domain_errors():
    for fn in (reg_gamma_p, reg_gamma_q):
        with pytest.raises(ValueError):
            fn(0.0, 1.0)
        with pytest.raises(ValueError):
            fn(-1.0, 1.0)
        with pytest.raises(ValueError):
            fn(2.0, -0.5)


def test_complement_identity_grid():
    a_grid = np.concatenate([np.linspace(0.05, 5.0, 40), [10.0, 25.0, 80.0]])
    x_grid = np.concatenate([[0.0], np.geomspace(1e-6, 200.0, 40)])
    worst = max(
        abs(reg_gamma_p(a, x) + reg_gamma_q(a, x) - 1.0)
        for a in a_grid
        for x in x_grid
    )
    assert worst <= 1e-12


def test_reg_gamma_q_monotone_in_x():
    xs = np.linspace(0.0, 30.0, 1000)
    for a in (0.7, 1.0, 3.0):
        vals = np.array([reg_gamma_q(a, x) for x in xs])
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


def _digamma_reference(x: float, terms: int = 50) -> float:
    """Asymptotic series with recurrence shift; independent of the library path."""
    shift = 0.0
    while x < 30.0:
        shift -= 1.0 / x
        x += 1.0
    bern = sp.bernoulli(2 * terms)
    val = math.log(x) - 0.5 / x
    for k in range(1, terms + 1):
        val -= bern[2 * k] / (2 * k * x ** (2 * k))
    return val + shift


def test_digamma_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
    assert digamma(10.0) == pytest.approx(_digamma_reference(10.0), abs=1e-10)
    for x in (0.37, 3.25, 17.0):
        assert digamma(x) == pytest.approx(_digamma_reference(x), abs=1e-10)


def test_digamma_recurrence():
    for x in (0.5, 1.0, 2.0, 7.3):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)


def test_digamma_domain():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-3.0)


def test_exp1_matches_mpmath():
    for x in (1e-3, 0.5, 1.0, 10.0, 50.0):
        assert specfun.exp1(x) == pytest.approx(float(mpmath.e1(x)), rel=1e-13), x


def test_exp1_domain():
    with pytest.raises(ValueError):
        specfun.exp1(0.0)
    with pytest.raises(ValueError):
        specfun.exp1(-1.0)


class TestLoopProductCdf:
    def test_boundaries(self):
        assert meijer_special_cdf(0.0, 3) == 0.0
        assert meijer_special_cdf(60.0, 3) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_single_antenna(self):
        for t in (0.0, 0.3, 1.7, 8.0):
            assert meijer_special_cdf(t, 1) == pytest.approx(
                1.0 - math.exp(-t), abs=1e-15
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            meijer_special_cdf(-0.1, 2)
        with pytest.raises(ValueError):
            meijer_special_cdf(1.0, 0)

    def test_monotone_and_bounded(self):
        ts = np.linspace(0.0, 12.0, 1000)
        vals = np.array([meijer_special_cdf(t, 3) for t in ts])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_sampling_oracle(self):
        # Empirical CDF of Z*U, Z ~ Beta(1, m_r - 1), U ~ Gamma(m_r, 1).
        rng = np.random.default_rng(20240817)
        m_r, t, n = 2, 1.0, 10_000_000
        hits = 0
        for _ in range(10):
            z = rng.beta(1.0, m_r - 1.0, n // 10)
            u = rng.gamma(float(m_r), 1.0, n // 10)
            hits += int(np.count_nonzero(z * u <= t))
        f_hat = hits / n
        se = math.sqrt(f_hat * (1.0 - f_hat) / n)
        assert meijer_special_cdf(t, m_r) == pytest.approx(f_hat, abs=3.0 * se)

    def test_beta_gamma_product_collapses_to_exponential(self):
        # Beta(1, m-1) x Gamma(m, 1) is Gamma(1, 1) by the beta-gamma algebra,
        # so the CDF is 1 - exp(-t) for every m_r.
        for m_r in (2, 3, 5):
            for t in (0.2, 1.0, 3.7):
                assert meijer_special_cdf(t, m_r) == pytest.approx(
                    1.0 - math.exp(-t), abs=1e-10
                )


class TestSemiInfiniteQuadrature:
    def test_exponential(self):
        assert integrate_semi_infinite(lambda u: math.exp(-u), 0.0) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_first_moment(self):
        assert integrate_semi_infinite(
            lambda u: u * math.exp(-u), 0.0
        ) == pytest.approx(1.0, abs=1e-10)

    def test_shifted_second_moment(self):
        assert integrate_semi_infinite(
            lambda u: u * u * math.exp(-u), 1.0
        ) == pytest.approx(5.0 * math.exp(-1.0), abs=1e-10)

    def test_incomplete_gamma_closed_forms(self):
        for a in range(1, 6):
            for lower in (0.0, 1.0, 2.5):
                closed = (
                    math.factorial(a - 1)
                    * math.exp(-lower)
                    * sum(lower**k / math.factorial(k) for k in range(a))
                )
                got = integrate_semi_infinite(
                    lambda u, a=a: u ** (a - 1) * math.exp(-u), lower
                )
                assert got == pytest.approx(closed, abs=1e-9)

    def test_zero_integrand(self):
        assert integrate_semi_infinite(lambda u: 0.0, 3.0) == 0.0

    def test_boundary_layer_at_left_endpoint(self):
        # Mass concentrated within ~1e-4 of the endpoint of a wide interval;
        # a naive adaptive pass would step over it.
        eps = 1e-4
        got = integrate_semi_infinite(
            lambda u: math.exp(-(u - eps) / eps) / eps * math.exp(-u), eps
        )
        assert got == pytest.approx(math.exp(-eps) / (1.0 + eps), rel=1e-6)

    def test_convergence_error_carries_estimate(self):
        # Some 400 slowly decaying oscillations before the last node: the
        # sums at steps 1/64 and 1/32 disagree by far more than the tolerance.
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_semi_infinite(
                lambda u: math.cos(3.0 * u) * math.exp(-u / 50.0), 0.0
            )
        assert "step-halving difference" in str(err.value)
        assert math.isfinite(err.value.estimate)

    def test_slow_decay_trips_the_truncated_tail(self):
        # e^(-u/200) is still 0.018 at the last node, x = 807.
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_semi_infinite(lambda u: math.exp(-u / 200.0), 0.0)
        assert "truncated tail" in str(err.value)
        assert 0.0 < err.value.estimate < 200.0

    def test_batched_rows_equal_the_n1_wrapper(self):
        # 1 / (s + x^8) in products alone, so the numpy and Python float
        # integrands agree bit for bit.
        lowers, scales = [0.0, 0.5, 2.0, 1e-9], [1.0, 3.0, 0.5, 1.0]
        s = np.array(scales)[:, None]

        def batched(x):
            x2 = x * x
            x4 = x2 * x2
            return 1.0 / (s + x4 * x4)

        values, errors = specfun.integrate_semi_infinite_batch(batched, lowers)
        assert values.shape == errors.shape == (4,)
        for lower, scale, value, error in zip(lowers, scales, values, errors):
            def scalar(u, scale=scale):
                u2 = u * u
                u4 = u2 * u2
                return 1.0 / (scale + u4 * u4)

            assert integrate_semi_infinite(scalar, lower) == value
            assert error <= max(1e-10, 1e-8 * value)
        # int_0^inf dx / (1 + x^8) = (pi/8) / sin(pi/8)
        assert values[0] == pytest.approx(math.pi / 8.0 / math.sin(math.pi / 8.0), rel=1e-14)
