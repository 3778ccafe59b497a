"""End-to-end SINR evaluation: trivial limits and dual-path identities."""

import numpy as np
import pytest

from fdrelay import (
    ChannelRealization,
    Scheme,
    e2e_sinr,
    hd_snr,
    mrc_mrt,
    rzf,
    sample_channel,
    tzf,
)
from fdrelay.outage import link_coefficients
from fdrelay.precoding import BeamformingPair

from helpers import make_params


def test_zero_loop_first_hop():
    params = make_params(2, 2, 10.0, tau=3.0, d1=2.0, sigma2_li=0.0)
    ch = sample_channel(params, np.random.default_rng(0))
    out = e2e_sinr(ch, params, mrc_mrt(ch))
    gain = float(np.sum(np.abs(ch.h_sr) ** 2))
    assert out.first_hop == pytest.approx(
        params.p_s * gain / params.d1**params.tau, rel=1e-12
    )
    assert out.li_power == 0.0
    assert out.e2e == min(out.first_hop, out.second_hop)


def test_zero_source_channel_gives_zero_sinr():
    params = make_params(2, 2)
    w = np.array([1.0 + 0j, 0.0 + 0j])
    pair = BeamformingPair(w, w, Scheme.MRC_MRT)
    ch = ChannelRealization(
        h_sr=np.zeros(2, dtype=complex),
        h_rd=np.array([1.0 + 0j, 0.0 + 0j]),
        h_rr=np.zeros((2, 2), dtype=complex),
    )
    assert e2e_sinr(ch, params, pair).e2e == 0.0


def test_dimension_mismatch():
    params = make_params(2, 2)
    ch = sample_channel(make_params(3, 2), np.random.default_rng(1))
    with pytest.raises(ValueError):
        e2e_sinr(ch, params, mrc_mrt(ch))


def test_tzf_pair_matches_reduced_expression():
    # For the transmit-ZF pair the general evaluation must agree with the
    # scheme's reduced form (p_s/((1-a) d1^tau)) ||h_sr||^2
    # min(1-a, eta*a*g/d2^tau) built from the projected gain g.
    params = make_params(2, 3, 7.0, d1=1.5, d2=2.0, tau=2.5, alpha=0.4)
    rng = np.random.default_rng(9)
    for _ in range(100):
        ch = sample_channel(params, rng)
        pair = tzf(ch)
        general = e2e_sinr(ch, params, pair).e2e
        gain = abs(np.dot(ch.h_rd, pair.w_t)) ** 2
        s = float(np.sum(np.abs(ch.h_sr) ** 2))
        reduced = (
            params.p_s
            / ((1.0 - params.alpha) * params.d1**params.tau)
            * s
            * min(
                1.0 - params.alpha,
                params.eta * params.alpha * gain / params.d2**params.tau,
            )
        )
        assert general == pytest.approx(reduced, rel=1e-10)


def test_zf_pairs_are_loop_free():
    params = make_params(3, 3, sigma2_li=0.2)
    rng = np.random.default_rng(17)
    for _ in range(50):
        ch = sample_channel(params, rng)
        for maker in (tzf, rzf):
            pair = maker(ch)
            out = e2e_sinr(ch, params, pair)
            scale = params.kappa * params.p_s * np.sum(np.abs(ch.h_sr) ** 2)
            assert out.li_power <= 1e-18 * max(scale, 1.0)
            # same draw evaluated as if the loop variance were zero
            quiet = ChannelRealization(ch.h_sr, ch.h_rd, ch.h_rr)
            assert e2e_sinr(quiet, params, pair).e2e == pytest.approx(
                out.e2e, rel=1e-12
            )


def test_monotone_in_source_power_for_zf():
    params = make_params(2, 2, 5.0)
    ch = sample_channel(params, np.random.default_rng(3))
    pair = tzf(ch)
    g1 = e2e_sinr(ch, params, pair).e2e
    g2 = e2e_sinr(ch, make_params(2, 2, 10.0), pair).e2e
    assert g2 >= g1


def test_mrc_single_transmit_antenna_scalar_form():
    # m_t = 1: the general expression reduces to
    # min(c1*y1/(c2*x1*y1 + 1), c3*y1*y2) with x1 the unit-variance loop
    # pickup through the matched combiner.
    params = make_params(3, 1, 8.0, d1=1.3, d2=1.7, tau=2.8, sigma2_li=0.25)
    rng = np.random.default_rng(23)
    c1, c2, c3 = link_coefficients(params)
    for _ in range(100):
        ch = sample_channel(params, rng)
        pair = mrc_mrt(ch)
        y1 = float(np.sum(np.abs(ch.h_sr) ** 2))
        y2 = float(np.abs(ch.h_rd[0]) ** 2)
        x1 = abs(np.vdot(ch.h_sr, ch.h_rr[:, 0])) ** 2 / (y1 * params.sigma2_li)
        reduced = min(c1 * y1 / (c2 * x1 * y1 + 1.0), c3 * y1 * y2)
        assert e2e_sinr(ch, params, pair).e2e == pytest.approx(reduced, rel=1e-10)


class TestHalfDuplex:
    def test_first_hop_limited(self):
        params = make_params(2, 2, 4.0, d1=1.2, tau=3.0)
        ch = sample_channel(params, np.random.default_rng(2))
        boosted = ChannelRealization(ch.h_sr, 100.0 * ch.h_rd, ch.h_rr)
        gain = float(np.sum(np.abs(ch.h_sr) ** 2))
        assert hd_snr(boosted, params) == pytest.approx(
            params.p_s / params.d1**params.tau * gain, rel=1e-12
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_relay_gain_is_no_loop(self):
        # kappa p_s = 9e308 overflows, so the second hop is infinite and a
        # zero leak times the infinite kappa p_s S must not make a nan.
        params = make_params(2, 2, 1e308, alpha=0.9)
        ch = sample_channel(params, np.random.default_rng(4))
        ch = ChannelRealization(0.1 * ch.h_sr, ch.h_rd, ch.h_rr)
        c1, _, c3 = link_coefficients(params)
        s = float(np.sum(np.abs(ch.h_sr) ** 2))
        r = float(np.sum(np.abs(ch.h_rd) ** 2))
        assert hd_snr(ch, params) == pytest.approx(s * min(c1, 2.0 * c3 * r), rel=1e-12)

    def test_zero_source_channel(self):
        params = make_params(2, 2)
        ch = ChannelRealization(
            h_sr=np.zeros(2, dtype=complex),
            h_rd=np.array([1.0 + 0j, 1.0 + 0j]),
            h_rr=np.zeros((2, 2), dtype=complex),
        )
        assert hd_snr(ch, params) == 0.0

    def test_term_by_term(self):
        params = make_params(2, 3, 6.0, d1=1.4, d2=2.2, tau=2.7, alpha=0.35)
        rng = np.random.default_rng(4)
        for _ in range(100):
            ch = sample_channel(params, rng)
            d1t = params.d1**params.tau
            d2t = params.d2**params.tau
            c1 = params.p_s / d1t
            c3 = params.p_s * params.kappa / (d1t * d2t)
            expected = float(np.sum(np.abs(ch.h_sr) ** 2)) * min(
                c1, 2.0 * c3 * float(np.sum(np.abs(ch.h_rd) ** 2))
            )
            assert hd_snr(ch, params) == pytest.approx(expected, rel=1e-12)
