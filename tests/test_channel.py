"""Channel distribution fits, determinism, and harvested-power scaling."""

import math

import numpy as np
import pytest
from scipy import stats

from fdrelay import ChannelRealization, SystemParams, relay_power, sample_channel
from fdrelay.channel import _draw_channels, _standard_complex_normal

from helpers import make_params


@pytest.fixture(scope="module")
def gain_draws():
    """||h_sr||^2 over 1e6 draws at m_r = 2 (shared by the fit tests).

    One batched draw; ``sample_channel`` is its row 0 (pinned below).
    """
    hsr, _, _ = _draw_channels(make_params(2, 2), np.random.default_rng(42), 1_000_000)
    return np.sum(np.abs(hsr) ** 2, axis=1)


def test_zero_loop_variance_gives_zero_matrix():
    params = make_params(3, 2, sigma2_li=0.0)
    ch = sample_channel(params, np.random.default_rng(1))
    assert np.all(ch.h_rr == 0.0)
    assert ch.h_rr.shape == (3, 2)


def test_same_seed_same_realization():
    params = make_params(3, 4)
    a = sample_channel(params, np.random.default_rng(1234))
    b = sample_channel(params, np.random.default_rng(1234))
    assert np.array_equal(a.h_sr, b.h_sr)
    assert np.array_equal(a.h_rd, b.h_rd)
    assert np.array_equal(a.h_rr, b.h_rr)


@pytest.mark.parametrize("m_r, m_t, sigma2_li", [(1, 1, 0.1), (3, 4, 0.3), (2, 3, 0.0)])
def test_sample_channel_is_row_zero_of_the_batched_draw(m_r, m_t, sigma2_li):
    # From any generator state: the one-row batched draw, and the pinned
    # draw order h_sr, h_rd, then the loop channel scaled by sqrt(sigma2_li).
    params = make_params(m_r, m_t, sigma2_li=sigma2_li)
    rng = np.random.default_rng(9)
    rng.standard_normal(5)
    state = rng.bit_generator.state
    ch = sample_channel(params, rng)
    rng.bit_generator.state = state
    batch = _draw_channels(params, rng, 1)
    rng.bit_generator.state = state
    pinned = (
        _standard_complex_normal(rng, (m_r,)),
        _standard_complex_normal(rng, (m_t,)),
        np.sqrt(sigma2_li) * _standard_complex_normal(rng, (m_r, m_t)),
    )
    for got, rows, want in zip((ch.h_sr, ch.h_rd, ch.h_rr), batch, pinned):
        assert rows.shape == (1,) + got.shape and not rows.flags.writeable
        assert got.tobytes() == rows[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(1,), (4,), (8192, 4), (8192, 3, 3), (8192, 4, 4)])
def test_complex_normals_are_bit_identical_to_the_complex_division(shape):
    # The in-place 1/sqrt(2) scaling must give the very bits of the plain
    # complex construction from the same generator state.
    got = _standard_complex_normal(np.random.default_rng(77), shape)
    z = np.random.default_rng(77).standard_normal(shape + (2,))
    want = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    assert got.shape == shape and got.dtype == np.complex128
    assert np.array_equal(got.real, want.real) and np.array_equal(got.imag, want.imag)


def test_sample_channel_is_read_only():
    ch = sample_channel(make_params(3, 2), np.random.default_rng(5))
    for arr in (ch.h_sr, ch.h_rd, ch.h_rr):
        assert not arr.flags.writeable


def test_mean_gain_matches_antenna_count(gain_draws):
    # E ||h_sr||^2 = m_r under the unit-variance convention.
    n = gain_draws.size
    band = 3.0 * gain_draws.std() / np.sqrt(n)
    assert abs(gain_draws.mean() - 2.0) <= band


def test_gain_fits_gamma(gain_draws):
    # Kolmogorov-Smirnov against Gamma(m_r, 1) below the 1% critical value.
    sample = gain_draws[:100_000]
    stat = stats.kstest(sample, "gamma", args=(2.0, 0.0, 1.0)).statistic
    critical_1pct = 1.628 / np.sqrt(sample.size)
    assert stat < critical_1pct


def test_entry_variances():
    params = make_params(2, 2, sigma2_li=0.3)
    rng = np.random.default_rng(7)
    draws = [sample_channel(params, rng) for _ in range(20_000)]
    sr = np.concatenate([ch.h_sr for ch in draws])
    rr = np.concatenate([ch.h_rr.ravel() for ch in draws])
    assert np.mean(np.abs(sr) ** 2) == pytest.approx(1.0, abs=0.05)
    assert np.mean(np.abs(rr) ** 2) == pytest.approx(0.3, abs=0.02)
    # circular symmetry: real/imag parts each carry half the variance
    assert np.var(sr.real) == pytest.approx(0.5, abs=0.02)


def test_relay_power_examples():
    ch = ChannelRealization(
        h_sr=np.array([1.0 + 0j, 1.0 + 0j]),
        h_rd=np.array([1.0 + 0j]),
        h_rr=np.zeros((2, 1), dtype=complex),
    )
    # kappa = 1 at eta = 1, alpha = 0.5; ||h_sr||^2 = 2
    p = make_params(2, 1, 10.0, tau=3.0, alpha=0.5)
    assert relay_power(p, ch) == pytest.approx(20.0, rel=1e-12)

    p = make_params(2, 1, 1.0, alpha=0.75)
    ch1 = ChannelRealization(
        h_sr=np.array([1.0 + 0j, 0.0 + 0j]),
        h_rd=np.array([1.0 + 0j]),
        h_rr=np.zeros((2, 1), dtype=complex),
    )
    assert relay_power(p, ch1) == pytest.approx(3.0, rel=1e-12)

    ch0 = ChannelRealization(
        h_sr=np.zeros(2, dtype=complex),
        h_rd=np.array([1.0 + 0j]),
        h_rr=np.zeros((2, 1), dtype=complex),
    )
    assert relay_power(p, ch0) == 0.0


def test_relay_power_linear_scaling():
    params = make_params(3, 2, 4.0)
    ch = sample_channel(params, np.random.default_rng(5))
    base = relay_power(params, ch)
    doubled_power = make_params(3, 2, 8.0)
    assert relay_power(doubled_power, ch) == pytest.approx(2.0 * base, rel=1e-12)
    ch_scaled = ChannelRealization(np.sqrt(2.0) * ch.h_sr, ch.h_rd, ch.h_rr)
    assert relay_power(params, ch_scaled) == pytest.approx(2.0 * base, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(0, 2)
    with pytest.raises(ValueError):
        make_params(2, 2, alpha=1.0)
    with pytest.raises(ValueError):
        make_params(2, 2, alpha=0.0)
    with pytest.raises(ValueError):
        make_params(2, 2, p_s=0.0)
    with pytest.raises(ValueError):
        make_params(2, 2, tau=1.5)
    with pytest.raises(ValueError):
        make_params(2, 2, sigma2_li=-0.1)
    with pytest.raises(ValueError):
        make_params(2, 2, eta=1.5)


@pytest.mark.parametrize(
    "name, value",
    [
        ("m_r", 1.5), ("m_r", 2.7), ("m_t", 2.5),
        ("p_s", math.inf), ("d1", math.inf), ("d2", math.inf), ("tau", math.inf),
        ("sigma2_li", math.nan), ("sigma2_li", math.inf),
        ("gamma_th", math.inf), ("r_c", math.inf),
    ],
)
def test_params_reject_non_integral_and_non_finite(name, value):
    with pytest.raises(ValueError):
        make_params(**{name: value})
    with pytest.raises(ValueError):
        SystemParams.from_dict({**make_params().to_dict(), name: value})


@pytest.mark.parametrize(
    "name, value",
    [("m_r", True), ("m_t", False), ("p_s", "10"), ("alpha", "0.5"),
     ("sigma2_li", None), ("gamma_th", [1.0]), ("r_c", True)],
)
def test_params_from_dict_rejects_bools_and_non_numbers(name, value):
    # float() would read True as 1 and "10" as 10.0
    with pytest.raises(ValueError, match=name):
        SystemParams.from_dict({**make_params().to_dict(), name: value})


@pytest.mark.parametrize("name", ["h_sr", "h_rd", "h_rr"])
@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, -np.inf)])
def test_realization_rejects_non_finite_entries(name, bad):
    ch = sample_channel(make_params(2, 3), np.random.default_rng(5))
    arrays = {"h_sr": ch.h_sr, "h_rd": ch.h_rd, "h_rr": ch.h_rr}
    corrupted = arrays[name].copy()
    corrupted.flat[-1] = bad
    with pytest.raises(ValueError, match=name):
        ChannelRealization(**{**arrays, name: corrupted})


def test_kappa_and_rho():
    p = make_params(2, 2, 25.0, alpha=0.75, eta=0.8)
    assert p.kappa == pytest.approx(0.8 * 3.0, rel=1e-12)
    assert p.rho1 == 25.0


def test_params_dict_roundtrip():
    p = make_params(3, 4, 12.5, d1=2.0, tau=3.1)
    assert SystemParams.from_dict(p.to_dict()) == p
    assert SystemParams.from_dict({**p.to_dict(), "m_r": 3.0, "m_t": np.int64(4)}) == p
    assert make_params(np.int64(3), np.int32(4), 12.5, d1=2.0, tau=3.1) == p
    with pytest.raises(ValueError):
        SystemParams.from_dict({**p.to_dict(), "bogus": 1.0})
    incomplete = p.to_dict()
    incomplete.pop("tau")
    with pytest.raises(ValueError):
        SystemParams.from_dict(incomplete)
