"""System parameters, Rayleigh channel generation, and the harvested-power model.

Conventions pinned here and relied on everywhere else:

* noise power at the relay and at the destination is 1, so ``p_s`` is also
  the first-hop SNR;
* ``CN(0, s)`` means real and imaginary parts are independent ``N(0, s/2)``,
  so a unit-variance entry has ``|h|^2 ~ Exp(1)`` and a k-entry vector has
  ``||h||^2 ~ Gamma(k, 1)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["SystemParams", "ChannelRealization", "sample_channel", "relay_power"]


@dataclass(frozen=True)
class SystemParams:
    """Scalar model parameters for one link configuration.

    ``sigma2_li`` is the variance of each loop-channel entry.  ``gamma_th``
    (linear SINR threshold) and ``r_c`` (target rate, bit/s/Hz) are
    independent inputs; the experiment layer can couple them through the
    active-time fraction when rate-coupled thresholding is requested.
    """

    m_r: int
    m_t: int
    p_s: float
    d1: float
    d2: float
    tau: float
    eta: float
    alpha: float
    sigma2_li: float
    gamma_th: float
    r_c: float

    def __post_init__(self) -> None:
        for count in (self.m_r, self.m_t):
            if not isinstance(count, numbers.Integral) or isinstance(count, bool):
                raise ValueError(f"antenna counts must be integers, got {count!r}")
        if self.m_r < 1 or self.m_t < 1:
            raise ValueError("antenna counts must be positive integers")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.p_s > 0.0:
            raise ValueError("p_s must be positive")
        if not (self.d1 > 0.0 and self.d2 > 0.0):
            raise ValueError("distances must be positive")
        if self.tau < 2.0:
            raise ValueError("path-loss exponent must be at least 2")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.sigma2_li < 0.0:
            raise ValueError("sigma2_li must be non-negative")
        if not self.gamma_th > 0.0:
            raise ValueError("gamma_th must be positive")
        if not self.r_c > 0.0:
            raise ValueError("r_c must be positive")

    @property
    def kappa(self) -> float:
        """Harvest-to-transmit gain eta * alpha / (1 - alpha)."""
        return self.eta * self.alpha / (1.0 - self.alpha)

    @property
    def rho1(self) -> float:
        """First-hop SNR; equals p_s under the unit noise-power convention."""
        return self.p_s

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemParams":
        fields = set(cls.__dataclass_fields__)
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown SystemParams fields: {sorted(unknown)}")
        missing = fields - set(data)
        if missing:
            raise ValueError(f"missing SystemParams fields: {sorted(missing)}")
        for name in fields:
            if isinstance(data[name], bool) or not isinstance(data[name], numbers.Real):
                raise ValueError(f"{name} must be a number, got {data[name]!r}")
        coerced = {name: float(data[name]) for name in fields}
        for name in ("m_r", "m_t"):
            if not coerced[name].is_integer():
                raise ValueError(f"{name} must be an integer, got {data[name]!r}")
            coerced[name] = int(coerced[name])
        return cls(**coerced)


@dataclass(frozen=True)
class ChannelRealization:
    """One joint draw of the source->relay, relay->destination and loop channels."""

    h_sr: np.ndarray  # (m_r,) complex column, source -> relay
    h_rd: np.ndarray  # (m_t,) complex row, relay -> destination
    h_rr: np.ndarray  # (m_r, m_t) complex loop channel

    def __post_init__(self) -> None:
        for name in ("h_sr", "h_rd", "h_rr"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must have finite entries")

    @property
    def m_r(self) -> int:
        return self.h_sr.shape[0]

    @property
    def m_t(self) -> int:
        return self.h_rd.shape[0]


def _standard_complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Circularly-symmetric complex Gaussian with unit variance per entry."""
    z = rng.standard_normal(size=shape + (2,))
    # numpy divides a complex array by a real scalar as a multiply by its
    # reciprocal, so scaling the real pairs by 1/sqrt(2) in place gives the
    # bits of (x + iy) / sqrt(2) without the temporaries.  Dividing the real
    # pairs by sqrt(2) would not: x / sqrt(2) differs in the last bit for
    # about one part in eight.
    z *= 1.0 / np.sqrt(2.0)
    return z.view(np.complex128)[..., 0]


def _draw_channels(
    params: SystemParams, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``n`` channel realizations as read-only batches.

    Returns h_sr of shape (n, m_r), h_rd of shape (n, m_t) and h_rr of shape
    (n, m_r, m_t).  Link channels have i.i.d. unit-variance entries;
    loop-channel entries have variance ``params.sigma2_li``.  The draw order
    is fixed, so a given generator state always yields bit-identical draws.
    """
    hsr = _standard_complex_normal(rng, (n, params.m_r))
    hrd = _standard_complex_normal(rng, (n, params.m_t))
    hrr = _standard_complex_normal(rng, (n, params.m_r, params.m_t))
    hrr *= np.sqrt(params.sigma2_li)
    for arr in (hsr, hrd, hrr):
        arr.flags.writeable = False
    return hsr, hrd, hrr


def sample_channel(params: SystemParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization: ``_draw_channels`` with n = 1."""
    hsr, hrd, hrr = _draw_channels(params, rng, 1)
    return ChannelRealization(hsr[0], hrd[0], hrr[0])


def relay_power(params: SystemParams, ch: ChannelRealization) -> float:
    """Relay transmit power funded by the harvesting phase.

    All energy collected during the harvesting fraction is spent during the
    transmission fraction, giving kappa * p_s * ||h_sr||^2 / d1^tau.
    """
    gain = float(np.sum(np.abs(ch.h_sr) ** 2))
    return params.kappa * params.p_s * gain / params.d1**params.tau
