"""Exact end-to-end SINR evaluation for full-duplex and half-duplex relaying.

One hop formula serves every scheme, batched (leading axis = independent
realizations) and split in two steps: per-draw gains that do not depend on
the system parameters (``_fd_gains_batch`` for any combiner/beamformer rows,
``_hd_gains_batch`` for the half-duplex baseline, the loop-free matched pair
at twice the relay power), then ``_fd_hops_from_gains``, which turns gains
into hop SINRs, so the Monte Carlo engine can score many harvesting splits
on gains computed once.  The n = 1 wrappers ``e2e_sinr`` and ``hd_snr``
compose the two steps; the optimal search makes each candidate's gains from
its alpha-free vectors (``precoding._wt_gains``) and hands them to
``_fd_hops_from_gains``.

The expression is evaluated in its general form for every scheme; the
scheme-specific algebraic reductions live only in the analytic outage
module, so Monte Carlo results double as an independent check of those
reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelRealization, SystemParams

if TYPE_CHECKING:
    from .precoding import BeamformingPair

__all__ = ["SinrBreakdown", "e2e_sinr", "hd_snr"]


@dataclass(frozen=True)
class SinrBreakdown:
    """End-to-end SINR together with its two hop terms.

    ``first_hop`` is the relay decoding SINR, ``second_hop`` the destination
    SNR, ``e2e`` their minimum (decode-and-forward), and ``li_power`` the
    loop-interference term sitting in the first hop's denominator.
    """

    first_hop: float
    second_hop: float
    e2e: float
    li_power: float


def _fd_gains_batch(
    hsr: np.ndarray, hrd: np.ndarray, hrr: np.ndarray, wr: np.ndarray, wt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Alpha-free gains that fix both full-duplex hops of each realization.

    S = ||h_sr||^2, the combined signal gain |w_r h_sr|^2, the loop leakage
    |w_r H_rr w_t|^2 and the relay-destination gain |h_rd w_t|^2.
    """
    s = np.sum(np.abs(hsr) ** 2, axis=1)
    sig = np.abs(np.einsum("ni,ni->n", wr, hsr)) ** 2
    v = np.einsum("nij,nj->ni", hrr, wt)
    leak = np.abs(np.einsum("ni,ni->n", wr, v)) ** 2
    rd = np.abs(np.einsum("ni,ni->n", hrd, wt)) ** 2
    return s, sig, leak, rd


def _fd_hops_from_gains(
    params: SystemParams, s: np.ndarray, sig: np.ndarray, leak: np.ndarray, rd: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First hop, second hop and loop-interference power from the gains.

    First hop: p_s |w_r h_sr|^2 / (kappa p_s ||h_sr||^2 |w_r H_rr w_t|^2 + d1^tau),
    i.e. numerator and denominator both scaled by d1^tau relative to the
    physical signal/interference/noise powers.  Second hop:
    (kappa p_s / (d1^tau d2^tau)) ||h_sr||^2 |h_rd w_t|^2.
    """
    d1t = params.d1**params.tau
    d2t = params.d2**params.tau
    kps = params.kappa * params.p_s
    li = kps * s * leak
    # A zero leak (half duplex) is no loop however large kappa p_s S is; an
    # overflowed kps * s would otherwise make it inf * 0 = nan.
    li[leak == 0] = 0.0
    first = params.p_s * sig / (li + d1t)
    second = kps / (d1t * d2t) * s * rd
    return first, second, li


def _hd_gains_batch(
    hsr: np.ndarray, hrd: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four ``_fd_gains_batch`` gains of the half-duplex baseline.

    Harvesting is unchanged, but the active time is split evenly between the
    two hops, so the relay spends its harvested energy over half the window
    and there is no loop interference: the matched pair with no leakage and
    twice the relay-destination gain, (S, S, 0, 2 ||h_rd||^2).  The hops
    then give gamma = ||h_sr||^2 * min(c1, 2 c3 ||h_rd||^2), with
    c1 = p_s / d1^tau and c3 = p_s kappa / (d1^tau d2^tau).
    """
    s = np.sum(np.abs(hsr) ** 2, axis=1)
    return s, s, np.zeros_like(s), 2.0 * np.sum(np.abs(hrd) ** 2, axis=1)


def e2e_sinr(
    ch: ChannelRealization, params: SystemParams, pair: BeamformingPair
) -> SinrBreakdown:
    """Full-duplex end-to-end SINR for one realization and beamforming pair."""
    if ch.h_sr.shape != (params.m_r,) or pair.w_r.shape != (params.m_r,):
        raise ValueError("receive-side dimensions do not match params.m_r")
    if ch.h_rd.shape != (params.m_t,) or pair.w_t.shape != (params.m_t,):
        raise ValueError("transmit-side dimensions do not match params.m_t")
    if ch.h_rr.shape != (params.m_r, params.m_t):
        raise ValueError("loop-channel shape does not match antenna counts")
    first, second, li = _fd_hops_from_gains(params, *_fd_gains_batch(
        ch.h_sr[None, :], ch.h_rd[None, :], ch.h_rr[None, :, :],
        pair.w_r[None, :], pair.w_t[None, :],
    ))
    return SinrBreakdown(
        first_hop=float(first[0]),
        second_hop=float(second[0]),
        e2e=float(min(first[0], second[0])),
        li_power=float(li[0]),
    )


def hd_snr(ch: ChannelRealization, params: SystemParams) -> float:
    """End-to-end SNR of the half-duplex baseline for one realization."""
    first, second, _ = _fd_hops_from_gains(
        params, *_hd_gains_batch(ch.h_sr[None, :], ch.h_rd[None, :])
    )
    return float(min(first[0], second[0]))
