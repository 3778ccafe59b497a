"""Monte Carlo outage estimation, throughput, and harvesting-split optimization.

Trials are striped into fixed-size chunks, each drawn by one counter-based
Philox generator keyed on the seed, started at the chunk's own counter.  At
a given (m_r, m_t, sigma2_li), trial i of seed s is therefore the same
channel in every estimate, sweep and search, whatever the scheme, design
point, trial count or worker count: estimates are bit-reproducible under
any parallelism, and schemes and design points are compared on paired draws
(common random numbers): a threshold sweep's outage never falls as it rises.

Every scheme is simulated through the general end-to-end SINR expression
(beamform, combine, evaluate), vectorized over the chunk by the batched
kernels of :mod:`fdrelay.precoding` and :mod:`fdrelay.sinr`; the
per-realization API there is their n = 1 wrapper, so it computes the same
numbers one draw at a time.  A chunk is scored in two steps:
``_chunk_gains`` reduces its draws to what fixes each SINR at any alpha
(a closed-form scheme's beamformers do not depend on alpha, so four gains
per draw; the optimal search keeps the draws and builds its matched and
transmit-ZF seeds, whose combiners alone move with alpha), and
``_sinr_from_gains`` evaluates the SINR at the estimate's parameters.

The harvesting split is optimized by one search (grid plus golden-section
refinement), written once as ``_alpha_search``.  The kernel
``_search_alpha_batch`` runs it for several schemes.  A channel draw depends
only on (seed, m_r, m_t, sigma2_li), never on alpha, so each call draws the
chunks of its largest trial count once; each scheme's search turns the
chunks it reads into gains once and scores all its probes on them.
The schemes' whole searches run on one pool of ``threads`` workers, the
optimal scheme's first; side by side, each search scores on its own worker,
while a lone search splits each estimate's chunks over all the threads.
``optimize_alpha`` is its n = 1 wrapper, and the throughput sweep of
:mod:`fdrelay.experiment` makes one batched call.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import SystemParams, _draw_channels
from .precoding import (
    Scheme,
    _beamformers_batch,
    _optimal_seed_gains,
    _optimal_wt_batch,
    check_feasible,
)
from .sinr import _fd_gains_batch, _fd_hops_from_gains, _hd_gains_batch, _hd_snr_from_gains

__all__ = [
    "OutageEstimate",
    "ThroughputPoint",
    "AlphaSearch",
    "estimate_outage",
    "throughput",
    "optimize_alpha",
]

_CHUNK = 8192

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 20  # golden-section probes after the first two


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage probability with its binomial standard error."""

    p_hat: float
    std_err: float
    n_trials: int
    seed: int


@dataclass(frozen=True)
class ThroughputPoint:
    """Delay-constrained throughput theta*(1-outage)*r_c*(1-alpha) at one alpha.

    ``std_err`` is the Monte Carlo standard error of ``outage``.
    """

    alpha: float
    outage: float
    throughput: float
    std_err: float


@dataclass(frozen=True)
class AlphaSearch:
    """Grid evaluations and the best point seen."""

    grid: tuple[ThroughputPoint, ...]
    best: ThroughputPoint


def _chunk_channels(
    params: SystemParams, seed: int, chunk_idx: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only channel draws of trials ``chunk_idx * _CHUNK`` onward of ``seed``."""
    key = np.random.SeedSequence(entropy=[seed, 0]).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=chunk_idx << 192))
    return _draw_channels(params, rng, _CHUNK)


def _chunk_gains(
    scheme: Scheme, hsr: np.ndarray, hrd: np.ndarray, hrr: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The per-draw quantities that fix each realization's SINR at any alpha.

    For a closed-form scheme these are the four gains of its beamformers
    (``sinr._fd_gains_batch``), for half duplex ||h_sr||^2 and ||h_rd||^2.
    The optimal search solves its beamformers at each kappa(alpha), so its
    are the draws followed by ``precoding._optimal_seed_gains``: S, the loop
    direction and where it vanishes, and the matched and transmit-ZF seed
    beamformers with the vectors that fix their hops.  Every array has one
    row per draw.
    """
    if scheme is Scheme.HALF_DUPLEX:
        return _hd_gains_batch(hsr, hrd)
    if scheme is Scheme.OPTIMAL:
        return hsr, hrd, hrr, *_optimal_seed_gains(hsr, hrd, hrr)
    wr, wt = _beamformers_batch(scheme, hsr, hrd, hrr)
    return _fd_gains_batch(hsr, hrd, hrr, wr, wt)


def _sinr_from_gains(
    params: SystemParams, scheme: Scheme, gains: tuple[np.ndarray, ...]
) -> np.ndarray:
    """End-to-end SINR of each realization from its ``_chunk_gains``."""
    if scheme is Scheme.HALF_DUPLEX:
        return _hd_snr_from_gains(params, *gains)
    if scheme is Scheme.OPTIMAL:
        # Searching only realizations whose outage indicator is undecided is
        # exact for Pr(gamma < gamma_th) and skips most of the work.
        _, gamma = _optimal_wt_batch(params, *gains, resolve_above=params.gamma_th)
        return gamma
    first, second, _ = _fd_hops_from_gains(params, *gains)
    return np.minimum(first, second)


def _sinr_batch(
    params: SystemParams,
    scheme: Scheme,
    hsr: np.ndarray,
    hrd: np.ndarray,
    hrr: np.ndarray,
) -> np.ndarray:
    """End-to-end SINR of each realization under the given scheme."""
    return _sinr_from_gains(params, scheme, _chunk_gains(scheme, hsr, hrd, hrr))


def _check_integer(name: str, value: int, least: int) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def estimate_outage(
    params: SystemParams,
    scheme: Scheme,
    n_trials: int,
    seed: int,
    *,
    threads: int = 1,
    gains: Sequence[tuple[np.ndarray, ...]] | None = None,
) -> OutageEstimate:
    """Monte Carlo outage probability Pr(gamma < gamma_th).

    Scores trials 0 .. n_trials - 1 of ``seed`` (an integer >= 0), as every
    estimate with that seed does, and is deterministic for any thread count.
    Each worker draws the chunks it scores and turns their leading trials
    into ``_chunk_gains``; ``gains`` instead hands over gains already made:
    ``_chunk_gains`` of this scheme for chunks 0, 1, ... of ``seed``, at
    least enough for ``n_trials``, whose leading rows are scored, so the
    estimate is exactly the one it would draw itself.
    """
    _check_integer("n_trials", n_trials, 1)
    _check_integer("threads", threads, 1)
    _check_integer("seed", seed, 0)
    check_feasible(scheme, params.m_r, params.m_t)
    n_chunks = -(-n_trials // _CHUNK)
    if gains is not None and len(gains) < n_chunks:
        raise ValueError(
            f"gains holds {len(gains)} chunks, {n_trials} trials need {n_chunks}"
        )

    def count_chunk(chunk_idx: int) -> int:
        keep = min(_CHUNK, n_trials - chunk_idx * _CHUNK)
        if gains is None:
            draws = _chunk_channels(params, seed, chunk_idx)
            chunk = _chunk_gains(scheme, *(x[:keep] for x in draws))
        else:
            chunk = tuple(x[:keep] for x in gains[chunk_idx])
        gamma = _sinr_from_gains(params, scheme, chunk)
        return int(np.count_nonzero(gamma < params.gamma_th))

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            failures = sum(pool.map(count_chunk, range(n_chunks)))
    else:
        failures = sum(map(count_chunk, range(n_chunks)))

    p_hat = failures / n_trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / n_trials)
    return OutageEstimate(p_hat=p_hat, std_err=std_err, n_trials=n_trials, seed=seed)


def throughput(params: SystemParams, scheme: Scheme, outage: float) -> float:
    """Delay-constrained throughput theta*(1-outage)*r_c*(1-alpha).

    theta is 1 for every full-duplex scheme and 0.5 for the half-duplex
    baseline (relay transmits over half the active window).
    """
    if not 0.0 <= outage <= 1.0:
        raise ValueError("outage must lie in [0, 1]")
    theta = 0.5 if scheme is Scheme.HALF_DUPLEX else 1.0
    return theta * (1.0 - outage) * params.r_c * (1.0 - params.alpha)


def params_at_alpha(
    params: SystemParams, alpha: float, threshold_mode: str = "fixed"
) -> SystemParams:
    """Re-point the harvesting split, optionally re-coupling the threshold.

    In ``rate_coupled`` mode the SINR threshold follows the active-time
    fraction as gamma_th = 2^(r_c/(1-alpha)) - 1; in ``fixed`` mode the
    configured threshold is kept as-is.  A coupled threshold beyond the
    float range is the largest float, which no SINR reaches, so such an
    alpha is in outage on every draw.
    """
    if threshold_mode not in ("fixed", "rate_coupled"):
        raise ValueError(f"unknown threshold_mode {threshold_mode!r}")
    gamma_th = params.gamma_th
    if threshold_mode == "rate_coupled":
        try:
            gamma_th = 2.0 ** (params.r_c / (1.0 - alpha)) - 1.0
        except OverflowError:
            gamma_th = float(np.finfo(float).max)
    return replace(params, alpha=alpha, gamma_th=gamma_th)


def _best(points: list[ThroughputPoint]) -> ThroughputPoint:
    """The highest throughput, ties broken toward smaller alpha, then the first seen."""
    return max(points, key=lambda p: (p.throughput, -p.alpha))


def _eval_point(
    params: SystemParams,
    scheme: Scheme,
    alpha: float,
    threshold_mode: str,
    n_trials: int,
    seed: int,
    gains: Sequence[tuple[np.ndarray, ...]],
    threads: int,
) -> ThroughputPoint:
    p_alpha = params_at_alpha(params, alpha, threshold_mode)
    est = estimate_outage(p_alpha, scheme, n_trials, seed, threads=threads, gains=gains)
    return ThroughputPoint(
        alpha=alpha,
        outage=est.p_hat,
        throughput=throughput(p_alpha, scheme, est.p_hat),
        std_err=est.std_err,
    )


def _alpha_search(
    evaluate: Callable[[float], ThroughputPoint], alphas: Sequence[float]
) -> AlphaSearch:
    """One scheme's alpha search, with ``evaluate`` scoring each probe.

    Probes the grid, then two golden-section points and ``_REFINE_ITERS``
    more inside the bracket around the best grid point: its neighbours in
    the sorted grid, reaching halfway to the boundary (0 or 1) beyond an end
    point.  The best point is the best seen anywhere, grid or refinement;
    ties break toward smaller alpha.
    """
    grid = [evaluate(alpha) for alpha in alphas]
    ordered = sorted(set(alphas))
    k = ordered.index(_best(grid).alpha)
    lo = ordered[k - 1] if k > 0 else ordered[0] / 2.0
    hi = ordered[k + 1] if k + 1 < len(ordered) else (ordered[-1] + 1.0) / 2.0

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = evaluate(x1), evaluate(x2)
    refined = [f1, f2]
    for _ in range(_REFINE_ITERS):
        if f1.throughput < f2.throughput:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = evaluate(x2)
            refined.append(f2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = evaluate(x1)
            refined.append(f1)
    return AlphaSearch(grid=tuple(grid), best=_best(grid + refined))


def _search_alpha_batch(
    params: SystemParams,
    schemes: Sequence[Scheme],
    alphas: Sequence[float],
    trials: Sequence[int],
    seed: int,
    *,
    threshold_mode: str = "fixed",
    threads: int = 1,
) -> list[AlphaSearch]:
    """``_alpha_search`` on ``alphas`` for each scheme, with its own trial count.

    Every search makes ``len(alphas) + 2 + _REFINE_ITERS`` probes.  The
    chunks of ``seed`` (an integer >= 0) for ``max(trials)`` are drawn once,
    before the first probe.  Each search turns the chunks its trial count
    reads into its scheme's ``_chunk_gains`` once, on its own worker, and
    scores every probe on them, so each probe is the plain
    ``estimate_outage`` at its alpha.  One pool of ``threads`` workers runs
    the whole searches, the costly optimal one first: side by side each
    scores on one thread, and a lone search splits each estimate's chunks
    over all of them.
    """
    _check_integer("threads", threads, 1)
    _check_integer("seed", seed, 0)
    if not alphas:
        raise ValueError("alphas must not be empty")
    if len(trials) != len(schemes):
        raise ValueError("need one trial count per scheme")
    for i, n_trials in enumerate(trials):
        _check_integer(f"trials[{i}]", n_trials, 1)
    for scheme in schemes:
        check_feasible(scheme, params.m_r, params.m_t)
    n_chunks = -(-max(trials, default=0) // _CHUNK)
    chunks = [_chunk_channels(params, seed, j) for j in range(n_chunks)]

    per_estimate = threads if len(schemes) == 1 else 1

    def search(i: int) -> AlphaSearch:
        scheme, n_trials = schemes[i], trials[i]
        gains = [
            _chunk_gains(scheme, *(x[:n_trials - j * _CHUNK] for x in chunks[j]))
            for j in range(-(-n_trials // _CHUNK))
        ]
        return _alpha_search(lambda alpha: _eval_point(
            params, scheme, alpha, threshold_mode, n_trials, seed, gains, per_estimate
        ), alphas)

    order = sorted(range(len(schemes)), key=lambda i: schemes[i] is not Scheme.OPTIMAL)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {i: pool.submit(search, i) for i in order}
        return [futures[i].result() for i in range(len(schemes))]


def optimize_alpha(
    params: SystemParams,
    scheme: Scheme,
    n_trials: int,
    grid: int = 33,
    seed: int = 0,
    *,
    threshold_mode: str = "fixed",
    threads: int = 1,
) -> ThroughputPoint:
    """Maximize the delay-constrained throughput over the harvesting split.

    Runs ``_search_alpha_batch`` for the one scheme on a uniform open grid of
    ``grid`` points over (0, 1); each estimate splits its chunks over the
    threads.  Every probe is scored on the same channel draws, those of
    ``seed``, so R(alpha) is compared across probes without draw-to-draw
    noise; the returned point is the best observed anywhere, ties broken
    toward smaller alpha.  An end point's refinement bracket reaches halfway
    to the boundary (0 or 1).
    """
    _check_integer("grid", grid, 8)
    alphas = [(i + 1) / (grid + 1) for i in range(grid)]
    (found,) = _search_alpha_batch(
        params, [scheme], alphas, [n_trials], seed,
        threshold_mode=threshold_mode, threads=threads,
    )
    return found.best
