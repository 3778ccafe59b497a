"""Monte Carlo outage estimation, throughput, and harvesting-split optimization.

Trials are striped into fixed-size chunks, each driven by its own
counter-based Philox substream keyed on (seed, stream, chunk index).  A
trial's channel draw therefore depends only on the seed and its trial index,
never on the total trial count or on how chunks are distributed over
workers, which makes estimates bit-reproducible under any parallelism.

Every scheme is simulated through the general end-to-end SINR expression
(beamform, combine, evaluate), vectorized over the chunk by the batched
kernels of :mod:`fdrelay.precoding` and :mod:`fdrelay.sinr`; the
per-realization API there is their n = 1 wrapper, so it computes the same
numbers one draw at a time.

The harvesting split is optimized by one routine, ``search_alpha`` (grid
plus golden-section refinement), which ``optimize_alpha`` and the
throughput sweep of :mod:`fdrelay.experiment` both call.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channel import SystemParams, _standard_complex_normal
from .precoding import (
    OptimalSearchSpec,
    Scheme,
    _beamformers_batch,
    _optimal_wt_batch,
    check_feasible,
)
from .sinr import _fd_hops_batch, _hd_snr_batch

__all__ = [
    "OutageEstimate",
    "ThroughputPoint",
    "AlphaSearch",
    "estimate_outage",
    "throughput",
    "search_alpha",
    "optimize_alpha",
    "MC_SEARCH",
]

_CHUNK = 8192

# Reduced search effort for the per-trial inner optimization of the optimal
# scheme; accuracy cross-checked against the full-effort single-realization
# path and the ascent oracle in the test suite.
MC_SEARCH = OptimalSearchSpec(t_grid_points=17, refine_iters=14)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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

    ``std_err`` is the Monte Carlo standard error of ``outage``; it is None
    when an oracle supplied the outage.
    """

    alpha: float
    outage: float
    throughput: float
    scheme: Scheme
    std_err: float | None = None


@dataclass(frozen=True)
class AlphaSearch:
    """Grid evaluations, the refinement bracket and the best point seen."""

    grid: tuple[ThroughputPoint, ...]
    bracket: tuple[float, float]
    best: ThroughputPoint


def _chunk_channels(
    params: SystemParams, key: np.ndarray, chunk_idx: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel draws for one chunk; layout depends only on (key, chunk_idx)."""
    bitgen = np.random.Philox(key=key, counter=chunk_idx << 192)
    rng = np.random.Generator(bitgen)
    hsr = _standard_complex_normal(rng, (_CHUNK, params.m_r))
    hrd = _standard_complex_normal(rng, (_CHUNK, params.m_t))
    hrr = np.sqrt(params.sigma2_li) * _standard_complex_normal(
        rng, (_CHUNK, params.m_r, params.m_t)
    )
    return hsr, hrd, hrr


def _sinr_batch(
    params: SystemParams,
    scheme: Scheme,
    hsr: np.ndarray,
    hrd: np.ndarray,
    hrr: np.ndarray,
    search: OptimalSearchSpec,
) -> np.ndarray:
    """End-to-end SINR of each realization under the given scheme."""
    if scheme is Scheme.HALF_DUPLEX:
        return _hd_snr_batch(params, hsr, hrd)
    if scheme is Scheme.OPTIMAL:
        # Searching only realizations whose outage indicator is undecided is
        # exact for Pr(gamma < gamma_th) and skips most of the work.
        _, gamma = _optimal_wt_batch(
            params, hsr, hrd, hrr, search, resolve_above=params.gamma_th
        )
        return gamma
    wr, wt = _beamformers_batch(scheme, hsr, hrd, hrr)
    first, second, _ = _fd_hops_batch(params, hsr, hrd, hrr, wr, wt)
    return np.minimum(first, second)


def _stream_key(seed: int, stream: int) -> np.ndarray:
    return np.random.SeedSequence(entropy=[seed, stream]).generate_state(2, np.uint64)


def estimate_outage(
    params: SystemParams,
    scheme: Scheme,
    n_trials: int,
    seed: int,
    *,
    threads: int = 1,
    search: OptimalSearchSpec = MC_SEARCH,
    stream: int = 0,
) -> OutageEstimate:
    """Monte Carlo outage probability Pr(gamma < gamma_th).

    Deterministic given (seed, params, scheme, n_trials) for any thread
    count.  ``stream`` selects an independent substream (used internally by
    sweeps so different design points never share draws).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    check_feasible(scheme, params.m_r, params.m_t)
    key = _stream_key(seed, stream)
    n_chunks = -(-n_trials // _CHUNK)

    def count_chunk(chunk_idx: int) -> int:
        hsr, hrd, hrr = _chunk_channels(params, key, chunk_idx)
        keep = min(_CHUNK, n_trials - chunk_idx * _CHUNK)
        gamma = _sinr_batch(
            params, scheme, hsr[:keep], hrd[:keep], hrr[:keep], search
        )
        return int(np.count_nonzero(gamma < params.gamma_th))

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            failures = sum(pool.map(count_chunk, range(n_chunks)))
    else:
        failures = sum(count_chunk(j) for j in range(n_chunks))

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
    configured threshold is kept as-is.
    """
    if threshold_mode not in ("fixed", "rate_coupled"):
        raise ValueError(f"unknown threshold_mode {threshold_mode!r}")
    gamma_th = params.gamma_th
    if threshold_mode == "rate_coupled":
        gamma_th = 2.0 ** (params.r_c / (1.0 - alpha)) - 1.0
    return replace(params, alpha=alpha, gamma_th=gamma_th)


OutageFn = Callable[[SystemParams, Scheme], float]


def _better(a: ThroughputPoint, b: ThroughputPoint | None) -> bool:
    """Does a beat b (ties broken toward smaller alpha)?"""
    if b is None:
        return True
    if a.throughput != b.throughput:
        return a.throughput > b.throughput
    return a.alpha < b.alpha


def _eval_point(
    params: SystemParams,
    scheme: Scheme,
    alpha: float,
    threshold_mode: str,
    n_trials: int,
    seed: int,
    stream: int,
    threads: int,
    search: OptimalSearchSpec,
    outage_fn: OutageFn | None,
) -> ThroughputPoint:
    p_alpha = params_at_alpha(params, alpha, threshold_mode)
    std_err = None
    if outage_fn is not None:
        outage = outage_fn(p_alpha, scheme)
    else:
        est = estimate_outage(
            p_alpha, scheme, n_trials, seed, threads=threads, search=search,
            stream=stream,
        )
        outage, std_err = est.p_hat, est.std_err
    return ThroughputPoint(
        alpha=alpha,
        outage=outage,
        throughput=throughput(p_alpha, scheme, outage),
        scheme=scheme,
        std_err=std_err,
    )


def search_alpha(
    params: SystemParams,
    scheme: Scheme,
    alphas: list[float],
    n_trials: int,
    seed: int,
    *,
    refine_iters: int = 20,
    threshold_mode: str = "fixed",
    threads: int = 1,
    search: OptimalSearchSpec = MC_SEARCH,
    outage_fn: OutageFn | None = None,
) -> AlphaSearch:
    """Evaluate R(alpha) on ``alphas``, then refine around the best point.

    Grid point i uses substream i and the golden-section probes continue
    from ``len(alphas)``, each with a fresh estimate; the returned best is
    the best point observed anywhere, which keeps the refinement robust to
    Monte Carlo noise.  Ties break toward smaller alpha.  The refinement
    bracket is the best grid point's neighbours in the sorted grid; beyond
    an end point it reaches halfway to the boundary (0 or 1).
    """
    if not alphas:
        raise ValueError("alphas must not be empty")
    check_feasible(scheme, params.m_r, params.m_t)
    best: ThroughputPoint | None = None
    stream = 0

    def probe(alpha: float) -> ThroughputPoint:
        nonlocal stream, best
        point = _eval_point(
            params, scheme, alpha, threshold_mode, n_trials, seed, stream,
            threads, search, outage_fn,
        )
        stream += 1
        if _better(point, best):
            best = point
        return point

    grid = tuple(probe(alpha) for alpha in alphas)
    assert best is not None
    ordered = sorted(set(alphas))
    k = ordered.index(best.alpha)
    lo = ordered[k - 1] if k > 0 else ordered[0] / 2.0
    hi = ordered[k + 1] if k + 1 < len(ordered) else (ordered[-1] + 1.0) / 2.0
    bracket = (lo, hi)

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = probe(x1)
    f2 = probe(x2)
    for _ in range(refine_iters):
        if f1.throughput < f2.throughput:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = probe(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = probe(x1)
    return AlphaSearch(grid=grid, bracket=bracket, best=best)


def optimize_alpha(
    params: SystemParams,
    scheme: Scheme,
    n_trials: int,
    grid: int = 33,
    seed: int = 0,
    *,
    refine_iters: int = 20,
    threshold_mode: str = "fixed",
    threads: int = 1,
    search: OptimalSearchSpec = MC_SEARCH,
    outage_fn: OutageFn | None = None,
) -> ThroughputPoint:
    """Maximize the delay-constrained throughput over the harvesting split.

    Runs ``search_alpha`` on a uniform open grid of ``grid`` points over
    (0, 1).  ``outage_fn`` replaces the Monte Carlo estimator when an
    analytic (or test) oracle is preferred.
    """
    if grid < 8:
        raise ValueError("grid must have at least 8 points")
    alphas = [(i + 1) / (grid + 1) for i in range(grid)]
    return search_alpha(
        params, scheme, alphas, n_trials, seed,
        refine_iters=refine_iters, threshold_mode=threshold_mode,
        threads=threads, search=search, outage_fn=outage_fn,
    ).best
