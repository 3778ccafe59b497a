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
(a closed-form scheme's beamformers do not depend on alpha, and half
duplex is the loop-free matched pair at twice the relay power, so four
gains per draw; the optimal search keeps the draws and builds its matched
and transmit-ZF seeds, whose combiners alone move with alpha), and
``_sinr_from_gains`` evaluates the SINR at the estimate's parameters.
``_trial_gains`` reduces the trials of a chunk's draws that an estimate
reads, and ``_leading`` is the one rule for which rows of a chunk those are.

An outage sweep over SNR or threshold varies nothing a draw or its gains
depend on, so it draws and reduces its trials once per sweep:
``_held_gains`` builds the gains of a group of schemes on ``threads``
workers, each drawing its own chunks once for every member, and every
sweep point is ``estimate_outage`` on them.  The sweep holds one group's
gains at a time, for all of its trials, so the held memory grows linearly
with the trial count.  Members hold the arrays they have in common as one
object, and half duplex's zero leak takes no memory: MRC/MRT with transmit
ZF hold 48 B per trial (480 MB at 10 million trials), receive ZF with half
duplex 40 B, and the optimal scheme, alone, its draws plus its two seeds
(361 B per trial at 2x2, 777 B at 4x4).  ``experiment._DRAW_GROUPS`` sets
the groups, two schemes each because the memory held, not the draw, is
what bounds them.

The harvesting split is optimized by one search (grid plus golden-section
refinement), written once as ``_alpha_search``.  The kernel
``_search_alpha_batch`` runs it for several schemes.  A channel draw depends
only on (seed, m_r, m_t, sigma2_li), never on alpha, so each call draws the
chunks of its largest trial count once; each scheme's search turns the
chunks it reads into gains once and scores all its probes on them.
Each whole search runs on one worker, the schemes' searches side by side
on ``threads`` workers, the optimal scheme's first; a lone search runs on
the calling thread.  ``optimize_alpha`` is its n = 1 wrapper, and the
throughput sweep of :mod:`fdrelay.experiment` makes one batched call.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TypeVar

import numpy as np

from .channel import SystemParams, _draw_channels
from .precoding import (
    Scheme,
    _beamformers_batch,
    _optimal_seed_gains,
    _optimal_wt_batch,
    check_feasible,
)
from .sinr import _fd_gains_batch, _fd_hops_from_gains, _hd_gains_batch

__all__ = [
    "OutageEstimate",
    "ThroughputPoint",
    "AlphaSearch",
    "estimate_outage",
    "throughput",
    "optimize_alpha",
]

_CHUNK = 8192

_T = TypeVar("_T")

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
    (``sinr._fd_gains_batch``), for half duplex the same four gains of the
    loop-free matched pair at twice the relay power
    (``sinr._hd_gains_batch``: S, S, a zero leak, 2 ||h_rd||^2).
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


def _leading(
    arrays: Sequence[np.ndarray], n_trials: int, chunk_idx: int
) -> tuple[np.ndarray, ...]:
    """The rows of chunk ``chunk_idx``'s ``arrays`` that hold trials 0 .. n_trials - 1."""
    return tuple(x[:n_trials - chunk_idx * _CHUNK] for x in arrays)


def _trial_gains(
    scheme: Scheme, draws: Sequence[np.ndarray], n_trials: int, chunk_idx: int
) -> tuple[np.ndarray, ...]:
    """``_chunk_gains`` of the trials below ``n_trials`` in chunk ``chunk_idx``'s ``draws``."""
    return _chunk_gains(scheme, *_leading(draws, n_trials, chunk_idx))


def _held_gains(
    params: SystemParams,
    schemes: Sequence[Scheme],
    n_trials: int,
    seed: int,
    *,
    threads: int,
) -> list[list[tuple[np.ndarray, ...]]]:
    """``_trial_gains`` of every chunk of trials 0 .. n_trials - 1 of ``seed``,
    for each of ``schemes``, from one draw of each chunk.

    Item k is the ``gains`` of ``estimate_outage`` for ``schemes[k]``: a
    sweep builds them once per group of schemes and scores each of its
    points on them.  ``threads`` workers each draw their own chunks and
    reduce them for every member.  An array that members compute with the
    same expression from the same draws has the same bits, so it is held
    once: S = ||h_sr||^2 for every closed-form scheme and half duplex (whose
    first two gains are both S), and the matched combiner's gain
    |w_r h_sr|^2 for MRC/MRT and transmit ZF.  Per trial that is 32 B for
    one full-duplex closed-form scheme, 16 B for half duplex alone, 48 B for
    MRC/MRT with transmit ZF and 40 B for receive ZF with half duplex; the
    optimal scheme holds its draws and seeds (361 B per trial at 2x2, 777 B
    at 4x4).
    """
    def chunk_gains(chunk_idx: int) -> list[tuple[np.ndarray, ...]]:
        draws = _chunk_channels(params, seed, chunk_idx)
        shared: dict[str, np.ndarray] = {}
        members = []
        for scheme in schemes:
            gains = _trial_gains(scheme, draws, n_trials, chunk_idx)
            if scheme is not Scheme.OPTIMAL:
                s, sig, leak, rd = gains
                s = shared.setdefault("s", s)
                if scheme is Scheme.HALF_DUPLEX:
                    sig = s
                elif scheme is not Scheme.RZF:
                    sig = shared.setdefault("matched", sig)
                gains = (s, sig, leak, rd)
            members.append(gains)
        return members

    chunks = _map_chunks(chunk_gains, -(-n_trials // _CHUNK), threads)
    return [list(gains) for gains in zip(*chunks)]


def _map_chunks(work: Callable[[int], _T], n_chunks: int, threads: int) -> list[_T]:
    """``work`` of chunks or searches 0 .. n_chunks - 1, in order, on ``threads`` workers."""
    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, range(n_chunks)))
    return list(map(work, range(n_chunks)))


def _sinr_from_gains(
    params: SystemParams, scheme: Scheme, gains: tuple[np.ndarray, ...]
) -> np.ndarray:
    """End-to-end SINR of each realization from its ``_chunk_gains``."""
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
    Each worker draws the chunks it scores and turns them into gains with
    ``_trial_gains``; ``gains`` instead hands over gains already made:
    ``_chunk_gains`` of this scheme for chunks 0, 1, ... of ``seed``, with
    at least the chunks and rows of ``n_trials``, whose leading rows are
    scored, so the estimate is exactly the one it would draw itself.  An
    outage sweep passes gains built once per scheme and an alpha search
    gains built once per search, so neither draws a chunk again for each
    point or probe.
    """
    _check_integer("n_trials", n_trials, 1)
    _check_integer("threads", threads, 1)
    _check_integer("seed", seed, 0)
    check_feasible(scheme, params.m_r, params.m_t)
    n_chunks = -(-n_trials // _CHUNK)
    last_rows = n_trials - (n_chunks - 1) * _CHUNK
    if gains is not None and (
        len(gains) < n_chunks or len(gains[n_chunks - 1][0]) < last_rows
    ):
        raise ValueError(
            f"gains holds too few trials: {n_trials} trials need {n_chunks} chunks,"
            f" the last with {last_rows} rows"
        )

    def count_chunk(chunk_idx: int) -> int:
        if gains is None:
            draws = _chunk_channels(params, seed, chunk_idx)
            chunk = _trial_gains(scheme, draws, n_trials, chunk_idx)
        else:
            chunk = _leading(gains[chunk_idx], n_trials, chunk_idx)
        gamma = _sinr_from_gains(params, scheme, chunk)
        return int(np.count_nonzero(gamma < params.gamma_th))

    failures = sum(_map_chunks(count_chunk, n_chunks, threads))
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
) -> ThroughputPoint:
    p_alpha = params_at_alpha(params, alpha, threshold_mode)
    est = estimate_outage(p_alpha, scheme, n_trials, seed, gains=gains)
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
    on the calling thread, before the first probe.  Each search turns the
    chunks its trial count reads into its scheme's ``_chunk_gains`` once
    and scores every probe on them, so each probe is the plain
    ``estimate_outage`` at its alpha, scored on the search's one thread.
    ``_map_chunks`` runs the whole searches on ``threads`` workers, the
    costly optimal one first; a lone search runs on the calling thread.
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
    # Drawn on the calling thread: drawing the chunks, or building each
    # search's gains, on the workers raises the 4x4 benchmark's peak RSS by
    # several MB with no more memory live, and with one glibc malloc arena
    # the gap all but closes, so it is the workers' own arenas that grow.
    chunks = [_chunk_channels(params, seed, j) for j in range(n_chunks)]

    def search(i: int) -> AlphaSearch:
        scheme, n_trials = schemes[i], trials[i]
        gains = [
            _trial_gains(scheme, chunks[j], n_trials, j)
            for j in range(-(-n_trials // _CHUNK))
        ]
        return _alpha_search(lambda alpha: _eval_point(
            params, scheme, alpha, threshold_mode, n_trials, seed, gains
        ), alphas)

    order = sorted(range(len(schemes)), key=lambda i: schemes[i] is not Scheme.OPTIMAL)
    found = dict(zip(order, _map_chunks(lambda k: search(order[k]), len(order), threads)))
    return [found[i] for i in range(len(schemes))]


def optimize_alpha(
    params: SystemParams,
    scheme: Scheme,
    n_trials: int,
    grid: int = 33,
    seed: int = 0,
    *,
    threshold_mode: str = "fixed",
) -> ThroughputPoint:
    """Maximize the delay-constrained throughput over the harvesting split.

    Runs ``_search_alpha_batch`` for the one scheme on a uniform open grid of
    ``grid`` points over (0, 1), on the calling thread.  Every probe is
    scored on the same channel draws, those of ``seed``, so R(alpha) is
    compared across probes without draw-to-draw noise; the returned point is
    the best observed anywhere, ties broken toward smaller alpha.  An end
    point's refinement bracket reaches halfway to the boundary (0 or 1).
    """
    _check_integer("grid", grid, 8)
    alphas = [(i + 1) / (grid + 1) for i in range(grid)]
    (found,) = _search_alpha_batch(
        params, [scheme], alphas, [n_trials], seed, threshold_mode=threshold_mode
    )
    return found.best
