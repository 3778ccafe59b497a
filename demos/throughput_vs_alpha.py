#!/usr/bin/env python3
"""Delay-constrained throughput against the harvesting time split.

Sweeps alpha for every scheme at the 4x4 benchmark configuration (10 dB,
loop variance 0.3, both distances 2, path-loss exponent 3.1), then refines
each scheme's optimum.  Small alpha starves the relay of power, large alpha
starves it of airtime; every full-duplex scheme clearly beats half-duplex at
its own optimum.  Trial counts here are trimmed for a quick run; the
acceptance suite repeats this at full fidelity.
"""

import numpy as np

from fdrelay import Scheme, SystemParams, estimate_outage, throughput
from fdrelay.simkit import _search_alpha_batch, params_at_alpha

BENCH = SystemParams(
    m_r=4, m_t=4, p_s=10.0, d1=2.0, d2=2.0, tau=3.1, eta=1.0,
    alpha=0.5, sigma2_li=0.3, gamma_th=1.0, r_c=1.0,
)

SCHEMES = [
    (Scheme.OPTIMAL, 4_000),
    (Scheme.RZF, 40_000),
    (Scheme.MRC_MRT, 40_000),
    (Scheme.TZF, 40_000),
    (Scheme.HALF_DUPLEX, 40_000),
]


def main() -> None:
    alphas = np.linspace(0.1, 0.9, 9)
    print("R(alpha) on a coarse grid:")
    print(f"{'alpha':>6} " + " ".join(f"{s.value:>12}" for s, _ in SCHEMES))
    for alpha in alphas:
        cells = []
        for scheme, n in SCHEMES:
            p = params_at_alpha(BENCH, float(alpha), "fixed")
            est = estimate_outage(p, scheme, n, seed=2, threads=2)
            cells.append(throughput(p, scheme, est.p_hat))
        print(f"{alpha:6.2f} " + " ".join(f"{c:12.4f}" for c in cells))

    # The five searches run side by side and score every probe on one set of
    # channel draws; each optimum equals optimize_alpha(BENCH, scheme, n, grid=33).
    print("\nper-scheme optimum (33-point grid + golden refinement):")
    schemes, trials = zip(*SCHEMES)
    grid = [(i + 1) / 34 for i in range(33)]
    found = _search_alpha_batch(BENCH, schemes, grid, trials, seed=2, threads=2)
    for scheme, search in zip(schemes, found):
        point = search.best
        print(
            f"  {scheme.value:12s} alpha* = {point.alpha:.3f}  "
            f"R(alpha*) = {point.throughput:.4f}  (outage {point.outage:.3f})"
        )


if __name__ == "__main__":
    main()
