#!/usr/bin/env python3
"""Run the built-in consistency suite from the library API.

Same checks as ``fdrelay validate``, read from the check table that the
acceptance suite shares: special-function identities, analytic CDFs against
Monte Carlo, the survival-exponent resolution for the
single-transmit-antenna matched scheme, diversity slopes, asymptotic ratios,
the MRC/MRT outage floor, the low-SNR matched-filter advantage, and
worker-count reproducibility.  Exits 1 if any check fails.
"""

import sys

from fdrelay.experiment import ExperimentConfig, run_validation
from fdrelay import SystemParams

CFG = ExperimentConfig(
    params=SystemParams(
        m_r=2, m_t=2, p_s=10.0, d1=1.0, d2=1.0, tau=3.0, eta=1.0,
        alpha=0.5, sigma2_li=0.1, gamma_th=1.0, r_c=1.0,
    ),
    schemes=("tzf",),
    sweep={"snr_db": [10.0]},
    n_trials=200_000,
    seed=1,
    outputs=("monte_carlo",),
    output_path="validation_report.json",
    threads=2,
)


def main() -> int:
    report = run_validation(CFG)
    width = max(len(c.name) for c in report.checks)
    for check in report.checks:
        flag = "PASS" if check.passed else "FAIL"
        print(f"{flag} {check.name:<{width}} measured={check.measured:.3e} "
              f"bound={check.bound:.3e} {check.detail}")
    print(f"\n{'all checks passed' if report.passed else 'FAILURES PRESENT'} "
          f"in {report.elapsed_s:.1f}s")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
