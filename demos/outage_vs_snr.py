#!/usr/bin/env python3
"""Outage probability versus first-hop SNR for the three closed-form schemes.

Walks the classic link-level picture: Monte Carlo markers on top of the
analytic CDF curves, with the high-SNR approximations alongside.  The
matched-filter scheme floors out once harvested power (and with it the loop
interference) grows, while both zero-forcing schemes keep their diversity
slopes.  Writes a CSV next to this script.
"""

import csv
from pathlib import Path

from fdrelay import (
    OutageQuery,
    Scheme,
    SystemParams,
    estimate_outage,
    outage_mrc_mrt,
    outage_rzf,
    outage_rzf_asymptotic,
    outage_tzf,
    outage_tzf_asymptotic,
)

# Unit distances, 0 dB threshold, moderate loop strength, half-time harvest.
BASE = SystemParams(
    m_r=2, m_t=2, p_s=1.0, d1=1.0, d2=1.0, tau=3.0, eta=1.0,
    alpha=0.5, sigma2_li=0.1, gamma_th=1.0, r_c=1.0,
)

CURVES = [
    # (label, scheme, antennas, analytic fn, asymptotic fn)
    ("TZF 2x2", Scheme.TZF, (2, 2), outage_tzf, outage_tzf_asymptotic),
    ("RZF 3x1", Scheme.RZF, (3, 1), outage_rzf, outage_rzf_asymptotic),
    ("MRC/MRT 2x2", Scheme.MRC_MRT, (2, 2), outage_mrc_mrt, None),
]

SNR_DB = [0, 5, 10, 15, 20, 25, 30, 35, 40]
TRIALS = 200_000


def main() -> None:
    rows = []
    print(f"{'scheme':>12} {'rho1[dB]':>9} {'monte carlo':>12} {'analytic':>10} {'asymptotic':>11}")
    for label, scheme, (m_r, m_t), analytic_fn, asym_fn in CURVES:
        for snr_db in SNR_DB:
            params = SystemParams(**{
                **BASE.to_dict(), "m_r": m_r, "m_t": m_t,
                "p_s": 10.0 ** (snr_db / 10.0),
            })
            est = estimate_outage(params, scheme, TRIALS, seed=1, threads=2)
            q = OutageQuery(params, params.gamma_th)
            analytic = analytic_fn(q)
            asym = asym_fn(q) if asym_fn else None
            rows.append({
                "scheme": label, "rho1_db": snr_db, "p_out": est.p_hat,
                "std_err": est.std_err, "analytic": analytic,
                "asymptotic": asym if asym is not None else "",
            })
            asym_txt = f"{asym:11.3e}" if asym is not None else "          -"
            print(f"{label:>12} {snr_db:9d} {est.p_hat:12.3e} {analytic:10.3e} {asym_txt}")
        print()

    out = Path(__file__).with_suffix(".csv")
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"table written to {out}")


if __name__ == "__main__":
    main()
