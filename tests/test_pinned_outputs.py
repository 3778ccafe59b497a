"""Whole CLI outputs pinned across commits.

Each case reruns one ``fdrelay`` command and compares the CSV byte for byte
with the copy under ``tests/data``: the ``*_ci`` cases at the size the CI
thread-count step uses, the ``outage_analytic_*`` cases with analytic and
asymptotic rows only.
A change that moves any digit of a Monte Carlo, analytic or asymptotic row
fails here; a change meant to move them regenerates the files with
``PYTHONPATH=src python tests/test_pinned_outputs.py`` and says why.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from fdrelay.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

# Analytic and asymptotic rows only, for antenna pairs other than the 2x2 of
# outage_ci and with the half-duplex CDF; "params" entries override the
# committed config's params one by one.
_ANALYTIC = dict(schemes=["tzf", "rzf", "mrc_mrt", "half_duplex"],
                 sweep={"snr_db": [0, 10, 20, 30, 40, 50, 60]},
                 outputs=["analytic", "asymptotic"], json_mirror=False)

# name -> (command, committed config, overrides, --trials)
RUNS = {
    "throughput_ci": (
        "throughput", "throughput_benchmark.json",
        dict(schemes=["optimal", "rzf", "mrc_mrt", "tzf", "half_duplex"],
             n_trials_optimal=1000, sweep={"alpha": {"points": 9}}, json_mirror=False),
        2000,
    ),
    "outage_ci": (
        "outage", "outage_sweep.json",
        dict(sweep={"snr_db": [0, 20, 40]}, json_mirror=False),
        20000,
    ),
    **{
        f"outage_analytic_{m_r}x{m_t}": (
            "outage", "outage_sweep.json",
            dict(_ANALYTIC, params={"m_r": m_r, "m_t": m_t}), 1,
        )
        for m_r, m_t in ((2, 1), (1, 2), (3, 3))
    },
}


def run_pinned(name: str, out: Path) -> None:
    """Run one pinned case, writing its CSV to ``out``."""
    command, config, overrides, trials = RUNS[name]
    cfg = json.loads((ROOT / "configs" / config).read_text())
    cfg.update(overrides, params={**cfg["params"], **overrides.get("params", {})})
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(cfg_path), "--trials", str(trials),
                     "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_is_byte_identical_to_the_pinned_file(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    run_pinned(name, out)
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for case in sys.argv[1:] or sorted(RUNS):
        run_pinned(case, DATA / f"{case}.csv")
