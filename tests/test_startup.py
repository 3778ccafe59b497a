"""What a fresh interpreter loads and runs: the scipy import contract, the README.

pytest has loaded scipy long before these tests run (the oracles in
``helpers`` and the special-function tests use it), so each check runs in a
child interpreter that sees only ``src`` on its path.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from fdrelay import (
    OutageQuery,
    outage_hd,
    outage_mrc_mrt,
    outage_rzf,
    outage_rzf_asymptotic,
    outage_tzf,
    outage_tzf_asymptotic,
)

from helpers import make_params

ROOT = Path(__file__).resolve().parents[1]


def run_child(code: str, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


# The analytic calls the child makes once the numpy-only work is done: the
# four exact CDFs and the TZF and RZF laws in their balanced regimes, all at
# make_params' defaults.
ANALYTIC = (
    (outage_tzf, 2, 2), (outage_rzf, 2, 2), (outage_mrc_mrt, 2, 2), (outage_hd, 2, 2),
    (outage_tzf_asymptotic, 2, 3), (outage_rzf_asymptotic, 3, 2),
)

CHILD = """
import json, sys
from pathlib import Path
import numpy as np
import fdrelay, fdrelay.cli
from fdrelay import (SystemParams, OutageQuery, sample_channel, optimal, mrc_mrt, tzf,
                     rzf, e2e_sinr, hd_snr, specfun)

P = dict(m_r=2, m_t=2, p_s=10.0, d1=1.0, d2=1.0, tau=3.0, eta=1.0, alpha=0.5,
         sigma2_li=0.1, gamma_th=1.0, r_c=1.0)
base = dict(params=P, seed=1, outputs=["monte_carlo"], threshold_mode="fixed",
            threads=2, json_mirror=False)
runs = dict(
    throughput=dict(base, schemes=["optimal", "tzf", "rzf", "mrc_mrt", "half_duplex"],
                    sweep={{"alpha": {{"points": 3}}}}, n_trials=400, n_trials_optimal=200),
    # 20000 trials are three chunks, split over the two threads
    outage=dict(base, schemes=["tzf", "rzf", "mrc_mrt", "half_duplex"],
                sweep={{"snr_db": [0, 20]}}, n_trials=20000),
)
for command, cfg in runs.items():
    Path(command + ".json").write_text(json.dumps(dict(cfg, output_path=command + ".csv")))
    code = fdrelay.cli.main([command, "--config", command + ".json"])
    assert code == 0, (command, code)

params = SystemParams(**P)
ch = sample_channel(params, np.random.default_rng(0))
for pair in (optimal(ch, params), mrc_mrt(ch), tzf(ch), rzf(ch)):
    e2e_sinr(ch, params, pair)
hd_snr(ch, params)

loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]

values = []
for name, m_r, m_t in {calls!r}:
    p = SystemParams(**dict(P, m_r=m_r, m_t=m_t))
    values.append(getattr(fdrelay, name)(OutageQuery(p, p.gamma_th)))
assert specfun.special is sys.modules["scipy.special"]
assert "scipy.integrate" not in sys.modules
print(json.dumps(values))
"""


def test_monte_carlo_and_precoders_run_without_scipy(tmp_path):
    calls = [(f.__name__, m_r, m_t) for f, m_r, m_t in ANALYTIC]
    out = run_child(CHILD.format(calls=calls), tmp_path)
    values = json.loads(out.splitlines()[-1])
    expected = []
    for f, m_r, m_t in ANALYTIC:
        p = make_params(m_r, m_t)
        expected.append(f(OutageQuery(p, p.gamma_th)))
    assert values == expected


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    run_child(code, tmp_path)
