"""The benchmark's three workloads, their inputs, timing and correctness checks.

Every workload is a closed loop with one caller in one process: it issues
the next call only when the previous one has returned.  Monte Carlo calls
use ``threads=2``.  Inputs are made from the seed alone, so a rerun with
the same seed must reproduce every output bit for bit.

Nothing here imports numpy or fdrelay at module level: the import is part
of the timed set-up (``load_fdrelay``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark profile."""

    throughput_trials: int          # per estimate, closed-form schemes
    throughput_trials_optimal: int  # per estimate, optimal scheme
    alpha_points: int
    snr_analytic_db: tuple[float, ...]
    snr_mc_db: tuple[float, ...]
    outage_trials: int
    draws_per_pass: int
    rerun_draws: int
    thread_check_trials: int        # more than one 8192-trial chunk
    setup_samples: int


FULL = Sizes(
    throughput_trials=16_384,
    throughput_trials_optimal=8_192,
    alpha_points=33,
    snr_analytic_db=tuple(2.5 * i for i in range(17)),
    snr_mc_db=(0.0, 10.0, 20.0, 30.0),
    outage_trials=200_000,
    draws_per_pass=12,
    rerun_draws=3,
    thread_check_trials=9_000,
    setup_samples=5,
)

# Seconds-long sizes for the smoke test: every metric and every check runs,
# but Monte Carlo error is too large for the numbers to mean anything.
TINY = Sizes(
    throughput_trials=512,
    throughput_trials_optimal=48,
    alpha_points=9,
    snr_analytic_db=(0.0, 20.0, 40.0),
    snr_mc_db=(0.0, 20.0),
    outage_trials=2_000,
    draws_per_pass=2,
    rerun_draws=1,
    thread_check_trials=8_200,
    setup_samples=2,
)

SIZES = {"full": FULL, "tiny": TINY}

MC_THREADS = 2

# Criterion 1: optimized throughput at the 4x4 benchmark point.
THROUGHPUT_TARGETS = {"optimal": 0.382, "rzf": 0.374, "mrc_mrt": 0.358, "tzf": 0.315}
THROUGHPUT_TOL = 0.01
# Criterion 3: configurations whose 40 dB exact/asymptotic ratio is bounded.
ASYMPTOTIC_CASES = {
    "tzf": ((2, 2), (2, 3), (3, 2)),
    "rzf": ((2, 2), (2, 3), (3, 2), (3, 1)),
}
ANTENNA_PAIRS = tuple((m_r, m_t) for m_r in (1, 2, 3) for m_t in (1, 2, 3))
OUTAGE_SCHEMES = ["tzf", "rzf", "mrc_mrt", "half_duplex"]
DOMINANCE_SLACK = 1e-6
MONOTONE_SLACK = 1e-9


def load_fdrelay(root: Path):
    """Import fdrelay from the checkout's ``src`` (the timed import)."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fdrelay
    import fdrelay.cli

    where = Path(fdrelay.__file__).resolve()
    if root.resolve() / "src" not in where.parents:
        raise RuntimeError(f"fdrelay imported from {where}, not from {src}")
    return fdrelay


class Clock:
    """Wall time, calibrated against a fixed reference for small-array calls.

    On the shared host the speed of interpreter-bound code (small arrays,
    Python loops) swings by up to 40% within seconds, which hides any
    regression of that size.  So each timed call is followed by a short
    reference computation of that kind that runs no fdrelay code, and the
    wall time of a ``scaled`` call is multiplied by ``NOMINAL_S`` over the
    mean of the reference times on either side of it: calibrated seconds
    are the time the call would take on a host that runs the reference in
    ``NOMINAL_S``.  Host drift cancels; a change to fdrelay moves them in
    full.  Only the per-draw precoder calls and set-up follow the
    reference; the CLI sweeps (two-thread Monte Carlo, quadrature) do not,
    and scaling made their spread worse, so they are timed unscaled.
    """

    NOMINAL_S = 0.010

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._mats = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
        self.references: list[float] = []
        self._last = self.reference()

    def reference(self) -> float:
        """Small-array numpy and Python, like fdrelay's loops: 3x the median of 3 parts.

        The median drops a part that the host preempted.
        """
        import numpy as np

        parts = []
        for _ in range(3):
            t0 = time.perf_counter()
            x, acc = self._mats, 0.0
            for _ in range(270):
                y = np.einsum("nij,nj->ni", x, x[:, 0, :])
                acc += float(np.sum(np.abs(y) ** 2)) * 1e-9 + sum(range(20))
            parts.append(time.perf_counter() - t0)
        spent = 3.0 * statistics.median(parts)
        self.references.append(spent)
        return spent

    def measure(self, fn, *args):
        """Run ``fn(*args)``; returns (result, calibrated seconds, scale applied)."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        after = self.reference()
        scale = self.NOMINAL_S / (0.5 * (self._last + after))
        self._last = after
        return result, raw * scale, scale

    def calibrate(self, raw: float) -> float:
        """Scale a time taken just before this call (used for set-up)."""
        ref = statistics.median(self.reference() for _ in range(3))
        return raw * self.NOMINAL_S / ref


class Checks:
    """Correctness checks of one run; failures count toward failed_frac."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.names)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.names.append(name)
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def failed_frac_text(self) -> str:
        return f"{len(self.failures)}/{self.attempted}"


@dataclass
class PassResult:
    """One full pass of a workload: timings (``Clock``-scaled where the workload
    scales them), work counts, outputs."""

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    mc_trials: int = 0
    mc_s: float = 0.0
    cdf_rows: int = 0
    cdf_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    outputs: object = None


def _read_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


@contextlib.contextmanager
def _counting_trials():
    """Count the Monte Carlo trials the program runs, from its own estimates.

    Wraps the public ``estimate_outage`` where the sweep runner and the alpha
    refinement look it up, and sums ``n_trials`` of the estimates it returns.
    Yields a one-element list that holds the running count.
    """
    from fdrelay import experiment, simkit

    count = [0]
    patched = []

    def counted(original):
        def wrapper(*args, **kwargs):
            est = original(*args, **kwargs)
            count[0] += est.n_trials
            return est
        return wrapper

    for owner in (experiment, simkit):
        original = getattr(owner, "estimate_outage", None)
        if original is not None:
            owner.estimate_outage = counted(original)
            patched.append((owner, original))
    try:
        yield count
    finally:
        for owner, original in reversed(patched):
            owner.estimate_outage = original


def _check_trials_counted(passes: list[PassResult], checks: Checks) -> None:
    checks.add("mc_trials_counted", all(p.mc_trials > 0 for p in passes),
               "no Monte Carlo estimate seen: estimate_outage is no longer "
               "called through fdrelay.experiment or fdrelay.simkit")


def _cli(argv: list[str]) -> float:
    """Run the fdrelay CLI; returns its wall time (unscaled)."""
    from fdrelay import cli

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    spent = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"fdrelay {' '.join(argv)} exited with {code}")
    return spent


class Workload:
    name = ""
    notes: dict[str, str] = {}  # metric -> note printed beside it

    def __init__(self, root: Path, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def _base_config(self, name: str) -> dict:
        return json.loads((self.root / "configs" / name).read_text())

    def _write_config(self, name: str, cfg: dict) -> Path:
        path = self.workdir / f"{name}.config.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, clock: Clock) -> PassResult:
        raise NotImplementedError

    def check(self, passes: list[PassResult], checks: Checks) -> None:
        raise NotImplementedError

    def thread_check_case(self):
        """(params, scheme) for the threads=1 vs threads=2 identity check."""
        raise NotImplementedError


class ThroughputSweep(Workload):
    """``fdrelay throughput`` on the 4x4 benchmark point, all five schemes.

    Every pass sweeps the same input, so a pass after the first checks that
    a rerun reproduces the CSV byte for byte.  The Monte Carlo trials of a
    pass are those of the estimates the sweep ran.  8192 trials per optimal
    estimate keep the search's work within about 5% from one seed to the
    next (it varied by 14% at 2000 trials).
    """

    name = "throughput_4x4"

    def setup(self) -> None:
        cfg = self._base_config("throughput_benchmark.json")
        self.params = cfg["params"]
        self.csv_path = self.workdir / "throughput.csv"
        cfg.update(
            seed=self.seed,
            n_trials=self.sizes.throughput_trials,
            n_trials_optimal=self.sizes.throughput_trials_optimal,
            sweep={"alpha": {"points": self.sizes.alpha_points}},
            threads=MC_THREADS,
            output_path=str(self.csv_path),
        )
        self.config_path = self._write_config("throughput", cfg)

    def run_pass(self, clock: Clock) -> PassResult:
        with _counting_trials() as trials:
            wall = _cli(["throughput", "--config", str(self.config_path)])
        return PassResult(wall, wall, mc_trials=trials[0], mc_s=wall,
                          outputs=self.csv_path.read_bytes())

    def check(self, passes: list[PassResult], checks: Checks) -> None:
        self._check_maxima(_read_rows(self.csv_path), checks)
        _check_trials_counted(passes, checks)
        _check_reruns(passes, checks, "throughput_csv")

    def _check_maxima(self, rows: list[dict], checks: Checks) -> None:
        summary = {r["scheme"]: r for r in rows if r["kind"] == "summary"}
        hd = float(summary["half_duplex"]["throughput"])
        for scheme, target in THROUGHPUT_TARGETS.items():
            got, alpha, p = (float(summary[scheme][c])
                             for c in ("throughput", "alpha", "outage"))
            n = (self.sizes.throughput_trials_optimal if scheme == "optimal"
                 else self.sizes.throughput_trials)
            # 0.01 is the criterion at 10k/100k trials; the benchmark runs
            # fewer, so the estimate's standard error widens the band.  The
            # summary is the largest of ~55 noisy estimates, which only
            # pushes it up: five standard errors above, three below.
            se = (1.0 - alpha) * math.sqrt(p * (1.0 - p) / n)
            lo = target - THROUGHPUT_TOL - 3.0 * se
            hi = target + THROUGHPUT_TOL + 5.0 * se
            checks.add(f"criterion1_{scheme}", lo <= got <= hi,
                       f"max {got:.4f} outside [{lo:.4f}, {hi:.4f}]")
            checks.add(f"criterion6_{scheme}_above_hd", got > hd,
                       f"{got:.4f} vs half-duplex {hd:.4f}")

    def thread_check_case(self):
        import fdrelay

        return fdrelay.SystemParams(**self.params), fdrelay.Scheme.OPTIMAL


class OutageCurves(Workload):
    """``fdrelay outage`` per antenna pair: dense analytic lines, MC markers.

    One pass fills most of the window, so the identical-output check reruns
    the calls of one antenna pair instead of a whole pass.
    """

    name = "outage_curves"
    RERUN_PAIR = (2, 2)

    def setup(self) -> None:
        base = self._base_config("outage_sweep.json")
        self.fig_params = base["params"]
        self.calls = []
        for m_r, m_t in ANTENNA_PAIRS:
            for kind, outputs, snr in (
                ("analytic", ["analytic", "asymptotic"], self.sizes.snr_analytic_db),
                ("mc", ["monte_carlo"], self.sizes.snr_mc_db),
            ):
                tag = f"outage_{m_r}x{m_t}_{kind}"
                cfg = dict(base)
                cfg.update(
                    params=dict(base["params"], m_r=m_r, m_t=m_t),
                    schemes=OUTAGE_SCHEMES,
                    sweep={"snr_db": list(snr)},
                    n_trials=self.sizes.outage_trials,
                    seed=self.seed,
                    outputs=outputs,
                    threads=MC_THREADS,
                    output_path=str(self.workdir / f"{tag}.csv"),
                )
                self.calls.append((kind, (m_r, m_t), self._write_config(tag, cfg),
                                   self.workdir / f"{tag}.csv"))

    def run_pass(self, clock: Clock) -> PassResult:
        result = PassResult(outputs=[])
        for kind, _, config_path, csv_path in self.calls:
            with _counting_trials() as trials:
                spent = _cli(["outage", "--config", str(config_path)])
            result.wall_s += spent
            result.raw_wall_s += spent
            if kind == "mc":
                result.mc_s += spent
                result.mc_trials += trials[0]
            else:
                result.cdf_s += spent
                result.cdf_rows += sum(1 for r in _read_rows(csv_path)
                                       if r["analytic"] or r["asymptotic"])
            result.outputs.append(csv_path.read_bytes())
        return result

    def check(self, passes: list[PassResult], checks: Checks) -> None:
        exact, asym, mc = {}, {}, []
        for _, _, _, csv_path in self.calls:
            for r in _read_rows(csv_path):
                key = (r["scheme"], r["m_r"], r["m_t"])
                if r["kind"] == "analytic" and r["analytic"]:
                    exact.setdefault(key, {})[float(r["rho1_db"])] = float(r["analytic"])
                elif r["kind"] == "asymptotic" and r["asymptotic"]:
                    asym.setdefault(key, {})[float(r["rho1_db"])] = float(r["asymptotic"])
                elif r["kind"] == "monte_carlo" and r["p_out"]:
                    mc.append((key, float(r["rho1_db"]), float(r["p_out"]),
                               float(r["std_err"])))
        # criterion 2: every Monte Carlo marker on its analytic line
        for key, snr, p_hat, std_err in mc:
            if key not in exact:
                continue  # MRC/MRT with m_r, m_t > 1 has no analytic CDF
            analytic = exact[key][snr]
            bound = 3.0 * std_err + 1e-3
            checks.add(f"criterion2_{'_'.join(key)}@{snr:g}dB",
                       abs(analytic - p_hat) <= bound,
                       f"analytic {analytic:.5f} vs mc {p_hat:.5f} (bound {bound:.2e})")
        for key, curve in exact.items():
            values = [curve[s] for s in sorted(curve)]
            ok = all(0.0 <= v <= 1.0 for v in values) and all(
                b <= a + MONOTONE_SLACK for a, b in zip(values, values[1:]))
            checks.add(f"cdf_monotone_{'_'.join(key)}", ok, f"values {values}")
        # criterion 3: exact/asymptotic ratio at 40 dB
        for scheme, pairs in ASYMPTOTIC_CASES.items():
            for m_r, m_t in pairs:
                key = (scheme, str(m_r), str(m_t))
                ratio = exact[key][40.0] / asym[key][40.0]
                checks.add(f"criterion3_{scheme}_{m_r}x{m_t}", abs(ratio - 1.0) <= 0.1,
                           f"exact/asymptotic {ratio:.4f} at 40 dB")
        _check_trials_counted(passes, checks)
        _check_reruns(passes, checks, "outage_csv")
        for i, (kind, pair, config_path, csv_path) in enumerate(self.calls):
            if pair == self.RERUN_PAIR:
                _cli(["outage", "--config", str(config_path)])
                checks.add(f"rerun_identical_outage_csv_{pair[0]}x{pair[1]}_{kind}",
                           csv_path.read_bytes() == passes[0].outputs[i],
                           "rerun output differs from pass 1")

    def thread_check_case(self):
        import fdrelay

        params = fdrelay.SystemParams(**dict(self.fig_params, m_r=2, m_t=2))
        return params, fdrelay.Scheme.TZF


class PrecoderPerDraw(Workload):
    """One realization at a time: draw, optimal precoder, end-to-end SINR.

    The draws continue one generator across passes, so every pass sees new
    realizations; the identical-output check reruns the first draws.  No
    Monte Carlo runs here: ``mc_trials_per_s`` counts draws per second, the
    same information as ``wall_s``, and is kept only because every workload
    reports every end-to-end metric.
    """

    name = "precoder_per_draw"
    notes = {"mc_trials_per_s": "(draws/s: no Monte Carlo here; same information as wall_s)"}

    def setup(self) -> None:
        import fdrelay
        import numpy as np

        self.params = fdrelay.SystemParams(
            **self._base_config("throughput_benchmark.json")["params"])
        self.rng = np.random.default_rng(self.seed)

    def _draw(self, rng) -> tuple[tuple[float, ...], float]:
        """SINRs (optimal, MRC/MRT, TZF, RZF) and the optimal+SINR latency."""
        import fdrelay

        p = self.params
        ch = fdrelay.sample_channel(p, rng)
        t0 = time.perf_counter()
        best = fdrelay.e2e_sinr(ch, p, fdrelay.optimal(ch, p)).e2e
        latency = time.perf_counter() - t0
        closed = tuple(fdrelay.e2e_sinr(ch, p, fn(ch)).e2e
                       for fn in (fdrelay.mrc_mrt, fdrelay.tzf, fdrelay.rzf))
        return (best,) + closed, latency

    def run_pass(self, clock: Clock) -> PassResult:
        result = PassResult(outputs=[], mc_trials=self.sizes.draws_per_pass)
        for _ in range(self.sizes.draws_per_pass):
            (sinrs, latency), spent, scale = clock.measure(self._draw, self.rng)
            result.wall_s += spent
            result.raw_wall_s += spent / scale
            result.latencies_s.append(latency * scale)
            result.outputs.append(sinrs)
        result.mc_s = result.wall_s
        return result

    def check(self, passes: list[PassResult], checks: Checks) -> None:
        import numpy as np

        sinrs = [s for p in passes for s in p.outputs]
        for i, (best, *closed) in enumerate(sinrs):
            checks.add(f"criterion4_dominance_draw{i}",
                       all(best >= c - DOMINANCE_SLACK for c in closed),
                       f"optimal {best:.6g} vs closed-form {closed}")
        rng = np.random.default_rng(self.seed)
        for i in range(min(self.sizes.rerun_draws, len(sinrs))):
            again, _ = self._draw(rng)
            checks.add(f"rerun_identical_sinr_draw{i}", again == sinrs[i],
                       f"{again} vs {sinrs[i]}")

    def thread_check_case(self):
        import fdrelay

        return self.params, fdrelay.Scheme.OPTIMAL


def _check_reruns(passes: list[PassResult], checks: Checks, what: str) -> None:
    """Every pass reruns the first pass's input and must reproduce its output."""
    for i, p in enumerate(passes[1:], start=2):
        checks.add(f"rerun_identical_{what}_pass{i}", p.outputs == passes[0].outputs,
                   "output differs from pass 1")


def check_thread_identity(workload: Workload, sizes: Sizes, checks: Checks) -> None:
    """One estimate at threads=1 and threads=2 must give the same p_hat."""
    import fdrelay

    params, scheme = workload.thread_check_case()
    p_hat = [
        fdrelay.estimate_outage(params, scheme, sizes.thread_check_trials,
                                workload.seed, threads=t).p_hat
        for t in (1, 2)
    ]
    checks.add(f"threads_identical_{scheme.value}", p_hat[0] == p_hat[1],
               f"p_hat threads=1 {p_hat[0]!r} vs threads=2 {p_hat[1]!r}")


WORKLOADS = {w.name: w for w in (ThroughputSweep, OutageCurves, PrecoderPerDraw)}


def end_to_end(passes: list[PassResult]) -> dict[str, tuple]:
    """Workload metrics as name -> (value, unit, sample count)."""
    walls = [p.wall_s for p in passes]
    mc_trials = sum(p.mc_trials for p in passes)
    out = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "mc_trials_per_s": (mc_trials / sum(p.mc_s for p in passes), "1/s", mc_trials),
    }
    cdf_rows = sum(p.cdf_rows for p in passes)
    if cdf_rows:
        out["cdf_evals_per_s"] = (cdf_rows / sum(p.cdf_s for p in passes), "1/s", cdf_rows)
    lat = [x for p in passes for x in p.latencies_s]
    if lat:
        out["precode_p50_ms"] = (statistics.median(lat) * 1e3, "ms", len(lat))
        q90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
        out["precode_p90_ms"] = (q90 * 1e3, "ms", len(lat))
    out["raw_wall_s"] = (statistics.median(p.raw_wall_s for p in passes), "s", len(walls))
    return out
