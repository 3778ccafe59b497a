"""fdrelay benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload throughput_4x4 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` spends half the window untraced and half traced and reports
the per-layer metrics plus the tracing overhead.  The human-readable report
goes to stdout first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the checkout has no fdrelay sources to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fdbench import trace  # noqa: E402
from fdbench.workloads import (  # noqa: E402
    SIZES, WORKLOADS, Checks, Clock, check_thread_identity, end_to_end, load_fdrelay,
)

# End-to-end metrics of the JSON result line, in BENCHMARK.json order.
E2E_METRICS = ("setup_s", "wall_s", "mc_trials_per_s", "peak_rss_mb")

_SETUP_CHILD = """
import sys, time
from pathlib import Path
sys.path.insert(0, {bench_dir!r})
from fdbench.workloads import SIZES, WORKLOADS, Clock, load_fdrelay
t0 = time.perf_counter()
load_fdrelay(Path({root!r}))
WORKLOADS[{name!r}](Path({root!r}), {seed}, SIZES[{size!r}], Path({workdir!r})).setup()
raw = time.perf_counter() - t0
print(Clock().calibrate(raw))
"""


def _setup_sample(root: Path, name: str, seed: int, size: str, workdir: Path) -> float:
    """Calibrated set-up time (import fdrelay, build the inputs), fresh interpreter."""
    code = _SETUP_CHILD.format(bench_dir=str(Path(__file__).resolve().parent),
                               root=str(root), name=name, seed=seed, size=size,
                               workdir=str(workdir))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _timed_passes(workload, clock: Clock, seconds: float) -> list:
    """Run passes until the next one would end past the window (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(clock))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.raw_wall_s for p in passes)
        if elapsed + typical > seconds:
            return passes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fdrelay").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, seed: int, passes: int) -> dict:
    import numpy
    import scipy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
        "passes": passes,
        "tuning": "none: no CPU pinning, frequency or huge-page tuning is used",
    }


def run(root: Path, name: str, seed: int, seconds: float, traced: bool,
        size: str = "full") -> dict:
    """Run one workload; returns the report (metrics, checks, provenance)."""
    sizes = SIZES[size]
    checks = Checks()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        tmp = Path(tmp)
        t0 = time.perf_counter()
        load_fdrelay(root)
        workload = WORKLOADS[name](root, seed, sizes, tmp / "main")
        workload.setup()
        raw_setup = time.perf_counter() - t0
        clock = Clock()
        setup = [clock.calibrate(raw_setup)]
        setup += [_setup_sample(root, name, seed, size, tmp / f"setup{i}")
                  for i in range(1, sizes.setup_samples)]

        layers, missing, missing_names = {}, [], []
        if not traced:
            passes = _timed_passes(workload, clock, seconds)
            checked = passes
        else:
            # end-to-end metrics come from the untraced half only
            passes = _timed_passes(workload, clock, seconds / 2)
            tracer = trace.Tracer()
            trace.install(tracer)
            try:
                traced_passes = _timed_passes(workload, clock, seconds / 2)
            finally:
                tracer.restore()
            layers = trace.layer_metrics(tracer, len(traced_passes))
            missing = trace.missing_metrics(tracer)
            missing_names = tracer.missing
            layers["trace.overhead_frac"] = (
                statistics.median(p.wall_s for p in traced_passes)
                / statistics.median(p.wall_s for p in passes) - 1.0)
            checked = passes + traced_passes
            check_thread_identity(workload, sizes, checks)
        workload.check(checked, checks)

    metrics = {"setup_s": (statistics.median(setup), "s", len(setup))}
    metrics.update(end_to_end(passes))
    metrics["reference_ms"] = (statistics.median(clock.references) * 1e3, "ms",
                               len(clock.references))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB", 1)
    return {
        "workload": name,
        "metrics": metrics,
        "notes": workload.notes,
        "layers": layers,
        "missing": missing,
        "missing_names": missing_names,
        "checks": checks,
        "provenance": provenance(root, seed, len(checked)),
    }


def _print_report(report: dict, traced: bool) -> None:
    checks = report["checks"]
    print(f"workload {report['workload']} (closed loop, 1 caller, "
          f"Monte Carlo threads=2)")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(f"{'metric':32s} {'value':>14s} {'unit':6s} samples")
    for name, (value, unit, n) in report["metrics"].items():
        note = report["notes"].get(name, "")
        # a p90 has ten samples beyond it only from 100 samples on
        if name.endswith("_p90_ms") and n < 100:
            note = "(under 100 samples: rough)"
        print(f"{name:32s} {value:14.6g} {unit:6s} {n}" + (f"  {note}" if note else ""))
    print(f"{'failed_frac':32s} {checks.failed_frac_text:>14s} {'ratio':6s} "
          f"{checks.attempted}")
    if traced:
        for name, (unit, _) in trace.LAYER_METRICS.items():
            if name in report["missing"]:
                print(f"{name:32s} {'missing':>14s} {unit}")
            else:
                print(f"{name:32s} {report['layers'][name]:14.6g} {unit}")
        if report["missing_names"]:
            print("missing wrapped names: " + ", ".join(report["missing_names"]))
    for failure in checks.failures:
        print(f"FAIL {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "fdrelay" / "__init__.py",
              root / "configs" / "throughput_benchmark.json",
              root / "configs" / "outage_sweep.json"]
    absent = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if absent:
        print(f"not an fdrelay checkout (missing {', '.join(absent)}); "
              "run from the repository root", file=sys.stderr)
        return 2

    report = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(report, bool(args.trace))
    checks = report["checks"]
    if args.trace:
        units = {name: unit for name, (unit, _) in trace.LAYER_METRICS.items()}
        values = report["layers"]
    else:
        units = {name: report["metrics"][name][1] for name in E2E_METRICS}
        values = {name: report["metrics"][name][0] for name in E2E_METRICS}
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
