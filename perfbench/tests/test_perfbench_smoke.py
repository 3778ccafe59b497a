"""Smoke test of the benchmark: every workload at tiny size, traced and untraced.

Asserts that each end-to-end and per-layer metric is printed with its unit
and that every check runs.  At tiny sizes Monte Carlo error is too large for
the statistical checks (criteria 1, 2, 6, ...) to be expected to pass, so only
the deterministic ones must: identical reruns, threads=1 vs 2, CDF range and
monotonicity, and that Monte Carlo trials were counted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from fdbench import trace  # noqa: E402
from fdbench.workloads import WORKLOADS, load_fdrelay  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Check-name prefixes every run of a workload must attempt.
CHECKS = {
    "throughput_4x4": ("criterion1_", "criterion6_", "mc_trials_counted"),
    "outage_curves": ("criterion2_", "cdf_monotone_", "criterion3_", "mc_trials_counted",
                      "rerun_identical_outage_csv_"),
    "precoder_per_draw": ("criterion4_dominance_", "rerun_identical_sinr_"),
}
# Only the traced run has a second throughput pass to compare, and it alone
# runs the thread check.
TRACED_CHECKS = {
    "throughput_4x4": ("rerun_identical_throughput_csv_", "threads_identical_"),
    "outage_curves": ("threads_identical_",),
    "precoder_per_draw": ("threads_identical_",),
}
DETERMINISTIC = ("rerun_identical_", "threads_identical_", "cdf_monotone_",
                 "mc_trials_counted")


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.E2E_METRICS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _) in trace.LAYER_METRICS.items()}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_every_metric(workload, traced, capsys):
    report = run.run(ROOT, workload, seed=7, seconds=0.0, traced=traced, size="tiny")
    run._print_report(report, traced)
    out = capsys.readouterr().out

    checks = report["checks"]
    assert checks.attempted > 0
    expected = CHECKS[workload] + (TRACED_CHECKS[workload] if traced else ())
    for prefix in expected:
        assert any(name.startswith(prefix) for name in checks.names), prefix
    assert [f for f in checks.failures if f.startswith(DETERMINISTIC)] == []
    for spec in BENCHMARK["end_to_end"]:
        value, unit, samples = report["metrics"][spec["name"]]
        assert unit == spec["unit"] and value > 0 and samples >= 1
        assert f"{spec['name']:32s}" in out
    assert f"{len(checks.failures)}/{checks.attempted}" in out  # failed_frac
    if traced:
        assert report["missing"] == []
        for spec in BENCHMARK["per_layer"]:
            assert any(line.split()[:1] == [spec["name"]] and line.split()[-1] == spec["unit"]
                       for line in out.splitlines()), spec["name"]


def test_renamed_helper_is_reported_missing(monkeypatch):
    load_fdrelay(ROOT)
    from fdrelay import precoding

    monkeypatch.delattr(precoding, "_top_eig_rank_one")
    tracer = trace.Tracer()
    trace.install(tracer)
    tracer.restore()
    assert "fdrelay.precoding._top_eig_rank_one" in tracer.missing
    assert set(trace.missing_metrics(tracer)) == {
        "precoding.secular_solves", "precoding.secular_rows", "precoding.eig_s"}


def test_outside_a_checkout_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "throughput_4x4", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
