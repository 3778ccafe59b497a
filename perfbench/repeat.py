"""Run the benchmark on several seeds and summarize each metric.

Run from the root of a checkout:

    python3 perfbench/repeat.py --workload outage_curves --seeds 1-10 --out summary.json

Each run is ``perfbench/run.py --trace 0`` in its own process, one after
another, with the ``run_seconds`` of ``BENCHMARK.json``.  The summary holds
every run's result line plus, per metric, the median, the quartiles and the
spread (interquartile range over the median), which is what a before/after
comparison of two commits is judged by.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    lo, hi = (int(x) for x in args.seeds.split("-"))
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    runs, provenance = [], None
    for seed in range(lo, hi + 1):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("provenance ") and provenance is None:
                provenance = json.loads(line.split(" ", 1)[1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    names = list(runs[0]["metrics"])
    summary = {
        "workload": args.workload,
        "seconds": seconds,
        "provenance": provenance,
        "runs": runs,
        "metrics": {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   **summarize([r["metrics"][name]["value"] for r in runs])}
            for name in names
        },
    }
    for name, stats in summary["metrics"].items():
        spread = stats.get("spread")
        print(f"{name}: median {stats['median']:.6g} {stats['unit']}"
              + (f", spread {spread:.4f}" if spread is not None else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
