"""Run-time span tracer for the fdrelay benchmark.

Nothing under ``src/`` is edited: for the duration of a traced pass the
tracer replaces the module attributes through which one fdrelay module calls
into another (or into its own private helpers), and restores them
afterwards.  Each wrapper records a span (name, start, end, parent, a few
counts) in memory; the per-layer metrics are computed from the spans when
the run ends.

A wrapped name that no longer exists is recorded as missing instead of
failing the run, so private helpers can be renamed without breaking the
benchmark; the metrics that depend on it are then reported as ``missing``.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def get(self, key: str, default=0):
        return default if self.attrs is None else self.attrs.get(key, default)


class Tracer:
    """Collects spans from wrapped fdrelay functions, across threads.

    Spans opened in a thread whose own span stack is empty (the Monte Carlo
    worker threads) are parented to the innermost open ``root`` span, which
    is the ``estimate_outage`` call that started the workers.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []        # qualified names that do not exist
        self.missing_spans: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: list[int] = []

    def _open(self, name: str, root: bool) -> tuple[int, list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._roots[-1] if self._roots else None
        span = Span(name, parent, time.perf_counter())
        with self._lock:
            self.spans.append(span)
            sid = len(self.spans) - 1
            if root:
                self._roots.append(sid)
        stack.append(sid)
        return sid, stack

    def _close(self, sid: int, stack: list[int], root: bool) -> None:
        self.spans[sid].end = time.perf_counter()
        stack.pop()
        if root:
            with self._lock:
                self._roots.remove(sid)

    def wrap(self, owner, attr: str, name: str, *, attrs=None, root: bool = False,
             prepare=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs, result) -> dict`` adds counts to the span;
        ``prepare(span, args, kwargs) -> (args, kwargs)`` may substitute
        arguments (used to count integrand evaluations).
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            self.missing_spans.add(name)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            sid, stack = tracer._open(name, root)
            try:
                if prepare is not None:
                    args, kwargs = prepare(tracer.spans[sid], args, kwargs)
                result = original(*args, **kwargs)
                if attrs is not None:
                    tracer.spans[sid].attrs = attrs(args, kwargs, result)
                return result
            finally:
                tracer._close(sid, stack, root)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _rows(index: int):
    def attrs(args, kwargs, result):
        return {"rows": int(args[index].shape[0])}
    return attrs


def _count_integrand(span: Span, args, kwargs):
    """Swap the integrand for a counting copy; the count lands on the span."""
    counter = [0]

    def counted(x, _f=args[0], _c=counter):
        _c[0] += 1
        return _f(x)

    span.attrs = {"evals": counter}
    return (counted,) + tuple(args[1:]), kwargs


def _estimate_attrs(args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs["n_trials"]
    return {"trials": int(n), "threads": int(kwargs.get("threads", 1))}


def _sweep_rows(args, kwargs, result):
    return {"rows": len(result.rows)}


def _written_bytes(args, kwargs, result):
    path = os.fspath(args[1] if len(args) > 1 else kwargs["path"])
    mirror = kwargs.get("json_mirror", args[2] if len(args) > 2 else False)
    total = os.path.getsize(path)
    json_path = os.path.splitext(path)[0] + ".json"
    if mirror and not path.endswith(".json") and os.path.exists(json_path):
        total += os.path.getsize(json_path)
    return {"bytes": total}


def install(tracer: Tracer) -> None:
    """Wrap every call that the per-layer metrics are built from."""
    import fdrelay
    from fdrelay import cli, experiment, outage, precoding, simkit, specfun

    w = tracer.wrap
    w(simkit, "_chunk_channels", "channel.chunk",
      attrs=lambda a, k, r: {"rows": int(r[0].shape[0])})
    w(fdrelay, "sample_channel", "channel.sample_channel")
    # the sweep runner and the alpha refinement both call the estimator
    for owner in (experiment, simkit):
        w(owner, "estimate_outage", "simkit.estimate", attrs=_estimate_attrs, root=True)
    w(simkit, "_sinr_batch", "simkit.sinr_batch")
    w(simkit, "_eval_point", "experiment.refine_probe")
    w(simkit, "_optimal_wt_batch", "precoding.search", attrs=_rows(1))
    w(precoding, "_wt_at_leakage", "precoding.leakage", attrs=_rows(1))
    w(precoding, "_top_eig_rank_one", "precoding.secular", attrs=_rows(0))
    w(fdrelay, "optimal", "precoding.optimal")
    for attr in ("mrc_mrt", "tzf", "rzf"):
        w(fdrelay, attr, "precoding.closed_form")
    w(fdrelay, "e2e_sinr", "sinr.e2e_sinr")
    for attr, name in (
        ("outage_tzf", "outage.tzf"), ("outage_rzf", "outage.rzf"),
        ("outage_hd", "outage.hd"), ("outage_mrc_case1", "outage.mrc_case1"),
        ("outage_mrc_case2", "outage.mrc_case2"),
        ("outage_tzf_asymptotic", "outage.asymptotic"),
        ("outage_rzf_asymptotic", "outage.asymptotic"),
    ):
        w(experiment, attr, name)
    for owner in (outage, specfun):
        w(owner, "integrate_semi_infinite", "specfun.quad", prepare=_count_integrand)
    w(outage, "meijer_special_cdf", "specfun.meijer")
    w(cli, "run_outage_sweep", "experiment.sweep", attrs=_sweep_rows)
    w(cli, "run_throughput_sweep", "experiment.sweep", attrs=_sweep_rows)
    sweep_result = getattr(experiment, "SweepResult", None)
    if sweep_result is None:
        tracer.missing.append("fdrelay.experiment.SweepResult")
        tracer.missing_spans.add("experiment.write")
    else:
        w(sweep_result, "write", "experiment.write", attrs=_written_bytes)
    w(cli, "_load_config", "cli.config_load")


# Metric name -> (unit, span names it is computed from).
LAYER_METRICS = {
    "channel.draws": ("count", ["channel.chunk"]),
    "channel.draw_s": ("s", ["channel.chunk"]),
    "channel.trials_per_s": ("1/s", ["channel.chunk"]),
    "channel.sample_channel_us": ("us", ["channel.sample_channel"]),
    "precoding.search_s": ("s", ["precoding.search"]),
    "precoding.search_rows": ("count", ["precoding.search"]),
    "precoding.searched_frac": ("ratio", ["precoding.search", "precoding.leakage"]),
    "precoding.leakage_rows": ("count", ["precoding.leakage"]),
    "precoding.secular_solves": ("count", ["precoding.secular"]),
    "precoding.secular_rows": ("count", ["precoding.secular"]),
    "precoding.eig_s": ("s", ["precoding.secular"]),
    "precoding.optimal_ms": ("ms", ["precoding.optimal"]),
    "precoding.closed_form_us": ("us", ["precoding.closed_form"]),
    "sinr.e2e_sinr_us": ("us", ["sinr.e2e_sinr"]),
    "simkit.sinr_batch_s": ("s", ["simkit.sinr_batch", "precoding.search"]),
    "simkit.estimates": ("count", ["simkit.estimate"]),
    "simkit.estimate_s": ("s", ["simkit.estimate"]),
    "simkit.parallel_efficiency": (
        "ratio", ["simkit.estimate", "channel.chunk", "simkit.sinr_batch"]),
    "outage.tzf_ms": ("ms", ["outage.tzf"]),
    "outage.rzf_ms": ("ms", ["outage.rzf"]),
    "outage.hd_ms": ("ms", ["outage.hd"]),
    "outage.mrc_case1_ms": ("ms", ["outage.mrc_case1"]),
    "outage.mrc_case2_ms": ("ms", ["outage.mrc_case2"]),
    "outage.asymptotic_us": ("us", ["outage.asymptotic"]),
    "specfun.quad_calls": ("count", ["specfun.quad"]),
    "specfun.integrand_evals": ("count", ["specfun.quad"]),
    "specfun.quad_s": ("s", ["specfun.quad"]),
    "specfun.meijer_calls": ("count", ["specfun.meijer"]),
    "experiment.rows": ("count", ["experiment.sweep"]),
    "experiment.refine_probes": ("count", ["experiment.refine_probe"]),
    "experiment.write_s": ("s", ["experiment.write"]),
    "experiment.output_bytes": ("count", ["experiment.write"]),
    "cli.config_load_s": ("s", ["cli.config_load"]),
    "trace.overhead_frac": ("ratio", []),
}


def _p50(spans: list[Span], scale: float) -> float:
    return statistics.median(s.duration for s in spans) * scale if spans else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer numbers from the recorded spans (``trace.overhead_frac`` excluded).

    Counts and summed times are per traced pass, so counts repeat exactly
    when the passes rerun the same inputs; ``_ms``/``_us`` metrics are
    medians per call and rates are ratios.  Self time is a span's duration
    minus the time its child spans cover; ``specfun.quad_s`` counts only
    outermost quadratures, since the loop CDF nests one inside another.
    """
    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    kids: dict[int, list[int]] = {}
    for sid, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(sid)
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(sid)

    def named(name: str) -> list[Span]:
        return [spans[i] for i in by_name.get(name, ())]

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def rows(name: str) -> int:
        return sum(s.get("rows") for s in named(name))

    handed = searched = 0
    for sid in by_name.get("precoding.search", ()):
        handed += spans[sid].get("rows")
        first = next((spans[c] for c in kids.get(sid, ())
                      if spans[c].name == "precoding.leakage"), None)
        if first is not None:
            searched += first.get("rows")

    sinr_self = sum(
        spans[sid].duration - sum(spans[c].duration for c in kids.get(sid, ()))
        for sid in by_name.get("simkit.sinr_batch", ())
    )

    busy = capacity = 0.0
    for sid in by_name.get("simkit.estimate", ()):
        capacity += spans[sid].get("threads", 1) * spans[sid].duration
        busy += sum(spans[c].duration for c in kids.get(sid, ())
                    if spans[c].name in ("channel.chunk", "simkit.sinr_batch"))

    def outermost(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if spans[parent].name == span.name:
                return False
            parent = spans[parent].parent
        return True

    quads = named("specfun.quad")
    draws = rows("channel.chunk")
    out = {
        "channel.draws": draws,
        "channel.draw_s": total("channel.chunk"),
        "channel.trials_per_s": _ratio(draws, total("channel.chunk")),
        "channel.sample_channel_us": _p50(named("channel.sample_channel"), 1e6),
        "precoding.search_s": total("precoding.search"),
        "precoding.search_rows": handed,
        "precoding.searched_frac": _ratio(searched, handed),
        "precoding.leakage_rows": rows("precoding.leakage"),
        "precoding.secular_solves": len(by_name.get("precoding.secular", ())),
        "precoding.secular_rows": rows("precoding.secular"),
        "precoding.eig_s": total("precoding.secular"),
        "precoding.optimal_ms": _p50(named("precoding.optimal"), 1e3),
        "precoding.closed_form_us": _p50(named("precoding.closed_form"), 1e6),
        "sinr.e2e_sinr_us": _p50(named("sinr.e2e_sinr"), 1e6),
        "simkit.sinr_batch_s": sinr_self,
        "simkit.estimates": len(by_name.get("simkit.estimate", ())),
        "simkit.estimate_s": total("simkit.estimate"),
        "simkit.parallel_efficiency": _ratio(busy, capacity),
        "outage.tzf_ms": _p50(named("outage.tzf"), 1e3),
        "outage.rzf_ms": _p50(named("outage.rzf"), 1e3),
        "outage.hd_ms": _p50(named("outage.hd"), 1e3),
        "outage.mrc_case1_ms": _p50(named("outage.mrc_case1"), 1e3),
        "outage.mrc_case2_ms": _p50(named("outage.mrc_case2"), 1e3),
        "outage.asymptotic_us": _p50(named("outage.asymptotic"), 1e6),
        "specfun.quad_calls": len(quads),
        "specfun.integrand_evals": sum(s.get("evals", [0])[0] for s in quads),
        "specfun.quad_s": sum(s.duration for s in quads if outermost(s)),
        "specfun.meijer_calls": len(by_name.get("specfun.meijer", ())),
        "experiment.rows": rows("experiment.sweep"),
        "experiment.refine_probes": len(by_name.get("experiment.refine_probe", ())),
        "experiment.write_s": total("experiment.write"),
        "experiment.output_bytes": sum(s.get("bytes") for s in named("experiment.write")),
        "cli.config_load_s": total("cli.config_load"),
    }
    for name, value in out.items():
        unit = LAYER_METRICS[name][0]
        if unit in ("count", "s"):
            out[name] = value / passes
    return out


def missing_metrics(tracer: Tracer) -> list[str]:
    """Metrics computed from a span whose wrapped name no longer exists."""
    return [metric for metric, (_, needs) in LAYER_METRICS.items()
            if tracer.missing_spans.intersection(needs)]
