"""Experiment runner: config parsing, outage/throughput sweeps, validation.

Configs are single JSON documents (nested sections, dB-suffixed fields are in
dB, everything else linear).  Sweep outputs are CSV tables with a ``#``
header block recording the config hash, seed and tool version, plus an
optional JSON mirror; rows are emitted in a deterministic order so reruns
are byte-identical.

``_exact_outages`` alone maps a scheme and antenna pair to its analytic CDF.
``run_validation`` and the acceptance suite read one check table of
measurements, each with its own sizes and bounds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__
from .channel import SystemParams
from .errors import ConfigError, InfeasibleSchemeError
from .outage import (
    OutageQuery,
    diversity_order,
    outage_hd,
    outage_hd_batch,
    outage_mrc_mrt,
    outage_mrc_mrt_batch,
    outage_rzf,
    outage_rzf_asymptotic,
    outage_rzf_batch,
    outage_tzf,
    outage_tzf_asymptotic,
    outage_tzf_batch,
)
from .precoding import Scheme, check_feasible
from .simkit import OutageEstimate, _held_gains, _search_alpha_batch, estimate_outage
from .specfun import (
    digamma,
    integrate_semi_infinite,
    meijer_special_cdf,
    reg_gamma_p,
    reg_gamma_q,
)

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "ValidationCheck",
    "ValidationReport",
    "run_outage_sweep",
    "run_throughput_sweep",
    "run_validation",
]

# The benchmark's trace hooks (perfbench/fdbench/trace.py) wrap the scalar
# outage_tzf, outage_rzf and outage_hd imported above and these two names;
# the sweeps call the batched CDFs instead.  Delete the aliases once those
# hooks wrap outage_mrc_mrt.
outage_mrc_case1 = outage_mrc_case2 = outage_mrc_mrt

_OUTPUT_KINDS = ("monte_carlo", "analytic", "asymptotic")
_THRESHOLD_MODES = ("fixed", "rate_coupled")


def _integer(name: str, value) -> int:
    """``value`` as an int: ints, numpy ints and integral floats pass."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if not integral or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _numbers(name: str, values) -> list[float]:
    """``values`` as a non-empty list of finite floats; bools and strings fail."""
    if not isinstance(values, (list, tuple)) or not values or not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
        for v in values
    ):
        raise ConfigError(f"{name} must be a non-empty list of finite numbers, got {values!r}")
    return [float(v) for v in values]


def _from_db(kind: str, db: float) -> float:
    """Linear value 10^(db/10) of one sweep point; it must be a normal float."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not sys.float_info.min <= linear <= sys.float_info.max:
        raise ConfigError(f"sweep point {kind} = {db!r} is beyond the float range as a ratio")
    return linear


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: system, schemes, sweep axis, trial budget, outputs."""

    params: SystemParams
    schemes: tuple[Scheme, ...]
    sweep: dict
    n_trials: int
    seed: int
    outputs: tuple[str, ...]
    output_path: str
    threshold_mode: str = "fixed"
    n_trials_optimal: int | None = None
    threads: int = 1
    json_mirror: bool = False

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        if not self.outputs:
            raise ConfigError("at least one output kind is required")
        bad = [k for k in self.outputs if k not in _OUTPUT_KINDS]
        if bad:
            raise ConfigError(f"unknown output kinds {bad}; valid: {_OUTPUT_KINDS}")
        for name in ("schemes", "outputs"):
            entries = [getattr(e, "value", e) for e in getattr(self, name)]
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ConfigError(f"{name} lists {repeated} more than once")
        if self.threshold_mode not in _THRESHOLD_MODES:
            raise ConfigError(f"threshold_mode must be one of {_THRESHOLD_MODES}")
        # Checked here, not in from_dict, so that a config built in Python or
        # by dataclasses.replace (the CLI overrides) is held to the JSON rules.
        optional = () if self.n_trials_optimal is None else (("n_trials_optimal", 1),)
        for name, least in (("n_trials", 1), ("seed", 0), ("threads", 1), *optional):
            value = _integer(name, getattr(self, name))
            if value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value}")
            object.__setattr__(self, name, value)
        if not isinstance(self.json_mirror, bool):
            raise ConfigError(f"json_mirror must be true or false, got {self.json_mirror!r}")
        kind = self.sweep_kind()
        grid = self.sweep[kind]
        if kind != "alpha":
            for db in _numbers(f"sweep list {kind!r}", grid):
                _from_db(kind, db)
        elif not (isinstance(grid, dict) and len(grid) == 1
                  and set(grid) <= {"points", "values"}):
            raise ConfigError(
                'alpha sweep needs exactly one of {"points": N} or {"values": [...]}, '
                f"got {grid!r}"
            )
        elif "values" in grid:
            if not all(0.0 < a < 1.0 for a in _numbers("alpha sweep values", grid["values"])):
                raise ConfigError(
                    f"alpha sweep values must lie in (0, 1), got {grid['values']!r}"
                )
        elif _integer("alpha sweep points", grid["points"]) < 1:
            raise ConfigError(
                f"alpha sweep points must be an integer >= 1, got {grid['points']!r}"
            )

    def sweep_kind(self) -> str:
        kinds = [k for k in ("snr_db", "alpha", "threshold_db") if k in self.sweep]
        if len(kinds) != 1 or len(self.sweep) != 1:
            raise ConfigError(
                "sweep must contain exactly one of snr_db / alpha / threshold_db "
                f"and nothing else, got keys {list(self.sweep)}"
            )
        return kinds[0]

    def trials_for(self, scheme: Scheme) -> int:
        """Per-estimate trial count; the optimal scheme gets its own budget."""
        if scheme is Scheme.OPTIMAL:
            if self.n_trials_optimal is not None:
                return self.n_trials_optimal
            return min(self.n_trials, 10_000)
        return self.n_trials

    def alpha_grid(self) -> list[float]:
        grid = self.sweep["alpha"]
        if "values" in grid:
            return [float(a) for a in grid["values"]]
        pts = int(grid["points"])
        return [(i + 1) / (pts + 1) for i in range(pts)]

    def to_dict(self) -> dict:
        out = asdict(self)
        out["params"] = self.params.to_dict()
        out["schemes"] = [s.value for s in self.schemes]
        out["outputs"] = list(self.outputs)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        try:
            known = set(cls.__dataclass_fields__)
            unknown = set(data) - known
            if unknown:
                raise ConfigError(f"unknown config fields: {sorted(unknown)}")
            for name in ("schemes", "outputs"):
                if not isinstance(data[name], (list, tuple)):
                    raise ConfigError(f"{name} must be a list, got {data[name]!r}")
            if not isinstance(data["output_path"], str):
                raise ConfigError(
                    f"output_path must be a string, got {data['output_path']!r}"
                )
            params = SystemParams.from_dict(data["params"])
            schemes = tuple(Scheme(s) for s in data["schemes"])
            return cls(
                params=params,
                schemes=schemes,
                sweep=dict(data["sweep"]),
                n_trials=data["n_trials"],
                seed=data["seed"],
                outputs=tuple(data["outputs"]),
                output_path=data["output_path"],
                threshold_mode=str(data.get("threshold_mode", "fixed")),
                n_trials_optimal=data.get("n_trials_optimal"),
                threads=data.get("threads", 1),
                json_mirror=data.get("json_mirror", False),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def config_hash(self) -> str:
        # Neither the output path nor the thread count changes a result.
        data = self.to_dict()
        del data["output_path"], data["threads"]
        canon = json.dumps(data, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


@dataclass
class SweepResult:
    """Ordered tabular sweep output plus provenance metadata."""

    columns: list[str]
    rows: list[dict]
    meta: dict = field(default_factory=dict)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        for key, val in self.meta.items():
            buf.write(f"# {key}: {val}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(row.get(col)) for col in self.columns])
        return buf.getvalue()

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv_text())

    def to_json(self, path: str | Path) -> None:
        doc = {"meta": self.meta, "columns": self.columns, "rows": self.rows}
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def write(self, path: str | Path, json_mirror: bool = False) -> None:
        path = Path(path)
        if path.suffix == ".json":
            self.to_json(path)
            return
        self.to_csv(path)
        if json_mirror:
            self.to_json(path.with_suffix(".json"))


def _meta(cfg: ExperimentConfig) -> dict:
    return {
        "tool": f"fdrelay v{__version__}",
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
    }


def _is_feasible(scheme: Scheme, m_r: int, m_t: int) -> bool:
    try:
        check_feasible(scheme, m_r, m_t)
    except InfeasibleSchemeError:
        return False
    return True


def _exact_outages(
    scheme: Scheme, points: list[SystemParams]
) -> tuple[str, list[float]] | None:
    """(label, analytic outage at each of ``points``) of ``scheme``, from one
    batched CDF call; the points share one antenna pair.  None when the pair
    is infeasible or the scheme (optimal) has no analytic CDF.
    """
    if not _is_feasible(scheme, points[0].m_r, points[0].m_t):
        return None
    exact = {
        Scheme.TZF: ("tzf", outage_tzf_batch),
        Scheme.RZF: ("rzf", outage_rzf_batch),
        Scheme.MRC_MRT: ("mrc_mrt", outage_mrc_mrt_batch),
        Scheme.HALF_DUPLEX: ("hd", outage_hd_batch),
    }.get(scheme)
    if exact is None:
        return None
    label, cdf = exact
    return label, [float(v) for v in cdf([OutageQuery(p, p.gamma_th) for p in points])]


def _asymptotic_outage(params: SystemParams, scheme: Scheme) -> float | None:
    q = OutageQuery(params, params.gamma_th)
    if scheme is Scheme.TZF:
        return outage_tzf_asymptotic(q)
    if scheme is Scheme.RZF:
        return outage_rzf_asymptotic(q)
    return None


# The schemes whose outage estimates share one draw of each chunk.  Two per
# group: one draw for all four closed-form schemes holds 80 B per trial and
# raised the outage_curves benchmark's peak RSS from 73.8 MB to 84.5 MB
# (+14%), where these pairs read 78.4 MB (+6%).  MRC/MRT and transmit ZF
# also share their combiner gain, so the largest group holds 48 B per trial,
# where transmit ZF with receive ZF, sharing only S, would hold 56 B.
_DRAW_GROUPS = (
    (Scheme.MRC_MRT, Scheme.TZF),
    (Scheme.RZF, Scheme.HALF_DUPLEX),
    (Scheme.OPTIMAL,),
)


def _paired_estimates(
    points: list[SystemParams], trials: dict[Scheme, int], seed: int, threads: int
) -> dict[Scheme, list[OutageEstimate]]:
    """``estimate_outage`` at each of ``points`` of each scheme of ``trials``
    that is feasible there, with its trial count; the points differ only in
    what no draw depends on (not in m_r, m_t or sigma2_li).

    The schemes are split into ``_DRAW_GROUPS``.  Each group's gains of
    trials 0 .. max count - 1 of ``seed`` are built once, from one draw of
    each chunk, on ``threads`` workers (``simkit._held_gains``: 48 B per
    trial for MRC/MRT with transmit ZF, 40 B for receive ZF with half
    duplex), and every point is scored on them, so each estimate is the one
    ``estimate_outage`` would draw itself.  The points are scored on the
    calling thread: a closed-form scheme's scoring is cheap next to drawing,
    so a pool per estimate cost more than it saved, and the optimal scheme's
    pruned search gained little from one (about 15% at 4x4 and nothing at
    2x2, with two threads).  A group's gains are dropped before the next
    group's are built.
    """
    m_r, m_t = points[0].m_r, points[0].m_t
    estimates: dict[Scheme, list[OutageEstimate]] = {}
    for group in _DRAW_GROUPS:
        members = [s for s in group if s in trials and _is_feasible(s, m_r, m_t)]
        if not members:
            continue
        n_held = max(trials[s] for s in members)
        held = _held_gains(points[0], members, n_held, seed, threads=threads)
        for scheme, gains in zip(members, held):
            estimates[scheme] = [
                estimate_outage(p, scheme, trials[scheme], seed, gains=gains)
                for p in points
            ]
        # Freed here: rebinding them would keep this group's gains alive
        # while the next group's are built.
        del held, gains
    return estimates


_OUTAGE_COLUMNS = [
    "scheme", "kind", "rho1_db", "gamma_th_db", "alpha", "m_r", "m_t",
    "p_out", "std_err", "analytic", "asymptotic", "status",
]


def run_outage_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Outage versus SNR (or threshold) for each scheme and output kind.

    Emits one row per (scheme, sweep point, output kind), in that nesting
    order; infeasible scheme/antenna combinations keep their rows with
    ``status = infeasible`` rather than being dropped.  The sweep moves only
    p_s or gamma_th, on which no draw depends, so the feasible schemes'
    Monte Carlo draws each chunk once per draw group, reduces it once per
    scheme and scores every point on that (``_paired_estimates``); each row
    is still the plain ``estimate_outage`` at its point.  Likewise each
    feasible scheme's analytic CDF is one batched call over every point
    (``_exact_outages``).
    """
    kind_axis = cfg.sweep_kind()
    if kind_axis == "alpha":
        raise ConfigError("outage sweeps take snr_db or threshold_db, not alpha")
    moved = "p_s" if kind_axis == "snr_db" else "gamma_th"
    swept = [replace(cfg.params, **{moved: _from_db(kind_axis, float(point))})
             for point in cfg.sweep[kind_axis]]

    estimates = {}
    if "monte_carlo" in cfg.outputs:
        estimates = _paired_estimates(
            swept, {s: cfg.trials_for(s) for s in cfg.schemes}, cfg.seed, cfg.threads
        )
    rows = []
    for scheme in cfg.schemes:
        feasible = _is_feasible(scheme, cfg.params.m_r, cfg.params.m_t)
        exact = None
        if feasible and "analytic" in cfg.outputs:
            exact = _exact_outages(scheme, swept)
        for i, p in enumerate(swept):
            base = {
                "scheme": scheme.value,
                "rho1_db": 10.0 * math.log10(p.p_s),
                "gamma_th_db": 10.0 * math.log10(p.gamma_th),
                "alpha": p.alpha,
                "m_r": p.m_r,
                "m_t": p.m_t,
            }
            for out_kind in cfg.outputs:
                row = dict(base, kind=out_kind, status="ok")
                if not feasible:
                    row["status"] = "infeasible"
                elif out_kind == "monte_carlo":
                    row["p_out"] = estimates[scheme][i].p_hat
                    row["std_err"] = estimates[scheme][i].std_err
                elif out_kind == "analytic":
                    row["analytic"] = exact[1][i] if exact else None
                else:
                    row["asymptotic"] = _asymptotic_outage(p, scheme)
                rows.append(row)
    return SweepResult(columns=list(_OUTAGE_COLUMNS), rows=rows, meta=_meta(cfg))


_THROUGHPUT_COLUMNS = [
    "scheme", "kind", "alpha", "rho1_db", "m_r", "m_t",
    "outage", "std_err", "throughput", "status",
]


def run_throughput_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Throughput versus harvesting split, with a per-scheme optimum summary.

    Each scheme gets one ``grid`` row per alpha point plus one ``summary``
    row holding (alpha*, R(alpha*)), both from its alpha search (grid plus
    golden-section refinement around the best grid point); the half-duplex
    baseline is always appended.  The feasible schemes' searches run in one
    ``simkit._search_alpha_batch`` call, which draws its channels once and
    scores every probe of every scheme on them.
    """
    if cfg.sweep_kind() != "alpha":
        raise ConfigError("throughput sweeps need an alpha sweep")
    alphas = cfg.alpha_grid()

    schemes = list(cfg.schemes)
    if Scheme.HALF_DUPLEX not in schemes:
        schemes.append(Scheme.HALF_DUPLEX)

    feasible = [s for s in schemes if _is_feasible(s, cfg.params.m_r, cfg.params.m_t)]
    searches = dict(zip(feasible, _search_alpha_batch(
        cfg.params, feasible, alphas, [cfg.trials_for(s) for s in feasible], cfg.seed,
        threshold_mode=cfg.threshold_mode, threads=cfg.threads,
    )))

    rows = []
    rho1_db = 10.0 * math.log10(cfg.params.p_s)
    for scheme in schemes:
        base = {
            "scheme": scheme.value,
            "rho1_db": rho1_db,
            "m_r": cfg.params.m_r,
            "m_t": cfg.params.m_t,
        }
        found = searches.get(scheme)
        if found is None:
            for alpha in alphas:
                rows.append(dict(base, kind="grid", alpha=alpha, status="infeasible"))
            rows.append(dict(base, kind="summary", status="infeasible"))
            continue
        for point in found.grid:
            rows.append(dict(
                base, kind="grid", alpha=point.alpha, outage=point.outage,
                std_err=point.std_err, throughput=point.throughput, status="ok",
            ))
        opt = found.best
        rows.append(dict(
            base, kind="summary", alpha=opt.alpha, outage=opt.outage,
            throughput=opt.throughput, status="ok",
        ))
    return SweepResult(columns=list(_THROUGHPUT_COLUMNS), rows=rows, meta=_meta(cfg))


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    measured: float
    bound: float
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[ValidationCheck]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _fig1_params(m_r: int, m_t: int, p_s: float) -> SystemParams:
    return SystemParams(
        m_r=m_r, m_t=m_t, p_s=p_s, d1=1.0, d2=1.0, tau=3.0, eta=1.0,
        alpha=0.5, sigma2_li=0.1, gamma_th=1.0, r_c=1.0,
    )


# --- check table: measurements for run_validation and the acceptance suite ---


def _specfun_errors(gamma_a, gamma_x, loop_t) -> tuple[float, float, float, float]:
    """Worst errors of P(a, x) + Q(a, x) = 1 on ``gamma_a`` x ``gamma_x``, the
    digamma recurrence, the tail quadrature of u^(a-1) e^-u over [1, inf)
    against its closed form (a = 1..5) and the m_r = 1 loop CDF on ``loop_t``.
    """
    def tail_error(a: int) -> float:
        got = integrate_semi_infinite(lambda u: u ** (a - 1) * math.exp(-u), 1.0)
        want = math.factorial(a - 1) * math.exp(-1.0) * sum(
            1.0 / math.factorial(k) for k in range(a)
        )
        return abs(got - want)

    return (
        max(abs(reg_gamma_p(a, x) + reg_gamma_q(a, x) - 1.0) for a in gamma_a for x in gamma_x),
        max(abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) for x in (0.5, 1.0, 2.0, 7.3)),
        max(tail_error(a) for a in range(1, 6)),
        max(abs(meijer_special_cdf(t, 1) - (1.0 - math.exp(-t))) for t in loop_t),
    )


def _mc_vs_exact(pairs, snrs_db, n_trials: int, seed: int, threads: int) -> list[tuple]:
    """(label, m_r, m_t, snr_db, analytic, Monte Carlo estimate) for every
    (scheme, pair) with an analytic CDF at every SNR, in that nesting order;
    every estimate scores the same trials of ``seed``.
    """
    out: list[tuple] = []
    for m_r, m_t in pairs:
        swept = [_fig1_params(m_r, m_t, 10.0 ** (snr_db / 10.0)) for snr_db in snrs_db]
        exact = {s: found for s in Scheme if (found := _exact_outages(s, swept)) is not None}
        estimates = _paired_estimates(swept, dict.fromkeys(exact, n_trials), seed, threads)
        for scheme, (label, analytic) in exact.items():
            out.extend((label, m_r, m_t, snr_db, value, est)
                       for snr_db, value, est in zip(snrs_db, analytic, estimates[scheme]))
    return out


def _asymptotic_ratios(cases) -> list[float]:
    """Exact over asymptotic outage at 40 dB for each ZF (scheme, m_r, m_t)."""
    ratios = []
    for scheme, m_r, m_t in cases:
        p = _fig1_params(m_r, m_t, 1e4)
        ratios.append(_exact_outages(scheme, [p])[1][0] / _asymptotic_outage(p, scheme))
    return ratios


def _diversity_slopes(cases) -> list[tuple[float, int]]:
    """(outage decades lost from 35 to 45 dB, diversity order) for each ZF
    (scheme, m_r, m_t).  Balanced TZF (m_t == m_r + 1) decays as
    rho^-m_r log(rho), so its outage is divided by log(rho) first.
    """
    slopes = []
    for scheme, m_r, m_t in cases:
        balanced = scheme is Scheme.TZF and m_t == m_r + 1
        rhos = (10.0**3.5, 10.0**4.5)
        _, values = _exact_outages(scheme, [_fig1_params(m_r, m_t, rho) for rho in rhos])
        logs = [math.log10(value / math.log(rho) if balanced else value)
                for rho, value in zip(rhos, values)]
        slopes.append((logs[0] - logs[1], diversity_order(scheme, m_r, m_t)))
    return slopes


def _mrc_floor(n_trials: int, seed: int, threads: int) -> list[OutageEstimate]:
    """MRC/MRT then TZF outage of a 3x3 relay at 40 and 50 dB, where the
    MRC/MRT loop-interference floor sits far above the TZF decay."""
    schemes = (Scheme.MRC_MRT, Scheme.TZF)
    swept = [_fig1_params(3, 3, p_s) for p_s in (1e4, 1e5)]
    estimates = _paired_estimates(swept, dict.fromkeys(schemes, n_trials), seed, threads)
    return [est for scheme in schemes for est in estimates[scheme]]


def _low_snr_outages(n_trials: int, seed: int, threads: int) -> list[OutageEstimate]:
    """MRC/MRT, TZF and RZF outage of a 2x2 relay at 0 dB."""
    schemes = (Scheme.MRC_MRT, Scheme.TZF, Scheme.RZF)
    estimates = _paired_estimates(
        [_fig1_params(2, 2, 1.0)], dict.fromkeys(schemes, n_trials), seed, threads
    )
    return [estimates[scheme][0] for scheme in schemes]


def run_validation(cfg: ExperimentConfig) -> ValidationReport:
    """End-to-end consistency suite: the check table at sizes scaled by
    ``cfg.n_trials``, the survival-exponent resolution, and reproducibility
    across worker counts.
    """
    t_start = time.time()
    checks: list[ValidationCheck] = []
    n_mc = min(cfg.n_trials, 400_000)

    def add(name, measured, bound, passed, detail=""):
        checks.append(ValidationCheck(name, float(measured), float(bound), bool(passed), detail))

    complement, recurrence, tail, loop = _specfun_errors(
        (0.5, 1.0, 2.0, 3.5, 7.0), (0.0, 0.3, 1.0, 2.5, 10.0, 40.0), (0.0, 0.4, 2.0)
    )
    add("specfun_complement_identity", complement, 1e-12, complement <= 1e-12)
    add("specfun_digamma_recurrence", recurrence, 1e-10, recurrence <= 1e-10)
    add("specfun_tail_integral_closed_forms", tail, 1e-9, tail <= 1e-9)
    add("loop_cdf_degenerate_branch", loop, 1e-14, loop <= 1e-14)

    # --- Monte Carlo vs analytic CDFs: each CDF's worst comparison ---------
    comparisons = _mc_vs_exact([(2, 2), (2, 1), (1, 2)], (10.0,), n_mc, cfg.seed, cfg.threads)
    worst: dict[str, tuple] = {}
    for label, m_r, m_t, _, analytic, est in comparisons:
        gap, bound = abs(analytic - est.p_hat), 3.0 * est.std_err + 1e-3
        if label not in worst or gap / bound > worst[label][0] / worst[label][1]:
            worst[label] = (gap, bound, f"analytic={analytic:.5f} mc={est.p_hat:.5f} "
                                        f"(m_r={m_r}, m_t={m_t})")
    for label in ("tzf", "rzf", "mrc_mrt", "hd"):
        gap, bound, detail = worst[label]
        add(f"mc_vs_analytic_{label}", gap, bound, gap <= bound, detail)

    # --- survival-exponent resolution for the m_t == 1 MRC/MRT comparison --
    _, m_r, m_t, _, primary, est = next(
        c for c in comparisons if c[0] == "mrc_mrt" and c[2] == 1
    )
    p = _fig1_params(m_r, m_t, 10.0)
    # d2 = sigma2_li^(-1/tau) makes c3 == c2: the CDF with c2 in the exponent
    alt = outage_mrc_mrt(OutageQuery(replace(p, d2=p.sigma2_li ** (-1 / p.tau)), p.gamma_th))
    bound = 3.0 * est.std_err + 1e-3
    gap_primary = abs(primary - est.p_hat)
    gap_alt = abs(alt - est.p_hat)
    matched = "second_hop_coefficient" if gap_primary <= gap_alt else "interference_coefficient"
    add("eq23_exponent_resolution", gap_primary, bound,
        gap_primary <= bound and gap_primary <= gap_alt,
        f"matched={matched}; primary gap {gap_primary:.2e} vs alternate {gap_alt:.2e}")

    # --- diversity slopes and exact vs asymptotic ratios -------------------
    slope_cases = {"tzf_2_2": (Scheme.TZF, 2, 2), "tzf_3_2": (Scheme.TZF, 3, 2),
                   "tzf_2_3_logmodel": (Scheme.TZF, 2, 3),
                   "rzf_2_2": (Scheme.RZF, 2, 2), "rzf_3_1": (Scheme.RZF, 3, 1)}
    for name, (slope, order) in zip(slope_cases, _diversity_slopes(slope_cases.values())):
        add(f"diversity_slope_{name}", slope, 0.3, abs(slope - order) <= 0.3,
            f"measured {slope:.3f} vs order {order}")
    for scheme, pairs in ((Scheme.TZF, ((2, 2), (2, 3), (3, 2))),
                          (Scheme.RZF, ((3, 1), (2, 2), (4, 2)))):
        ratios = _asymptotic_ratios([(scheme, m_r, m_t) for m_r, m_t in pairs])
        err = max(abs(r - 1.0) for r in ratios)
        add(f"asymptotic_ratio_{scheme.value}", err, 0.1, err <= 0.1)

    # --- qualitative Monte Carlo properties -------------------------------
    mrc40, mrc50, tzf40, tzf50 = _mrc_floor(max(n_mc, 500_000), cfg.seed, cfg.threads)
    floor_ok = (
        mrc50.p_hat >= mrc40.p_hat - 3.0 * mrc40.std_err
        and mrc40.p_hat > tzf40.p_hat
        and mrc50.p_hat > tzf50.p_hat
    )
    add("mrc_outage_floor", mrc50.p_hat, mrc40.p_hat, floor_ok,
        f"mrc 40dB={mrc40.p_hat:.3e} 50dB={mrc50.p_hat:.3e}; tzf 40dB={tzf40.p_hat:.3e}")

    mrc0, tzf0, rzf0 = _low_snr_outages(min(n_mc, 200_000), cfg.seed, cfg.threads)
    cross_ok = mrc0.p_hat <= tzf0.p_hat and mrc0.p_hat <= rzf0.p_hat
    add("low_snr_mrc_advantage", mrc0.p_hat, min(tzf0.p_hat, rzf0.p_hat), cross_ok,
        f"mrc={mrc0.p_hat:.4f} tzf={tzf0.p_hat:.4f} rzf={rzf0.p_hat:.4f} at 0 dB")

    # --- reproducibility across worker counts ------------------------------
    p = _fig1_params(2, 2, 10.0)
    estimates = [estimate_outage(p, Scheme.TZF, 50_000, cfg.seed, threads=w).p_hat
                 for w in (1, 4, 16)]
    spread = max(estimates) - min(estimates)
    add("reproducibility_across_workers", spread, 0.0, spread == 0.0,
        f"p_hat by workers: {estimates}")

    return ValidationReport(checks=checks, elapsed_s=time.time() - t_start)
