"""Experiment runner: config parsing, outage/throughput sweeps, validation.

Configs are single JSON documents (nested sections, dB-suffixed fields are in
dB, everything else linear).  Sweep outputs are CSV tables with a ``#``
header block recording the config hash, seed and tool version, plus an
optional JSON mirror; rows are emitted in a deterministic order so reruns
are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
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
    outage_mrc_case1,
    outage_mrc_case2,
    outage_rzf,
    outage_rzf_asymptotic,
    outage_tzf,
    outage_tzf_asymptotic,
)
from .precoding import Scheme, check_feasible
from .simkit import estimate_outage, search_alpha
from .specfun import (
    DEFAULT_QUADRATURE,
    integrate_semi_infinite,
    meijer_special_cdf,
    reg_gamma_p,
    reg_gamma_q,
    digamma,
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
        if self.threshold_mode not in _THRESHOLD_MODES:
            raise ConfigError(f"threshold_mode must be one of {_THRESHOLD_MODES}")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be positive")
        kind = self.sweep_kind()
        if kind == "alpha":
            grid = self.sweep["alpha"]
            has_points = isinstance(grid, dict) and (
                grid.get("points", 0) or grid.get("values")
            )
            if not has_points:
                raise ConfigError(
                    'alpha sweep needs {"alpha": {"points": N}} or {"values": [...]}'
                )
            if grid.get("values"):
                try:
                    alphas = [float(a) for a in grid["values"]]
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad alpha sweep values: {exc}") from exc
                if not all(0.0 < a < 1.0 for a in alphas):
                    raise ConfigError(
                        f"alpha sweep values must lie in (0, 1), got {grid['values']!r}"
                    )
            elif not (isinstance(grid["points"], int) and grid["points"] >= 1):
                raise ConfigError(
                    f"alpha sweep points must be an integer >= 1, got {grid['points']!r}"
                )
        elif not self.sweep[kind]:
            raise ConfigError(f"sweep list {kind!r} must be non-empty")

    def sweep_kind(self) -> str:
        kinds = [k for k in ("snr_db", "alpha", "threshold_db") if k in self.sweep]
        if len(kinds) != 1:
            raise ConfigError(
                "sweep must contain exactly one of snr_db / alpha / threshold_db"
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
        if grid.get("values"):
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
            params = SystemParams.from_dict(data["params"])
            schemes = tuple(Scheme(s) for s in data["schemes"])
            json_mirror = data.get("json_mirror", False)
            if not isinstance(json_mirror, bool):
                raise ConfigError(
                    f"json_mirror must be true or false, got {json_mirror!r}"
                )
            return cls(
                params=params,
                schemes=schemes,
                sweep=dict(data["sweep"]),
                n_trials=_integer("n_trials", data["n_trials"]),
                seed=_integer("seed", data["seed"]),
                outputs=tuple(data["outputs"]),
                output_path=str(data["output_path"]),
                threshold_mode=str(data.get("threshold_mode", "fixed")),
                n_trials_optimal=(
                    _integer("n_trials_optimal", data["n_trials_optimal"])
                    if data.get("n_trials_optimal") is not None
                    else None
                ),
                threads=_integer("threads", data.get("threads", 1)),
                json_mirror=json_mirror,
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
        # Where a result is written does not change what it is.
        data = self.to_dict()
        del data["output_path"]
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


def _analytic_outage(params: SystemParams, scheme: Scheme) -> float | None:
    q = OutageQuery(params, params.gamma_th)
    if scheme is Scheme.TZF:
        return outage_tzf(q)
    if scheme is Scheme.RZF:
        return outage_rzf(q)
    if scheme is Scheme.HALF_DUPLEX:
        return outage_hd(q)
    if scheme is Scheme.MRC_MRT:
        if params.m_t == 1:
            return outage_mrc_case1(q)
        if params.m_r == 1:
            return outage_mrc_case2(q)
        return None
    return None  # optimal scheme: simulation only


def _asymptotic_outage(params: SystemParams, scheme: Scheme) -> float | None:
    q = OutageQuery(params, params.gamma_th)
    if scheme is Scheme.TZF:
        return outage_tzf_asymptotic(q)
    if scheme is Scheme.RZF:
        return outage_rzf_asymptotic(q)
    return None


def _is_feasible(params: SystemParams, scheme: Scheme) -> bool:
    try:
        check_feasible(scheme, params.m_r, params.m_t)
    except InfeasibleSchemeError:
        return False
    return True


_OUTAGE_COLUMNS = [
    "scheme", "kind", "rho1_db", "gamma_th_db", "alpha", "m_r", "m_t",
    "p_out", "std_err", "analytic", "asymptotic", "status",
]


def run_outage_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Outage versus SNR (or threshold) for each scheme and output kind.

    Emits one row per (scheme, sweep point, output kind), in that nesting
    order; infeasible scheme/antenna combinations keep their rows with
    ``status = infeasible`` rather than being dropped.
    """
    kind_axis = cfg.sweep_kind()
    if kind_axis == "alpha":
        raise ConfigError("outage sweeps take snr_db or threshold_db, not alpha")
    points = list(cfg.sweep[kind_axis])

    rows = []
    stream = 0
    for scheme in cfg.schemes:
        for point in points:
            if kind_axis == "snr_db":
                p = replace(cfg.params, p_s=10.0 ** (float(point) / 10.0))
            else:
                p = replace(cfg.params, gamma_th=10.0 ** (float(point) / 10.0))
            base = {
                "scheme": scheme.value,
                "rho1_db": 10.0 * math.log10(p.p_s),
                "gamma_th_db": 10.0 * math.log10(p.gamma_th),
                "alpha": p.alpha,
                "m_r": p.m_r,
                "m_t": p.m_t,
            }
            feasible = _is_feasible(p, scheme)
            for out_kind in cfg.outputs:
                row = dict(base, kind=out_kind, status="ok")
                if not feasible:
                    row["status"] = "infeasible"
                elif out_kind == "monte_carlo":
                    est = estimate_outage(
                        p, scheme, cfg.trials_for(scheme), cfg.seed,
                        threads=cfg.threads, stream=stream,
                    )
                    row["p_out"] = est.p_hat
                    row["std_err"] = est.std_err
                elif out_kind == "analytic":
                    row["analytic"] = _analytic_outage(p, scheme)
                else:
                    row["asymptotic"] = _asymptotic_outage(p, scheme)
                rows.append(row)
            stream += 1
    return SweepResult(columns=list(_OUTAGE_COLUMNS), rows=rows, meta=_meta(cfg))


_THROUGHPUT_COLUMNS = [
    "scheme", "kind", "alpha", "rho1_db", "m_r", "m_t",
    "outage", "std_err", "throughput", "status",
]


def run_throughput_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Throughput versus harvesting split, with a per-scheme optimum summary.

    Each scheme gets one ``grid`` row per alpha point plus one ``summary``
    row holding (alpha*, R(alpha*)), both from ``simkit.search_alpha`` (grid
    plus golden-section refinement around the best grid point); the
    half-duplex baseline is always appended.
    """
    if cfg.sweep_kind() != "alpha":
        raise ConfigError("throughput sweeps need an alpha sweep")
    alphas = cfg.alpha_grid()

    schemes = list(cfg.schemes)
    if Scheme.HALF_DUPLEX not in schemes:
        schemes.append(Scheme.HALF_DUPLEX)

    rows = []
    rho1_db = 10.0 * math.log10(cfg.params.p_s)
    for scheme in schemes:
        base = {
            "scheme": scheme.value,
            "rho1_db": rho1_db,
            "m_r": cfg.params.m_r,
            "m_t": cfg.params.m_t,
        }
        if not _is_feasible(cfg.params, scheme):
            for alpha in alphas:
                rows.append(dict(base, kind="grid", alpha=alpha, status="infeasible"))
            rows.append(dict(base, kind="summary", status="infeasible"))
            continue
        found = search_alpha(
            cfg.params, scheme, alphas, cfg.trials_for(scheme), cfg.seed,
            threshold_mode=cfg.threshold_mode, threads=cfg.threads,
        )
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


def _fig1_params(m_r: int, m_t: int, p_s: float, alpha: float = 0.5) -> SystemParams:
    return SystemParams(
        m_r=m_r, m_t=m_t, p_s=p_s, d1=1.0, d2=1.0, tau=3.0, eta=1.0,
        alpha=alpha, sigma2_li=0.1, gamma_th=1.0, r_c=1.0,
    )


def run_validation(cfg: ExperimentConfig) -> ValidationReport:
    """End-to-end consistency suite: special functions, analytic-vs-Monte-
    Carlo agreement, the survival-exponent resolution, diversity slopes, and
    asymptotic ratios.  Check sizes scale with ``cfg.n_trials``.
    """
    t_start = time.time()
    checks: list[ValidationCheck] = []
    n_mc = min(cfg.n_trials, 400_000)

    def add(name, measured, bound, passed, detail=""):
        checks.append(ValidationCheck(name, float(measured), float(bound), bool(passed), detail))

    # --- special functions -------------------------------------------------
    grid_a = [0.5, 1.0, 2.0, 3.5, 7.0]
    grid_x = [0.0, 0.3, 1.0, 2.5, 10.0, 40.0]
    err = max(
        abs(reg_gamma_p(a, x) + reg_gamma_q(a, x) - 1.0) for a in grid_a for x in grid_x
    )
    add("specfun_complement_identity", err, 1e-12, err <= 1e-12)

    err = max(
        abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) for x in (0.5, 1.0, 2.0, 7.3)
    )
    add("specfun_digamma_recurrence", err, 1e-10, err <= 1e-10)

    err = 0.0
    for a in range(1, 6):
        closed = math.exp(-1.0) * sum(1.0 / math.factorial(k) for k in range(a))
        closed *= math.factorial(a - 1)
        got = integrate_semi_infinite(lambda u, a=a: u ** (a - 1) * math.exp(-u), 1.0)
        err = max(err, abs(got - closed))
    add("specfun_tail_integral_closed_forms", err, DEFAULT_QUADRATURE.abs_tol * 10,
        err <= DEFAULT_QUADRATURE.abs_tol * 10)

    err = max(
        abs(meijer_special_cdf(t, 1) - (1.0 - math.exp(-t))) for t in (0.0, 0.4, 2.0)
    )
    add("loop_cdf_degenerate_branch", err, 1e-14, err <= 1e-14)

    # --- Monte Carlo vs analytic CDFs -------------------------------------
    mc_cases = [
        ("tzf", Scheme.TZF, outage_tzf, 2, 2),
        ("rzf", Scheme.RZF, outage_rzf, 3, 1),
        ("mrc_case1", Scheme.MRC_MRT, outage_mrc_case1, 2, 1),
        ("mrc_case2", Scheme.MRC_MRT, outage_mrc_case2, 1, 2),
        ("hd", Scheme.HALF_DUPLEX, outage_hd, 2, 2),
    ]
    for name, scheme, fn, m_r, m_t in mc_cases:
        p = _fig1_params(m_r, m_t, 10.0)
        analytic = fn(OutageQuery(p, p.gamma_th))
        est = estimate_outage(p, scheme, n_mc, cfg.seed, threads=cfg.threads)
        bound = 3.0 * est.std_err + 1e-3
        gap = abs(analytic - est.p_hat)
        add(f"mc_vs_analytic_{name}", gap, bound, gap <= bound,
            f"analytic={analytic:.5f} mc={est.p_hat:.5f} (m_r={m_r}, m_t={m_t})")

    # --- survival-exponent resolution for the m_t == 1 MRC/MRT case -------
    p = _fig1_params(2, 1, 10.0)
    q = OutageQuery(p, p.gamma_th)
    primary = outage_mrc_case1(q)
    # d2 = sigma2_li^(-1/tau) makes c3 == c2: the CDF with c2 in the exponent
    alt = outage_mrc_case1(OutageQuery(replace(p, d2=p.sigma2_li ** (-1 / p.tau)), q.z))
    est = estimate_outage(p, Scheme.MRC_MRT, n_mc, cfg.seed + 1, threads=cfg.threads)
    bound = 3.0 * est.std_err + 1e-3
    gap_primary = abs(primary - est.p_hat)
    gap_alt = abs(alt - est.p_hat)
    matched = "second_hop_coefficient" if gap_primary <= gap_alt else "interference_coefficient"
    add("eq23_exponent_resolution", gap_primary, bound,
        gap_primary <= bound and gap_primary <= gap_alt,
        f"matched={matched}; primary gap {gap_primary:.2e} vs alternate {gap_alt:.2e}")

    # --- diversity slopes (analytic CDFs, 35 -> 45 dB) ---------------------
    def measured_slope(fn, m_r, m_t, log_corrected=False):
        vals = []
        for snr_db in (35.0, 45.0):
            p = _fig1_params(m_r, m_t, 10.0 ** (snr_db / 10.0))
            f_val = fn(OutageQuery(p, p.gamma_th))
            if log_corrected:
                f_val /= math.log(p.rho1)
            vals.append(f_val)
        return -(math.log10(vals[1]) - math.log10(vals[0]))

    slope_cases = [
        ("tzf_2_2", outage_tzf, 2, 2, diversity_order(Scheme.TZF, 2, 2), False),
        ("tzf_3_2", outage_tzf, 3, 2, diversity_order(Scheme.TZF, 3, 2), False),
        ("tzf_2_3_logmodel", outage_tzf, 2, 3, 2, True),
        ("rzf_2_2", outage_rzf, 2, 2, diversity_order(Scheme.RZF, 2, 2), False),
        ("rzf_3_1", outage_rzf, 3, 1, diversity_order(Scheme.RZF, 3, 1), False),
    ]
    for name, fn, m_r, m_t, order, logc in slope_cases:
        slope = measured_slope(fn, m_r, m_t, logc)
        gap = abs(slope - order)
        add(f"diversity_slope_{name}", slope, 0.3, gap <= 0.3,
            f"measured {slope:.3f} vs order {order}")

    # --- exact vs asymptotic ratios at 40 dB -------------------------------
    worst = 0.0
    for m_r, m_t in ((2, 2), (2, 3), (3, 2)):
        p = _fig1_params(m_r, m_t, 1e4)
        q = OutageQuery(p, p.gamma_th)
        worst = max(worst, abs(outage_tzf(q) / outage_tzf_asymptotic(q) - 1.0))
    add("asymptotic_ratio_tzf", worst, 0.1, worst <= 0.1)
    worst = 0.0
    for m_r, m_t in ((3, 1), (2, 2), (4, 2)):
        p = _fig1_params(m_r, m_t, 1e4)
        q = OutageQuery(p, p.gamma_th)
        worst = max(worst, abs(outage_rzf(q) / outage_rzf_asymptotic(q) - 1.0))
    add("asymptotic_ratio_rzf", worst, 0.1, worst <= 0.1)

    # --- qualitative Monte Carlo properties -------------------------------
    # Antennas chosen so the loop-interference floor of MRC/MRT sits far
    # above the diversity-order-2 decay of TZF at these SNRs.
    n_small = min(n_mc, 200_000)
    n_floor = max(n_mc, 500_000)
    p40 = _fig1_params(3, 3, 1e4)
    p50 = _fig1_params(3, 3, 1e5)
    mrc40 = estimate_outage(p40, Scheme.MRC_MRT, n_floor, cfg.seed, threads=cfg.threads)
    mrc50 = estimate_outage(p50, Scheme.MRC_MRT, n_floor, cfg.seed, threads=cfg.threads)
    tzf40 = estimate_outage(p40, Scheme.TZF, n_floor, cfg.seed, threads=cfg.threads)
    tzf50 = estimate_outage(p50, Scheme.TZF, n_floor, cfg.seed, threads=cfg.threads)
    floor_ok = (
        mrc50.p_hat >= mrc40.p_hat - 3.0 * mrc40.std_err
        and mrc40.p_hat > tzf40.p_hat
        and mrc50.p_hat > tzf50.p_hat
    )
    add("mrc_outage_floor", mrc50.p_hat, mrc40.p_hat, floor_ok,
        f"mrc 40dB={mrc40.p_hat:.3e} 50dB={mrc50.p_hat:.3e}; tzf 40dB={tzf40.p_hat:.3e}")

    p0 = _fig1_params(2, 2, 1.0)
    mrc0 = estimate_outage(p0, Scheme.MRC_MRT, n_small, cfg.seed, threads=cfg.threads)
    tzf0 = estimate_outage(p0, Scheme.TZF, n_small, cfg.seed, threads=cfg.threads)
    rzf0 = estimate_outage(p0, Scheme.RZF, n_small, cfg.seed, threads=cfg.threads)
    cross_ok = mrc0.p_hat <= tzf0.p_hat and mrc0.p_hat <= rzf0.p_hat
    add("low_snr_mrc_advantage", mrc0.p_hat, min(tzf0.p_hat, rzf0.p_hat), cross_ok,
        f"mrc={mrc0.p_hat:.4f} tzf={tzf0.p_hat:.4f} rzf={rzf0.p_hat:.4f} at 0 dB")

    # --- reproducibility across worker counts ------------------------------
    p = _fig1_params(2, 2, 10.0)
    estimates = [
        estimate_outage(p, Scheme.TZF, 50_000, cfg.seed, threads=w).p_hat
        for w in (1, 4, 16)
    ]
    spread = max(estimates) - min(estimates)
    add("reproducibility_across_workers", spread, 0.0, spread == 0.0,
        f"p_hat by workers: {estimates}")

    return ValidationReport(checks=checks, elapsed_s=time.time() - t_start)
