"""Experiment runner: config round-trips, sweep shapes, CLI exit codes."""

import json

import pytest

from fdrelay.cli import main as cli_main
from fdrelay.errors import ConfigError
from fdrelay.experiment import (
    ExperimentConfig,
    run_outage_sweep,
    run_throughput_sweep,
    run_validation,
)
from fdrelay.precoding import Scheme

from helpers import make_params


def base_config(**overrides) -> ExperimentConfig:
    data = {
        "params": make_params(2, 2).to_dict(),
        "schemes": ["tzf"],
        "sweep": {"snr_db": [10.0]},
        "n_trials": 5000,
        "seed": 3,
        "outputs": ["monte_carlo", "analytic"],
        "output_path": "out.csv",
        "threshold_mode": "fixed",
        "threads": 2,
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


class TestConfig:
    def test_roundtrip(self):
        cfg = base_config(n_trials_optimal=777, json_mirror=True)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_file_roundtrip(self, tmp_path):
        cfg = base_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_file(path) == cfg

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            base_config(schemes=[])
        with pytest.raises(ConfigError):
            base_config(outputs=[])
        with pytest.raises(ConfigError):
            base_config(outputs=["bogus"])
        with pytest.raises(ConfigError):
            base_config(sweep={})
        with pytest.raises(ConfigError):
            base_config(sweep={"snr_db": [1.0], "alpha": {"points": 3}})
        with pytest.raises(ConfigError):
            base_config(threshold_mode="sometimes")
        with pytest.raises(ConfigError):
            base_config(unknown_field=1)

    def test_trials_for_optimal_scheme(self):
        cfg = base_config(n_trials=200_000)
        assert cfg.trials_for(Scheme.TZF) == 200_000
        assert cfg.trials_for(Scheme.OPTIMAL) == 10_000
        cfg = base_config(n_trials=200_000, n_trials_optimal=4000)
        assert cfg.trials_for(Scheme.OPTIMAL) == 4000


class TestOutageSweep:
    def test_single_point_single_kind(self):
        cfg = base_config(outputs=["analytic"])
        res = run_outage_sweep(cfg)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row["scheme"] == "tzf"
        assert row["analytic"] is not None and row["analytic"] > 0.0
        assert row["status"] == "ok"

    def test_cardinality_and_order(self):
        cfg = base_config(
            schemes=["tzf", "rzf", "mrc_mrt"],
            sweep={"snr_db": [0, 5, 10, 15, 20, 25, 30]},
            outputs=["monte_carlo", "analytic", "asymptotic"],
            n_trials=2000,
        )
        res = run_outage_sweep(cfg)
        assert len(res.rows) == 3 * 7 * 3
        per_scheme = [r for r in res.rows if r["scheme"] == "rzf"]
        assert len(per_scheme) == 21
        # scheme-major, then point, then kind
        kinds = [r["kind"] for r in res.rows[:3]]
        assert kinds == ["monte_carlo", "analytic", "asymptotic"]

    def test_infeasible_rows_kept(self):
        cfg = base_config(schemes=["tzf"], params=make_params(2, 1).to_dict())
        res = run_outage_sweep(cfg)
        assert all(r["status"] == "infeasible" for r in res.rows)
        assert len(res.rows) == 2

    def test_mc_agrees_with_analytic_column(self):
        cfg = base_config(
            schemes=["tzf", "rzf"],
            sweep={"snr_db": [10.0, 20.0]},
            n_trials=100_000,
        )
        res = run_outage_sweep(cfg)
        by_key = {}
        for row in res.rows:
            by_key.setdefault((row["scheme"], row["rho1_db"]), {}).update(
                {k: v for k, v in row.items() if v is not None}
            )
        for joined in by_key.values():
            assert abs(joined["p_out"] - joined["analytic"]) <= (
                3.0 * joined["std_err"] + 1e-3
            )

    def test_alpha_sweep_rejected(self):
        cfg = base_config(sweep={"alpha": {"points": 5}})
        with pytest.raises(ConfigError):
            run_outage_sweep(cfg)

    def test_threshold_sweep(self):
        cfg = base_config(sweep={"threshold_db": [-3.0, 0.0, 3.0]}, outputs=["analytic"])
        res = run_outage_sweep(cfg)
        vals = [r["analytic"] for r in res.rows]
        assert vals == sorted(vals)  # outage grows with the threshold


class TestThroughputSweep:
    def test_shape_and_summary(self):
        cfg = base_config(
            schemes=["tzf"],
            sweep={"alpha": {"points": 33}},
            n_trials=2000,
        )
        res = run_throughput_sweep(cfg)
        tzf_rows = [r for r in res.rows if r["scheme"] == "tzf"]
        assert len([r for r in tzf_rows if r["kind"] == "grid"]) == 33
        assert len([r for r in tzf_rows if r["kind"] == "summary"]) == 1
        # half-duplex baseline appended automatically
        hd_rows = [r for r in res.rows if r["scheme"] == "half_duplex"]
        assert len(hd_rows) == 34

    def test_hd_throughput_relation(self):
        cfg = base_config(
            schemes=["half_duplex"],
            sweep={"alpha": {"points": 9}},
            n_trials=4000,
        )
        res = run_throughput_sweep(cfg)
        for row in res.rows:
            if row["kind"] != "grid":
                continue
            expected = 0.5 * (1.0 - row["outage"]) * 1.0 * (1.0 - row["alpha"])
            assert row["throughput"] == pytest.approx(expected, rel=1e-12)

    def test_unsorted_and_one_point_grids(self):
        # The refinement bracket comes from the best point's neighbours in
        # the sorted grid, or halfway to 0 / 1 past an end point.
        for values in ([0.9, 0.1, 0.5], [0.3]):
            cfg = base_config(
                schemes=["half_duplex"], sweep={"alpha": {"values": values}},
                n_trials=2000,
            )
            rows = run_throughput_sweep(cfg).rows
            grid = [r for r in rows if r["kind"] == "grid"]
            (summary,) = [r for r in rows if r["kind"] == "summary"]
            assert [r["alpha"] for r in grid] == values
            best = max(grid, key=lambda r: (r["throughput"], -r["alpha"]))
            ordered = sorted(values)
            k = ordered.index(best["alpha"])
            lo = ordered[k - 1] if k > 0 else ordered[0] / 2.0
            hi = ordered[k + 1] if k + 1 < len(ordered) else (ordered[-1] + 1.0) / 2.0
            assert lo <= summary["alpha"] <= hi
            assert summary["throughput"] >= best["throughput"]


class TestOutputsAndCli:
    def test_csv_byte_identical_and_json_mirror(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = base_config(output_path=str(out), json_mirror=True, n_trials=3000)
        run_outage_sweep(cfg).write(cfg.output_path, json_mirror=True)
        first = out.read_bytes()
        run_outage_sweep(cfg).write(cfg.output_path, json_mirror=True)
        assert out.read_bytes() == first
        mirror = json.loads((tmp_path / "sweep.json").read_text())
        assert mirror["meta"]["config_sha256"] == cfg.config_hash()
        assert len(mirror["rows"]) == 2
        header = first.decode().splitlines()
        assert header[0].startswith("# tool: fdrelay")
        assert any("seed" in line for line in header[:3])

    def test_cli_outage_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "result.csv"
        cfg = base_config(output_path=str(out_path), n_trials=2000)
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["outage", "--config", str(cfg_path)]) == 0
        assert out_path.exists()

    def test_cli_seed_and_trials_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_a = tmp_path / "a.csv"
        cfg = base_config(output_path=str(out_a), n_trials=2000, outputs=["monte_carlo"])
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["outage", "--config", str(cfg_path), "--seed", "9"]) == 0
        text_a = out_a.read_text()
        assert cli_main([
            "outage", "--config", str(cfg_path), "--seed", "9",
            "--out", str(tmp_path / "b.csv"),
        ]) == 0
        text_b = (tmp_path / "b.csv").read_text()
        assert text_a.splitlines()[3:] == text_b.splitlines()[3:]

    def test_cli_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli_main(["outage", "--config", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["outage", "--config", str(bad)]) == 2

    def test_cli_throughput(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "thr.csv"
        cfg = base_config(
            schemes=["tzf"],
            sweep={"alpha": {"points": 9}},
            output_path=str(out_path),
            n_trials=2000,
            outputs=["monte_carlo"],
        )
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["throughput", "--config", str(cfg_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert sum("summary" in line for line in lines) == 2  # tzf + hd


class TestValidation:
    def test_report_contents_and_exit(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        cfg = base_config(output_path=str(out), n_trials=120_000)
        report = run_validation(cfg)
        names = {c.name for c in report.checks}
        assert "eq23_exponent_resolution" in names
        assert any(n.startswith("diversity_slope_") for n in names)
        assert report.passed
        # the survival-exponent check must state which coefficient matched
        eq23 = next(c for c in report.checks if c.name == "eq23_exponent_resolution")
        assert "matched=second_hop_coefficient" in eq23.detail
        report.to_json(out)
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == names
        # spec bound: the default validation run stays well under ten minutes
        assert report.elapsed_s < 600.0

    def test_cli_validate_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        cfg = base_config(output_path=str(out), n_trials=60_000)
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["validate", "--config", str(cfg_path)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_cli_validate_exit_one_on_failure(self, tmp_path, monkeypatch):
        from fdrelay import cli
        from fdrelay.experiment import ValidationCheck, ValidationReport

        failing = ValidationReport(
            checks=[ValidationCheck("synthetic", 1.0, 0.5, False, "forced")],
            elapsed_s=0.0,
        )
        monkeypatch.setattr(cli, "run_validation", lambda cfg: failing)
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        cfg = base_config(output_path=str(out), n_trials=100)
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["validate", "--config", str(cfg_path)]) == 1
        assert json.loads(out.read_text())["passed"] is False
