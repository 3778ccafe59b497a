"""Experiment runner: config round-trips, sweep shapes, CLI exit codes."""

import csv
import itertools
import json
import math
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from fdrelay import experiment, simkit
from fdrelay.cli import main as cli_main
from fdrelay.errors import ConfigError
from fdrelay.experiment import (
    ExperimentConfig,
    _fig1_params,
    _is_feasible,
    _mc_vs_exact,
    _mrc_floor,
    _paired_estimates,
    run_outage_sweep,
    run_throughput_sweep,
    run_validation,
)
from fdrelay.precoding import Scheme
from fdrelay.simkit import _search_alpha_batch, estimate_outage

from helpers import make_params


# Sweep axes that must fail at config load, not inside a sweep.
BAD_SWEEPS = (
    {"snr_db": 5}, {"snr_db": ["abc"]}, {"snr_db": [None]},
    {"snr_db": [float("inf")]}, {"threshold_db": [True]},
    {"snr_db": [1.0], "extra": 3}, {"alpha": {"points": 3}, "extra": 3},
    {"alpha": {"values": [0.3], "points": 7}}, {"alpha": {"points": 7, "step": 2}},
    # dB points whose linear value leaves the float range
    {"snr_db": [4000]}, {"snr_db": [-4000]},
    {"threshold_db": [4000]}, {"threshold_db": [-4000]},
)


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
        for grid in ({"values": [0.5, 1.5]}, {"values": [0.0, 0.5]},
                     {"values": [float("nan")]}, {"points": 2.5}, {"points": -3},
                     {"points": True}):
            with pytest.raises(ConfigError):
                base_config(sweep={"alpha": grid})
        for sweep in BAD_SWEEPS:
            with pytest.raises(ConfigError):
                base_config(sweep=sweep)
        for n in (0, -5):
            with pytest.raises(ConfigError, match="n_trials_optimal"):
                base_config(n_trials_optimal=n)
        with pytest.raises(ConfigError, match="seed"):
            base_config(seed=-1)

    def test_integer_and_bool_fields_are_strict(self):
        for name, value in (("n_trials", 2000.7), ("seed", 1.9), ("threads", 1.5),
                            ("n_trials_optimal", 500.5), ("seed", "3"),
                            ("n_trials", float("inf")), ("threads", True),
                            ("json_mirror", "false"), ("json_mirror", 1)):
            with pytest.raises(ConfigError, match=name):
                base_config(**{name: value})
        cfg = base_config(n_trials=2000.0, seed=np.int64(3), threads=np.int32(2),
                          n_trials_optimal=500.0, json_mirror=False)
        assert (cfg.n_trials, cfg.seed, cfg.threads, cfg.n_trials_optimal) == (2000, 3, 2, 500)
        assert all(type(v) is int for v in (cfg.n_trials, cfg.seed, cfg.threads))
        # The same rules hold for a config built in Python and for the
        # dataclasses.replace the CLI overrides go through.
        given = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        for name, value in (("n_trials", 2.5), ("seed", 1.5), ("threads", 2.5),
                            ("threads", True), ("n_trials_optimal", 500.5),
                            ("json_mirror", 1)):
            with pytest.raises(ConfigError, match=name):
                ExperimentConfig(**{**given, name: value})
            with pytest.raises(ConfigError, match=name):
                replace(cfg, **{name: value})
        again = replace(cfg, n_trials=3000.0, seed=np.int64(4), threads=3.0)
        assert (again.n_trials, again.seed, again.threads) == (3000, 4, 3)
        assert all(type(v) is int for v in (again.n_trials, again.seed, again.threads))
        assert ExperimentConfig(**{**given, "n_trials_optimal": None}).n_trials_optimal is None

    def test_repeated_schemes_or_outputs_are_rejected(self, tmp_path):
        cfg = base_config(schemes=["tzf", "rzf"])
        for name, value in (("schemes", ["tzf", "rzf", "tzf"]),
                            ("outputs", ["analytic", "monte_carlo", "analytic"])):
            with pytest.raises(ConfigError, match=name):
                base_config(**{name: value})
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps({**cfg.to_dict(), name: value}))
            assert cli_main(["outage", "--config", str(bad)]) == 2
        with pytest.raises(ConfigError, match="schemes"):
            replace(cfg, schemes=(Scheme.TZF, Scheme.TZF))
        with pytest.raises(ConfigError, match="outputs"):
            replace(cfg, outputs=("monte_carlo", "monte_carlo"))

    @pytest.mark.parametrize("name, value", [
        ("output_path", None), ("output_path", 5),
        ("schemes", "tzf"), ("outputs", "monte_carlo"),
    ])
    def test_wrongly_typed_path_or_list_is_rejected(self, name, value):
        # Not the path "None", and not the schemes "t", "z", "f".
        with pytest.raises(ConfigError, match=f"{name} must be a"):
            base_config(**{name: value})

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

    def test_dense_threshold_sweep_mc_never_falls(self):
        # Thresholds 0.05 dB apart move the outage by less than its standard
        # error; scored on the same trials, no point may still fall below
        # the one before it.
        cfg = base_config(
            schemes=["optimal", "tzf", "rzf", "mrc_mrt", "half_duplex"],
            sweep={"threshold_db": [0.05 * k for k in range(7)]},
            n_trials=20_000, outputs=["monte_carlo"],
        )
        rows = run_outage_sweep(cfg).rows
        for scheme in cfg.schemes:
            p_out = [r["p_out"] for r in rows if r["scheme"] == scheme.value]
            assert len(p_out) == 7 and p_out == sorted(p_out), scheme

    def test_each_mc_row_is_the_plain_estimate(self):
        # The sweep scores every point on one build of each scheme's gains;
        # each row must still be the estimate drawn on its own.  At (2, 2)
        # transmit ZF is feasible and the optimal search holds both seeds;
        # at (2, 1) transmit ZF is infeasible, and the optimal scheme has its
        # own count.
        cases = [
            (2, 2, ["optimal", "tzf", "mrc_mrt", "half_duplex"], "snr_db", [0.0, 10.0],
             {"n_trials": 3000}),
        ]
        cases += [
            (2, 1, ["optimal", "tzf", "rzf", "mrc_mrt", "half_duplex"], axis, values,
             {"n_trials": 9000, "n_trials_optimal": 2000})
            for axis, values in (("snr_db", [0.0, 10.0]), ("threshold_db", [-3.0, 0.0, 3.0]))
        ]
        for m_r, m_t, schemes, axis, values, trials in cases:
            cfg = base_config(
                params=make_params(m_r, m_t).to_dict(), schemes=schemes,
                sweep={axis: values}, outputs=["monte_carlo"], **trials,
            )
            rows = run_outage_sweep(cfg).rows
            want = []
            for scheme in cfg.schemes:
                for db in values:
                    if scheme is Scheme.TZF and m_t < 2:
                        want.append((None, None, "infeasible"))
                        continue
                    linear = 10.0 ** (db / 10.0)
                    p = replace(cfg.params, **{
                        "p_s" if axis == "snr_db" else "gamma_th": linear})
                    est = estimate_outage(p, scheme, cfg.trials_for(scheme), cfg.seed)
                    want.append((est.p_hat, est.std_err, "ok"))
            assert [(r.get("p_out"), r.get("std_err"), r["status"]) for r in rows] == want

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("axis", ["snr_db", "threshold_db"])
    def test_each_chunk_is_drawn_once_per_scheme(self, monkeypatch, threads, axis):
        # However many points a sweep has, each draw group with a feasible
        # member draws the chunks of its trial count once: MRC/MRT (transmit
        # ZF is infeasible at (2, 1)) and receive ZF with half duplex read
        # chunks 0 and 1 of their 9000 trials, the optimal scheme chunk 0 of
        # its 2000.  Analytic lines draw nothing.
        draws = Counter()
        original = simkit._chunk_channels

        def counted(params, seed, chunk_idx):
            draws[chunk_idx] += 1
            return original(params, seed, chunk_idx)

        monkeypatch.setattr(simkit, "_chunk_channels", counted)
        for values in ([6.0], [-3.0, 0.0, 3.0]):
            for outputs, want in ((["monte_carlo", "analytic"], {0: 3, 1: 2}),
                                  (["analytic", "asymptotic"], {})):
                draws.clear()
                run_outage_sweep(base_config(
                    params=make_params(2, 1).to_dict(),
                    schemes=["optimal", "tzf", "rzf", "mrc_mrt", "half_duplex"],
                    sweep={axis: values}, n_trials=9000, n_trials_optimal=2000,
                    outputs=outputs, threads=threads,
                ))
                assert draws == want


class TestPairedEstimates:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("m_r, m_t", [(1, 2), (2, 1), (2, 2), (3, 3)])
    def test_every_feasible_subset_gives_the_plain_estimates(self, m_r, m_t, threads):
        # Whichever members a draw group holds, each scheme's estimates are
        # the ones it draws alone; infeasible schemes get none.
        closed_form = (Scheme.TZF, Scheme.RZF, Scheme.MRC_MRT, Scheme.HALF_DUPLEX)
        points = [_fig1_params(m_r, m_t, p_s) for p_s in (1.0, 10.0)]
        feasible = [s for s in closed_form if _is_feasible(s, m_r, m_t)]
        plain = {s: [estimate_outage(p, s, 9000, 6) for p in points] for s in feasible}
        for k in range(1, len(feasible) + 1):
            for subset in itertools.combinations(feasible, k):
                got = _paired_estimates(points, dict.fromkeys(subset, 9000), 6, threads)
                assert got == {s: plain[s] for s in subset}, subset
        every = _paired_estimates(points, dict.fromkeys(closed_form, 9000), 6, threads)
        assert every == plain

    def test_each_groups_gains_are_freed_before_the_next_are_built(self, monkeypatch):
        # Only one group's gains may be held at a time: that is what bounds
        # an outage sweep's memory.
        held_before = []
        original = experiment._held_gains

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in held_before)
            held = original(*args, **kwargs)
            held_before.extend(weakref.ref(chunk[0]) for member in held for chunk in member)
            return held

        monkeypatch.setattr(experiment, "_held_gains", tracked)
        closed_form = (Scheme.TZF, Scheme.RZF, Scheme.MRC_MRT, Scheme.HALF_DUPLEX)
        _paired_estimates([_fig1_params(2, 2, 10.0)], dict.fromkeys(closed_form, 9000), 6, 1)
        assert len(held_before) == 2 * 2 * 2  # two groups, two members, two chunks


class TestCheckTable:
    def test_mc_vs_exact_estimates_are_the_plain_estimates(self):
        schemes = {"tzf": Scheme.TZF, "rzf": Scheme.RZF, "mrc_mrt": Scheme.MRC_MRT,
                   "hd": Scheme.HALF_DUPLEX}
        rows = _mc_vs_exact([(2, 2), (2, 1)], (0.0, 10.0), 9000, seed=5, threads=2)
        assert len(rows) == 2 * 4 + 2 * 3  # transmit ZF is infeasible at (2, 1)
        for label, m_r, m_t, snr_db, _, est in rows:
            p = _fig1_params(m_r, m_t, 10.0 ** (snr_db / 10.0))
            assert est == estimate_outage(p, schemes[label], 9000, 5)

    def test_mrc_floor_estimates_are_the_plain_estimates(self):
        want = [
            estimate_outage(_fig1_params(3, 3, p_s), scheme, 9000, 5)
            for scheme in (Scheme.MRC_MRT, Scheme.TZF)
            for p_s in (1e4, 1e5)
        ]
        assert _mrc_floor(9000, seed=5, threads=2) == want


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


    def test_lockstep_sweep_keeps_row_order_and_infeasible_rows(self):
        # TZF is infeasible at m_t = 1; every other scheme's rows are its
        # own alpha search, in the configured order.
        order = ["mrc_mrt", "tzf", "half_duplex", "rzf", "optimal"]
        cfg = base_config(
            params=make_params(2, 1).to_dict(), schemes=order,
            sweep={"alpha": {"values": [0.6, 0.3]}}, n_trials=2000,
        )
        rows = run_throughput_sweep(cfg).rows
        assert [r["scheme"] for r in rows] == [s for s in order for _ in range(3)]
        assert [r["kind"] for r in rows] == ["grid", "grid", "summary"] * len(order)
        for scheme in order:
            grid = [r for r in rows if r["scheme"] == scheme and r["kind"] == "grid"]
            (summary,) = [r for r in rows if r["scheme"] == scheme and r["kind"] == "summary"]
            if scheme == "tzf":
                assert [r["status"] for r in grid + [summary]] == ["infeasible"] * 3
                assert [r["alpha"] for r in grid] == [0.6, 0.3]
                continue
            (found,) = _search_alpha_batch(
                cfg.params, [Scheme(scheme)], [0.6, 0.3], [cfg.trials_for(Scheme(scheme))],
                cfg.seed, threads=cfg.threads,
            )
            assert [(r["alpha"], r["outage"], r["std_err"]) for r in grid] == [
                (pt.alpha, pt.outage, pt.std_err) for pt in found.grid]
            assert (summary["alpha"], summary["throughput"]) == (
                found.best.alpha, found.best.throughput)


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
        assert cli_main([
            "outage", "--config", str(cfg_path), "--seed", "9", "--threads", "1",
            "--out", str(tmp_path / "c.csv"),
        ]) == 0
        text_c = (tmp_path / "c.csv").read_text()
        # neither the output path nor the thread count is part of the config hash
        assert text_a == text_b == text_c

    def test_cli_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli_main(["outage", "--config", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["outage", "--config", str(bad)]) == 2
        alpha = base_config(sweep={"alpha": {"points": 3}}).to_dict()
        alpha["sweep"] = {"alpha": {"values": [0.5, 1.5]}}
        bad.write_text(json.dumps(alpha))
        assert cli_main(["throughput", "--config", str(bad)]) == 2
        fractional = {**base_config().to_dict(), "n_trials": 2000.7}
        bad.write_text(json.dumps(fractional))
        assert cli_main(["outage", "--config", str(bad)]) == 2
        for override in (*({"sweep": sweep} for sweep in BAD_SWEEPS),
                         {"n_trials_optimal": 0}, {"n_trials_optimal": -5}):
            bad.write_text(json.dumps({**base_config().to_dict(), **override}))
            # each axis goes to the command that takes it, so only the load can fail
            command = "throughput" if "alpha" in override.get("sweep", {}) else "outage"
            assert cli_main([command, "--config", str(bad)]) == 2, override
        alpha["sweep"] = {"alpha": {"points": True}}
        bad.write_text(json.dumps(alpha))
        assert cli_main(["throughput", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["outage", "throughput", "validate"])
    def test_cli_negative_seed_exit_two(self, tmp_path, command):
        sweep = {"alpha": {"points": 3}} if command == "throughput" else {"snr_db": [10.0]}
        cfg = base_config(sweep=sweep, output_path=str(tmp_path / "out"), n_trials=100)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main([command, "--config", str(cfg_path), "--seed", "-1"]) == 2
        cfg_path.write_text(json.dumps({**cfg.to_dict(), "seed": -1}))
        assert cli_main([command, "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("command", ["outage", "throughput", "validate"])
    def test_cli_missing_output_directory_exit_two(self, tmp_path, command, monkeypatch,
                                                    capsys):
        # Rejected while the config loads, before any sweep or check runs.
        from fdrelay import cli

        for runner in ("run_outage_sweep", "run_throughput_sweep", "run_validation"):
            monkeypatch.setattr(cli, runner, lambda cfg: pytest.fail("work started"))
        sweep = {"alpha": {"points": 3}} if command == "throughput" else {"snr_db": [10.0]}
        missing = tmp_path / "no" / "such"
        cfg = base_config(sweep=sweep, output_path=str(missing / "x.csv"), n_trials=100)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        assert "output directory" in capsys.readouterr().err
        cfg_path.write_text(json.dumps({**cfg.to_dict(), "output_path": "x.csv"}))
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(missing / "y.csv")]) == 2
        assert not missing.parent.exists()

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

    def test_cli_throughput_past_the_float_range(self, tmp_path):
        # At alpha = 0.9995 the coupled threshold 2^(r_c/(1-alpha)) - 1 is
        # past the float range: no draw reaches it, so that probe is in
        # outage on every draw and earns nothing.
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "thr.csv"
        cfg = base_config(
            schemes=["optimal", "tzf"], sweep={"alpha": {"values": [0.5, 0.9995]}},
            threshold_mode="rate_coupled", output_path=str(out_path),
            n_trials=2000, outputs=["monte_carlo"],
        )
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["throughput", "--config", str(cfg_path)]) == 0
        rows = list(csv.DictReader(
            line for line in out_path.read_text().splitlines() if not line.startswith("#")
        ))
        far = [r for r in rows if r["kind"] == "grid" and float(r["alpha"]) == 0.9995]
        assert [r["scheme"] for r in far] == ["optimal", "tzf", "half_duplex"]
        for row in far:
            assert (float(row["outage"]), float(row["throughput"])) == (1.0, 0.0)
        for row in rows:
            if row["kind"] == "summary":
                assert float(row["alpha"]) < 0.9995 and float(row["throughput"]) > 0.0

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("axis", ["snr_db", "threshold_db"])
    def test_cli_outage_far_from_high_snr(self, tmp_path, m, axis):
        # At -3000 dB of SNR, or +3000 dB of threshold, lam^k in the high-SNR
        # laws is past the float range: such a law is inf, every draw is in
        # outage and so is the exact CDF, and the run completes.  At the
        # other end nothing is in outage.
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "far.csv"
        cfg = base_config(
            params=make_params(m, m).to_dict(), schemes=["tzf", "rzf"],
            sweep={axis: [-3000.0, 3000.0]}, output_path=str(out_path), n_trials=500,
            outputs=["monte_carlo", "analytic", "asymptotic"],
        )
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["outage", "--config", str(cfg_path)]) == 0
        rows = list(csv.DictReader(
            line for line in out_path.read_text().splitlines() if not line.startswith("#")
        ))
        assert len(rows) == 12
        for row in rows:
            db = float(row["rho1_db"] if axis == "snr_db" else row["gamma_th_db"])
            all_out = (db < 0) == (axis == "snr_db")
            if row["kind"] == "monte_carlo":
                assert float(row["p_out"]) == float(all_out)
            elif row["kind"] == "analytic":
                assert float(row["analytic"]) == pytest.approx(float(all_out), abs=1e-250)
            else:
                law = float(row["asymptotic"])
                if all_out:
                    assert law >= 1.0 and (m == 2 or law == math.inf)
                else:
                    assert 0.0 <= law <= 1e-250


CHECK_NAMES = [
    "specfun_complement_identity",
    "specfun_digamma_recurrence",
    "specfun_tail_integral_closed_forms",
    "loop_cdf_degenerate_branch",
    "mc_vs_analytic_tzf",
    "mc_vs_analytic_rzf",
    "mc_vs_analytic_mrc_mrt",
    "mc_vs_analytic_hd",
    "eq23_exponent_resolution",
    "diversity_slope_tzf_2_2",
    "diversity_slope_tzf_3_2",
    "diversity_slope_tzf_2_3_logmodel",
    "diversity_slope_rzf_2_2",
    "diversity_slope_rzf_3_1",
    "asymptotic_ratio_tzf",
    "asymptotic_ratio_rzf",
    "mrc_outage_floor",
    "low_snr_mrc_advantage",
    "reproducibility_across_workers",
]


class TestValidation:
    def test_report_contents_and_exit(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        cfg = base_config(output_path=str(out), n_trials=120_000)
        report = run_validation(cfg)
        assert [c.name for c in report.checks] == CHECK_NAMES
        assert report.passed
        # the survival-exponent check must state which coefficient matched
        eq23 = next(c for c in report.checks if c.name == "eq23_exponent_resolution")
        assert "matched=second_hop_coefficient" in eq23.detail
        report.to_json(out)
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == CHECK_NAMES
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
