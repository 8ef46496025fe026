"""Two-phase experiments, grid reports, traces, external fits, CLI."""

import csv
import json
import os
import shutil

import numpy as np
import pytest

from springsim import (
    ConfigError,
    ControllerConfig,
    DegenerateTrajectory,
    EmptySpecList,
    EnergyModel,
    ExperimentSpec,
    IoFailure,
    LegGeometry,
    MissingTrace,
    SimConfig,
    SingularConfiguration,
    Trajectory,
    export_traces_from_dir,
    fit_external,
    load_report,
    load_run_config,
    load_specs_file,
    load_trajectory,
    paper_table,
    run_experiment,
    run_grid,
    save_specs_file,
    save_trajectory,
    Unreachable,
)
from springsim import harness
from springsim.cli import main as cli_main
from springsim.svgplot import line_plot

MODEL = EnergyModel()


class TestExperimentSpec:
    def test_paper_table_has_six_rows(self):
        specs = paper_table()
        assert len(specs) == 6
        assert [s.label for s in specs][0] == "baseline"
        assert {s.t_period for s in specs} == {1.88, 0.94, 3.77}

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("has space", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2)

    def test_unreachable_band_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("too_high", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.55)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                "x", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
                overrides={"colour": 1.0},
            )

    def test_static_hold_spec_is_constructible(self):
        spec = ExperimentSpec("hold", mass=4.1, t_period=1.88, amplitude=0.0, h0=0.2)
        assert spec.amplitude == 0.0

    def test_defaults_come_from_the_config_dataclasses(self):
        spec = ExperimentSpec("d", mass=5.0, t_period=1.5, amplitude=0.04, h0=0.21)
        assert spec.to_sim_config() == SimConfig(
            geom=LegGeometry(mass=5.0),
            controller=ControllerConfig(),
            h0=0.21,
            amplitude=0.04,
            t_period=1.5,
        )

    def test_overrides_flow_into_config(self):
        spec = ExperimentSpec(
            "ov", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
            overrides={"kp": 400.0, "duration": 5.0, "torque_limit": 30.0},
        )
        cfg = spec.to_sim_config()
        assert cfg.controller.kp == 400.0
        assert cfg.duration == 5.0
        assert cfg.torque_limit == 30.0


class TestRunExperiment:
    def test_baseline_two_phase(self, tmp_path):
        result = run_experiment(paper_table()[0], tmp_path, MODEL)
        assert result.e0 > 0
        assert result.ratio < 0.05  # far below 1; table-style reduction
        assert result.ea <= result.e0 * (1 + 1e-6)
        assert result.mu_star > 0 and not result.clamped
        assert result.trace_no_spring.is_file()
        assert result.trace_with_spring.is_file()
        assert result.ratio == result.ea / result.e0

    def test_static_hold_surfaces_degenerate_fit(self, tmp_path):
        spec = ExperimentSpec("hold", mass=4.1, t_period=1.88, amplitude=0.0, h0=0.2)
        with pytest.raises(DegenerateTrajectory) as exc:
            run_experiment(spec, tmp_path, MODEL)
        assert "hold" in str(exc.value)

    def test_doubled_mass_roughly_doubles_stiffness(self, grid_dir):
        _, report = grid_dir
        by_label = {r.spec.label: r for r in report.results}
        ratio = by_label["mass_8.1"].mu_star / by_label["baseline"].mu_star
        assert 1.7 <= ratio <= 2.3


class TestRunGrid:
    def test_paper_grid_rows_and_ratios(self, grid_dir):
        out, report = grid_dir
        assert report.ok
        assert len(report.results) == 6
        for r in report.results:
            assert r.ratio < 0.10
            assert r.ea <= r.e0 * (1 + 1e-6)
        rows = load_report(out / "report.csv")
        assert len(rows) == 6

    def test_stiffness_decreases_with_period(self, grid_dir):
        _, report = grid_dir
        mu = {r.spec.t_period: r.mu_star for r in report.results if r.spec.label
              in ("baseline", "period_0.94", "period_3.77")}
        assert mu[0.94] > mu[1.88] > mu[3.77]

    def test_report_round_trips_exactly(self, grid_dir):
        out, report = grid_dir
        rows = {row["label"]: row for row in load_report(out / "report.csv")}
        for r in report.results:
            row = rows[r.spec.label]
            assert row["m"] == r.spec.mass
            assert row["T"] == r.spec.t_period
            assert row["A"] == r.spec.amplitude
            assert row["h0"] == r.spec.h0
            assert row["E0"] == r.e0
            assert row["Ea"] == r.ea
            assert row["mu_star"] == r.mu_star
            assert row["alpha0_star"] == r.alpha0_star
            assert row["ratio"] == r.ratio

    def test_rerun_is_byte_identical(self, tmp_path, grid_dir):
        out, _ = grid_dir
        specs = [paper_table()[0], paper_table()[5]]
        d1, d2 = tmp_path / "g1", tmp_path / "g2"
        run_grid(specs, d1, MODEL)
        run_grid(specs, d2, MODEL)
        assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
        assert (d1 / "specs.ini").read_bytes() == (d2 / "specs.ini").read_bytes()
        for name in ("baseline_no_spring.csv", "baseline_with_spring.csv"):
            assert (d1 / "traces" / name).read_bytes() == (d2 / "traces" / name).read_bytes()

    def test_partial_failure_records_and_continues(self, tmp_path):
        specs = [
            ExperimentSpec("hold", mass=4.1, t_period=1.88, amplitude=0.0, h0=0.2,
                           overrides={"duration": 2.0}),
            ExperimentSpec("ok", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
                           overrides={"duration": 2.0}),
        ]
        report = run_grid(specs, tmp_path / "g", MODEL)
        assert not report.ok
        assert [lbl for lbl, _ in report.failures] == ["hold"]
        assert "DegenerateTrajectory" in report.failures[0][1]
        assert [r.spec.label for r in report.results] == ["ok"]
        assert (tmp_path / "g" / "failures.csv").is_file()
        assert (tmp_path / "g" / "report.csv").is_file()

    def test_failures_csv_is_valid_csv(self, tmp_path, monkeypatch):
        # Unreachable's message holds commas: "(must be in (0, 0.56])"
        real = harness.run_experiment

        def run_or_fail(spec, out_dir, model):
            if spec.label == "far":
                raise Unreachable(0.7, 0.56)
            return real(spec, out_dir, model)

        monkeypatch.setattr(harness, "run_experiment", run_or_fail)
        specs = [
            ExperimentSpec("far", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2),
            ExperimentSpec("hold", mass=4.1, t_period=1.88, amplitude=0.0, h0=0.2,
                           overrides={"duration": 2.0}),
        ]
        report = run_grid(specs, tmp_path / "g", MODEL)
        with open(tmp_path / "g" / "failures.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 2 for row in rows)
        assert rows[0] == ["label", "error"]
        assert [tuple(row) for row in rows[1:]] == report.failures
        assert "," in rows[1][1]

    def test_only_domain_errors_become_failed_rows(self, tmp_path, monkeypatch):
        collapse = ExperimentSpec("collapse", mass=4.1, t_period=1.88, amplitude=0.05,
                                  h0=0.2, overrides={"duration": 2.0, "torque_limit": 5.0})
        report = run_grid([collapse], tmp_path / "g", MODEL)
        with open(tmp_path / "g" / "failures.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "collapse"
        assert rows[1][1].startswith(SingularConfiguration.__name__)
        assert [tuple(row) for row in rows[1:]] == report.failures

        def broken(cfg):
            raise TypeError("a bug, not a failed row")

        monkeypatch.setattr(harness, "run", broken)
        with pytest.raises(TypeError):
            run_grid([paper_table()[0]], tmp_path / "g2", MODEL)

    def test_clean_rerun_removes_stale_failures(self, tmp_path):
        hold = ExperimentSpec("hold", mass=4.1, t_period=1.88, amplitude=0.0, h0=0.2,
                              overrides={"duration": 2.0})
        ok = ExperimentSpec("ok", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
                            overrides={"duration": 2.0})
        out = tmp_path / "g"
        assert not run_grid([hold, ok], out, MODEL).ok
        assert (out / "failures.csv").is_file()
        assert run_grid([ok], out, MODEL).ok
        assert not (out / "failures.csv").exists()

    def test_unremovable_stale_failures_is_io_failure(self, tmp_path):
        out = tmp_path / "g"
        (out / "failures.csv" / "occupied").mkdir(parents=True)
        spec = ExperimentSpec("ok", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
                              overrides={"duration": 2.0})
        with pytest.raises(IoFailure):
            run_grid([spec], out, MODEL)

    def test_rerun_removes_traces_of_dropped_labels(self, tmp_path):
        a = ExperimentSpec("a", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
                           overrides={"duration": 2.0})
        b = ExperimentSpec("b", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
                           overrides={"duration": 2.0})
        out = tmp_path / "g"
        assert run_grid([a, b], out, MODEL).ok
        others = ["notes.txt", "b_no_spring.txt", "b_spring.csv"]
        for name in others:
            (out / "traces" / name).write_text("keep me")
        (out / "traces" / "c_with_spring.csv").mkdir()  # named like a trace, not a file
        assert run_grid([a], out, MODEL).ok
        assert sorted(p.name for p in (out / "traces").iterdir()) == sorted(
            ["a_no_spring.csv", "a_with_spring.csv", "c_with_spring.csv", *others]
        )

    def test_rerun_removes_traces_of_a_row_that_failed_now(self, tmp_path):
        ok = ExperimentSpec("r", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
                            overrides={"duration": 2.0})
        collapse = ExperimentSpec("r", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
                                  overrides={"duration": 2.0, "torque_limit": 5.0})
        out = tmp_path / "g"
        assert run_grid([ok], out, MODEL).ok
        assert (out / "traces" / "r_no_spring.csv").is_file()
        report = run_grid([collapse], out, MODEL)
        assert [lbl for lbl, _ in report.failures] == ["r"]
        assert list((out / "traces").iterdir()) == []

    def test_unremovable_stale_trace_is_io_failure(self, tmp_path, monkeypatch):
        spec = ExperimentSpec("ok", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2,
                              overrides={"duration": 2.0})
        out = tmp_path / "g"
        (out / "traces").mkdir(parents=True)
        (out / "traces" / "old_with_spring.csv").write_text("stale")

        real_unlink = type(out).unlink

        def refuse_traces(path, missing_ok=False):
            if path.name.endswith("_spring.csv"):
                raise PermissionError("refused")
            real_unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(type(out), "unlink", refuse_traces)
        with pytest.raises(IoFailure, match="old_with_spring.csv"):
            run_grid([spec], out, MODEL)

    def test_empty_spec_list_rejected(self, tmp_path):
        with pytest.raises(EmptySpecList):
            run_grid([], tmp_path / "g", MODEL)

    def test_duplicate_labels_rejected(self, tmp_path):
        s = paper_table()[0]
        with pytest.raises(ValueError):
            run_grid([s, s], tmp_path / "g", MODEL)


class TestAtomicWrites:
    def test_write_into_missing_dir_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            save_specs_file(paper_table(), tmp_path / "nope" / "specs.ini")

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "plot.svg"
        path.write_text("old")

        def no_rename(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(IoFailure):
            line_plot(path, [("a", [0.0, 1.0], [0.0, 1.0])])
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["plot.svg"]

    def test_mode_follows_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            save_trajectory(Trajectory([0.0, 0.01], [0.1, 0.2], [1.0, 1.1]), tmp_path / "t.csv")
        finally:
            os.umask(umask)
        assert (tmp_path / "t.csv").stat().st_mode & 0o777 == 0o640


class TestTorqueTraces:
    def test_one_period_window(self, grid_dir, tmp_path):
        out, _ = grid_dir
        csv_path, svg_path = export_traces_from_dir(out, tmp_path / "traces")[0]
        assert csv_path.name == "baseline_torques.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,tau_no_spring_Nm,tau_with_spring_Nm"
        assert len(lines) == 1 + 188  # T * rate = 1.88 s * 100 Hz
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_window_is_phase_aligned(self, grid_dir, tmp_path):
        out, _ = grid_dir
        csv_path, _ = export_traces_from_dir(out, tmp_path / "tr2")[0]
        assert csv_path.name == "baseline_torques.csv"
        rows = [l.split(",") for l in csv_path.read_text().splitlines()[1:]]
        t_rel = np.array([float(r[0]) for r in rows])
        assert t_rel[0] == 0.0
        assert t_rel[-1] == pytest.approx(1.87, abs=1e-9)

    def test_spring_curve_has_smaller_rms(self, grid_dir, tmp_path):
        out, report = grid_dir
        outputs = export_traces_from_dir(out, tmp_path / "tr3")
        assert len(outputs) == len(report.results)
        for csv_path, _ in outputs:
            rows = [l.split(",") for l in csv_path.read_text().splitlines()[1:]]
            tau_a = np.array([float(r[1]) for r in rows])
            tau_b = np.array([float(r[2]) for r in rows])
            assert np.sqrt((tau_b**2).mean()) < np.sqrt((tau_a**2).mean())

    def test_perfectly_compensated_run_is_flat(self, grid_dir, tmp_path):
        # the with-spring baseline trace is near-zero compared to phase A
        _, report = grid_dir
        baseline = report.results[0]
        traj_b = load_trajectory(baseline.trace_with_spring)
        traj_a = load_trajectory(baseline.trace_no_spring)
        rms_b = float(np.sqrt((traj_b.tau**2).mean()))
        rms_a = float(np.sqrt((traj_a.tau**2).mean()))
        assert rms_b < 0.1 * rms_a
        # brief startup wiggle aside, the curve stays near zero vs ~12 N m
        assert np.abs(traj_b.tau).max() < 2.5

    def test_missing_trace_raises(self, tmp_path):
        report = run_grid(paper_table()[:1], tmp_path / "exp", MODEL)
        report.results[0].trace_with_spring.unlink()
        with pytest.raises(MissingTrace):
            export_traces_from_dir(tmp_path / "exp", tmp_path / "out")


class TestFitExternal:
    def test_linear_law_log_recovered_exactly(self, tmp_path):
        n = 200
        t = np.arange(n) * 0.01
        alpha = 0.5 + 0.3 * np.sin(t)
        tau = 4.0 * (alpha - 1.2)
        path = tmp_path / "lin.csv"
        save_trajectory(Trajectory(t, alpha, tau, dt=0.01), path)
        info = fit_external(path, MODEL)
        assert info["mu_star"] == pytest.approx(4.0, rel=1e-9)
        assert info["alpha0_star"] == pytest.approx(1.2, rel=1e-9)
        assert info["ratio"] == pytest.approx(0.0, abs=1e-20)
        assert info["physical"] and info["alpha0_defined"]

    def test_constant_angle_log_fails(self, tmp_path):
        n = 50
        t = np.arange(n) * 0.01
        path = tmp_path / "const.csv"
        save_trajectory(Trajectory(t, np.full(n, 0.7), np.sin(t), dt=0.01), path)
        with pytest.raises(DegenerateTrajectory):
            fit_external(path, MODEL)

    def test_phase_a_trace_matches_report_row(self, grid_dir):
        _, report = grid_dir
        for result in report.results:
            info = fit_external(result.trace_no_spring, MODEL)
            assert info["mu_star"] == result.mu_star
            assert info["alpha0_star"] == result.alpha0_star
            assert info["e0"] == result.e0


class TestConfigFiles:
    def test_specs_file_round_trip(self, tmp_path):
        specs = [
            ExperimentSpec("a", mass=4.1, t_period=1.88, amplitude=0.05, h0=0.2),
            ExperimentSpec("b", mass=8.1, t_period=0.94, amplitude=0.08, h0=0.15,
                           overrides={"kp": 350.0, "sine_convention": "paper-literal"}),
        ]
        path = tmp_path / "specs.ini"
        save_specs_file(specs, path)
        back = load_specs_file(path)
        assert back == specs

    def test_missing_schema_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[baseline]\nmass = 4.1\nt_period = 1.88\namplitude = 0.05\nh0 = 0.2\n")
        with pytest.raises(ConfigError):
            load_specs_file(p)

    def test_wrong_schema_rejected(self, tmp_path):
        p = tmp_path / "bad2.ini"
        p.write_text("[springsim]\nschema = 99\n\n[x]\nmass = 4.1\n")
        with pytest.raises(ConfigError):
            load_specs_file(p)

    def test_no_sections_is_empty_spec_list(self, tmp_path):
        p = tmp_path / "empty.ini"
        p.write_text("[springsim]\nschema = 1\n")
        with pytest.raises(EmptySpecList):
            load_specs_file(p)

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "missing.ini"
        p.write_text("[springsim]\nschema = 1\n\n[x]\nmass = 4.1\nt_period = 1.88\n")
        with pytest.raises(ConfigError):
            load_specs_file(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "unk.ini"
        p.write_text(
            "[springsim]\nschema = 1\n\n[x]\nmass = 4.1\nt_period = 1.88\n"
            "amplitude = 0.05\nh0 = 0.2\nwheels = 4\n"
        )
        with pytest.raises(ConfigError):
            load_specs_file(p)

    def test_run_config_without_spring(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(
            "[springsim]\nschema = 1\n\n[run]\nmass = 4.1\nt_period = 1.88\n"
            "amplitude = 0.05\nh0 = 0.2\nduration = 2.0\n"
        )
        cfg = load_run_config(p)
        assert cfg.spring is None
        assert cfg.duration == 2.0

    def test_run_config_with_spring(self, tmp_path):
        p = tmp_path / "runs.ini"
        p.write_text(
            "[springsim]\nschema = 1\n\n[run]\nmass = 4.1\nt_period = 1.88\n"
            "amplitude = 0.05\nh0 = 0.2\nspring_mu = 5.0\nspring_alpha0 = 2.8\n"
        )
        cfg = load_run_config(p)
        assert cfg.spring is not None
        assert cfg.spring.mu == 5.0

    def test_half_spring_rejected(self, tmp_path):
        p = tmp_path / "half.ini"
        p.write_text(
            "[springsim]\nschema = 1\n\n[run]\nmass = 4.1\nt_period = 1.88\n"
            "amplitude = 0.05\nh0 = 0.2\nspring_mu = 5.0\n"
        )
        with pytest.raises(ConfigError):
            load_run_config(p)


class TestCli:
    def test_grid_paper_exit_zero(self, tmp_path, capsys):
        rc = cli_main(["grid", "--table", "paper", "--out", str(tmp_path / "g")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "report:" in out
        assert (tmp_path / "g" / "report.csv").is_file()

    def test_grid_requires_source(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["grid", "--out", "somewhere"])
        assert exc.value.code == 2

    def test_grid_empty_specs_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "empty.ini"
        p.write_text("[springsim]\nschema = 1\n")
        rc = cli_main(["grid", "--specs", str(p), "--out", str(tmp_path / "g")])
        assert rc == 2

    def test_grid_partial_failure_exit_one(self, tmp_path):
        p = tmp_path / "mix.ini"
        p.write_text(
            "[springsim]\nschema = 1\n\n"
            "[hold]\nmass = 4.1\nt_period = 1.88\namplitude = 0\nh0 = 0.2\nduration = 2\n\n"
            "[ok]\nmass = 4.1\nt_period = 1.88\namplitude = 0.05\nh0 = 0.2\nduration = 2\n"
        )
        rc = cli_main(["grid", "--specs", str(p), "--out", str(tmp_path / "g")])
        assert rc == 1

    def test_run_and_fit_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[springsim]\nschema = 1\n\n[run]\nmass = 4.1\nt_period = 1.88\n"
            "amplitude = 0.05\nh0 = 0.2\nduration = 2.0\n"
        )
        out_csv = tmp_path / "traj.csv"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out_csv)]) == 0
        assert out_csv.is_file()
        rc = cli_main(["fit", str(out_csv), "--json"])
        assert rc == 0
        blob = capsys.readouterr().out
        info = json.loads(blob[blob.index("{"):])
        assert info["physical"] is True
        assert info["mu_star"] > 0

    def test_fit_text_output(self, tmp_path, capsys):
        n = 100
        t = np.arange(n) * 0.01
        alpha = 0.5 + 0.3 * np.sin(t)
        path = tmp_path / "lin.csv"
        save_trajectory(Trajectory(t, alpha, 4.0 * (alpha - 1.2), dt=0.01), path)
        assert cli_main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mu*" in out and "Ea/E0" in out

    def test_fit_degenerate_exit_one(self, tmp_path, capsys):
        n = 50
        t = np.arange(n) * 0.01
        path = tmp_path / "const.csv"
        save_trajectory(Trajectory(t, np.full(n, 0.7), np.sin(t), dt=0.01), path)
        assert cli_main(["fit", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_fit_angle_squares_past_float_range_exit_one(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("t,alpha_rad,tau_Nm\n0.0,0.1,1.0\n0.01,1e300,1.5\n0.02,0.3,2.0\n")
        assert cli_main(["fit", str(path)]) == 1
        assert "not finite" in self._assert_one_line_error(capsys, "fit")

    def test_fit_missing_file_exit_one(self, tmp_path):
        assert cli_main(["fit", str(tmp_path / "nope.csv")]) == 1

    def test_traces_from_grid_dir(self, grid_dir, tmp_path, capsys):
        out, _ = grid_dir
        rc = cli_main(["traces", str(out), "--out", str(tmp_path / "t")])
        assert rc == 0
        assert (tmp_path / "t" / "baseline_torques.csv").is_file()
        assert (tmp_path / "t" / "baseline_torques.svg").is_file()
        assert (tmp_path / "t" / "period_3.77_torques.csv").is_file()

    def test_traces_missing_report_exit_one(self, tmp_path, capsys):
        rc = cli_main(["traces", str(tmp_path / "void"), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = self._assert_one_line_error(capsys, "traces")
        assert f"grid report not found: {tmp_path / 'void' / 'report.csv'}" in err

    @staticmethod
    def _assert_one_line_error(capsys, command):
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(f"springsim {command}: error: "), err
        return err

    def test_fit_non_utf8_log_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t,alpha_rad,tau_Nm\n0.0,0.1,1.0\n0.01,0.2,1.5\xff\n")
        assert cli_main(["fit", str(path)]) == 1
        assert "bad.csv:3:" in self._assert_one_line_error(capsys, "fit")

    def test_traces_out_naming_a_file_exit_one(self, grid_dir, tmp_path, capsys):
        out, _ = grid_dir
        target = tmp_path / "afile"
        target.write_text("x")
        assert cli_main(["traces", str(out), "--out", str(target)]) == 1
        self._assert_one_line_error(capsys, "traces")
        assert target.read_text() == "x"

    def test_traces_non_numeric_report_cell_exit_one(self, grid_dir, tmp_path, capsys):
        out, _ = grid_dir
        lines = (out / "report.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",abc"
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "report.csv").write_text("\n".join(lines) + "\n")
        assert cli_main(["traces", str(bad), "--out", str(tmp_path / "t")]) == 1
        assert "report.csv:3:" in self._assert_one_line_error(capsys, "traces")

    def test_traces_short_report_row_exit_one(self, grid_dir, tmp_path, capsys):
        out, _ = grid_dir
        res = tmp_path / "res"
        shutil.copytree(out, res)
        lines = (res / "report.csv").read_text().splitlines()
        lines[2] = lines[2].split(",")[0]  # a label and no values
        (res / "report.csv").write_text("\n".join(lines) + "\n")
        assert cli_main(["traces", str(res), "--out", str(tmp_path / "t")]) == 1
        err = self._assert_one_line_error(capsys, "traces")
        assert "report.csv:3: 1 cells, the header has 10" in err

    def test_traces_missing_trace_writes_no_overlay(self, grid_dir, tmp_path, capsys):
        out, _ = grid_dir
        res = tmp_path / "res"
        shutil.copytree(out, res)
        (res / "traces" / "h0_0.15_with_spring.csv").unlink()  # the third row's
        assert cli_main(["traces", str(res), "--out", str(tmp_path / "t")]) == 1
        assert "h0_0.15_with_spring.csv" in self._assert_one_line_error(capsys, "traces")
        assert list((tmp_path / "t").glob("*")) == []

    def test_grid_run_length_overflow_exit_one(self, tmp_path, capsys):
        # duration*control_rate overflows to inf; the run is never started
        p = tmp_path / "huge.ini"
        p.write_text(
            "[springsim]\nschema = 1\n\n[x]\nmass = 4.1\nt_period = 1.88\n"
            "amplitude = 0.05\nh0 = 0.2\nduration = 1e300\ncontrol_rate = 1e300\n"
            "physics_dt = 1e-301\n"
        )
        assert cli_main(["grid", "--specs", str(p), "--out", str(tmp_path / "g")]) == 1
        err = self._assert_one_line_error(capsys, "grid")
        assert "[x]: x: " in err and "MAX_SUBSTEPS" in err
        assert not (tmp_path / "g").exists()

    def test_run_config_run_length_overflow_exit_one(self, tmp_path, capsys):
        p = tmp_path / "huge.ini"
        p.write_text(
            "[springsim]\nschema = 1\n\n[run]\nmass = 4.1\nt_period = 1.88\n"
            "amplitude = 0.05\nh0 = 0.2\nduration = 1e300\ncontrol_rate = 1e300\n"
            "physics_dt = 1e-301\n"
        )
        out = tmp_path / "traj.csv"
        assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 1
        assert "MAX_SUBSTEPS" in self._assert_one_line_error(capsys, "run")
        assert not out.exists()

    def test_specs_non_numeric_override_exit_one(self, tmp_path, capsys):
        p = tmp_path / "kp.ini"
        p.write_text(
            "[springsim]\nschema = 1\n\n[x]\nmass = 4.1\nt_period = 1.88\n"
            "amplitude = 0.05\nh0 = 0.2\nkp = abc\n"
        )
        assert cli_main(["grid", "--specs", str(p), "--out", str(tmp_path / "g")]) == 1
        assert "[x]: kp:" in self._assert_one_line_error(capsys, "grid")

    def test_grid_out_naming_a_file_exit_one(self, tmp_path, capsys):
        target = tmp_path / "afile"
        target.write_text("x")
        assert cli_main(["grid", "--table", "paper", "--out", str(target)]) == 1
        assert "afile" in self._assert_one_line_error(capsys, "grid")
        assert target.read_text() == "x"

    def test_grid_traces_dir_naming_a_file_exit_one(self, tmp_path, capsys):
        out = tmp_path / "g"
        out.mkdir()
        (out / "traces").write_text("x")
        assert cli_main(["grid", "--table", "paper", "--out", str(out)]) == 1
        assert "traces" in self._assert_one_line_error(capsys, "grid")
        assert (out / "traces").read_text() == "x"
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("t1", ["0.0", "-0.01"])
    def test_fit_non_increasing_first_timestamps_exit_one(self, tmp_path, capsys, t1):
        path = tmp_path / "stuck.csv"
        path.write_text(f"t,alpha_rad,tau_Nm\n0.0,0.1,1.0\n{t1},0.2,1.5\n0.02,0.3,2.0\n")
        assert cli_main(["fit", str(path)]) == 1
        assert "sample index 1" in self._assert_one_line_error(capsys, "fit")

    def test_specs_non_utf8_exit_one(self, tmp_path, capsys):
        p = tmp_path / "latin1.ini"
        p.write_bytes(
            b"[springsim]\nschema = 1\n# caf\xe9\n\n[x]\nmass = 4.1\nt_period = 1.88\n"
            b"amplitude = 0.05\nh0 = 0.2\n"
        )
        assert cli_main(["grid", "--specs", str(p), "--out", str(tmp_path / "g")]) == 1
        assert "latin1.ini" in self._assert_one_line_error(capsys, "grid")
        assert not (tmp_path / "g").exists()

    def test_run_config_non_utf8_exit_one(self, tmp_path, capsys):
        p = tmp_path / "latin1.ini"
        p.write_bytes(
            b"[springsim]\nschema = 1\n\n[run]\nmass = 4.1\nt_period = 1.88\n"
            b"amplitude = 0.05\nh0 = 0.2 # caf\xe9\n"
        )
        out = tmp_path / "traj.csv"
        assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 1
        assert "latin1.ini" in self._assert_one_line_error(capsys, "run")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
    def test_k_motor_must_be_positive_and_finite(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli_main(["fit", str(tmp_path / "any.csv"), "--k-motor", value])
        assert exc.value.code == 2
        assert "--k-motor" in capsys.readouterr().err.splitlines()[-1]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
