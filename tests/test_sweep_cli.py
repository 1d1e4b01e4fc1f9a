"""Sweep engine, CSV emission, figure reproduction and the CLI."""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trimode.core
import trimode.propagator
import trimode.sweep
from trimode import (
    Couplings,
    RunConfig,
    Sign,
    TauConvention,
    classify_regime,
    load_config_file,
    reproduce_figure,
    run_oracle_check,
    run_sweep,
    sweep_csv_text,
    time_scale,
    write_sweep_csv,
)
from trimode.cli import main
from support import DEG, HYP, PER, rate_of


def parse_csv(text):
    """Return (metadata dict, column names, rows of floats)."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, columns, rows


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.couplings == Couplings(1.2, 1.0)
        assert cfg.points == 301

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau_max=0.0),
            dict(tau_min=-1.0),
            dict(tau_min=2.0, tau_max=1.0),
            dict(points=1),
            dict(kappa1=-1.0),
            dict(mc_samples=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


class TestTimeScale:
    def test_rate_convention(self):
        assert time_scale(HYP, TauConvention.RATE) == pytest.approx(rate_of(HYP))
        assert time_scale(PER, TauConvention.RATE) == pytest.approx(rate_of(PER))

    def test_max_kappa_convention(self):
        assert time_scale(HYP, TauConvention.MAX_KAPPA) == 1.2
        assert time_scale(PER, TauConvention.MAX_KAPPA) == 1.8

    def test_degenerate_rate_falls_back(self):
        assert time_scale(DEG, TauConvention.RATE) == 1.0


class TestRunSweep:
    def test_grid_with_zero_starts_at_boundary(self):
        result = run_sweep(RunConfig(points=4, tau_max=0.3))
        first = result.reports[0]
        assert result.taus[0] == 0.0
        assert all(v == 4.0 for v in first.vlf_opt)
        assert all(v == 1.0 for v in first.obr_single)
        assert all(v == 4.0 for v in first.obr_pair)

    def test_hyperbolic_preset_violates_optimised_sums(self):
        result = run_sweep(RunConfig(points=61))
        opt12 = np.array([r.vlf_opt.v12 for r in result.reports])
        assert (opt12 < 4.0 - 1e-10).any()

    def test_periodic_preset_single_mode_products(self):
        result = run_sweep(RunConfig(kappa1=1.0, kappa2=1.8, points=61))
        for rep, tau in zip(result.reports, result.taus):
            if tau == 0.0:
                continue
            assert abs(rep.obr_single.obr2 - 1.0) < 1e-10
            assert abs(rep.obr_single.obr3 - 1.0) < 1e-10
        obr1 = np.array([r.obr_single.obr1 for r in result.reports])
        assert (obr1 < 1.0 - 1e-10).any()

    def test_meta_records_configuration(self):
        result = run_sweep(RunConfig(points=3, tau_convention=TauConvention.MAX_KAPPA))
        assert result.meta.tau_convention is TauConvention.MAX_KAPPA
        assert result.meta.kappa1 == 1.2

    @pytest.mark.parametrize("kappas", [(1.2, 1.0), (1.0, 1.8), (1.0, 1.0)])
    def test_classifies_the_regime_once_per_sweep(self, kappas, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return classify_regime(*args, **kwargs)

        for module in (trimode.core, trimode.propagator, trimode.sweep):
            monkeypatch.setattr(module, "classify_regime", counting)
        run_sweep(RunConfig(kappa1=kappas[0], kappa2=kappas[1], points=101))
        assert len(calls) == 1

    def test_degenerate_couplings_sweep(self):
        result = run_sweep(RunConfig(kappa1=1.0, kappa2=1.0, points=5))
        assert all(np.isfinite(r.vlf_opt.v12) for r in result.reports)


class TestCsv:
    def test_header_and_metadata(self):
        result = run_sweep(RunConfig(points=3))
        meta, columns, rows = parse_csv(sweep_csv_text(result))
        assert columns[:7] == [
            "tau", "v12_raw", "v13_raw", "v23_raw", "v12_opt", "v13_opt", "v23_opt",
        ]
        assert columns[7:] == [
            "g1", "g2", "g3", "obr1", "obr2", "obr3", "obr23", "obr13", "obr12",
        ]
        assert meta["kappa1"] == "1.2"
        assert meta["tau_convention"] == "rate"
        assert len(rows) == 3

    def test_round_trip_is_bit_exact(self):
        result = run_sweep(RunConfig(points=11))
        _, columns, rows = parse_csv(sweep_csv_text(result))
        for row, tau, rep in zip(rows, result.taus, result.reports):
            values = dict(zip(columns, row))
            assert values["tau"] == tau
            assert values["v12_raw"] == rep.vlf_raw.v12
            assert values["v12_opt"] == rep.vlf_opt.v12
            assert values["g3"] == rep.gains.g3
            assert values["obr1"] == rep.obr_single.obr1
            assert values["obr12"] == rep.obr_pair.obr12

    def test_write_is_deterministic(self, tmp_path):
        cfg = RunConfig(points=7, seed=3)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_sweep_csv(run_sweep(cfg), a)
        write_sweep_csv(run_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()


class TestFigures:
    def test_fig1_schema(self, tmp_path):
        csv_path, sidecar = reproduce_figure(1, tmp_path, points=11)
        meta, columns, rows = parse_csv(Path(csv_path).read_text())
        assert columns == [
            "tau", "v12_raw", "v13_raw", "v23_raw", "v12_opt", "v13_opt", "v23_opt",
        ]
        assert meta["kappa1"] == "1.2"
        assert len(rows) == 11
        text = Path(sidecar).read_text()
        assert "kappa1 = 1.2" in text
        assert "rate" in text

    def test_fig3_has_both_panels(self, tmp_path):
        csv_path, _ = reproduce_figure(3, tmp_path, points=21)
        meta, columns, rows = parse_csv(Path(csv_path).read_text())
        assert columns == [
            "tau",
            "obr1_left", "obr2_left", "obr3_left",
            "obr1_right", "obr2_right", "obr3_right",
        ]
        assert meta["left_kappa1"] == "1.2"
        assert meta["right_kappa2"] == "1.8"
        for row in rows:
            values = dict(zip(columns, row))
            for name in ("obr2_left", "obr3_left", "obr2_right", "obr3_right"):
                assert abs(values[name] - 1.0) < 1e-10

    def test_fig4_pairs_below_threshold(self, tmp_path):
        csv_path, _ = reproduce_figure(4, tmp_path, points=31)
        _, columns, rows = parse_csv(Path(csv_path).read_text())
        assert columns == ["tau", "obr23", "obr13", "obr12"]
        for row in rows:
            values = dict(zip(columns, row))
            if values["tau"] == 0.0:
                continue
            assert values["obr23"] < 4.0
            assert values["obr13"] < 4.0
            assert values["obr12"] < 4.0

    def test_invalid_figure_number(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_figure(6, tmp_path)


class TestOracleCheck:
    def test_default_grid_passes(self):
        cfg = RunConfig(points=21, mc_samples=400_000, seed=20250808)
        reports = run_oracle_check(cfg)
        names = {name for name, _ in reports}
        assert {"closed-form vs expm", "analytic vs expm", "rk4 vs analytic",
                "mc vs analytic"} <= names
        for name, report in reports:
            assert report.passed, (name, report)

    def test_starved_sampling_fails(self):
        cfg = RunConfig(points=5, mc_samples=200)
        reports = dict(run_oracle_check(cfg))
        assert not reports["mc vs analytic"].passed

    def test_degenerate_grid_skips_closed_form(self):
        cfg = RunConfig(kappa1=1.0, kappa2=1.0, points=5, mc_samples=1000)
        names = {name for name, _ in run_oracle_check(cfg)}
        assert "closed-form vs expm" not in names
        assert "analytic vs expm" in names


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "kappa1 = 1.0\n"
            "kappa2=1.8  # inline comment\n"
            "tau-max = 2.0\n"
            "\n"
            "points = 5\n"
        )
        values = load_config_file(path)
        assert values == {
            "kappa1": "1.0", "kappa2": "1.8", "tau_max": "2.0", "points": "5",
        }

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("kappa1 1.0\n")
        with pytest.raises(ValueError):
            load_config_file(path)


class TestCli:
    def test_eval_key_value_output(self, capsys):
        assert main(["eval", "--tau", "1"]) == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert float(values["tau"]) == 1.0
        assert float(values["obr_single.obr1"]) == pytest.approx(0.01021138, rel=1e-5)
        assert values["obr_pair_flag"] == "true"
        assert values["obr_single_flag"] == "false"

    def test_sweep_to_stdout(self, capsys):
        assert main(["sweep", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# kappa1 = 1.2")
        assert "tau,v12_raw" in out

    def test_eval_max_kappa_convention(self, capsys):
        assert main(["eval", "--tau", "1.2", "--tau-convention", "maxkappa"]) == 0
        values = dict(
            line.split(" = ")
            for line in capsys.readouterr().out.strip().splitlines()
            if " = " in line
        )
        assert float(values["t"]) == pytest.approx(1.0, rel=1e-12)
        assert values["tau_convention"] == "maxkappa"

    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()
        meta, columns, rows = parse_csv(out.read_text())
        assert len(rows) == 3

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa1 = 1.0\nkappa2 = 1.8\npoints = 4\n")
        assert main(["sweep", "--config", str(cfg), "--points", "3"]) == 0
        out = capsys.readouterr().out
        meta, _, rows = parse_csv(out)
        assert meta["kappa1"] == "1"
        assert meta["kappa2"] == "1.8"
        assert len(rows) == 3

    @pytest.mark.parametrize("command", ["sweep", "oracle"])
    def test_config_file_sets_every_run_config_field(self, command, tmp_path,
                                                    capsys):
        settings = {"kappa1": "1.0", "kappa2": "1.8", "tau-min": "0.5",
                    "tau_max": "2.5", "points": "7", "tau_convention": "maxkappa",
                    "sign": "minus", "seed": "3", "mc_samples": "1000"}
        cfg = tmp_path / "run.cfg"
        from_file, from_flags = tmp_path / "file.out", tmp_path / "flags.out"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items())
                       + f"out = {from_file}\n")
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
        rc = main([command, "--config", str(cfg)])
        assert main([command, *flags, "--out", str(from_flags)]) == rc
        capsys.readouterr()
        assert from_file.read_bytes() == from_flags.read_bytes()
        if command == "sweep":
            meta, _, rows = parse_csv(from_file.read_text())
            assert (meta["kappa2"], meta["tau_convention"], meta["sign"]) == (
                "1.8", "maxkappa", "minus")
            assert rows[0][0] == 0.5 and len(rows) == 7

    @pytest.mark.parametrize("line", ["out-path = x.csv", "colour = red",
                                      "sign = sideways", "points = 3.5"])
    def test_bad_config_values_exit_4(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["sweep", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_figures_single(self, tmp_path, capsys):
        rc = main(["figures", "--which", "2", "--points", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "fig2.csv").exists()
        assert (tmp_path / "fig2_params.txt").exists()

    def test_figures_all_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["figures", "--points", "41", "--out", str(a)]) == 0
        assert main(["figures", "--points", "41", "--out", str(b)]) == 0
        capsys.readouterr()
        for n in range(1, 6):
            assert (a / f"fig{n}.csv").read_bytes() == (b / f"fig{n}.csv").read_bytes()

    def test_oracle_pass_and_fail(self, tmp_path, capsys):
        rc = main(["oracle", "--points", "11", "--mc-samples", "400000",
                   "--seed", "20250808"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        rc = main(["oracle", "--points", "5", "--mc-samples", "200"])
        assert rc == 1
        assert "FAIL mc vs analytic" in capsys.readouterr().out

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--which", "7"])
        assert exc.value.code == 2

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 3
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_values_exit_code(self, capsys):
        rc = main(["sweep", "--kappa1", "-2"])
        assert rc == 4
        assert "error" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "trimode.cli", "eval", "--tau", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "obr_single.obr1 = 1" in proc.stdout


def eval_values(capsys, *argv):
    assert main(["eval", *argv]) == 0
    out = capsys.readouterr().out
    return dict(line.split(" = ") for line in out.strip().splitlines())


class TestOverflow:
    """Moments past double precision exit 4 with one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--kappa1", "1.2", "--kappa2", "1.0", "--tau", "800"],
            ["eval", "--kappa1", "1.2", "--kappa2", "1.0", "--tau", "400"],
            ["sweep", "--tau-max", "800"],
        ],
    )
    def test_exit_code_and_single_error_line(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "overflow" in lines[0]

    def test_no_traceback_or_warning_on_stderr(self):
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "trimode.cli", "sweep",
             "--tau-max", "800", "--points", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


class TestLongTimeCertification:
    """Past tau = 7 the inference products used to cancel to rounding noise
    for (1.2, 1.0), and the flags then certified entanglement falsely."""

    #: obr23 at tau = 20, from the mpmath matrix exponential at 65 digits.
    OBR23_TAU20 = 0.006196103891029317

    @pytest.mark.parametrize("tau", ["15", "20", "25"])
    def test_single_products_do_not_certify(self, tau, capsys):
        values = eval_values(capsys, "--kappa1", "1.2", "--kappa2", "1.0", "--tau", tau)
        assert values["obr_single_flag"] == "false"
        assert abs(float(values["obr_single.obr2"]) - 1.0) <= 1e-12

    def test_pair_product_matches_mpmath(self, capsys):
        values = eval_values(capsys, "--kappa1", "1.2", "--kappa2", "1.0", "--tau", "20")
        got = float(values["obr_pair.obr23"])
        assert abs(got - self.OBR23_TAU20) <= 1e-10 * self.OBR23_TAU20


class TestNearDegenerateCorridor:
    """Where kappa1 ~ kappa2 the moments grow like (kappa / rate)^4 while the
    criteria stay of order one; reading the criteria off the moments used to
    lose every digit, even at tau <= 3, and deny entanglement."""

    @pytest.mark.parametrize(
        "kappa1,kappa2,tau",
        [
            ("1", "1.0000000011", "1"),
            ("1", "1.0000000011", "2"),
            ("1.0000000011", "1", "3"),
            ("1", "1.0000001", "3"),
        ],
    )
    def test_single_product_on_the_bound_and_pairs_certify(self, kappa1, kappa2,
                                                          tau, capsys):
        values = eval_values(capsys, "--kappa1", kappa1, "--kappa2", kappa2,
                             "--tau", tau)
        assert abs(float(values["obr_single.obr3"]) - 1.0) <= 1e-12
        assert values["obr_pair_flag"] == "true"
