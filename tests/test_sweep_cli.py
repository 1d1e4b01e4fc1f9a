"""Sweep engine, CSV emission, figure reproduction and the CLI."""

import argparse
import contextlib
import dataclasses
import enum
import io
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trimode.cli
import trimode.core
import trimode.oracle
import trimode.propagator
import trimode.sweep
from trimode import (
    CRITERIA,
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

#: The environment of a CLI subprocess: the directory that holds the
#: imported trimode package comes first on its PYTHONPATH.
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(trimode.core.__file__).resolve().parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ),
}


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
            dict(kappa1=10**400),
            dict(mc_samples=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("points", [3.0, 2.5, True, np.float64(5.0)])
    def test_points_must_be_an_integer(self, points):
        # A float grid size must be named here, not fail inside np.linspace.
        message = f"points must be an integer, got {points!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(points=points)
        assert RunConfig(points=np.int64(3)).taus().tolist() == [0.0, 1.5, 3.0]

    @pytest.mark.parametrize("name", ["seed", "mc_samples"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(5.0)])
    def test_the_other_int_fields_must_be_integers(self, name, value):
        # Checked as points is, not first inside an oracle run.
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(**{name: value})
        assert getattr(RunConfig(**{name: np.int64(3)}), name) == 3

    @pytest.mark.parametrize("name,value", [
        ("sign", "plus"), ("sign", None), ("tau_convention", "rate"),
        ("tau_convention", Sign.PLUS),
    ])
    def test_the_enum_fields_must_be_members(self, name, value):
        # Checked at construction: the oracle never reads the sign, so a
        # run_oracle_check on a bad one used to pass without a word.
        kind = type(getattr(RunConfig(), name)).__name__
        message = f"{name} must be a {kind}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig(points=3, **{name: value})

    @pytest.mark.parametrize("kwargs,name", [
        (dict(tau_max=10**400), "tau_max"),
        (dict(tau_min=10**400, tau_max=10**401), "tau_min"),
    ])
    def test_int_time_past_the_double_range(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got"):
            RunConfig(**kwargs)

    def test_taus_must_be_strictly_increasing(self):
        # 301 points on [0, 1e-320] round to repeated subnormals.
        with pytest.raises(ValueError, match="^taus must be strictly increasing$"):
            RunConfig(tau_max=1e-320).taus()
        taus = RunConfig(tau_max=1e-320, points=3).taus()
        assert taus[0] < taus[1] < taus[2] == 1e-320

    @pytest.mark.parametrize("real", [np.float32, np.int64, Fraction],
                             ids=["float32", "int64", "Fraction"])
    def test_taus_are_the_float_grid_whatever_the_endpoint_type(self, real):
        # A float32 tau_max once gave a float32 grid: 288 of its 301 taus
        # differed from the float grid's, by up to 1.8e-7.
        for lo, hi in ((0, 3), (1, 3), (2, 7)):
            want = RunConfig(tau_min=float(lo), tau_max=float(hi)).taus()
            for kwargs in (dict(tau_min=float(lo), tau_max=real(hi)),
                           dict(tau_min=real(lo), tau_max=float(hi)),
                           dict(tau_min=real(lo), tau_max=real(hi))):
                taus = RunConfig(**kwargs).taus()
                assert taus.dtype == np.float64
                assert taus.tobytes() == want.tobytes()


class TestTimeScale:
    def test_rate_convention(self):
        assert time_scale(HYP, TauConvention.RATE) == pytest.approx(rate_of(HYP))
        assert time_scale(PER, TauConvention.RATE) == pytest.approx(rate_of(PER))

    def test_max_kappa_convention(self):
        assert time_scale(HYP, TauConvention.MAX_KAPPA) == 1.2
        assert time_scale(PER, TauConvention.MAX_KAPPA) == 1.8

    def test_degenerate_rate_falls_back(self):
        assert time_scale(DEG, TauConvention.RATE) == 1.0

    @pytest.mark.parametrize("convention", ["rate", "maxkappa", None])
    def test_convention_must_be_a_tau_convention(self, convention):
        # A string must not silently select a time scale.
        with pytest.raises(ValueError, match="convention must be"):
            time_scale(HYP, convention)
        with pytest.raises(ValueError, match="convention must be"):
            run_sweep(RunConfig(points=3, tau_convention=convention))


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

    def test_sign_must_be_a_sign(self):
        with pytest.raises(ValueError, match="sign must be"):
            run_sweep(RunConfig(points=3, sign="plus"))

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
        csv_path, sidecar = reproduce_figure(1, tmp_path, RunConfig(points=11))
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
        csv_path, _ = reproduce_figure(3, tmp_path, RunConfig(points=21))
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
        csv_path, _ = reproduce_figure(4, tmp_path, RunConfig(points=31))
        _, columns, rows = parse_csv(Path(csv_path).read_text())
        assert columns == ["tau", "obr23", "obr13", "obr12"]
        for row in rows:
            values = dict(zip(columns, row))
            if values["tau"] == 0.0:
                continue
            assert values["obr23"] < 4.0
            assert values["obr13"] < 4.0
            assert values["obr12"] < 4.0

    @pytest.mark.parametrize("which", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
    def test_columns_are_the_plotted_criteria_of_each_panel(self, which, sign, tmp_path):
        csv_path, _ = reproduce_figure(which, tmp_path,
                                       RunConfig(points=23, tau_max=4.5, sign=sign))
        _, columns, rows = parse_csv(Path(csv_path).read_text())
        table = np.array(rows)
        kind, _, couplings = trimode.sweep.FIGURE_PRESETS[which]
        plotted = {"vlf": CRITERIA[:6], "obr_single": CRITERIA[9:12],
                   "obr_pair": CRITERIA[12:]}[kind]
        labels = ("_left", "_right") if len(couplings) == 2 else ("",)
        assert columns == ["tau"] + [n + s for s in labels for n in plotted]
        for label, (kappa1, kappa2) in zip(labels, couplings):
            sweep = run_sweep(RunConfig(kappa1=kappa1, kappa2=kappa2, tau_max=4.5,
                                        points=23, sign=sign))
            assert np.array_equal(table[:, 0], sweep.taus)
            for name in plotted:
                got = table[:, columns.index(name + label)]
                assert np.array_equal(got, sweep.values[:, CRITERIA.index(name)])

    def test_fig3_sidecar(self, tmp_path):
        _, sidecar = reproduce_figure(3, tmp_path,
                                      RunConfig(points=21, tau_max=2.5, sign=Sign.MINUS))
        assert Path(sidecar).read_text().splitlines() == [
            "figure 3: obr_single criteria",
            "left panel: kappa1 = 1.2, kappa2 = 1",
            "right panel: kappa1 = 1, kappa2 = 1.8",
            "tau = rate * t on [0, 2.5], 21 points",
            "inference sign: minus",
        ]

    def test_reads_only_the_grid_and_sign(self, tmp_path):
        # Panels pin their couplings and tau = rate * t whatever cfg holds.
        base = RunConfig(points=21, tau_max=2.5)
        other = RunConfig(kappa1=2.0, kappa2=0.5, tau_max=2.5, points=21, seed=9,
                          mc_samples=7, tau_convention=TauConvention.MAX_KAPPA)
        for which in (1, 3):
            a = reproduce_figure(which, tmp_path / "a", base)
            b = reproduce_figure(which, tmp_path / "b", other)
            assert [Path(p).read_bytes() for p in a] == [Path(p).read_bytes() for p in b]

    @pytest.mark.parametrize("which", [6, True, 1.0])
    def test_invalid_figure_number(self, which, tmp_path):
        # True and 1.0 hash as 1 but would name figTrue.csv and fig1.0.csv.
        with pytest.raises(ValueError, match="figure must be one of"):
            reproduce_figure(which, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_figure_number(self, tmp_path):
        paths = reproduce_figure(np.int64(1), tmp_path, RunConfig(points=11))
        assert [Path(p).name for p in paths] == ["fig1.csv", "fig1_params.txt"]
        assert Path(paths[1]).read_text().startswith("figure 1: ")


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

    def test_seed_must_be_an_integer(self):
        # Seed 2.9 must not run the Monte Carlo comparison at seed 2.
        with pytest.raises(ValueError, match="^seed must be an integer, got 2.9$"):
            run_oracle_check(RunConfig(points=3, seed=2.9))

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

    def test_no_flag_carries_over_to_a_later_call(self, tmp_path, capsys):
        # main reuses one parser: each call must see only its own flags.
        report = tmp_path / "oracle.txt"
        assert main(["sweep", "--points", "3", "--kappa2", "1.8",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert main(["figures", "--which", "2", "--points", "5",
                     "--out", str(tmp_path / "one")]) == 0
        assert main(["oracle", "--points", "3", "--out", str(report)]) == 0
        report.unlink()
        capsys.readouterr()

        assert main(["sweep"]) == 0
        meta, _, rows = parse_csv(capsys.readouterr().out)
        assert (meta["kappa2"], len(rows)) == ("1", RunConfig().points)
        assert main(["figures", "--points", "5", "--out", str(tmp_path / "all")]) == 0
        assert len(list((tmp_path / "all").glob("fig*.csv"))) == len(trimode.sweep.FIGURE_PRESETS)
        assert main(["oracle", "--points", "3"]) == 0
        assert not report.exists()
        assert main(["eval", "--tau", "1"]) == 0
        assert "kappa2 = 1\n" in capsys.readouterr().out

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
        # The file sets every field; the flags only those the command reads.
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()
                 if k.replace("-", "_") in READS[command]]
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
                                      "sign = sideways", "points = 3.5", "points = 3.0",
                                      "kappa1 = abc"])
    def test_bad_config_values_exit_4(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["sweep", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"'{line.partition('=')[0].strip().replace('-', '_')}'" in err

    def test_config_file_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text("kappa1 = 1.0\npoints = 3\n", encoding="utf-8")
        marked.write_text("kappa1 = 1.0\npoints = 3\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["sweep", "--config", str(plain)]) == 0
        want = capsys.readouterr()
        assert main(["sweep", "--config", str(marked)]) == 0
        assert capsys.readouterr() == want
        assert "# kappa1 = 1\n" in want.out

    #: A bad value of every field some other command reads.
    UNREAD = {"kappa1": "0", "kappa2": "-1", "tau_min": "0.6", "tau_max": "0.5",
              "points": "1", "tau_convention": "sideways", "sign": "sideways",
              "seed": "nope", "mc_samples": "0"}

    @pytest.mark.parametrize("command,argv", [
        ("eval", ["--tau", "1"]), ("figures", ["--which", "1", "--out", "{tmp}"]),
        ("oracle", ["--points", "3"]), ("sweep", ["--points", "3"])])
    def test_config_values_of_fields_the_command_does_not_read_are_ignored(
            self, command, argv, tmp_path, capsys):
        # One file serves every command: eval with points = 1 in it runs.
        argv = [command, *(a.format(tmp=tmp_path) for a in argv)]
        assert main(argv) == 0
        want = capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in self.UNREAD.items()
                               if k not in READS[command]))
        assert main([*argv, "--config", str(cfg)]) == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("line", ["colour = red", "sign = sideways", "kappa1 = 0",
                                      "tau_convention = sideways"])
    def test_eval_config_still_rejects_unknown_keys_and_bad_values_it_reads(
            self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["eval", "--tau", "1", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_out_applies_to_every_command_that_writes(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'report.txt'}\npoints = 1\n")
        assert main(["oracle", "--points", "3", "--config", str(cfg)]) == 0
        assert (tmp_path / "report.txt").read_text() == capsys.readouterr().out

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

    @pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
    def test_eval_names_an_invalid_tau(self, tau, capsys):
        assert main(["eval", "--tau", tau]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tau must be finite and >= 0, got {float(tau)!r}\n"

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("kappas", [("1.2", "1.0"), ("1.0", "1.8"), ("1.0", "1.0")])
    def test_eval_at_negative_zero_is_eval_at_zero(self, kappas, sign, capsys):
        # tau, t and gains.g3 once printed -0.
        flags = ["--kappa1", kappas[0], "--kappa2", kappas[1], "--sign", sign]
        assert main(["eval", "--tau", "0", *flags]) == 0
        want = capsys.readouterr()
        assert main(["eval", "--tau", "-0.0", *flags]) == 0
        assert capsys.readouterr() == want
        assert "tau = 0\n" in want.out and "-0" not in want.out

    @pytest.mark.parametrize("command", [["sweep"], ["figures", "--which", "1"], ["oracle"]],
                             ids=["sweep", "figures", "oracle"])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_every_grid_command_rejects_repeated_taus(self, command, source, tmp_path, capsys):
        # oracle once printed PASS lines over this grid and exited 0.
        grid = {"tau-min": "0", "tau-max": "1e-320", "points": "301"}
        if source == "flags":
            args = [f"--{key}={value}" for key, value in grid.items()]
        else:
            path = tmp_path / "grid.cfg"
            path.write_text("".join(f"{key} = {value}\n" for key, value in grid.items()))
            args = ["--config", str(path)]
        out = tmp_path / "out"
        assert main([*command, *args, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: taus must be strictly increasing\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["sweep"], ["figures", "--which", "1"], ["oracle"]],
                             ids=["sweep", "figures", "oracle"])
    def test_a_grid_too_large_for_memory_exits_4(self, command, tmp_path, capsys, monkeypatch):
        # --points 1000000000000 once raised a MemoryError traceback out of
        # RunConfig.taus().  The failure is simulated: whether a real
        # allocation of 7.28 TiB fails at once depends on the machine's
        # overcommit setting.
        message = ("Unable to allocate 7.28 TiB for an array with shape "
                   "(1000000000000,) and data type float64")

        def too_large(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(RunConfig, "taus", too_large)
        out = tmp_path / "out"
        assert main([*command, "--points", "1000000000000", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {message}\n"
        assert not out.exists()

    def test_invalid_values_exit_code(self, capsys):
        rc = main(["sweep", "--kappa1", "-2"])
        assert rc == 4
        assert "error" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "trimode.cli", "eval", "--tau", "0"],
            capture_output=True,
            text=True,
            env=CLI_ENV,
        )
        assert proc.returncode == 0
        assert "obr_single.obr1 = 1" in proc.stdout


def subcommand_parsers():
    """{name: parser} of every trimode subcommand."""
    parser = trimode.cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


#: The RunConfig fields each subcommand reads, and so takes as flags.
READS = {
    "sweep": {"kappa1", "kappa2", "tau_min", "tau_max", "points", "tau_convention", "sign"},
    "figures": {"tau_min", "tau_max", "points", "sign"},
    "oracle": {"kappa1", "kappa2", "tau_min", "tau_max", "points", "tau_convention",
               "seed", "mc_samples"},
    "eval": {"kappa1", "kappa2", "tau_convention", "sign"},
}


class TestFlagsFromRunConfig:
    @pytest.mark.parametrize("command", ["sweep", "figures", "oracle", "eval"])
    def test_every_field_but_out_is_a_flag_stating_its_default(self, command):
        # A flag of exactly the commands its field declares, which READS pins.
        own = {"sweep": {"out"}, "figures": {"which", "out"}, "oracle": {"out"},
               "eval": {"tau"}}[command]
        actions = {a.dest: a for a in subcommand_parsers()[command]._actions}
        declared = {f.name for f in dataclasses.fields(RunConfig)
                    if command in f.metadata.get("commands", ())}
        assert declared == READS[command]
        assert set(actions) == {"help", "config", *own, *declared}
        for name in declared:
            default = getattr(RunConfig(), name)
            assert actions[name].option_strings == ["--" + name.replace("_", "-")]
            assert actions[name].help.endswith(
                f" (default {getattr(default, 'value', default)})")

    @pytest.mark.parametrize("argv", [
        ["eval", "--tau", "1", "--points", "1"],
        ["figures", "--which", "1", "--kappa1", "5"],
        ["oracle", "--sign", "minus"],
        ["sweep", "--seed", "3"],
    ], ids=" ".join)
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err

    def test_a_new_field_is_a_flag_and_a_config_key(self, monkeypatch, tmp_path, capsys):
        extended = dataclasses.make_dataclass(
            "ExtendedConfig",
            [("efficiency", float,
              trimode.sweep._option(1.0, "detector efficiency", ("sweep", "eval")))],
            bases=(RunConfig,), frozen=True)
        trimode.cli._parser.cache_clear()
        monkeypatch.setattr(trimode.cli, "RunConfig", extended)
        try:
            for command, listed in (("sweep", True), ("oracle", False)):
                with pytest.raises(SystemExit):
                    main([command, "--help"])
                assert ("--efficiency EFFICIENCY" in capsys.readouterr().out) == listed
            cfg = tmp_path / "run.cfg"
            cfg.write_text("efficiency = 0.25\npoints = 3\n")
            for argv, efficiency in ((["--efficiency", "0.5"], 0.5),
                                     (["--config", str(cfg)], 0.25), ([], 1.0)):
                args = trimode.cli._parser().parse_args(["eval", "--tau", "1", *argv])
                assert trimode.cli._merge_config(args).efficiency == efficiency
            assert main(["eval", "--tau", "1", "--config", str(cfg)]) == 0
            assert main(["figures", "--which", "1", "--out", str(tmp_path),
                         "--config", str(cfg)]) == 0
        finally:
            trimode.cli._parser.cache_clear()

    @pytest.mark.parametrize("flags", [[], ["--kappa1", "1", "--kappa2", "1.8", "--sign",
                                            "minus", "--tau-convention", "maxkappa"]])
    def test_eval_header_is_the_sweep_metadata(self, flags, capsys):
        assert main(["eval", "--tau", "1", *flags]) == 0
        header = capsys.readouterr().out.splitlines()[2:6]
        assert main(["sweep", "--points", "3", *flags]) == 0
        metadata = [line[2:] for line in capsys.readouterr().out.splitlines()
                    if line.startswith("# ")]
        assert header == metadata


#: trimode oracle stdout and exit code at its defaults in the three regimes
#: and for a run whose Monte Carlo comparison fails; a change to how the
#: paths are computed must leave these bytes as they are.  The expm lines
#: were re-pinned once, when the matrix exponential became a Horner
#: polynomial in t with no BLAS product (every max_rel went down); the
#: rk4 lines once, when RK4 began to step along the grid with no BLAS
#: product (every max_rel went down); and the periodic closed-form vs
#: analytic line once, when the periodic closed forms became the hyperbolic
#: ones continued to an imaginary rate (max_rel went down, 1.752e-15 to
#: 1.665e-15).  Every other line was held byte for byte each time.
ORACLE_REPORTS = {
    (): (0, """\
PASS analytic vs expm: max_rel=1.014e-14 max_abs=1.000e-11 tol=1e-09 worst=x[2,2] tau=2.79
PASS rk4 vs analytic: max_rel=1.727e-12 max_abs=3.248e-09 tol=1e-08 worst=x[0,0] tau=3
PASS closed-form vs analytic: max_rel=2.663e-15 max_abs=2.665e-15 tol=1e-09 worst=x[0,0] tau=0.01
PASS closed-form vs expm: max_rel=1.041e-14 max_abs=9.550e-12 tol=1e-09 worst=x[2,2] tau=2.79
PASS mc vs analytic: max_rel=3.570e-03 max_abs=8.183e-03 tol=1e-02 worst=y[1,1] tau=0.75
"""),
    ("--kappa1", "1.0", "--kappa2", "1.8"): (0, """\
PASS analytic vs expm: max_rel=6.468e-15 max_abs=3.375e-14 tol=1e-09 worst=x[0,0] tau=2.36
PASS rk4 vs analytic: max_rel=2.686e-12 max_abs=1.047e-11 tol=1e-08 worst=x[0,2] tau=2.73
PASS closed-form vs analytic: max_rel=1.665e-15 max_abs=5.329e-15 tol=1e-09 worst=x[0,2] tau=2.79
PASS closed-form vs expm: max_rel=6.638e-15 max_abs=3.464e-14 tol=1e-09 worst=x[0,0] tau=2.36
PASS mc vs analytic: max_rel=4.773e-03 max_abs=4.773e-03 tol=1e-02 worst=y[1,2] tau=1.5
"""),
    ("--kappa1", "1", "--kappa2", "1"): (0, """\
PASS analytic vs expm: max_rel=2.794e-15 max_abs=1.279e-13 tol=1e-09 worst=x[0,0] tau=2.77
PASS rk4 vs analytic: max_rel=3.091e-12 max_abs=1.839e-10 tol=1e-08 worst=x[0,0] tau=3
PASS mc vs analytic: max_rel=4.471e-03 max_abs=4.708e-03 tol=1e-02 worst=y[0,1] tau=0.75
"""),
    ("--points", "5", "--mc-samples", "200"): (1, """\
PASS analytic vs expm: max_rel=3.694e-15 max_abs=1.251e-12 tol=1e-09 worst=x[1,1] tau=2.25
PASS rk4 vs analytic: max_rel=1.921e-12 max_abs=3.613e-09 tol=1e-08 worst=x[0,0] tau=3
PASS closed-form vs analytic: max_rel=6.597e-16 max_abs=1.705e-13 tol=1e-09 worst=x[1,1] tau=2.25
PASS closed-form vs expm: max_rel=3.283e-15 max_abs=3.183e-12 tol=1e-09 worst=x[2,2] tau=3
FAIL mc vs analytic: max_rel=2.812e-01 max_abs=6.444e-01 tol=1e-02 worst=y[1,1] tau=0.75
"""),
}


@pytest.mark.parametrize("argv", list(ORACLE_REPORTS),
                         ids=lambda argv: " ".join(argv) or "defaults")
def test_oracle_report_bytes(argv, capsys):
    rc = main(["oracle", *argv])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (*ORACLE_REPORTS[argv], "")


#: Writes the golden sweeps and figures of tests/test_golden.py into
#: argv[1] with the same argv, runs trimode eval with each argv of
#: json.loads(argv[3]), and prints [{key: sha256}, [[exit code, stdout],
#: ...]] as JSON.
GOLDEN_DIGESTS = """
import contextlib, hashlib, io, json, pathlib, sys
from trimode.cli import main
out, digests, evals = pathlib.Path(sys.argv[1]), {}, []
for kappa1, kappa2, tau_max, sign in json.loads(sys.argv[2]):
    path = out / "sweep.csv"
    main(["sweep", "--kappa1", repr(kappa1), "--kappa2", repr(kappa2),
          "--tau-max", repr(tau_max), "--sign", sign, "--out", str(path)])
    key = repr((kappa1, kappa2, tau_max, sign))
    digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
for sign in ("plus", "minus"):
    with contextlib.redirect_stdout(io.StringIO()):
        main(["figures", "--sign", sign, "--out", str(out / sign)])
    for path in (out / sign).iterdir():
        digests[repr((sign, path.name))] = hashlib.sha256(path.read_bytes()).hexdigest()
for argv in json.loads(sys.argv[3]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        evals.append([main(["eval", *argv]), text.getvalue()])
print(json.dumps([digests, evals]))
"""

#: eval at the three figure couplings, both signs and taus up to 20.
EVAL_ARGVS = [["--kappa1", kappa1, "--kappa2", kappa2, "--sign", sign, "--tau", tau]
              for kappa1, kappa2 in (("1.2", "1.0"), ("1.0", "1.8"), ("1.0", "1.0"))
              for sign in ("plus", "minus") for tau in ("0.5", "3", "12.5", "20")]


def test_golden_bytes_do_not_depend_on_the_cpu(tmp_path, capsys):
    # numpy picks its float64 kernels per CPU and OpenBLAS its matmul
    # kernels: with the AVX2 and AVX-512 kernels off (names this numpy does
    # not know are ignored) every sweep and figure digest stays the same,
    # and eval prints what it prints here.  Goldens pinned with np.sinh in
    # place of libm's on an AVX-512 machine would fail here.
    from test_golden import FIGURES, SWEEPS

    env = {**CLI_ENV, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "OPENBLAS_CORETYPE": "Nehalem"}
    proc = subprocess.run([sys.executable, "-c", GOLDEN_DIGESTS, str(tmp_path),
                           json.dumps(list(SWEEPS)), json.dumps(EVAL_ARGVS)],
                          capture_output=True, text=True, env=env, check=True)
    digests, evals = json.loads(proc.stdout)
    assert digests == {repr(key): digest for key, digest in {**SWEEPS, **FIGURES}.items()}
    here = [[main(["eval", *argv]), capsys.readouterr().out] for argv in EVAL_ARGVS]
    assert [rc for rc, _ in here] == [0] * len(EVAL_ARGVS)
    assert evals == here


#: Runs trimode oracle with each argv of json.loads(argv[1]) and prints
#: the [exit code, stdout] of each as JSON.
ORACLE_RUNS = """
import contextlib, io, json, sys
from trimode.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(["oracle", *argv]), out.getvalue()])
print(json.dumps(runs))
"""


def test_oracle_lines_do_not_depend_on_the_cpu():
    # The matrix exponential, the RK4 steps and powers, the closed forms and
    # every moment block are written-out products and sums with no BLAS
    # kernel's rounding, and the Monte Carlo errors are statistical, far
    # above the rounding of its one BLAS product M A.  So with numpy's
    # AVX2/AVX-512 kernels and OpenBLAS's newer ones off every line stays
    # as pinned.
    env = {**CLI_ENV, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "OPENBLAS_CORETYPE": "Nehalem"}
    proc = subprocess.run([sys.executable, "-c", ORACLE_RUNS, json.dumps(list(ORACLE_REPORTS))],
                          capture_output=True, text=True, env=env, check=True)
    assert [tuple(run) for run in json.loads(proc.stdout)] == list(ORACLE_REPORTS.values())


#: One run of each subcommand; figures writes into the directory it is given.
CLI_RUNS = [["sweep"], ["figures", "--out", "figures"], ["oracle", "--points", "2"],
            ["eval", "--tau", "2.5"]]


def _cli_outputs(capsys):
    """(exit code, stdout, stderr) of each of CLI_RUNS in the working
    directory, then the name and bytes of every file the runs wrote."""
    runs = [(main(argv), *capsys.readouterr()) for argv in CLI_RUNS]
    return runs, {path.name: path.read_bytes() for path in sorted(Path("figures").iterdir())}


def test_no_cli_run_builds_a_state_through_its_checks(tmp_path, capsys, monkeypatch):
    # Every state a run evaluates is built from propagator rows, and the
    # oracle compares bare blocks, so no run reaches MomentState's checks
    # on hand-built blocks; a speed-up that routed one through them would
    # fail here.
    def refuse(self):
        raise AssertionError("MomentState.__post_init__ ran")

    outputs = []
    for where in (tmp_path / "plain", tmp_path / "refused"):
        if outputs:
            monkeypatch.setattr(trimode.core.MomentState, "__post_init__", refuse)
        where.mkdir()
        monkeypatch.chdir(where)
        outputs.append(_cli_outputs(capsys))
    assert [rc for rc, _, _ in outputs[0][0]] == [0] * len(CLI_RUNS)
    assert outputs[1] == outputs[0]


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
            env=CLI_ENV,
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


class TestOracleNonFinite:
    """An oracle path whose moments are not finite exits 4 with one error
    line: the expm and RK4 paths break down from about tau = 1e15 in the
    periodic regime, the Monte Carlo scatter of 10^6 samples overflows from
    about tau = 350 at (1.2, 1.0), and the analytic moments at tau = 800."""

    PERIODIC = ["oracle", "--kappa1", "1.0", "--kappa2", "1.8", "--points", "3"]

    @pytest.mark.parametrize("tau_max", ["1e15", "1e16", "1e305", "1e308"])
    def test_raises_value_error(self, tau_max):
        cfg = RunConfig(kappa1=1.0, kappa2=1.8, points=3, tau_max=float(tau_max))
        with pytest.raises(ValueError, match="choose a smaller tau"):
            run_oracle_check(cfg)

    @pytest.mark.parametrize(
        "argv",
        [
            PERIODIC + ["--tau-max", "1e15"],
            PERIODIC + ["--tau-max", "1e16"],
            PERIODIC + ["--tau-max", "1e308"],
            ["oracle", "--tau-max", "350", "--points", "3"],
            ["oracle", "--tau-max", "800"],
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

    def test_analytic_overflow_message(self, capsys):
        assert main(["oracle", "--tau-max", "800"]) == 4
        assert capsys.readouterr().err == (
            "error: second moments overflow double precision; choose a smaller tau\n"
        )

    @pytest.mark.parametrize("tau_max", ["1e15", "1e16"])
    def test_no_traceback_or_warning_on_stderr(self, tau_max):
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "trimode.cli", *self.PERIODIC,
             "--tau-max", tau_max],
            capture_output=True,
            text=True,
            env=CLI_ENV,
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


class TestDomainEdges:
    """Inputs at the edges of the double range run, or exit 4 with one
    error line, and never warn."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--tau", "1e-150", "--kappa1", "1e-170", "--kappa2", "2e-170"],
            ["eval", "--tau", "1", "--kappa1", "2e160", "--kappa2", "1e160"],
            # oracle refuses couplings outside the supported range as eval does.
            ["oracle", "--kappa1", "2e160", "--kappa2", "1e160"],
            ["oracle", "--kappa1", "1e-170", "--kappa2", "2e-170"],
            ["sweep", "--points", "3", "--tau-max", "1e300", "--kappa1", "1e-10",
             "--kappa2", "1e-10"],
        ],
    )
    def test_exit_code_and_single_error_line(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

    @pytest.mark.parametrize("kappas", [("1e-80", "5e-81"), ("1e100", "5e99"),
                                        ("5e99", "1e100"), ("1e-100", "5e-101"),
                                        ("1.5e-154", "1.3e154")])
    def test_closed_forms_pass_at_extreme_rates(self, kappas, capsys):
        # rate^4 as written is subnormal, zero or past the double range at
        # these couplings; the closed forms never form it.
        assert main(["oracle", "--kappa1", kappas[0], "--kappa2", kappas[1]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if "closed-form" in line] == [
            "PASS closed-form vs analytic", "PASS closed-form vs expm"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--points", "2", "--tau-max", "1e308", "--kappa1", "0.5", "--kappa2", "0.6"],
        ["oracle", "--points", "2", "--tau-max", "1e308", "--kappa1", "0.5", "--kappa2", "0.6"],
        ["eval", "--tau", "1.7e308", "--kappa1", "0.5", "--kappa2", "0.6"],
    ])
    def test_raw_time_past_the_double_range_names_tau(self, argv, capsys):
        # tau / rate overflows although tau itself is finite.
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "error: tau / time scale overflows double precision; choose a smaller tau\n")

    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["+10**400", "-10**400"])
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, fields in READS.items()
        for flag in ("points", "seed", "mc_samples") if flag in fields])
    def test_integer_flags_at_extreme_values(self, command, flag, value, tmp_path,
                                             monkeypatch, capsys):
        # numpy refuses a grid of 10**400 points before it allocates, and
        # --mc-samples 10**400 once raised OverflowError out of the
        # Wishart draw.  figures writes to the working directory.
        monkeypatch.chdir(tmp_path)
        rc = main([command, f"--{flag.replace('_', '-')}={value}"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

    @pytest.mark.parametrize("flag,value", [("seed", -1), ("seed", 2**128),
                                            ("mc-samples", 10**400)],
                             ids=["seed=-1", "seed=2**128", "mc-samples=10**400"])
    def test_bad_oracle_inputs_fail_before_any_path_runs(self, flag, value, monkeypatch,
                                                         capsys):
        # These once ran every deterministic path over the grid first, and
        # the sample count's error named n, not the field.
        def ran(*args):
            raise AssertionError("a moment path ran")

        for module in (trimode.propagator, trimode.oracle, trimode.sweep):
            if hasattr(module, "_expm"):
                monkeypatch.setattr(module, "_expm", ran)
        assert main(["oracle", f"--{flag}={value}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {flag.replace('-', '_')} must ")

    def test_sample_sums_past_the_double_range_name_the_sample_count(self, capsys):
        # The analytic moments are finite, so the count is at fault, not tau.
        assert main(["oracle", "--mc-samples", str(2**1023), "--points", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: Monte Carlo sums of ")
        assert line.endswith(" samples overflow double precision; choose a smaller sample count")
        assert "tau" not in line

    @pytest.mark.parametrize("n", [2**63, 2**70])
    def test_mc_samples_past_int64(self, n, capsys):
        assert main(["oracle", "--points", "3", "--mc-samples", str(n)]) == 0
        captured = capsys.readouterr()
        assert [line.split()[0] for line in captured.out.splitlines()] == ["PASS"] * 5
        assert captured.err == ""


#: CLI numbers across and past the double range, as a shell passes them:
#: magnitudes log-uniform in 1e-330 to 1e330 of either sign, and the zeros
#: and non-finite values.
cli_numbers = st.one_of(
    st.builds("{}{:.3f}e{}".format, st.sampled_from(["", "-"]),
              st.floats(min_value=1.0, max_value=9.999), st.integers(-330, 330)),
    st.sampled_from(["0", "-0", "nan", "inf", "-inf"]),
)


#: Values drawn for the int RunConfig flags: --points stays in [-1, 4], so
#: no draw allocates a large grid, the sample count reaches 2**80 and the
#: seed reaches past both ends of [0, 2**128).
INT_FLAGS = {"points": st.integers(-1, 4), "seed": st.integers(-1, 2**130),
             "mc_samples": st.integers(-1, 2**80)}


def flag_values(field):
    """Strategy for the CLI text of one RunConfig field's flag."""
    kind = type(field.default)
    if issubclass(kind, enum.Enum):
        return st.sampled_from([member.value for member in kind])
    return INT_FLAGS[field.name] if kind is int else cli_numbers


@st.composite
def cli_runs(draw):
    """eval at a drawn tau, sweep or oracle, with --points always drawn
    where the command reads it and each other flag of a RunConfig field it
    reads drawn or left out."""
    command = draw(st.sampled_from(["eval", "sweep", "oracle"]))
    argv = [command] + ([f"--tau={draw(cli_numbers)}"] if command == "eval" else [])
    for field in dataclasses.fields(RunConfig):
        if field.name in READS[command] and (field.name == "points" or draw(st.booleans())):
            argv.append(f"--{field.name.replace('_', '-')}={draw(flag_values(field))}")
    return argv


@settings(max_examples=250, deadline=None)
@given(cli_runs())
@example(["oracle", "--points", "3", "--mc-samples", "9223372036854775808"])
@example(["oracle", "--points", "3", "--seed", "-1"])
@example(["oracle", "--points", "3", "--seed", str(2**128)])
@example(["eval", "--tau", "1e-150", "--kappa1", "1e-170", "--kappa2", "2e-170"])
@example(["eval", "--tau", "1", "--kappa1", "2e160", "--kappa2", "1e160"])
@example(["oracle", "--kappa1", "1e100", "--kappa2", "5e99"])
@example(["oracle", "--kappa1", "1e-100", "--kappa2", "5e-101"])
@example(["sweep", "--points", "3", "--tau-max", "1e300", "--kappa1", "1e-10",
          "--kappa2", "1e-10"])
@example(["sweep", "--points", "2", "--tau-max", "1e308", "--kappa1", "0.5", "--kappa2", "0.6"])
@example(["oracle", "--points", "2", "--tau-max", "1e308", "--kappa1", "0.5", "--kappa2", "0.6"])
@example(["eval", "--tau", "1.7e308", "--kappa1", "0.5", "--kappa2", "0.6"])
def test_cli_exits_with_a_documented_code(argv):
    # Warnings are errors in this suite, so a leaked RuntimeWarning fails.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 1:
        assert argv[0] == "oracle"
        assert "FAIL " in out.getvalue()
    else:
        assert rc in (0, 2, 3, 4)
    if rc == 4:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        # A bare libm message names no input.
        assert err.getvalue() not in ("error: math domain error\n", "error: math range error\n")
    else:
        assert err.getvalue() == ""
