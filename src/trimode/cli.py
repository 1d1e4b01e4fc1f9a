"""Command-line interface.

Subcommands:
  sweep    criteria over a tau grid, written as CSV (stdout or --out)
  figures  CSV data for the published figures 1..5 plus parameter sidecars
  oracle   cross-check every moment path; exits nonzero when any fails
  eval     criteria at a single tau, printed as key=value lines

Exit codes: 0 success, 1 failed oracle comparison, 2 usage error,
3 file I/O error, 4 invalid parameter values or a grid too large for
memory.  A subcommand takes flags only for the RunConfig fields it reads.
A config file (--config, flat key=value lines with '#' comments) may hold
every field, so one file serves every command; a command takes from it
out and the fields it reads, as defaults, and explicit flags always win.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import sys

from .core import _check_time
from .criteria import evaluate_all
from .propagator import moments_at
from .sweep import (
    FIGURE_PRESETS,
    RunConfig,
    _raw_times,
    _run_metadata,
    _write,
    load_config_file,
    reproduce_figure,
    run_oracle_check,
    run_sweep,
    sweep_csv_text,
    write_sweep_csv,
)

__all__ = ["build_parser", "main"]

def build_parser():
    parser = argparse.ArgumentParser(
        prog="trimode",
        description=(
            "Quadrature moment dynamics and tripartite entanglement criteria "
            "for three modes coupled by interlinked parametric interactions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in (
        ("sweep", "criteria over a tau grid"), ("figures", "figure data as CSV"),
        ("oracle", "cross-check the moment paths"), ("eval", "criteria at one tau"))}
    for f in dataclasses.fields(RunConfig):
        kind = type(f.default)
        choices = [m.value for m in kind] if issubclass(kind, enum.Enum) else None
        default = getattr(f.default, "value", f.default)
        for name in f.metadata.get("commands", ()):  # out: each command's own --out
            commands[name].add_argument(
                "--" + f.name.replace("_", "-"), type=str if choices else kind,
                choices=choices, help=f"{f.metadata['help']} (default {default})")
    for p in commands.values():
        p.add_argument("--config", help="key=value config file; it may hold every RunConfig "
                       "field, this command uses those it reads; flags override it")

    commands["sweep"].add_argument("--out", help="output CSV path (default: stdout)")
    presets = [str(n) for n in sorted(FIGURE_PRESETS)]
    commands["figures"].add_argument(
        "--which", default="all", choices=[*presets, "all"],
        help=f"figure number {presets[0]}..{presets[-1]} or 'all' (default all)")
    commands["figures"].add_argument("--out", help="output directory (default: current)")
    commands["oracle"].add_argument("--out", help="optional report file")
    commands["eval"].add_argument("--tau", type=float, required=True, help="dimensionless time")

    return parser


@functools.cache
def _parser():
    """The one parser main uses: building it costs more than a short sweep,
    and parse_args keeps no state between calls."""
    return build_parser()


def _merge_config(args):
    """Resolve flags > config file > RunConfig defaults.

    Every RunConfig field is a config key, and a flag of the same name
    where the command reads it; a file value applies only to out and the
    fields the command reads, so a command never fails on one it ignores.
    A value is cast with the type of the field's default (str for out),
    and a file value that fails its cast is a ValueError naming its key.
    """
    file_values = {} if args.config is None else load_config_file(args.config)
    fields = dataclasses.fields(RunConfig)
    unknown = set(file_values) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    kwargs = {}
    for f in fields:
        value = getattr(args, f.name, None)
        if value is None and args.command in f.metadata.get("commands", (args.command,)):
            value = file_values.get(f.name)
        if value is not None:
            cast = str if f.default is None else type(f.default)
            try:
                kwargs[f.name] = cast(value)
            except ValueError as exc:
                raise ValueError(f"config key {f.name!r}: {exc}") from None
    return RunConfig(**kwargs)


def _cmd_sweep(cfg):
    result = run_sweep(cfg)
    if cfg.out:
        write_sweep_csv(result, cfg.out)
    else:
        sys.stdout.write(sweep_csv_text(result))
    return 0


def _cmd_figures(cfg, which, out_dir):
    numbers = sorted(FIGURE_PRESETS) if which == "all" else [int(which)]
    for number in numbers:
        print(" ".join(reproduce_figure(number, out_dir, cfg)))
    return 0


def _cmd_oracle(cfg):
    reports = run_oracle_check(cfg)
    lines = []
    all_passed = True
    for name, report in reports:
        status = "PASS" if report.passed else "FAIL"
        all_passed &= report.passed
        lines.append(
            f"{status} {name}: max_rel={report.max_rel_err:.3e} "
            f"max_abs={report.max_abs_err:.3e} tol={report.tolerance:.0e} "
            f"worst={report.worst_entry[0].value}[{report.worst_entry[1]},"
            f"{report.worst_entry[2]}] tau={report.worst_entry[3]:.6g}"
        )
    text = "\n".join(lines) + "\n"
    if cfg.out:
        _write(cfg.out, text)
    sys.stdout.write(text)
    return 0 if all_passed else 1


def _cmd_eval(cfg, tau):
    tau = _check_time(tau, "tau")
    t = _raw_times(cfg, tau)
    report = evaluate_all(moments_at(cfg.couplings, t), t, cfg.sign)
    print(f"tau = {tau:.17g}")
    print(f"t = {report.t:.17g}")
    for key, value in _run_metadata(cfg):
        print(f"{key} = {value}")
    for name in ("vlf_raw", "vlf_opt", "gains", "obr_single", "obr_pair"):
        values = getattr(report, name)
        for field, value in zip(values._fields, values):
            print(f"{name}.{field} = {value:.17g}")
    for name in ("vlf_flag", "obr_single_flag", "obr_pair_flag"):
        print(f"{name} = {str(getattr(report, name)).lower()}")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        if args.command == "figures":
            return _cmd_figures(cfg, args.which, cfg.out or ".")
        if args.command == "oracle":
            return _cmd_oracle(cfg)
        return _cmd_eval(cfg, args.tau)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a grid too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
