"""The program surface the benchmark in bench/ relies on.

bench/tracer.py rebinds public functions by (layer, name) and wraps the
__init__ of two value types; bench/workloads.py calls a handful of names
through the package.  Removing or renaming any of them breaks the
benchmark without failing any other test.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

import trimode
import trimode.cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracer):
    for layer, name, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"trimode.{layer}")
        assert callable(getattr(module, name)), f"trimode.{layer}.{name}"


def test_traced_classes_define_their_own_init(tracer):
    for layer, name in tracer.CLASSES:
        cls = getattr(importlib.import_module(f"trimode.{layer}"), name)
        assert "__init__" in cls.__dict__, f"trimode.{layer}.{name}"


def test_tracer_installs_and_uninstalls(tracer, capsys):
    originals = {name: getattr(trimode, name) for name in ("moments_at", "evaluate_all")}
    t = tracer.Tracer()
    t.install(trimode)
    try:
        assert trimode.cli.main(["eval", "--tau", "1"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    calls = dict(zip(t.names, t.calls))
    assert calls["cli.main"] == 1
    assert calls["criteria.evaluate_all"] == 1
    assert calls["core.MomentState"] >= 1
    assert {name: getattr(trimode, name) for name in originals} == originals


def test_tracer_reports_an_oracle_run(tracer, capsys):
    t = tracer.Tracer()
    t.install(trimode)
    try:
        # 1000 samples may fail the Monte Carlo bound (exit 1); the run
        # itself must complete under the tracer.
        rc = trimode.cli.main(["oracle", "--points", "3", "--mc-samples", "1000"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert rc in (0, 1)
    report = t.report(3)
    assert report
    for name, (value, _) in report.items():
        assert type(value) is float and math.isfinite(value), name


@pytest.mark.parametrize(
    "name", ["RunConfig", "run_sweep", "Couplings", "moments_at", "evaluate_all"]
)
def test_workload_names_exist(name):
    assert hasattr(trimode, name)
    assert name in trimode.__all__


def test_cli_entry_point_exists():
    assert callable(trimode.cli.main)
