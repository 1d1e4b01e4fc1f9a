"""The program surface the benchmark in bench/ relies on.

bench/tracer.py rebinds public functions by (layer, name) and wraps the
__init__ of two value types; bench/workloads.py calls a handful of names
through the package.  Removing or renaming any of them breaks the
benchmark without failing any other test.  The last test guards the
boundary between the package's modules: no module writes a frozen
object's attributes from outside core.py or probes a private attribute.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import pytest

import trimode
import trimode.cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
SOURCE_DIR = Path(trimode.__file__).resolve().parent


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


def _boundary_crossings(path):
    """Calls in a source file that write a frozen object's attribute from
    outside core.py, or that probe an attribute named with a leading
    underscore through getattr/hasattr."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (isinstance(fn, ast.Attribute) and fn.attr == "__setattr__"
                and isinstance(fn.value, ast.Name) and fn.value.id == "object"
                and path.name != "core.py"):
            found.append(f"{path.name}:{node.lineno} object.__setattr__")
        if (isinstance(fn, ast.Name) and fn.id in ("getattr", "hasattr")
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
                and node.args[1].value.startswith("_")):
            found.append(f"{path.name}:{node.lineno} {fn.id}({node.args[1].value!r})")
    return found


def test_no_module_sets_or_probes_hidden_attributes():
    # Only core.py builds its frozen value types, and a state's rows are a
    # declared field, so no module needs a hidden attribute of another.
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _boundary_crossings(path)] == []
