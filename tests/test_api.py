"""The program surface the benchmark in bench/ relies on.

bench/tracer.py rebinds public functions by (layer, name) and wraps the
__init__ of two value types; bench/workloads.py calls a handful of names
through the package.  Removing or renaming any of them breaks the
benchmark without failing any other test.  The last tests guard the
boundary between the package's modules: no module writes a frozen
object's attributes from outside core.py or probes a private attribute,
none forms a moment block with a BLAS Gram product, only core.py
states the sign table that turns an X block into its Y block, and only
oracle.py names the RK4 step density.
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


@pytest.mark.parametrize("layer", ["core", "criteria", "oracle", "propagator", "sweep"])
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"trimode.{layer}")
    for name in module.__all__:
        assert getattr(module, name) is getattr(trimode, name), f"trimode.{layer}.{name}"


def test_package_exports_each_name_once():
    assert len(trimode.__all__) == len(set(trimode.__all__))
    for name in trimode.__all__:
        assert hasattr(trimode, name), name


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


def _transposed(node):
    """The expression node is the transpose of: x for x.T, x.swapaxes(...),
    x.transpose(...) or np.ascontiguousarray of one of these; else None."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return node.value
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if name in ("swapaxes", "transpose") and isinstance(fn, ast.Attribute):
            return fn.value
        if name == "ascontiguousarray" and len(node.args) == 1:
            return _transposed(node.args[0])
    return None


def _gram_products(source, name):
    """@ products in source that form a Gram matrix: the outer factors of
    the product chain are a matrix and its transpose, as in m @ m.T,
    m.T @ m or the sandwich m @ w @ m.swapaxes(-1, -2)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
            continue
        first, last = node.left, node.right
        while isinstance(first, ast.BinOp) and isinstance(first.op, ast.MatMult):
            first = first.left
        while isinstance(last, ast.BinOp) and isinstance(last.op, ast.MatMult):
            last = last.right
        for a, b in ((first, last), (last, first)):
            base = _transposed(a)
            if base is not None and ast.dump(base) == ast.dump(b):
                found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
                break
    return found


def test_gram_check_finds_each_form():
    source = "\n".join([
        "s = m @ np.ascontiguousarray(m.swapaxes(-1, -2))",
        "w = z.T @ z",
        "w = a @ a.T",
        "s = m @ np.array([w, w]) @ m.swapaxes(-1, -2)",
        "s = m.transpose(0, 2, 1) @ m",
        "d = self.mx @ self.my.T",
        "f = m @ a",
    ])
    assert [hit.split()[0] for hit in _gram_products(source, "x")] == [
        "x:1", "x:2", "x:3", "x:4", "x:5"]


def test_no_module_forms_a_gram_matrix_with_matmul():
    # Every covariance block comes from the row dot products of
    # core._row_moments, exactly symmetric by construction; @ is left to
    # products of propagators.
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths
    assert [hit for path in paths
            for hit in _gram_products(path.read_text(encoding="utf-8"), path.name)] == []


def test_no_module_sets_or_probes_hidden_attributes():
    # Only core.py builds its frozen value types, and a state's rows are a
    # declared field, so no module needs a hidden attribute of another.
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _boundary_crossings(path)] == []


def test_one_sign_table_turns_x_blocks_into_y_blocks():
    # core.py alone knows that a Y block is S m S of its X block; the
    # modules that form Y blocks hold its _FLIP rather than a copy.
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths
    stores = [f"{path.name}:{node.lineno}" for path in paths
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Name) and node.id == "_FLIP"
              and isinstance(node.ctx, ast.Store)]
    assert [store.split(":")[0] for store in stores] == ["core.py"]
    for layer in ("propagator", "oracle", "sweep"):
        assert importlib.import_module(f"trimode.{layer}")._FLIP is trimode.core._FLIP


def test_only_the_rk4_kernel_names_its_step_density():
    # _rk4_grid derives every step count from RK4_STEPS_PER_UNIT_TAU, so no
    # other module states, imports or documents the density.
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths
    assert [path.name for path in paths
            if "RK4_STEPS_PER_UNIT_TAU" in path.read_text(encoding="utf-8")] == ["oracle.py"]
    assert trimode.RK4_STEPS_PER_UNIT_TAU is trimode.oracle.RK4_STEPS_PER_UNIT_TAU
