"""The program surface the benchmark in bench/ relies on.

bench/tracer.py rebinds public functions by (layer, name) and wraps the
__init__ of two value types; bench/workloads.py calls a handful of names
through the package.  Removing or renaming any of them breaks the
benchmark without failing any other test.  The last tests guard the
boundary between the package's modules: no module writes a frozen
object's attributes from outside core.py or probes a private attribute,
none forms a moment block with a BLAS Gram product, only core.py
states the sign table that turns an X block into its Y block, only
oracle.py names the RK4 step density, and oracle.py owns the oracle run:
sweep.py imports no private name of oracle.py or propagator.py but the
run's entry, and the run's kernels are named only where they live and
where the oracle run or a tracer-pinned wrapper calls them, and the run
leaves each kernel to decide its own domain and overflow.  Three more
keep the package lean: no module imports a name it never uses, every
public function has a caller in the package or in the benchmark, and
every private function and constant has a reader in the package.
"""

import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import trimode
import trimode.cli

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
TRACER_PATH = BENCH_DIR / "tracer.py"
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
        # A propagated state skips MomentState.__init__, so a hand-built one
        # shows that the wrapped class is traced.
        trimode.MomentState(np.eye(3), np.eye(3))
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
    for layer in ("propagator", "oracle"):
        assert importlib.import_module(f"trimode.{layer}")._FLIP is trimode.core._FLIP


def test_only_the_rk4_kernel_names_its_step_density():
    # _rk4_grid derives every step count from RK4_STEPS_PER_UNIT_TAU, so no
    # other module states, imports or documents the density.
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths
    assert [path.name for path in paths
            if "RK4_STEPS_PER_UNIT_TAU" in path.read_text(encoding="utf-8")] == ["oracle.py"]
    assert trimode.RK4_STEPS_PER_UNIT_TAU is trimode.oracle.RK4_STEPS_PER_UNIT_TAU


def _private_references(source, names):
    """(line, name) of each place source imports, reads or reaches through
    an attribute one of names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_private_reference_check_finds_each_form():
    source = "from .oracle import _a, b\nx = _a(1) + oracle._c\ny = _d"
    assert _private_references(source, {"_a", "_c"}) == [(1, "_a"), (2, "_a"), (2, "_c")]


#: The oracle run's kernels and the modules that may name each one: the
#: run itself in oracle.py, and the tracer-pinned single-point wrappers of
#: expm and the closed forms in propagator.py.
ORACLE_KERNELS = {"_rk4_grid": {"oracle.py"}, "_mc_blocks": {"oracle.py"},
                  "_compare": {"oracle.py"}, "_expm": {"oracle.py", "propagator.py"},
                  "_closed_form_entries": {"oracle.py", "propagator.py"}}


def test_oracle_py_owns_the_oracle_run():
    # oracle._grid_reports decides what a run computes and compares; sweep
    # only turns a RunConfig into its grid.
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths
    found = {path.name: _private_references(path.read_text(encoding="utf-8"), ORACLE_KERNELS)
             for path in paths}
    assert [f"{module}:{line} {name}" for module, hits in found.items()
            for line, name in hits if module not in ORACLE_KERNELS[name]] == []
    tree = ast.parse((SOURCE_DIR / "sweep.py").read_text(encoding="utf-8"))
    assert [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("oracle", "propagator")
            for alias in node.names if alias.name.startswith("_")] == ["_grid_reports"]


def test_oracle_kernels_decide_their_own_domain():
    # Each kernel decides where its reference path exists (the closed forms
    # raise RegimeError at the degenerate point) and whether its result is
    # finite; the oracle run only calls the kernels and compares.
    source = (SOURCE_DIR / "oracle.py").read_text(encoding="utf-8")
    run = next(node for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and node.name == "_grid_reports")
    assert _private_references(ast.get_source_segment(source, run),
                               {"classify_regime", "RegimeKind", "_check_finite"}) == []
    assert _private_references(source, {"classify_regime", "RegimeKind"}) == []


def _exported(tree):
    """The names a module's top-level __all__ lists, or () without one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return tuple(ast.literal_eval(node.value))
    return ()


def _unused_imports(source, name):
    """Names that source imports but neither reads nor lists in its __all__;
    a __future__ import is a compiler directive, not a name."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and bound not in _exported(tree):
                found.append(f"{name}:{node.lineno} {bound}")
    return found


def test_unused_import_check_finds_each_form():
    source = "\n".join([
        "from __future__ import annotations",
        "import math, os",
        "import numpy as np",
        "import importlib.util",
        "from .core import A, B as C, D",
        "__all__ = ['D']",
        "x = math.pi + C",
        "np = 1",
    ])
    assert _unused_imports(source, "x") == ["x:2 os", "x:3 np", "x:4 importlib", "x:5 A"]


def test_no_module_imports_a_name_it_does_not_use():
    # There is no linter; an import that nothing reads is dead code.
    # __init__.py only re-exports the modules' names.
    paths = sorted(path for path in SOURCE_DIR.glob("*.py") if path.name != "__init__.py")
    assert paths
    assert [hit for path in paths
            for hit in _unused_imports(path.read_text(encoding="utf-8"), path.name)] == []


def _referenced(tree, calls_only=False):
    """Every bare name tree reads outside the body of the function of that
    name; with calls_only, every name it calls, bare or as an attribute.
    Within the package a function is always read by its bare name, so an
    attribute that shares a function's name (report.obr_single) is no call."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        name = None
        if calls_only and isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        elif not calls_only and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_public_function_has_a_caller(tracer):
    # The public API holds what the CLI, the figures and the oracle use,
    # plus what the benchmark calls or traces.  Classes and constants are
    # not checked.
    used = set()
    for path in SOURCE_DIR.glob("*.py"):
        used |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    used |= _referenced(ast.parse((BENCH_DIR / "workloads.py").read_text(encoding="utf-8")),
                        calls_only=True)
    used |= {name for _, name, _ in tracer.FUNCTIONS}
    functions = [name for name in trimode.__all__ if inspect.isfunction(getattr(trimode, name))]
    assert functions
    assert [name for name in functions if name not in used] == []


def _private_definitions(tree):
    """The private functions and constants tree defines at module level:
    names with a leading underscore, but no dunder such as __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_private_definition_check_finds_each_form():
    source = "\n".join([
        "__all__ = ['f']",
        "_A = 1",
        "_B, C = 2, 3",
        "_D: int = 4",
        "def _e():",
        "    _local = 5",
        "def f():",
        "    pass",
        "class _G:",
        "    _H = 6",
    ])
    assert _private_definitions(ast.parse(source)) == {"_A", "_B", "_D", "_e"}


def test_every_private_name_has_a_reader_in_the_package():
    # A private function or constant that only tests or the benchmark read
    # is a path no run takes; a function calling itself is no reader.
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE_DIR.glob("*.py"))]
    assert trees
    read = set().union(*map(_referenced, trees))
    defined = set().union(*map(_private_definitions, trees))
    assert defined
    assert sorted(defined - read) == []


def test_caller_check_ignores_a_function_calling_itself():
    source = "\n".join([
        "def f(n):",
        "    return f(n - 1) if n else g()",
        "def g():",
        "    return h",
        "x = obj.k(1)",
    ])
    assert _referenced(ast.parse(source)) == {"g", "h", "n", "obj"}
    assert _referenced(ast.parse(source), calls_only=True) == {"g", "k"}
