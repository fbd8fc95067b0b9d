"""The benchmark tracer (``cvcbench/tracing.py``) wraps cvckit functions by
module and attribute name, and the benchmark scripts import cvckit names;
a rename in cvckit must fail here, not in a benchmark run.  The package
itself imports nothing outside the standard library, and no name it never
uses."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "cvcbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("cvcbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    for module_name, attr, _, _ in tracing.WRAPS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def _imports(path):
    return [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_every_benchmark_import_from_cvckit_resolves():
    checked = 0
    for path in sorted((ROOT / "cvcbench").glob("*.py")):
        for node in _imports(path):
            if not isinstance(node, ast.ImportFrom) or not (node.module or "").startswith("cvckit"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # a submodule, as in ``from cvckit import cli``
                    importlib.import_module(f"{node.module}.{alias.name}")
                checked += 1
    assert checked


def test_package_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "cvckit").rglob("*.py")):
        for node in _imports(path):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    continue
                names = [node.module]
            else:
                names = [alias.name for alias in node.names]
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


# Imported names that other code reads through the importing module.
READ_THROUGH = {("cli.py", "AUTO_FES_CAP")}  # cvcbench/workloads.py, tests/test_cli.py


def test_package_imports_no_unused_name():
    unused = []
    for path in sorted((ROOT / "src" / "cvckit").rglob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        rel = path.relative_to(ROOT / "src" / "cvckit").as_posix()
        for node in _imports(path):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and (rel, name) not in READ_THROUGH:
                    unused.append(f"{rel} imports {name}")
    assert not unused, unused
