"""Contracts that no behavioural test sees.

``perfbench/spans.py`` times library calls by replacing module attributes
listed in its ``PATCHES`` table.  A renamed or removed name passes every
other test and only breaks the traced benchmark run, so the first test
checks the table against the package, and one test runs the traced
benchmark on each workload and checks that every layer the workload expects
recorded spans.  Likewise a name deleted from a
module can stay in ``anovafit.__all__`` or in a script under ``scripts/``
that no test runs, so two tests resolve ``__all__`` and import each script.

The library raises ``ConfigError``/``DataError`` where it finds a fault,
and the CLI's ``main`` maps only those onto exit codes.  A new bare
``raise ValueError``, a catch-all ``except ValueError`` in ``main`` or an
array argument converted by ``np.asarray(..., dtype=np.float64)`` anywhere
but inside ``errors.as_array`` itself would still pass the behavioural
tests, so the last three tests read the source.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "anovafit"
# converts a parse failure that load_csv catches internally
ALLOWED_VALUE_ERRORS = {("datasets", "_csv_cell")}
# the reader itself
ALLOWED_FLOAT_CONVERSIONS = {("errors", "as_array")}


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patches():
    return _load(SPANS, "perfbench_spans").PATCHES


@pytest.mark.parametrize("module_name, attr, span", _patches())
def test_patched_name_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert hasattr(module, attr), f"{module_name}.{attr} (span {span}) is missing"


@pytest.mark.parametrize("workload", ["friedman", "wide", "cli_pipeline"])
def test_traced_benchmark_records_every_expected_span(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if run.returncode == 3 and run.stderr.startswith("perfbench: MemAvailable"):
        pytest.skip(run.stderr.strip())
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True, run.stdout
    assert "  [ok] every layer expected on this workload recorded spans" in lines, run.stdout


def test_all_resolves_and_lists_every_imported_name():
    package = importlib.import_module("anovafit")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == [], f"anovafit.__all__ names {missing}, which do not resolve"
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unlisted = sorted(name for name in imported - set(package.__all__) if not name.startswith("_"))
    assert unlisted == [], f"anovafit/__init__.py imports {unlisted} but __all__ omits them"


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_imports(path):
    # each script runs main() only under __main__, so loading it only imports
    assert callable(_load(path, f"script_{path.stem}").main)


def _is_value_error(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return any(_is_value_error(elt) for elt in node.elts)
    return isinstance(node, ast.Name) and node.id == "ValueError"


def _is_float_conversion(node) -> bool:
    return (
        isinstance(node, ast.Call) and ast.unparse(node.func) == "np.asarray"
        and any(ast.unparse(kw) == "dtype=np.float64" for kw in node.keywords)
    )


def _sites(match):
    """``(module, enclosing function, line)`` of every package node that ``match`` accepts."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if match(node):
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                name = scope.name if isinstance(scope, ast.FunctionDef) else "<module>"
                found.append((path.stem, name, node.lineno))
    return found


def test_library_raises_typed_errors():
    found = _sites(lambda node: isinstance(node, ast.Raise) and _is_value_error(node.exc))
    assert {(module, name) for module, name, _ in found} >= ALLOWED_VALUE_ERRORS
    stray = [site for site in found if site[:2] not in ALLOWED_VALUE_ERRORS]
    assert stray == [], f"raise ConfigError or DataError instead of ValueError at {stray}"


def test_arrays_are_read_through_as_array():
    found = _sites(_is_float_conversion)
    assert {(module, name) for module, name, _ in found} >= ALLOWED_FLOAT_CONVERSIONS
    stray = [site for site in found if site[:2] not in ALLOWED_FLOAT_CONVERSIONS]
    assert stray == [], f"read array arguments through errors.as_array instead, at {stray}"


def test_cli_main_has_no_value_error_handler():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    handlers = [
        node.lineno
        for node in ast.walk(main)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and _is_value_error(node.type)
    ]
    assert handlers == [], f"cli.main catches ValueError at lines {handlers}"
