"""Source checks that no linter runs for: every name that a module of the
package imports is used in that module, the export table names each public
name once, and every function that the benchmark's tracer wraps exists and
is in a module that `import metaaudit.cli` registers."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "metaaudit"


def _unused_imports(source: str) -> list[str]:
    """The names that source's import statements bind and no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a.
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os.path\nimport sys as system\nfrom math import exp, log\nlog(system.maxsize)\n"
    assert _unused_imports(source) == ["exp", "os"]


def _duplicate_keys(source: str, name: str) -> list[str]:
    """The keys that the dict literal assigned to name at module level repeats."""
    tree = ast.parse(source)
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name])
    keys = [key.value for key in table.keys]
    return sorted({key for key in keys if keys.count(key) > 1})


def test_the_export_table_names_each_public_name_once():
    # The dict keeps one entry for a repeated key, so only the source shows it.
    source = (_PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert _duplicate_keys(source, "_EXPORTS") == []


def test_a_duplicate_key_is_found():
    source = '_EXPORTS = {"a": "x", "b": "y", "a": "z"}\n'
    assert _duplicate_keys(source, "_EXPORTS") == ["a"]


def _tracer_targets():
    """perfbench/tracing.py's TARGETS, read from the file by path."""
    path = _ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_importing_the_cli_registers_every_module_the_tracer_patches():
    # The tracer wraps functions only in the modules that sys.modules lists
    # when it starts, which is just after `import metaaudit.cli` when it
    # replays simulate runs.
    result = subprocess.run(
        [sys.executable, "-c", "import sys, metaaudit.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    modules = {module for module, _, _ in _tracer_targets()}
    assert sorted(modules - set(result.stdout.split())) == []


@pytest.mark.parametrize(
    "module, attr", [pytest.param(module, attr, id=span) for module, attr, span in _tracer_targets()]
)
def test_every_tracer_target_is_a_function_of_the_package(module, attr):
    # The tracer skips a name it cannot find without an error, so a renamed
    # function would leave its layer unmeasured.
    function = getattr(importlib.import_module(module), attr, None)
    assert callable(function) and function.__module__ == module, (module, attr)
