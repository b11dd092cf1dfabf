"""Source checks that no linter runs for: every name that a module of the
package imports is used in that module, and every function that the
benchmark's tracer wraps exists."""

import ast
import importlib.util
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


def _tracer_targets():
    """perfbench/tracing.py's TARGETS, read from the file by path."""
    path = _ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [pytest.param(module, attr, id=span) for module, attr, span in tracing.TARGETS]


@pytest.mark.parametrize("module, attr", _tracer_targets())
def test_every_tracer_target_is_a_function_of_the_package(module, attr):
    # The tracer skips a name it cannot find without an error, so a renamed
    # function would leave its layer unmeasured.
    function = getattr(importlib.import_module(module), attr, None)
    assert callable(function) and function.__module__ == module, (module, attr)
