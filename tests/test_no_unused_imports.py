"""Every name a package module imports is used in that module.

An import that nothing reads is dead code, or a rebinding point kept for a
tracer.  This parses each module of the package (`__init__` re-exports and
is left out) and fails on any imported name that its module never reads,
unless `perfbench/tracing.py`'s `_patches` rebinds that name in that module.
"""

import ast
import importlib.util
from pathlib import Path

import fomlab

PACKAGE = Path(fomlab.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _rebound_names() -> set[tuple[str, str]]:
    """(module name, attribute) of every name the tracer rebinds."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {
        (owner.__name__, attr)
        for owner, attr, _replacement in tracing._patches(tracing.Tracer())
    }


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_unused_imports_are_found():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(pi)\n"
    assert _unused_imports(source) == ["os", "system", "tau"]


def test_every_imported_name_is_read_or_rebound_by_the_tracer():
    rebound = _rebound_names()
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [
        (f"fomlab.{path.stem}", name)
        for path in modules
        for name in _unused_imports(path.read_text())
    ]
    assert [u for u in unused if u not in rebound] == []
