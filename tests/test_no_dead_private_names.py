"""Every private module-level name of the package is read in the package.

A `_`-prefixed function, class or constant at module level is not part of
the public API, so if no module of the package reads it, it is dead code (a
block-size constant left behind by a refactor, a helper whose last caller
went).  This parses every module of the package and fails on any such name
that is read nowhere but in its own definition; tests do not count as
readers.
"""

import ast
from pathlib import Path

import fomlab

PACKAGE = Path(fomlab.__file__).resolve().parent


def _private_definitions(tree: ast.Module) -> list[str]:
    """The `_`-prefixed, non-dunder names a module defines at top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(tree: ast.Module) -> set[str]:
    """Names read as a variable or an attribute, each top-level statement
    not counting the name it defines (a recursive call is no reader)."""
    read = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        read |= found
    return read


def _dead(sources: dict[str, str]) -> list[tuple[str, str]]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    )


def test_dead_private_names_are_found():
    sources = {
        "a": "_USED = 1\n_LEFT = 2\n__version__ = '1'\n"
        "def _loop(n):\n    return _loop(n - 1)\n"
        "class _Kept:\n    pass\n",
        "b": "from a import _USED\nimport a\nprint(_USED, a._Kept)\n"
        "def _helper():\n    pass\nPUBLIC = 3\n",
    }
    assert _dead(sources) == [("a", "_LEFT"), ("a", "_loop"), ("b", "_helper")]


def test_every_private_name_is_read_in_the_package():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert len(sources) > 1
    assert _dead(sources) == []
