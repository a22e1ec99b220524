"""The package checks its invariants with raised errors, not `assert`.

`python -O` strips assert statements, so an invariant that certifies a
result (mass balance, unique victims, witness validity, closed forms) must
be a check that raises.  This parses every module of the package and fails
on any assert statement.
"""

import ast
from pathlib import Path

import fomlab

PACKAGE = Path(fomlab.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
