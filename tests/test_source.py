"""Properties of the package source itself."""

import ast
from pathlib import Path

import scsparc


def test_package_has_no_assert_statements():
    # validation must hold under `python -O`, which strips asserts
    files = sorted(Path(scsparc.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
