"""No check in the package may be an assert, which python -O strips."""

import ast
from pathlib import Path

import rectdual

SRC = Path(rectdual.__file__).resolve().parent


def test_package_has_no_asserts():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py"))
    assert not found, found
