"""Properties of the package source itself."""

import ast
from pathlib import Path

import planesched

SOURCE = Path(planesched.__file__).parent


def test_no_assert_statement_in_the_package():
    """``python -O`` strips ``assert``, so every invariant the package checks
    must raise by hand; this keeps any check from vanishing under it."""
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
