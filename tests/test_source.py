"""Properties of the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("module, loaded", [
    ("gf", "gf"),
    ("universe", "cover gf plane roundrobin universe"),
    # the start-up path of every command: only ``estimate`` loads sim and numpy
    ("cli", "circuits cli cover gf graphcheck pauli plane roundrobin swapnet universe"),
], ids=["gf", "universe", "cli"])
def test_a_module_import_loads_only_what_that_module_uses(module, loaded):
    """The package root holds no code, so importing one module loads its
    own dependencies and nothing else: no other module, no numpy."""
    script = f"""
import sys
import planesched.{module}
print(*sorted(m.split(".")[1] for m in sys.modules if m.startswith("planesched.")))
print("numpy" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SOURCE.parent), os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{loaded}\nFalse\n"


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name the file imports and never reads.
    An unquoted annotation is an expression in the tree, so a read there
    counts; ``__future__`` imports are exempt."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}  # bound name -> line of its import
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_import_in_the_package_or_its_tests():
    """Every imported name is read somewhere in its file."""
    files = sorted(SOURCE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) > 2
    assert [found for path in files for found in unused_imports(path)] == []
