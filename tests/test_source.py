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
