"""numpy is the package's one runtime dependency: every absolute import in
src/datamarket is the standard library or numpy, and pyproject.toml declares
numpy alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "datamarket").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "cli.py", "market.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_numpy(path):
    outside = [name for name in _absolute_imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names]
    assert outside == []


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]]
    assert names == ["numpy"]
