"""The benchmark reads the package by name: it traces functions by module
and name (bench/tracing.py, TRACED), and its workloads call attributes of the
imported package.  Each name must still resolve, or a benchmark run fails."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def _bench_reads():
    """(file, module, attribute chain) of every attribute read through an
    `import datamarket... as alias` in bench/*.py, and of each `solve_name`
    value, which the workloads read as an attribute of the package."""
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name.split(".")[0] == "datamarket"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain, root = [], node
                while isinstance(root, ast.Attribute):
                    chain.insert(0, root.attr)
                    root = root.value
                if isinstance(root, ast.Name) and root.id in aliases:
                    reads.add((path.name, aliases[root.id], ".".join(chain)))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) \
                    and any(isinstance(t, ast.Name) and t.id == "solve_name"
                            for t in node.targets):
                reads.add((path.name, "datamarket", node.value.value))
    return sorted(reads)


@pytest.mark.parametrize("module_name, function_name",
                         [(module, function) for module, function, _ in _traced()])
def test_traced_function_exists(module_name, function_name):
    module = importlib.import_module(f"datamarket.{module_name}")
    assert callable(getattr(module, function_name, None))


def test_bench_reads_are_found():
    names = {chain for _, _, chain in _bench_reads()}
    assert {"solve_unbounded", "solve_bounded", "parse_scenario", "rounds_csv"} <= names


@pytest.mark.parametrize("file, module_name, chain", _bench_reads())
def test_bench_read_resolves(file, module_name, chain):
    target = importlib.import_module(module_name)
    for name in chain.split("."):
        assert hasattr(target, name), f"{file}: {module_name}.{chain}"
        target = getattr(target, name)
