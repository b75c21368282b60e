"""The benchmark reads the package by name: it traces functions by module
and name (bench/tracing.py, TRACED), and its workloads call attributes of the
imported package.  Each name must still resolve, or a benchmark run fails.
Its workloads' seed-0 answers must also match the stored references
(bench/references.json), or every benchmark run counts them as failed."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load(TRACING).TRACED


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


WORKLOADS = _load(BENCH / "workloads.py")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_seed_zero_answers_match_the_references(name):
    # a solve-path change that moves an answer past REL_TOL, or changes a
    # bounded sweep count, fails here and not only in a benchmark run
    workload = WORKLOADS.WORKLOADS[name]
    references = json.loads((BENCH / "references.json").read_text())["seeds"]["0"][name]
    prepared = workload.setup(workload.plan(0, False), False)
    assert sorted(key for key, _ in prepared.items) == sorted(references)
    for key, payload in prepared.items:
        outcome = workload.operation(payload)
        assert workload.problems(outcome) == [], key
        assert WORKLOADS.drift(workload.fingerprint(outcome), references[key]) == [], key
