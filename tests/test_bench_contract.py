"""The benchmark traces functions by name (bench/tracing.py, TRACED); each
one must still exist in its module, or a traced benchmark run fails when it
installs its spans."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, function_name",
                         [(module, function) for module, function, _ in _traced()])
def test_traced_function_exists(module_name, function_name):
    module = importlib.import_module(f"datamarket.{module_name}")
    assert callable(getattr(module, function_name, None))
