"""The dense P x P Xi is assembled (a `.toarray()` call) only by the readers
that need every entry: the xi_matrix.csv export, the eigenvalue fallback of
a stalled radius bracket, and assemble_xi_matrix, which the benchmark traces
by name.  No solve, sweep or certificate calls it, so a new dense read on
one of those paths fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "datamarket").glob("*.py"))

DENSE_READERS = {("market", "_power_bracket"), ("market", "assemble_xi_matrix"),
                 ("results", "xi_matrix_csv")}


def _toarray_callers(path: Path) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function or None) of each `.toarray()`
    call in one module."""
    callers = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "toarray"):
                callers.append((path.stem, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return callers


def test_dense_xi_is_read_only_where_every_entry_is_needed():
    callers = [caller for path in MODULES for caller in _toarray_callers(path)]
    assert sorted(callers) == sorted(DENSE_READERS)  # each reader assembles once
