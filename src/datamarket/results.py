"""Report serialization: JSON round-trips for solver results and CSV tables.

Result and welfare documents are written as json.dumps(doc, indent=2) + "\n"
would write them (fixed key order, tables in id order, float repr), but
straight from the tables' arrays, one join per table.  A table value or
diagnostic the reader would refuse raises DomainError instead of reaching
a document.  The reader reads each table into an array in one pass and
puts it in id order; only a table with a value that is not a finite float
goes through the per-field path, so every ParseError names its field.

CSV schemas (v1, fixed column order, full-precision decimals):

- beta.csv:       source,aggregator,beta
- gamma.csv:      source,aggregator,gamma
- xi.csv:         aggregator,paid_source,coupled_source,xi
- xi_matrix.csv:  row_source,row_aggregator then one column per (source:aggregator) pair
- sweep-alpha:    alpha,rho,status,max_a_total
- rounds:         round then y_<source>..., p_<source>_<aggregator>..., loss_<aggregator>...

An id field, or a column label holding an id, that contains a comma, a double
quote, CR or LF is quoted as RFC 4180 says: wrapped in double quotes, each
inner double quote doubled.  Other fields are written as they are.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from json.encoder import encode_basestring_ascii as _quoted

import numpy as np

from .equilibrium import (
    STATUS_BOUNDED,
    STATUS_NONE,
    STATUS_UNIQUE,
    AParameters,
    EquilibriumResult,
    IdTable,
    SolveDiagnostics,
    _aligned,
)
from .errors import DomainError, ParseError
from .market import DerivedParameters, _runs
from .scenario import _expect, _load_json, _number, _object, _read_table, _table
from .welfare import WelfareReport

RESULT_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# JSON writing
# ---------------------------------------------------------------------------

def _scalar(value, name: str, nan: bool = False) -> str:
    """A diagnostic's JSON text; one not finite raises DomainError, NaN
    aside when `nan`."""
    if not (math.isfinite(value) or (nan and math.isnan(value))):
        raise DomainError(f"result diagnostic {name} is not finite: {value}")
    return json.dumps(value)


def result_to_json(result: EquilibriumResult) -> str:
    """The canonical result document: fixed key order, tables in id order,
    full-precision decimals.  A number the reader would refuse (anything
    not finite but an unsolved result's NaN max_residual) raises DomainError."""
    diagnostics = result.diagnostics
    fields = [f'"schema_version": {RESULT_SCHEMA_VERSION}',
              f'"status": {_quoted(result.status)}',
              '"diagnostics": ' + _object([
                  '"spectral_radius": ' + _scalar(diagnostics.spectral_radius,
                                                  "spectral_radius"),
                  f'"iterations": {json.dumps(diagnostics.iterations)}',
                  '"max_residual": ' + _scalar(diagnostics.max_residual, "max_residual",
                                               nan=result.status == STATUS_NONE),
                  f'"marginal": {json.dumps(diagnostics.marginal)}'], 1)]
    if result.solved:
        fields += ['"a": ' + _table(IdTable.of(result.a.a), "a", 1, pairs=True),
                   '"canonical_c": ' + _table(IdTable.of(result.canonical_c), "canonical_c", 1,
                                              pairs=True),
                   '"efforts": ' + _table(IdTable.of(result.efforts), "efforts", 1)]
    return _object(fields, 0) + "\n"


def welfare_to_json(report: WelfareReport) -> str:
    return _object([
        '"equilibrium_efforts": ' + _table(IdTable.of(report.equilibrium_efforts),
                                           "equilibrium_efforts", 1),
        '"optimal_efforts": ' + _table(IdTable.of(report.optimal_efforts), "optimal_efforts", 1),
        *(f'"{name}": {json.dumps(getattr(report, name))}'
          for name in ("cost_at_equilibrium", "cost_at_optimum", "poa",
                       "efficient_possible", "offdiagonal_xi_max"))], 0) + "\n"


# ---------------------------------------------------------------------------
# JSON reading
# ---------------------------------------------------------------------------

def _totals(a: IdTable) -> IdTable:
    """Each source's sum of its weights, added in pair order as _finish adds
    them, so a read total is the solver's to the last bit."""
    runs = _runs(a.ids)
    source = np.repeat(np.arange(len(runs)), [hi - lo for lo, hi in runs.values()])
    return IdTable(runs, np.bincount(source, weights=a.array))


def result_from_json(text: str) -> EquilibriumResult:
    """A result document under the scenario number rule: numbers finite (an
    unsolved result's max_residual may be NaN), iterations an integer,
    spectral_radius and iterations not negative, `marginal` a boolean, tables
    objects keyed by id, in any key order.  a_total is derived from `a`.
    Another schema_version, or any field the rule refuses, raises ParseError
    naming it; unknown fields are ignored."""
    doc = _load_json(text, "result is not valid JSON")
    if not isinstance(doc, dict):
        raise ParseError("result document root must be an object")
    version = _expect(doc, "schema_version", int, "result")
    if version != RESULT_SCHEMA_VERSION:
        raise ParseError(f"result schema_version {version} unsupported: this reader reads "
                         f"version {RESULT_SCHEMA_VERSION}; run solve again to rewrite it")
    status = _expect(doc, "status", str, "result")
    if status not in (STATUS_UNIQUE, STATUS_BOUNDED, STATUS_NONE):
        raise ParseError(f"unknown status {status!r}", location="result")
    where = "result.diagnostics"
    diag_doc = _expect(doc, "diagnostics", dict, "result")
    residual = _expect(diag_doc, "max_residual", (int, float), where)
    if not (status == STATUS_NONE and isinstance(residual, float) and math.isnan(residual)):
        residual = _number(residual, "max_residual", where)
    diagnostics = SolveDiagnostics(
        spectral_radius=_expect(diag_doc, "spectral_radius", float, where),
        iterations=_expect(diag_doc, "iterations", int, where),
        max_residual=residual,
        marginal=_expect(diag_doc, "marginal", bool, where, default=False))
    for name in ("spectral_radius", "iterations"):
        if getattr(diagnostics, name) < 0:
            raise ParseError(f"field {name!r} must be nonnegative", location=where)
    if status == STATUS_NONE:
        return EquilibriumResult(status=status, a=None, canonical_c=None,
                                 efforts=None, diagnostics=diagnostics)
    a = _read_table(doc, "a", "result", pairs=True)
    return EquilibriumResult(
        status=status, a=AParameters(a=a, a_total=_totals(a)),
        canonical_c=_read_table(doc, "canonical_c", "result", pairs=True),
        efforts=_read_table(doc, "efforts", "result"), diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# CSV emission (full double precision; schemas documented above)
# ---------------------------------------------------------------------------

_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _field(text: str) -> str:
    """An id or a label as one CSV field, quoted when it must be."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _csv(rows) -> str:
    """Rows of Python ints, floats and CSV fields; str of a float is its repr."""
    return "".join([",".join(map(str, row)) + "\n" for row in rows])


def _pair_csv(params: DerivedParameters, name: str, values) -> str:
    return _csv([("source", "aggregator", name),
                 *((_field(s), _field(b), v) for (s, b), v in zip(params.pairs, values.tolist()))])


def beta_csv(params: DerivedParameters) -> str:
    return _pair_csv(params, "beta", params.beta)


def gamma_csv(params: DerivedParameters) -> str:
    return _pair_csv(params, "gamma", params.gamma)


def xi_csv(params: DerivedParameters) -> str:
    """The xi blocks keyed by id, over each aggregator's dataset pairs, with
    the unit own weight xi_b(s, s) = 1 on the diagonal."""
    rows = [("aggregator", "paid_source", "coupled_source", "xi")]
    for bid, block in zip(params.scenario.aggregator_ids, params.xi):
        label, ds = _field(bid), list(map(_field, params.scenario.dataset(bid)))
        rows += [(label, i, l, 1.0 if i == l else v)
                 for i, row in zip(ds, block.tolist()) for l, v in zip(ds, row)]
    return _csv(rows)


def xi_matrix_csv(params: DerivedParameters) -> str:
    header = ["row_source", "row_aggregator"]
    header += [_field(f"{s}:{b}") for (s, b) in params.pairs]
    rows = zip(params.pairs, params.coupling.toarray())  # Xi assembled for this export only
    return _csv(itertools.chain([header], ((_field(s), _field(b), *row.tolist())
                                           for (s, b), row in rows)))


def sweep_csv(points) -> str:
    rows = [("alpha", "rho", "status", "max_a_total")]
    rows += [(p.alpha, p.rho, p.status, p.max_a_total) for p in points]
    return _csv(rows)


def rounds_csv(scenario, rounds) -> str:
    """Per-round table in sorted id order; a round of another market raises ParseError."""
    sids, pairs, bids = scenario.source_ids, scenario.sharing_pairs(), scenario.aggregator_ids
    header = ["round", *(f"y_{s}" for s in sids), *(f"p_{s}_{b}" for s, b in pairs),
              *(f"loss_{b}" for b in bids)]
    return _csv(itertools.chain([map(_field, header)], (
        [r.index, *_aligned(r.responses, sids, "responses", f"round {r.index}").tolist(),
         *_aligned(r.payments, pairs, "payments", f"round {r.index}").tolist(),
         *_aligned(r.losses, bids, "losses", f"round {r.index}", "aggregator").tolist()]
        for r in rounds)))
