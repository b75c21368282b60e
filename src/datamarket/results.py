"""Report serialization: JSON round-trips for solver results and CSV tables.

CSV schemas (v1, fixed column order, full-precision decimals):

- beta.csv:       source,aggregator,beta
- gamma.csv:      source,aggregator,gamma
- xi.csv:         aggregator,paid_source,coupled_source,xi
- xi_matrix.csv:  row_source,row_aggregator then one column per (source:aggregator) pair
- sweep-alpha:    alpha,rho,status,max_a_total
- rounds:         round then y_<source>..., p_<source>_<aggregator>..., loss_<aggregator>...
"""

from __future__ import annotations

import io
import itertools
import json
import math

from .equilibrium import (
    STATUS_BOUNDED,
    STATUS_NONE,
    STATUS_UNIQUE,
    AParameters,
    EquilibriumResult,
    SolveDiagnostics,
    SourcePolytope,
)
from .errors import ParseError
from .market import DerivedParameters
from .scenario import _expect, _nest, _number, _numbers_by_id, _pairs_by_id
from .welfare import WelfareReport

RESULT_SCHEMA_VERSION = 1


def _source_polytope(doc, sid, location) -> SourcePolytope:
    """doc[sid]: one source's polytope entry."""
    p, location = _expect(doc, sid, dict, location), f"{location}.{sid}"
    floors = _numbers_by_id(p, "floors", location)
    dimension = _expect(p, "dimension", int, location)
    if not 0 <= dimension < len(floors):
        raise ParseError(f"field 'dimension' must lie in [0, {len(floors)}) "
                         f"for {len(floors)} floors", location=location)
    return SourcePolytope(surplus=_expect(p, "surplus", float, location), floors=floors,
                          total=_expect(p, "total", float, location), dimension=dimension)


def result_to_dict(result: EquilibriumResult) -> dict:
    doc = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "status": result.status,
        "diagnostics": {
            "spectral_radius": result.diagnostics.spectral_radius,
            "iterations": result.diagnostics.iterations,
            "max_residual": result.diagnostics.max_residual,
            "marginal": result.diagnostics.marginal,
        },
    }
    if result.solved:
        doc["a"] = _nest(result.a.a)
        doc["a_total"] = {sid: result.a.a_total[sid]
                          for sid in sorted(result.a.a_total)}
        doc["canonical_c"] = _nest(result.canonical_c)
        doc["efforts"] = {sid: result.efforts[sid] for sid in sorted(result.efforts)}
        doc["polytope"] = {
            sid: {
                "surplus": p.surplus,
                "floors": {bid: p.floors[bid] for bid in sorted(p.floors)},
                "total": p.total,
                "dimension": p.dimension,
            }
            for sid, p in sorted(result.polytope.items())
        }
    return doc


def result_from_dict(doc: dict) -> EquilibriumResult:
    """A result document under the scenario number rule: numbers finite (an
    unsolved result's max_residual may be NaN), counts integers (a polytope's
    dimension below its number of floors), `marginal` a boolean, tables
    objects keyed by id.  Unknown fields are ignored; anything else raises
    ParseError naming the field."""
    version = _expect(doc, "schema_version", int, "result")
    if version != RESULT_SCHEMA_VERSION:
        raise ParseError(f"result schema_version {version} unsupported")
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
    if status == STATUS_NONE:
        return EquilibriumResult(status=status, a=None, canonical_c=None,
                                 polytope=None, efforts=None, diagnostics=diagnostics)
    polytope_doc = _expect(doc, "polytope", dict, "result")
    return EquilibriumResult(
        status=status,
        a=AParameters(a=_pairs_by_id(doc, "a", "result"),
                      a_total=_numbers_by_id(doc, "a_total", "result")),
        canonical_c=_pairs_by_id(doc, "canonical_c", "result"),
        polytope={sid: _source_polytope(polytope_doc, sid, "result.polytope")
                  for sid in polytope_doc},
        efforts=_numbers_by_id(doc, "efforts", "result"),
        diagnostics=diagnostics)


def result_to_json(result: EquilibriumResult) -> str:
    return json.dumps(result_to_dict(result), indent=2) + "\n"


def result_from_json(text: str) -> EquilibriumResult:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ParseError(f"result is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("result document root must be an object")
    return result_from_dict(doc)


def welfare_to_dict(report: WelfareReport) -> dict:
    return {
        "equilibrium_efforts": dict(sorted(report.equilibrium_efforts.items())),
        "optimal_efforts": dict(sorted(report.optimal_efforts.items())),
        "cost_at_equilibrium": report.cost_at_equilibrium,
        "cost_at_optimum": report.cost_at_optimum,
        "poa": report.poa,
        "efficient_possible": report.efficient_possible,
        "offdiagonal_xi_max": report.offdiagonal_xi_max,
    }


def welfare_to_json(report: WelfareReport) -> str:
    return json.dumps(welfare_to_dict(report), indent=2) + "\n"


# ---------------------------------------------------------------------------
# CSV emission (full double precision; schemas documented above)
# ---------------------------------------------------------------------------

def _csv(rows) -> str:
    """Rows of Python ints, floats and strings; str of a float is its repr."""
    buffer = io.StringIO()
    for row in rows:
        buffer.write(",".join(map(str, row)) + "\n")
    return buffer.getvalue()


def _pair_csv(params: DerivedParameters, name: str, values) -> str:
    return _csv([("source", "aggregator", name),
                 *((s, b, v) for (s, b), v in zip(params.pairs, values.tolist()))])


def beta_csv(params: DerivedParameters) -> str:
    return _pair_csv(params, "beta", params.beta)


def gamma_csv(params: DerivedParameters) -> str:
    return _pair_csv(params, "gamma", params.gamma)


def xi_csv(params: DerivedParameters) -> str:
    """The xi array keyed by id, over each aggregator's dataset pairs."""
    rows = [("aggregator", "paid_source", "coupled_source", "xi")]
    sids = params.scenario.source_ids
    for b, bid in enumerate(params.scenario.aggregator_ids):
        members = params.pair_source[params.pair_aggregator == b].tolist()
        rows += [(bid, sids[i], sids[l], float(params.xi[b, i, l]))
                 for i in members for l in members]
    return _csv(rows)


def xi_matrix_csv(params: DerivedParameters) -> str:
    header = ["row_source", "row_aggregator"]
    header += [f"{s}:{b}" for (s, b) in params.pairs]
    rows = [tuple(header)]
    for k, (s, b) in enumerate(params.pairs):
        rows.append((s, b, *(float(v) for v in params.xi_matrix[k])))
    return _csv(rows)


def sweep_csv(points) -> str:
    rows = [("alpha", "rho", "status", "max_a_total")]
    rows += [(p.alpha, p.rho, p.status, p.max_a_total) for p in points]
    return _csv(rows)


def rounds_csv(scenario, rounds) -> str:
    """Streamed per-round table; column blocks follow sorted ids."""
    sids, pairs, bids = scenario.source_ids, scenario.sharing_pairs(), scenario.aggregator_ids
    header = ["round", *(f"y_{s}" for s in sids), *(f"p_{s}_{b}" for s, b in pairs),
              *(f"loss_{b}" for b in bids)]
    return _csv(itertools.chain([header], (
        [r.index, *map(r.responses.__getitem__, sids), *map(r.payments.__getitem__, pairs),
         *map(r.losses.__getitem__, bids)] for r in rounds)))
