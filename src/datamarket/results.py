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

from .equilibrium import (
    AParameters,
    EquilibriumResult,
    SolveDiagnostics,
    SourcePolytope,
)
from .errors import ParseError
from .market import DerivedParameters
from .welfare import WelfareReport

RESULT_SCHEMA_VERSION = 1


def _nest(table: dict[tuple[str, str], float]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for (sid, bid), v in sorted(table.items()):
        out.setdefault(sid, {})[bid] = v
    return out


def _flatten(doc: dict) -> dict[tuple[str, str], float]:
    return {(sid, bid): float(v)
            for sid, row in doc.items() for bid, v in row.items()}


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
    try:
        version = doc["schema_version"]
        if version != RESULT_SCHEMA_VERSION:
            raise ParseError(f"result schema_version {version} unsupported")
        diag_doc = doc["diagnostics"]
        diagnostics = SolveDiagnostics(
            spectral_radius=float(diag_doc["spectral_radius"]),
            iterations=int(diag_doc["iterations"]),
            max_residual=float(diag_doc["max_residual"]),
            marginal=bool(diag_doc.get("marginal", False)))
        status = str(doc["status"])
        if "a" not in doc:
            return EquilibriumResult(status=status, a=None, canonical_c=None,
                                     polytope=None, efforts=None,
                                     diagnostics=diagnostics)
        polytope = {
            sid: SourcePolytope(
                surplus=float(p["surplus"]),
                floors={bid: float(v) for bid, v in p["floors"].items()},
                total=float(p["total"]),
                dimension=int(p["dimension"]))
            for sid, p in doc["polytope"].items()
        }
        return EquilibriumResult(
            status=status,
            a=AParameters(a=_flatten(doc["a"]),
                          a_total={s: float(v) for s, v in doc["a_total"].items()}),
            canonical_c=_flatten(doc["canonical_c"]),
            polytope=polytope,
            efforts={s: float(v) for s, v in doc["efforts"].items()},
            diagnostics=diagnostics)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed result document: {exc}") from exc


def result_to_json(result: EquilibriumResult) -> str:
    return json.dumps(result_to_dict(result), indent=2) + "\n"


def result_from_json(text: str) -> EquilibriumResult:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # numpy scalars repr differently
    return str(value)


def _csv(rows) -> str:
    buffer = io.StringIO()
    for row in rows:
        buffer.write(",".join(_fmt(v) for v in row) + "\n")
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
        [r.index, *(r.responses[s] for s in sids), *(r.payments[p] for p in pairs),
         *(r.losses[b] for b in bids)] for r in rounds)))
