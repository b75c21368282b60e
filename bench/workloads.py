"""The benchmark's workloads: seeded markets, one operation each, and the
answer fingerprint every operation is checked by.

Each workload turns the benchmark seed into a fixed list of markets (or
batches), built in set-up with `generate_scenario` and handed to the program
only as serialized JSON text.  One pass over that list is a cycle; the timed
phase runs whole cycles, so every run measures the same mix of shapes.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import datamarket as dm
import datamarket.results as dm_results

#: certify_equilibrium's default deviation grid, applied outside the program
#: to count how many grid points its feasibility rule lets it evaluate.
CERTIFY_GRID = np.linspace(-0.5, 0.5, 11)

#: Coupling scale factors of the large-market alpha sweep (all below 1, so
#: every point is solvable whenever the market itself is).
ALPHAS = (0.25, 0.5, 0.75)


@dataclass
class Prepared:
    """Set-up output: the operations of one cycle and the documents behind them."""

    items: list[tuple[str, object]]      # (reference key, operation input)
    texts: dict[str, str]                # reference key -> scenario JSON
    attempts: int                        # generation attempts over all markets
    rejected_s: float                    # estimated time of the rejected draws


def _generate(spec: dm.GenerationSpec, gen_seed: int) -> tuple[str, int, float]:
    """(scenario JSON, generation attempts, estimated seconds of the rejected
    draws): the generation time times the share of its draws that failed."""
    start = time.perf_counter()
    scenario, attempts = dm.scenario.generate_scenario_with_attempts(spec, gen_seed)
    rejected_s = (time.perf_counter() - start) * (attempts - 1) / attempts
    return dm.serialize_scenario(scenario), attempts, rejected_s


def _pair_counts(scenario) -> tuple[int, int]:
    """(sharing pairs, leave-one-out xi entries), from the scenario structure."""
    pairs = sum(len(s.sharing) for s in scenario.sources)
    sizes = {}
    for s in scenario.sources:
        for b in s.sharing:
            sizes[b] = sizes.get(b, 0) + 1
    return pairs, sum(k * k for k in sizes.values())


def grid_counts(scenario, result) -> tuple[int, int]:
    """(grid deviations attempted, deviations certify's feasibility rule
    evaluates) for the solved quality weights, with the default grid."""
    a, totals = result.a.a, result.a.a_total
    attempted = evaluated = 0
    for source in scenario.sources:
        bounds = dm.incentive_bounds(source.effort_model)
        for bid in source.sharing:
            for delta in CERTIFY_GRID:
                if delta == 0.0:
                    continue
                attempted += 1
                new_total = totals[source.id] + delta
                if a[(source.id, bid)] + delta < 0 or new_total < bounds.a_lower:
                    continue
                if bounds.bounded and new_total > bounds.a_upper:
                    continue
                evaluated += 1
    return attempted, evaluated


@dataclass
class Outcome:
    """What one operation returned, kept for verification outside the timer."""

    scenario: object = None
    result: object = None
    certificate: object = None
    welfare: object = None
    sweep: list | None = None
    csv: str | None = None
    rounds: int = 0


class Workload:
    name = ""
    why = ""
    lead: tuple[str, ...] = ()     # spans whose time is the layer this workload stresses
    cycle_seconds = 1.0            # nominal time of one cycle at this commit, 2-core VM

    def plan(self, seed: int, tiny: bool) -> list[tuple[str, dm.GenerationSpec, int]]:
        raise NotImplementedError

    def setup(self, plan, tiny: bool) -> Prepared:
        items, texts, attempts, rejected_s = [], {}, 0, 0.0
        for key, spec, gen_seed in plan:
            text, tries, rejected = _generate(spec, gen_seed)
            items.append((key, text))
            texts[key] = text
            attempts += tries
            rejected_s += rejected
        return Prepared(items, texts, attempts, rejected_s)

    def warmup(self, prepared: Prepared, plan, tiny: bool) -> list[tuple[str, object]]:
        """Untimed operations run before the timed phase."""
        return prepared.items[:1]

    def probe_key(self, prepared: Prepared) -> str:
        """Market the in-process CLI calls of the traced run use."""
        return prepared.items[0][0]

    def operation(self, payload) -> Outcome:
        raise NotImplementedError

    def fingerprint(self, outcome: Outcome) -> dict:
        raise NotImplementedError

    def problems(self, outcome: Outcome) -> list[str]:
        return []

    def counts(self, outcome: Outcome) -> dict[str, int]:
        """Exact per-market counts, summed over one cycle by the runner."""
        pairs, entries = _pair_counts(outcome.scenario)
        return {"market.pairs": pairs, "market.xi_entries": entries}


def _solve_fingerprint(outcome: Outcome) -> dict:
    result = outcome.result
    return {"max_a": max(result.a.a.values()),
            "sum_a_total": sum(result.a.a_total.values()),
            "sum_efforts": sum(result.efforts.values())}


class UnboundedCertify(Workload):
    name = "unbounded-certify"
    why = ("certify is ~97% of each operation, so it shows certifier work; "
           "derive and solve are ~3%, so a derive-only change reads as no change")
    lead = ("equilibrium.certify_equilibrium",)
    cycle_seconds = 10.5
    solve_name = "solve_unbounded"

    def shapes(self, tiny: bool):
        if tiny:
            return [(6, 2), (8, 2)]
        return [(32, 3), (32, 4), (40, 3), (40, 4), (48, 3), (48, 4)]

    def spec(self, n: int, m: int) -> dm.GenerationSpec:
        return dm.GenerationSpec(n, m, family="mixed")

    def plan(self, seed, tiny):
        return [(f"n{n}-m{m}", self.spec(n, m), seed * 1000 + k)
                for k, (n, m) in enumerate(self.shapes(tiny))]

    def operation(self, text):
        scenario = dm.parse_scenario(text)
        params = dm.derive_parameters(scenario)
        solved = getattr(dm, self.solve_name)(params)
        result = dm.result_from_json(dm.result_to_json(solved))
        certificate = dm.certify_equilibrium(result, params)
        return Outcome(scenario=scenario, result=result, certificate=certificate,
                       welfare=self.welfare(result, params))

    def welfare(self, result, params):
        return dm.price_of_anarchy(result, params)

    def fingerprint(self, outcome):
        return {**_solve_fingerprint(outcome), "poa": outcome.welfare.poa}

    def problems(self, outcome):
        out = []
        if not outcome.result.solved:
            out.append(f"status {outcome.result.status}")
        elif not outcome.certificate.passed:
            out.append("certificate failed: " + outcome.certificate.summary())
        return out

    def counts(self, outcome):
        attempted, evaluated = grid_counts(outcome.scenario, outcome.result)
        return {**super().counts(outcome),
                "equilibrium.certify_grid_attempted": attempted,
                "equilibrium.certify_grid_evaluated": evaluated}


class BoundedBestResponse(UnboundedCertify):
    name = "bounded-best-response"
    why = ("the Gauss-Seidel best-response sweeps are ~82% of each operation, "
           "so it shows solver work; the certify grid is vacuous here")
    lead = ("equilibrium.solve_bounded",)
    cycle_seconds = 5.0
    solve_name = "solve_bounded"

    def shapes(self, tiny):
        return [(8, 2)] if tiny else [(64, 4), (80, 4), (96, 4)]

    def spec(self, n, m):
        return dm.GenerationSpec(n, m, family="mixed", bounded=True)

    def welfare(self, result, params):
        # price_of_anarchy is left out: it raises on some saturated bounded
        # markets (see bench/README.md, known limits)
        return None

    def fingerprint(self, outcome):
        return {**_solve_fingerprint(outcome),
                "sweeps": outcome.result.diagnostics.iterations}

    def counts(self, outcome):
        return {**super().counts(outcome),
                "equilibrium.solve_sweeps": outcome.result.diagnostics.iterations}


class LargeMarket(Workload):
    name = "large-market"
    why = ("n=150, m=8 in two shapes: full sharing stresses derivation and "
           "assemble_xi_matrix, partial sharing the Gelfand path of spectral_radius")
    lead = ("market.derive_parameters", "equilibrium.spectral_radius")
    cycle_seconds = 4.2

    def specs(self, n: int):
        return [("full-d1", dm.GenerationSpec(n, 8, family="mixed", zeta_max=0.1)),
                ("half-d2", dm.GenerationSpec(n, 8, dimension=2, family="mixed",
                                              zeta_max=0.1, sharing_density=0.5))]

    def plan(self, seed, tiny):
        n, m = (12, 3) if tiny else (150, 8)
        return [(key, dataclasses.replace(spec, n_aggregators=m), seed * 1000 + k)
                for k, (key, spec) in enumerate(self.specs(n))]

    def warmup(self, prepared, plan, tiny):
        # scaled-down twins of both shapes warm every code path cheaply
        if tiny:
            return prepared.items[:1]
        return [(f"warmup-{key}", self._twin(spec, gen_seed)) for key, spec, gen_seed in plan]

    def _twin(self, spec, gen_seed: int) -> str:
        small = dataclasses.replace(spec, n_sources=40)
        for offset in range(10):   # a small draw is rejected more often
            try:
                return _generate(small, gen_seed + offset)[0]
            except dm.GenerationError:
                continue
        raise dm.GenerationError(f"no warm-up twin of {spec} near seed {gen_seed}")

    def probe_key(self, prepared):
        return prepared.items[-1][0]

    def operation(self, text):
        scenario = dm.parse_scenario(text)
        params = dm.derive_parameters(scenario)
        result = dm.solve_unbounded(params)
        welfare = dm.price_of_anarchy(result, params)
        sweep = dm.alpha_sweep(params, ALPHAS)
        return Outcome(scenario=scenario, result=result, welfare=welfare, sweep=sweep)

    def fingerprint(self, outcome):
        return {**_solve_fingerprint(outcome), "poa": outcome.welfare.poa,
                "sweep_max_a_total": sum(p.max_a_total for p in outcome.sweep)}

    def problems(self, outcome):
        out = []
        if not outcome.result.solved:
            out.append(f"status {outcome.result.status}")
        if any(p.status != outcome.result.status for p in outcome.sweep):
            out.append("alpha sweep point without a solution")
        return out


class SimulateRounds(Workload):
    name = "simulate-rounds"
    why = ("per-round settlement dominates; derive, solve and certify sit in "
           "set-up, so a solver change predicts no change here")
    lead = ("simulate.round",)
    cycle_seconds = 0.45

    def sizes(self, tiny: bool) -> tuple[int, int, int, int]:
        """(sources, aggregators, rounds per batch, batches per cycle)."""
        return (8, 2, 3, 2) if tiny else (48, 4, 25, 8)

    def plan(self, seed, tiny):
        n, m, _, _ = self.sizes(tiny)
        return [("market", dm.GenerationSpec(n, m, family="mixed"), seed * 1000)]

    def setup(self, plan, tiny):
        (key, spec, gen_seed), = plan
        _, _, rounds, batches = self.sizes(tiny)
        text, attempts, rejected_s = _generate(spec, gen_seed)
        params = dm.derive_parameters(dm.parse_scenario(text))
        result_text = dm.result_to_json(dm.solve_unbounded(params))
        scenario = dm.parse_scenario(text)
        result = dm.result_from_json(result_text)
        items = [(f"batch{b}", (scenario, result, rounds, gen_seed + b))
                 for b in range(batches)]
        return Prepared(items, {key: text}, attempts, rejected_s)

    def probe_key(self, prepared):
        return "market"

    def operation(self, payload):
        scenario, result, rounds, round_seed = payload
        played = dm.iter_rounds(scenario, result, rounds, round_seed)
        return Outcome(scenario=scenario, result=result, rounds=rounds,
                       csv=dm_results.rounds_csv(scenario, played))

    def _columns(self, outcome):
        lines = outcome.csv.splitlines()
        header = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        return header, rows

    def fingerprint(self, outcome):
        header, rows = self._columns(outcome)
        pay = [k for k, h in enumerate(header) if h.startswith("p_")]
        loss = [k for k, h in enumerate(header) if h.startswith("loss_")]
        return {"payments": math.fsum(r[k] for r in rows for k in pay),
                "losses": math.fsum(r[k] for r in rows for k in loss),
                "rows": len(rows)}

    def problems(self, outcome):
        _, rows = self._columns(outcome)
        out = []
        if len(rows) != outcome.rounds:
            out.append(f"{len(rows)} CSV rows for {outcome.rounds} rounds")
        if not all(math.isfinite(v) for row in rows for v in row):
            out.append("non-finite value in the rounds CSV")
        return out

    def counts(self, outcome):
        return {**super().counts(outcome), "simulate.rounds": outcome.rounds}


WORKLOADS = {w.name: w for w in (UnboundedCertify(), BoundedBestResponse(),
                                 LargeMarket(), SimulateRounds())}


# ---------------------------------------------------------------------------
# Fingerprint comparison
# ---------------------------------------------------------------------------

#: Relative tolerance on every float in a fingerprint (no float field is 0
#: on these markets, so the tolerance is purely relative).  A 7e-10 relative
#: change of every off-diagonal xi (the PRESS-identity refactor) moves these
#: fingerprints by at most ~1.3e-11 on the benchmark's markets, where
#: cond(I - Xi) is about 1.3; a changed answer moves them far more than 1e-8.
REL_TOL = 1e-8


def drift(fingerprint: dict, reference: dict) -> list[str]:
    """Fields of a fingerprint outside tolerance of the reference; integers
    (sweep counts, row counts) must match exactly."""
    out = []
    for field, ref in reference.items():
        value = fingerprint.get(field)
        if value is None:
            out.append(f"{field} missing")
        elif isinstance(ref, int):
            if value != ref:
                out.append(f"{field} {value} != {ref}")
        elif not abs(value - ref) <= REL_TOL * abs(ref):
            out.append(f"{field} {value!r} drifted from {ref!r}")
    return out


# ---------------------------------------------------------------------------
# In-process CLI calls (traced run only)
# ---------------------------------------------------------------------------

def cli_calls(workload: Workload, prepared: Prepared, out_dir) -> list[list[str]]:
    """Arguments of the CLI calls for the workload's probe market: solve,
    certify (not at large-market size, where it takes minutes) and simulate."""
    key = workload.probe_key(prepared)
    scenario = os.path.join(out_dir, "scenario.json")
    result = os.path.join(out_dir, "result.json")
    with open(scenario, "w") as handle:
        handle.write(prepared.texts[key])
    calls = [["solve", scenario, "--output", result]]
    if not isinstance(workload, LargeMarket):
        calls.append(["certify", scenario, result])
    calls.append(["simulate", scenario, result, "--rounds", "25", "--seed", "0",
                  "--output", os.path.join(out_dir, "rounds.csv")])
    return calls

