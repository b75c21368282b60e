"""Input guards, one row each: a generation spec, a simulation request, a
result document or a scenario that no later step can use raises its
documented error class with its message."""

import json
import math
from dataclasses import replace
from functools import cache

import pytest

from conftest import make_line_scenario

from datamarket.equilibrium import solve_unbounded
from datamarket.effort import exponential_model
from datamarket.errors import DomainError, InfeasibleSpecError, ParseError
from datamarket.market import DataSourceSpec, MarketScenario, derive_parameters
from datamarket.results import result_from_json, result_to_json, rounds_csv
from datamarket.scenario import GenerationSpec
from datamarket.simulate import iter_rounds, payment_statistics


@cache
def _line(n_points):
    """A two-aggregator line market and its solve_unbounded result: status
    none on 4 points (rho 1.09), solved on 8 (rho 0.41)."""
    scenario = make_line_scenario(n_aggregators=2, zeta=0.1, n_points=n_points)
    return scenario, solve_unbounded(derive_parameters(scenario))


def _with_source(k, **changes):
    scenario = make_line_scenario(n_aggregators=2)
    sources = list(scenario.sources)
    sources[k] = replace(sources[k], **changes)
    return MarketScenario(tuple(sources), scenario.aggregators, scenario.ground_truth)


def _with_rival(zeta):
    scenario = make_line_scenario(n_aggregators=2)
    aggregators = (replace(scenario.aggregators[0], zeta=zeta),
                   *scenario.aggregators[1:])
    return MarketScenario(scenario.sources, aggregators, scenario.ground_truth)


def _with_ids(source_ids, aggregator_id="b1"):
    """The two-aggregator line market on one point per source id, its
    sources and its first aggregator renamed."""
    scenario = make_line_scenario(n_aggregators=2, n_points=len(source_ids))
    sources = [replace(s, id=sid) for s, sid in zip(scenario.sources, source_ids)]
    aggregators = (replace(scenario.aggregators[0], id=aggregator_id),
                   *scenario.aggregators[1:])
    return MarketScenario(sources, aggregators, scenario.ground_truth)


def _round_with_losses(losses):
    scenario, result = _line(8)
    played = next(iter_rounds(scenario, result, 1, 7))
    return rounds_csv(scenario, [replace(played, losses=losses)])


def _schema_version(version):
    doc = json.loads(result_to_json(_line(8)[1]))
    doc["schema_version"] = version
    return result_from_json(json.dumps(doc))


GUARDS = {
    "spec-no-sources": (InfeasibleSpecError, "at least one source",
                        lambda: GenerationSpec(0, 2)),
    "spec-dimension-0": (InfeasibleSpecError, "dimension must be at least 1",
                         lambda: GenerationSpec(6, 2, dimension=0)),
    "spec-unknown-mode": (InfeasibleSpecError, "unknown mode 'x'",
                          lambda: GenerationSpec(6, 2, mode="x")),
    "spec-density-0": (InfeasibleSpecError, r"sharing density must lie in \(0, 1\]",
                       lambda: GenerationSpec(6, 2, sharing_density=0.0)),
    "spec-density-1.5": (InfeasibleSpecError, r"sharing density must lie in \(0, 1\]",
                         lambda: GenerationSpec(6, 2, sharing_density=1.5)),
    "spec-zeta-max-1.5": (InfeasibleSpecError, r"zeta_max must lie in \[0, 1\]",
                          lambda: GenerationSpec(6, 2, zeta_max=1.5)),
    "rounds-0": (DomainError, "n_rounds must be at least 1",
                 lambda: iter_rounds(*_line(8), 0, 7)),
    "rounds-of-none": (DomainError, "round simulation requires a solved equilibrium",
                       lambda: iter_rounds(*_line(4), 2, 7)),
    "rounds-negative-seed": (DomainError, "seed must be a nonnegative integer, got -1",
                             lambda: iter_rounds(*_line(8), 2, -1)),
    "rounds-csv-of-another-market": (ParseError, "first mismatched source s5",
                                     lambda: rounds_csv(_line(4)[0], iter_rounds(*_line(8), 2, 7))),
    "rounds-csv-losses-of-another-aggregator": (
        ParseError, "^round 0: losses does not match the scenario: first mismatched aggregator b2$",
        lambda: _round_with_losses({"b1": 1.0, "b9": 2.0})),
    "statistics-1-round": (DomainError, "payment statistics need at least 2 rounds",
                           lambda: payment_statistics(*_line(8), 1, 7)),
    "result-not-an-object": (ParseError, "result document root must be an object",
                             lambda: result_from_json("[]")),
    "result-schema-3": (ParseError, "result schema_version 3 unsupported",
                        lambda: _schema_version(3)),
    "mixed-dimensions": (DomainError, r"sources mix feature dimensions \[1, 2\]",
                         lambda: _with_source(1, feature=(1.0, 0.0))),
    "int-source-ids": (DomainError, "^source id 1 is not a string$",
                       lambda: _with_ids((1, 2))),
    "int-and-str-source-ids": (DomainError, "^source id 1 is not a string$",
                               lambda: _with_ids((1, "s2"))),
    "int-aggregator-id": (DomainError, "^aggregator id 1 is not a string$",
                          lambda: _with_ids(("s1", "s2"), aggregator_id=1)),
    "unknown-rival": (DomainError, r"aggregator 'b1' weights unknown rivals \['b9'\]",
                      lambda: _with_rival({"b9": 0.1})),
    "unknown-int-and-str-rivals": (DomainError, r"weights unknown rivals \[1, 'b9'\]$",
                                   lambda: _with_rival({1: 0.1, "b9": 0.1})),
    "unknown-int-and-str-sharing": (DomainError, r"'s1' shares with unknown aggregators "
                                    r"\[0, 'b9'\]$",
                                    lambda: _with_source(0, sharing=(0, "b1", "b9"))),
    "nan-coordinate": (DomainError, "feature point has non-finite coordinate",
                       lambda: DataSourceSpec("s1", (math.nan,), exponential_model(8.0, 1.0),
                                              ("b1",))),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guard_raises_its_error(guard):
    error, message, call = GUARDS[guard]
    with pytest.raises(error, match=message):
        call()
