"""Results hold their tables as arrays in id order up to the document edge:
the writer's bytes are json.dumps(..., indent=2)'s, a document read back in
any key order is the same result, and a result read back from its document
is checked against its market without one lookup by id."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    make_coupled_direct,
    make_symmetric_direct,
    reference_result_json,
    reference_welfare_json,
)

from datamarket import equilibrium
from datamarket.equilibrium import (
    AParameters,
    IdTable,
    certify_equilibrium,
    solve_bounded,
    solve_unbounded,
)
from datamarket.errors import DomainError, ParseError
from datamarket.market import MarketScenario, derive_parameters
from datamarket.results import result_from_json, result_to_json, welfare_to_json
from datamarket.scenario import (
    GenerationSpec,
    generate_scenario,
    parse_scenario,
    serialize_scenario,
)
from datamarket.simulate import iter_rounds
from datamarket.welfare import price_of_anarchy


def _renamed(scenario, names):
    """A direct-mode scenario with every id replaced by names[id]."""
    sources = tuple(replace(s, id=names[s.id], sharing=tuple(names[b] for b in s.sharing))
                    for s in scenario.sources)
    aggregators = tuple(replace(b, id=names[b.id]) for b in scenario.aggregators)
    beta = {(names[s], names[b]): v for (s, b), v in scenario.direct_beta.items()}
    xi = {names[b]: {(names[i], names[l]): v for (i, l), v in table.items()}
          for b, table in scenario.direct_xi.items()}
    return MarketScenario(sources, aggregators, scenario.ground_truth, mode="direct",
                          direct_beta=beta, direct_xi=xi)


def _escaped_ids():
    """Ids JSON must escape (a quote, a backslash, a non-ASCII letter, a
    control character); the last source sells to one aggregator only, so
    its polytope has dimension 0.  Read back from its own document."""
    base = make_coupled_direct(4, 2, lambda i, l: 0.05, sells=lambda i, b: i < 3 or b == 0)
    names = {"s01": 's"q', "s02": "s\\b", "s03": "sé", "s04": "s\x01c",
             "b01": 'b"1', "b02": "b\\2"}
    return parse_scenario(serialize_scenario(_renamed(base, names)))


MARKETS = {
    "solved": lambda: generate_scenario(GenerationSpec(6, 2, family="mixed"), 0),
    "partial-sharing": lambda: generate_scenario(GenerationSpec(8, 2, sharing_density=0.5), 0),
    "bounded": lambda: generate_scenario(GenerationSpec(6, 2, bounded=True), 0),
    "unsolved": lambda: make_symmetric_direct(xi_offdiag=2.0),
    "unsolved-marginal": lambda: make_symmetric_direct(xi_offdiag=1.0),
    "escaped-ids": _escaped_ids,
}


def _solved(market):
    params = derive_parameters(MARKETS[market]())
    solve = solve_bounded if params.effort_kind == "bounded" else solve_unbounded
    return params, solve(params)


@pytest.mark.parametrize("market", sorted(MARKETS))
def test_writer_matches_the_indent_2_reference(market):
    params, result = _solved(market)
    text = result_to_json(result)
    assert text == reference_result_json(result)
    read = result_from_json(text)
    assert result_to_json(read) == text
    assert reference_result_json(read) == text


def test_the_markets_cover_each_document_kind():
    results = {market: _solved(market)[1] for market in MARKETS}
    assert results["unsolved"].diagnostics.marginal is False
    assert results["unsolved-marginal"].diagnostics.marginal is True
    assert math.isnan(results["unsolved-marginal"].diagnostics.max_residual)
    assert results["bounded"].status == "converged_bounded"
    for market in ("partial-sharing", "escaped-ids"):
        assert 0 in {p.dimension for p in results[market].polytope.values()}
    text = result_to_json(results["escaped-ids"])
    assert r'"s\"q"' in text and r'"s\\b"' in text
    assert r'"s\u00e9"' in text and r'"s\u0001c"' in text


@pytest.mark.parametrize("market", ["solved", "escaped-ids"])
def test_welfare_writer_matches_the_indent_2_reference(market):
    params, result = _solved(market)
    report = price_of_anarchy(result, params)
    assert welfare_to_json(report) == reference_welfare_json(report)


def _plain(result):
    """The result with every table a plain dict in reverse id order."""
    return replace(
        result,
        a=AParameters(a=dict(list(result.a.a.items())[::-1]),
                      a_total=dict(list(result.a.a_total.items())[::-1])),
        canonical_c=dict(list(result.canonical_c.items())[::-1]),
        efforts=dict(list(result.efforts.items())[::-1]),
        polytope={sid: replace(p, floors=dict(p.floors))
                  for sid, p in list(result.polytope.items())[::-1]})


def test_a_plain_dict_result_writes_the_same_bytes():
    _, result = _solved("solved")
    assert result_to_json(_plain(result)) == result_to_json(result)


@pytest.mark.parametrize("table, key", [("efforts", "s001"), ("a_total", "s006"),
                                        ("canonical_c", ("s002", "b001"))])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_writer_refuses_a_value_the_reader_refuses(table, key, value):
    _, result = _solved("solved")
    if table == "a_total":
        bad = replace(result, a=replace(result.a, a_total={**result.a.a_total, key: value}))
    else:
        bad = replace(result, **{table: {**getattr(result, table), key: value}})
    shown = re.escape(str(key))
    with pytest.raises(DomainError, match=f"table {table} .* at {shown}"):
        result_to_json(bad)


PAIR = ("s001", "b001")
# case -> (the table named, a write of a result r or a welfare report w with it wrongly keyed)
WRONG_KEYS = {
    "pair-in-efforts": ("efforts", lambda r, w: result_to_json(
        replace(r, efforts={**r.efforts, PAIR: 1.0}))),
    "int-in-a": ("a", lambda r, w: result_to_json(
        replace(r, a=replace(r.a, a={**r.a.a, 7: 1.0})))),
    "ids-mixed-with-pairs-in-a": ("a", lambda r, w: result_to_json(
        replace(r, a=replace(r.a, a={**r.a.a, **r.a.a_total})))),
    "source-ids-in-canonical_c": ("canonical_c", lambda r, w: result_to_json(
        replace(r, canonical_c=dict(r.efforts)))),
    "pair-in-optimal_efforts": ("optimal_efforts", lambda r, w: welfare_to_json(
        replace(w, optimal_efforts={**w.optimal_efforts, PAIR: 1.0}))),
}


@pytest.mark.parametrize("case", sorted(WRONG_KEYS))
def test_writer_refuses_a_key_the_reader_refuses(case):
    params, result = _solved("solved")
    table, write = WRONG_KEYS[case]
    with pytest.raises(DomainError, match=f"table {table} has a key that is not"):
        write(result, price_of_anarchy(result, params))


@pytest.mark.parametrize("field", ["surplus", "total"])
def test_writer_refuses_a_non_finite_polytope_entry(field):
    _, result = _solved("solved")
    entry = replace(result.polytope["s003"], **{field: math.nan})
    bad = replace(result, polytope={**result.polytope, "s003": entry})
    with pytest.raises(DomainError, match="table polytope .* at s003"):
        result_to_json(bad)


def test_writer_refuses_a_non_finite_residual_of_a_solved_result():
    _, result = _solved("solved")
    bad = replace(result, diagnostics=replace(result.diagnostics, max_residual=math.nan))
    with pytest.raises(DomainError, match="max_residual"):
        result_to_json(bad)


def _reversed(value):
    """A document with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed(v) for key, v in reversed(value.items())}
    return value


@pytest.mark.parametrize("market", ["solved", "partial-sharing", "bounded", "escaped-ids"])
def test_reordered_document_reads_certifies_and_writes_canonical_bytes(market):
    params, result = _solved(market)
    text = result_to_json(result)
    reordered = json.dumps(_reversed(json.loads(text)))
    assert reordered != text
    read = result_from_json(reordered)
    assert read == result_from_json(text)
    assert certify_equilibrium(read, params).passed
    assert result_to_json(read) == text


@pytest.mark.parametrize("entry", ["certify_equilibrium", "price_of_anarchy", "iter_rounds"])
def test_a_document_of_another_market_raises_the_first_mismatch(entry):
    params, _ = _solved("partial-sharing")
    other = result_from_json(result_to_json(_solved("solved")[1]))
    plain = replace(other, a=replace(other.a, a=dict(other.a.a)),
                    canonical_c=dict(other.canonical_c), efforts=dict(other.efforts))
    read = {"certify_equilibrium": lambda r: certify_equilibrium(r, params),
            "price_of_anarchy": lambda r: price_of_anarchy(r, params),
            "iter_rounds": lambda r: next(iter_rounds(params.scenario, r, 1, 0))}[entry]
    messages = []
    for result in (other, plain):
        with pytest.raises(ParseError, match="first mismatched") as info:
            read(result)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("source", ["solver", "document"])
def test_no_lookup_by_id_between_solve_and_certify(source):
    params, result = _solved("solved")
    if source == "document":
        result = result_from_json(result_to_json(result))
    pairs, sids = params.pairs, params.scenario.source_ids
    for table, keys in [(result.a.a, pairs), (result.a.a_total, sids),
                        (result.canonical_c, pairs), (result.efforts, sids),
                        (result.polytope.floors, pairs), (result.polytope.rows, sids)]:
        assert equilibrium._aligned(table, keys, "table") is table.array  # no copy
    certificate = certify_equilibrium(result, params)
    assert certificate.passed
    assert certify_equilibrium(_plain(result), params).summary() == certificate.summary()


def test_tables_are_read_only_id_keyed_views():
    params, result = _solved("partial-sharing")
    a = result.a.a
    assert isinstance(a, IdTable) and a.ids == params.pairs
    assert a[params.pairs[3]] == float(a.array[3])
    assert dict(a) == dict(zip(params.pairs, a.array.tolist()))
    assert a == dict(a) and dict(a) == a
    with pytest.raises(ValueError):
        a.array[0] = 1.0
    with pytest.raises(TypeError):
        a[params.pairs[0]] = 1.0
    entry = result.polytope["s001"]
    assert entry.dimension == len(entry.floors) - 1
    assert np.isclose(entry.total, sum(entry.floors.values()) + entry.surplus)
