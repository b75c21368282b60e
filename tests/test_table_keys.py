"""Every public entry point that reads an id-keyed table checks its keys
against the market: a missing key, an extra key or a table of the other key
kind (source ids where pairs belong, or pairs where source ids belong)
raises ParseError naming the first mismatch, never KeyError or TypeError and
never a silent answer.  The market's own table reads the same in any id
order, an IdTable's included, and writes the same bytes."""

import re
from dataclasses import replace

import numpy as np
import pytest

from datamarket.equilibrium import (
    AParameters,
    IdTable,
    PolytopeTable,
    SourcePolytope,
    best_response_residual,
    branch_profile,
    canonical_c,
    certify_equilibrium,
    polytope_membership,
    solve_unbounded,
)
from datamarket.errors import ParseError
from datamarket.market import derive_parameters
from datamarket.results import result_to_json, rounds_csv
from datamarket.scenario import GenerationSpec, generate_scenario
from datamarket.simulate import iter_rounds
from datamarket.welfare import price_of_anarchy, social_cost


@pytest.fixture(scope="module")
def market():
    params = derive_parameters(generate_scenario(GenerationSpec(8, 2), 0))
    return params, solve_unbounded(params)


# entry point -> (kind of the table it is given, call with that table)
ENTRY_POINTS = {
    "canonical_c": ("pair", lambda p, r, t: canonical_c(replace(r.a, a=t), p)),
    "polytope_membership": ("pair", lambda p, r, t: polytope_membership(t, r.a, p)),
    "best_response_residual": ("pair", lambda p, r, t: best_response_residual(p, t)),
    "branch_profile": ("pair", lambda p, r, t: branch_profile(p, t)),
    "social_cost": ("source", lambda p, r, t: social_cost(t, p)),
    "certify_equilibrium": ("source", lambda p, r, t: certify_equilibrium(
        replace(r, a=AParameters(a=r.a.a, a_total=t)), p)),
    "price_of_anarchy": ("source", lambda p, r, t: price_of_anarchy(replace(r, efforts=t), p)),
    "iter_rounds": ("pair", lambda p, r, t: next(iter_rounds(
        p.scenario, replace(r, canonical_c=t), 1, 0))),
}


def _table(result, kind):
    return dict(result.canonical_c if kind == "pair" else result.efforts)


def _permuted(table):
    """The IdTable `table` with its ids shuffled."""
    order = np.random.default_rng(0).permutation(len(table.ids))
    return IdTable([table.ids[k] for k in order], table.array[order])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_permuted_id_table_gives_the_ordered_answer(market, entry):
    params, result = market
    kind, call = ENTRY_POINTS[entry]
    table = result.canonical_c if kind == "pair" else result.efforts
    assert repr(call(params, result, _permuted(table))) == repr(call(params, result, table))


def test_rounds_csv_of_a_permuted_round(market):
    params, result = market
    played = next(iter_rounds(params.scenario, result, 1, 0))
    permuted = replace(played, payments=_permuted(played.payments))
    assert rounds_csv(params.scenario, [permuted]) == rounds_csv(params.scenario, [played])


def test_result_to_json_of_a_permuted_result(market):
    _, result = market
    permuted = replace(result, a=replace(result.a, a=_permuted(result.a.a)),
                       polytope=PolytopeTable(_permuted(result.polytope.floors),
                                              result.polytope.rows))
    assert result_to_json(permuted) == result_to_json(result)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("corruption", ["missing", "extra", "wrong-kind", "mixed", "int-key",
                                        "repeated"])
def test_mismatched_table_raises_parse_error(market, entry, corruption):
    params, result = market
    kind, call = ENTRY_POINTS[entry]
    call(params, result, _table(result, kind))  # the market's own table is read
    table = _table(result, kind)
    if corruption == "missing":
        key = ("s008", "b002") if kind == "pair" else "s008"
        del table[key]
        expected = "pair (s008, b002)" if kind == "pair" else "source s008"
    elif corruption == "extra":
        table[("s999", "b001") if kind == "pair" else "s999"] = 1.0
        expected = "pair (s999, b001)" if kind == "pair" else "source s999"
    elif corruption == "wrong-kind":
        table = _table(result, "source" if kind == "pair" else "pair")
        # id order puts source s001 before its pair (s001, b001)
        expected = "source s001"
    elif corruption == "mixed":
        # the market's own table and one key of the other kind
        table["s001" if kind == "pair" else ("s001", "b001")] = 1.0
        expected = "source s001" if kind == "pair" else "pair (s001, b001)"
    elif corruption == "int-key":
        table[7] = 1.0  # a key that compares with no id
        expected = "source 7"
    else:
        # an IdTable holding every key once, and its first key again
        table = IdTable([*table, next(iter(table))], np.array([*table.values(), 1.0]))
        expected = "pair (s001, b001)" if kind == "pair" else "source s001"
    with pytest.raises(ParseError, match=re.escape(f"first mismatched {expected}")):
        call(params, result, table)


@pytest.mark.parametrize("entry", ["certify_equilibrium", "price_of_anarchy", "iter_rounds"])
def test_polytope_of_an_extra_source_raises_parse_error(market, entry):
    # an extra source with no floors adds no pair, so only the polytope's
    # own source keys can show it
    params, result = market
    extra = SourcePolytope(surplus=1.0, floors={}, total=1.0, dimension=0)
    bad = replace(result, polytope={**result.polytope, "s999": extra})
    read = {"certify_equilibrium": lambda: certify_equilibrium(bad, params),
            "price_of_anarchy": lambda: price_of_anarchy(bad, params),
            "iter_rounds": lambda: next(iter_rounds(params.scenario, bad, 1, 0))}[entry]
    with pytest.raises(ParseError, match=re.escape("polytope does not match the scenario: "
                                                   "first mismatched source s999")):
        read()
