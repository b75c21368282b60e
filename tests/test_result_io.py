"""Result documents read under the scenario number rule: every document the
writer produces reads back to the same bytes, and any one field replaced by
a value of the wrong kind raises ParseError (never a traceback, never a
silently cast value)."""

import functools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_symmetric_direct

from datamarket.equilibrium import solve_bounded, solve_unbounded
from datamarket.errors import ParseError
from datamarket.market import derive_parameters
from datamarket.results import result_from_json, result_to_json
from datamarket.scenario import (
    GenerationSpec,
    generate_scenario,
    parse_scenario,
    serialize_scenario,
)


def _text(scenario, solve):
    return result_to_json(solve(derive_parameters(scenario)))


TEXTS = {
    "solved": _text(generate_scenario(GenerationSpec(6, 2, family="mixed"), 0),
                    solve_unbounded),
    "bounded": _text(generate_scenario(GenerationSpec(6, 2, bounded=True), 0), solve_bounded),
    "unsolved": _text(make_symmetric_direct(xi_offdiag=1.0), solve_unbounded),
}


def _paths(doc, prefix=()):
    """Every field of a document, objects included, as key paths."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _corrupted(text, path, value):
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    original, parent[path[-1]] = parent[path[-1]], value
    return json.dumps(doc), original


CORRUPTIONS = {"nan": math.nan, "string": "0.3", "boolean": True, "list": [1, 2]}


@pytest.mark.parametrize("kind", sorted(TEXTS))
def test_round_trip_is_byte_identical(kind):
    assert result_to_json(result_from_json(TEXTS[kind])) == TEXTS[kind]


def test_unsolved_result_keeps_its_nan_residual():
    assert "NaN" in TEXTS["unsolved"]
    assert math.isnan(result_from_json(TEXTS["unsolved"]).diagnostics.max_residual)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(sorted(TEXTS)),
       corruption=st.sampled_from(sorted(CORRUPTIONS)))
def test_one_field_corruption_raises_parse_error(data, kind, corruption):
    path = data.draw(st.sampled_from(sorted(_paths(json.loads(TEXTS[kind])))))
    text, original = _corrupted(TEXTS[kind], path, CORRUPTIONS[corruption])
    assume(not isinstance(original, bool) or corruption != "boolean")
    assume(not (kind == "unsolved" and path[-1] == "max_residual" and corruption == "nan"))
    with pytest.raises(ParseError):
        result_from_json(text)


@pytest.mark.parametrize("path, value", [
    (("polytope", "s001", "surplus"), "0.3"),
    (("polytope", "s001", "surplus"), True),
    (("polytope", "s001", "surplus"), math.nan),
    (("polytope", "s001", "total"), math.inf),
    (("diagnostics", "iterations"), 1.9),
    (("diagnostics", "marginal"), "no"),
    (("diagnostics", "max_residual"), math.nan),  # a solved result's
    (("efforts",), [1, 2]),
    (("a", "s001"), 0.5),
    (("status",), "solved"),
    (("schema_version",), 1.0),
    pytest.param(("polytope", "s001", "dimension"), 10**400, id="dimension-beyond-float"),
    (("polytope", "s001", "dimension"), -1),
    (("polytope", "s001", "dimension"), 2),  # s001 has two floors
])
def test_cast_values_are_refused(path, value):
    with pytest.raises(ParseError):
        result_from_json(_corrupted(TEXTS["solved"], path, value)[0])


@pytest.mark.parametrize("kind", ["solved", "bounded"])
@pytest.mark.parametrize("field, value", [("iterations", -7), ("spectral_radius", -5.0)])
def test_negative_diagnostics_are_refused(kind, field, value):
    text = _corrupted(TEXTS[kind], ("diagnostics", field), value)[0]
    with pytest.raises(ParseError, match=rf"^result\.diagnostics: field '{field}' must be "
                                         "nonnegative$"):
        result_from_json(text)


def test_unsolved_residual_beyond_the_float_range_is_refused():
    text = _corrupted(TEXTS["unsolved"], ("diagnostics", "max_residual"), 10**400)[0]
    with pytest.raises(ParseError, match="max_residual"):
        result_from_json(text)


def test_integer_literal_too_long_to_convert_is_refused():
    # json.loads raises a bare ValueError past the 4300-digit limit
    with pytest.raises(ParseError, match="not valid JSON"):
        result_from_json('{"schema_version": 1' + "0" * 5000 + "}")


def test_nesting_too_deep_to_decode_is_refused():
    # json.loads raises RecursionError, not JSONDecodeError
    with pytest.raises(ParseError, match="not valid JSON"):
        result_from_json("[" * 200_000)


def _whole(value, number):
    """A number, or each number of nested objects, as `number` of its whole
    thousandths; a 1 (xi's diagonal) stays 1."""
    if isinstance(value, dict):
        return {key: _whole(v, number) for key, v in value.items()}
    return number(1 if value == 1 else round(1000 * value))


DIRECT = serialize_scenario(generate_scenario(GenerationSpec(6, 3, mode="direct",
                                                             sharing_density=0.7), 0))
#: (document, its reader, the key paths of some of its tables, those tables as read)
WHOLE_TABLES = {
    "a": (TEXTS["solved"], result_from_json, [("a",), ("a_total",)],
          lambda result: [result.a.a, result.a.a_total]),
    "canonical_c": (TEXTS["solved"], result_from_json, [("canonical_c",)],
                    lambda result: [result.canonical_c]),
    "efforts": (TEXTS["solved"], result_from_json, [("efforts",)],
                lambda result: [result.efforts]),
    "direct": (DIRECT, parse_scenario, [("direct_parameters", "beta"),
                                        ("direct_parameters", "xi")],
               lambda scenario: [scenario.direct_beta, *scenario.direct_xi.values()]),
}


@pytest.mark.parametrize("kind", sorted(WHOLE_TABLES))
def test_integer_weights_read_as_their_floats(kind):
    # every value of the tables a JSON integer: read field by field, they
    # give the ids and float64 arrays of the same document written with floats
    text, read, paths, tables = WHOLE_TABLES[kind]

    def written(number):
        doc = json.loads(text)
        for *parents, key in paths:
            parent = functools.reduce(operator.getitem, parents, doc)
            parent[key] = _whole(parent[key], number)
        return tables(read(json.dumps(doc)))

    for got, expected in zip(written(int), written(float), strict=True):
        assert got.ids == expected.ids
        assert got.array.dtype == np.float64
        np.testing.assert_array_equal(got.array, expected.array)


def test_unknown_fields_are_tolerated():
    doc = json.loads(TEXTS["solved"])
    doc["note"] = {"written by": "a later version"}
    doc["diagnostics"]["wall_time"] = 1.5
    assert result_from_json(json.dumps(doc)) == result_from_json(TEXTS["solved"])
