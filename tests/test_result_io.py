"""Result documents read under the scenario number rule: every document the
writer produces reads back to the same bytes, and any one field replaced by
a value of the wrong kind raises ParseError (never a traceback, never a
silently cast value)."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_symmetric_direct

from datamarket.equilibrium import solve_bounded, solve_unbounded
from datamarket.errors import ParseError
from datamarket.market import derive_parameters
from datamarket.results import result_from_json, result_to_json
from datamarket.scenario import GenerationSpec, generate_scenario


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


def test_integer_weights_read_as_their_floats():
    # every value of a and a_total a JSON integer: read field by field, they
    # give the ids and float64 arrays of the same document written with floats
    def written(number):
        doc = json.loads(TEXTS["solved"])
        doc["a"] = {sid: {bid: number(round(1000 * v)) for bid, v in row.items()}
                    for sid, row in doc["a"].items()}
        doc["a_total"] = {sid: number(round(1000 * v)) for sid, v in doc["a_total"].items()}
        return result_from_json(json.dumps(doc))

    integers, floats = written(int), written(float)
    for got, expected in ((integers.a.a, floats.a.a), (integers.a.a_total, floats.a.a_total)):
        assert got.ids == expected.ids
        assert got.array.dtype == np.float64
        np.testing.assert_array_equal(got.array, expected.array)


def test_unknown_fields_are_tolerated():
    doc = json.loads(TEXTS["solved"])
    doc["note"] = {"written by": "a later version"}
    doc["diagnostics"]["wall_time"] = 1.5
    assert result_from_json(json.dumps(doc)) == result_from_json(TEXTS["solved"])
