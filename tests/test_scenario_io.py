"""Scenario document round-trips, parse-error reporting, and deterministic
generation."""

import functools
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_line_scenario, make_symmetric_direct

from datamarket.effort import _CLOSED_FORMS, EffortSet, EffortVarianceModel
from datamarket.errors import GenerationError, InfeasibleSpecError, ParseError
from datamarket.market import (
    MODE_DIRECT,
    MODE_ESTIMATOR,
    GroundTruth,
    MarketScenario,
    derive_parameters,
    validate_scenario,
)
from datamarket.scenario import (
    GenerationSpec,
    _parse_effort,
    generate_scenario,
    generate_scenario_with_attempts,
    parse_scenario,
    serialize_scenario,
)
from datamarket.welfare import efficiency_predicate

FORMS = list(_CLOSED_FORMS.values())


class TestRoundTrip:
    @pytest.mark.parametrize("build", [
        lambda: make_symmetric_direct(),
        lambda: make_symmetric_direct(e_max=1.25),
        lambda: make_line_scenario(n_aggregators=2, zeta=0.15, n_points=8),
    ])
    def test_serialize_parse_identity(self, build):
        scenario = build()
        text = serialize_scenario(scenario)
        reparsed = parse_scenario(text)
        assert serialize_scenario(reparsed) == text

    def test_canonicalization_is_stable(self):
        scenario = make_symmetric_direct()
        doc = json.loads(serialize_scenario(scenario))
        # a shuffled but semantically identical document parses to the same
        # canonical text
        doc["sources"] = list(reversed(doc["sources"]))
        doc["aggregators"] = list(reversed(doc["aggregators"]))
        shuffled = json.dumps(doc)
        assert serialize_scenario(parse_scenario(shuffled)) == serialize_scenario(scenario)

    def test_direct_tables_in_reverse_id_order(self):
        # every beta and xi row, and every key in it, listed in reverse id order
        scenario = generate_scenario(GenerationSpec(6, 3, mode=MODE_DIRECT,
                                                    sharing_density=0.7), 0)
        text = serialize_scenario(scenario)
        doc = json.loads(text)

        def reverse(rows):
            return {sid: dict(reversed(row.items())) for sid, row in reversed(rows.items())}

        tables = doc["direct_parameters"]
        tables["beta"] = reverse(tables["beta"])
        tables["xi"] = {bid: reverse(table) for bid, table in reversed(tables["xi"].items())}
        reparsed = parse_scenario(json.dumps(doc))
        assert reparsed.direct_beta.ids == scenario.sharing_pairs()
        assert list(reparsed.direct_xi) == list(scenario.aggregator_ids)
        for bid, table in reparsed.direct_xi.items():
            ds = scenario.dataset(bid)
            assert table.ids == tuple((i, l) for i in ds for l in ds)
        assert serialize_scenario(reparsed) == text

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), m=st.integers(1, 4), d=st.integers(1, 3),
           family=st.sampled_from([form.name for form in FORMS] + ["mixed"]),
           bounded=st.booleans(), mode=st.sampled_from([MODE_ESTIMATOR, MODE_DIRECT]),
           density=st.floats(0.2, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_parse_of_serialize_is_identity(self, n, m, d, family, bounded, mode,
                                            density, seed):
        try:
            scenario = generate_scenario(GenerationSpec(
                n, m, dimension=d, family=family, bounded=bounded, mode=mode,
                sharing_density=density), seed)
        except GenerationError:  # an infeasible spec, or every draw rejected
            assume(False)
        text = serialize_scenario(scenario)
        reparsed = parse_scenario(text)
        assert serialize_scenario(reparsed) == text
        assert reparsed.mode == scenario.mode
        np.testing.assert_array_equal(reparsed.membership, scenario.membership)

    def test_non_finite_library_numbers_are_written_as_json_does(self):
        # the writer spells them as JSON's extensions, so the parser names the field
        line = make_line_scenario()
        scenario = MarketScenario(line.sources, line.aggregators,
                                  GroundTruth((math.inf,), math.nan))
        with pytest.raises(ParseError, match=r"^ground_truth: field 'coefficients\[0\]' "
                                             r"must be a finite number, got inf$"):
            parse_scenario(serialize_scenario(scenario))

    def test_derived_parameters_survive_round_trip(self):
        scenario = make_line_scenario(n_aggregators=2, zeta=0.1, n_points=8)
        params = derive_parameters(scenario)
        reparsed = parse_scenario(serialize_scenario(scenario))
        reparams = derive_parameters(reparsed)
        np.testing.assert_array_equal(params.beta, reparams.beta)
        np.testing.assert_array_equal(params.gamma, reparams.gamma)


class TestParseErrors:
    def doc(self, **overrides):
        base = json.loads(serialize_scenario(make_symmetric_direct()))
        base.update(overrides)
        return base

    def test_bad_probability_sum_names_the_distribution(self):
        doc = self.doc()
        doc["aggregators"][0]["query_distribution"][0]["probability"] = 0.9
        with pytest.raises(ParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert "aggregators[0]" in str(exc.value)
        assert "0.9" in str(exc.value)

    @pytest.mark.parametrize("path, value, location, field", [
        (("aggregators", 0, "query_distribution", 0, "probability"), math.nan,
         "aggregators[0].query_distribution[0]", "probability"),
        (("ground_truth", "intercept"), math.inf, "ground_truth", "intercept"),
        (("aggregators", 0, "eta"), True, "aggregators[0]", "eta"),
        (("schema_version",), True, "document", "schema_version"),
        (("sources", 0, "feature", 0), True, "sources[0]", "feature[0]"),
        (("aggregators", 0, "zeta"), {"b2": "abc"}, "aggregators[0]", "zeta[b2]"),
        (("aggregators", 0, "zeta"), {"b2": "0.1"}, "aggregators[0]", "zeta[b2]"),
        (("direct_parameters", "beta", "s1", "b1"), -math.inf, "direct_parameters.beta.s1",
         "b1"),
    ], ids=["nan-probability", "infinite-intercept", "true-eta", "true-schema-version",
            "true-feature",
            "string-zeta", "numeric-string-zeta", "infinite-beta"])
    def test_non_finite_and_mistyped_numbers(self, path, value, location, field):
        doc = self.doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ParseError) as exc:
            parse_scenario(json.dumps(doc))  # NaN and Infinity as JSON extensions
        assert exc.value.location == location
        assert f"field {field!r}" in str(exc.value)

    def test_nonunit_diagonal_xi(self):
        doc = self.doc()
        doc["direct_parameters"]["xi"]["b1"]["s1"]["s1"] = 0.8
        with pytest.raises(ParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert "diagonal xi must be 1" in str(exc.value)

    def test_unknown_top_level_field(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario(json.dumps(self.doc(surprise=1)))
        assert "surprise" in str(exc.value)

    def test_unknown_source_field(self):
        doc = self.doc()
        doc["sources"][0]["weight"] = 2.0
        with pytest.raises(ParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert "weight" in str(exc.value)

    def test_duplicate_ids(self):
        doc = self.doc()
        doc["sources"][1]["id"] = doc["sources"][0]["id"]
        with pytest.raises(ParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert "duplicate" in str(exc.value)

    @pytest.mark.parametrize("section", ["sources", "aggregators"])
    @pytest.mark.parametrize("value", [7, 0, None, True, [[1.0]]],
                             ids=["int", "zero", "null", "true", "nested-list"])
    def test_non_object_entry(self, section, value):
        doc = self.doc()
        doc[section][0] = value
        with pytest.raises(ParseError, match="must be an object") as exc:
            parse_scenario(json.dumps(doc))
        assert exc.value.location == f"{section}[0]"

    @pytest.mark.parametrize("reverse, bad_sigma0, bad_feature, location, message", [
        (False, 1, 3, "sources[1].effort", "sigma0 > 0"),
        (False, 3, 1, "sources[1]", "field 'feature[0]' has type str"),
        (True, 0, 3, "sources[0].effort", "sigma0 > 0"),  # entry 3 comes first by id
    ], ids=["effort-first", "feature-first", "reversed-list"])
    def test_first_bad_source_in_document_order_wins(self, reverse, bad_sigma0, bad_feature,
                                                     location, message):
        # the column reader reads in id order; the error is the per-field reader's
        doc = json.loads(serialize_scenario(
            generate_scenario(GenerationSpec(6, 2, family="mixed"), 0)))
        if reverse:
            doc["sources"].reverse()
        doc["sources"][bad_sigma0]["effort"]["sigma0"] = -1
        doc["sources"][bad_feature]["feature"] = ["x"]
        with pytest.raises(ParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert exc.value.location == location and message in str(exc.value)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["direct_parameters"]["beta"].update(s9={"b1": 1.0}),
        lambda doc: doc["direct_parameters"]["beta"]["s1"].update(b9=1.0),
        lambda doc: doc["direct_parameters"]["xi"].update(b9={"s1": {"s1": 1.0}}),
        lambda doc: doc["direct_parameters"]["xi"].pop("b2"),
        lambda doc: doc["direct_parameters"]["beta"].update(s1=[1.0, 1.0]),
        lambda doc: doc["direct_parameters"]["xi"].update(b1=[[1.0]]),
        lambda doc: doc["direct_parameters"]["xi"]["b1"].update(s1=[1.0, 0.5]),
        lambda doc: doc["sources"].append(dict(doc["sources"][0])),
        lambda doc: doc.update(mode="estimator_derived"),
        lambda doc: doc.pop("direct_parameters"),
        lambda doc: doc["direct_parameters"]["beta"]["s1"].update(b1=math.nan),
    ], ids=["beta-unknown-source", "beta-unknown-aggregator", "xi-unknown-aggregator",
            "xi-missing-aggregator", "beta-row-list", "xi-rows-list", "xi-row-list",
            "duplicate-source", "tables-in-estimator-mode", "direct-without-tables",
            "nan-beta"])
    def test_malformed_direct_tables_and_ids(self, edit):
        doc = self.doc()
        edit(doc)
        with pytest.raises(ParseError):
            parse_scenario(json.dumps(doc))

    def test_version_mismatch(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario(json.dumps(self.doc(schema_version=2)))
        assert "schema_version" in str(exc.value)

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_scenario("sources: []")

    def test_integer_literal_too_long_to_convert(self):
        # json.loads raises a bare ValueError past the 4300-digit limit
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_scenario('{"schema_version": 1' + "0" * 5000 + "}")

    def test_nesting_too_deep_to_decode(self):
        # json.loads raises RecursionError, not JSONDecodeError
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_scenario("[" * 200_000)

    def test_unknown_effort_family(self):
        # with no rate field, or with any family's
        for rates in [{}] + [{form.rate: 0.5} for form in FORMS]:
            doc = self.doc()
            doc["sources"][0]["effort"] = {"family": "quadratic", "sigma0": 1.0,
                                           "set": {"kind": "unbounded"}, **rates}
            with pytest.raises(ParseError, match="unknown effort family 'quadratic'"):
                parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("effort, location, field", [
        ({"family": "exponential", "sigma0": 1.0, "lambda": 0.5,
          "set": {"kind": "unbounded", "e_max": 5.0, "junk": 1}}, ".set", "e_max"),
        ({"family": "exponential", "sigma0": 1.0, "lambda": 0.5,
          "set": {"kind": "unbounded", "e_max": 5.0}}, ".set", "e_max"),
        ({"family": "exponential", "sigma0": 1.0, "lambda": 0.5,
          "set": {"kind": "bounded", "e_max": 5.0, "junk": 1}}, ".set", "junk"),
    ] + [  # each family refuses every other family's rate field
        ({"family": form.name, "sigma0": 1.0, form.rate: 0.5, other.rate: 2.0,
          "set": {"kind": "unbounded"}}, "", repr(other.rate))
        for form in FORMS for other in FORMS if other is not form
    ], ids=["set-junk-and-e_max", "unbounded-e_max", "bounded-junk"] + [
        f"{other.rate}-on-{form.name}" for form in FORMS for other in FORMS if other is not form])
    def test_effort_fields_not_read_are_refused(self, effort, location, field):
        # at the parent each of these parsed, and the field was dropped
        doc = self.doc()
        doc["sources"][0]["effort"] = effort
        with pytest.raises(ParseError, match="unknown fields") as exc:
            parse_scenario(json.dumps(doc))
        assert exc.value.location == "sources[0].effort" + location
        assert field in str(exc.value)

    @pytest.mark.parametrize("form, effort_set", [
        (form, effort_set) for form in FORMS
        for effort_set in (EffortSet("unbounded"), EffortSet("bounded", 2.0))
    ], ids=[form.name + suffix for form in FORMS for suffix in ("", "-bounded")])
    def test_every_serialized_effort_parses(self, form, effort_set):
        # the parser accepts exactly the effort fields serialize_scenario
        # writes, under the family's document name and rate-field name
        model = EffortVarianceModel(form.cls(1.0, 0.5), effort_set)
        line = make_line_scenario()
        scenario = MarketScenario(tuple(replace(s, effort_model=model) for s in line.sources),
                                  line.aggregators, line.ground_truth)
        effort = json.loads(serialize_scenario(scenario))["sources"][0]["effort"]
        assert list(effort) == ["family", "sigma0", form.rate, "set"]
        assert (effort["family"], effort[form.rate]) == (form.name, 0.5)
        parsed = _parse_effort(effort, "effort")
        assert parsed == model and type(parsed.family) is form.cls
        assert parsed.family_name == form.name


#: Replacement values of the mutation sweep: every JSON type, the numbers the
#: parser refuses (NaN, infinities, the literal 1E400 past the float range)
#: and ids of the market.  DELETE removes the field or list item instead.
BIG_LITERAL, DELETE = "<1E400>", "<delete>"
MUTATIONS = [None, True, False, 0, -1, math.nan, math.inf, BIG_LITERAL, "x", "s001",
             "b001", [], {}, [[1.0]], [7], DELETE]


def _field_paths(node, path=()):
    """The path of every field and list item of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _mutants(text):
    """Each document with one field or list item replaced or deleted."""
    for path in _field_paths(json.loads(text)):
        for value in MUTATIONS:
            doc = json.loads(text)
            target = doc
            for key in path[:-1]:
                target = target[key]
            if value is DELETE:
                del target[path[-1]]
            else:
                target[path[-1]] = value
            yield path, value, json.dumps(doc).replace(json.dumps(BIG_LITERAL), "1E400")


#: Aggregator ids that str() makes of the sweep's True and 0: with the
#: market's aggregators renamed to them, a sharing entry cast to a string
#: names an existing aggregator and parses.
LOOKALIKE_IDS = {'"b001"': '"True"', '"b002"': '"0"'}


#: The sweep's eight configurations: mode x bounded x lookalike ids.
SWEEP_CONFIGS = [(mode, bounded, lookalikes) for mode in (MODE_ESTIMATOR, MODE_DIRECT)
                 for bounded in (False, True) for lookalikes in (False, True)]
#: SHA-256 of _sweep's listings over SWEEP_CONFIGS: every mutant's ParseError
#: (location and text) or the SHA-256 of its canonical text.
SWEEP_LISTING_SHA256 = "942d11d3a66b27e9c08b270d62a9e7f7cbb224df7553536e783bde36ec00e818"


@functools.cache
def _sweep(mode, bounded, lookalikes):
    """(failures, listing) of the mutation sweep of one configuration: what
    escaped other than a ParseError or broke the round trip, and one line per
    mutant naming its ParseError or hashing its canonical text."""
    text = serialize_scenario(generate_scenario(GenerationSpec(
        4, 2, family="mixed", bounded=bounded, mode=mode, sharing_density=0.7), 0))
    for old, new in LOOKALIKE_IDS.items() if lookalikes else ():
        text = text.replace(old, new)
    failures, listing = [], []
    for path, value, mutant in _mutants(text):
        try:
            canonical = serialize_scenario(parse_scenario(mutant))
            if serialize_scenario(parse_scenario(canonical)) != canonical:
                failures.append((path, value, "round trip differs"))
            if path[-2:-1] == ("sharing",) and not isinstance(value, str):
                failures.append((path, value, "non-string aggregator id accepted"))
            outcome = hashlib.sha256(canonical.encode()).hexdigest()
        except ParseError as exc:
            outcome = f"ParseError at {exc.location!r}: {exc}"
        except Exception as exc:  # any other escape is what the sweep looks for
            failures.append((path, value, repr(exc)))
            outcome = repr(exc)
        listing.append(f"{path!r} {value!r} {outcome}")
    return failures, listing


class TestMutationSweep:
    @pytest.mark.parametrize("lookalikes", [False, True], ids=["plain-ids", "lookalike-ids"])
    @pytest.mark.parametrize("mode", [MODE_ESTIMATOR, MODE_DIRECT])
    @pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
    def test_mutants_parse_and_round_trip_or_raise_parse_error(self, mode, bounded,
                                                               lookalikes):
        failures, _ = _sweep(mode, bounded, lookalikes)
        assert not failures, failures[:5]

    def test_every_mutant_keeps_its_refusal_or_canonical_text(self):
        # pins which field each refusal names, not only that one is raised
        listing = "\n".join(line for config in SWEEP_CONFIGS for line in _sweep(*config)[1])
        assert hashlib.sha256(listing.encode()).hexdigest() == SWEEP_LISTING_SHA256

    @pytest.mark.parametrize("entry", [1, True, 1.0, None])
    def test_non_string_sharing_entry_is_refused(self, entry):
        # an aggregator named str(entry) exists, so only the type check refuses it
        text = serialize_scenario(generate_scenario(GenerationSpec(4, 2), 0))
        doc = json.loads(text.replace('"b001"', json.dumps(str(entry))))
        doc["sources"][0]["sharing"][0] = entry
        with pytest.raises(ParseError, match=rf"^sources\[0\]: field 'sharing\[0\]' has type "
                                             rf"{type(entry).__name__}$"):
            parse_scenario(json.dumps(doc))


class TestGeneration:
    def test_same_spec_and_seed_identical_documents(self):
        spec = GenerationSpec(n_sources=4, n_aggregators=2)
        a = generate_scenario(spec, seed=7)
        b = generate_scenario(spec, seed=7)
        assert serialize_scenario(a) == serialize_scenario(b)

    def test_different_seeds_differ(self):
        spec = GenerationSpec(n_sources=4, n_aggregators=2)
        a = generate_scenario(spec, seed=7)
        b = generate_scenario(spec, seed=8)
        assert serialize_scenario(a) != serialize_scenario(b)

    def test_estimator_mode_validates_and_couples(self):
        spec = GenerationSpec(n_sources=3, n_aggregators=2, dimension=1)
        scenario, attempts = generate_scenario_with_attempts(spec, seed=11)
        assert attempts >= 1
        assert validate_scenario(scenario).ok
        params = derive_parameters(scenario)
        assert not efficiency_predicate(params)  # OLS always couples

    def test_infeasible_spec(self):
        with pytest.raises(InfeasibleSpecError):
            GenerationSpec(n_sources=2, n_aggregators=1, dimension=1)
        with pytest.raises(InfeasibleSpecError, match="unknown effort family 'custom'"):
            GenerationSpec(n_sources=4, n_aggregators=1, family="custom")

    def test_bounded_generation_respects_hypothesis(self):
        spec = GenerationSpec(n_sources=4, n_aggregators=2, bounded=True,
                              mode="direct", coupling_scale=0.2)
        scenario = generate_scenario(spec, seed=3)
        assert validate_scenario(scenario).ok
        params = derive_parameters(scenario)
        for k in range(len(params.scenario.source_ids)):
            assert (params.a_lower[k] <= params.gamma_total[k]
                    < params.a_upper[k])

    def test_direct_mode_generation(self):
        spec = GenerationSpec(n_sources=3, n_aggregators=3, mode="direct",
                              sharing_density=0.7, coupling_scale=0.4)
        scenario = generate_scenario(spec, seed=5)
        assert scenario.mode == "direct"
        assert validate_scenario(scenario).ok
        text = serialize_scenario(scenario)
        assert serialize_scenario(parse_scenario(text)) == text

    def test_mixed_families(self):
        spec = GenerationSpec(n_sources=6, n_aggregators=2, family="mixed",
                              mode="direct")
        scenario = generate_scenario(spec, seed=2)
        names = {s.effort_model.family_name for s in scenario.sources}
        assert names == {form.name for form in FORMS}

    @pytest.mark.parametrize("spec", [
        GenerationSpec(60, 4, mode=MODE_DIRECT),
        GenerationSpec(40, 5, dimension=2, sharing_density=0.6),
    ], ids=["direct", "estimator-partial-d2"])
    def test_demand_rejects_a_draw_before_it_is_built(self, spec, monkeypatch):
        # every draw of these fails validation's demand rule, which generation
        # applies before drawing xi or efforts, so no scenario is ever built
        built = []
        from_columns = MarketScenario._from_columns.__func__

        def counted(cls, *args, **kwargs):
            built.append(1)
            return from_columns(cls, *args, **kwargs)

        monkeypatch.setattr(MarketScenario, "_from_columns", classmethod(counted))
        with pytest.raises(GenerationError, match=r"last failure: net demand -?[0-9.e+-]+ "
                                                  r"must be positive"):
            generate_scenario(spec, 2)
        assert built == []
