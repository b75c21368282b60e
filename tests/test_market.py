"""Parameter derivation: relevance, coupling, demand, and the coupling
matrix, against hand linear algebra and structural invariants."""

import csv
import io
import math
from dataclasses import replace
from operator import setitem

import numpy as np
import pytest

from conftest import OLS, by_pair, make_line_scenario, make_symmetric_direct, pair_array, xi_tables

from datamarket.effort import EffortSet, exponential_model
from datamarket.errors import DomainError, IllDefinedPaymentError, ScenarioValidationError
from datamarket.estimators import QueryDistribution, point_mass
from datamarket.market import (
    AggregatorSpec,
    DataSourceSpec,
    GroundTruth,
    MarketScenario,
    derive_beta,
    derive_gamma,
    derive_parameters,
    derive_xi,
    validate_scenario,
)
from datamarket import market
from datamarket.equilibrium import certify_equilibrium, solve_bounded, solve_unbounded
from datamarket.results import (
    beta_csv,
    gamma_csv,
    result_from_json,
    result_to_json,
    rounds_csv,
    xi_csv,
    xi_matrix_csv,
)
from datamarket.scenario import (
    GenerationSpec,
    generate_scenario,
    parse_scenario,
    serialize_scenario,
)
from datamarket.simulate import iter_rounds, payment_statistics


def two_point_scenario(query):
    model = exponential_model(1.0, 0.5)
    sources = (DataSourceSpec("s1", (0.0,), model, ("b1",)),
               DataSourceSpec("s2", (1.0,), model, ("b1",)))
    aggregators = (AggregatorSpec("b1", OLS, query),)
    return MarketScenario(sources, aggregators, GroundTruth((1.0,), 0.0))


class TestDeriveBeta:
    def test_two_point_delta_query(self):
        scn = two_point_scenario(point_mass((0.0,)))
        beta = by_pair(scn, derive_beta(scn))
        assert beta[("s1", "b1")] == pytest.approx(1.0, abs=1e-14)
        assert beta[("s2", "b1")] == pytest.approx(0.0, abs=1e-14)

    def test_uniform_query_is_atom_mixture(self):
        pts = [(0.0,), (1.0,), (2.0,)]
        uniform = QueryDistribution(tuple((p, 1 / 3) for p in pts))
        scenario = make_line_scenario(n_aggregators=1, query_points=[(1.5,)])
        # rebuild first three sources only, querying uniformly over them
        sources = scenario.sources[:3]
        agg = AggregatorSpec("b1", OLS, uniform)
        scn = MarketScenario(sources, (agg,), scenario.ground_truth)
        beta = by_pair(scn, derive_beta(scn))
        from datamarket.estimators import ols_coefficients
        per_atom = [ols_coefficients(pts, point_mass(p)) for p in pts]
        expected = np.mean(per_atom, axis=0)
        got = np.array([beta[(s.id, "b1")] for s in sources])
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_no_entry_outside_sharing_set(self):
        scn = make_line_scenario(n_aggregators=2,
                                 sharing={"s1": ("b1",), "s2": ("b1", "b2"),
                                          "s3": ("b1", "b2"), "s4": ("b2",)})
        beta = by_pair(scn, derive_beta(scn))
        assert ("s1", "b2") not in beta
        assert ("s4", "b1") not in beta
        assert ("s2", "b1") in beta and ("s2", "b2") in beta

    def test_direct_mode_rejected(self):
        with pytest.raises(DomainError):
            derive_beta(make_symmetric_direct())


class TestDeriveXi:
    def test_diagonal_is_one(self, line_two_aggregators):
        # xi_b(s, s) = 1 is added where it is read: the stored blocks hold 0
        params = derive_parameters(line_two_aggregators)
        for block in derive_xi(line_two_aggregators):
            assert np.all(np.diag(block) == 0.0)
        rows = [line.split(",") for line in xi_csv(params).splitlines()[1:]]
        assert all(float(v) == 1.0 for _, i, l, v in rows if i == l)
        assert sum(i == l for _, i, l, _ in rows) == len(params.pairs)

    def test_hand_example_center_of_three(self):
        scn = make_line_scenario(n_aggregators=1)
        sources = scn.sources[:3]  # points 0, 1, 2
        scn3 = MarketScenario(sources, scn.aggregators, scn.ground_truth)
        xi = derive_xi(scn3)[0]
        # leave out the center point: interpolation through 0 and 2 puts
        # weight 1/2 on each, so the coupling is 1/4 on each neighbor
        assert xi[1, 0] == pytest.approx(0.25, rel=1e-12)
        assert xi[1, 2] == pytest.approx(0.25, rel=1e-12)

    def test_two_sources_leave_one_out_ill_defined(self):
        scn = two_point_scenario(point_mass((0.5,)))
        with pytest.raises(IllDefinedPaymentError) as exc:
            derive_xi(scn)
        assert exc.value.aggregator == "b1"
        assert exc.value.source in ("s1", "s2")


class TestDeriveGamma:
    def test_zero_zeta_gives_beta(self, line_two_aggregators):
        scn = make_line_scenario(n_aggregators=2, zeta=0.0)
        beta = derive_beta(scn)
        gamma, _ = derive_gamma(scn, beta)
        assert by_pair(scn, gamma) == by_pair(scn, beta)

    def test_full_cancellation_flagged_not_raised(self):
        scn = make_symmetric_direct()
        # zeta = 1 with identical betas cancels demand entirely
        aggs = tuple(
            AggregatorSpec(b.id, b.estimator, b.query_dist,
                           zeta={j: 1.0 for j in ("b1", "b2") if j != b.id})
            for b in scn.aggregators)
        cancelled = MarketScenario(scn.sources, aggs, scn.ground_truth,
                                   mode="direct", direct_beta=scn.direct_beta,
                                   direct_xi=scn.direct_xi)
        gamma, _ = derive_gamma(cancelled, pair_array(cancelled, cancelled.direct_beta))
        assert all(v == pytest.approx(0.0) for v in by_pair(cancelled, gamma).values())
        report = validate_scenario(cancelled)
        assert not report.ok
        assert any(v.code == "nonpositive-demand" for v in report.violations)

    def test_asymmetric_arithmetic(self):
        model = exponential_model(1.0, 5.0)  # low minimum incentive
        sources = (DataSourceSpec("s1", (0.0,), model, ("b1", "b2")),)
        aggregators = (
            AggregatorSpec("b1", OLS, point_mass((0.0,)), zeta={"b2": 0.5}),
            AggregatorSpec("b2", OLS, point_mass((0.0,)), zeta={"b1": 0.2}),
        )
        beta = {("s1", "b1"): 0.6, ("s1", "b2"): 0.5}
        xi = {"b1": {("s1", "s1"): 1.0}, "b2": {("s1", "s1"): 1.0}}
        scn = MarketScenario(sources, aggregators, GroundTruth((1.0,), 0.0),
                             mode="direct", direct_beta=beta, direct_xi=xi)
        gamma, total = derive_gamma(scn, pair_array(scn, beta))
        gamma, total = by_pair(scn, gamma), dict(zip(scn.source_ids, total.tolist()))
        assert gamma[("s1", "b1")] == pytest.approx(0.35, rel=1e-12)
        assert gamma[("s1", "b2")] == pytest.approx(0.38, rel=1e-12)
        assert total["s1"] == pytest.approx(0.73, rel=1e-12)

    def test_payment_scale_rescales_demand(self):
        scn = make_symmetric_direct()
        scaled_aggs = tuple(
            AggregatorSpec(b.id, b.estimator, b.query_dist, b.zeta, payment_scale=2.0)
            for b in scn.aggregators)
        scaled = MarketScenario(scn.sources, scaled_aggs, scn.ground_truth,
                                mode="direct", direct_beta=scn.direct_beta,
                                direct_xi=scn.direct_xi)
        gamma, _ = derive_gamma(scaled, pair_array(scaled, scaled.direct_beta))
        assert all(v == pytest.approx(0.5) for v in by_pair(scaled, gamma).values())
        report = validate_scenario(scaled)
        assert any("normalized" in n for n in report.notes)


class TestXiMatrix:
    def test_single_aggregator_zero_matrix(self):
        scn = make_line_scenario(n_aggregators=1)
        params = derive_parameters(scn)
        assert np.all(params.coupling.toarray() == 0.0)

    def test_single_source_zero_matrix(self):
        model = exponential_model(1.0, 0.5)
        sources = (DataSourceSpec("s1", (0.0,), model, ("b1", "b2")),)
        aggs = (AggregatorSpec("b1", OLS, point_mass((0.0,))),
                AggregatorSpec("b2", OLS, point_mass((0.0,))))
        beta = {("s1", "b1"): 1.0, ("s1", "b2"): 1.0}
        xi = {"b1": {("s1", "s1"): 1.0}, "b2": {("s1", "s1"): 1.0}}
        scn = MarketScenario(sources, aggs, GroundTruth((1.0,), 0.0),
                             mode="direct", direct_beta=beta, direct_xi=xi)
        matrix = derive_parameters(scn).coupling.toarray()
        assert matrix.shape == (2, 2)
        assert np.all(matrix == 0.0)

    def test_symmetric_pairing_structure(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        matrix, pairs = params.coupling.toarray(), params.pairs
        assert pairs == (("s1", "b1"), ("s1", "b2"), ("s2", "b1"), ("s2", "b2"))
        assert matrix.shape == (4, 4)
        # exactly one 0.5 per row, pairing (s, b) with the opposite pair
        assert np.count_nonzero(matrix) == 4
        np.testing.assert_allclose(matrix.sum(axis=1), 0.5)
        rho = max(abs(np.linalg.eigvals(matrix)))
        assert rho == pytest.approx(0.5, abs=1e-12)

    def test_zero_blocks_invariant(self, line_two_aggregators):
        params = derive_parameters(line_two_aggregators)
        matrix, pairs = params.coupling.toarray(), params.pairs
        assert np.all(matrix >= 0)
        for row, (s, b) in enumerate(pairs):
            for col, (l, j) in enumerate(pairs):
                if j == b or l == s:
                    assert matrix[row, col] == 0.0

    def test_direct_reentry_reproduces_matrix(self, line_two_aggregators):
        params = derive_parameters(line_two_aggregators)
        scn = line_two_aggregators
        direct = MarketScenario(scn.sources, scn.aggregators, scn.ground_truth,
                                mode="direct", direct_beta=by_pair(scn, params.beta),
                                direct_xi=xi_tables(params))
        reparams = derive_parameters(direct)
        np.testing.assert_array_equal(params.coupling.toarray(), reparams.coupling.toarray())
        assert by_pair(scn, params.gamma) == by_pair(scn, reparams.gamma)
        assert params.pairs == reparams.pairs

    def test_partial_sharing_deletes_rows_only(self):
        full = make_line_scenario(n_aggregators=2)
        params_full = derive_parameters(full)
        # drop b2 from every sharing set
        sources = tuple(
            DataSourceSpec(s.id, s.feature, s.effort_model, ("b1",))
            for s in full.sources)
        reduced = MarketScenario(sources, full.aggregators[:1], full.ground_truth)
        params_red = derive_parameters(reduced)
        keep = [k for k, (s, b) in enumerate(params_full.pairs) if b == "b1"]
        sub = params_full.coupling.toarray()[np.ix_(keep, keep)]
        np.testing.assert_array_equal(sub, params_red.coupling.toarray())


class TestValidation:
    def test_symmetric_fixture_is_valid(self, symmetric_direct):
        assert validate_scenario(symmetric_direct).ok

    def test_mixed_effort_kinds(self):
        bounded = exponential_model(1.0, 0.5, EffortSet("bounded", e_max=1.0))
        unbounded = exponential_model(1.0, 0.5)
        sources = (DataSourceSpec("s1", (0.0,), bounded, ("b1",)),
                   DataSourceSpec("s2", (1.0,), unbounded, ("b1",)),
                   DataSourceSpec("s3", (2.0,), unbounded, ("b1",)))
        aggs = (AggregatorSpec("b1", OLS, point_mass((1.0,))),)
        scn = MarketScenario(sources, aggs, GroundTruth((1.0,), 0.0))
        report = validate_scenario(scn)
        assert any(v.code == "mixed-effort-kinds" for v in report.violations)

    def test_demand_below_minimum_incentive(self):
        # beta sums far below a_lower = 1
        model = exponential_model(1.0, 0.5)
        sources = (DataSourceSpec("s1", (0.0,), model, ("b1",)),)
        aggs = (AggregatorSpec("b1", OLS, point_mass((0.0,))),)
        scn = MarketScenario(sources, aggs, GroundTruth((1.0,), 0.0),
                             mode="direct", direct_beta={("s1", "b1"): 0.25},
                             direct_xi={"b1": {("s1", "s1"): 1.0}})
        report = validate_scenario(scn)
        assert any(v.code == "demand-below-minimum" for v in report.violations)

    def test_solvers_refuse_invalid(self):
        model = exponential_model(1.0, 0.5)
        sources = (DataSourceSpec("s1", (0.0,), model, ("b1",)),)
        aggs = (AggregatorSpec("b1", OLS, point_mass((0.0,))),)
        scn = MarketScenario(sources, aggs, GroundTruth((1.0,), 0.0),
                             mode="direct", direct_beta={("s1", "b1"): 0.25},
                             direct_xi={"b1": {("s1", "s1"): 1.0}})
        with pytest.raises(ScenarioValidationError):
            derive_parameters(scn)
        params = derive_parameters(scn, require_valid=False)
        assert not params.validation.ok

    def test_nonfinite_demand_is_refused_whatever_require_valid(self):
        # an eta of 5e-324 makes b1's net demand infinite: its tables hold
        # no number to inspect, so require_valid=False refuses it too
        scn = make_line_scenario(n_aggregators=2)
        aggs = (replace(scn.aggregators[0], payment_scale=5e-324), scn.aggregators[1])
        scn = MarketScenario(scn.sources, aggs, scn.ground_truth)
        report = validate_scenario(scn)
        assert {v.code for v in report.violations} == {"nonfinite-demand"}
        for require_valid in (True, False):
            with pytest.raises(ScenarioValidationError) as got:
                derive_parameters(scn, require_valid=require_valid)
            assert got.value.violations == report.violations


#: A write to each table of a direct scenario and of its derived parameters, by name.
TABLE_WRITES = {
    "membership": lambda scn, params: setitem(scn.membership, (0, 0), False),
    **{f"effort_map.{column}": lambda scn, params, column=column: setitem(
        getattr(scn.effort_map, column), 0, 2.0)
       for column in ("family", "sigma0", "rate", "e_max", "a_lower", "a_upper")},
    "aggregator zeta": lambda scn, params: setitem(scn.aggregators[0].zeta, "b2", 0.5),
    "direct_beta entry": lambda scn, params: setitem(scn.direct_beta, ("s1", "b1"), -1.0),
    "direct_beta array": lambda scn, params: setitem(scn.direct_beta.array, 0, -1.0),
    "direct_xi[b] entry": lambda scn, params: setitem(scn.direct_xi["b1"], ("s1", "s2"), -1.0),
    "direct_xi[b] array": lambda scn, params: setitem(scn.direct_xi["b1"].array, 1, -1.0),
    "direct_xi": lambda scn, params: setitem(scn.direct_xi, "b1", {}),
    **{f"derived {name}": lambda scn, params, name=name: setitem(getattr(params, name), 0, 9.0)
       for name in ("beta", "gamma", "gamma_total")},
}


@pytest.mark.parametrize("write", sorted(TABLE_WRITES))
def test_tables_are_read_only(write):
    scn = make_symmetric_direct()
    params = derive_parameters(scn)
    with pytest.raises((ValueError, TypeError)):
        TABLE_WRITES[write](scn, params)
    again = derive_parameters(scn)
    for before, after in ((params.beta, again.beta), (params.gamma, again.gamma),
                          *zip(params.xi, again.xi)):
        np.testing.assert_array_equal(after, before)
    np.testing.assert_array_equal(params.beta, np.ones(4))
    np.testing.assert_array_equal(params.xi[0], [[0.0, 0.5], [0.5, 0.0]])


class TestConstructionErrors:
    def test_direct_diagonal_must_be_one(self):
        scn = make_symmetric_direct()
        bad_xi = {b: dict(t) for b, t in scn.direct_xi.items()}
        bad_xi["b1"][("s1", "s1")] = 0.9
        with pytest.raises(DomainError):
            MarketScenario(scn.sources, scn.aggregators, scn.ground_truth,
                           mode="direct", direct_beta=scn.direct_beta,
                           direct_xi=bad_xi)

    def test_first_xi_violation_in_id_order(self):
        # b1's table lists a bad diagonal before a negative entry that comes
        # first in id order: the negative entry is the one reported
        scn = make_symmetric_direct()
        xi = {**scn.direct_xi, "b1": {("s2", "s2"): 0.5, ("s1", "s2"): -0.5,
                                      ("s1", "s1"): 1.0, ("s2", "s1"): math.nan}}
        with pytest.raises(DomainError, match=r"^xi values must be nonnegative and finite "
                                              r"\(aggregator 'b1', pair \('s1', 's2'\)\)$"):
            MarketScenario(scn.sources, scn.aggregators, scn.ground_truth,
                           mode="direct", direct_beta=scn.direct_beta, direct_xi=xi)

    def test_duplicate_ids(self):
        model = exponential_model(1.0, 0.5)
        s = DataSourceSpec("s1", (0.0,), model, ("b1",))
        dup = DataSourceSpec("s1", (1.0,), model, ("b1",))
        agg = AggregatorSpec("b1", OLS, point_mass((0.0,)))
        with pytest.raises(DomainError, match=r"duplicate source ids \['s1'\]"):
            MarketScenario((s, dup), (agg,), GroundTruth((1.0,), 0.0))

    def test_direct_xi_of_unknown_aggregator(self):
        # serialize_scenario would write a table that parse_scenario refuses
        scn = make_symmetric_direct()
        xi = {**scn.direct_xi, "b9": {("s1", "s1"): 1.0}}
        with pytest.raises(DomainError, match="first mismatch 'b9'"):
            MarketScenario(scn.sources, scn.aggregators, scn.ground_truth,
                           mode="direct", direct_beta=scn.direct_beta, direct_xi=xi)

    def test_direct_beta_keyed_by_an_id_of_another_type(self):
        scn = make_symmetric_direct()
        beta = dict(scn.direct_beta)
        beta[(1, "b1")] = beta.pop(("s1", "b1"))
        with pytest.raises(DomainError, match=r"first mismatch \(1, 'b1'\)"):
            MarketScenario(scn.sources, scn.aggregators, scn.ground_truth,
                           mode="direct", direct_beta=beta, direct_xi=scn.direct_xi)

    def test_unknown_sharing_target(self):
        model = exponential_model(1.0, 0.5)
        s = DataSourceSpec("s1", (0.0,), model, ("nope",))
        agg = AggregatorSpec("b1", OLS, point_mass((0.0,)))
        with pytest.raises(DomainError):
            MarketScenario((s,), (agg,), GroundTruth((1.0,), 0.0))

    def test_zeta_range(self):
        with pytest.raises(DomainError):
            AggregatorSpec("b1", OLS, point_mass((0.0,)), zeta={"b2": 1.5})


class TestLookupsFilledAtConstruction:
    """Cached lookups written into an instance's __dict__ after construction
    slow every later attribute read on it, so they are filled up front."""

    def test_reads_add_no_instance_keys(self):
        scenario = make_line_scenario(n_aggregators=2)
        keys = set(vars(scenario))
        for name in ("source_ids", "aggregator_ids", "membership", "pair_source",
                     "pair_aggregator", "aggregator_pairs", "members", "features",
                     "effort_map", "_sharing_pairs", "dimension"):
            getattr(scenario, name)
        scenario.dataset("b1")
        scenario.sharing_pairs()
        assert set(vars(scenario)) == keys

        params = derive_parameters(make_line_scenario(n_aggregators=2))
        keys = set(vars(params))
        params.aggregator_pairs
        params.effort_model("s1")
        assert set(vars(params)) == keys

    def test_membership_is_a_field_filled_at_construction(self):
        scenario = make_line_scenario(n_aggregators=3,
                                      sharing={"s1": ("b1",), "s2": ("b1", "b3"),
                                               "s3": ("b2", "b3"), "s4": ("b1", "b2", "b3")})
        assert "membership" in vars(scenario)
        np.testing.assert_array_equal(scenario.membership, [[True, False, False],
                                                            [True, False, True],
                                                            [False, True, True],
                                                            [True, True, True]])

    def test_effort_kind_is_a_field_filled_at_construction(self):
        params = derive_parameters(make_line_scenario(n_aggregators=2))
        assert "effort_kind" in vars(params)
        assert params.effort_kind == "unbounded"
        bounded = derive_parameters(make_symmetric_direct(e_max=1.0))
        assert bounded.effort_kind == "bounded"


def _pipeline_texts(scenario):
    """Every deterministic text of one market: document, validation summary,
    derived CSVs, result JSON and certificate."""
    params = derive_parameters(scenario)
    solve = solve_bounded if params.effort_kind == "bounded" else solve_unbounded
    result = result_from_json(result_to_json(solve(params)))
    return [serialize_scenario(scenario), validate_scenario(scenario).summary(),
            beta_csv(params), gamma_csv(params), xi_csv(params), xi_matrix_csv(params),
            result_to_json(result), certify_equilibrium(result, params).summary()]


class TestIndexBuiltOnce:
    """MarketScenario indexes the market once, in id order, and every reader
    holds the scenario's own index and effort map."""

    @pytest.mark.parametrize("spec", [
        GenerationSpec(12, 3, family="mixed", sharing_density=0.7),
        GenerationSpec(12, 3, family="mixed", bounded=True),
        GenerationSpec(5, 3, mode="direct", sharing_density=0.7),
    ], ids=["unbounded", "bounded", "direct"])
    def test_input_order_does_not_matter(self, spec):
        scenario = generate_scenario(spec, 0)
        reversed_ = MarketScenario(scenario.sources[::-1], scenario.aggregators[::-1],
                                   scenario.ground_truth, mode=scenario.mode,
                                   direct_beta=scenario.direct_beta,
                                   direct_xi=scenario.direct_xi)
        assert [s.id for s in reversed_.sources] == sorted(s.id for s in scenario.sources)
        assert [b.id for b in reversed_.aggregators] == sorted(
            b.id for b in scenario.aggregators)
        assert _pipeline_texts(reversed_) == _pipeline_texts(scenario)

    def test_every_reader_holds_the_scenario_index(self, monkeypatch):
        built, pair_index = [], market._pair_index
        monkeypatch.setattr(market, "_pair_index",
                            lambda membership: built.append(1) or pair_index(membership))
        text = serialize_scenario(generate_scenario(GenerationSpec(10, 3, family="mixed"), 0))
        built.clear()
        params = derive_parameters(parse_scenario(text))
        result = solve_unbounded(params)
        assert certify_equilibrium(result, params).passed
        assert len(list(iter_rounds(params.scenario, result, 3, seed=1))) == 3
        payment_statistics(params.scenario, result, 2, seed=1)
        assert built == [1]
        scenario = params.scenario
        for name in ("pair_source", "pair_aggregator", "aggregator_pairs", "effort_map"):
            assert getattr(params, name) is getattr(scenario, name), name
        assert not scenario.features.flags.writeable
        assert not any(array.flags.writeable for array in (
            scenario.pair_source, scenario.pair_aggregator, *scenario.aggregator_pairs,
            *scenario.members))


def _renamed(scenario, names):
    """The scenario with the ids in `names` renamed, everywhere they appear."""
    def new(key):
        return names.get(key, key)

    sources = tuple(replace(s, id=new(s.id), sharing=tuple(map(new, s.sharing)))
                    for s in scenario.sources)
    aggregators = tuple(replace(b, id=new(b.id), zeta={new(k): z for k, z in b.zeta.items()})
                        for b in scenario.aggregators)
    return MarketScenario(sources, aggregators, scenario.ground_truth)


def test_csv_ids_are_quoted_when_they_must_be():
    # ids with a comma, a double quote, CR or LF are legal; every CSV quotes
    # them, so each row keeps the header's columns and the ids read back
    scenario = _renamed(make_line_scenario(n_aggregators=2, zeta=0.1, n_points=8),
                        {"s1": "s,1", "s2": 's"2', "s3": "s\r3", "b1": "b\n1"})
    params = derive_parameters(scenario)
    result = solve_unbounded(params)
    pairs, sids, bids = params.pairs, scenario.source_ids, scenario.aggregator_ids
    tables = {name: list(csv.reader(io.StringIO(text, newline=""))) for name, text in {
        "beta": beta_csv(params), "gamma": gamma_csv(params), "xi": xi_csv(params),
        "xi_matrix": xi_matrix_csv(params),
        "rounds": rounds_csv(scenario, iter_rounds(scenario, result, 3, seed=1))}.items()}
    for name, (header, *rows) in tables.items():
        assert rows and {len(row) for row in rows} == {len(header)}, name
    for name in ("beta", "gamma", "xi_matrix"):
        assert [tuple(row[:2]) for row in tables[name][1:]] == list(pairs), name
    xi_rows = tables["xi"][1:]
    assert {row[0] for row in xi_rows} == set(bids)
    assert {row[1] for row in xi_rows} == {row[2] for row in xi_rows} == set(sids)
    assert tables["xi_matrix"][0][2:] == [f"{s}:{b}" for s, b in pairs]
    assert tables["rounds"][0] == ["round", *(f"y_{s}" for s in sids),
                                   *(f"p_{s}_{b}" for s, b in pairs),
                                   *(f"loss_{b}" for b in bids)]
