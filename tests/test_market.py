"""Parameter derivation: relevance, coupling, demand, and the coupling
matrix, against hand linear algebra and structural invariants."""

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
    assemble_xi_matrix,
    derive_beta,
    derive_gamma,
    derive_parameters,
    derive_xi,
    validate_scenario,
)


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
        per_atom = [ols_coefficients(pts, point_mass(p)).as_array() for p in pts]
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
        xi = derive_xi(line_two_aggregators)
        for table in xi:
            assert np.all(np.diag(table) == 1.0)

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
        assert np.all(params.xi_matrix == 0.0)

    def test_single_source_zero_matrix(self):
        model = exponential_model(1.0, 0.5)
        sources = (DataSourceSpec("s1", (0.0,), model, ("b1", "b2")),)
        aggs = (AggregatorSpec("b1", OLS, point_mass((0.0,))),
                AggregatorSpec("b2", OLS, point_mass((0.0,))))
        beta = {("s1", "b1"): 1.0, ("s1", "b2"): 1.0}
        xi = {"b1": {("s1", "s1"): 1.0}, "b2": {("s1", "s1"): 1.0}}
        scn = MarketScenario(sources, aggs, GroundTruth((1.0,), 0.0),
                             mode="direct", direct_beta=beta, direct_xi=xi)
        matrix, pairs = assemble_xi_matrix(scn, derive_parameters(scn).xi)
        assert matrix.shape == (2, 2)
        assert np.all(matrix == 0.0)

    def test_symmetric_pairing_structure(self, symmetric_direct):
        matrix, pairs = assemble_xi_matrix(symmetric_direct,
                                           derive_parameters(symmetric_direct).xi)
        assert pairs == (("s1", "b1"), ("s1", "b2"), ("s2", "b1"), ("s2", "b2"))
        assert matrix.shape == (4, 4)
        # exactly one 0.5 per row, pairing (s, b) with the opposite pair
        assert np.count_nonzero(matrix) == 4
        np.testing.assert_allclose(matrix.sum(axis=1), 0.5)
        rho = max(abs(np.linalg.eigvals(matrix)))
        assert rho == pytest.approx(0.5, abs=1e-12)

    def test_zero_blocks_invariant(self, line_two_aggregators):
        params = derive_parameters(line_two_aggregators)
        matrix, pairs = params.xi_matrix, params.pairs
        assert np.all(matrix >= 0)
        for (s, b), row in params.pair_index.items():
            for (l, j), col in params.pair_index.items():
                if j == b or l == s:
                    assert matrix[row, col] == 0.0

    def test_direct_reentry_reproduces_matrix(self, line_two_aggregators):
        params = derive_parameters(line_two_aggregators)
        scn = line_two_aggregators
        direct = MarketScenario(scn.sources, scn.aggregators, scn.ground_truth,
                                mode="direct", direct_beta=by_pair(scn, params.beta),
                                direct_xi=xi_tables(params))
        reparams = derive_parameters(direct)
        np.testing.assert_array_equal(params.xi_matrix, reparams.xi_matrix)
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
        sub = params_full.xi_matrix[np.ix_(keep, keep)]
        np.testing.assert_array_equal(sub, params_red.xi_matrix)


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


class TestConstructionErrors:
    def test_direct_diagonal_must_be_one(self):
        scn = make_symmetric_direct()
        bad_xi = {b: dict(t) for b, t in scn.direct_xi.items()}
        bad_xi["b1"][("s1", "s1")] = 0.9
        with pytest.raises(DomainError):
            MarketScenario(scn.sources, scn.aggregators, scn.ground_truth,
                           mode="direct", direct_beta=scn.direct_beta,
                           direct_xi=bad_xi)

    def test_duplicate_ids(self):
        model = exponential_model(1.0, 0.5)
        s = DataSourceSpec("s1", (0.0,), model, ("b1",))
        dup = DataSourceSpec("s1", (1.0,), model, ("b1",))
        agg = AggregatorSpec("b1", OLS, point_mass((0.0,)))
        with pytest.raises(DomainError):
            MarketScenario((s, dup), (agg,), GroundTruth((1.0,), 0.0))

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
        for name in ("source_ids", "aggregator_ids", "sources_by_id",
                     "aggregators_by_id", "_datasets"):
            getattr(scenario, name)
        scenario.dataset("b1")
        assert set(vars(scenario)) == keys

        params = derive_parameters(make_line_scenario(n_aggregators=2))
        keys = set(vars(params))
        params.pair_index
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
