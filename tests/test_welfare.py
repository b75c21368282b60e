"""Welfare: social cost closed forms, the efficient profile against a
golden-section oracle, and the efficiency dichotomy."""

import math

import numpy as np
import pytest

from conftest import (
    make_disjoint_datasets,
    make_line_scenario,
    make_random_direct,
    make_symmetric_direct,
)

from datamarket.equilibrium import solve_bounded, solve_unbounded
from datamarket.errors import DomainError, ScenarioValidationError
from datamarket.market import derive_parameters
from datamarket.results import welfare_to_json
from datamarket.scenario import GenerationSpec, generate_scenario
from datamarket.welfare import (
    efficiency_predicate,
    optimal_efforts,
    price_of_anarchy,
    social_cost,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo, hi, tol=1e-10, iters=200):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        if abs(b - a) < tol:
            break
    return 0.5 * (a + b)


class TestSocialCost:
    def test_zero_effort_formula(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        # gamma_total = 2 and sigma(0)^2 = 1 per source
        assert social_cost({"s1": 0.0, "s2": 0.0}, params) == pytest.approx(4.0)

    def test_at_optimum_and_equilibrium(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        e_opt = math.log(2.0)
        e_eq = math.log(4.0)
        assert social_cost({"s1": e_opt, "s2": e_opt}, params) == pytest.approx(
            2 * (2 * 0.5 + e_opt), rel=1e-12)
        assert social_cost({"s1": e_eq, "s2": e_eq}, params) == pytest.approx(
            2 * (2 * 0.25 + e_eq), rel=1e-12)

    def test_effort_outside_feasible_set(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        with pytest.raises(DomainError):
            social_cost({"s1": -0.5, "s2": 0.0}, params)


class TestOptimalEfforts:
    def test_symmetric_closed_form(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        opt = optimal_efforts(params)
        assert opt["s1"] == pytest.approx(math.log(2.0), rel=1e-12)
        assert opt["s2"] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_demand_at_minimum_gives_zero_effort(self):
        scn = make_symmetric_direct(beta_value=0.5)  # gamma_total = 1 = a_lower
        params = derive_parameters(scn)
        opt = optimal_efforts(params)
        assert opt["s1"] == pytest.approx(0.0, abs=1e-12)

    def test_demand_below_minimum_is_refused(self):
        # parameters derived without validation: the efficient effort would be negative
        params = derive_parameters(make_symmetric_direct(beta_value=0.25), require_valid=False)
        assert params.gamma_total[0] < params.a_lower[0]
        with pytest.raises(ScenarioValidationError,
                           match="source s1 is below the minimum incentive"):
            optimal_efforts(params)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_golden_section_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scn = make_random_direct(rng, n=int(rng.integers(1, 5)),
                                 m=int(rng.integers(1, 4)), coupling=0.2)
        params = derive_parameters(scn)
        opt = optimal_efforts(params)
        for sid in params.scenario.source_ids:
            def cost_of(e, sid=sid):
                trial = dict(opt)
                trial[sid] = e
                return social_cost(trial, params)
            best = golden_section_min(cost_of, 0.0, opt[sid] + 5.0)
            assert opt[sid] == pytest.approx(best, abs=1e-6)

    def test_bounded_projection(self):
        # a cap below the unconstrained optimum log(2) violates the bounded
        # saturation hypothesis, so validation flags it; the documented
        # behavior of the optimum itself is projection onto the cap
        scn = make_symmetric_direct(e_max=0.5 * math.log(2.0))
        params = derive_parameters(scn, require_valid=False)
        assert any(v.code == "demand-above-saturation"
                   for v in params.validation.violations)
        opt = optimal_efforts(params)
        assert opt["s1"] == pytest.approx(0.5 * math.log(2.0), rel=1e-12)

    def test_convexity_of_per_source_cost(self):
        rng = np.random.default_rng(42)
        scn = make_random_direct(rng, n=3, m=2)
        params = derive_parameters(scn)
        for sid, g in zip(params.scenario.source_ids, params.gamma_total):
            model = params.effort_model(sid)
            for e in np.linspace(0.0, 3.0, 7):
                sp, s = model.sigma_prime(e), model.sigma(e)
                curvature = 2 * g * (sp * sp + s * model.sigma_second(e))
                assert curvature > 0


class TestPriceOfAnarchy:
    def test_symmetric_fixture_ratio(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        report = price_of_anarchy(result, params)
        expected = (1 + 4 * math.log(2.0)) / (2 + 2 * math.log(2.0))
        assert report.poa == pytest.approx(expected, rel=1e-9)
        assert report.poa == pytest.approx(1.1141, abs=1e-3)
        assert not report.efficient_possible
        assert report.offdiagonal_xi_max == 0.5

    def test_single_aggregator_is_efficient(self):
        params = derive_parameters(make_line_scenario(n_aggregators=1))
        result = solve_unbounded(params)
        report = price_of_anarchy(result, params)
        assert report.poa == pytest.approx(1.0, abs=1e-9)
        assert report.efficient_possible is True

    def test_disjoint_datasets_are_efficient(self):
        # Xi = 0, so the weights are the demands
        params = derive_parameters(make_disjoint_datasets())
        assert params.offdiagonal_xi_max() > 0
        assert not params.coupling.toarray().any()
        report = price_of_anarchy(solve_unbounded(params), params)
        assert report.poa == 1.0
        assert report.efficient_possible is True
        assert '"efficient_possible": true' in welfare_to_json(report)

    def test_decoupled_market_is_efficient(self):
        params = derive_parameters(make_symmetric_direct(xi_offdiag=0.0))
        result = solve_unbounded(params)
        report = price_of_anarchy(result, params)
        assert report.poa == pytest.approx(1.0, abs=1e-9)
        assert report.efficient_possible

    def test_tiny_coupling_is_strictly_inefficient(self):
        params = derive_parameters(make_symmetric_direct(xi_offdiag=1e-6))
        result = solve_unbounded(params)
        report = price_of_anarchy(result, params)
        assert not report.efficient_possible
        assert report.poa > 1.0

    def test_poa_at_least_one_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            scn = make_random_direct(rng, n=int(rng.integers(1, 5)),
                                     m=int(rng.integers(1, 4)), coupling=0.25)
            params = derive_parameters(scn)
            result = solve_unbounded(params)
            if not result.solved:
                continue
            report = price_of_anarchy(result, params)
            assert report.poa >= 1.0 - 1e-12

    def test_estimator_mode_is_never_efficient(self):
        # 8 points keep leave-one-out leverage low enough for existence
        params = derive_parameters(make_line_scenario(n_aggregators=2, n_points=8))
        assert not efficiency_predicate(params)
        result = solve_unbounded(params)
        assert result.solved, result.diagnostics
        report = price_of_anarchy(result, params)
        assert report.poa > 1.0

    def test_bounded_equilibrium_welfare(self):
        params = derive_parameters(make_symmetric_direct(e_max=math.log(3.0)))
        result = solve_bounded(params)
        report = price_of_anarchy(result, params)
        # clamped total 3 still exceeds the demand 2, so inefficiency persists
        assert report.poa > 1.0
        assert report.optimal_efforts["s1"] == pytest.approx(math.log(2.0), rel=1e-9)

    def test_saturated_efforts_stay_inside_the_cap(self):
        # clamped totals sit at a_upper, where the closed-form effort map
        # lands a rounding error above e_max unless it is clamped too
        scn = generate_scenario(GenerationSpec(64, 4, family="mixed", bounded=True), 0)
        params = derive_parameters(scn)
        result = solve_bounded(params)
        report = price_of_anarchy(result, params)
        assert report.poa >= 1.0
        for sid, effort in result.efforts.items():
            assert effort <= params.effort_model(sid).effort_set.e_max

    def test_over_provision_in_inefficient_equilibria(self):
        rng = np.random.default_rng(23)
        scn = make_random_direct(rng, n=3, m=2, coupling=0.3)
        params = derive_parameters(scn)
        result = solve_unbounded(params)
        assert result.solved
        if not efficiency_predicate(params):
            totals = result.a.a_total
            demand = dict(zip(params.scenario.source_ids, params.gamma_total))
            assert all(totals[s] >= demand[s] - 1e-12 for s in totals)
            assert any(totals[s] > demand[s] + 1e-9 for s in totals)

    def test_requires_solved_result(self):
        params = derive_parameters(make_symmetric_direct(xi_offdiag=1.0))
        result = solve_unbounded(params)
        with pytest.raises(DomainError):
            price_of_anarchy(result, params)
