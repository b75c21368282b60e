"""The one-pass best-response grid of certify_equilibrium against the
brute-force reference: recompute an aggregator's whole reduced loss at every
grid point.  Both must report the same largest improvement (within 1e-12
relative) at the same location, on solved and on corrupted quality weights."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_line_scenario, make_random_direct, make_symmetric_direct

from datamarket.effort import CustomVariance, EffortVarianceModel, effort_response, variance_at
from datamarket.equilibrium import (
    BOUNDARY_SLACK,
    AParameters,
    _variance_weights,
    _worst_grid_deviation,
    certify_equilibrium,
    solve_bounded,
    solve_unbounded,
)
from datamarket.market import MarketScenario, derive_parameters
from datamarket.scenario import GenerationSpec, generate_scenario

REL_TOL = 1e-12
DEFAULT_GRID = np.linspace(-0.5, 0.5, 11)


# ---------------------------------------------------------------------------
# Brute-force reference
# ---------------------------------------------------------------------------

def _a_total(params, a):
    """Per-source sums of an id-keyed quality-weight table."""
    return {sid: sum(a[(sid, bid)] for bid in params.scenario.sources_by_id[sid].sharing)
            for sid in params.scenario.source_ids}


def one_pass(params, a, totals, grid):
    """_worst_grid_deviation on id-keyed tables."""
    a_vec = np.array([a[pair] for pair in params.pairs])
    return _worst_grid_deviation(
        params, a_vec, np.array([totals[sid] for sid in params.scenario.source_ids]), grid,
        _variance_weights(params, a_vec))


def effort_at(model, a_total, clamp):
    """The public effort map under the solver's rule at the incentive bounds:
    clamped onto them on bounded markets, else snapped onto a bound from
    within BOUNDARY_SLACK * max(1, a_lower)."""
    bounds = model.incentive_bounds
    if clamp:
        a_total = min(max(a_total, bounds.a_lower), bounds.a_upper)
    else:
        slack = BOUNDARY_SLACK * max(1.0, bounds.a_lower)
        if bounds.a_lower - slack <= a_total < bounds.a_lower:
            a_total = bounds.a_lower
        if bounds.bounded and bounds.a_upper < a_total <= bounds.a_upper + slack:
            a_total = bounds.a_upper
    return effort_response(model, a_total)


def reduced_loss_terms(params, bid, a):
    """The terms of aggregator b's reduced loss: own estimation loss plus the
    payment obligations created by rivals' contracts plus the efforts it must
    help compensate.  Constant terms (rival c parameters) are dropped; only
    differences matter."""
    position = {sid: k for k, sid in enumerate(params.scenario.source_ids)}
    column = {b: k for k, b in enumerate(params.scenario.aggregator_ids)}
    sids = params.scenario.source_ids
    totals = _a_total(params, a)
    clamp = params.effort_kind == "bounded"
    efforts = {sid: effort_at(params.effort_model(sid), totals[sid], clamp) for sid in sids}
    variances = {sid: variance_at(params.effort_model(sid), efforts[sid]) for sid in sids}
    terms = []
    for i in params.scenario.dataset(bid):
        terms.append(params.gamma[params.pair_index[(i, bid)]] * variances[i])
        terms.append(efforts[i])
        for j in params.scenario.sources_by_id[i].sharing:
            if j == bid:
                continue
            terms.extend(a[(i, j)] * float(params.xi[column[j], position[i], position[l]])
                         * variances[l] for l in params.scenario.dataset(j))
    return terms


def brute_force_grid(params, a, totals, grid):
    """Largest grid improvement and its location, recomputing the whole loss
    at every feasible deviation.  The difference of the two losses is summed
    exactly: plain summation rounds a loss near 10 by about 1e-15, which is
    1e-11 of a 1e-4 improvement."""
    bounded = params.effort_kind == "bounded"
    worst_improvement = 0.0
    worst_at = ""
    for bid in params.scenario.aggregator_ids:
        base = reduced_loss_terms(params, bid, a)
        for sid in params.scenario.dataset(bid):
            bounds = params.effort_model(sid).incentive_bounds
            for delta in grid:
                if delta == 0.0:
                    continue
                new_value = a[(sid, bid)] + delta
                new_total = totals[sid] + delta
                if new_value < 0 or new_total < bounds.a_lower:
                    continue
                if bounded and new_total > bounds.a_upper:
                    continue
                perturbed = dict(a)
                perturbed[(sid, bid)] = new_value
                improvement = math.fsum(
                    base + [-t for t in reduced_loss_terms(params, bid, perturbed)])
                if improvement > worst_improvement:
                    worst_improvement = improvement
                    worst_at = f"aggregator {bid}, pair ({sid}, {bid}), delta {delta:+.3f}"
    return worst_improvement, worst_at


# ---------------------------------------------------------------------------
# Markets
# ---------------------------------------------------------------------------

def _custom_line():
    """Estimator-mode line market whose sources use a custom family (the
    exponential one, given by callables), so effort goes through the
    bracketed root-finder."""
    base = make_line_scenario(n_aggregators=2, zeta=0.1, n_points=8)
    sigma0, lam = 8.0, 1.0
    model = EffortVarianceModel(CustomVariance(
        sigma_fn=lambda e: sigma0 * math.exp(-lam * e),
        sigma_prime_fn=lambda e: -lam * sigma0 * math.exp(-lam * e),
        sigma_second_fn=lambda e: lam * lam * sigma0 * math.exp(-lam * e)))
    sources = tuple(replace(s, effort_model=model) for s in base.sources)
    return MarketScenario(sources, base.aggregators, base.ground_truth)


MARKETS = {
    "unbounded": lambda: generate_scenario(GenerationSpec(8, 3, family="mixed"), 0),
    "bounded": lambda: generate_scenario(
        GenerationSpec(8, 3, family="mixed", bounded=True), 1),
    "partial-sharing": lambda: generate_scenario(
        GenerationSpec(10, 3, dimension=2, sharing_density=0.6), 1),
    "direct": lambda: make_random_direct(np.random.default_rng(2), n=5, m=3,
                                         coupling=0.2, sharing_density=0.7),
    "direct-bounded": lambda: make_random_direct(np.random.default_rng(2), n=5, m=3,
                                                 coupling=0.2, bounded=True),
    "symmetric": make_symmetric_direct,
    "custom-family": _custom_line,
}


def _solved(scenario):
    params = derive_parameters(scenario)
    solve = solve_bounded if params.effort_kind == "bounded" else solve_unbounded
    result = solve(params)
    assert result.solved
    return params, result


def _corrupt(params, a, rng, low=0.8, high=1.25):
    """Every weight scaled by its own random factor, with consistent totals."""
    bad = {pair: value * rng.uniform(low, high) for pair, value in a.items()}
    return bad, _a_total(params, bad)


def _fine_grid(a, points=41):
    # scaled after spacing, so the centre point is exactly 0 and skipped:
    # np.linspace(-r, r, k) can put a 1e-16 step there, scored as noise
    return 3.0 * max(a.values()) * np.linspace(-1.0, 1.0, points)


def assert_same(fast, reference):
    assert fast[1] == reference[1]
    assert abs(fast[0] - reference[0]) <= REL_TOL * abs(reference[0])


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("market", sorted(MARKETS))
def test_solved_market_matches_reference(market):
    params, result = _solved(MARKETS[market]())
    a, totals = result.a.a, result.a.a_total
    reference = brute_force_grid(params, a, totals, DEFAULT_GRID)
    assert_same(one_pass(params, a, totals, DEFAULT_GRID), reference)
    report = certify_equilibrium(result, params)
    grid_check = next(c for c in report.checks if c.name == "best-response-grid")
    assert grid_check.passed == (reference[0] <= 1e-9)
    assert report.passed, report.summary()


@pytest.mark.parametrize("market", sorted(MARKETS))
def test_corrupted_weights_on_fine_grid_match_reference(market):
    params, result = _solved(MARKETS[market]())
    bad, totals = _corrupt(params, result.a.a, np.random.default_rng(1))
    grid = _fine_grid(bad)
    reference = brute_force_grid(params, bad, totals, grid)
    assert reference[0] > 0.0  # a gainful deviation exists, so the location is tested
    assert_same(one_pass(params, bad, totals, grid), reference)

    corrupted = replace(result, a=AParameters(a=bad, a_total=totals))
    report = certify_equilibrium(corrupted, params, grid_radius=3.0 * max(bad.values()),
                                 grid_points=41)
    grid_check = next(c for c in report.checks if c.name == "best-response-grid")
    assert grid_check.passed == (reference[0] <= 1e-9)
    assert grid_check.detail.endswith(f" at {reference[1]}")


def test_exact_ties_report_the_first_location():
    # scaling every weight alike keeps the fixture symmetric: all four pairs
    # gain exactly as much, and the first in iteration order is reported
    params, result = _solved(make_symmetric_direct())
    bad = {pair: 0.5 * value for pair, value in result.a.a.items()}
    totals = _a_total(params, bad)
    grid = _fine_grid(bad)
    reference = brute_force_grid(params, bad, totals, grid)
    assert reference[0] > 0.0
    assert reference[1].startswith("aggregator b1, pair (s1, b1)")
    assert_same(one_pass(params, bad, totals, grid), reference)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), m=st.integers(1, 3),
       bounded=st.booleans(), density=st.sampled_from([0.6, 1.0]),
       spread=st.floats(0.2, 0.6))
def test_random_direct_markets_match_reference(seed, n, m, bounded, density, spread):
    rng = np.random.default_rng(seed)
    scenario = make_random_direct(rng, n=n, m=m, coupling=0.2, bounded=bounded,
                                  sharing_density=density)
    params = derive_parameters(scenario)
    result = (solve_bounded if bounded else solve_unbounded)(params)
    assume(result.solved)
    a, totals = result.a.a, result.a.a_total
    assert_same(one_pass(params, a, totals, DEFAULT_GRID),
                brute_force_grid(params, a, totals, DEFAULT_GRID))
    bad, bad_totals = _corrupt(params, a, rng, 1.0 - spread, 1.0 + spread)
    assume(all(bad_totals[s] >= params.effort_model(s).incentive_bounds.a_lower
               for s in bad_totals))
    grid = _fine_grid(bad)
    assert_same(one_pass(params, bad, bad_totals, grid),
                brute_force_grid(params, bad, bad_totals, grid))


@pytest.mark.parametrize("grid_points", [11, 21])
def test_grid_centre_is_exactly_zero(grid_points):
    # np.linspace(-3.9, 3.9, k) puts a ~1e-16 step at the centre; scored, it
    # gave a noise-level improvement reported at "delta +0.000"
    assert np.linspace(-3.9, 3.9, grid_points)[grid_points // 2] != 0.0
    params, result = _solved(MARKETS["unbounded"]())
    for radius in (3.9, *np.linspace(0.5, 10.0, 20)):
        report = certify_equilibrium(result, params, grid_radius=float(radius),
                                     grid_points=grid_points)
        grid_check = next(c for c in report.checks if c.name == "best-response-grid")
        assert not grid_check.detail.endswith(("delta +0.000", "delta -0.000"))
