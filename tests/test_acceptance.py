"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them stream).

Random samples are drawn from fixed seeds, so every criterion is
deterministic and the Monte-Carlo tolerances are exact reruns of verified
draws."""

import functools
import math

import numpy as np
import pytest

from conftest import OLS, by_id, contract_floors, make_line_scenario, make_symmetric_direct

from datamarket.effort import (
    EffortSet,
    EffortVarianceModel,
    effort_response,
    effort_response_derivative,
    exponential_model,
    incentive_bounds,
    inverse_power_model,
)
from datamarket.equilibrium import (
    STATUS_NONE,
    STATUS_UNIQUE,
    AParameters,
    alpha_sweep,
    best_response_residual,
    branch_profile,
    certify_equilibrium,
    polytope_membership,
    solve_bounded,
    solve_unbounded,
)
from datamarket.estimators import (
    QueryDistribution,
    point_mass,
    validate_separability,
)
from datamarket.market import (
    AggregatorSpec,
    DataSourceSpec,
    GroundTruth,
    MarketScenario,
    derive_parameters,
)
from datamarket.scenario import GenerationSpec, generate_scenario
from datamarket.simulate import payment_statistics
from datamarket.welfare import (
    efficiency_predicate,
    optimal_efforts,
    price_of_anarchy,
    social_cost,
)


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL  [{num:02d}] {title}")
                raise
            print(f"\nPASS  [{num:02d}] {title}")
        return run
    return wrap


def unbind(scenario):
    """Twin scenario with every effort set unbounded (same families)."""
    sources = tuple(
        DataSourceSpec(s.id, s.feature,
                       EffortVarianceModel(s.effort_model.family,
                                           EffortSet("unbounded")),
                       s.sharing)
        for s in scenario.sources)
    return MarketScenario(sources, scenario.aggregators, scenario.ground_truth,
                          mode=scenario.mode, direct_beta=scenario.direct_beta,
                          direct_xi=scenario.direct_xi)


def one_coupling_scenario(eps):
    """Two sources, two aggregators, exactly one off-diagonal coupling entry.

    Demands are heterogeneous on purpose: the coupled rival pair (s2, b2)
    carries demand 30 while the perturbed source s1 carries demand 1, so the
    equilibrium over-provision at s1 is 30*eps and the inefficiency stays
    above the 1e-6 detection floor even at eps = 1e-3 (with homogeneous O(1)
    demands it would scale like eps^2/30 and vanish below it).
    """
    model = exponential_model(1.0, 0.5)  # minimum incentive 1
    sources = (DataSourceSpec("s1", (0.0,), model, ("b1", "b2")),
               DataSourceSpec("s2", (1.0,), model, ("b1", "b2")))
    aggregators = (AggregatorSpec("b1", OLS, point_mass((0.5,))),
                   AggregatorSpec("b2", OLS, point_mass((0.5,))))
    beta = {("s1", "b1"): 1.0, ("s1", "b2"): 1.0,
            ("s2", "b1"): 30.0, ("s2", "b2"): 30.0}
    xi = {b: {(i, l): 1.0 if i == l else 0.0
              for i in ("s1", "s2") for l in ("s1", "s2")} for b in ("b1", "b2")}
    xi["b2"] = dict(xi["b2"])
    xi["b2"][("s2", "s1")] = eps  # s1's variance enters b2's payment to s2
    return MarketScenario(sources, aggregators, GroundTruth((1.0,), 0.0),
                          mode="direct", direct_beta=beta, direct_xi=xi)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo, hi, tol=1e-10, iters=300):
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


@criterion(1, "single aggregator: a = gamma within 1e-10 and PoA = 1 within 1e-9")
def test_c01_single_aggregator_efficiency():
    for k in range(50):
        spec = GenerationSpec(
            n_sources=3 + k % 5, n_aggregators=1, dimension=1,
            family=("exponential", "inverse_power", "mixed")[k % 3],
            mode="estimator_derived" if k % 2 == 0 else "direct")
        scenario = generate_scenario(spec, seed=1000 + k)
        params = derive_parameters(scenario)
        result = solve_unbounded(params)
        assert result.status == STATUS_UNIQUE
        for k, pair in enumerate(params.pairs):
            assert abs(result.a.a[pair] - params.gamma[k]) <= 1e-10
        report = price_of_anarchy(result, params)
        assert abs(report.poa - 1.0) <= 1e-9


@criterion(2, "Leontief fixed point and existence dichotomy on 100 random markets")
def test_c02_leontief_dichotomy():
    solved = exists = missing = 0
    for k in range(100):
        spec = GenerationSpec(
            n_sources=1 + k % 4, n_aggregators=1 + (k // 4) % 4,
            mode="direct", coupling_scale=(0.1, 0.3, 0.6, 1.0, 1.5)[k % 5])
        scenario = generate_scenario(spec, seed=2000 + k)
        params = derive_parameters(scenario)
        result = solve_unbounded(params)
        matrix = params.coupling.toarray()
        oracle_rho = float(max(abs(np.linalg.eigvals(matrix)))) if matrix.size else 0.0
        assert (result.status == STATUS_NONE) == (oracle_rho >= 1.0 - 1e-9), \
            (k, result.status, oracle_rho)
        if result.status == STATUS_NONE:
            missing += 1
            continue
        exists += 1
        a_vec = np.array([result.a.a[p] for p in params.pairs])
        residual = np.abs(a_vec - (matrix @ a_vec + params.gamma)).max()
        assert residual < 1e-9
        solved += 1
    assert exists >= 20 and missing >= 20, (exists, missing)

    params = derive_parameters(make_symmetric_direct())
    result = solve_unbounded(params)
    assert abs(result.diagnostics.spectral_radius - 0.5) <= 1e-12
    for pair in params.pairs:
        assert abs(result.a.a[pair] - 2.0) <= 1e-12


@criterion(3, "grid certification passes solved equilibria, fails corrupted ones")
def test_c03_certification():
    cases = []
    for k in range(12):
        spec = GenerationSpec(n_sources=1 + k % 3, n_aggregators=1 + (k // 3) % 3,
                              mode="direct", coupling_scale=0.2)
        scenario = generate_scenario(spec, seed=3000 + k)
        params = derive_parameters(scenario)
        result = solve_unbounded(params)
        if result.status == STATUS_UNIQUE:
            cases.append((params, result))
    params = derive_parameters(make_symmetric_direct())
    cases.append((params, solve_unbounded(params)))
    for k in range(3):
        spec = GenerationSpec(n_sources=2 + k, n_aggregators=2, mode="direct",
                              coupling_scale=0.3, bounded=True)
        scenario = generate_scenario(spec, seed=3100 + k)
        params = derive_parameters(scenario)
        cases.append((params, solve_bounded(params)))
    assert len(cases) >= 10

    for k, (params, result) in enumerate(cases):
        report = certify_equilibrium(result, params)
        assert report.passed, report.summary()
        corrupted = dict(result.a.a)
        pair = params.pairs[k % len(params.pairs)]
        corrupted[pair] += 0.1 if k % 2 == 0 else -0.1
        totals = {sid: sum(corrupted[(sid, bid)]
                           for bid in by_id(params.scenario.sources)[sid].sharing)
                  for sid in params.scenario.source_ids}
        bad = AParameters(a=corrupted, a_total=totals)
        from dataclasses import replace
        assert not certify_equilibrium(replace(result, a=bad), params).passed


@criterion(4, "participation binds: payments equal effort analytically and over 1e5 rounds")
def test_c04_participation_binding():
    analytic_cases = [derive_parameters(make_symmetric_direct())]
    for k in range(10):
        spec = GenerationSpec(n_sources=2 + k % 3, n_aggregators=2 + k % 2,
                              mode="direct", coupling_scale=0.25)
        analytic_cases.append(derive_parameters(generate_scenario(spec, seed=4000 + k)))
    for k in range(2):
        spec = GenerationSpec(n_sources=5, n_aggregators=2, mode="estimator_derived")
        analytic_cases.append(derive_parameters(generate_scenario(spec, seed=4100 + k)))
    for params in analytic_cases:
        result = solve_unbounded(params)
        if result.status != STATUS_UNIQUE:
            continue
        floors, _ = contract_floors(params, result)
        for sid in params.scenario.source_ids:
            sharing = by_id(params.scenario.sources)[sid].sharing
            expected = sum(result.canonical_c[(sid, bid)] - floors[(sid, bid)]
                           for bid in sharing)
            assert abs(expected - result.efforts[sid]) <= 1e-9

    scenario = make_line_scenario(n_aggregators=2, zeta=0.1, n_points=8)
    params = derive_parameters(scenario)
    result = solve_unbounded(params)
    stats = payment_statistics(scenario, result, n_rounds=100_000, seed=41)
    for sid in scenario.source_ids:
        gap = abs(stats.mean_total[sid] - result.efforts[sid])
        assert gap <= 3 * stats.se_total[sid], (sid, gap, 3 * stats.se_total[sid])


@criterion(5, "efficiency iff decoupled: PoA dichotomy and the symmetric ratio")
def test_c05_efficiency_dichotomy():
    for k in range(20):
        spec = GenerationSpec(n_sources=1 + k % 4, n_aggregators=1 + (k // 4) % 3,
                              mode="direct", coupling_scale=0.0)
        params = derive_parameters(generate_scenario(spec, seed=5000 + k))
        result = solve_unbounded(params)
        assert result.status == STATUS_UNIQUE
        assert efficiency_predicate(params)
        assert abs(price_of_anarchy(result, params).poa - 1.0) <= 1e-9

    rng = np.random.default_rng(55)
    eps_values = np.exp(rng.uniform(math.log(1e-3), math.log(0.5), size=20))
    for eps in eps_values:
        params = derive_parameters(one_coupling_scenario(float(eps)))
        result = solve_unbounded(params)
        assert result.status == STATUS_UNIQUE
        assert not efficiency_predicate(params)
        report = price_of_anarchy(result, params)
        assert report.poa > 1.0 + 1e-6, (eps, report.poa)

    params = derive_parameters(make_symmetric_direct())
    report = price_of_anarchy(solve_unbounded(params), params)
    closed_form = (1 + 4 * math.log(2.0)) / (2 + 2 * math.log(2.0))
    assert abs(report.poa - closed_form) <= 1e-9
    assert abs(report.poa - 1.1141) <= 1e-3


@criterion(6, "bounded best responses: convergence, branch residuals, interior agreement")
def test_c06_bounded_solver():
    interior_checked = clamped = 0
    for k in range(100):
        spec = GenerationSpec(
            n_sources=1 + k % 4, n_aggregators=1 + (k // 4) % 4,
            mode="direct", bounded=True,
            coupling_scale=(0.05, 0.15, 0.3, 0.7, 1.2)[k % 5],
            sharing_density=1.0 if k % 3 else 0.8)
        scenario = generate_scenario(spec, seed=6000 + k)
        params = derive_parameters(scenario)
        result = solve_bounded(params)
        assert result.status == "converged_bounded"
        assert best_response_residual(params, result.a.a) < 1e-8
        profile = branch_profile(params, result.a.a)
        if all(b == "interior" for b in profile.values()):
            twin = derive_parameters(unbind(scenario))
            rho = result.diagnostics.spectral_radius
            if rho < 1.0 - 1e-9:
                unbounded = solve_unbounded(twin)
                assert unbounded.status == STATUS_UNIQUE
                for pair in params.pairs:
                    assert abs(result.a.a[pair] - unbounded.a.a[pair]) <= 1e-8
                interior_checked += 1
        else:
            clamped += 1
    assert interior_checked >= 10 and clamped >= 10, (interior_checked, clamped)


@criterion(7, "demand blow-up approaching the coupling threshold matches 1/(1 - alpha*xi)")
def test_c07_blowup_near_threshold():
    params = derive_parameters(make_symmetric_direct())
    alphas = [0.0, 0.5, 1.0, 1.5, 1.9, 1.99, 1.999]
    points = alpha_sweep(params, alphas)
    maxima = [p.max_a_total for p in points]
    assert all(m2 > m1 for m1, m2 in zip(maxima, maxima[1:]))
    for alpha, point in zip(alphas, points):
        closed_form = 2.0 / (1.0 - 0.5 * alpha)
        assert abs(point.max_a_total - closed_form) <= 1e-6 * closed_form
    blown = points[-1]
    assert blown.rho > 0.999
    assert blown.max_a_total > 1e3


@criterion(8, "separability: Monte-Carlo error matches sum(h * sigma^2) within 3 SE")
def test_c08_separability_monte_carlo():
    rng = np.random.default_rng(88)
    for case in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 2, 9))
        points = rng.uniform(-2, 2, size=(n, d))
        n_atoms = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(n_atoms))
        atoms = tuple((tuple(map(float, rng.uniform(-2, 2, size=d))), float(w))
                      for w in weights)
        query = QueryDistribution(atoms)
        variances = rng.uniform(0.1, 2.0, size=n)
        theta = rng.uniform(-2, 2, size=d + 1)
        report = validate_separability(points, query, variances, theta,
                                       trials=100_000, seed=8800 + case)
        gap = abs(report.mc_mse - report.predicted_mse)
        assert gap <= 3 * report.standard_error, (case, gap, report)


@criterion(9, "effort map: monotone, tight first-order residuals, exact closed forms")
def test_c09_effort_map():
    rng = np.random.default_rng(99)
    for trial in range(10):
        if trial % 2 == 0:
            model = exponential_model(rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0))
        else:
            model = inverse_power_model(rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0))
        a_lower = incentive_bounds(model).a_lower
        grid = np.sort(rng.uniform(a_lower, 20 * a_lower, size=25))
        efforts = [effort_response(model, float(a)) for a in grid]
        assert all(e2 > e1 for e1, e2 in zip(efforts, efforts[1:]))
        for a, e in zip(grid, efforts):
            assert abs(2 * a * model.sigma(e) * model.sigma_prime(e) + 1) < 1e-9
        for a in np.linspace(1.1 * a_lower, 10 * a_lower, 9):
            h = 1e-6 * a
            fd = (effort_response(model, a + h)
                  - effort_response(model, a - h)) / (2 * h)
            deriv = effort_response_derivative(model, float(a))
            assert abs(deriv - fd) <= 1e-6 * abs(fd)

    model = exponential_model(1.0, 0.5)
    assert abs(incentive_bounds(model).a_lower - 1.0) <= 1e-12
    assert abs(effort_response(model, 4.0) - math.log(4.0)) <= 1e-12


@criterion(10, "partial sharing: polytope dimension tracks the sharing sets")
def test_c10_partial_sharing():
    model = exponential_model(1.0, 2.0)  # minimum incentive 0.25
    features = {"s1": (0.0,), "s2": (1.0,), "s3": (2.0,)}
    aggs = (AggregatorSpec("b1", OLS, point_mass((0.5,))),
            AggregatorSpec("b2", OLS, point_mass((1.5,))))

    def build(s1_sharing):
        sharing = {"s1": s1_sharing, "s2": ("b2",), "s3": ("b1",)}
        sources = tuple(DataSourceSpec(sid, features[sid], model, sharing[sid])
                        for sid in ("s1", "s2", "s3"))
        datasets = {"b1": [s for s in ("s1", "s2", "s3") if "b1" in sharing[s]],
                    "b2": [s for s in ("s1", "s2", "s3") if "b2" in sharing[s]]}
        beta = {(sid, bid): 1.0 for sid in sharing for bid in sharing[sid]}
        xi = {bid: {(i, l): 1.0 if i == l else 0.1
                    for i in datasets[bid] for l in datasets[bid]}
              for bid in ("b1", "b2")}
        return MarketScenario(sources, aggs, GroundTruth((1.0,), 0.0),
                              mode="direct", direct_beta=beta, direct_xi=xi)

    singleton = derive_parameters(build(("b1",)))
    result = solve_unbounded(singleton)
    member, violations, dims = polytope_membership(result.canonical_c,
                                                   result.a, singleton)
    assert member and dims == {"s1": 0, "s2": 0, "s3": 0}

    flipped = derive_parameters(build(("b1", "b2")))
    result2 = solve_unbounded(flipped)
    member, violations, dims = polytope_membership(result2.canonical_c, result2.a, flipped)
    assert member and dims == {"s1": 1, "s2": 0, "s3": 0}
    # coupling entries on the pairs common to both sharing structures match
    common = [p for p in singleton.pairs if p in set(flipped.pairs)]
    matrix_before, matrix_after = singleton.coupling.toarray(), flipped.coupling.toarray()
    for row_pair in common:
        for col_pair in common:
            before = matrix_before[singleton.pairs.index(row_pair),
                                   singleton.pairs.index(col_pair)]
            after = matrix_after[flipped.pairs.index(row_pair),
                                 flipped.pairs.index(col_pair)]
            assert before == after


@criterion(11, "efficient efforts match per-source golden-section minimization")
def test_c11_social_optimum_oracle():
    for k in range(50):
        if k % 5 == 4:
            spec = GenerationSpec(n_sources=4 + k % 3, n_aggregators=2,
                                  mode="estimator_derived")
        else:
            spec = GenerationSpec(n_sources=1 + k % 5, n_aggregators=1 + k % 3,
                                  mode="direct", coupling_scale=0.3)
        params = derive_parameters(generate_scenario(spec, seed=7000 + k))
        opt = optimal_efforts(params)
        for sid in params.scenario.source_ids:
            def cost_of(e, sid=sid):
                trial = dict(opt)
                trial[sid] = e
                return social_cost(trial, params)
            oracle = golden_section_min(cost_of, 0.0, opt[sid] + 4.0)
            assert abs(opt[sid] - oracle) <= 1e-6, (k, sid)


@criterion(12, "regression-derived markets always couple and lose efficiency")
def test_c12_ols_always_inefficient():
    # multi-aggregator markets only: with a single aggregator Xi is zero, so
    # the market is efficient and PoA = 1 (criterion 1) although xi is not
    solved = 0
    for k in range(40):
        spec = GenerationSpec(n_sources=5 + k % 4, n_aggregators=2 + k % 2,
                              dimension=1 + k % 2, mode="estimator_derived",
                              sharing_density=1.0 if k % 3 else 0.9)
        scenario = generate_scenario(spec, seed=9000 + k)
        params = derive_parameters(scenario)
        assert params.scenario.dimension + 2 <= len(scenario.sources)
        assert not efficiency_predicate(params)
        assert params.offdiagonal_xi_max() > 0
        result = solve_unbounded(params)
        if result.status != STATUS_UNIQUE:
            continue  # coupling past the existence threshold: nothing to price
        report = price_of_anarchy(result, params)
        assert report.poa > 1.0 + 1e-9, (k, report.poa)
        solved += 1
        if solved == 15:
            break
    assert solved == 15, solved
