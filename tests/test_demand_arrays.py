"""beta, gamma and gamma_total as arrays against the id-keyed dict loops they
replaced: the loops of derive_beta and derive_gamma, the inline relevance and
demand loops and the one-scalar-at-a-time draws of scenario generation, and
the demand checks of validation.
The arithmetic is unchanged, so every value must be equal, not close, and
generation must yield the same documents."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    OLS,
    by_id,
    by_pair,
    dataset_points,
    make_line_scenario,
    make_random_direct,
    make_symmetric_direct,
)

from datamarket.effort import (
    EffortSet,
    EffortVarianceModel,
    ExponentialVariance,
    InversePowerVariance,
    effort_response,
)
from datamarket.errors import DomainError
from datamarket.estimators import EstimatorSpec, QueryDistribution, ols_coefficients
from datamarket.market import (
    MODE_DIRECT,
    MODE_ESTIMATOR,
    AggregatorSpec,
    DataSourceSpec,
    GroundTruth,
    MarketScenario,
    ValidationReport,
    Violation,
    derive_beta,
    derive_gamma,
    derive_parameters,
    validate_scenario,
)
from datamarket.scenario import (
    MAX_GENERATION_ATTEMPTS,
    GenerationSpec,
    _latin_features,
    generate_scenario_with_attempts,
    serialize_scenario,
)


# ---------------------------------------------------------------------------
# Dict-loop references
# ---------------------------------------------------------------------------

def reference_beta(scenario):
    beta, aggregators = {}, by_id(scenario.aggregators)
    for bid in scenario.aggregator_ids:
        ds = scenario.dataset(bid)
        agg = aggregators[bid]
        h = ols_coefficients(dataset_points(scenario, bid), agg.query_dist)
        for sid, value in zip(ds, h):
            beta[(sid, bid)] = float(value)
    return beta


def reference_gamma(scenario, beta):
    gamma, gamma_total = {}, {}
    sources, aggregators = by_id(scenario.sources), by_id(scenario.aggregators)
    for sid in scenario.source_ids:
        src = sources[sid]
        total = 0.0
        for bid in src.sharing:
            agg = aggregators[bid]
            rival_benefit = sum(agg.zeta.get(j, 0.0) * beta[(sid, j)]
                                for j in src.sharing if j != bid)
            value = (beta[(sid, bid)] - rival_benefit) / agg.payment_scale
            gamma[(sid, bid)] = value
            total += value
        gamma_total[sid] = total
    return gamma, gamma_total


def reference_report(scenario, gamma, gamma_total):
    """validate_scenario's checks on a well-defined estimator, on the tables."""
    violations, notes = [], []
    kinds = {s.effort_model.effort_set.kind for s in scenario.sources}
    if len(kinds) > 1:
        violations.append(Violation(
            "mixed-effort-kinds", "sources",
            "all effort sets must share one kind (all bounded or all unbounded)"))
    sources, aggregators = by_id(scenario.sources), by_id(scenario.aggregators)
    for bid in scenario.aggregator_ids:
        agg = aggregators[bid]
        if agg.payment_scale != 1.0:
            notes.append(f"aggregator {bid}: payment scale {agg.payment_scale} "
                         "normalized to 1 (demand rescaled accordingly)")
    for (sid, bid), value in gamma.items():
        if value <= 0:
            violations.append(Violation(
                "nonpositive-demand", f"({sid}, {bid})",
                f"net demand {value} must be positive"))
    for sid in scenario.source_ids:
        model = sources[sid].effort_model
        bounds = model.incentive_bounds
        total = gamma_total[sid]
        if total < bounds.a_lower:
            violations.append(Violation(
                "demand-below-minimum", sid,
                f"total demand {total} is below the minimum incentive "
                f"{bounds.a_lower}"))
        elif model.effort_set.bounded and total >= bounds.a_upper:
            violations.append(Violation(
                "demand-above-saturation", sid,
                f"total demand {total} is not below the saturation incentive "
                f"{bounds.a_upper}"))
    return ValidationReport(tuple(violations), tuple(notes))


def reference_draw_model(spec, rng, a_lower_target):
    """A source's effort model, drawn one scalar at a time."""
    family = spec.family
    if family == "mixed":
        family = "exponential" if rng.uniform() < 0.5 else "inverse_power"
    rate = float(rng.uniform(0.3 if family == "exponential" else 0.5, 3.0))
    sigma0 = math.sqrt(1.0 / (2.0 * rate * a_lower_target))
    cls = ExponentialVariance if family == "exponential" else InversePowerVariance
    return EffortVarianceModel(cls(sigma0, rate))


def reference_draw_sharing(spec, rng, sids, bids):
    """Each source's aggregator ids, drawn one scalar at a time."""
    sharing = {sid: [bid for bid in bids if rng.uniform() < spec.sharing_density]
               for sid in sids}
    for sid in sids:
        if not sharing[sid]:
            sharing[sid] = [bids[int(rng.integers(0, len(bids)))]]
    if spec.mode == MODE_ESTIMATOR:
        need = spec.dimension + 2
        for bid in bids:
            holders = [sid for sid in sids if bid in sharing[sid]]
            missing = need - len(holders)
            if missing > 0:
                outsiders = [sid for sid in sids if bid not in sharing[sid]]
                for p in rng.permutation(len(outsiders))[:missing]:
                    sharing[outsiders[int(p)]].append(bid)
    return {sid: tuple(sorted(set(v))) for sid, v in sharing.items()}


def reference_attempt(spec, rng):
    """One generation draw, with relevance and total demand computed inline."""
    sids = [f"s{k + 1:03d}" for k in range(spec.n_sources)]
    bids = [f"b{k + 1:03d}" for k in range(spec.n_aggregators)]
    features = _latin_features(rng, spec.n_sources, spec.dimension)
    sharing = reference_draw_sharing(spec, rng, sids, bids)
    datasets = {bid: [sid for sid in sids if bid in sharing[sid]] for bid in bids}

    aggregators = []
    for bid in bids:
        ds = datasets[bid]
        n_atoms = int(rng.integers(1, 4))
        atoms = []
        weights = rng.dirichlet(np.ones(n_atoms))
        for w in weights:
            mix = rng.dirichlet(np.ones(len(ds)))
            point = tuple(float(c) for c in
                          mix @ features[[sids.index(s) for s in ds]])
            atoms.append((point, float(w)))
        zeta = {j: float(rng.uniform(0.0, spec.zeta_max)) for j in bids if j != bid}
        aggregators.append(AggregatorSpec(bid, EstimatorSpec(),
                                          QueryDistribution(tuple(atoms)), zeta))
    ground_truth = GroundTruth(tuple(float(c) for c in
                                     rng.uniform(-2.0, 2.0, size=spec.dimension)),
                               float(rng.uniform(-1.0, 1.0)))

    direct_beta = direct_xi = None
    if spec.mode == MODE_DIRECT:
        beta = {(sid, bid): float(rng.uniform(0.5, 2.0))
                for sid in sids for bid in sharing[sid]}
        direct_beta = beta
        direct_xi = {
            bid: {(i, l): 1.0 if i == l else float(rng.uniform(0.0, spec.coupling_scale))
                  for i in datasets[bid] for l in datasets[bid]}
            for bid in bids}
    else:
        beta = {}
        for k, bid in enumerate(bids):
            pts = features[[sids.index(s) for s in datasets[bid]]]
            h = ols_coefficients(pts, aggregators[k].query_dist)
            for sid, value in zip(datasets[bid], h):
                beta[(sid, bid)] = float(value)

    zeta_by_bid = {a.id: a.zeta for a in aggregators}
    gamma_total = {}
    for sid in sids:
        total = 0.0
        for bid in sharing[sid]:
            rival = sum(zeta_by_bid[bid].get(j, 0.0) * beta[(sid, j)]
                        for j in sharing[sid] if j != bid)
            total += beta[(sid, bid)] - rival
        gamma_total[sid] = total
    if min(gamma_total.values()) <= 0:
        raise DomainError("competition cancelled some source's demand")

    models = {sid: reference_draw_model(spec, rng,
                                         gamma_total[sid] * float(rng.uniform(0.05, 0.6)))
              for sid in sids}
    effort_sets = {sid: EffortSet("unbounded") for sid in sids}
    if spec.bounded:
        for sid in sids:
            a_upper = gamma_total[sid] * float(rng.uniform(1.1, 2.5))
            e_max = effort_response(models[sid], a_upper)
            effort_sets[sid] = EffortSet("bounded", e_max=e_max)
    sources = tuple(
        DataSourceSpec(sid, tuple(map(float, features[k])),
                       EffortVarianceModel(models[sid].family, effort_sets[sid]),
                       sharing[sid])
        for k, sid in enumerate(sids))
    return MarketScenario(sources, tuple(aggregators), ground_truth,
                          mode=spec.mode, direct_beta=direct_beta,
                          direct_xi=direct_xi)


def reference_generate(spec, seed):
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        try:
            scenario = reference_attempt(spec, rng)
        except DomainError:
            continue
        if validate_scenario(scenario).ok:
            return scenario, attempt + 1
    raise AssertionError("reference generation exhausted its attempts")


# ---------------------------------------------------------------------------
# Markets
# ---------------------------------------------------------------------------

def _rescaled(scenario, scales):
    """The scenario with each aggregator's payment scale replaced."""
    aggregators = tuple(replace(agg, payment_scale=scale)
                        for agg, scale in zip(scenario.aggregators, scales))
    return MarketScenario(scenario.sources, aggregators, scenario.ground_truth,
                          mode=scenario.mode, direct_beta=scenario.direct_beta,
                          direct_xi=scenario.direct_xi)


MARKETS = {
    "estimator": lambda: generate_scenario_with_attempts(
        GenerationSpec(12, 3, family="mixed"), 0)[0],
    "direct": lambda: make_random_direct(np.random.default_rng(4), n=6, m=3,
                                         sharing_density=0.7),
    "partial-d2": lambda: generate_scenario_with_attempts(
        GenerationSpec(20, 4, dimension=2, sharing_density=0.6), 1)[0],
    "payment-scale": lambda: _rescaled(
        generate_scenario_with_attempts(GenerationSpec(10, 3, zeta_max=0.6), 2)[0],
        (2.5, 0.7, 1.3)),
    "direct-payment-scale": lambda: _rescaled(make_symmetric_direct(), (3.0, 0.4)),
}

GENERATION_SPECS = {
    "estimator": GenerationSpec(12, 3, family="mixed"),
    "bounded": GenerationSpec(10, 3, family="inverse_power", bounded=True),
    "partial-d2": GenerationSpec(20, 4, dimension=2, sharing_density=0.6),
    "direct": GenerationSpec(6, 3, mode="direct", coupling_scale=0.2),
    "direct-partial": GenerationSpec(7, 4, mode="direct", sharing_density=0.5),
    "rejecting": GenerationSpec(8, 3, zeta_max=0.6),  # many draws cancel demand
}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("market", sorted(MARKETS))
def test_tables_equal_the_dict_loops(market):
    scenario = MARKETS[market]()
    beta = (reference_beta(scenario) if scenario.mode == MODE_ESTIMATOR
            else dict(scenario.direct_beta))
    gamma, gamma_total = reference_gamma(scenario, beta)
    params = derive_parameters(scenario, require_valid=False)
    assert by_pair(scenario, params.beta) == beta
    assert by_pair(scenario, params.gamma) == gamma
    assert dict(zip(scenario.source_ids, params.gamma_total.tolist())) == gamma_total
    if scenario.mode == MODE_ESTIMATOR:
        np.testing.assert_array_equal(derive_beta(scenario), params.beta)
    array_gamma, array_total = derive_gamma(scenario, params.beta)
    np.testing.assert_array_equal(array_gamma, params.gamma)
    np.testing.assert_array_equal(array_total, params.gamma_total)


def _cancelling_line():
    """Estimator market whose strong competition weights push some pairs'
    net demand to or below zero, and some sources' totals below a_lower."""
    base = make_line_scenario(n_aggregators=3, n_points=6)
    aggregators = (
        AggregatorSpec("b1", OLS, base.aggregators[0].query_dist,
                       zeta={"b2": 1.0, "b3": 0.9}),
        AggregatorSpec("b2", OLS, base.aggregators[1].query_dist, zeta={"b1": 0.2}),
        AggregatorSpec("b3", OLS, base.aggregators[2].query_dist,
                       zeta={"b1": 0.5}, payment_scale=2.0),
    )
    return MarketScenario(base.sources, aggregators, base.ground_truth)


@pytest.mark.parametrize("make", [
    _cancelling_line,
    lambda: _rescaled(make_symmetric_direct(beta_value=0.3), (1.0, 2.0)),
    lambda: MarketScenario(
        make_symmetric_direct().sources,
        tuple(replace(agg, zeta={j: 1.0 for j in ("b1", "b2") if j != agg.id})
              for agg in make_symmetric_direct().aggregators),
        GroundTruth((1.0,), 0.0), mode="direct",
        direct_beta=make_symmetric_direct().direct_beta,
        direct_xi=make_symmetric_direct().direct_xi),
], ids=["cancelling-line", "low-demand-direct", "cancelled-direct"])
def test_validation_messages_and_order_unchanged(make):
    scenario = make()
    beta = (reference_beta(scenario) if scenario.mode == MODE_ESTIMATOR
            else dict(scenario.direct_beta))
    reference = reference_report(scenario, *reference_gamma(scenario, beta))
    assert any(v.code in ("nonpositive-demand", "demand-below-minimum")
               for v in reference.violations)
    assert validate_scenario(scenario) == reference
    assert derive_parameters(scenario, require_valid=False).validation == reference


@pytest.mark.parametrize("spec", sorted(GENERATION_SPECS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generation_yields_the_reference_documents(spec, seed):
    expected, expected_attempts = reference_generate(GENERATION_SPECS[spec], seed)
    scenario, attempts = generate_scenario_with_attempts(GENERATION_SPECS[spec], seed)
    assert attempts == expected_attempts
    assert serialize_scenario(scenario) == serialize_scenario(expected)


def test_rejecting_spec_rejects_draws():
    attempts = [generate_scenario_with_attempts(GENERATION_SPECS["rejecting"], seed)[1]
                for seed in range(3)]
    assert max(attempts) > 1, attempts
