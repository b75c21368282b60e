"""The dense coupling array xi[b, i, l] and its readers against the id-keyed
references they replaced: one ordinary least-squares fit per left-out source
for xi itself, and nested walks of the id-keyed tables for the coupling
matrix Xi, the payment floors and the largest off-diagonal coupling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    OLS,
    by_pair,
    make_disjoint_datasets,
    make_line_scenario,
    make_random_direct,
    make_single_buyer_giant,
    make_symmetric_direct,
    pair_array,
    xi_tables,
)

from datamarket.effort import exponential_model
from datamarket.equilibrium import MARGINAL_BAND, payment_floors, solve_unbounded
from datamarket.errors import IllDefinedEstimatorError, IllDefinedPaymentError
from datamarket.estimators import leave_one_out_weights, ols_coefficients, point_mass
from datamarket.market import (
    ESTIMATOR_ZERO_TOL,
    MODE_DIRECT,
    RADIUS_TOL,
    AggregatorSpec,
    CouplingOperator,
    DataSourceSpec,
    GroundTruth,
    MarketScenario,
    assemble_xi_matrix,
    derive_parameters,
    derive_xi,
    spectral_radius,
)
from datamarket.scenario import GenerationSpec, generate_scenario
from datamarket.welfare import efficiency_predicate


# ---------------------------------------------------------------------------
# References: the id-keyed code the array replaced
# ---------------------------------------------------------------------------

def reference_xi(scenario):
    """{b: {(i, l): xi}} from one OLS fit per left-out source."""
    xi = {}
    for bid in scenario.aggregator_ids:
        ds = scenario.dataset(bid)
        table = {}
        for i in ds:
            table[(i, i)] = 1.0
            others = [sid for sid in ds if sid != i]
            if not others:
                continue
            pts = np.array([scenario.sources_by_id[sid].feature for sid in others])
            try:
                h = ols_coefficients(pts, point_mass(scenario.sources_by_id[i].feature))
            except IllDefinedEstimatorError as exc:
                raise IllDefinedPaymentError(str(exc), aggregator=bid, source=i) from exc
            for l, value in zip(others, h):
                table[(i, l)] = float(value)
        xi[bid] = table
    return xi


def reference_xi_matrix(scenario, xi):
    """The double loop over pairs, fed id-keyed tables."""
    pairs = scenario.sharing_pairs()
    index = {pair: k for k, pair in enumerate(pairs)}
    matrix = np.zeros((len(pairs), len(pairs)))
    for (s, b), row in index.items():
        sharing_s = scenario.sources_by_id[s].sharing
        for (l, j), col in index.items():
            if j == b or l == s:
                continue
            if j not in sharing_s:
                continue
            if b not in scenario.sources_by_id[l].sharing:
                continue
            matrix[row, col] = xi[j][(l, s)]
    return matrix


# ---------------------------------------------------------------------------
# Markets
# ---------------------------------------------------------------------------

ESTIMATOR_MARKETS = {
    "line-two": lambda: make_line_scenario(n_aggregators=2, zeta=0.2),
    "line-partial": lambda: make_line_scenario(
        n_aggregators=2, sharing={"s1": ("b1",), "s2": ("b1", "b2"),
                                  "s3": ("b1", "b2"), "s4": ("b2",)}, n_points=4),
    "full-d1": lambda: generate_scenario(GenerationSpec(30, 4, family="mixed"), 0),
    "partial-d1": lambda: generate_scenario(
        GenerationSpec(30, 4, family="mixed", sharing_density=0.7), 3),
    "full-d2": lambda: generate_scenario(GenerationSpec(24, 3, dimension=2), 1),
    "partial-d2": lambda: generate_scenario(
        GenerationSpec(40, 5, dimension=2, sharing_density=0.6), 0),
    "partial-d3": lambda: generate_scenario(
        GenerationSpec(30, 3, dimension=3, sharing_density=0.8), 4),
}

DIRECT_MARKETS = {
    "symmetric": make_symmetric_direct,
    "random-full": lambda: make_random_direct(np.random.default_rng(3), n=7, m=3),
    "random-partial": lambda: make_random_direct(np.random.default_rng(5), n=9, m=4,
                                                 sharing_density=0.6),
}

# every market above, plus edge cases of the operator's term j != b: a
# decoupled 1e8 demand, one aggregator (no rival), disjoint datasets (Xi = 0)
OPERATOR_MARKETS = {
    **ESTIMATOR_MARKETS, **DIRECT_MARKETS,
    "single-buyer-giant": make_single_buyer_giant,
    "single-aggregator": lambda: make_line_scenario(n_aggregators=1),
    "disjoint-datasets": make_disjoint_datasets,
}


def _line_market(features, datasets):
    """Estimator-mode market on the given feature points; datasets maps each
    aggregator to the indices of its sources."""
    model = exponential_model(8.0, 1.0)
    ids = [f"s{k + 1}" for k in range(len(features))]
    sharing = {sid: tuple(bid for bid, members in datasets.items() if k in members)
               for k, sid in enumerate(ids)}
    dim = len(features[0])
    sources = tuple(DataSourceSpec(sid, point, model, sharing[sid])
                    for sid, point in zip(ids, features))
    aggregators = tuple(AggregatorSpec(bid, OLS, point_mass(features[0]))
                        for bid in datasets)
    return MarketScenario(sources, aggregators, GroundTruth((1.0,) * dim, 0.0))


RANK_DEFICIENT = {
    # one point left: two parameters cannot be identified
    "two-points": lambda: _line_market([(0.0,), (1.0,)], {"b1": [0, 1]}),
    # only the last source's leave-one-out design is singular
    "last-source": lambda: _line_market([(0.0,), (0.0,), (0.0,), (1.0,)],
                                        {"b1": [0, 1, 2, 3]}),
    # the first aggregator is fine, the second fails at its first source
    "second-aggregator": lambda: _line_market(
        [(0.0,), (1.0,), (5.0,), (5.0,), (5.0,)],
        {"b1": [0, 1, 2], "b2": [1, 2, 3, 4]}),
    # collinear once the off-line point is left out
    "collinear-d2": lambda: _line_market(
        [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (0.0, 1.0)],
        {"b1": [0, 1, 2, 3, 4]}),
    # nearly collinear: condition far above the limit, not exactly singular
    "near-collinear-d2": lambda: _line_market(
        [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0 + 1e-9), (0.0, 1.0)],
        {"b1": [0, 1, 2, 3]}),
}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("market", sorted(ESTIMATOR_MARKETS))
def test_xi_matches_per_source_fits(market):
    scenario = ESTIMATOR_MARKETS[market]()
    xi = derive_xi(scenario)
    reference = reference_xi(scenario)
    ids = scenario.source_ids
    assert xi.shape == (len(scenario.aggregator_ids), len(ids), len(ids))
    for b, bid in enumerate(scenario.aggregator_ids):
        for i, si in enumerate(ids):
            for l, sl in enumerate(ids):
                expected = reference[bid].get((si, sl), 0.0)
                assert abs(xi[b, i, l] - expected) <= 1e-9 * abs(expected), (bid, si, sl)


@pytest.mark.parametrize("market", sorted(RANK_DEFICIENT))
def test_rank_deficient_design_names_the_reference_pair(market):
    scenario = RANK_DEFICIENT[market]()
    with pytest.raises(IllDefinedPaymentError) as expected:
        reference_xi(scenario)
    with pytest.raises(IllDefinedPaymentError) as got:
        derive_xi(scenario)
    assert (got.value.aggregator, got.value.source) == (expected.value.aggregator,
                                                        expected.value.source)
    assert type(got.value.source) is str
    assert f"excluding source {expected.value.source!r}" in str(got.value)


@pytest.mark.parametrize("market", sorted(OPERATOR_MARKETS))
def test_coupling_matrix_matches_double_loop(market):
    # the only reference for Xi's entries that is not derived from the
    # operator: both the matrix and the operator's own scatter copy xi exactly
    scenario = OPERATOR_MARKETS[market]()
    params = derive_parameters(scenario, require_valid=False)
    reference = reference_xi_matrix(scenario, xi_tables(params))
    np.testing.assert_array_equal(params.xi_matrix, reference)
    np.testing.assert_array_equal(CouplingOperator(scenario, params.xi).toarray(), reference)


@pytest.mark.parametrize("market", sorted(ESTIMATOR_MARKETS) + sorted(DIRECT_MARKETS))
def test_floors_and_largest_coupling_match_table_walks(market):
    params = derive_parameters({**ESTIMATOR_MARKETS, **DIRECT_MARKETS}[market](),
                               require_valid=False)
    tables = xi_tables(params)
    assert params.offdiagonal_xi_max() == max(
        abs(v) for table in tables.values() for (i, l), v in table.items() if i != l)

    rng = np.random.default_rng(11)
    a = {pair: rng.uniform(0.5, 2.0) for pair in params.pairs}
    variances = {sid: rng.uniform(0.1, 3.0) for sid in params.scenario.source_ids}
    floors = payment_floors(params, np.array([a[p] for p in params.pairs]),
                            np.array([variances[s] for s in params.scenario.source_ids]))
    for k, (sid, bid) in enumerate(params.pairs):
        expected = a[(sid, bid)] * sum(tables[bid][(sid, i)] * variances[i]
                                       for i in params.scenario.dataset(bid))
        assert abs(floors[k] - expected) <= 1e-12 * expected


@pytest.mark.parametrize("market", sorted(OPERATOR_MARKETS))
def test_operator_product_matches_assembled_matrix(market):
    # Xi a as every solver reads it, against the assembled matrix's product
    scenario = OPERATOR_MARKETS[market]()
    params = derive_parameters(scenario, require_valid=False)
    operator = CouplingOperator(scenario, params.xi)
    matrix, _ = assemble_xi_matrix(scenario, params.xi)
    assert operator.shape == matrix.shape
    rng = np.random.default_rng(7)
    for a in (rng.uniform(0.0, 1.0, len(params.pairs)),
              rng.uniform(0.0, 1.0, len(params.pairs)) * np.abs(params.gamma)):
        product = operator @ a
        assert product.dtype == np.float64  # also with no coupling term at all
        np.testing.assert_allclose(product, matrix @ a, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("market", sorted(OPERATOR_MARKETS))
def test_operator_path_matches_dense_path(market):
    # the radius and the answer read Xi through the operator, at every size;
    # the references read the assembled matrix
    scenario = OPERATOR_MARKETS[market]()
    params = derive_parameters(scenario, require_valid=False)
    assert isinstance(params.coupling, CouplingOperator)
    rho = spectral_radius(params.xi_matrix)
    assert abs(params.spectral_radius - rho) <= RADIUS_TOL * max(1.0, rho)
    if not params.validation.ok or params.effort_kind != "unbounded":
        return
    result = solve_unbounded(params)
    assert result.solved == (rho < 1.0 - MARGINAL_BAND)
    if result.solved:
        expected = np.linalg.solve(np.eye(len(params.pairs)) - params.xi_matrix, params.gamma)
        np.testing.assert_allclose(pair_array(scenario, result.a.a), expected,
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("market", sorted(OPERATOR_MARKETS))
def test_largest_coupling_matches_assembled_max(market):
    params = derive_parameters(OPERATOR_MARKETS[market](), require_valid=False)
    largest = params.xi_matrix.max(initial=0.0)
    assert params.coupling.largest_entry() == largest
    threshold = 0.0 if params.mode == MODE_DIRECT else ESTIMATOR_ZERO_TOL
    assert efficiency_predicate(params) is bool(largest <= threshold)


def test_solved_market_is_unchanged_by_direct_reentry_of_the_array():
    # the array written back as direct-mode tables reproduces the solution
    scenario = ESTIMATOR_MARKETS["partial-d2"]()
    params = derive_parameters(scenario)
    direct = MarketScenario(scenario.sources, scenario.aggregators, scenario.ground_truth,
                            mode="direct", direct_beta=by_pair(scenario, params.beta),
                            direct_xi=xi_tables(params))
    reparams = derive_parameters(direct)
    np.testing.assert_array_equal(params.xi, reparams.xi)
    assert solve_unbounded(params).a == solve_unbounded(reparams).a


@st.composite
def loo_designs(draw):
    """Feature points for leave_one_out_weights: d in {1, 2, 3}, k from d + 2
    to 40 points, small integer coordinates (so leave-one-out designs can be
    exactly singular) or floats, some points repeated, and at most one
    leverage point with a coordinate at 1e6."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(d + 2, 40))
    coordinate = st.one_of(st.integers(-3, 3).map(float),
                           st.floats(-10.0, 10.0, allow_nan=False))
    points = [draw(st.tuples(*[coordinate] * d)) for _ in range(k)]
    for _ in range(draw(st.integers(0, 3))):  # repeats of earlier points
        points[draw(st.integers(0, k - 1))] = points[draw(st.integers(0, k - 1))]
    if draw(st.booleans()):
        at, axis = draw(st.integers(0, k - 1)), draw(st.integers(0, d - 1))
        points[at] = tuple(1e6 if c == axis else x for c, x in enumerate(points[at]))
    return points


@settings(max_examples=200, deadline=None, derandomize=True)
@given(points=loo_designs())
def test_leave_one_out_weights_match_per_source_fits(points):
    scenario = _line_market(points, {"b1": list(range(len(points)))})
    ids = scenario.source_ids
    features = np.array([scenario.sources_by_id[sid].feature for sid in ids])
    try:
        reference = reference_xi(scenario)["b1"]
    except IllDefinedPaymentError as expected:
        with pytest.raises(IllDefinedPaymentError) as got:
            leave_one_out_weights(features, aggregator="b1", sources=np.array(ids))
        assert (got.value.aggregator, got.value.source) == (expected.aggregator,
                                                            expected.source)
        return
    weights = leave_one_out_weights(features, aggregator="b1", sources=np.array(ids))
    for i, si in enumerate(ids):
        assert weights[i, i] == 0.0
        others = [l for l in range(len(ids)) if l != i]
        # the reference holds squared weights; a weight that is 0 in exact
        # arithmetic is rounding noise in both, so the floor is 1e-9 of the
        # row's largest weight
        expected = np.sqrt([reference[(si, ids[l])] for l in others])
        np.testing.assert_allclose(np.abs(weights[i, others]), expected, rtol=1e-9,
                                   atol=1e-9 * expected.max(), err_msg=si)
