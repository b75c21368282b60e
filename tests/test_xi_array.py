"""The coupling blocks xi[b] and their readers against the id-keyed
references they replaced: one ordinary least-squares fit per left-out source
for xi itself, nested walks of the id-keyed tables for the coupling matrix
Xi, the payment floors and the largest off-diagonal coupling, and the dense
xi[b, i, l] array the blocks replaced for the floors and variance weights."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    OLS,
    by_id,
    by_pair,
    dense_xi,
    lu_answer,
    make_coupled_direct,
    make_disjoint_datasets,
    make_line_scenario,
    make_random_direct,
    make_single_buyer_giant,
    make_symmetric_direct,
    pair_array,
    xi_tables,
)

from datamarket.cli import cli
from datamarket.effort import exponential_model
from datamarket.equilibrium import (
    MARGINAL_BAND,
    STATUS_UNIQUE,
    IdTable,
    _variance_weights,
    certify_equilibrium,
    payment_floors,
    solve_bounded,
    solve_unbounded,
)
from datamarket.errors import (
    IllDefinedEstimatorError,
    IllDefinedPaymentError,
    ScenarioValidationError,
)
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
    derive_parameters,
    derive_xi,
    spectral_radius,
    validate_scenario,
)
from datamarket.results import xi_csv, xi_matrix_csv
from datamarket.scenario import (
    GenerationSpec,
    generate_scenario,
    parse_scenario,
    serialize_scenario,
)
from datamarket.welfare import efficiency_predicate, price_of_anarchy


# ---------------------------------------------------------------------------
# References: the id-keyed code the arrays replaced
# ---------------------------------------------------------------------------

def reference_xi(scenario):
    """{b: {(i, l): xi}} from one OLS fit per left-out source."""
    xi, sources = {}, by_id(scenario.sources)
    for bid in scenario.aggregator_ids:
        ds = scenario.dataset(bid)
        table = {}
        for i in ds:
            table[(i, i)] = 1.0
            others = [sid for sid in ds if sid != i]
            if not others:
                continue
            pts = np.array([sources[sid].feature for sid in others])
            try:
                h = ols_coefficients(pts, point_mass(sources[i].feature))
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
    matrix, sources = np.zeros((len(pairs), len(pairs))), by_id(scenario.sources)
    for (s, b), row in index.items():
        sharing_s = sources[s].sharing
        for (l, j), col in index.items():
            if j == b or l == s:
                continue
            if j not in sharing_s:
                continue
            if b not in sources[l].sharing:
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


# b1 and b3 buy s1-s4 and share one block, b2 buys s2-s7
SHARED_POINTS = [(0.0,), (1.0,), (3.0,), (4.0,), (6.0,), (7.0,), (9.0,)]
SHARED_DATASETS = {"b1": [0, 1, 2, 3], "b2": [1, 2, 3, 4, 5, 6], "b3": [0, 1, 2, 3]}

# every market above, plus edge cases of the operator's sum over j != b: a
# decoupled 1e8 demand, one aggregator (no rival), disjoint datasets (Xi =
# 0), and groups of two aggregators and of one in one market
OPERATOR_MARKETS = {
    **ESTIMATOR_MARKETS, **DIRECT_MARKETS,
    "single-buyer-giant": make_single_buyer_giant,
    "single-aggregator": lambda: make_line_scenario(n_aggregators=1),
    "disjoint-datasets": make_disjoint_datasets,
    "mixed-groups": lambda: _line_market(SHARED_POINTS, SHARED_DATASETS),
}


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
    # b2 and b4 buy one dataset, singular without s3; b3's two points fail
    # too: the first failing fit, by aggregator then point, is b2's without s3
    "shared-dataset": lambda: _line_market(
        [(0.0,), (1.0,), (2.0,), (5.0,), (5.0,), (7.0,)],
        {"b1": [0, 1, 2, 3], "b2": [2, 3, 4], "b3": [0, 5], "b4": [2, 3, 4]}),
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
    assert len(xi) == len(scenario.aggregator_ids)
    for bid, block in zip(scenario.aggregator_ids, xi):
        ds = scenario.dataset(bid)
        assert block.shape == (len(ds), len(ds)) and not block.flags.writeable
        for i, si in enumerate(ds):
            for l, sl in enumerate(ds):
                # the unit diagonal is added by the readers, not stored
                expected = 0.0 if si == sl else reference[bid][(si, sl)]
                assert abs(block[i, l] - expected) <= 1e-9 * abs(expected), (bid, si, sl)


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


@pytest.mark.parametrize("market", sorted(RANK_DEFICIENT))
@pytest.mark.parametrize("require_valid", [True, False])
def test_rank_deficient_design_is_refused_with_the_validation_report(market, require_valid):
    # no table is left to inspect, so require_valid=False refuses it too
    scenario = RANK_DEFICIENT[market]()
    report = validate_scenario(scenario)
    assert [v.code for v in report.violations] == ["ill-defined-estimator"]
    with pytest.raises(ScenarioValidationError) as got:
        derive_parameters(scenario, require_valid=require_valid)
    assert str(got.value) == "scenario failed validation:\n" + report.summary()
    assert got.value.violations == report.violations


def test_every_subcommand_prints_the_ill_defined_estimator(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(serialize_scenario(RANK_DEFICIENT["second-aggregator"]()))
    unread = str(tmp_path / "missing.json")  # the market is refused before a result is read
    expected = ("invalid (1 violation(s))\n  [ill-defined-estimator] scenario: aggregator "
                "'b2': leave-one-out design excluding source 's2' is rank deficient (")
    for command, *options in (["validate"], ["derive"], ["solve"], ["certify", unread],
                              ["welfare", unread], ["sweep-alpha", "--alphas", "0.5"],
                              ["simulate", unread, "--rounds", "1", "--seed", "0"]):
        capsys.readouterr()
        assert cli([command, str(scenario), *options]) == 1, command
        out, err = capsys.readouterr()
        assert expected in (out if command == "validate" else err), command
        assert command == "validate" or (out == "" and err.startswith("datamarket: ")), command


@pytest.mark.parametrize("market", sorted(OPERATOR_MARKETS))
def test_coupling_matrix_matches_double_loop(market):
    # the only reference for Xi's entries that is not derived from the
    # operator: the operator's scatter copies xi exactly
    scenario = OPERATOR_MARKETS[market]()
    params = derive_parameters(scenario, require_valid=False)
    reference = reference_xi_matrix(scenario, xi_tables(params))
    np.testing.assert_array_equal(params.coupling.toarray(), reference)


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
    matrix = operator.toarray()
    assert operator.shape == matrix.shape
    rng = np.random.default_rng(7)
    for a in (rng.uniform(0.0, 1.0, len(params.pairs)),
              rng.uniform(0.0, 1.0, len(params.pairs)) * np.abs(params.gamma)):
        product = operator @ a
        assert product.dtype == np.float64  # also with no coupling term at all
        np.testing.assert_allclose(product, matrix @ a, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("market", sorted(OPERATOR_MARKETS))
def test_one_aggregator_read_matches_the_product(market):
    # the bounded sweeps read Xi a at one aggregator's pairs, one at a time
    params = derive_parameters(OPERATOR_MARKETS[market](), require_valid=False)
    a = np.random.default_rng(3).uniform(0.0, 1.0, len(params.pairs))
    product = params.coupling @ a
    for b, rows in enumerate(params.aggregator_pairs):
        read = params.coupling.at(b, a)
        assert read.shape == rows.shape
        assert np.all(np.abs(read - product[rows]) <= 1e-15 * np.abs(product[rows])), b


@pytest.mark.parametrize("market", sorted(OPERATOR_MARKETS))
def test_operator_path_matches_dense_path(market):
    # the radius and the answer read Xi through the operator, at every size;
    # the references read the assembled matrix
    scenario = OPERATOR_MARKETS[market]()
    params = derive_parameters(scenario, require_valid=False)
    assert isinstance(params.coupling, CouplingOperator)
    rho = spectral_radius(params.coupling.toarray())
    assert abs(params.spectral_radius - rho) <= RADIUS_TOL * max(1.0, rho)
    if not params.validation.ok or params.effort_kind != "unbounded":
        return
    result = solve_unbounded(params)
    assert result.solved == (rho < 1.0 - MARGINAL_BAND)
    if result.solved:
        expected = lu_answer(params)
        np.testing.assert_allclose(pair_array(scenario, result.a.a), expected,
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("market", sorted(OPERATOR_MARKETS))
def test_largest_coupling_matches_assembled_max(market):
    params = derive_parameters(OPERATOR_MARKETS[market](), require_valid=False)
    largest = params.coupling.toarray().max(initial=0.0)
    assert params.coupling.largest_entry() == largest
    threshold = 0.0 if params.mode == MODE_DIRECT else ESTIMATOR_ZERO_TOL
    assert efficiency_predicate(params) is bool(largest <= threshold)


def test_solved_market_is_unchanged_by_direct_reentry_of_the_array():
    # the blocks written back as direct-mode tables reproduce the solution
    scenario = ESTIMATOR_MARKETS["partial-d2"]()
    params = derive_parameters(scenario)
    direct = MarketScenario(scenario.sources, scenario.aggregators, scenario.ground_truth,
                            mode="direct", direct_beta=by_pair(scenario, params.beta),
                            direct_xi=xi_tables(params))
    reparams = derive_parameters(direct)
    assert len(params.xi) == len(reparams.xi)
    for block, reblock in zip(params.xi, reparams.xi):
        np.testing.assert_array_equal(block, reblock)
    assert solve_unbounded(params).a == solve_unbounded(reparams).a


def test_large_market_reentered_as_direct_tables():
    # the large-market full-d1 market's tables, entered as direct mode: held
    # as IdTables, the same beta and blocks bit for bit, a canonical round trip
    scenario = generate_scenario(GenerationSpec(150, 8, family="mixed", zeta_max=0.1), 0)
    params = derive_parameters(scenario)
    direct = MarketScenario(scenario.sources, scenario.aggregators, scenario.ground_truth,
                            mode=MODE_DIRECT, direct_beta=by_pair(scenario, params.beta),
                            direct_xi=xi_tables(params))
    assert isinstance(direct.direct_beta, IdTable)
    assert all(isinstance(table, IdTable) for table in direct.direct_xi.values())
    reparams = derive_parameters(direct)
    np.testing.assert_array_equal(reparams.beta, params.beta)
    for block, reblock in zip(params.xi, reparams.xi):
        np.testing.assert_array_equal(reblock, block)
    text = serialize_scenario(direct)
    assert serialize_scenario(parse_scenario(text)) == text


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
@given(points=loo_designs(), data=st.data())
def test_leave_one_out_weights_match_per_source_fits(points, data):
    # b2 buys b1's dataset, b3 another nonempty subset of the points
    subset = data.draw(st.sets(st.integers(0, len(points) - 1), min_size=1))
    everyone = list(range(len(points)))
    scenario = _line_market(points, {"b1": everyone, "b2": everyone, "b3": sorted(subset)})
    ids, bids = scenario.source_ids, scenario.aggregator_ids
    features = np.array([by_id(scenario.sources)[sid].feature for sid in ids])
    try:
        reference = reference_xi(scenario)
    except IllDefinedPaymentError as expected:
        with pytest.raises(IllDefinedPaymentError) as got:
            leave_one_out_weights(features, scenario.members, aggregators=bids,
                                  sources=np.array(ids))
        assert (got.value.aggregator, got.value.source) == (expected.aggregator,
                                                            expected.source)
        return
    blocks = leave_one_out_weights(features, scenario.members, aggregators=bids,
                                   sources=np.array(ids))
    assert blocks[1] is blocks[0]
    for bid, weights in zip(bids, blocks):
        ds = scenario.dataset(bid)
        assert not weights.flags.writeable
        for i, si in enumerate(ds):
            assert weights[i, i] == 0.0
            others = [l for l in range(len(ds)) if l != i]
            if not others:
                continue
            # the reference holds squared weights; a weight that is 0 in exact
            # arithmetic is rounding noise in both, so the floor is 1e-9 of the
            # row's largest weight
            expected = np.sqrt([reference[bid][(si, ds[l])] for l in others])
            np.testing.assert_allclose(np.abs(weights[i, others]), expected, rtol=1e-9,
                                       atol=1e-9 * expected.max(), err_msg=f"{bid} {si}")


# ---------------------------------------------------------------------------
# The blocks as the one copy of xi
# ---------------------------------------------------------------------------

def _with_idle_aggregator():
    """The direct market GenerationSpec(6, 2, family="mixed", mode="direct")
    at seed 0, plus an aggregator "zz" nobody sells to: a (0, 0) block."""
    scenario = generate_scenario(GenerationSpec(6, 2, family="mixed", mode="direct"), 0)
    idle = AggregatorSpec("zz", OLS, point_mass((0.0,)))
    return MarketScenario(scenario.sources, (*scenario.aggregators, idle),
                          scenario.ground_truth, mode=MODE_DIRECT,
                          direct_beta=scenario.direct_beta,
                          direct_xi={**scenario.direct_xi, "zz": {}})


# every reader that adds the unit diagonal, on: full and partial sharing,
# a one-source dataset (no rival point: a 1 x 1 zero block), bounded
# effort sets, direct mode, and an aggregator nobody sells to
BLOCK_MARKETS = {
    "full-d1": ESTIMATOR_MARKETS["full-d1"],
    "partial-d2": ESTIMATOR_MARKETS["partial-d2"],
    "one-source-dataset": lambda: make_coupled_direct(
        5, 3, lambda i, l: 0.05 * (1 + i + 2 * l), sells=lambda i, b: b < 2 or i == 3),
    "bounded": lambda: generate_scenario(
        GenerationSpec(12, 3, family="mixed", bounded=True, sharing_density=0.7), 0),
    "random-partial": DIRECT_MARKETS["random-partial"],
    "idle-aggregator": _with_idle_aggregator,
}


def dense_floors(params, a, variances):
    """payment_floors from the dense xi array, one product over all sources."""
    return a * (dense_xi(params) @ variances)[params.pair_aggregator, params.pair_source]


def dense_variance_weights(params, a_vec):
    """_variance_weights from the dense xi array, one einsum:
    u[j, b, i] = a[i, j] [i in D_b] [j != b], contracted with xi_j(i, s)."""
    membership = params.scenario.membership
    a_table = np.zeros(membership.shape)
    a_table[params.pair_source, params.pair_aggregator] = a_vec
    u = a_table.T[:, None, :] * membership.T * (1.0 - np.eye(membership.shape[1]))[:, :, None]
    coupling = np.einsum("jbi,jis->bs", u, dense_xi(params))
    return params.gamma + coupling[params.pair_aggregator, params.pair_source]


@pytest.mark.parametrize("market", sorted(BLOCK_MARKETS))
def test_blocked_readers_match_dense_reference(market):
    params = derive_parameters(BLOCK_MARKETS[market](), require_valid=False)
    if market == "one-source-dataset":
        assert params.xi[2].shape == (1, 1)
    rng = np.random.default_rng(5)
    n = len(params.scenario.source_ids)
    for a in (rng.uniform(0.5, 2.0, len(params.pairs)), np.abs(params.gamma)):
        variances = rng.uniform(0.1, 3.0, n)
        for got, expected in ((payment_floors(params, a, variances),
                               dense_floors(params, a, variances)),
                              (_variance_weights(params, a)[0],
                               dense_variance_weights(params, a))):
            assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))


def test_aggregator_nobody_sells_to():
    scenario = _with_idle_aggregator()
    params = derive_parameters(scenario)
    assert scenario.dataset("zz") == () and params.xi[2].shape == (0, 0)
    result = solve_unbounded(params)
    assert result.status == STATUS_UNIQUE
    assert certify_equilibrium(result, params).passed
    assert params.spectral_radius == pytest.approx(0.7891305087308003, rel=1e-12)
    assert price_of_anarchy(result, params).poa == pytest.approx(1.5307884908202973,
                                                                 rel=1e-12)
    table, matrix = xi_csv(params), xi_matrix_csv(params)
    assert len(table.splitlines()) == 73  # 2 x 6 x 6 dataset pairs, header
    assert len(matrix.splitlines()) == 13
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "128ac92b806a3c9375364111f7327342aaf1f014c5729340ebf3f1550a0f86be")
    assert hashlib.sha256(matrix.encode()).hexdigest() == (
        "c6fcacc2b661c7ec63fa5b661a7f71996002ae8f47876045907ada31bf4ab2ce")
    text = serialize_scenario(scenario)  # the idle aggregator's xi table has no entry
    assert '"zz": {}' in text and serialize_scenario(parse_scenario(text)) == text


def test_derived_block_of_an_aggregator_nobody_sells_to_is_empty():
    scenario = _line_market([(0.0,), (1.0,), (3.0,), (4.0,)], {"b1": [0, 1, 2, 3], "b2": []})
    assert [block.shape for block in derive_xi(scenario)] == [(4, 4), (0, 0)]


@pytest.mark.parametrize("market", sorted(OPERATOR_MARKETS) + ["idle-aggregator"])
def test_operator_reads_the_stored_blocks(market):
    params = derive_parameters({**OPERATOR_MARKETS, **BLOCK_MARKETS}[market](),
                               require_valid=False)
    assert isinstance(params.xi, tuple)
    assert len(params.coupling.blocks) == len(params.xi)
    for block, stored in zip(params.coupling.blocks, params.xi):
        assert np.shares_memory(block, stored) or block.size == 0
        assert not stored.flags.writeable


def test_derivation_holds_one_copy_of_the_blocks():
    # n = 300, m = 10, full sharing: one 0.72 MB block, which the 10
    # aggregators share.  Beside it the peak holds beta and gamma (0.05 MB),
    # the operator's index arrays (0.1 MB) and a 0.1 MB transient: 1.35 x
    # the block.  A dense m x n x n array, or an operator holding a copy of
    # the block, passes 2 x
    scenario = generate_scenario(GenerationSpec(300, 10, family="mixed", zeta_max=0.1), 0)
    tracemalloc.start()
    try:
        params = derive_parameters(scenario)
        params.coupling
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    distinct = {id(block): block for block in params.xi}.values()
    assert peak < 1.75 * sum(block.nbytes for block in distinct)


# ---------------------------------------------------------------------------
# One fit per distinct dataset
# ---------------------------------------------------------------------------

def test_full_sharing_holds_one_block():
    params = derive_parameters(generate_scenario(GenerationSpec(48, 4, family="mixed"), 0))
    assert len(params.xi) == 4
    assert all(block is params.xi[0] for block in params.xi)
    assert not params.xi[0].flags.writeable


def test_aggregators_with_one_dataset_share_its_block():
    # b1's block is padded in the stack
    points, datasets = SHARED_POINTS, SHARED_DATASETS
    b1, b2, b3 = derive_xi(_line_market(points, datasets))
    assert b1 is b3 and b2 is not b1
    for block, rows in ((b1, datasets["b1"]), (b2, datasets["b2"])):
        alone = derive_xi(_line_market([points[k] for k in rows], {"b1": list(range(len(rows)))}))
        assert np.array_equal(block, alone[0])  # squared once, bit for bit
