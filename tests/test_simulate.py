"""Realized rounds: determinism, the noiseless limit, Monte-Carlo agreement
of payments with the participation constraint, and agreement with the
per-source reference round (one leave-one-out fit per source, `np.delete`
for its responses)."""

import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from conftest import by_id, contract_floors, dataset_points, make_line_scenario

from datamarket import simulate
from datamarket.equilibrium import IdTable, solve_unbounded
from datamarket.errors import DomainError
from datamarket.estimators import design_matrix, trial_stream
from datamarket.market import derive_parameters
from datamarket.results import rounds_csv
from datamarket.scenario import GenerationSpec, generate_scenario
from datamarket.simulate import (
    iter_rounds,
    payment_statistics,
    simulate_round,
)


# ---------------------------------------------------------------------------
# Per-source reference round
# ---------------------------------------------------------------------------

def _fit_weights(points, queries):
    X = design_matrix(points)
    A = design_matrix(queries)
    return (X @ np.linalg.solve(X.T @ X, A.T)).T  # (queries, points)


def reference_round(scenario, result, seed, index):
    """(responses, payments, estimates, losses) of one round, every
    leave-one-out prediction from its own fit."""
    sources, aggregators = by_id(scenario.sources), by_id(scenario.aggregators)
    rng = trial_stream(seed, index)
    noise = rng.normal(size=len(scenario.source_ids))
    responses = {sid: scenario.ground_truth(sources[sid].feature)
                 + sources[sid].effort_model.sigma(result.efforts[sid])
                 * float(eps)
                 for sid, eps in zip(scenario.source_ids, noise)}

    def error_at_atoms(bid, weights, y):
        query = aggregators[bid].query_dist
        truth = np.array([scenario.ground_truth(p) for p in query.points()])
        return float(query.weights() @ (weights @ y - truth) ** 2)

    payments, estimates, own_error, y_by_agg = {}, {}, {}, {}
    for bid in scenario.aggregator_ids:
        ds = scenario.dataset(bid)
        points = dataset_points(scenario, bid)
        y = y_by_agg[bid] = np.array([responses[sid] for sid in ds])
        atom_weights = _fit_weights(points, aggregators[bid].query_dist.points())
        estimates[bid] = tuple(float(v) for v in atom_weights @ y)
        own_error[bid] = error_at_atoms(bid, atom_weights, y)
        for pos, sid in enumerate(ds):
            loo = _fit_weights(np.delete(points, pos, axis=0),
                               np.array([sources[sid].feature]))[0]
            gap = responses[sid] - float(loo @ np.delete(y, pos))
            payments[(sid, bid)] = (result.canonical_c[(sid, bid)]
                                    - result.a.a[(sid, bid)] * gap * gap)
    losses = {}
    for bid in scenario.aggregator_ids:
        agg = aggregators[bid]
        value = own_error[bid]
        for other, weight in agg.zeta.items():
            if weight != 0.0:
                rival = _fit_weights(dataset_points(scenario, other),
                                     agg.query_dist.points())
                value -= weight * error_at_atoms(bid, rival, y_by_agg[other])
        value += agg.payment_scale * sum(payments[(sid, bid)]
                                         for sid in scenario.dataset(bid))
        losses[bid] = value
    return responses, payments, estimates, losses


ROUND_MARKETS = {
    "line": lambda: make_line_scenario(n_aggregators=2, zeta=0.1, n_points=8),
    "full-d1": lambda: generate_scenario(GenerationSpec(20, 3, family="mixed"), 0),
    "partial-d2": lambda: generate_scenario(
        GenerationSpec(24, 4, dimension=2, family="mixed", sharing_density=0.7), 1),
}


@cache
def solved_market(market):
    scenario = ROUND_MARKETS[market]()
    result = solve_unbounded(derive_parameters(scenario))
    assert result.solved
    return scenario, result


@pytest.mark.parametrize("market", sorted(ROUND_MARKETS))
def test_rounds_match_per_source_reference(market):
    scenario, result = solved_market(market)
    for round_ in iter_rounds(scenario, result, 4, seed=17):
        responses, payments, estimates, losses = reference_round(
            scenario, result, 17, round_.index)
        assert round_.responses == responses  # drawn and formed exactly as before
        for got, expected in ((round_.payments, payments), (round_.losses, losses)):
            assert got.keys() == expected.keys()
            for key, value in expected.items():
                assert abs(got[key] - value) <= 1e-10 * abs(value), (key, got[key], value)
        assert round_.estimates.keys() == estimates.keys()
        for bid, values in estimates.items():
            for got, value in zip(round_.estimates[bid], values, strict=True):
                assert abs(got - value) <= 1e-10 * abs(value), bid


@pytest.fixture(scope="module")
def solved_line():
    scenario = make_line_scenario(n_aggregators=2, zeta=0.1, n_points=8)
    params = derive_parameters(scenario)
    result = solve_unbounded(params)
    assert result.solved
    return scenario, params, result


class TestSingleRound:
    def test_fixed_seed_bit_identical(self, solved_line):
        scenario, _, result = solved_line
        r1 = simulate_round(scenario, result, seed=99)
        r2 = simulate_round(scenario, result, seed=99)
        assert r1 == r2

    def test_different_index_differs(self, solved_line):
        scenario, _, result = solved_line
        r1 = simulate_round(scenario, result, seed=99, index=0)
        r2 = simulate_round(scenario, result, seed=99, index=1)
        assert r1.responses != r2.responses

    def test_noiseless_limit_pays_constant_terms(self, solved_line):
        scenario, _, result = solved_line
        # huge efforts drive the variances to ~0: reports equal the ground
        # truth and leave-one-out fits interpolate it exactly
        quiet = replace(result, efforts={s: 60.0 for s in result.efforts})
        round_ = simulate_round(scenario, quiet, seed=1)
        for sid in scenario.source_ids:
            truth = scenario.ground_truth(by_id(scenario.sources)[sid].feature)
            assert round_.responses[sid] == pytest.approx(truth, abs=1e-12)
        for pair, payment in round_.payments.items():
            assert payment == pytest.approx(result.canonical_c[pair], abs=1e-12)

    def test_direct_mode_rejected(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        with pytest.raises(DomainError):
            simulate_round(symmetric_direct, result, seed=0)

    def test_negative_index_rejected(self, solved_line):
        scenario, _, result = solved_line
        with pytest.raises(DomainError, match="index"):
            simulate_round(scenario, result, seed=0, index=-1)

    def test_unsolved_result_rejected(self, solved_line):
        scenario, _, result = solved_line
        none_result = replace(result, status="none")
        with pytest.raises(DomainError):
            simulate_round(scenario, none_result, seed=0)

    def test_round_tables_are_read_only_views_of_the_block(self, solved_line):
        scenario, _, result = solved_line
        round_ = simulate_round(scenario, result, seed=5)
        for table, ids in ((round_.responses, scenario.source_ids),
                           (round_.payments, scenario.sharing_pairs()),
                           (round_.losses, scenario.aggregator_ids)):
            assert isinstance(table, IdTable) and table.ids == ids
            assert not table.array.flags.writeable
            # equal, as a mapping, to the id-keyed dict of Python floats
            built = dict(zip(ids, table.array.tolist()))
            assert table == built and dict(table) == built
            assert all(type(value) is float for value in table.values())

    def test_estimates_are_ols_fits(self, solved_line):
        scenario, _, result = solved_line
        round_ = simulate_round(scenario, result, seed=5)
        from datamarket.estimators import design_matrix
        for bid in scenario.aggregator_ids:
            ds = scenario.dataset(bid)
            X = design_matrix(dataset_points(scenario, bid))
            y = np.array([round_.responses[s] for s in ds])
            coef = np.linalg.solve(X.T @ X, X.T @ y)
            atoms = by_id(scenario.aggregators)[bid].query_dist.points()
            expected = design_matrix(atoms) @ coef
            np.testing.assert_allclose(round_.estimates[bid], expected, atol=1e-10)


class TestBatches:
    @pytest.mark.parametrize("market", sorted(ROUND_MARKETS))
    def test_iter_matches_indexed_single_rounds(self, market):
        scenario, result = solved_market(market)
        batch = list(iter_rounds(scenario, result, 5, seed=123))
        for r, round_ in enumerate(batch):
            assert round_ == simulate_round(scenario, result, seed=123, index=r)

    @pytest.mark.parametrize("market", sorted(ROUND_MARKETS))
    def test_block_size_is_invisible(self, market, monkeypatch):
        scenario, result = solved_market(market)
        tables = set()
        for block in (1, 3, simulate.ROUND_BLOCK):
            monkeypatch.setattr(simulate, "ROUND_BLOCK", block)
            tables.add(rounds_csv(scenario, iter_rounds(scenario, result, 7, seed=8)))
        assert len(tables) == 1

    def test_iter_rounds_plays_one_block_at_a_time(self):
        scenario = generate_scenario(GenerationSpec(48, 4, family="mixed"), 0)
        result = solve_unbounded(derive_parameters(scenario))
        floats_per_round = len(scenario.source_ids) + len(scenario.sharing_pairs())
        tracemalloc.start()
        try:
            next(iter_rounds(scenario, result, 10**6, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * simulate.ROUND_BLOCK * floats_per_round * 8

    def test_mean_payment_matches_effort(self, solved_line):
        # participation binds at the canonical contract: expected total
        # compensation equals the exerted effort
        scenario, params, result = solved_line
        stats = payment_statistics(scenario, result, n_rounds=20_000, seed=7)
        for sid in scenario.source_ids:
            gap = abs(stats.mean_total[sid] - result.efforts[sid])
            assert gap <= 3 * stats.se_total[sid], (sid, gap, stats.se_total[sid])

    def test_standard_error_survives_a_large_mean(self, solved_line):
        # a constant far above the payment spread: sum-of-squares variance
        # cancels to ~1e-5 relative here, the streaming update keeps ~1e-12
        scenario, _, result = solved_line
        shifted = replace(result, canonical_c={pair: c + 1e5
                                               for pair, c in result.canonical_c.items()})
        n = 200
        stats = payment_statistics(scenario, shifted, n_rounds=n, seed=5)
        totals = {sid: [] for sid in scenario.source_ids}
        sources = by_id(scenario.sources)
        for round_ in iter_rounds(scenario, shifted, n, seed=5):
            for sid in scenario.source_ids:
                totals[sid].append(sum(round_.payments[(sid, bid)]
                                       for bid in sources[sid].sharing))
        for sid, values in totals.items():
            expected = np.std(values, ddof=1) / np.sqrt(n)
            assert abs(stats.se_total[sid] - expected) <= 1e-9 * expected
            assert stats.mean_total[sid] == pytest.approx(np.mean(values), rel=1e-12)

    def test_mean_per_pair_payment_matches_expectation(self, solved_line):
        scenario, params, result = solved_line
        sums = {pair: 0.0 for pair in scenario.sharing_pairs()}
        n = 20_000
        for round_ in iter_rounds(scenario, result, n, seed=31):
            for pair in sums:
                sums[pair] += round_.payments[pair]
        floors, _ = contract_floors(params, result)
        for sid, bid in sums:
            expected = result.canonical_c[(sid, bid)] - floors[(sid, bid)]
            assert sums[(sid, bid)] / n == pytest.approx(expected, abs=0.02)
