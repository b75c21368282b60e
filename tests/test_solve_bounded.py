"""The block-vector bounded solver against the coordinate-by-coordinate
reference: damped Gauss-Seidel best responses with one `_branch` call per
(source, aggregator) pair.  Both must take the same number of sweeps and agree
per coordinate within 1e-12 relative; on a too-small sweep budget both must
raise NonConvergenceError with the same last iterate and residual.  The
certificate's best responses (`best_response_residual`, `branch_profile`)
must match `_branch` too: the same targets within 1e-12 relative and the
same branch labels, and the solver's one-aggregator call of the shared rule
(`_best_response`) must be the all-pairs call restricted to that block."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    by_id,
    make_line_scenario,
    make_random_direct,
    make_symmetric_direct,
    xi_tables,
)

from datamarket import equilibrium
from datamarket.effort import CustomVariance, EffortSet, EffortVarianceModel, effort_response
from datamarket.equilibrium import (
    _best_response,
    _variance_weights,
    best_response_residual,
    branch_profile,
    solve_bounded,
)
from datamarket.errors import NonConvergenceError
from datamarket.market import MarketScenario, derive_gamma, derive_parameters
from datamarket.scenario import GenerationSpec, generate_scenario

REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Coordinate-by-coordinate reference
# ---------------------------------------------------------------------------

def _branch(params, xi, a, sid, bid):
    """Best-response target for one (source, aggregator) coordinate, holding
    every other coordinate fixed, with the incentive interval enforced and
    negative demands floored at zero; xi holds the id-keyed tables.  Returns
    (target, branch label)."""
    bounds = params.effort_model(sid).incentive_bounds
    sources = by_id(params.scenario.sources)
    sharing = sources[sid].sharing
    rivals_same_source = sum(a[(sid, j)] for j in sharing if j != bid)
    coupling = 0.0
    for j in sharing:
        if j == bid:
            continue
        for l in params.scenario.dataset(j):
            if l == sid:
                continue
            if bid not in sources[l].sharing:
                continue
            coupling += a[(l, j)] * xi[j][(l, sid)]
    interior = params.gamma[params.pairs.index((sid, bid))] + coupling
    t = interior + rivals_same_source
    if t < bounds.a_lower:
        target, label = bounds.a_lower - rivals_same_source, "at-minimum"
    elif t > bounds.a_upper:
        target, label = bounds.a_upper - rivals_same_source, "at-maximum"
    else:
        target, label = interior, "interior"
    return max(0.0, target), label


def gauss_seidel_reference(params, *, damping=0.5, max_iter=100_000, tol=1e-10):
    """(a, sweeps, residual): aggregators in id order, each coordinate moved
    a damping fraction toward its `_branch` target as soon as it is computed.
    sweeps is None when max_iter ran out."""
    xi = xi_tables(params)
    a = dict(zip(params.pairs, params.gamma.tolist()))
    residual = math.nan
    for sweeps in range(1, max_iter + 1):
        residual = 0.0
        for bid in params.scenario.aggregator_ids:
            for sid in params.scenario.dataset(bid):
                target, _ = _branch(params, xi, a, sid, bid)
                delta = target - a[(sid, bid)]
                residual = max(residual, abs(delta))
                a[(sid, bid)] += damping * delta
        if residual < tol:
            return a, sweeps, residual
    return a, None, residual


def assert_close(fast, reference):
    assert fast.keys() == reference.keys()
    for pair, value in reference.items():
        assert abs(fast[pair] - value) <= REL_TOL * abs(value), pair


# ---------------------------------------------------------------------------
# Markets
# ---------------------------------------------------------------------------

def _c06_spec(k):
    """The direct-bounded specs of acceptance criterion 6."""
    return GenerationSpec(
        n_sources=1 + k % 4, n_aggregators=1 + (k // 4) % 4,
        mode="direct", bounded=True,
        coupling_scale=(0.05, 0.15, 0.3, 0.7, 1.2)[k % 5],
        sharing_density=1.0 if k % 3 else 0.8)


def _custom_bounded_line():
    """Estimator-mode line market whose sources use a custom family (the
    exponential one, given by callables) on a bounded effort set capped just
    above the largest demand, so that some coordinates clamp."""
    base = make_line_scenario(n_aggregators=2, zeta=0.1, n_points=8)
    _, gamma_total = derive_gamma(base, derive_parameters(base).beta)
    gamma_total = dict(zip(base.source_ids, gamma_total.tolist()))
    sigma0, lam = 8.0, 1.0
    family = CustomVariance(
        sigma_fn=lambda e: sigma0 * math.exp(-lam * e),
        sigma_prime_fn=lambda e: -lam * sigma0 * math.exp(-lam * e),
        sigma_second_fn=lambda e: lam * lam * sigma0 * math.exp(-lam * e))
    e_max = effort_response(EffortVarianceModel(family), 1.05 * max(gamma_total.values()))
    model = EffortVarianceModel(family, EffortSet("bounded", e_max=e_max))
    sources = tuple(replace(s, effort_model=model) for s in base.sources)
    return MarketScenario(sources, base.aggregators, base.ground_truth)


MARKETS = {
    "estimator-full": lambda: generate_scenario(
        GenerationSpec(24, 3, family="mixed", bounded=True), 0),
    "estimator-partial": lambda: generate_scenario(
        GenerationSpec(30, 4, family="mixed", bounded=True, sharing_density=0.7), 3),
    "direct-partial": lambda: make_random_direct(
        np.random.default_rng(5), n=9, m=4, coupling=0.3, bounded=True,
        sharing_density=0.6),
    "custom-family": _custom_bounded_line,
    "symmetric-clamped": lambda: make_symmetric_direct(e_max=math.log(3.0)),
    **{f"c06-{k}": (lambda k=k: generate_scenario(_c06_spec(k), seed=6000 + k))
       for k in (4, 9, 14, 17, 19, 23, 33, 39)},  # coupling 1.2 at k % 5 == 4
}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("market", sorted(MARKETS))
def test_matches_reference(market):
    params = derive_parameters(MARKETS[market]())
    reference, sweeps, _ = gauss_seidel_reference(params)
    result = solve_bounded(params)
    assert result.diagnostics.iterations == sweeps
    assert_close(result.a.a, reference)


def test_markets_cover_clamped_and_interior_equilibria():
    clamped = interior = 0
    for market in MARKETS:
        params = derive_parameters(MARKETS[market]())
        result = solve_bounded(params)
        profile = set(branch_profile(params, result.a.a).values())
        clamped += profile != {"interior"}
        interior += profile == {"interior"}
    assert clamped >= 3 and interior >= 3, (clamped, interior)


@pytest.mark.parametrize("damping", [0.3, 1.0])
def test_matches_reference_at_other_damping(damping, monkeypatch):
    params = derive_parameters(MARKETS["estimator-partial"]())
    reference, sweeps, _ = gauss_seidel_reference(params, damping=damping)
    monkeypatch.setattr(equilibrium, "BOUNDED_DAMPING", damping)
    result = solve_bounded(params)
    assert result.diagnostics.iterations == sweeps
    assert_close(result.a.a, reference)


@pytest.mark.parametrize("market", ["estimator-partial", "custom-family",
                                    "symmetric-clamped", "c06-14"])
def test_exhausted_budget_carries_reference_iterate(market, monkeypatch):
    params = derive_parameters(MARKETS[market]())
    reference, sweeps, residual = gauss_seidel_reference(params, max_iter=3)
    assert sweeps is None
    monkeypatch.setattr(equilibrium, "BOUNDED_MAX_ITER", 3)
    with pytest.raises(NonConvergenceError) as info:
        solve_bounded(params)
    assert info.value.iterations == 3
    assert abs(info.value.residual - residual) <= REL_TOL * residual
    assert_close(info.value.last_iterate, reference)



def _probe_weights(params):
    """The equilibrium, slightly perturbed weights, and weights scaled far
    down (at-minimum branches: a coordinate's own demand can sit below the
    bound) and far up (at-maximum branches)."""
    solved = solve_bounded(params).a.a
    rng = np.random.default_rng(7)
    scaled = [{pair: value * rng.uniform(low, high) for pair, value in solved.items()}
              for low, high in ((0.8, 1.25), (0.001, 0.01), (2.0, 5.0))]
    return solved, scaled


@pytest.mark.parametrize("market", sorted(MARKETS))
def test_best_responses_match_reference(market):
    params = derive_parameters(MARKETS[market]())
    xi = xi_tables(params)
    solved, scaled = _probe_weights(params)
    for a in (solved, *scaled):
        reference = {pair: _branch(params, xi, a, *pair) for pair in params.pairs}
        _, targets, _ = _variance_weights(params, np.array([a[pair] for pair in params.pairs]))
        assert_close(dict(zip(params.pairs, targets.tolist())),
                     {pair: target for pair, (target, _) in reference.items()})
        assert branch_profile(params, a) == {pair: label
                                             for pair, (_, label) in reference.items()}
    for a in scaled:  # away from equilibrium, where the residual is not noise
        residual = max(abs(a[pair] - _branch(params, xi, a, *pair)[0])
                       for pair in params.pairs)
        assert abs(best_response_residual(params, a) - residual) <= REL_TOL * residual


def test_probe_weights_reach_every_branch():
    labels = set()
    for market in MARKETS:
        params = derive_parameters(MARKETS[market]())
        for a in _probe_weights(params)[1]:
            labels |= set(branch_profile(params, a).values())
    assert labels == {"at-minimum", "interior", "at-maximum"}


@pytest.mark.parametrize("market", sorted(MARKETS))
def test_one_block_best_response_is_the_all_pairs_rule(market):
    # solve_bounded's call for aggregator b and the certificate's all-pairs
    # call must be one rule: bit for bit on b's rows, on every branch
    params = derive_parameters(MARKETS[market]())
    solved, scaled = _probe_weights(params)
    for a in (solved, *scaled):
        a_vec = np.array([a[pair] for pair in params.pairs])
        totals = np.bincount(params.pair_source, weights=a_vec)
        interior = params.gamma + params.coupling @ a_vec
        everywhere = _best_response(params, a_vec, totals, interior)
        for blk in params.aggregator_pairs:
            block = _best_response(params, a_vec, totals, interior[blk], blk)
            for got, expected in zip(block, everywhere):
                assert np.array_equal(got, expected[blk])
