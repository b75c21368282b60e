"""Shared scenario builders for the test suite."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from datamarket.effort import (
    EffortSet,
    EffortVarianceModel,
    exponential_model,
    inverse_power_model,
)
from datamarket.equilibrium import payment_floors
from datamarket.estimators import EstimatorSpec, QueryDistribution, point_mass
from datamarket.market import (
    AggregatorSpec,
    CouplingOperator,
    DataSourceSpec,
    GroundTruth,
    MarketScenario,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS  # noqa: E402

OLS = EstimatorSpec("ols_with_intercept")


def by_id(items):
    """{id: item} of a scenario's sources or aggregators: the tests' own
    lookup, built from the primitives rather than the package's index."""
    return {item.id: item for item in items}


def _bench_markets():
    """bench/workloads.py's certified markets at seeds 0 and 11, read from
    its plans: name -> (spec, generation seed)."""
    return {f"{name}/{seed}/{key}": (spec, gen_seed) for seed in (0, 11)
            for name in ("unbounded-certify", "bounded-best-response")
            for key, spec, gen_seed in WORKLOADS[name].plan(seed, False)}


BENCH_MARKETS = _bench_markets()


def dataset_points(scenario, bid):
    """|D_b| x d feature points of the sources selling to aggregator bid, in
    id order, read from each source's own sharing set."""
    points = [s.feature for s in sorted(scenario.sources, key=lambda s: s.id)
              if bid in s.sharing]
    return np.array(points, dtype=float).reshape(-1, len(scenario.ground_truth.coefficients))


def make_symmetric_direct(xi_offdiag=0.5, beta_value=1.0, e_max=None,
                          sigma0=1.0, lam=0.5):
    """Two sources, two aggregators, full sharing, direct-mode parameters.

    With beta 1, zeta 0, and symmetric off-diagonal coupling c the
    equilibrium system solves in closed form: a = 1 / (1 - c) per entry.
    """
    effort_set = EffortSet("unbounded") if e_max is None else EffortSet("bounded", e_max=e_max)
    model = exponential_model(sigma0, lam, effort_set)
    sources = (
        DataSourceSpec("s1", (0.0,), model, ("b1", "b2")),
        DataSourceSpec("s2", (1.0,), model, ("b1", "b2")),
    )
    aggregators = (
        AggregatorSpec("b1", OLS, point_mass((0.5,))),
        AggregatorSpec("b2", OLS, point_mass((0.5,))),
    )
    beta = {(s, b): beta_value for s in ("s1", "s2") for b in ("b1", "b2")}
    xi = {b: {("s1", "s1"): 1.0, ("s2", "s2"): 1.0,
              ("s1", "s2"): xi_offdiag, ("s2", "s1"): xi_offdiag}
          for b in ("b1", "b2")}
    return MarketScenario(sources, aggregators, GroundTruth((1.0,), 0.0),
                          mode="direct", direct_beta=beta, direct_xi=xi)


def make_line_scenario(n_aggregators=1, zeta=0.0, sharing=None,
                       query_points=None, lam=1.0, sigma0=8.0, n_points=4):
    """Estimator-mode scenario on the d=1 points 0..n-1.  The default effort
    family keeps the minimum incentive (1/128) below OLS-derived demand, and
    the default query mixture spreads demand across the whole line."""
    points = [(float(k),) for k in range(n_points)]
    model = exponential_model(sigma0, lam)
    ids = [f"s{k + 1}" for k in range(len(points))]
    bids = [f"b{k + 1}" for k in range(n_aggregators)]
    if sharing is None:
        sharing = {sid: tuple(bids) for sid in ids}
    sources = tuple(DataSourceSpec(sid, pt, model, sharing[sid])
                    for sid, pt in zip(ids, points))
    if query_points is None:
        query = QueryDistribution((((1.5,), 0.5), ((n_points - 2.5,), 0.5)))
        queries = [query] * n_aggregators
    else:
        queries = [point_mass(q) for q in query_points]
    aggregators = tuple(
        AggregatorSpec(bid, OLS, queries[k],
                       zeta={j: zeta for j in bids if j != bid} if zeta else {})
        for k, bid in enumerate(bids))
    return MarketScenario(sources, aggregators, GroundTruth((0.5,), 1.0))


def make_random_direct(rng, n, m, coupling=0.3, bounded=False, cap_ratio=None,
                       sharing_density=1.0, zeta_max=0.3, max_tries=60):
    """Random direct-mode scenario that passes validation.

    Effort families are drawn with small minimum incentives so random demand
    tables clear them; with bounded=True each source's effort cap is placed a
    random factor above its total demand (cap_ratio overrides the range), so
    the saturation hypothesis gamma_total < a_upper holds by construction.
    """
    from datamarket.effort import effort_response, incentive_bounds
    from datamarket.market import derive_gamma, validate_scenario

    sids = [f"s{k + 1:02d}" for k in range(n)]
    bids = [f"b{k + 1:02d}" for k in range(m)]
    for _ in range(max_tries):
        models = {}
        for sid in sids:
            if rng.uniform() < 0.5:
                models[sid] = exponential_model(rng.uniform(0.8, 1.5),
                                                rng.uniform(2.0, 6.0))
            else:
                models[sid] = inverse_power_model(rng.uniform(0.8, 1.5),
                                                  rng.uniform(2.0, 6.0))
        sharing = {}
        for sid in sids:
            chosen = [bid for bid in bids if rng.uniform() < sharing_density]
            if not chosen:
                chosen = [bids[int(rng.integers(0, m))]]
            sharing[sid] = tuple(sorted(chosen))
        datasets = {bid: [sid for sid in sids if bid in sharing[sid]] for bid in bids}
        if any(not ds for ds in datasets.values()):
            continue
        sources = tuple(
            DataSourceSpec(sid, (float(k),), models[sid], sharing[sid])
            for k, sid in enumerate(sids))
        aggregators = tuple(
            AggregatorSpec(bid, OLS, point_mass((float(rng.uniform(-1, n)),)),
                           zeta={j: float(rng.uniform(0, zeta_max))
                                 for j in bids if j != bid})
            for bid in bids)
        beta = {(sid, bid): float(rng.uniform(0.5, 2.0))
                for sid in sids for bid in sharing[sid]}
        xi = {bid: {(i, l): 1.0 if i == l else float(rng.uniform(0, coupling))
                    for i in datasets[bid] for l in datasets[bid]}
              for bid in bids}
        scenario = MarketScenario(sources, aggregators, GroundTruth((1.0,), 0.0),
                                  mode="direct", direct_beta=beta, direct_xi=xi)
        if bounded:
            _, gamma_total = derive_gamma(scenario, pair_array(scenario, beta))
            capped = []
            for k, sid in enumerate(sids):
                ratio = cap_ratio if cap_ratio is not None else rng.uniform(1.05, 3.0)
                a_upper = gamma_total[k] * ratio
                if a_upper <= incentive_bounds(models[sid]).a_lower:
                    break
                e_max = effort_response(models[sid], a_upper)
                if e_max <= 0:
                    break
                bounded_model = EffortVarianceModel(
                    models[sid].family, EffortSet("bounded", e_max=e_max))
                capped.append(DataSourceSpec(sid, (float(k),), bounded_model,
                                             sharing[sid]))
            if len(capped) != n:
                continue
            scenario = MarketScenario(tuple(capped), aggregators,
                                      scenario.ground_truth, mode="direct",
                                      direct_beta=beta, direct_xi=xi)
        if validate_scenario(scenario).ok:
            return scenario
    raise AssertionError("random direct scenario generation exhausted retries")


def make_coupled_direct(n, m, offdiag, beta=lambda i, b: 1.0, sells=lambda i, b: True,
                        model=exponential_model(1.0, 0.5)):
    """n sources and m aggregators in direct mode, each with effort model
    `model` (minimum incentive 1 by default): source i sells to b when
    sells(i, b), every aggregator's xi(i, l) is offdiag(i, l) off the
    diagonal and beta[(s, b)] is beta(i, b), with i, l and b positions in id
    order.  Xi's entry at row (s, b), column (l, j != b) is offdiag(l, s)
    when s and l both sell to b and j; under full sharing a constant c gives
    the radius c (n - 1)(m - 1) and a = beta / (1 - radius) under constant
    beta."""
    sids = [f"s{k + 1:02d}" for k in range(n)]
    bids = [f"b{k + 1:02d}" for k in range(m)]
    sources = tuple(
        DataSourceSpec(sid, (float(i),), model,
                       tuple(bid for b, bid in enumerate(bids) if sells(i, b)))
        for i, sid in enumerate(sids))
    aggregators = tuple(AggregatorSpec(bid, OLS, point_mass((0.5,))) for bid in bids)
    members = [[i for i in range(n) if sells(i, b)] for b in range(m)]
    xi = {bid: {(sids[i], sids[l]): 1.0 if i == l else float(offdiag(i, l))
                for i in members[b] for l in members[b]} for b, bid in enumerate(bids)}
    direct_beta = {(sids[i], bid): float(beta(i, b)) for b, bid in enumerate(bids)
                   for i in members[b]}
    return MarketScenario(sources, aggregators, GroundTruth((1.0,), 0.0),
                          mode="direct", direct_beta=direct_beta, direct_xi=xi)


def make_single_buyer_giant():
    """rho = 0.1 and a single-buyer source, decoupled, with 1e8 times the
    others' demand (81 sources, 3 aggregators, direct mode)."""
    return make_coupled_direct(81, 3, lambda i, l: 0.1 / 158,
                               beta=lambda i, b: 1e8 if i == 80 else 1.0,
                               sells=lambda i, b: i < 80 or b == 0)


def make_disjoint_datasets():
    """Sources at features 0-2 sell only to b1, at 4-6 only to b2 (exponential
    model, sigma0 100, lambda 0.5): xi couples sources within each dataset,
    but no source sells to both aggregators, so Xi = 0."""
    model = exponential_model(100.0, 0.5)
    sources = [DataSourceSpec(f"s{x}", (float(x),), model, (bid,))
               for x, bid in ((0, "b1"), (1, "b1"), (2, "b1"),
                              (4, "b2"), (5, "b2"), (6, "b2"))]
    aggregators = [AggregatorSpec(bid, OLS, QueryDistribution(
                       (((centre - 0.5,), 0.5), ((centre + 0.5,), 0.5))))
                   for bid, centre in (("b1", 1.0), ("b2", 5.0))]
    return MarketScenario(sources, aggregators, GroundTruth((0.5,), 1.0))


def by_pair(scenario, values):
    """An array over scenario.sharing_pairs() as a dict keyed by pair."""
    return dict(zip(scenario.sharing_pairs(), np.asarray(values).tolist()))


def pair_array(scenario, table):
    """A dict keyed by pair as an array over scenario.sharing_pairs()."""
    return np.array([table[pair] for pair in scenario.sharing_pairs()])


def dense_xi(params):
    """The xi blocks of derived parameters scattered into one dense array
    xi[b, i, l] (aggregators x sources x sources, id order): the paper's
    xi_b(i, l), 1 on each dataset's diagonal and 0 unless both sources sell
    to b."""
    membership = params.scenario.membership
    n, m = membership.shape
    xi = np.zeros((m, n, n))
    for b, block in enumerate(params.xi):
        members = np.flatnonzero(membership[:, b])
        xi[b][np.ix_(members, members)] = block
        xi[b, members, members] = 1.0
    return xi


def lu_answer(params, alpha=1.0):
    """a = alpha Xi a + gamma by one dense LU of I - alpha Xi: the oracle
    the Krylov solve is checked against."""
    return np.linalg.solve(np.eye(len(params.gamma)) - alpha * params.coupling.toarray(),
                           params.gamma)


def count_products(monkeypatch):
    """A list that gains an entry at every CouplingOperator product."""
    calls = []
    matmul = CouplingOperator.__matmul__

    def counted(self, a):
        calls.append(1)
        return matmul(self, a)

    monkeypatch.setattr(CouplingOperator, "__matmul__", counted)
    return calls


def count_assemblies(monkeypatch):
    """A list that gains the shape of every dense Xi assembled from an operator."""
    calls = []
    toarray = CouplingOperator.toarray

    def counted(self):
        calls.append(self.shape)
        return toarray(self)

    monkeypatch.setattr(CouplingOperator, "toarray", counted)
    return calls


def xi_tables(params):
    """The xi of derived parameters as id-keyed tables, the form direct-mode
    input takes: {b: {(i, l): xi_b(i, l)}} over b's dataset."""
    scenario = params.scenario
    position = {sid: k for k, sid in enumerate(scenario.source_ids)}
    xi = dense_xi(params)
    return {bid: {(i, l): float(xi[b, position[i], position[l]])
                  for i in scenario.dataset(bid) for l in scenario.dataset(bid)}
            for b, bid in enumerate(scenario.aggregator_ids)}


def _nested(table):
    """A pair-keyed table as one object per source, ids sorted."""
    out = {}
    for (sid, bid), value in sorted(table.items()):
        out.setdefault(sid, {})[bid] = value
    return out


def contract_floors(params, result):
    """({pair: floor}, {source: floors' sum plus effort}) at a solved
    result's weights and efforts: the floors by payment_floors, and the sum
    that polytope_membership asks each source's constant terms to reach."""
    efforts = np.array([result.efforts[sid] for sid in params.scenario.source_ids])
    sigmas = params.effort_map.sigma(efforts)
    a_vec = np.array([result.a.a[pair] for pair in params.pairs])
    floors = payment_floors(params, a_vec, sigmas * sigmas)
    totals = np.bincount(params.pair_source, weights=floors) + efforts
    return (dict(zip(params.pairs, floors.tolist())),
            dict(zip(params.scenario.source_ids, totals.tolist())))


def reference_result_json(result):
    """The result document as json.dumps(..., indent=2) lays it out: the
    reference the writer's bytes are checked against."""
    d = result.diagnostics
    doc = {"schema_version": 2, "status": result.status,
           "diagnostics": {"spectral_radius": d.spectral_radius, "iterations": d.iterations,
                           "max_residual": d.max_residual, "marginal": d.marginal}}
    if result.solved:
        doc["a"] = _nested(result.a.a)
        doc["canonical_c"] = _nested(result.canonical_c)
        doc["efforts"] = dict(sorted(result.efforts.items()))
    return json.dumps(doc, indent=2) + "\n"


def reference_welfare_json(report):
    """The welfare document as json.dumps(..., indent=2) lays it out."""
    return json.dumps({
        "equilibrium_efforts": dict(sorted(report.equilibrium_efforts.items())),
        "optimal_efforts": dict(sorted(report.optimal_efforts.items())),
        "cost_at_equilibrium": report.cost_at_equilibrium,
        "cost_at_optimum": report.cost_at_optimum,
        "poa": report.poa,
        "efficient_possible": report.efficient_possible,
        "offdiagonal_xi_max": report.offdiagonal_xi_max,
    }, indent=2) + "\n"


@pytest.fixture
def symmetric_direct():
    return make_symmetric_direct()


@pytest.fixture
def line_two_aggregators():
    return make_line_scenario(n_aggregators=2, zeta=0.2)
