"""Realized market rounds.

One round draws each source's noise at its equilibrium variance, forms the
reported responses, and settles every contract exactly as written: constant
term minus quality weight times the squared gap between the report and the
aggregator's leave-one-out prediction.  Aggregators' realized estimates and
losses are evaluated at their query atoms.

Rounds are reproducible: round index r of master seed S draws from the
substream SeedSequence(entropy=S, spawn_key=(r,)), so batch results are
independent of iteration or parallel schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .equilibrium import EquilibriumResult
from .errors import DomainError
from .estimators import design_matrix, trial_stream
from .market import MODE_ESTIMATOR, MarketScenario


@dataclass(frozen=True)
class MarketRound:
    seed: int
    index: int
    responses: dict[str, float]
    payments: dict[tuple[str, str], float]
    estimates: dict[str, tuple[float, ...]]  # per aggregator, at its query atoms
    losses: dict[str, float]


@dataclass(frozen=True)
class _Geometry:
    """Response-linear weights precomputed from the feature layout."""

    dataset: dict[str, tuple[str, ...]]
    loo_weights: dict[tuple[str, str], np.ndarray]   # over dataset minus the source
    atom_weights: dict[str, np.ndarray]              # (atoms, dataset) of own fit
    cross_weights: dict[tuple[str, str], np.ndarray]  # b's atoms under j's fit
    truth_at_sources: dict[str, float]
    truth_at_atoms: dict[str, np.ndarray]
    atom_probs: dict[str, np.ndarray]


def _prediction_weights(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    X = design_matrix(points)
    A = design_matrix(queries)
    return (X @ np.linalg.solve(X.T @ X, A.T)).T  # (queries, points)


def _build_geometry(scenario: MarketScenario) -> _Geometry:
    if scenario.mode != MODE_ESTIMATOR:
        raise DomainError("round simulation needs estimator-derived scenarios "
                          "(direct mode has no regression geometry)")
    dataset = {bid: scenario.dataset(bid) for bid in scenario.aggregator_ids}
    loo, atom_w, cross = {}, {}, {}
    for bid in scenario.aggregator_ids:
        ds = dataset[bid]
        points = scenario.dataset_points(bid)
        agg = scenario.aggregators_by_id[bid]
        atom_w[bid] = _prediction_weights(points, agg.query_dist.points())
        for sid in ds:
            keep = [k for k, other in enumerate(ds) if other != sid]
            target = np.array([scenario.sources_by_id[sid].feature])
            loo[(sid, bid)] = _prediction_weights(points[keep], target)[0]
        for other in scenario.aggregator_ids:
            if agg.zeta.get(other, 0.0) != 0.0:
                cross[(bid, other)] = _prediction_weights(
                    scenario.dataset_points(other), agg.query_dist.points())
    truth_sources = {sid: scenario.ground_truth(scenario.sources_by_id[sid].feature)
                     for sid in scenario.source_ids}
    truth_atoms = {bid: np.array([scenario.ground_truth(p)
                                  for p in scenario.aggregators_by_id[bid]
                                  .query_dist.points()])
                   for bid in scenario.aggregator_ids}
    probs = {bid: scenario.aggregators_by_id[bid].query_dist.weights()
             for bid in scenario.aggregator_ids}
    return _Geometry(dataset, loo, atom_w, cross, truth_sources, truth_atoms, probs)


def _play_round(scenario: MarketScenario, result: EquilibriumResult,
                geometry: _Geometry, seed: int, index: int) -> MarketRound:
    rng = trial_stream(seed, index)
    sigma = {sid: scenario.sources_by_id[sid].effort_model.sigma(result.efforts[sid])
             for sid in scenario.source_ids}
    noise = rng.normal(size=len(scenario.source_ids))
    responses = {sid: geometry.truth_at_sources[sid] + sigma[sid] * float(eps)
                 for sid, eps in zip(scenario.source_ids, noise)}

    payments: dict[tuple[str, str], float] = {}
    estimates: dict[str, tuple[float, ...]] = {}
    own_error: dict[str, float] = {}
    y_by_agg = {bid: np.array([responses[sid] for sid in geometry.dataset[bid]])
                for bid in scenario.aggregator_ids}
    for bid in scenario.aggregator_ids:
        y = y_by_agg[bid]
        fitted = geometry.atom_weights[bid] @ y
        estimates[bid] = tuple(float(v) for v in fitted)
        own_error[bid] = float(geometry.atom_probs[bid]
                               @ (fitted - geometry.truth_at_atoms[bid]) ** 2)
        for pos, sid in enumerate(geometry.dataset[bid]):
            others = np.delete(y, pos)
            predicted = float(geometry.loo_weights[(sid, bid)] @ others)
            gap = responses[sid] - predicted
            payments[(sid, bid)] = (result.canonical_c[(sid, bid)]
                                    - result.a.a[(sid, bid)] * gap * gap)

    losses: dict[str, float] = {}
    for bid in scenario.aggregator_ids:
        agg = scenario.aggregators_by_id[bid]
        value = own_error[bid]
        for other, weight in agg.zeta.items():
            if weight == 0.0:
                continue
            rival_fit = geometry.cross_weights[(bid, other)] @ y_by_agg[other]
            rival_err = float(geometry.atom_probs[bid]
                              @ (rival_fit - geometry.truth_at_atoms[bid]) ** 2)
            value -= weight * rival_err
        value += agg.payment_scale * sum(payments[(sid, bid)]
                                         for sid in geometry.dataset[bid])
        losses[bid] = value
    return MarketRound(seed=seed, index=index, responses=responses,
                       payments=payments, estimates=estimates, losses=losses)


def simulate_round(scenario: MarketScenario, result: EquilibriumResult,
                   seed: int, *, index: int = 0) -> MarketRound:
    """Play a single market round at the solved equilibrium."""
    if not result.solved:
        raise DomainError("round simulation requires a solved equilibrium")
    return _play_round(scenario, result, _build_geometry(scenario), seed, index)


def iter_rounds(scenario: MarketScenario, result: EquilibriumResult,
                n_rounds: int, seed: int) -> Iterator[MarketRound]:
    """Stream n_rounds reproducible rounds (round r uses substream r)."""
    if not result.solved:
        raise DomainError("round simulation requires a solved equilibrium")
    if n_rounds < 1:
        raise DomainError("n_rounds must be at least 1")
    geometry = _build_geometry(scenario)
    for r in range(n_rounds):
        yield _play_round(scenario, result, geometry, seed, r)


@dataclass(frozen=True)
class PaymentStats:
    """Monte-Carlo means and standard errors of total payments per source."""

    rounds: int
    mean_total: dict[str, float]
    se_total: dict[str, float]


def payment_statistics(scenario: MarketScenario, result: EquilibriumResult,
                       n_rounds: int, seed: int) -> PaymentStats:
    """Streaming mean/SE of each source's total received payment, for checking
    that expected compensation equals effort at the canonical contract."""
    if n_rounds < 2:
        raise DomainError("payment statistics need at least 2 rounds")
    # Welford's update: no cancellation when the mean dwarfs the spread
    mean = {sid: 0.0 for sid in scenario.source_ids}
    m2 = {sid: 0.0 for sid in scenario.source_ids}
    for count, round_ in enumerate(iter_rounds(scenario, result, n_rounds, seed), 1):
        for sid in scenario.source_ids:
            total = sum(round_.payments[(sid, bid)]
                        for bid in scenario.sources_by_id[sid].sharing)
            delta = total - mean[sid]
            mean[sid] += delta / count
            m2[sid] += delta * (total - mean[sid])
    se = {sid: (m2[sid] / (n_rounds - 1) / n_rounds) ** 0.5 for sid in mean}
    return PaymentStats(rounds=n_rounds, mean_total=mean, se_total=se)
