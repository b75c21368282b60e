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
from typing import Callable, Iterator

import numpy as np

from .effort import EffortMap
from .equilibrium import EquilibriumResult, result_arrays
from .errors import DomainError
from .estimators import leave_one_out_weights, prediction_weights, trial_stream
from .market import MODE_ESTIMATOR, MarketScenario


@dataclass(frozen=True)
class MarketRound:
    seed: int
    index: int
    responses: dict[str, float]
    payments: dict[tuple[str, str], float]
    estimates: dict[str, tuple[float, ...]]  # per aggregator, at its query atoms
    losses: dict[str, float]


def _round_player(scenario: MarketScenario, result: EquilibriumResult
                  ) -> Callable[[int, int], MarketRound]:
    """play(seed, index) -> MarketRound, with everything a round reads
    computed once: the response-linear weights of the feature layout and the
    contract at the solved equilibrium (pairs in sharing-pair order).  A
    result whose tables are not keyed by this scenario's pairs and sources
    raises ParseError."""
    if scenario.mode != MODE_ESTIMATOR:
        raise DomainError("round simulation needs estimator-derived scenarios "
                          "(direct mode has no regression geometry)")
    a, _, c, efforts, _, _ = result_arrays(result, scenario)
    sids, bids = scenario.source_ids, scenario.aggregator_ids
    pairs = scenario.sharing_pairs()
    membership = scenario.membership
    members = {bid: np.flatnonzero(membership[:, b]) for b, bid in enumerate(bids)}
    _, pair_aggregator = np.nonzero(membership)
    rows = {bid: np.flatnonzero(pair_aggregator == b) for b, bid in enumerate(bids)}
    queries = {bid: scenario.aggregators_by_id[bid].query_dist for bid in bids}
    loo = {bid: leave_one_out_weights(scenario.dataset_points(bid), aggregator=bid,
                                      sources=np.array(sids)[members[bid]])
           for bid in bids}
    # fit[(b, j)]: j's fit evaluated at b's query atoms, for b itself and its rivals
    fit = {(bid, other): prediction_weights(scenario.dataset_points(other),
                                            queries[bid].points()).T
           for bid in bids for other in bids
           if other == bid or scenario.aggregators_by_id[bid].zeta.get(other, 0.0) != 0.0}
    probs = {bid: queries[bid].weights() for bid in bids}
    truth_at_atoms = {bid: np.array([scenario.ground_truth(p) for p in q.points()])
                      for bid, q in queries.items()}
    truth_at_sources = np.array([scenario.ground_truth(scenario.sources_by_id[sid].feature)
                                 for sid in sids])
    sigma = EffortMap([scenario.sources_by_id[sid].effort_model for sid in sids]).sigma(efforts)

    def atom_error(bid: str, fitted: np.ndarray) -> float:
        return float(probs[bid] @ (fitted - truth_at_atoms[bid]) ** 2)

    def play(seed: int, index: int) -> MarketRound:
        y = truth_at_sources + sigma * trial_stream(seed, index).normal(size=len(sids))
        payments = np.empty(len(pairs))
        for bid in bids:
            y_b = y[members[bid]]
            gap = y_b - loo[bid] @ y_b
            payments[rows[bid]] = c[rows[bid]] - a[rows[bid]] * gap * gap
        estimates, losses = {}, {}
        for bid in bids:
            agg = scenario.aggregators_by_id[bid]
            fitted = fit[(bid, bid)] @ y[members[bid]]
            estimates[bid] = tuple(fitted.tolist())
            value = atom_error(bid, fitted)
            for other, weight in agg.zeta.items():
                if weight != 0.0:
                    value -= weight * atom_error(bid, fit[(bid, other)] @ y[members[other]])
            losses[bid] = value + agg.payment_scale * sum(payments[rows[bid]].tolist())
        return MarketRound(seed=seed, index=index, responses=dict(zip(sids, y.tolist())),
                           payments=dict(zip(pairs, payments.tolist())),
                           estimates=estimates, losses=losses)

    return play


def simulate_round(scenario: MarketScenario, result: EquilibriumResult,
                   seed: int, *, index: int = 0) -> MarketRound:
    """Play a single market round at the solved equilibrium."""
    if not result.solved:
        raise DomainError("round simulation requires a solved equilibrium")
    return _round_player(scenario, result)(seed, index)


def iter_rounds(scenario: MarketScenario, result: EquilibriumResult,
                n_rounds: int, seed: int) -> Iterator[MarketRound]:
    """Stream n_rounds reproducible rounds (round r uses substream r)."""
    if not result.solved:
        raise DomainError("round simulation requires a solved equilibrium")
    if n_rounds < 1:
        raise DomainError("n_rounds must be at least 1")
    play = _round_player(scenario, result)
    for r in range(n_rounds):
        yield play(seed, r)


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
    owner = np.nonzero(scenario.membership)[0]  # source of each payment of a round
    # Welford's update: no cancellation when the mean dwarfs the spread
    mean = np.zeros(len(scenario.source_ids))
    m2 = np.zeros(len(scenario.source_ids))
    for count, round_ in enumerate(iter_rounds(scenario, result, n_rounds, seed), 1):
        total = np.bincount(owner, weights=list(round_.payments.values()))
        delta = total - mean
        mean += delta / count
        m2 += delta * (total - mean)
    se = (m2 / (n_rounds - 1) / n_rounds) ** 0.5
    sids = scenario.source_ids
    return PaymentStats(rounds=n_rounds, mean_total=dict(zip(sids, mean.tolist())),
                        se_total=dict(zip(sids, se.tolist())))
