"""Realized market rounds.

One round draws each source's noise at its equilibrium variance, forms the
reported responses, and settles every contract exactly as written: constant
term minus quality weight times the squared gap between the report and the
aggregator's leave-one-out prediction.  Aggregators' realized estimates and
losses are evaluated at their query atoms.

Rounds are reproducible: round index r of master seed S draws from the
substream SeedSequence(entropy=S, spawn_key=(r,)), so batch results are
independent of iteration or parallel schedule.

Rounds are played in blocks of at most ROUND_BLOCK, one stacked product per
aggregator and block, and every number of a round is bit for bit that of the
round played alone.  So the block size never shows in any output.  Four
forms of the same arithmetic round differently and are avoided:

- one gemm over the block (`L @ Y`): each round takes its own gemv, as
  `(L @ Y[:, :, None])[:, :, 0]` does;
- a strided block of responses (`y[:, members]`): OpenBLAS's strided gemv
  moves results by an ulp, so each aggregator reads a contiguous copy;
- the query-atom error as `probs @ E`, a gemv: a round alone takes a dot;
- the loss's payment total as `.sum(axis=1)`, which may add pairwise: a
  running sum adds in pair order, as Python's sum over one round does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .equilibrium import EquilibriumResult, IdTable
from .errors import DomainError
from .estimators import leave_one_out_weights, prediction_weights, trial_stream
from .market import MODE_ESTIMATOR, MarketScenario


@dataclass(frozen=True)
class MarketRound:
    seed: int
    index: int
    responses: IdTable  # per source, a read-only view of the round's row of its block
    payments: IdTable  # per pair, likewise
    estimates: dict[str, tuple[float, ...]]  # per aggregator, at its query atoms
    losses: IdTable  # per aggregator, likewise


#: Rounds played per block: enough to spread numpy's per-call cost thin, few
#: enough that a block on a 3000-pair market holds under 10 MB.
ROUND_BLOCK = 256


def _per_round(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ row for each row of `rows` (R x k), as R gemv calls: a gemm
    over the block would round differently from a round played alone."""
    return (matrix @ rows[:, :, None])[:, :, 0]


def _round_player(scenario: MarketScenario, result: EquilibriumResult
                  ) -> Callable[[int, Sequence[int]], Iterator[MarketRound]]:
    """play(seed, indices) -> the MarketRounds of those indices, played as
    one block, with everything a round reads computed once: the
    response-linear weights (one fit per distinct dataset) and the contract
    at the solved equilibrium (pairs in sharing-pair order).  An unsolved result
    raises DomainError, one not keyed by this scenario's pairs and sources
    ParseError; a round with a non-finite response, payment, estimate or
    loss raises DomainError naming the first such round of the block."""
    if not result.solved:
        raise DomainError("round simulation requires a solved equilibrium")
    if scenario.mode != MODE_ESTIMATOR:
        raise DomainError("round simulation needs estimator-derived scenarios "
                          "(direct mode has no regression geometry)")
    sids, bids, aggregators = scenario.source_ids, scenario.aggregator_ids, scenario.aggregators
    pairs = scenario.sharing_pairs()
    a, _, c, efforts = result.arrays(pairs, sids)
    features, members, rows = scenario.features, scenario.members, scenario.aggregator_pairs
    loo = leave_one_out_weights(features, members, aggregators=bids, sources=sids)
    rivals = [{bids.index(other): weight for other, weight in agg.zeta.items() if weight != 0.0}
              for agg in aggregators]
    # fit[(b, j)]: j's fit evaluated at b's query atoms, for b itself and its
    # rivals; each dataset j is fitted once, at the atoms of every b reading it
    fit = {}
    for j in range(len(bids)):
        readers = [b for b in range(len(bids)) if b == j or j in rivals[b]]
        atoms = [aggregators[b].query_dist.points() for b in readers]
        weights = prediction_weights(features[members[j]], np.vstack(atoms))
        ends = np.cumsum([len(points) for points in atoms])[:-1]
        fit.update(((b, j), columns.T) for b, columns
                   in zip(readers, np.split(weights, ends, axis=1)))
    probs = [agg.query_dist.weights() for agg in aggregators]
    with np.errstate(over="ignore", invalid="ignore"):  # checked per round below
        truth_at_atoms = [np.array([scenario.ground_truth(p) for p in agg.query_dist.points()])
                          for agg in aggregators]
        truth_at_sources = np.array([scenario.ground_truth(point) for point in features])
    sigma = scenario.effort_map.sigma(efforts)

    def atom_error(b: int, fitted: np.ndarray) -> np.ndarray:
        # one dot per round, probabilities first, as a round played alone
        return (probs[b] @ ((fitted - truth_at_atoms[b]) ** 2)[:, :, None])[:, 0]

    def responses(y: np.ndarray, j: int) -> np.ndarray:
        # np.take's copy is C-contiguous; y[:, members] is strided, and
        # OpenBLAS's strided gemv moves results by an ulp
        return np.take(y, members[j], axis=1)

    def settle(b: int, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """(payments over b's pairs, estimates at b's atoms, b's loss) of
        each round of block y."""
        own = responses(y, b)
        fitted = _per_round(fit[(b, b)], own)
        loss = atom_error(b, fitted)
        for j, weight in rivals[b].items():
            loss -= weight * atom_error(b, _per_round(fit[(b, j)], responses(y, j)))
        # in place, so that a block holds at most two (rounds x k) arrays here:
        # `own` becomes the gap to the leave-one-out prediction, then
        # a * gap * gap (one product commuted), then the payment
        own -= _per_round(loo[b], own)
        own *= a[rows[b]] * own
        paid = np.subtract(c[rows[b]], own, out=own)
        # a running sum adds in pair order, as Python's sum over one round
        # does; a sum over the axis may add pairwise
        loss += aggregators[b].payment_scale * paid.cumsum(axis=1)[:, -1]
        return paid, fitted, loss

    def play(seed: int, indices: Sequence[int]) -> Iterator[MarketRound]:
        y = np.empty((len(indices), len(sids)))
        payments = np.empty((len(indices), len(pairs)))
        estimates, losses = {}, np.empty((len(indices), len(bids)))
        with np.errstate(over="ignore", invalid="ignore"):  # checked per round below
            for r, index in enumerate(indices):
                y[r] = truth_at_sources + sigma * trial_stream(seed, index).normal(size=len(sids))
            for b, bid in enumerate(bids):
                payments[:, rows[b]], estimates[bid], losses[:, b] = settle(b, y)
        finite = np.logical_and.reduce([np.isfinite(values).all(axis=1) for values
                                        in (y, payments, losses, *estimates.values())])
        if not finite.all():
            raise DomainError(f"round {indices[int(np.argmin(finite))]} (seed {seed}) has a "
                              "non-finite response, payment, estimate or loss")
        for r, index in enumerate(indices):
            yield MarketRound(seed=seed, index=index, responses=IdTable(sids, y[r]),
                              payments=IdTable(pairs, payments[r]), losses=IdTable(bids, losses[r]),
                              estimates={bid: tuple(fitted[r].tolist())
                                         for bid, fitted in estimates.items()})

    return play


def simulate_round(scenario: MarketScenario, result: EquilibriumResult,
                   seed: int, *, index: int = 0) -> MarketRound:
    """Play a single market round at the solved equilibrium."""
    return next(_round_player(scenario, result)(seed, (index,)))


def iter_rounds(scenario: MarketScenario, result: EquilibriumResult,
                n_rounds: int, seed: int) -> Iterator[MarketRound]:
    """Stream n_rounds reproducible rounds (round r uses substream r), played in
    blocks of at most ROUND_BLOCK.  Every guard runs at the call."""
    if n_rounds < 1:
        raise DomainError("n_rounds must be at least 1")
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    play = _round_player(scenario, result)
    return (round_ for start in range(0, n_rounds, ROUND_BLOCK)
            for round_ in play(seed, range(start, min(start + ROUND_BLOCK, n_rounds))))


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
    owner = scenario.pair_source  # source of each payment of a round
    # Welford's update: no cancellation when the mean dwarfs the spread
    mean = np.zeros(len(scenario.source_ids))
    m2 = np.zeros(len(scenario.source_ids))
    for count, round_ in enumerate(iter_rounds(scenario, result, n_rounds, seed), 1):
        total = np.bincount(owner, weights=round_.payments.array)
        delta = total - mean
        mean += delta / count
        m2 += delta * (total - mean)
    se = (m2 / (n_rounds - 1) / n_rounds) ** 0.5
    sids = scenario.source_ids
    return PaymentStats(rounds=n_rounds, mean_total=dict(zip(sids, mean.tolist())),
                        se_total=dict(zip(sids, se.tolist())))
