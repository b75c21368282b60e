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
    response-linear weights of the feature layout and the contract at the
    solved equilibrium (pairs in sharing-pair order).  A result whose tables
    are not keyed by this scenario's pairs and sources raises ParseError; a
    round with a non-finite response, payment, estimate or loss raises
    DomainError naming the first such round of the block."""
    if scenario.mode != MODE_ESTIMATOR:
        raise DomainError("round simulation needs estimator-derived scenarios "
                          "(direct mode has no regression geometry)")
    a, _, c, efforts, _, _ = result_arrays(result, scenario)
    sids, bids = scenario.source_ids, scenario.aggregator_ids
    pairs = scenario.sharing_pairs()
    features = np.array([scenario.sources_by_id[sid].feature for sid in sids], dtype=float)
    membership = scenario.membership
    members = {bid: np.flatnonzero(membership[:, b]) for b, bid in enumerate(bids)}
    _, pair_aggregator = np.nonzero(membership)
    rows = {bid: np.flatnonzero(pair_aggregator == b) for b, bid in enumerate(bids)}
    queries = {bid: scenario.aggregators_by_id[bid].query_dist for bid in bids}
    loo = {bid: leave_one_out_weights(features[members[bid]], aggregator=bid,
                                      sources=np.array(sids)[members[bid]])
           for bid in bids}
    # fit[(b, j)]: j's fit evaluated at b's query atoms, for b itself and its
    # rivals; each dataset j is fitted once, at the atoms of every b reading it
    fit = {}
    for other in bids:
        readers = [bid for bid in bids if bid == other
                   or scenario.aggregators_by_id[bid].zeta.get(other, 0.0) != 0.0]
        atoms = [queries[bid].points() for bid in readers]
        weights = prediction_weights(features[members[other]], np.vstack(atoms))
        ends = np.cumsum([len(points) for points in atoms])[:-1]
        fit.update(((bid, other), columns.T) for bid, columns
                   in zip(readers, np.split(weights, ends, axis=1)))
    probs = {bid: queries[bid].weights() for bid in bids}
    truth_at_atoms = {bid: np.array([scenario.ground_truth(p) for p in q.points()])
                      for bid, q in queries.items()}
    truth_at_sources = np.array([scenario.ground_truth(point) for point in features])
    sigma = EffortMap([scenario.sources_by_id[sid].effort_model for sid in sids]).sigma(efforts)

    def atom_error(bid: str, fitted: np.ndarray) -> np.ndarray:
        # one dot per round, probabilities first, as a round played alone
        return (probs[bid] @ ((fitted - truth_at_atoms[bid]) ** 2)[:, :, None])[:, 0]

    def responses(y: np.ndarray, bid: str) -> np.ndarray:
        # np.take's copy is C-contiguous; y[:, members] is strided, and
        # OpenBLAS's strided gemv moves results by an ulp
        return np.take(y, members[bid], axis=1)

    def settle(bid: str, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """(payments over b's pairs, estimates at b's atoms, b's loss) of
        each round of block y."""
        agg = scenario.aggregators_by_id[bid]
        own = responses(y, bid)
        fitted = _per_round(fit[(bid, bid)], own)
        loss = atom_error(bid, fitted)
        for other, weight in agg.zeta.items():
            if weight != 0.0:
                loss -= weight * atom_error(bid, _per_round(fit[(bid, other)],
                                                            responses(y, other)))
        # in place, so that a block holds at most two (rounds x k) arrays here:
        # `own` becomes the gap to the leave-one-out prediction, then
        # a * gap * gap (one product commuted), then the payment
        own -= _per_round(loo[bid], own)
        own *= a[rows[bid]] * own
        paid = np.subtract(c[rows[bid]], own, out=own)
        # a running sum adds in pair order, as Python's sum over one round
        # does; a sum over the axis may add pairwise
        loss += agg.payment_scale * paid.cumsum(axis=1)[:, -1]
        return paid, fitted, loss

    def play(seed: int, indices: Sequence[int]) -> Iterator[MarketRound]:
        y = np.empty((len(indices), len(sids)))
        payments = np.empty((len(indices), len(pairs)))
        estimates, losses = {}, np.empty((len(indices), len(bids)))
        with np.errstate(over="ignore", invalid="ignore"):  # checked per round below
            for r, index in enumerate(indices):
                y[r] = truth_at_sources + sigma * trial_stream(seed, index).normal(size=len(sids))
            for b, bid in enumerate(bids):
                payments[:, rows[bid]], estimates[bid], losses[:, b] = settle(bid, y)
        finite = np.logical_and.reduce([np.isfinite(values).all(axis=1) for values
                                        in (y, payments, losses, *estimates.values())])
        if not finite.all():
            raise DomainError(f"round {indices[int(np.argmin(finite))]} (seed {seed}) has a "
                              "non-finite response, payment, estimate or loss")
        for r, index in enumerate(indices):
            yield MarketRound(seed=seed, index=index,
                              responses=dict(zip(sids, y[r].tolist())),
                              payments=dict(zip(pairs, payments[r].tolist())),
                              estimates={bid: tuple(fitted[r].tolist())
                                         for bid, fitted in estimates.items()},
                              losses=dict(zip(bids, losses[r].tolist())))

    return play


def simulate_round(scenario: MarketScenario, result: EquilibriumResult,
                   seed: int, *, index: int = 0) -> MarketRound:
    """Play a single market round at the solved equilibrium."""
    if not result.solved:
        raise DomainError("round simulation requires a solved equilibrium")
    return next(_round_player(scenario, result)(seed, (index,)))


def iter_rounds(scenario: MarketScenario, result: EquilibriumResult,
                n_rounds: int, seed: int) -> Iterator[MarketRound]:
    """Stream n_rounds reproducible rounds (round r uses substream r), played
    in blocks of at most ROUND_BLOCK."""
    if not result.solved:
        raise DomainError("round simulation requires a solved equilibrium")
    if n_rounds < 1:
        raise DomainError("n_rounds must be at least 1")
    play = _round_player(scenario, result)
    for start in range(0, n_rounds, ROUND_BLOCK):
        yield from play(seed, range(start, min(start + ROUND_BLOCK, n_rounds)))


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
