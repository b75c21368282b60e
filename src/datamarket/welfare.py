"""Social cost, the efficient effort profile, and the price of anarchy.

Payments are lossless transfers between aggregators and sources, so the
ex-ante social cost reduces to total demand-weighted variance plus total
effort:

    L(e) = sum_s gamma_total_s * sigma_s^2(e_s) + sum_s e_s.

It is strictly convex with a unique minimizer: per source, the efficient
effort solves the same first-order condition as the contract-induced effort
map, evaluated at the total demand instead of the (weakly larger)
equilibrium quality weights.  With positive demand, a = gamma + Xi a equals
gamma exactly when Xi = 0, so equilibria are efficient exactly then (a single
aggregator or disjoint datasets, whatever the off-diagonal xi); any positive
entry of Xi forces over-provision and a price of anarchy above 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScenarioValidationError
from .equilibrium import EquilibriumResult, _efforts_and_variances, _vector, result_arrays
from .market import MODE_DIRECT, ESTIMATOR_ZERO_TOL, DerivedParameters


@dataclass(frozen=True)
class WelfareReport:
    equilibrium_efforts: dict[str, float]
    optimal_efforts: dict[str, float]
    cost_at_equilibrium: float
    cost_at_optimum: float
    poa: float
    efficient_possible: bool
    offdiagonal_xi_max: float


def social_cost(efforts: dict[str, float], params: DerivedParameters) -> float:
    """Ex-ante social cost of an effort profile (payments excluded).  A table
    not keyed by the scenario's source ids raises ParseError."""
    sids = params.scenario.source_ids
    e = _vector(efforts, sids, "efforts")
    for sid, effort in zip(sids, e.tolist()):
        if not params.effort_model(sid).effort_set.contains(effort):
            raise DomainError(f"effort {effort} of source {sid} outside its feasible set")
    sigma = params.effort_map.sigma(e)
    return float(np.sum(params.gamma_total * sigma * sigma + e))


def optimal_efforts(params: DerivedParameters) -> dict[str, float]:
    """The unique social-cost minimizer.

    Per source this is the effort induced by its total demand; with bounded
    effort sets the convex objective's minimizer is the same value projected
    onto the feasible interval (demand at or beyond the saturation incentive
    pins the optimum at the effort cap)."""
    sids = params.scenario.source_ids
    below = np.flatnonzero(params.gamma_total < params.a_lower)
    if below.size:
        k = int(below[0])
        raise ScenarioValidationError(
            f"total demand {params.gamma_total[k]} of source {sids[k]} is below the "
            f"minimum incentive {params.a_lower[k]}; the efficient effort would be negative")
    efforts, _ = _efforts_and_variances(params, params.gamma_total)
    return dict(zip(sids, efforts.tolist()))


def efficiency_predicate(params: DerivedParameters) -> bool:
    """True iff the coupling matrix Xi is zero, judged by its largest entry
    (CouplingOperator.largest_entry of params.coupling).

    Direct-mode tables are inputs, so the test is exact; estimator-derived
    couplings are computed values and use a zero threshold of 1e-14."""
    threshold = 0.0 if params.mode == MODE_DIRECT else ESTIMATOR_ZERO_TOL
    return bool(params.coupling.largest_entry() <= threshold)


def price_of_anarchy(result: EquilibriumResult, params: DerivedParameters) -> WelfareReport:
    """Equilibrium social cost over the optimal social cost (>= 1).  A result
    whose tables are not keyed by this scenario's pairs and sources raises
    ParseError."""
    if not result.solved or result.efforts is None:
        raise DomainError("price of anarchy requires a solved equilibrium")
    result_arrays(result, params.scenario)  # a result of another market raises ParseError
    optimum = optimal_efforts(params)
    cost_opt = social_cost(optimum, params)
    cost_eq = social_cost(result.efforts, params)
    if cost_opt <= 0:
        # impossible under validation (positive demand, positive variance)
        raise DomainError(f"optimal social cost {cost_opt} is not positive")
    return WelfareReport(
        equilibrium_efforts=dict(result.efforts),
        optimal_efforts=optimum,
        cost_at_equilibrium=cost_eq,
        cost_at_optimum=cost_opt,
        poa=cost_eq / cost_opt,
        efficient_possible=efficiency_predicate(params),
        offdiagonal_xi_max=params.offdiagonal_xi_max())
