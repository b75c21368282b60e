"""Market scenarios and derived contract parameters.

A scenario holds the primitives: data sources (feature point, effort model,
which aggregators they sell to) and aggregators (estimator, query
distribution, competition weights, payment scale).  From these we derive the
contract parameters that drive everything downstream:

  beta[s, b]   relevance of source s's data to aggregator b's estimate,
  xi[b, i, l]  coupling: weight of source l's variance inside the payment
               aggregator b owes source s=i (leave-one-out geometry, dense),
  gamma[s, b]  b's net demand for quality from s after subtracting the
               competition-weighted benefit to b's rivals,
  Xi           the square coupling matrix of the equilibrium system
               a = Xi a + gamma over (source, aggregator) pairs.

Every table is a numpy array: beta and gamma over the sharing pairs (in
`sharing_pairs()` order), per-source totals over `source_ids`, xi in id order.

Parameters can instead be entered directly (``direct`` mode) so analytic
fixtures that no small regression design realizes stay testable in closed
form.  All derivations are pure functions over immutable scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .effort import EffortMap, EffortVarianceModel
from .errors import DomainError, IllDefinedEstimatorError, ScenarioValidationError
from .estimators import (
    EstimatorSpec,
    FeaturePoint,
    QueryDistribution,
    as_feature_point,
    leave_one_out_weights,
    ols_coefficients,
)

MODE_ESTIMATOR = "estimator_derived"
MODE_DIRECT = "direct"

#: Off-diagonal coupling below this counts as zero in estimator mode (the
#: values are computed, so exact-zero tests would be meaningless).
ESTIMATOR_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class DataSourceSpec:
    id: str
    feature: FeaturePoint
    effort_model: EffortVarianceModel
    sharing: tuple[str, ...]  # aggregator ids this source sells to, sorted

    def __post_init__(self):
        object.__setattr__(self, "feature", as_feature_point(self.feature))
        if not self.sharing:
            raise DomainError(f"source {self.id!r} has an empty sharing set")
        object.__setattr__(self, "sharing", tuple(sorted(set(self.sharing))))


@dataclass(frozen=True)
class AggregatorSpec:
    id: str
    estimator: EstimatorSpec
    query_dist: QueryDistribution
    zeta: Mapping[str, float] = field(default_factory=dict)  # rival id -> [0, 1]
    payment_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "zeta", dict(self.zeta))
        if self.id in self.zeta:
            raise DomainError(f"aggregator {self.id!r} declares a self-competition weight")
        for j, z in self.zeta.items():
            if not (0.0 <= z <= 1.0):
                raise DomainError(f"zeta[{j!r}] of aggregator {self.id!r} is {z}, "
                                  "outside [0, 1]")
        if not (self.payment_scale > 0 and math.isfinite(self.payment_scale)):
            raise DomainError(f"payment scale of {self.id!r} must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """Linear ground truth f(x) = coefficients . x + intercept (kept linear so
    OLS is unbiased and the sampling model is exactly realizable)."""

    coefficients: tuple[float, ...]
    intercept: float

    def __call__(self, point) -> float:
        return float(np.dot(self.coefficients, np.asarray(point, dtype=float))
                     + self.intercept)


@dataclass(frozen=True, eq=False)
class MarketScenario:
    sources: tuple[DataSourceSpec, ...]
    aggregators: tuple[AggregatorSpec, ...]
    ground_truth: GroundTruth
    mode: str = MODE_ESTIMATOR
    direct_beta: Mapping[tuple[str, str], float] | None = None
    direct_xi: Mapping[str, Mapping[tuple[str, str], float]] | None = None
    # Lookups filled at construction, not cached on first read: writing to an
    # instance's __dict__ later slows every attribute read on it (CPython 3.11).
    source_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    aggregator_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    sources_by_id: dict[str, DataSourceSpec] = field(init=False, repr=False, compare=False)
    aggregators_by_id: dict[str, AggregatorSpec] = field(init=False, repr=False,
                                                        compare=False)
    _datasets: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    #: n x m booleans, [s, b] true when source s sells to aggregator b (id
    #: order); its nonzero entries, row by row, are the sharing pairs in order.
    membership: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "aggregators", tuple(self.aggregators))
        if not self.sources or not self.aggregators:
            raise DomainError("a scenario needs at least one source and one aggregator")
        sids = [s.id for s in self.sources]
        bids = [b.id for b in self.aggregators]
        if len(set(sids)) != len(sids):
            raise DomainError("duplicate source ids")
        if len(set(bids)) != len(bids):
            raise DomainError("duplicate aggregator ids")
        if set(sids) & set(bids):
            raise DomainError("source and aggregator ids must be disjoint")
        object.__setattr__(self, "source_ids", tuple(sorted(sids)))
        object.__setattr__(self, "aggregator_ids", tuple(sorted(bids)))
        object.__setattr__(self, "sources_by_id", {s.id: s for s in self.sources})
        object.__setattr__(self, "aggregators_by_id", {b.id: b for b in self.aggregators})
        dims = {len(s.feature) for s in self.sources}
        if len(dims) != 1:
            raise DomainError(f"sources mix feature dimensions {sorted(dims)}")
        d = dims.pop()
        if len(self.ground_truth.coefficients) != d:
            raise DomainError(f"ground truth has {len(self.ground_truth.coefficients)} "
                              f"coefficients for dimension {d}")
        known = set(bids)
        for s in self.sources:
            unknown = set(s.sharing) - known
            if unknown:
                raise DomainError(f"source {s.id!r} shares with unknown "
                                  f"aggregators {sorted(unknown)}")
        membership = np.array([[bid in self.sources_by_id[sid].sharing
                                for bid in self.aggregator_ids] for sid in self.source_ids])
        object.__setattr__(self, "membership", membership)
        object.__setattr__(self, "_datasets", {
            bid: tuple(self.source_ids[i] for i in np.flatnonzero(membership[:, b]).tolist())
            for b, bid in enumerate(self.aggregator_ids)})
        for b in self.aggregators:
            unknown = set(b.zeta) - known
            if unknown:
                raise DomainError(f"aggregator {b.id!r} weights unknown "
                                  f"rivals {sorted(unknown)}")
            if b.query_dist.dimension != d:
                raise DomainError(f"aggregator {b.id!r} query dimension "
                                  f"{b.query_dist.dimension} != feature dimension {d}")
        if self.mode not in (MODE_ESTIMATOR, MODE_DIRECT):
            raise DomainError(f"unknown parameter mode {self.mode!r}")
        if self.mode == MODE_DIRECT:
            self._check_direct_tables()
        elif self.direct_beta is not None or self.direct_xi is not None:
            raise DomainError("direct parameter tables given in estimator mode")

    def _check_direct_tables(self):
        if self.direct_beta is None or self.direct_xi is None:
            raise DomainError("direct mode requires beta and xi tables")
        beta = {(s, b): float(v) for (s, b), v in dict(self.direct_beta).items()}
        expected = {(s, b) for s, b in self.sharing_pairs()}
        if set(beta) != expected:
            raise DomainError("direct beta table must cover exactly the sharing pairs")
        if any(not math.isfinite(v) for v in beta.values()):
            raise DomainError("direct beta values must be finite")
        xi = {b: {pair: float(v) for pair, v in table.items()}
              for b, table in dict(self.direct_xi).items()}
        for b in self.aggregator_ids:
            ds = self.dataset(b)
            table = xi.get(b)
            if table is None:
                raise DomainError(f"direct xi table missing aggregator {b!r}")
            expected_pairs = {(i, l) for i in ds for l in ds}
            if set(table) != expected_pairs:
                raise DomainError(f"direct xi table of {b!r} must cover its dataset pairs")
            for (i, l), v in table.items():
                if i == l and v != 1.0:
                    raise DomainError(f"diagonal xi must be 1 (aggregator {b!r}, "
                                      f"source {i!r} has {v})")
                if v < 0 or not math.isfinite(v):
                    raise DomainError(f"xi values must be nonnegative and finite "
                                      f"(aggregator {b!r}, pair {(i, l)})")
        object.__setattr__(self, "direct_beta", beta)
        object.__setattr__(self, "direct_xi", xi)

    @property
    def dimension(self) -> int:
        return len(self.sources[0].feature)

    def dataset(self, aggregator_id: str) -> tuple[str, ...]:
        """Sorted ids of the sources selling to this aggregator."""
        return self._datasets.get(aggregator_id, ())

    def sharing_pairs(self) -> tuple[tuple[str, str], ...]:
        """All (source, aggregator) pairs with an active contract, in the
        fixed lexicographic order used to index the coupling matrix."""
        return tuple((sid, bid)
                     for sid in self.source_ids
                     for bid in self.sources_by_id[sid].sharing)

    def dataset_points(self, aggregator_id: str) -> np.ndarray:
        return np.array([self.sources_by_id[sid].feature
                         for sid in self.dataset(aggregator_id)], dtype=float)


# ---------------------------------------------------------------------------
# Parameter derivation
# ---------------------------------------------------------------------------

def _relevance(features: np.ndarray, membership: np.ndarray, aggregators,
               ) -> np.ndarray:
    """beta over the sharing pairs of `membership`: per aggregator (the
    sequence `aggregators`, in id order), the separability coefficients of its
    dataset (rows of `features`) under its own query distribution.  Needs no
    effort model, so generation calls it before drawing any."""
    pair_source, pair_aggregator = np.nonzero(membership)
    beta = np.empty(len(pair_source))
    for b, agg in enumerate(aggregators):
        rows = np.flatnonzero(pair_aggregator == b)
        beta[rows] = ols_coefficients(features[pair_source[rows]],
                                      agg.query_dist).as_array()
    return beta


def _net_demand(beta: np.ndarray, membership: np.ndarray, aggregators,
                ) -> tuple[np.ndarray, np.ndarray]:
    """(gamma over the sharing pairs, gamma_total over the sources) from beta
    over the same pairs; see derive_gamma.  Each rival sum runs over j in id
    order and each total over b in id order, one addition at a time."""
    pair_source, pair_aggregator = np.nonzero(membership)
    ids = [agg.id for agg in aggregators]
    zeta = np.array([[agg.zeta.get(j, 0.0) for j in ids] for agg in aggregators])
    scale = np.array([agg.payment_scale for agg in aggregators])
    table = np.zeros(membership.shape)
    table[pair_source, pair_aggregator] = beta
    rival_benefit = np.zeros(len(beta))
    for j in range(len(ids)):
        # exact zeros where s does not sell to j (table) or j == b (zeta)
        rival_benefit += zeta[pair_aggregator, j] * table[pair_source, j]
    gamma = (beta - rival_benefit) / scale[pair_aggregator]
    return gamma, np.bincount(pair_source, weights=gamma)


def derive_beta(scenario: MarketScenario) -> np.ndarray:
    """Relevance weights over scenario.sharing_pairs(): per aggregator, the
    separability coefficients of its dataset under its own query
    distribution."""
    if scenario.mode != MODE_ESTIMATOR:
        raise DomainError("derive_beta applies to estimator-derived scenarios; "
                          "direct mode carries its own beta table")
    features = np.array([scenario.sources_by_id[s].feature for s in scenario.source_ids])
    return _relevance(features, scenario.membership,
                      [scenario.aggregators_by_id[b] for b in scenario.aggregator_ids])


def derive_xi(scenario: MarketScenario) -> np.ndarray:
    """Coupling weights xi[b, i, l] (aggregators x sources x sources, id
    order): the weight of source l's variance in b's leave-one-out prediction
    at source i's feature point, 1 when i == l, and 0 unless both sources
    sell to b.  One batched leave-one-out solve per aggregator."""
    if scenario.mode != MODE_ESTIMATOR:
        raise DomainError("derive_xi applies to estimator-derived scenarios; "
                          "direct mode carries its own xi table")
    membership = scenario.membership
    n, m = membership.shape
    features = np.array([scenario.sources_by_id[s].feature for s in scenario.source_ids])
    ids = np.array(scenario.source_ids)
    xi = np.zeros((m, n, n))
    for b, bid in enumerate(scenario.aggregator_ids):
        members = np.flatnonzero(membership[:, b])
        block = leave_one_out_weights(features[members], aggregator=bid,
                                      sources=ids[members]) ** 2
        np.fill_diagonal(block, 1.0)
        xi[b][np.ix_(members, members)] = block
    return xi


def derive_gamma(scenario: MarketScenario, beta: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Net demand gamma[s, b] = (beta[s, b] - sum over rivals j in B_s of
    zeta_j^b * beta[s, j]) / payment_scale_b over scenario.sharing_pairs()
    (beta runs over the same pairs), and its totals over scenario.source_ids."""
    return _net_demand(beta, scenario.membership,
                       [scenario.aggregators_by_id[b] for b in scenario.aggregator_ids])


def assemble_xi_matrix(scenario: MarketScenario, xi: np.ndarray,
                       ) -> tuple[np.ndarray, tuple[tuple[str, str], ...]]:
    """Coupling matrix of the equilibrium system a = Xi a + gamma.

    Rows/columns are the sharing pairs in lexicographic (source, aggregator)
    order.  Entry at row (s, b), column (l, j) is xi[j, l, s] when j != b,
    l != s, and both s and l sell to both j and b; otherwise 0.  The own-
    aggregator (j == b) and own-source (l == s) blocks are identically zero.
    Filled one block per ordered aggregator pair (b, j); xi[j] is zero unless
    s sells to j, so only "l sells to b" needs a test.
    """
    membership = scenario.membership
    pair_source, pair_aggregator = np.nonzero(membership)
    blocks = [np.flatnonzero(pair_aggregator == b) for b in range(membership.shape[1])]
    matrix = np.zeros((len(pair_source), len(pair_source)))
    for b, rows in enumerate(blocks):
        s = pair_source[rows]
        for j, cols in enumerate(blocks):
            if j == b:
                continue
            cols = cols[membership[pair_source[cols], b]]
            l = pair_source[cols]
            matrix[np.ix_(rows, cols)] = xi[j][np.ix_(l, s)].T * (s[:, None] != l)
    return matrix, scenario.sharing_pairs()


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------

def spectral_radius(matrix, *, tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """Spectral radius of a nonnegative square matrix.

    Shift-free power iteration from the all-ones vector, certified each sweep
    by the Collatz-Wielandt interval [min_i (Mx)_i/x_i, max_i (Mx)_i/x_i]
    over the support x_i > 0: the zero set of x = M^t 1 is closed under M's
    out-edges, so M is block-triangular with a nilpotent block there and
    rho(M) is the radius on the support (a zero row of Xi costs nothing).
    Structurally periodic matrices (every two-aggregator market) and some
    reducible ones make that interval oscillate, so on stall the routine
    falls back to the row/column-sum bracket applied to repeatedly squared,
    normalized powers, which converges to the radius for every nonnegative
    matrix.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"spectral radius needs a square matrix, got shape {M.shape}")
    if M.size and (not np.all(np.isfinite(M)) or np.any(M < 0)):
        raise DomainError("spectral radius is defined here for finite nonnegative matrices")
    n = M.shape[0]
    if n == 0 or not M.any():
        return 0.0

    x = np.ones(n)
    best_width = math.inf
    since_improvement = 0
    for _ in range(max_iter):
        y = M @ x
        norm = y.max()
        if norm == 0.0:
            return 0.0  # positive vector annihilated: nilpotent direction only
        support = x > 0
        ratios = y[support] / x[support]
        lo, hi = float(ratios.min()), float(ratios.max())
        width = hi - lo
        if width <= tol * max(1.0, hi):
            return 0.5 * (lo + hi)
        if width < 0.5 * best_width:
            best_width = width
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= 100:
                break  # oscillating interval: periodic or reducible
        x = y / norm
    return _gelfand_radius(M, tol=tol)


def _gelfand_radius(M: np.ndarray, *, tol: float = 1e-10, max_squarings: int = 64) -> float:
    """max row/column-sum bracket along repeated squarings: the norm estimates
    ||M^(2^m)||^(1/2^m) converge to the radius (Gelfand); normalization keeps
    the powers representable."""
    B = M.copy()
    log_acc = 0.0      # sum over levels i of log(scale_i) / 2^i
    estimate = math.inf
    for level in range(max_squarings):
        row = float(np.abs(B).sum(axis=1).max())
        col = float(np.abs(B).sum(axis=0).max())
        scale = min(row, col)
        if scale == 0.0:
            return 0.0
        new_estimate = math.exp(log_acc + math.log(scale) / (2 ** level))
        if abs(new_estimate - estimate) <= tol * max(1.0, new_estimate) and level > 2:
            return new_estimate
        estimate = new_estimate
        B = B / scale
        log_acc += math.log(scale) / (2 ** level)
        B = B @ B
    return estimate


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            lines = ["valid"]
        else:
            lines = [f"invalid ({len(self.violations)} violation(s))"]
            lines += [f"  [{v.code}] {v.subject}: {v.message}" for v in self.violations]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


def _derive_tables(scenario: MarketScenario):
    """(beta, xi): derived in estimator mode; in direct mode copied, the
    id-keyed xi tables converted to the dense array."""
    if scenario.mode == MODE_ESTIMATOR:
        return derive_beta(scenario), derive_xi(scenario)
    position = {sid: k for k, sid in enumerate(scenario.source_ids)}
    xi = np.zeros((len(scenario.aggregator_ids), len(position), len(position)))
    for b, bid in enumerate(scenario.aggregator_ids):
        for (i, l), value in scenario.direct_xi[bid].items():
            xi[b, position[i], position[l]] = value
    return np.array([scenario.direct_beta[p] for p in scenario.sharing_pairs()]), xi


def validate_scenario(scenario: MarketScenario) -> ValidationReport:
    """Well-posedness checks required by the equilibrium theory.

    Returns a structured report; nothing is raised so callers can decide
    whether to proceed, but solvers refuse scenarios whose report is not ok.
    """
    try:
        beta, _ = _derive_tables(scenario)
    except IllDefinedEstimatorError as exc:
        return _validation_report(scenario, ill_defined=str(exc))
    return _validation_report(scenario, derive_gamma(scenario, beta))


def _effort_kind(scenario: MarketScenario) -> str:
    """The sources' one effort-set kind, or "mixed"."""
    kinds = {s.effort_model.effort_set.kind for s in scenario.sources}
    return kinds.pop() if len(kinds) == 1 else "mixed"


def _validation_report(scenario: MarketScenario, demand: tuple | None = None,
                       *, ill_defined: str | None = None) -> ValidationReport:
    """The checks of validate_scenario, given the derived (gamma, gamma_total)
    arrays, or the error that made the estimator ill-defined."""
    violations: list[Violation] = []
    notes: list[str] = []

    if _effort_kind(scenario) == "mixed":
        violations.append(Violation(
            "mixed-effort-kinds", "sources",
            "all effort sets must share one kind (all bounded or all unbounded)"))

    for bid in scenario.aggregator_ids:
        agg = scenario.aggregators_by_id[bid]
        if agg.payment_scale != 1.0:
            notes.append(f"aggregator {bid}: payment scale {agg.payment_scale} "
                         "normalized to 1 (demand rescaled accordingly)")

    if ill_defined is not None:
        violations.append(Violation("ill-defined-estimator", "scenario", ill_defined))
        return ValidationReport(tuple(violations), tuple(notes))

    gamma, gamma_total = demand
    for (sid, bid), value in zip(scenario.sharing_pairs(), gamma.tolist()):
        if value <= 0:
            violations.append(Violation(
                "nonpositive-demand", f"({sid}, {bid})",
                f"net demand {value} must be positive"))

    for sid, total in zip(scenario.source_ids, gamma_total.tolist()):
        model = scenario.sources_by_id[sid].effort_model
        bounds = model.incentive_bounds
        if total < bounds.a_lower:
            violations.append(Violation(
                "demand-below-minimum", sid,
                f"total demand {total} is below the minimum incentive "
                f"{bounds.a_lower}"))
        elif model.effort_set.bounded and total >= bounds.a_upper:
            violations.append(Violation(
                "demand-above-saturation", sid,
                f"total demand {total} is not below the saturation incentive "
                f"{bounds.a_upper}"))
    return ValidationReport(tuple(violations), tuple(notes))


# ---------------------------------------------------------------------------
# Derived bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DerivedParameters:
    """Everything the solvers need, derived once from a scenario.  beta and
    gamma run over `pairs` (pair k is (source_ids[pair_source[k]],
    aggregator_ids[pair_aggregator[k]])); gamma_total, the effort map's
    models, a_lower and a_upper (inf for unbounded effort sets) over
    scenario.source_ids."""

    scenario: MarketScenario
    mode: str
    beta: np.ndarray
    xi: np.ndarray          # [b, i, l], aggregators x sources x sources, id order
    gamma: np.ndarray
    gamma_total: np.ndarray
    effort_map: EffortMap
    pairs: tuple[tuple[str, str], ...]
    xi_matrix: np.ndarray
    validation: ValidationReport
    # Filled at construction, as on MarketScenario.
    a_lower: np.ndarray = field(init=False, repr=False, compare=False)
    a_upper: np.ndarray = field(init=False, repr=False, compare=False)
    effort_kind: str = field(init=False, repr=False, compare=False)
    pair_index: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    pair_source: np.ndarray = field(init=False, repr=False, compare=False)
    pair_aggregator: np.ndarray = field(init=False, repr=False, compare=False)
    _spectral_radius: float | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        pair_source, pair_aggregator = np.nonzero(self.scenario.membership)
        object.__setattr__(self, "a_lower", self.effort_map.a_lower)
        object.__setattr__(self, "a_upper", self.effort_map.a_upper)
        object.__setattr__(self, "effort_kind", _effort_kind(self.scenario))
        object.__setattr__(self, "pair_index", {p: k for k, p in enumerate(self.pairs)})
        object.__setattr__(self, "pair_source", pair_source)
        object.__setattr__(self, "pair_aggregator", pair_aggregator)

    @property
    def spectral_radius(self) -> float:
        """rho(Xi), computed on first read and kept in a declared field, as
        EffortVarianceModel keeps its incentive bounds; derivation needs none."""
        if self._spectral_radius is None:
            object.__setattr__(self, "_spectral_radius", spectral_radius(self.xi_matrix))
        return self._spectral_radius

    def effort_model(self, source_id: str) -> EffortVarianceModel:
        return self.scenario.sources_by_id[source_id].effort_model

    def offdiagonal_xi_max(self) -> float:
        off_diagonal = ~np.eye(self.xi.shape[1], dtype=bool)
        return float(np.abs(self.xi[:, off_diagonal]).max(initial=0.0))

    def require_valid(self) -> None:
        if not self.validation.ok:
            raise ScenarioValidationError(
                "scenario failed validation:\n" + self.validation.summary(),
                violations=self.validation.violations)


def derive_parameters(scenario: MarketScenario, *,
                      require_valid: bool = True) -> DerivedParameters:
    """Derive beta/xi/gamma, the incentive bounds, and the coupling matrix.

    With require_valid (the default) a scenario whose validation report has
    violations raises ScenarioValidationError; pass False to inspect derived
    tables of an ill-posed market.
    """
    beta, xi = _derive_tables(scenario)
    gamma, gamma_total = derive_gamma(scenario, beta)
    validation = _validation_report(scenario, (gamma, gamma_total))
    effort_map = EffortMap([scenario.sources_by_id[sid].effort_model
                            for sid in scenario.source_ids])
    xi_matrix, pairs = assemble_xi_matrix(scenario, xi)
    params = DerivedParameters(
        scenario=scenario, mode=scenario.mode, beta=beta, xi=xi, gamma=gamma,
        gamma_total=gamma_total, effort_map=effort_map, pairs=pairs,
        xi_matrix=xi_matrix, validation=validation)
    if require_valid:
        params.require_valid()
    return params
