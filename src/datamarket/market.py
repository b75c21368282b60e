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
from collections import Counter
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


def _first_mismatch(keys, others):
    """The first key, in id order, in just one of the two (ids or id pairs)."""
    return min(set(keys).symmetric_difference(others),
               key=lambda k: tuple(map(str, k)) if isinstance(k, tuple) else (str(k),))


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
        for name, ids in (("source", sids), ("aggregator", bids)):
            dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
            if dupes:
                raise DomainError(f"duplicate {name} ids {dupes}")
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
        expected = set(self.sharing_pairs())
        if set(beta) != expected:
            raise DomainError("direct beta table must cover exactly the sharing pairs "
                              f"(first mismatch {_first_mismatch(beta, expected)})")
        if any(not math.isfinite(v) for v in beta.values()):
            raise DomainError("direct beta values must be finite")
        xi = {b: {pair: float(v) for pair, v in table.items()}
              for b, table in dict(self.direct_xi).items()}
        if set(xi) != set(self.aggregator_ids):
            raise DomainError("direct xi tables must name exactly the aggregators "
                              f"(first mismatch {_first_mismatch(xi, self.aggregator_ids)!r})")
        for b, table in sorted(xi.items()):
            ds = self.dataset(b)
            expected_pairs = {(i, l) for i in ds for l in ds}
            if set(table) != expected_pairs:
                raise DomainError(f"direct xi table of {b!r} must cover its dataset pairs "
                                  f"(first mismatch {_first_mismatch(table, expected_pairs)})")
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
        beta[rows] = ols_coefficients(features[pair_source[rows]], agg.query_dist)
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
    with np.errstate(over="ignore"):  # validation reports it as nonfinite-demand
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
    sell to b.  Per aggregator, one leave_one_out_weights call: running Gram
    sums, one batched solve and one product."""
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
    Scattered from CouplingOperator's terms, the one description of its
    sparsity.
    """
    return CouplingOperator(scenario, xi).toarray(), scenario.sharing_pairs()


class CouplingOperator:
    """Xi as a product over the sharing pairs, from the xi array, with no
    P x P matrix:

        (Xi a)[s, b] = sum_{j != b} sum_l X_j[l, s] a[l, j] [l sells to b],

    where X_j is xi[j] on D_j x D_j (D_j the sources selling to j) with its
    diagonal zeroed.  Per aggregator j, the columns b != j of the membership
    restricted to D_j are deduplicated, so a full-sharing market costs one
    matrix-vector product per aggregator.  The j = b term is left out by
    selecting the columns b != j, never added and subtracted: a large weight
    would not cancel exactly."""

    def __init__(self, scenario: MarketScenario, xi: np.ndarray):
        membership = scenario.membership
        pair_source, pair_aggregator = np.nonzero(membership)
        pair_at = np.full(membership.shape, -1)
        pair_at[pair_source, pair_aggregator] = np.arange(len(pair_source))
        self.shape = (len(pair_source), len(pair_source))
        self._terms = []
        gather, targets, offset = [], [], 0
        aggregators = np.arange(membership.shape[1])
        for j in aggregators.tolist():
            members, others = np.flatnonzero(membership[:, j]), np.flatnonzero(aggregators != j)
            block = xi[j][np.ix_(members, members)]
            np.fill_diagonal(block, 0.0)
            keys = [membership[members, b].tobytes() for b in others.tolist()]
            distinct = list(dict.fromkeys(keys))  # [c]: D_j's column of a rival
            columns = np.frombuffer(b"".join(distinct), dtype=bool)
            self._terms.append((pair_at[members, j], block,
                                columns.reshape(len(distinct), len(members)).astype(float)))
            # row c of term j's sums lands at the pairs (s, b) of the rivals b
            # with column c; a source in D_j that does not sell to b has no pair
            at = pair_at[np.ix_(members, others)].T
            b, s = np.nonzero(at >= 0)
            column = np.array([distinct.index(key) for key in keys], dtype=np.intp)
            gather.append(offset + column[b] * len(members) + s)
            targets.append(at[b, s])
            offset += len(distinct) * len(members)
        self._gather = np.concatenate(gather)
        self._targets = np.concatenate(targets)
        self.blocks = tuple(term[1] for term in self._terms)  # the X_j, in id order

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        return self.scatter([self.term(j, a) for j in range(len(self._terms))])

    def term(self, j: int, a: np.ndarray) -> np.ndarray:
        """Aggregator j's sums (rivals' distinct columns times X_j): a at j's pairs only."""
        inputs, block, columns = self._terms[j]
        return ((columns * a[inputs]) @ block).ravel()

    def scatter(self, sums: list[np.ndarray]) -> np.ndarray:
        """Xi a from every aggregator's term(j, a), in id order."""
        # float even with no coupling: bincount over no weights counts, in int64
        return np.bincount(self._targets, weights=np.concatenate(sums)[self._gather],
                           minlength=self.shape[0]).astype(float, copy=False)

    def largest_entry(self) -> float:
        """The largest entry of Xi, 0 with no coupling: X_j[l, s] is an
        entry wherever some rival column on D_j holds both l and s."""
        largest = 0.0
        for _, block, columns in self._terms:
            held = columns > 0  # as booleans: a float product takes longer
            both = (held[:, :, None] & held[:, None, :]).any(axis=0)
            largest = max(largest, float(np.max(block, where=both, initial=0.0)))
        return largest

    def toarray(self) -> np.ndarray:
        """The assembled matrix (assemble_xi_matrix).  The sums entry c, s of
        term j lands at the pair (s, b) of each rival b with column c, so that
        row of Xi holds columns[c] * X_j[:, s] at the pairs (l, j)."""
        matrix, offset = np.zeros(self.shape), 0
        for inputs, block, columns in self._terms:
            here = (self._gather >= offset) & (self._gather < offset + columns.size)
            c, s = np.divmod(self._gather[here] - offset, len(inputs))
            matrix[self._targets[here, None], inputs] = columns[c] * block.T[s]
            offset += columns.size
        return matrix


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------

#: Relative width at which a radius bracket is accepted, and the power-
#: iteration sweep budget; past it, or on a stall, the eigenvalues decide.
RADIUS_TOL = 1e-10
RADIUS_MAX_SWEEPS = 100_000
#: Arnoldi steps (products) behind the power iteration's start vector: at 12
#: a periodic two-aggregator market's first bracket matches eigvals to 1.5e-13
#: relative (10 steps: 6e-12), and the n=150 shapes take 13 products (full
#: sharing) and 25-28 (half sharing), where ones took 60-68 and 33-40.
RADIUS_KRYLOV_DIM = 12


def spectral_radius(matrix) -> float:
    """Spectral radius of a nonnegative square matrix, or of Xi given as a
    CouplingOperator (whose stored blocks must then be finite and
    nonnegative).

    Shift-free power iteration from a strictly positive start x_0 (see
    _ritz_start), certified each sweep by the Collatz-Wielandt interval
    [min_i (Mx)_i/x_i, max_i (Mx)_i/x_i] over the support x_i > 0: the zero
    set of x = M^t x_0 is that of M^t 1, closed under M's out-edges, so M is
    block-triangular with a nilpotent block there and rho(M) is the radius
    on the support (a zero row of Xi costs nothing).  Started from the Ritz
    vector, the bracket of a full-sharing market typically closes within
    RADIUS_TOL on the first sweep, periodic ones (eigenvalues +/- rho)
    included.  Where it
    oscillates instead (some reducible matrices, or a periodic one started
    from ones), the stall returns max |eigenvalue| from one dense LAPACK
    call (np.linalg.eigvals), exact to rounding for every matrix; an
    operator is assembled only then.
    """
    if isinstance(matrix, CouplingOperator):
        M, entries = matrix, matrix.blocks
    else:
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DomainError(f"spectral radius needs a square matrix, got shape {M.shape}")
        entries = (M,)
    if not all(np.all(np.isfinite(e)) and not np.any(e < 0) for e in entries):
        raise DomainError("spectral radius is defined here for finite nonnegative matrices")
    n = M.shape[0]
    if n == 0 or not any(e.any() for e in entries):
        return 0.0

    x = _ritz_start(M, n)
    best_width = math.inf
    since_improvement = 0
    for _ in range(RADIUS_MAX_SWEEPS):
        y = M @ x
        norm = y.max()
        if norm == 0.0:
            return 0.0  # positive vector annihilated: nilpotent direction only
        support = x > 0
        ratios = y[support] / x[support]
        lo, hi = float(ratios.min()), float(ratios.max())
        width = hi - lo
        if width <= RADIUS_TOL * max(1.0, hi):
            return 0.5 * (lo + hi)
        if width < 0.5 * best_width:
            best_width = width
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= 100:
                break  # oscillating interval: periodic or reducible
        x = y / norm
    return _eigenvalue_radius(M.toarray() if isinstance(M, CouplingOperator) else M)


def _ritz_start(M, n: int) -> np.ndarray:
    """Start of spectral_radius's power iteration: |u| for the Ritz vector u
    of the largest real Ritz value of a RADIUS_KRYLOV_DIM-step Arnoldi pass
    from the normalised ones vector (Gram-Schmidt run twice per step), when
    that value is above 0 and |u| is strictly positive; the ones vector
    otherwise (a nilpotent matrix, say).  Any strictly positive start keeps
    the bracket a certificate; a good one only closes it sooner."""
    steps = min(RADIUS_KRYLOV_DIM, n)
    V = np.empty((steps + 1, n))
    H = np.zeros((steps + 1, steps))
    V[0] = 1.0 / math.sqrt(n)
    for j in range(steps):
        w = M @ V[j]
        for _ in range(2):
            h = V[:j + 1] @ w
            w -= h @ V[:j + 1]
            H[:j + 1, j] += h
        H[j + 1, j] = np.linalg.norm(w)
        if not H[j + 1, j] > 1e-12 * np.linalg.norm(H[:j + 2, j]):  # invariant subspace
            steps = j + 1
            break
        V[j + 1] = w / H[j + 1, j]
    values, vectors = np.linalg.eig(H[:steps, :steps])
    real = np.where(values.imag == 0, values.real, -math.inf)
    top = int(np.argmax(real))
    u = np.abs(V[:steps].T @ vectors[:, top].real)
    return u if real[top] > 0 and np.all(u > 0) else np.ones(n)


def _eigenvalue_radius(M: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(M)).max())


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
        if not math.isfinite(value):
            violations.append(Violation(
                "nonfinite-demand", f"({sid}, {bid})", "net demand is not finite"))
        elif value <= 0:
            violations.append(Violation(
                "nonpositive-demand", f"({sid}, {bid})",
                f"net demand {value} must be positive"))

    for sid, total in zip(scenario.source_ids, gamma_total.tolist()):
        model = scenario.sources_by_id[sid].effort_model
        bounds = model.incentive_bounds
        if not math.isfinite(total):
            violations.append(Violation(
                "nonfinite-demand", sid, "total demand is not finite"))
        elif total < bounds.a_lower:
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
    scenario.source_ids.

    Xi is built on first read, as one CouplingOperator, `coupling`, which
    both solvers read (the radius, the fixed-point products, the residual
    check, and the best responses through its terms).  `xi_matrix` is the
    assembled matrix, scattered from it on first read: an export that only
    the LU path and xi_matrix.csv read (a stalled radius assembles its own)."""

    scenario: MarketScenario
    mode: str
    beta: np.ndarray
    xi: np.ndarray          # [b, i, l], aggregators x sources x sources, id order
    gamma: np.ndarray
    gamma_total: np.ndarray
    effort_map: EffortMap
    pairs: tuple[tuple[str, str], ...]
    validation: ValidationReport
    # Filled at construction, as on MarketScenario.
    a_lower: np.ndarray = field(init=False, repr=False, compare=False)
    a_upper: np.ndarray = field(init=False, repr=False, compare=False)
    effort_kind: str = field(init=False, repr=False, compare=False)
    pair_index: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    pair_source: np.ndarray = field(init=False, repr=False, compare=False)
    pair_aggregator: np.ndarray = field(init=False, repr=False, compare=False)
    # Filled on first read; derivation needs none of them.
    _xi_matrix: np.ndarray | None = field(default=None, init=False, repr=False,
                                          compare=False)
    _coupling: CouplingOperator | None = field(default=None, init=False, repr=False,
                                               compare=False)
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
    def xi_matrix(self) -> np.ndarray:
        """The assembled Xi (assemble_xi_matrix), scattered from `coupling`:
        an export for the LU path and xi_matrix.csv, one operator per market."""
        if self._xi_matrix is None:
            object.__setattr__(self, "_xi_matrix", self.coupling.toarray())
        return self._xi_matrix

    @property
    def coupling(self) -> CouplingOperator:
        """Xi as a CouplingOperator; `coupling @ a` is Xi a."""
        if self._coupling is None:
            object.__setattr__(self, "_coupling", CouplingOperator(self.scenario, self.xi))
        return self._coupling

    @property
    def spectral_radius(self) -> float:
        """rho(Xi), computed on first read and kept in a declared field, not
        a cached_property (see MarketScenario)."""
        if self._spectral_radius is None:
            object.__setattr__(self, "_spectral_radius", spectral_radius(self.coupling))
        return self._spectral_radius

    def effort_model(self, source_id: str) -> EffortVarianceModel:
        return self.scenario.sources_by_id[source_id].effort_model

    def offdiagonal_xi_max(self) -> float:
        # |xi| over the aggregators as one n x n table, not a copy of xi
        largest = np.maximum(self.xi.max(axis=0), -self.xi.min(axis=0))
        np.fill_diagonal(largest, 0.0)
        return float(largest.max())

    def require_valid(self) -> None:
        if not self.validation.ok:
            raise ScenarioValidationError(
                "scenario failed validation:\n" + self.validation.summary(),
                violations=self.validation.violations)


def derive_parameters(scenario: MarketScenario, *,
                      require_valid: bool = True) -> DerivedParameters:
    """Derive beta/xi/gamma and the incentive bounds; Xi waits for its
    first reader (see DerivedParameters).

    With require_valid (the default) a scenario whose validation report has
    violations raises ScenarioValidationError; pass False to inspect derived
    tables of an ill-posed market.
    """
    beta, xi = _derive_tables(scenario)
    gamma, gamma_total = derive_gamma(scenario, beta)
    validation = _validation_report(scenario, (gamma, gamma_total))
    effort_map = EffortMap([scenario.sources_by_id[sid].effort_model
                            for sid in scenario.source_ids])
    params = DerivedParameters(
        scenario=scenario, mode=scenario.mode, beta=beta, xi=xi, gamma=gamma,
        gamma_total=gamma_total, effort_map=effort_map, pairs=scenario.sharing_pairs(),
        validation=validation)
    if require_valid:
        params.require_valid()
    return params
