"""Market scenarios and derived contract parameters.

A scenario holds the primitives, data sources (feature point, effort model,
which aggregators they sell to) and aggregators (estimator, query
distribution, competition weights, payment scale), each in id order, and
indexes them once as arrays: the n x m membership, the sharing pairs (pair k
is its k-th nonzero entry, row by row), each aggregator's pairs and dataset,
the n x d features and the sources' EffortMap.  From these we derive the
contract parameters that drive everything downstream:

  beta[s, b]   relevance of source s's data to aggregator b's estimate,
  xi[b][i, l]  coupling: weight of source l's variance inside the payment
               aggregator b owes source i, over b's dataset (leave-one-out),
  gamma[s, b]  b's net demand for quality from s after subtracting the
               competition-weighted benefit to b's rivals,
  Xi           the square coupling matrix of the equilibrium system
               a = Xi a + gamma over (source, aggregator) pairs.

Every table is a numpy array: beta and gamma over the sharing pairs,
per-source totals over `source_ids`; xi is one read-only block per
aggregator over `dataset(b)`, diagonal 0: the paper's xi_b(s, s) = 1 is
added only where the own variance enters.  Ids key dicts only at the I/O
edge.  Parameters can instead be entered directly (``direct`` mode) so
analytic fixtures stay testable in closed form.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import types
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

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
    """One source as MarketScenario takes it, and as scenario.sources
    shows it: a view built from the scenario's columns."""

    id: str
    feature: FeaturePoint
    effort_model: EffortVarianceModel
    sharing: tuple[str, ...]  # aggregator ids this source sells to, sorted

    def __post_init__(self):
        object.__setattr__(self, "feature", as_feature_point(self.feature))
        if not self.sharing:
            raise DomainError(f"source {self.id!r} has an empty sharing set")
        object.__setattr__(self, "sharing", tuple(sorted(set(self.sharing), key=_id_order)))


@dataclass(frozen=True)
class AggregatorSpec:
    id: str
    estimator: EstimatorSpec
    query_dist: QueryDistribution
    zeta: Mapping[str, float] = field(default_factory=dict)  # rival id -> [0, 1]
    payment_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "zeta", types.MappingProxyType(dict(self.zeta)))
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


def _id_order(key) -> tuple:
    """Id order's sort key, under which any two keys compare: s1 < (s1, b1)."""
    return tuple(map(str, key)) if isinstance(key, tuple) else (str(key),)


class IdTable(Mapping):
    """A read-only table keyed by id, over values held in id order.

    `ids` is a tuple of ids or of (source, aggregator) pairs in id order
    (_id_order), and `array` (read-only) holds their values: one
    float per id, or one row per id.  Reading an id gives a Python float (a
    list for a row).  IdTable.of is the one rule that puts a table in id
    order; every reader of a table, an IdTable or a plain dict, goes through it."""

    __slots__ = ("ids", "array", "_index")

    def __init__(self, ids, array: np.ndarray):
        self.ids, self.array, self._index = tuple(ids), array, None
        array.setflags(write=False)

    @classmethod
    def of(cls, table, array: np.ndarray | None = None) -> IdTable:
        """The table's values (an IdTable's array, table[id], or the rows of
        `array` in the order of `table`'s ids) in id order."""
        ids = tuple(table)
        if isinstance(table, IdTable):
            array = table.array
        elif array is None:
            array = np.array([table[key] for key in ids], dtype=float)
        ordered = False
        with contextlib.suppress(TypeError):  # an id and a pair compare only under _id_order
            ordered = not any(map(operator.ge, ids, ids[1:]))  # a written document's ids ascend
        if ordered:
            return cls(ids, array)
        order = sorted(range(len(ids)), key=lambda k: _id_order(ids[k]))
        return cls((ids[k] for k in order), array[order])

    def positions(self) -> dict:
        """Each id's position in `ids`."""
        if self._index is None:
            self._index = dict(zip(self.ids, range(len(self.ids))))
        return self._index

    def __getitem__(self, key):
        return self.array[self.positions()[key]].tolist()

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"IdTable({dict(self)!r})"


def _runs(pairs) -> dict:
    """Source id -> (lo, hi) of `pairs` in id order: its pairs are pairs[lo:hi]."""
    ends = {sid: k for k, (sid, _) in enumerate(pairs, 1)}
    return dict(zip(ends, zip([0, *ends.values()], ends.values())))


def _first_mismatch(keys, others):
    """The first key, in id order, in just one of the two, else repeated in `others`."""
    return min(set(keys).symmetric_difference(others)
               or [key for key, count in Counter(others).items() if count > 1], key=_id_order)


def _pair_index(membership: np.ndarray):
    """(pair_source, pair_aggregator, aggregator_pairs, members), read-only,
    as the membership they index becomes: pair k is the k-th nonzero [s, b]
    of the n x m membership, row by row; aggregator_pairs[b] and members[b]
    are b's pair rows and source rows."""
    pair_source, pair_aggregator = np.nonzero(membership)
    aggregator_pairs = tuple(np.flatnonzero(pair_aggregator == b)
                             for b in range(membership.shape[1]))
    members = tuple(pair_source[rows] for rows in aggregator_pairs)
    _read_only((membership, pair_source, pair_aggregator, *aggregator_pairs, *members))
    return pair_source, pair_aggregator, aggregator_pairs, members


def _source_columns(sources) -> tuple:
    """(ids, features, sharing, EffortMap) of DataSourceSpecs, in id order:
    the columns MarketScenario indexes."""
    sources = sorted(sources, key=lambda s: s.id)
    return ([s.id for s in sources], [s.feature for s in sources],
            [s.sharing for s in sources], EffortMap.of(s.effort_model for s in sources))


class MarketScenario:
    """The market's primitives, indexed once at construction.  The sources
    are columns in id order: `source_ids`, `features` (n x d, read-only),
    `membership` (n x m, [s, b] true when s sells to b) and `effort_map`
    (family code, sigma0, rate and e_max per source); `aggregators` are
    AggregatorSpecs sorted by id, and over that order stand _pair_index's
    arrays.  Every reader takes these; DerivedParameters binds the same
    objects.  `sources` builds DataSourceSpec views on each read.

    MarketScenario(sources, aggregators, ground_truth, ...) takes
    DataSourceSpecs in any order and refuses an id that is not a string, so
    the market's order is _id_order's; the parser and the generator hand
    their columns to _from_columns, the same indexing pass.  Every attribute is
    set at construction, never cached on first read: writing to an
    instance's __dict__ later slows every attribute read on it (CPython
    3.11).  The instance is immutable and every table read-only: the arrays
    above, the EffortMap's columns, each aggregator's `zeta` (a mapping
    proxy) and, in direct mode, `direct_beta`, an IdTable over the sharing
    pairs, and `direct_xi`, a mapping proxy from aggregator id (in id
    order) to an IdTable over b's dataset pairs (i, l), with its diagonal 1."""

    def __init__(self, sources, aggregators, ground_truth: GroundTruth,
                 mode: str = MODE_ESTIMATOR,
                 direct_beta: Mapping[tuple[str, str], float] | None = None,
                 direct_xi: Mapping[str, Mapping[tuple[str, str], float]] | None = None):
        sources, aggregators = tuple(sources), tuple(aggregators)
        for kind, specs in (("source", sources), ("aggregator", aggregators)):
            for spec in specs:
                if not isinstance(spec.id, str):
                    raise DomainError(f"{kind} id {spec.id!r} is not a string")
        self._index(*_source_columns(sources), aggregators, ground_truth, mode,
                    direct_beta, direct_xi)

    @classmethod
    def _from_columns(cls, ids, features, sharing, effort_map: EffortMap, aggregators,
                      ground_truth: GroundTruth, mode: str = MODE_ESTIMATOR,
                      direct_beta=None, direct_xi=None) -> MarketScenario:
        """The scenario of source columns already in id order: ids, feature
        points, each source's aggregator ids, and their EffortMap."""
        scenario = cls.__new__(cls)
        scenario._index(ids, features, sharing, effort_map, aggregators, ground_truth, mode,
                        direct_beta, direct_xi)
        return scenario

    def __setattr__(self, name, value):
        raise AttributeError(f"MarketScenario is immutable; cannot set {name!r}")

    def _index(self, sids, features, sharing, effort_map, aggregators, ground_truth, mode,
               direct_beta, direct_xi):
        aggregators = tuple(sorted(aggregators, key=lambda b: b.id))
        if not sids or not aggregators:
            raise DomainError("a scenario needs at least one source and one aggregator")
        sids, bids = tuple(sids), tuple(b.id for b in aggregators)
        for name, ids in (("source", sids), ("aggregator", bids)):
            if len(set(ids)) != len(ids):
                dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
                raise DomainError(f"duplicate {name} ids {dupes}")
        if set(sids) & set(bids):
            raise DomainError("source and aggregator ids must be disjoint")
        dims = set(map(len, features))
        if len(dims) != 1:
            raise DomainError(f"sources mix feature dimensions {sorted(dims)}")
        d = dims.pop()
        if len(ground_truth.coefficients) != d:
            raise DomainError(f"ground truth has {len(ground_truth.coefficients)} "
                              f"coefficients for dimension {d}")
        column = {bid: b for b, bid in enumerate(bids)}
        rows, columns = [], []
        for s, (sid, shares) in enumerate(zip(sids, sharing)):
            try:
                columns += map(column.__getitem__, shares)
            except KeyError:
                raise DomainError(f"source {sid!r} shares with unknown aggregators "
                                  f"{sorted(set(shares) - set(bids), key=_id_order)}") from None
            rows += [s] * len(shares)
        membership = np.zeros((len(sids), len(bids)), dtype=bool)
        membership[rows, columns] = True
        pair_source, pair_aggregator, aggregator_pairs, members = _pair_index(membership)
        pairs = tuple((sids[s], bids[b])
                      for s, b in zip(pair_source.tolist(), pair_aggregator.tolist()))
        for name, value in dict(
                aggregators=aggregators, ground_truth=ground_truth, mode=mode,
                direct_beta=direct_beta, direct_xi=direct_xi, source_ids=sids,
                aggregator_ids=bids, membership=membership, pair_source=pair_source,
                pair_aggregator=pair_aggregator, aggregator_pairs=aggregator_pairs,
                members=members, features=_read_only([np.array(features, dtype=float)])[0],
                effort_map=effort_map, _sharing_pairs=pairs).items():
            object.__setattr__(self, name, value)
        known = set(bids)
        for b in aggregators:
            unknown = set(b.zeta) - known
            if unknown:
                raise DomainError(f"aggregator {b.id!r} weights unknown "
                                  f"rivals {sorted(unknown, key=_id_order)}")
            if b.query_dist.dimension != d:
                raise DomainError(f"aggregator {b.id!r} query dimension "
                                  f"{b.query_dist.dimension} != feature dimension {d}")
        if mode not in (MODE_ESTIMATOR, MODE_DIRECT):
            raise DomainError(f"unknown parameter mode {mode!r}")
        if mode == MODE_DIRECT:
            self._check_direct_tables()
        elif direct_beta is not None or direct_xi is not None:
            raise DomainError("direct parameter tables given in estimator mode")

    @property
    def sources(self) -> tuple[DataSourceSpec, ...]:
        """Each source as a DataSourceSpec, in id order, built from the
        columns on each read."""
        bids = self.aggregator_ids
        return tuple(DataSourceSpec(sid, feature, self.effort_map.model(k),
                                    tuple(bids[b] for b in np.flatnonzero(row).tolist()))
                     for k, (sid, feature, row) in enumerate(zip(
                         self.source_ids, self.features.tolist(), self.membership)))

    def _check_direct_tables(self):
        """Hold direct_beta and each direct_xi[b] as IdTables, checked; a
        table's first violation is the first in id order."""
        if self.direct_beta is None or self.direct_xi is None:
            raise DomainError("direct mode requires beta and xi tables")
        beta, expected = IdTable.of(self.direct_beta), self._sharing_pairs
        if beta.ids != expected:
            raise DomainError("direct beta table must cover exactly the sharing pairs "
                              f"(first mismatch {_first_mismatch(beta, expected)})")
        if not np.isfinite(beta.array).all():
            raise DomainError("direct beta values must be finite")
        xi = {b: IdTable.of(table) for b, table in dict(self.direct_xi).items()}
        if set(xi) != set(self.aggregator_ids):
            raise DomainError("direct xi tables must name exactly the aggregators "
                              f"(first mismatch {_first_mismatch(xi, self.aggregator_ids)!r})")
        for b in self.aggregator_ids:
            table, ds = xi[b], self.dataset(b)
            expected = tuple(itertools.product(ds, repeat=2))
            if table.ids != expected:
                raise DomainError(f"direct xi table of {b!r} must cover its dataset pairs "
                                  f"(first mismatch {_first_mismatch(table, expected)})")
            values = table.array.reshape(len(ds), len(ds))
            not_one = np.eye(len(ds), dtype=bool) & (values != 1.0)
            bad = np.flatnonzero(not_one | ~(np.isfinite(values) & (values >= 0)))
            if len(bad):
                (i, l), v = table.ids[bad[0]], float(table.array[bad[0]])
                if not_one.flat[bad[0]]:
                    raise DomainError(f"diagonal xi must be 1 (aggregator {b!r}, "
                                      f"source {i!r} has {v})")
                raise DomainError(f"xi values must be nonnegative and finite "
                                  f"(aggregator {b!r}, pair {(i, l)})")
        object.__setattr__(self, "direct_beta", beta)
        object.__setattr__(self, "direct_xi",
                           types.MappingProxyType({b: xi[b] for b in self.aggregator_ids}))

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def dataset(self, aggregator_id: str) -> tuple[str, ...]:
        """Sorted ids of the sources selling to this aggregator."""
        rows = dict(zip(self.aggregator_ids, self.members)).get(aggregator_id, np.empty(0, int))
        return tuple(self.source_ids[s] for s in rows.tolist())

    def sharing_pairs(self) -> tuple[tuple[str, str], ...]:
        """All (source, aggregator) pairs with an active contract, in the
        fixed lexicographic order used to index the coupling matrix."""
        return self._sharing_pairs


# ---------------------------------------------------------------------------
# Parameter derivation
# ---------------------------------------------------------------------------

def _relevance(features: np.ndarray, aggregator_pairs, members, aggregators) -> np.ndarray:
    """beta over the sharing pairs (_pair_index's rows): per aggregator (the
    sequence `aggregators`, in id order), the separability coefficients of its
    dataset (rows of `features`) under its own query distribution.  Needs no
    effort model, so generation calls it before drawing any."""
    beta = np.empty(sum(len(rows) for rows in aggregator_pairs))
    for rows, sources, agg in zip(aggregator_pairs, members, aggregators):
        beta[rows] = ols_coefficients(features[sources], agg.query_dist)
    return beta


def _net_demand(beta: np.ndarray, membership: np.ndarray, pair_source: np.ndarray,
                pair_aggregator: np.ndarray, aggregators) -> tuple[np.ndarray, np.ndarray]:
    """(gamma over the sharing pairs, gamma_total over the sources) from beta
    over the same pairs (see _pair_index, derive_gamma).  Each rival sum runs
    over j in id order and each total over b in id order, one at a time."""
    ids = [agg.id for agg in aggregators]
    zeta = np.array([[agg.zeta.get(j, 0.0) for j in ids] for agg in aggregators])
    scale = np.array([agg.payment_scale for agg in aggregators])
    table = np.zeros(membership.shape)
    table[pair_source, pair_aggregator] = beta
    rival_benefit = np.zeros(len(beta))
    with np.errstate(over="ignore", invalid="ignore"):  # validation reports nonfinite-demand
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
    return _relevance(scenario.features, scenario.aggregator_pairs, scenario.members,
                      scenario.aggregators)


def derive_xi(scenario: MarketScenario) -> tuple[np.ndarray, ...]:
    """Coupling blocks xi[b], read-only, one per aggregator in id order over
    scenario.dataset(b) x scenario.dataset(b): [i, l] is the weight of source
    l's variance in b's leave-one-out prediction at source i's feature point,
    the squared leave-one-out weight, 0 on the diagonal (its readers add the
    paper's xi_b(s, s) = 1).  Aggregators with one dataset share its block."""
    if scenario.mode != MODE_ESTIMATOR:
        raise DomainError("derive_xi applies to estimator-derived scenarios; "
                          "direct mode carries its own xi table")
    weights = leave_one_out_weights(scenario.features, scenario.members,
                                    aggregators=scenario.aggregator_ids,
                                    sources=scenario.source_ids)
    for w, _ in _block_groups(weights):  # each distinct array once
        w.flags.writeable = True  # a new array held only here: a squared copy costs validation
        np.square(w, out=w)
    return _read_only(weights)


def _read_only(blocks) -> tuple[np.ndarray, ...]:
    for block in blocks:
        block.flags.writeable = False
    return tuple(blocks)


def derive_gamma(scenario: MarketScenario, beta: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Net demand gamma[s, b] = (beta[s, b] - sum over rivals j in B_s of
    zeta_j^b * beta[s, j]) / payment_scale_b over scenario.sharing_pairs()
    (beta runs over the same pairs), and its totals over scenario.source_ids."""
    return _net_demand(beta, scenario.membership, scenario.pair_source,
                       scenario.pair_aggregator, scenario.aggregators)


def assemble_xi_matrix(scenario: MarketScenario, xi: tuple[np.ndarray, ...],
                       ) -> tuple[np.ndarray, tuple[tuple[str, str], ...]]:
    """(CouplingOperator(scenario, xi).toarray(), scenario.sharing_pairs()).
    The package calls it nowhere; bench/tracing.py traces it by name."""
    return CouplingOperator(scenario, xi).toarray(), scenario.sharing_pairs()


def _block_groups(xi) -> list[tuple[np.ndarray, list[int]]]:
    """(block, its aggregators) per distinct array object of xi, first seen first."""
    groups: dict[int, tuple[np.ndarray, list[int]]] = {}
    for j, block in enumerate(xi):
        groups.setdefault(id(block), (block, []))[1].append(j)
    return list(groups.values())


class CouplingOperator:
    """Xi as a product over the sharing pairs, from the xi blocks, with no
    P x P matrix.  The aggregators of one block X_g (see _block_groups), as
    given, form a group g over one dataset D_g, and for s in D_g

        (Xi a)[s, b] = sum_g sum_{l in D_g} U_g[b, l] X_g[l, s],
        U_g[b, l] = [l sells to b] sum_{j in g, j != b} a[l, j]:

    one (rows x |D_g|)(|D_g| x |D_g|) product per group, over the rows b
    that reach a pair, so one under full sharing.  X_g's zero diagonal
    leaves out l == s; the j = b term is left out of U_g's sum, never added
    and subtracted: a large weight would not cancel exactly."""

    def __init__(self, scenario: MarketScenario, xi: tuple[np.ndarray, ...]):
        membership, pair_source = scenario.membership, scenario.pair_source
        pair_at = np.full(membership.shape, -1)
        pair_at[pair_source, scenario.pair_aggregator] = np.arange(len(pair_source))
        self.shape = (len(pair_source), len(pair_source))
        self.blocks = tuple(xi)  # the X_j, in id order
        self._sources, self._members = membership.shape[0], scenario.members
        self._groups, targets = [], []
        for block, group in _block_groups(xi):
            members = scenario.members[group[0]]
            others = np.arange(membership.shape[1])[:, None] != group  # [b, k]: j_k != b
            sells = membership[members].T  # [b, l]
            live = others.any(axis=1) & sells.any(axis=1)  # the rows b that reach a pair
            row = np.where(live, np.cumsum(live) - 1, -1)  # b's row of U_g, or -1
            # entry [row[b], s] of U_g X_g lands at the pair (s, b), if s sells to b
            at = pair_at[members][:, live].T.ravel()
            gather = np.flatnonzero(at >= 0)
            targets.append(at[gather])
            inputs = pair_at[members][:, group].T  # [k, l]: the pair (l, j_k)
            self._groups.append((block, members, inputs, others[live].astype(float),
                                 sells[live].astype(float), row, gather))
        self._targets = np.concatenate(targets)

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        sums = [((others @ a[inputs] * sells) @ block).ravel()[gather]
                for block, _, inputs, others, sells, _, gather in self._groups]
        # float even with no coupling: bincount over no weights counts, in int64
        return np.bincount(self._targets, weights=np.concatenate(sums),
                           minlength=self.shape[0]).astype(float, copy=False)

    def at(self, b: int, a: np.ndarray) -> np.ndarray:
        """(Xi a) at aggregator b's pairs: the product restricted to row b."""
        coupled = np.zeros(self._sources)
        for block, members, inputs, others, sells, row, _ in self._groups:
            if row[b] >= 0:
                coupled[members] += (others[row[b]] @ a[inputs] * sells[row[b]]) @ block
        return coupled[self._members[b]]

    def largest_entry(self) -> float:
        """The largest entry of Xi, 0 with no coupling: X_g[l, s] is an
        entry wherever some row of group g holds both l and s."""
        return max(float(np.max(block, where=sells.T @ sells > 0, initial=0.0))
                   for block, _, _, _, sells, _, _ in self._groups)

    def toarray(self) -> np.ndarray:
        """The assembled P x P matrix.  Entry [c, s] of group g's product
        lands at the pair (s, b) of its row b, so that row of Xi holds
        [l sells to b] X_g[l, s] at the pairs (l, j) of each j in g but b."""
        matrix, offset = np.zeros(self.shape), 0
        for block, _, inputs, others, sells, _, gather in self._groups:
            targets = self._targets[offset:offset + len(gather)]
            c, s = np.divmod(gather, block.shape[0])
            for k, columns in enumerate(inputs):  # 0 where j_k is the row's b: no entry
                matrix[targets[:, None], columns] = others[c, k, None] * sells[c] * block.T[s]
            offset += len(gather)
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
#: relative (10 steps: 6e-12).  A market reads them from its KrylovBasis,
#: which its solve extends: radius, solve and a 3-point sweep then take 18
#: products (n=150 full sharing) and 30 (half sharing, d=2).
RADIUS_KRYLOV_DIM = 12


def spectral_radius(matrix) -> float:
    """Spectral radius of a nonnegative square matrix, or of Xi given as a
    CouplingOperator (whose stored blocks must then be finite and
    nonnegative); inf where it exceeds the float range.

    Shift-free power iteration from a strictly positive start x_0, certified
    each sweep by the Collatz-Wielandt interval (see _power_bracket), from
    the Ritz start of a KrylovBasis from the ones vector, or the ones vector
    itself where that basis gives none (a nilpotent matrix, say).  A
    market's params.spectral_radius tries its own basis first.
    """
    if not isinstance(matrix, CouplingOperator):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DomainError(f"spectral radius needs a square matrix, got shape {matrix.shape}")
    return _power_bracket(matrix, None)


def _power_bracket(M, basis: KrylovBasis | None) -> float:
    """rho(M) by power iteration, called once M's entries are checked finite
    and nonnegative (0 if none is above 0), from the first of: the Ritz start
    of `basis` (a KrylovBasis of M, scaled or not), that of a basis of M from
    the ones vector, and the ones vector (see KrylovBasis.ritz_start).

    Each sweep is certified by the Collatz-Wielandt interval [min_i
    (Mx)_i/x_i, max_i (Mx)_i/x_i] over the support x_i > 0: the zero set of x
    = M^t x_0 is that of M^t 1, closed under M's out-edges, so M is
    block-triangular with a nilpotent block there and rho(M) is the radius on
    the support (a zero row of Xi costs nothing).  Started from a Ritz
    vector, the bracket of a full-sharing market typically closes within
    RADIUS_TOL on the first sweep, periodic ones (eigenvalues +/- rho)
    included.  Where it oscillates instead (some reducible matrices, or a
    periodic one started from ones), or an iterate overflows, the sweeps
    stop and max |eigenvalue| from one dense LAPACK call (np.linalg.eigvals)
    decides, exact to rounding for every matrix; an operator is assembled
    only then."""
    entries = [e for e, _ in _block_groups(M.blocks)] if isinstance(M, CouplingOperator) else (M,)
    if not all(np.all(np.isfinite(e)) and not np.any(e < 0) for e in entries):
        raise DomainError("spectral radius is defined here for finite nonnegative matrices")
    n = M.shape[0]
    if n == 0 or not any(e.any() for e in entries):
        return 0.0
    x = None if basis is None else basis.ritz_start()
    if x is None:
        x = KrylovBasis(M, np.ones(n)).ritz_start()
    if x is None:
        x = np.ones(n)
    best_width = math.inf
    since_improvement = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(RADIUS_MAX_SWEEPS):
            y = M @ x
            norm = y.max()
            if norm == 0.0:
                return 0.0  # positive vector annihilated: nilpotent direction only
            if not math.isfinite(norm):
                break  # overflowed: rho is near or past the float range
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


class KrylovBasis:
    """An Arnoldi basis of D^-1 M D from `start`, for D = diag d (the
    identity unless d is given), grown on demand by Gram-Schmidt twice per
    step.  After k steps V[:k + 1] holds orthonormal rows from start /
    |start| and D^-1 M D V[:k]^T = V[:k + 1]^T H[:k + 1, :k].  A new vector
    whose norm is below 1e-12 of its column's (an invariant subspace) or
    not finite ends the basis with H[k, k - 1] and V[k] set to 0; so does
    its n-th vector, for n = len(start).  Both norms are _norm's, finite
    wherever the entries and |v| are.  V and H grow by doubling.  Each step
    depends only on those before it, so every reader reads the same numbers
    whoever grew them.

    A market's one basis, params.krylov (see `scaled`), is read by
    params.spectral_radius (ritz_start) and by equilibrium._solve_coupled
    (the steps its largest alpha needs)."""

    __slots__ = ("M", "d", "start", "V", "H", "k", "_ended")

    def __init__(self, M, start: np.ndarray, d: np.ndarray | None = None):
        n = len(start)
        self.M, self.start, self.d = M, start, np.ones(n) if d is None else d
        size = min(n, 16)
        self.V, self.H = np.empty((size + 1, n)), np.zeros((size + 1, size))
        self.V[0] = start / np.linalg.norm(start)
        self.k, self._ended = 0, False

    @classmethod
    def scaled(cls, coupling: CouplingOperator, gamma: np.ndarray) -> KrylovBasis:
        """A market's basis: of D^-1 Xi D from g = gamma / d, for d = gamma +
        Xi gamma (a's first two terms at alpha = 1).  As D^-1 Xi D is similar
        to Xi, D u is a Ritz vector of Xi for one u of the basis."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d = gamma + coupling @ gamma  # ritz_start checks what extreme demands make of it
            return cls(coupling, gamma / d, d)

    def grow(self, k: int) -> int:
        """Extend the basis until it holds k vectors, or it ends; returns the
        basis size."""
        n = len(self.start)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            while self.k < min(k, n) and not self._ended:
                j = self.k
                if j == self.H.shape[1]:  # storage full: double it
                    more = min(2 * j, n) - j
                    self.V = np.concatenate((self.V, np.empty((more, n))))
                    self.H = np.pad(self.H, ((0, more), (0, more)))
                V, H = self.V, self.H
                w = self.M @ (self.d * V[j]) / self.d
                for _ in range(2):
                    h = V[:j + 1] @ w
                    w -= h @ V[:j + 1]
                    H[:j + 1, j] += h
                H[j + 1, j] = _norm(w)
                self.k = j + 1
                if H[j + 1, j] > 1e-12 * _norm(H[:j + 2, j]):
                    V[j + 1] = w / H[j + 1, j]
                else:
                    H[j + 1, j], V[j + 1], self._ended = 0.0, 0.0, True
        return self.k

    def ritz_start(self) -> np.ndarray | None:
        """The power iteration's start: d * |u| for the Ritz vector u = V_k^T
        y of the largest real Ritz value theta of the first k =
        RADIUS_KRYLOV_DIM steps (H_k y = theta y), or None unless d and the
        start are finite and strictly positive, H_k is finite (no step
        overflowed), theta > 0 and d * |u| is strictly positive.  Any strictly
        positive start keeps the bracket a certificate; a good one only
        closes it sooner."""
        d, g = self.d, self.start
        if not np.all(np.isfinite(d) & (d > 0) & np.isfinite(g) & (g > 0)):
            return None
        k = min(self.grow(RADIUS_KRYLOV_DIM), RADIUS_KRYLOV_DIM)
        if not np.all(np.isfinite(self.H[:k, :k])):
            return None
        values, vectors = np.linalg.eig(self.H[:k, :k])
        real = np.where(values.imag == 0, values.real, -math.inf)
        top = int(np.argmax(real))
        u = d * np.abs(self.V[:k].T @ vectors[:, top].real)
        return u if real[top] > 0 and np.all(u > 0) else None


def _norm(v: np.ndarray) -> float:
    """|v|, scaled by max |v| where the plain norm of a finite v overflows
    (it squares the entries); the plain norm everywhere else."""
    norm = np.linalg.norm(v)
    if norm == math.inf and np.all(np.isfinite(v)):
        scale = np.abs(v).max()
        norm = scale * np.linalg.norm(v / scale)
    return norm


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

    def require_ok(self) -> None:
        """Raise ScenarioValidationError listing the violations, if any."""
        if not self.ok:
            raise ScenarioValidationError("scenario failed validation:\n" + self.summary(),
                                          violations=self.violations)


def _derivation(scenario: MarketScenario, *, beta: np.ndarray | None = None):
    """(tables, report) of the one pass that validate_scenario,
    derive_parameters and generation run: tables (beta, xi, gamma,
    gamma_total), None if the estimator is ill-defined.  beta and xi are
    derived, or read from direct mode's tables (xi's diagonal 0); an
    estimator market's given `beta` (generation's) is not derived again."""
    try:
        if scenario.mode == MODE_DIRECT:
            beta, xi = scenario.direct_beta.array, []
            for table, rows in zip(scenario.direct_xi.values(), scenario.members):
                xi.append(table.array.reshape(len(rows), len(rows)).copy())
                np.fill_diagonal(xi[-1], 0.0)
        else:
            beta = derive_beta(scenario) if beta is None else beta
            xi = derive_xi(scenario)
    except IllDefinedEstimatorError as exc:
        return None, _validation_report(scenario, ill_defined=str(exc))
    beta, *demand = _read_only((beta, *derive_gamma(scenario, beta)))
    return (beta, _read_only(xi), *demand), _validation_report(scenario, demand)


def validate_scenario(scenario: MarketScenario) -> ValidationReport:
    """Well-posedness checks required by the equilibrium theory.

    Returns a structured report; nothing is raised so callers can decide
    whether to proceed, but solvers refuse scenarios whose report is not ok.
    It is derive_parameters's pass, blocks and all, keeping only the report.
    """
    return _derivation(scenario)[1]


def _effort_kind(scenario: MarketScenario) -> str:
    """The sources' one effort-set kind, or "mixed" (e_max is finite exactly on bounded sets)."""
    bounded = np.isfinite(scenario.effort_map.e_max)
    return "bounded" if bounded.all() else "mixed" if bounded.any() else "unbounded"


def _demand_violations(gamma: np.ndarray, pairs):
    """Validation's demand rule: a violation for each pair whose net demand
    is not finite and positive.  Generation applies it as soon as a draw's
    demand is known."""
    for k in np.flatnonzero(~(np.isfinite(gamma) & (gamma > 0))).tolist():
        (sid, bid), value = pairs[k], float(gamma[k])
        if not math.isfinite(value):
            yield Violation("nonfinite-demand", f"({sid}, {bid})", "net demand is not finite")
        else:
            yield Violation("nonpositive-demand", f"({sid}, {bid})",
                            f"net demand {value} must be positive")


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

    for agg in scenario.aggregators:
        if agg.payment_scale != 1.0:
            notes.append(f"aggregator {agg.id}: payment scale {agg.payment_scale} "
                         "normalized to 1 (demand rescaled accordingly)")

    if ill_defined is not None:
        violations.append(Violation("ill-defined-estimator", "scenario", ill_defined))
        return ValidationReport(tuple(violations), tuple(notes))

    gamma, gamma_total = demand
    violations += _demand_violations(gamma, scenario.sharing_pairs())

    a_lower, a_upper = scenario.effort_map.a_lower, scenario.effort_map.a_upper
    flagged = ~np.isfinite(gamma_total) | (gamma_total < a_lower) | (gamma_total >= a_upper)
    for s in np.flatnonzero(flagged).tolist():
        sid, total = scenario.source_ids[s], float(gamma_total[s])
        if not math.isfinite(total):
            violations.append(Violation(
                "nonfinite-demand", sid, "total demand is not finite"))
        elif total < a_lower[s]:
            violations.append(Violation(
                "demand-below-minimum", sid,
                f"total demand {total} is below the minimum incentive {float(a_lower[s])}"))
        else:  # a_upper is inf for unbounded effort sets
            violations.append(Violation(
                "demand-above-saturation", sid,
                f"total demand {total} is not below the saturation incentive "
                f"{float(a_upper[s])}"))
    return ValidationReport(tuple(violations), tuple(notes))


# ---------------------------------------------------------------------------
# Derived bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DerivedParameters:
    """Everything the solvers need, derived once from a scenario, whose
    pair_source, pair_aggregator, aggregator_pairs and effort_map it binds
    (the same objects).  beta and gamma run over `pairs`; gamma_total,
    a_lower and a_upper (inf for unbounded effort sets) over source_ids.
    xi holds derive_xi's blocks, one array per distinct dataset (shared by
    its aggregators); block b's rows follow b's pairs, aggregator_pairs[b].

    Xi is built on first read, as one CouplingOperator, `coupling`, which
    both solvers read (the radius, the Krylov basis, the residual check, and
    the best responses, through `at`); the certificate builds its own from
    xi.  No P x P copy is kept: the dense Xi's two readers (xi_matrix.csv
    and a stalled radius) call coupling.toarray() where they run; no solve,
    sweep or certificate does.  The one Krylov basis that the radius
    and every solve read, `krylov` (see KrylovBasis), is built on first read
    and kept too: (k + 1) x P floats for k steps.  The instance is immutable
    and every table read-only."""

    scenario: MarketScenario
    mode: str
    beta: np.ndarray
    xi: tuple[np.ndarray, ...]  # per aggregator, dataset x dataset, id order, shared
    gamma: np.ndarray
    gamma_total: np.ndarray
    pairs: tuple[tuple[str, str], ...]
    validation: ValidationReport
    # Filled at construction, as on MarketScenario.
    effort_map: EffortMap = field(init=False, repr=False, compare=False)
    a_lower: np.ndarray = field(init=False, repr=False, compare=False)
    a_upper: np.ndarray = field(init=False, repr=False, compare=False)
    effort_kind: str = field(init=False, repr=False, compare=False)
    pair_source: np.ndarray = field(init=False, repr=False, compare=False)
    pair_aggregator: np.ndarray = field(init=False, repr=False, compare=False)
    aggregator_pairs: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    # Filled on first read; derivation needs none of them.
    _coupling: CouplingOperator | None = field(default=None, init=False, repr=False,
                                               compare=False)
    _spectral_radius: float | None = field(default=None, init=False, repr=False,
                                           compare=False)
    _krylov: KrylovBasis | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        scenario = self.scenario
        for name in ("effort_map", "pair_source", "pair_aggregator", "aggregator_pairs"):
            object.__setattr__(self, name, getattr(scenario, name))
        object.__setattr__(self, "a_lower", scenario.effort_map.a_lower)
        object.__setattr__(self, "a_upper", scenario.effort_map.a_upper)
        object.__setattr__(self, "effort_kind", _effort_kind(scenario))

    @property
    def coupling(self) -> CouplingOperator:
        """Xi as a CouplingOperator; `coupling @ a` is Xi a."""
        if self._coupling is None:
            object.__setattr__(self, "_coupling", CouplingOperator(self.scenario, self.xi))
        return self._coupling

    @property
    def krylov(self) -> KrylovBasis:
        """The market's one KrylovBasis, built on first read."""
        if self._krylov is None:
            object.__setattr__(self, "_krylov", KrylovBasis.scaled(self.coupling, self.gamma))
        return self._krylov

    @property
    def spectral_radius(self) -> float:
        """rho(Xi), computed on first read and kept in a declared field, not
        a cached_property (see MarketScenario): spectral_radius's power
        bracket, started from the Krylov basis (KrylovBasis.ritz_start)."""
        if self._spectral_radius is None:
            object.__setattr__(self, "_spectral_radius",
                               _power_bracket(self.coupling, self.krylov))
        return self._spectral_radius

    def effort_model(self, source_id: str) -> EffortVarianceModel:
        return self.effort_map.model(self.scenario.source_ids.index(source_id))

    def offdiagonal_xi_max(self) -> float:
        # every block is nonnegative (validated or squared) with a zero diagonal
        return max(float(block.max(initial=0.0)) for block, _ in _block_groups(self.xi))


def derive_parameters(scenario: MarketScenario, *,
                      require_valid: bool = True) -> DerivedParameters:
    """Derive beta/xi/gamma and the incentive bounds, with validate_scenario's
    report; Xi waits for its first reader (see DerivedParameters).

    With require_valid (the default) a report with violations raises its
    ScenarioValidationError; pass False to inspect derived tables of an
    ill-posed market, which still raises where no table is left to inspect
    (an ill-defined estimator, a nonfinite-demand violation).
    """
    tables, validation = _derivation(scenario)
    if require_valid or tables is None or any(
            v.code == "nonfinite-demand" for v in validation.violations):
        validation.require_ok()
    beta, xi, gamma, gamma_total = tables
    return DerivedParameters(
        scenario=scenario, mode=scenario.mode, beta=beta, xi=xi, gamma=gamma,
        gamma_total=gamma_total, pairs=scenario.sharing_pairs(), validation=validation)
