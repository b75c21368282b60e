"""Separable regression estimators.

The only shipped estimator is ordinary least squares with intercept.  For a
design with rows [x_i^T, 1] and independent zero-mean noise of variance
sigma_i^2, the expected squared prediction error at a query point decomposes
as sum_i h_i * sigma_i^2 where h_i are nonnegative weights depending only on
the feature geometry and the query distribution.  That decomposition is what
lets payment contracts be priced from geometry alone; this module computes
the weights, the leave-one-out prediction weights behind both the payment
coupling and the realized payments, and a Monte-Carlo validation of the
decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    IllDefinedEstimatorError,
    IllDefinedPaymentError,
    ShapeError,
)

#: Gram matrices with condition number at or above this are treated as rank
#: deficient (separates genuine degeneracy from benign near-singularity).
CONDITION_LIMIT = 1e12

PROBABILITY_TOL = 1e-12

FeaturePoint = tuple[float, ...]


def as_feature_point(coords) -> FeaturePoint:
    point = tuple(float(c) for c in coords)
    if len(point) == 0:
        raise DomainError("feature points must have dimension >= 1")
    if not all(math.isfinite(c) for c in point):
        raise DomainError(f"feature point has non-finite coordinate: {point}")
    return point


@dataclass(frozen=True)
class QueryDistribution:
    """Finite mixture of point masses over the feature space."""

    atoms: tuple[tuple[FeaturePoint, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise DomainError("query distribution needs at least one atom")
        dims = {len(p) for p, _ in self.atoms}
        if len(dims) != 1:
            raise ShapeError(f"query atoms mix dimensions {sorted(dims)}")
        if any(w < 0 for _, w in self.atoms):
            raise DomainError("query probabilities must be nonnegative")
        total = sum(w for _, w in self.atoms)
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise DomainError(f"query probabilities sum to {total}, not 1")

    @property
    def dimension(self) -> int:
        return len(self.atoms[0][0])

    def points(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms], dtype=float)

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)


def point_mass(point) -> QueryDistribution:
    return QueryDistribution(((as_feature_point(point), 1.0),))


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator family chosen by an aggregator.  Extension seam for other
    separable estimators; only OLS with intercept ships."""

    kind: str = "ols_with_intercept"

    def __post_init__(self):
        if self.kind != "ols_with_intercept":
            raise DomainError(f"unknown estimator kind {self.kind!r}")


def design_matrix(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.hstack([pts, np.ones((pts.shape[0], 1))])


def _rank_deficient(grams: np.ndarray) -> np.ndarray:
    """Indices of the failing Grams of a (k, p, p) stack of symmetric PSD
    matrices: one passes when |lambda|max < CONDITION_LIMIT * |lambda|min
    (eigvalsh), so a zero or NaN eigenvalue fails, as does a non-finite
    entry (tested as zeros: LAPACK's eigenvalues of a NaN are undefined)."""
    finite = np.isfinite(grams).all(axis=(1, 2))
    size = np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], grams, 0.0)))
    return np.flatnonzero(~(size.max(axis=1) < CONDITION_LIMIT * size.min(axis=1)))


def prediction_weights(points, queries) -> np.ndarray:
    """Columns are X (X^T X)^{-1} [q^T, 1]^T for each query q: the weights an
    OLS prediction at q places on each observed response (one row per point).
    Raises IllDefinedEstimatorError on rank-deficient designs: too few
    points, or a Gram failing _rank_deficient, the leave-one-out fits' test."""
    X = design_matrix(points)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram fails the rank test
        gram = X.T @ X
    if X.shape[0] < X.shape[1]:
        raise IllDefinedEstimatorError(
            f"estimator is ill-defined: {X.shape[0]} points cannot identify "
            f"{X.shape[1]} regression parameters")
    if _rank_deficient(gram[None]).size:
        raise IllDefinedEstimatorError(
            f"estimator is ill-defined: design Gram matrix condition "
            f"{np.linalg.cond(gram):.3e} exceeds {CONDITION_LIMIT:.0e}")
    return X @ np.linalg.solve(gram, design_matrix(queries).T)


def leave_one_out_weights(features, members, *, aggregators, sources) -> tuple[np.ndarray, ...]:
    """W_b[i, l], one read-only array per aggregator over its dataset, rows
    members[b] (an index array) of the n x d `features`: the weight that the
    OLS fit on all its points but i places on point l's response when it
    predicts at point i (W_b[i, i] = 0).  Each distinct dataset is fitted
    once, and the aggregators buying it share one array.

    The designs are stacked, padded with zero rows.  Each leave-one-out Gram
    G_i is a running sum of the rows' outer products before i plus one of
    those after i, never the downdate G - x_i x_i^T, so its rank test is that
    of a separate fit.  The first rank-deficient fit, by aggregator then
    point, raises IllDefinedPaymentError naming the aggregator (from
    `aggregators`) and the id (from `sources`, one per row of `features`) of
    the point left out.  One batched solve gives z_i = G_i^{-1} x_i, and
    W[i, l] = z_i . x_l is one (k x p)(p x k) product per dataset."""
    first = {}  # dataset -> its first aggregator, which fits it
    fitter = [first.setdefault(rows.tobytes(), b) for b, rows in enumerate(members)]
    distinct = list(first.values())
    sizes = np.array([len(members[b]) for b in distinct])
    designs = np.zeros((len(distinct), sizes.max(), features.shape[1] + 1))
    for t, b in enumerate(distinct):
        designs[t, :sizes[t]] = design_matrix(features[members[b]])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram fails the rank test
        outer = designs[:, :, :, None] * designs[:, :, None, :]  # x_l x_l^T, 0 on padding
        grams = np.zeros_like(outer)
        np.cumsum(outer[:, :-1], axis=1, out=grams[:, 1:])           # rows before i
        grams[:, :-1] += np.cumsum(outer[:, :0:-1], axis=1)[:, ::-1]  # rows after i
    fits = (np.arange(designs.shape[1]) < sizes[:, None]) & (sizes[:, None] > 1)
    grams = grams[fits]  # by dataset, then point; a one-point dataset has no fit
    failing = _rank_deficient(grams)  # every one when k <= p: G_i has rank k - 1
    if failing.size:
        (t, i), gram = np.argwhere(fits)[failing[0]], grams[failing[0]]
        aggregator, source = aggregators[distinct[t]], str(sources[members[distinct[t]][i]])
        cond = math.inf if np.isnan(gram).any() else np.linalg.cond(gram)  # SVD of a NaN fails
        raise IllDefinedPaymentError(
            f"aggregator {aggregator!r}: leave-one-out design excluding source {source!r} is "
            f"rank deficient ({sizes[t] - 1} points for {designs.shape[2]} parameters, Gram "
            f"condition {cond:.3e}, limit {CONDITION_LIMIT:.0e})",
            aggregator=aggregator, source=source)
    solved = np.linalg.solve(grams, designs[fits][:, :, None])[:, :, 0]
    weights = {}
    for b, k, X, z in zip(distinct, sizes, designs,
                          np.split(solved, np.cumsum(fits.sum(axis=1))[:-1])):
        block = z @ X[:k].T if len(z) else np.zeros((k, k))  # no fit, no weight
        np.fill_diagonal(block, 0.0)
        block.flags.writeable = False
        weights[b] = block
    return tuple(weights[b] for b in fitter)


def ols_coefficients(points, query_dist: QueryDistribution) -> np.ndarray:
    """Separability weights of OLS-with-intercept under a query distribution,
    one float64 per point: the error decomposes as h . sigma^2.

    h_i = sum over atoms of prob * w_i^2, with w the prediction-weight vector
    at the atom.  Raises IllDefinedEstimatorError on rank-deficient designs.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if query_dist.dimension != pts.shape[1]:
        raise ShapeError(f"query dimension {query_dist.dimension} does not match "
                         f"feature dimension {pts.shape[1]}")
    W = prediction_weights(pts, query_dist.points())
    with np.errstate(over="ignore", invalid="ignore"):  # validation reports nonfinite-demand
        return (W ** 2) @ query_dist.weights()


def g_value(points, query_dist: QueryDistribution, variances) -> float:
    """Expected squared prediction error: dot(h, variances)."""
    h = ols_coefficients(points, query_dist)
    return float(h @ _variances(variances, h.shape[0]))


def _variances(variances, n: int) -> np.ndarray:
    """variances as n floats, each finite and >= 0 (a scalar is a ShapeError)."""
    var = np.asarray(variances, dtype=float)
    if var.shape != (n,):
        raise ShapeError(f"variances of shape {var.shape} for {n} points")
    if not np.all((var >= 0) & (var < math.inf)):  # NaN fails both
        raise DomainError("variances must be finite and nonnegative")
    return var


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-index substream: results do not depend on execution
    order or parallel schedule.  A negative seed or index raises DomainError."""
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    if index < 0:
        raise DomainError(f"substream index must be a nonnegative integer, got {index}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@dataclass(frozen=True)
class SeparabilityReport:
    mc_mse: float
    predicted_mse: float
    standard_error: float
    trials: int
    seed: int


def validate_separability(points, query_dist: QueryDistribution, variances,
                          ground_truth, trials: int, seed: int) -> SeparabilityReport:
    """Monte-Carlo check of the error decomposition.

    Simulates `trials` datasets y = f(x) + eps with independent Gaussian
    noise of the given variances (f linear: coefficients + intercept), fits
    OLS to each, and compares the empirical expected squared error under the
    query distribution with dot(h, variances).
    """
    if trials < 1000:
        raise DomainError("separability validation needs trials >= 1000")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    var = _variances(variances, pts.shape[0])
    h = ols_coefficients(points, query_dist)
    predicted = float(h @ var)

    theta = np.asarray(ground_truth, dtype=float)  # d coefficients then intercept
    if theta.shape != (pts.shape[1] + 1,):
        raise ShapeError(f"ground truth needs {pts.shape[1]} coefficients "
                         "plus an intercept")
    if not np.all(np.isfinite(theta)):
        raise DomainError("ground truth coefficients must be finite")
    X = design_matrix(pts)
    gram = X.T @ X
    A = design_matrix(query_dist.points())
    probs = query_dist.weights()
    truth_at_atoms = A @ theta
    scale = np.sqrt(var)

    noise = np.empty((trials, pts.shape[0]))
    for t in range(trials):
        noise[t] = trial_stream(seed, t).normal(size=pts.shape[0])
    noise *= scale

    y = (X @ theta)[:, None] + noise.T           # (n, trials)
    coefs = np.linalg.solve(gram, X.T @ y)       # (d+1, trials)
    sq_err = (A @ coefs - truth_at_atoms[:, None]) ** 2
    per_trial = probs @ sq_err                   # (trials,)
    mc = float(per_trial.mean())
    se = float(per_trial.std(ddof=1) / math.sqrt(trials))
    return SeparabilityReport(mc_mse=mc, predicted_mse=predicted,
                              standard_error=se, trials=trials, seed=seed)
