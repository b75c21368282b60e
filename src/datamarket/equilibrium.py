"""Generalized Nash equilibria of the aggregator game.

With unbounded effort sets the stationarity conditions of every aggregator's
reduced problem collapse to one linear system over (source, aggregator)
pairs,

    a = Xi a + gamma,

a Leontief-type system: a unique nonnegative solution exists iff the
spectral radius of Xi is below 1, and then the quality weights a are the
same in every equilibrium while the constant payment terms c are degenerate
inside a per-source polytope.  With bounded effort sets equilibria always
exist and are found by damped sequential best responses with explicit
clamping at the incentive bounds.

The module also provides a canonical (proportional-surplus) selection of c,
polytope membership tests, an independent certification harness (analytic
stationarity plus grid deviations of each aggregator's reduced loss), and a
coupling-strength sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, NumericalFailureError, ParseError
from .market import DerivedParameters, spectral_radius  # noqa: F401  (public here too)

STATUS_UNIQUE = "unique_a_infinite_c"
STATUS_NONE = "none"
STATUS_BOUNDED = "converged_bounded"

#: Existence margin: spectral radii within this band of 1 are reported as
#: nonexistence with a marginal flag (near-singular systems certify nothing).
MARGINAL_BAND = 1e-9

#: Tolerated floating-point overshoot past a validated incentive bound.
BOUNDARY_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AParameters:
    """Quality weights per (source, aggregator) pair and their per-source sums."""

    a: dict[tuple[str, str], float]
    a_total: dict[str, float]


@dataclass(frozen=True)
class SourcePolytope:
    """Feasible constant terms for one source: the simplex slice
    {c_s : sum_b c_s^b = total, c_s^b >= floors[b]} of dimension |B_s| - 1.
    The surplus (total minus the floor sum) equals the source's effort."""

    surplus: float
    floors: dict[str, float]
    total: float
    dimension: int


@dataclass(frozen=True)
class SolveDiagnostics:
    spectral_radius: float
    iterations: int
    max_residual: float
    marginal: bool = False


@dataclass(frozen=True)
class EquilibriumResult:
    status: str
    a: AParameters | None
    canonical_c: dict[tuple[str, str], float] | None
    polytope: dict[str, SourcePolytope] | None
    efforts: dict[str, float] | None
    diagnostics: SolveDiagnostics

    @property
    def solved(self) -> bool:
        return self.status in (STATUS_UNIQUE, STATUS_BOUNDED)


# ---------------------------------------------------------------------------
# Shared evaluation helpers
# ---------------------------------------------------------------------------

def _efforts_and_variances(params: DerivedParameters, a_total: np.ndarray,
                           index=None) -> tuple[np.ndarray, np.ndarray]:
    """Efforts and variances sigma^2 of the sources `index` (all, in order,
    when None) at totals a_total, snapped within BOUNDARY_SLACK of a bound
    and clamped on bounded markets."""
    efforts = params.effort_map.efforts(a_total, index, slack=BOUNDARY_SLACK,
                                        clamp=params.effort_kind == "bounded")
    sigmas = params.effort_map.sigma(efforts, index)
    return efforts, sigmas * sigmas


def _pair_dict(params: DerivedParameters, a_vec: np.ndarray) -> dict[tuple[str, str], float]:
    return {pair: float(v) for pair, v in zip(params.pairs, a_vec)}


def _vector(table, keys) -> np.ndarray:
    return np.array([table[key] for key in keys], dtype=float)


def _check_keys(scenario, a: AParameters, *tables) -> None:
    """Raise ParseError unless the weights a and each further (name, keys,
    kind) table are keyed by exactly the scenario's sharing pairs (kind
    "pair") or source ids (kind "source"), naming the first mismatch."""
    expected = {"pair": set(scenario.sharing_pairs()), "source": set(scenario.source_ids)}
    for name, keys, kind in (("a", a.a, "pair"), ("a_total", a.a_total, "source"), *tables):
        mismatched = set(keys) ^ expected[kind]
        if mismatched:
            first = min(mismatched)
            shown = first if kind == "source" else f"({first[0]}, {first[1]})"
            raise ParseError(f"{name} does not match the scenario: first mismatched "
                             f"{kind} {shown}", location="result")


def check_result_matches(result: EquilibriumResult, scenario) -> None:
    """Raise ParseError unless every table of a solved result is keyed by the
    scenario's sharing pairs or source ids, naming the first mismatch: a
    result of another market must not be read against this one."""
    floors = [(sid, bid) for sid, p in result.polytope.items() for bid in p.floors]
    _check_keys(scenario, result.a, ("canonical_c", result.canonical_c, "pair"),
                ("efforts", result.efforts, "source"), ("polytope floors", floors, "pair"))


def payment_floors(params: DerivedParameters, a: np.ndarray,
                   variances: np.ndarray) -> np.ndarray:
    """Expected penalty terms q_s^b = a_s^b * sum_i xi_b[s, i] * variance_i:
    the minimum constant term that keeps b's expected payment to s
    nonnegative.  `a` and the result run over params.pairs, `variances` over
    the source ids."""
    return a * (params.xi @ variances)[params.pair_aggregator, params.pair_source]


def _contract(params: DerivedParameters, a_vec: np.ndarray, a_total: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(efforts over the source ids, floors and canonical c over params.pairs)
    at quality weights a_vec with per-source totals a_total."""
    efforts, variances = _efforts_and_variances(params, a_total)
    floors = payment_floors(params, a_vec, variances)
    share = a_vec / a_total[params.pair_source]
    return efforts, floors, floors + share * efforts[params.pair_source]


def canonical_c(a: AParameters, params: DerivedParameters) -> dict[tuple[str, str], float]:
    """Proportional-surplus selection: each aggregator covers its own expected
    penalty plus a share of the source's effort proportional to its quality
    weight.  Always lies in the equilibrium polytope and binds the sources'
    participation constraint exactly.  Another market's weights raise ParseError."""
    _check_keys(params.scenario, a)
    c = _contract(params, _vector(a.a, params.pairs),
                  _vector(a.a_total, params.scenario.source_ids))[2]
    return _pair_dict(params, c)


def polytope_membership(c, a: AParameters, params: DerivedParameters,
                        tol: float = 1e-9):
    """Check whether a candidate c table lies in the equilibrium polytope of
    the given quality weights.  Returns (member, violations, dimensions).
    Weights or a c table of another market raise ParseError."""
    _check_keys(params.scenario, a, ("c", c, "pair"))
    sids = params.scenario.source_ids
    efforts, floors, _ = _contract(params, _vector(a.a, params.pairs),
                                   _vector(a.a_total, sids))
    efforts, floors = dict(zip(sids, efforts.tolist())), _pair_dict(params, floors)
    violations: list[str] = []
    dimensions: dict[str, int] = {}
    for sid in sids:
        sharing = params.scenario.sources_by_id[sid].sharing
        dimensions[sid] = len(sharing) - 1
        total = sum(c[(sid, bid)] for bid in sharing)
        expected = sum(floors[(sid, bid)] for bid in sharing) + efforts[sid]
        if abs(total - expected) > tol:
            violations.append(f"source {sid}: constant terms sum to {total}, "
                              f"equilibrium requires {expected}")
        for bid in sharing:
            if c[(sid, bid)] < floors[(sid, bid)] - tol:
                violations.append(f"pair ({sid}, {bid}): constant term "
                                  f"{c[(sid, bid)]} below floor {floors[(sid, bid)]}")
    return (not violations), tuple(violations), dimensions


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _finish(params: DerivedParameters, a_vec: np.ndarray,
            status: str, diagnostics: SolveDiagnostics) -> EquilibriumResult:
    """The result of quality weights a_vec; its id-keyed tables are built here."""
    sids = params.scenario.source_ids
    totals = np.bincount(params.pair_source, weights=a_vec)
    efforts, floors, c = _contract(params, a_vec, totals)
    polytope_totals = np.bincount(params.pair_source, weights=floors) + efforts
    per_source: dict[str, dict[str, float]] = {sid: {} for sid in sids}
    for (sid, bid), floor in zip(params.pairs, floors.tolist()):
        per_source[sid][bid] = floor
    polytope = {sid: SourcePolytope(surplus=e, floors=per_source[sid], total=t,
                                    dimension=len(per_source[sid]) - 1)
                for sid, e, t in zip(sids, efforts.tolist(), polytope_totals.tolist())}
    return EquilibriumResult(
        status=status,
        a=AParameters(a=_pair_dict(params, a_vec), a_total=dict(zip(sids, totals.tolist()))),
        canonical_c=_pair_dict(params, c), polytope=polytope,
        efforts=dict(zip(sids, efforts.tolist())), diagnostics=diagnostics)


def _solve_coupled(params: DerivedParameters, alpha: float) -> tuple[np.ndarray, float] | None:
    """(a over params.pairs, residual) solving a = alpha Xi a + gamma by LU,
    or None once alpha * rho(Xi) >= 1 - MARGINAL_BAND.  A singular, inaccurate
    or negative solve raises NumericalFailureError."""
    rho = alpha * params.spectral_radius
    if rho >= 1.0 - MARGINAL_BAND:
        return None
    # the bits of np.eye(n) - alpha * Xi, with no second n x n temporary
    system = np.multiply(params.xi_matrix, -alpha)
    system.flat[::len(system) + 1] += 1.0
    try:
        a_vec = np.linalg.solve(system, params.gamma)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"(I - alpha Xi) is singular at alpha={alpha} although alpha * rho = {rho} < 1",
            condition=float(np.linalg.cond(system))) from exc
    residual = float(np.abs(a_vec - (alpha * (params.xi_matrix @ a_vec)
                                     + params.gamma)).max())
    if residual >= 1e-9 or np.any(a_vec < -1e-9):
        raise NumericalFailureError(
            f"linear solve residual {residual} or negativity "
            f"{float(a_vec.min())} out of tolerance inside the existence regime",
            condition=float(np.linalg.cond(system)))
    return np.where(a_vec < 0, 0.0, a_vec), residual


def solve_unbounded(params: DerivedParameters) -> EquilibriumResult:
    """Solve the equilibrium system for unbounded effort sets.

    Returns status "none" (with diagnostics) when the coupling radius reaches
    1, else the unique quality weights via a direct LU solve of
    (I - Xi) a = gamma, with the c-degeneracy described by the polytope.
    """
    params.require_valid()
    if params.effort_kind != "unbounded":
        raise DomainError("solve_unbounded requires all effort sets unbounded")
    rho = params.spectral_radius
    solved = _solve_coupled(params, 1.0)
    if solved is None:
        diag = SolveDiagnostics(spectral_radius=rho, iterations=0,
                                max_residual=math.nan,
                                marginal=abs(rho - 1.0) < MARGINAL_BAND)
        return EquilibriumResult(status=STATUS_NONE, a=None, canonical_c=None,
                                 polytope=None, efforts=None, diagnostics=diag)
    a_vec, residual = solved
    diag = SolveDiagnostics(spectral_radius=rho, iterations=1, max_residual=residual)
    return _finish(params, a_vec, STATUS_UNIQUE, diag)


_BRANCHES = ("at-minimum", "interior", "at-maximum")


def _clamp(interior: np.ndarray, rivals: np.ndarray, lower: np.ndarray,
           upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(targets, branches indexing _BRANCHES) of coordinates (s, b) with the
    given interior targets: the incentive interval is enforced on the total
    interior + rivals, rivals = sum_{j != b} a[(s, j)], then targets floor at 0."""
    total = interior + rivals
    branch = np.where(total < lower, 0, np.where(total > upper, 2, 1))
    target = np.choose(branch, (lower - rivals, interior, upper - rivals))
    return np.maximum(0.0, target), branch


def _variance_weights(params: DerivedParameters, a_vec: np.ndarray) -> np.ndarray:
    """Per pair (s, b): the coefficient of sigma_s^2 in aggregator b's
    reduced loss,

        w_b[s] = gamma[s, b] + sum_{j != b} sum_{i in D_b & D_j} a[i, j] xi_j(i, s),

    read from the xi array, never from the solver's coupling matrix.  The
    terms i = s sum to the same source's weight at its other aggregators, so
    w_b[s] is also the best-response total (interior target plus rivals)."""
    membership = params.scenario.membership
    a_table = np.zeros(membership.shape)
    a_table[params.pair_source, params.pair_aggregator] = a_vec
    # a[i, j] * [i in D_b] * [j != b] * xi_j(i, s), summed over i and j
    coupling = np.einsum("ij,ib,jb,jis->bs", a_table, membership,
                         1.0 - np.eye(membership.shape[1]), params.xi)
    return params.gamma + coupling[params.pair_aggregator, params.pair_source]


def _targets(params: DerivedParameters, a_vec: np.ndarray, weights: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray]:
    """(targets, branches) over params.pairs: every coordinate's best-response
    target holding all others fixed, from the variance weights of a_vec."""
    rivals = np.bincount(params.pair_source, weights=a_vec)[params.pair_source] - a_vec
    return _clamp(weights - rivals, rivals, params.a_lower[params.pair_source],
                  params.a_upper[params.pair_source])


def _best_responses(params: DerivedParameters, a: dict[tuple[str, str], float]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, targets, branches) over params.pairs, from an id-keyed table."""
    a_vec = _vector(a, params.pairs)
    return (a_vec, *_targets(params, a_vec, _variance_weights(params, a_vec)))


def best_response_residual(params: DerivedParameters,
                           a: dict[tuple[str, str], float]) -> float:
    """Sup-norm distance of a quality-weight table from its own best-response
    targets; zero exactly at a bounded-game equilibrium."""
    a_vec, targets, _ = _best_responses(params, a)
    return float(np.abs(a_vec - targets).max(initial=0.0))


def branch_profile(params: DerivedParameters,
                   a: dict[tuple[str, str], float]) -> dict[tuple[str, str], str]:
    """Which best-response branch each coordinate sits on ("interior",
    "at-minimum", "at-maximum"); all-interior means no clamp is active."""
    _, _, branches = _best_responses(params, a)
    return {pair: _BRANCHES[k] for pair, k in zip(params.pairs, branches.tolist())}


def solve_bounded(params: DerivedParameters, *, damping: float = 0.5,
                  max_iter: int = 100_000, tol: float = 1e-10) -> EquilibriumResult:
    """Damped sequential best responses for bounded effort sets.

    Aggregators update in id order (Gauss-Seidel: later updates see earlier
    ones), each coordinate moving a `damping` fraction toward its
    best-response target.  One aggregator's coordinates update together, as
    one vector step: the target of (s, b) reads a[(s, j)] and a[(l, j)] only
    for j != b (the own-aggregator block of Xi is zero), so updating b's
    block at once gives exactly the coordinate-by-coordinate iterates, up to
    summation order.  Deterministic for fixed options.  Exhausting max_iter
    raises NonConvergenceError carrying the last iterate; existence is
    guaranteed, so non-convergence is a solver limitation, never a
    nonexistence claim.
    """
    params.require_valid()
    if params.effort_kind != "bounded":
        raise DomainError("solve_bounded requires all effort sets bounded")
    if not (0.0 < damping <= 1.0):
        raise DomainError(f"damping must lie in (0, 1], got {damping}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    if not (0.0 < tol < math.inf):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    lower, upper = params.a_lower[params.pair_source], params.a_upper[params.pair_source]
    blocks = [np.flatnonzero(params.pair_aggregator == b)
              for b in range(len(params.scenario.aggregator_ids))]
    block_rows = [params.xi_matrix[blk] for blk in blocks]  # sliced once, read per step
    a = params.gamma.copy()  # start from the decoupled demands
    iterations = 0
    for iterations in range(1, max_iter + 1):
        residual = 0.0
        for blk, xi_rows in zip(blocks, block_rows):
            interior = params.gamma[blk] + xi_rows @ a
            own = a[blk]
            totals = np.bincount(params.pair_source, weights=a)
            target, _ = _clamp(interior, totals[params.pair_source[blk]] - own,
                               lower[blk], upper[blk])
            delta = target - own
            residual = max(residual, float(np.abs(delta).max(initial=0.0)))
            a[blk] += damping * delta
        if residual < tol:
            diag = SolveDiagnostics(spectral_radius=params.spectral_radius,
                                    iterations=iterations, max_residual=residual)
            return _finish(params, a, STATUS_BOUNDED, diag)
    raise NonConvergenceError(
        f"best-response iteration did not reach tol={tol} within "
        f"{max_iter} sweeps (existence is guaranteed; consider more damping)",
        last_iterate=_pair_dict(params, a), residual=residual, iterations=iterations)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    checks: tuple[CheckResult, ...]

    def summary(self) -> str:
        lines = ["certified" if self.passed else "certification FAILED"]
        for c in self.checks:
            lines.append(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        return "\n".join(lines)


def _worst_grid_deviation(params: DerivedParameters, a_vec: np.ndarray,
                          totals: np.ndarray, grid, weights: np.ndarray
                          ) -> tuple[float, str]:
    """Largest improvement of any aggregator's reduced loss over the feasible
    single-coordinate deviations on the grid, and where it occurs ("" when no
    deviation improves).

    The reduced loss of aggregator b (own estimation loss, plus payment
    obligations created by rivals' contracts, plus the efforts it helps
    compensate) is linear in the variances and efforts.  Deviating a[(s, b)]
    by delta moves only a_total[s], hence only e_s and sigma_s^2, whose
    coefficient in b's loss is the variance weight w_b[s] (`weights`).  So
    the deviation improves b's loss by -(w_b[s] * (change in sigma_s^2) +
    (change in e_s)).  Efforts are evaluated once per (source, delta) that
    some pair may take, as one array.  Feasibility is judged on the given
    totals, the loss on the totals of `a_vec`.  The first of equal
    improvements is reported, visiting aggregators in id order, each one's
    sources in id order, then the grid in order.
    """
    grid = np.asarray(grid, dtype=float)
    order = np.argsort(params.pair_aggregator, kind="stable")
    source = params.pair_source[order]
    new_totals = totals[source, None] + grid
    infeasible = (a_vec[order, None] + grid < 0) | (new_totals < params.a_lower[source, None])
    if params.effort_kind == "bounded":
        infeasible |= new_totals > params.a_upper[source, None]
    feasible = (grid != 0.0) & ~infeasible
    loss_totals = np.bincount(params.pair_source, weights=a_vec)
    base_efforts, base_variances = _efforts_and_variances(params, loss_totals)
    efforts = np.repeat(base_efforts[:, None], len(grid), axis=1)
    variances = np.repeat(base_variances[:, None], len(grid), axis=1)
    rows, columns = np.nonzero(feasible)
    needed = np.zeros(efforts.shape, dtype=bool)
    needed[source[rows], columns] = True
    at, steps = np.nonzero(needed)
    efforts[at, steps], variances[at, steps] = _efforts_and_variances(
        params, loss_totals[at] + grid[steps], at)
    improvement = -(weights[order, None] * (variances[source] - base_variances[source, None])
                    + (efforts[source] - base_efforts[source, None]))
    improvement = np.where(feasible & (improvement > 0.0), improvement, 0.0)
    worst = float(improvement.max(initial=0.0))
    if worst == 0.0:
        return 0.0, ""
    best = int(np.argmax(improvement))  # the first maximum, in visiting order
    sid, bid = params.pairs[order[best // len(grid)]]
    return worst, f"aggregator {bid}, pair ({sid}, {bid}), delta {grid[best % len(grid)]:+.3f}"


def certify_equilibrium(result: EquilibriumResult, params: DerivedParameters, *,
                        grid_radius: float = 0.5, grid_points: int = 11,
                        stationarity_tol: float = 1e-8,
                        improvement_tol: float = 1e-9) -> CertificateReport:
    """Independent verification of a solved equilibrium.

    (i) analytic stationarity (unbounded) or best-response branch consistency
    (bounded); (ii) no single-coordinate feasible deviation on a symmetric
    grid improves any aggregator's reduced loss; (iii) the document's constant
    terms bind participation and keep payments nonnegative, and its efforts,
    totals and polytope are those its quality weights imply.  A result whose
    tables are not keyed by this scenario's pairs and sources raises
    ParseError.
    """
    if not result.solved or result.a is None:
        raise DomainError("certification requires a solved equilibrium")
    check_result_matches(result, params.scenario)
    sids = params.scenario.source_ids
    a_vec = _vector(result.a.a, params.pairs)
    totals = _vector(result.a.a_total, sids)
    weights = _variance_weights(params, a_vec)
    checks: list[CheckResult] = []

    if result.status == STATUS_UNIQUE:
        # sum_j a[s, j] - w_b[s] is a - (Xi a + gamma) at (s, b), read from xi
        sums = np.bincount(params.pair_source, weights=a_vec)[params.pair_source]
        residual = float(np.abs(sums - weights).max())
        checks.append(CheckResult(
            "stationarity", residual < stationarity_tol,
            f"fixed-point residual {residual:.3e} (tol {stationarity_tol:.1e})"))
    else:
        worst = float(np.abs(a_vec - _targets(params, a_vec, weights)[0]).max(initial=0.0))
        checks.append(CheckResult(
            "branch-consistency", worst < stationarity_tol,
            f"best-response residual {worst:.3e} (tol {stationarity_tol:.1e})"))

    # scaled after spacing, so the centre point is exactly 0 and skipped
    grid = grid_radius * np.linspace(-1.0, 1.0, grid_points)
    worst_improvement, worst_at = _worst_grid_deviation(params, a_vec, totals, grid,
                                                         weights)
    checks.append(CheckResult(
        "best-response-grid", worst_improvement <= improvement_tol,
        f"largest grid improvement {worst_improvement:.3e}"
        + (f" at {worst_at}" if worst_at else "")))

    # the document's c, efforts, totals and polytope, against values
    # recomputed from its quality weights and totals
    efforts, floors, _ = _contract(params, a_vec, totals)
    surplus = _vector(result.canonical_c, params.pairs) - floors
    claimed = _vector(result.efforts, sids)
    worst_binding = float(np.abs(np.bincount(params.pair_source, weights=surplus)
                                 - claimed).max())
    worst_effort = float(np.abs(claimed - efforts).max())
    worst_total = float(np.abs(totals - np.bincount(params.pair_source,
                                                    weights=a_vec)).max())
    polytope = result.polytope
    claimed_floors = np.array([polytope[sid].floors[bid] for sid, bid in params.pairs])
    claimed_sources = np.array([(polytope[sid].surplus, polytope[sid].total,
                                 polytope[sid].dimension) for sid in sids])
    implied_sources = np.column_stack((
        efforts, np.bincount(params.pair_source, weights=floors) + efforts,
        np.bincount(params.pair_source) - 1))
    worst_polytope = max(float(np.abs(claimed_floors - floors).max()),
                         float(np.abs(claimed_sources - implied_sources).max()))
    payments_ok = bool(np.all(surplus >= -1e-12))
    checks.append(CheckResult(
        "participation-binding",
        max(worst_binding, worst_effort, worst_total, worst_polytope) < 1e-9
        and payments_ok,
        f"payment-vs-effort residual {worst_binding:.3e}, "
        f"effort-vs-total residual {worst_effort:.3e}, "
        f"total-vs-a residual {worst_total:.3e}, "
        f"polytope residual {worst_polytope:.3e}, "
        f"nonnegative payments: {payments_ok}"))

    return CertificateReport(all(c.passed for c in checks), tuple(checks))


# ---------------------------------------------------------------------------
# Coupling sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaPoint:
    alpha: float
    rho: float
    status: str
    max_a_total: float


def alpha_sweep(params: DerivedParameters, alphas) -> list[AlphaPoint]:
    """Re-solve with the coupling matrix scaled by each alpha >= 0.

    The radius scales linearly, so existence flips to "none" once
    alpha * rho(Xi) reaches 1; approaching it from below the demands blow up
    like 1/(1 - alpha * rho).  A failed solve inside the existence regime
    raises NumericalFailureError, as in solve_unbounded."""
    params.require_valid()
    if params.effort_kind != "unbounded":
        raise DomainError("alpha_sweep requires unbounded effort sets")
    points = []
    for alpha in alphas:
        if alpha < 0 or not math.isfinite(alpha):
            raise DomainError(f"alpha must be finite and nonnegative, got {alpha}")
        solved = _solve_coupled(params, alpha)
        max_total = (math.nan if solved is None
                     else float(np.bincount(params.pair_source, weights=solved[0]).max()))
        points.append(AlphaPoint(float(alpha), float(alpha * params.spectral_radius),
                                 STATUS_NONE if solved is None else STATUS_UNIQUE, max_total))
    return points
