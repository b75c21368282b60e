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

from .effort import effort_response
from .errors import DomainError, NonConvergenceError, NumericalFailureError
from .market import DerivedParameters

STATUS_UNIQUE = "unique_a_infinite_c"
STATUS_NONE = "none"
STATUS_BOUNDED = "converged_bounded"

#: Existence margin: spectral radii within this band of 1 are reported as
#: nonexistence with a marginal flag (near-singular systems certify nothing).
MARGINAL_BAND = 1e-9

#: Tolerated floating-point overshoot past a validated incentive bound.
BOUNDARY_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------

def spectral_radius(matrix, *, tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """Spectral radius of a nonnegative square matrix.

    Shift-free power iteration from the all-ones vector, certified each sweep
    by the Collatz-Wielandt interval [min_i (Mx)_i/x_i, max_i (Mx)_i/x_i]
    (valid brackets for any strictly positive x).  Structurally periodic
    matrices (every two-aggregator market) make that interval oscillate, so
    on stall the routine falls back to the row/column-sum bracket applied to
    repeatedly squared, normalized powers, which converges to the radius for
    every nonnegative matrix.
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
        if np.all(x > 0):
            ratios = y / x
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
        else:
            break  # lost strict positivity: certificate unavailable
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

def _effort_at(params: DerivedParameters, sid: str, a_total: float,
               *, clamp: bool) -> float:
    """Evaluate the effort map, absorbing floating-point overshoot at the
    validated incentive bounds.  With clamp=True (bounded solver only) values
    beyond the bounds are projected onto them."""
    bounds = params.bounds[sid]
    value = a_total
    if clamp:
        value = min(max(value, bounds.a_lower), bounds.a_upper)
    else:
        slack = BOUNDARY_SLACK * max(1.0, bounds.a_lower)
        if bounds.a_lower - slack <= value < bounds.a_lower:
            value = bounds.a_lower
        if bounds.bounded and bounds.a_upper < value <= bounds.a_upper + slack:
            value = bounds.a_upper
    return effort_response(params.effort_model(sid), value)


def _efforts_and_variances(params: DerivedParameters, a_total: dict[str, float],
                           *, clamp: bool) -> tuple[dict[str, float], dict[str, float]]:
    efforts, variances = {}, {}
    for sid in params.scenario.source_ids:
        e = _effort_at(params, sid, a_total[sid], clamp=clamp)
        efforts[sid] = e
        s = params.effort_model(sid).sigma(e)
        variances[sid] = s * s
    return efforts, variances


def _pair_dict(params: DerivedParameters, a_vec: np.ndarray) -> dict[tuple[str, str], float]:
    return {pair: float(v) for pair, v in zip(params.pairs, a_vec)}


def _a_total(params: DerivedParameters, a: dict[tuple[str, str], float]) -> dict[str, float]:
    return {sid: sum(a[(sid, bid)] for bid in params.scenario.sources_by_id[sid].sharing)
            for sid in params.scenario.source_ids}


def payment_floors(params: DerivedParameters, a: dict[tuple[str, str], float],
                   variances: dict[str, float]) -> dict[tuple[str, str], float]:
    """Expected penalty terms q_s^b = a_s^b * sum_i xi_b[s, i] * variance_i:
    the minimum constant term that keeps b's expected payment to s nonnegative."""
    floors = {}
    for (sid, bid) in params.pairs:
        coupling = sum(params.xi[bid][(sid, i)] * variances[i]
                       for i in params.scenario.dataset(bid))
        floors[(sid, bid)] = a[(sid, bid)] * coupling
    return floors


def _build_polytope(params: DerivedParameters, efforts: dict[str, float],
                    floors: dict[tuple[str, str], float]) -> dict[str, SourcePolytope]:
    polytope = {}
    for sid in params.scenario.source_ids:
        sharing = params.scenario.sources_by_id[sid].sharing
        per_b = {bid: floors[(sid, bid)] for bid in sharing}
        floor_sum = sum(per_b.values())
        polytope[sid] = SourcePolytope(
            surplus=efforts[sid],
            floors=per_b,
            total=floor_sum + efforts[sid],
            dimension=len(sharing) - 1)
    return polytope


def canonical_c(a: AParameters, params: DerivedParameters) -> dict[tuple[str, str], float]:
    """Proportional-surplus selection: each aggregator covers its own expected
    penalty plus a share of the source's effort proportional to its quality
    weight.  Always lies in the equilibrium polytope and binds the sources'
    participation constraint exactly."""
    clamp = params.effort_kind == "bounded"
    efforts, variances = _efforts_and_variances(params, a.a_total, clamp=clamp)
    floors = payment_floors(params, a.a, variances)
    c = {}
    for (sid, bid) in params.pairs:
        share = a.a[(sid, bid)] / a.a_total[sid]
        c[(sid, bid)] = floors[(sid, bid)] + share * efforts[sid]
    return c


def polytope_membership(c, a: AParameters, params: DerivedParameters,
                        tol: float = 1e-9):
    """Check whether a candidate c table lies in the equilibrium polytope of
    the given quality weights.  Returns (member, violations, dimensions)."""
    missing = set(params.pairs) ^ set(c)
    if missing:
        raise DomainError(f"candidate c table does not match the sharing "
                          f"structure (mismatched pairs: {sorted(missing)})")
    clamp = params.effort_kind == "bounded"
    efforts, variances = _efforts_and_variances(params, a.a_total, clamp=clamp)
    floors = payment_floors(params, a.a, variances)
    violations: list[str] = []
    dimensions: dict[str, int] = {}
    for sid in params.scenario.source_ids:
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

def _finish(params: DerivedParameters, a_dict: dict[tuple[str, str], float],
            status: str, diagnostics: SolveDiagnostics) -> EquilibriumResult:
    totals = _a_total(params, a_dict)
    clamp = status == STATUS_BOUNDED
    efforts, variances = _efforts_and_variances(params, totals, clamp=clamp)
    floors = payment_floors(params, a_dict, variances)
    a = AParameters(a=a_dict, a_total=totals)
    return EquilibriumResult(
        status=status, a=a,
        canonical_c=canonical_c(a, params),
        polytope=_build_polytope(params, efforts, floors),
        efforts=efforts, diagnostics=diagnostics)


def solve_unbounded(params: DerivedParameters) -> EquilibriumResult:
    """Solve the equilibrium system for unbounded effort sets.

    Returns status "none" (with diagnostics) when the coupling radius reaches
    1, else the unique quality weights via a direct LU solve of
    (I - Xi) a = gamma, with the c-degeneracy described by the polytope.
    """
    params.require_valid()
    if params.effort_kind != "unbounded":
        raise DomainError("solve_unbounded requires all effort sets unbounded")
    rho = spectral_radius(params.xi_matrix)
    if rho >= 1.0 - MARGINAL_BAND:
        diag = SolveDiagnostics(spectral_radius=rho, iterations=0,
                                max_residual=math.nan,
                                marginal=abs(rho - 1.0) < MARGINAL_BAND)
        return EquilibriumResult(status=STATUS_NONE, a=None, canonical_c=None,
                                 polytope=None, efforts=None, diagnostics=diag)

    n = len(params.pairs)
    system = np.eye(n) - params.xi_matrix
    try:
        a_vec = np.linalg.solve(system, params.gamma_vector)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"(I - Xi) is singular although the radius {rho} is below 1",
            condition=float(np.linalg.cond(system))) from exc
    residual = float(np.abs(a_vec - (params.xi_matrix @ a_vec + params.gamma_vector)).max())
    if residual >= 1e-9 or np.any(a_vec < -1e-9):
        raise NumericalFailureError(
            f"linear solve residual {residual} or negativity "
            f"{float(a_vec.min())} out of tolerance inside the existence regime",
            condition=float(np.linalg.cond(system)))
    a_vec = np.where(a_vec < 0, 0.0, a_vec)
    diag = SolveDiagnostics(spectral_radius=rho, iterations=1, max_residual=residual)
    return _finish(params, _pair_dict(params, a_vec), STATUS_UNIQUE, diag)


def _branch(params: DerivedParameters, a: dict[tuple[str, str], float],
            sid: str, bid: str) -> tuple[float, str]:
    """Best-response target for one (source, aggregator) coordinate, holding
    every other coordinate fixed, with the incentive interval enforced and
    negative demands floored at zero.  Returns (target, branch label)."""
    bounds = params.bounds[sid]
    sharing = params.scenario.sources_by_id[sid].sharing
    rivals_same_source = sum(a[(sid, j)] for j in sharing if j != bid)
    coupling = 0.0
    for j in sharing:
        if j == bid:
            continue
        for l in params.scenario.dataset(j):
            if l == sid:
                continue
            if bid not in params.scenario.sources_by_id[l].sharing:
                continue
            coupling += a[(l, j)] * params.xi[j][(l, sid)]
    interior = params.gamma[(sid, bid)] + coupling
    t = interior + rivals_same_source
    if t < bounds.a_lower:
        target, label = bounds.a_lower - rivals_same_source, "at-minimum"
    elif t > bounds.a_upper:
        target, label = bounds.a_upper - rivals_same_source, "at-maximum"
    else:
        target, label = interior, "interior"
    return max(0.0, target), label


def best_response_residual(params: DerivedParameters,
                           a: dict[tuple[str, str], float]) -> float:
    """Sup-norm distance of a quality-weight table from its own best-response
    targets; zero exactly at a bounded-game equilibrium."""
    worst = 0.0
    for (sid, bid) in params.pairs:
        worst = max(worst, abs(a[(sid, bid)] - _branch(params, a, sid, bid)[0]))
    return worst


def branch_profile(params: DerivedParameters,
                   a: dict[tuple[str, str], float]) -> dict[tuple[str, str], str]:
    """Which best-response branch each coordinate sits on ("interior",
    "at-minimum", "at-maximum"); all-interior means no clamp is active."""
    return {pair: _branch(params, a, pair[0], pair[1])[1] for pair in params.pairs}


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
    rho = spectral_radius(params.xi_matrix)
    sources, aggregators = zip(*params.pairs)
    source_index = {sid: k for k, sid in enumerate(params.scenario.source_ids)}
    owner = np.array([source_index[sid] for sid in sources])
    lower = np.array([params.bounds[sid].a_lower for sid in sources])
    upper = np.array([params.bounds[sid].a_upper for sid in sources])
    # each aggregator's pair indices, found without params.pair_index: that
    # cached_property writes to params.__dict__, which slows every later
    # attribute read on params (CPython 3.11), the certificate's included
    aggregators = np.array(aggregators)
    blocks = [np.flatnonzero(aggregators == bid) for bid in params.scenario.aggregator_ids]
    n_sources = len(source_index)
    a = params.gamma_vector.copy()  # start from the decoupled demands
    iterations = 0
    for iterations in range(1, max_iter + 1):
        residual = 0.0
        for blk in blocks:
            interior = params.gamma_vector[blk] + (params.xi_matrix @ a)[blk]
            own = a[blk]
            rivals = np.bincount(owner, weights=a, minlength=n_sources)[owner[blk]] - own
            t = interior + rivals
            target = np.where(t < lower[blk], lower[blk] - rivals,
                              np.where(t > upper[blk], upper[blk] - rivals, interior))
            delta = np.maximum(0.0, target) - own
            residual = max(residual, float(np.abs(delta).max(initial=0.0)))
            a[blk] += damping * delta
        if residual < tol:
            diag = SolveDiagnostics(spectral_radius=rho, iterations=iterations,
                                    max_residual=residual)
            return _finish(params, _pair_dict(params, a), STATUS_BOUNDED, diag)
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


def _worst_grid_deviation(params: DerivedParameters, a: dict[tuple[str, str], float],
                          totals: dict[str, float], grid) -> tuple[float, str]:
    """Largest improvement of any aggregator's reduced loss over the feasible
    single-coordinate deviations on the grid, and where it occurs ("" when no
    deviation improves).

    The reduced loss of aggregator b is its own estimation loss plus the
    payment obligations created by rivals' contracts plus the efforts it must
    help compensate; rival constant terms drop out.  It is linear in the
    variances and efforts.  Deviating a[(s, b)] by delta moves only a_total[s],
    hence only e_s and sigma_s^2, whose coefficient in b's loss is

        w_b[s] = gamma[s, b] + sum_{j != b} sum_{i in D_b & D_j} a[i, j] xi_j(i, s).

    Each deviation therefore improves b's loss by
    -(w_b[s] * (change in sigma_s^2) + (change in e_s)): one pass over the
    grid costs one effort evaluation per point.  The weights come from the xi
    tables, not from the solver's coupling matrix, so the check stays
    independent of it.  Feasibility is judged on the given totals, the loss
    on the totals of `a` itself.
    """
    clamp = params.effort_kind == "bounded"
    loss_totals = _a_total(params, a)
    efforts, variances = _efforts_and_variances(params, loss_totals, clamp=clamp)
    worst, worst_at = 0.0, ""
    for bid in params.scenario.aggregator_ids:
        weights = {sid: params.gamma[(sid, bid)] for sid in params.scenario.dataset(bid)}
        for i in params.scenario.dataset(bid):
            for j in params.scenario.sources_by_id[i].sharing:
                if j == bid:
                    continue
                a_ij, xi_j = a[(i, j)], params.xi[j]
                for l in params.scenario.dataset(j):
                    if l in weights:
                        weights[l] += a_ij * xi_j[(i, l)]
        for sid, weight in weights.items():
            a_sb = a[(sid, bid)]
            bounds = params.bounds[sid]
            model = params.effort_model(sid)
            for delta in grid:
                if delta == 0.0:
                    continue
                new_total = totals[sid] + delta
                if a_sb + delta < 0 or new_total < bounds.a_lower:
                    continue
                if clamp and new_total > bounds.a_upper:
                    continue
                e = _effort_at(params, sid, loss_totals[sid] + delta, clamp=clamp)
                sigma = model.sigma(e)
                improvement = -(weight * (sigma * sigma - variances[sid])
                                + (e - efforts[sid]))
                if improvement > worst:
                    worst = improvement
                    worst_at = f"aggregator {bid}, pair ({sid}, {bid}), delta {delta:+.3f}"
    return worst, worst_at


def certify_equilibrium(result: EquilibriumResult, params: DerivedParameters, *,
                        grid_radius: float = 0.5, grid_points: int = 11,
                        stationarity_tol: float = 1e-8,
                        improvement_tol: float = 1e-9) -> CertificateReport:
    """Independent verification of a solved equilibrium.

    (i) analytic stationarity (unbounded) or best-response branch consistency
    (bounded); (ii) no single-coordinate feasible deviation on a symmetric
    grid improves any aggregator's reduced loss; (iii) the canonical constant
    terms bind participation and keep payments nonnegative.
    """
    if not result.solved or result.a is None:
        raise DomainError("certification requires a solved equilibrium")
    a = result.a.a
    checks: list[CheckResult] = []

    if result.status == STATUS_UNIQUE:
        a_vec = np.array([a[p] for p in params.pairs])
        residual = float(np.abs(a_vec - (params.xi_matrix @ a_vec
                                         + params.gamma_vector)).max())
        checks.append(CheckResult(
            "stationarity", residual < stationarity_tol,
            f"fixed-point residual {residual:.3e} (tol {stationarity_tol:.1e})"))
    else:
        worst = best_response_residual(params, a)
        checks.append(CheckResult(
            "branch-consistency", worst < stationarity_tol,
            f"best-response residual {worst:.3e} (tol {stationarity_tol:.1e})"))

    totals = result.a.a_total
    # scaled after spacing, so the centre point is exactly 0 and skipped
    grid = grid_radius * np.linspace(-1.0, 1.0, grid_points)
    worst_improvement, worst_at = _worst_grid_deviation(params, a, totals, grid)
    checks.append(CheckResult(
        "best-response-grid", worst_improvement <= improvement_tol,
        f"largest grid improvement {worst_improvement:.3e}"
        + (f" at {worst_at}" if worst_at else "")))

    c = canonical_c(result.a, params)
    clamp = params.effort_kind == "bounded"
    efforts, variances = _efforts_and_variances(params, totals, clamp=clamp)
    floors = payment_floors(params, a, variances)
    worst_binding = 0.0
    payments_ok = True
    for sid in params.scenario.source_ids:
        sharing = params.scenario.sources_by_id[sid].sharing
        expected_total = sum(c[(sid, bid)] - floors[(sid, bid)] for bid in sharing)
        worst_binding = max(worst_binding, abs(expected_total - efforts[sid]))
        payments_ok &= all(c[(sid, bid)] - floors[(sid, bid)] >= -1e-12
                           for bid in sharing)
    checks.append(CheckResult(
        "participation-binding", worst_binding < 1e-9 and payments_ok,
        f"payment-vs-effort residual {worst_binding:.3e}, "
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
    like 1/(1 - alpha * rho)."""
    params.require_valid()
    if params.effort_kind != "unbounded":
        raise DomainError("alpha_sweep requires unbounded effort sets")
    rho_base = spectral_radius(params.xi_matrix)
    n = len(params.pairs)
    points = []
    for alpha in alphas:
        if alpha < 0 or not math.isfinite(alpha):
            raise DomainError(f"alpha must be finite and nonnegative, got {alpha}")
        rho = alpha * rho_base
        if rho >= 1.0 - MARGINAL_BAND:
            points.append(AlphaPoint(float(alpha), float(rho), STATUS_NONE, math.nan))
            continue
        a_vec = np.linalg.solve(np.eye(n) - alpha * params.xi_matrix,
                                params.gamma_vector)
        totals = _a_total(params, _pair_dict(params, a_vec))
        points.append(AlphaPoint(float(alpha), float(rho), STATUS_UNIQUE,
                                 float(max(totals.values()))))
    return points
