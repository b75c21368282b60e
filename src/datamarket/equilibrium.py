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
stationarity, an existence bound, and grid deviations of each aggregator's
reduced loss), and a coupling-strength sweep.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, NumericalFailureError, ParseError
from .market import (  # noqa: F401  (IdTable and spectral_radius are public here too)
    RADIUS_TOL,
    CouplingOperator,
    DerivedParameters,
    IdTable,
    _block_groups,
    _first_mismatch,
    spectral_radius,
)

STATUS_UNIQUE = "unique_a_infinite_c"
STATUS_NONE = "none"
STATUS_BOUNDED = "converged_bounded"

#: Existence margin: spectral radii within this band of 1 are reported as
#: nonexistence with a marginal flag (near-singular systems certify nothing).
MARGINAL_BAND = 1e-9

#: Tolerated floating-point overshoot past a validated incentive bound.
BOUNDARY_SLACK = 1e-9

#: Certificate tolerances: the stationarity or best-response residual, and
#: the largest tolerated improvement of a grid deviation.
STATIONARITY_TOL = 1e-8
IMPROVEMENT_TOL = 1e-9
#: Grid steps per unit of a source's least positive weight: |t| <= 0.5 keeps weights >= 0.
GRID_STEPS = (-0.5, -0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.5)

#: The contract rule shared by polytope_membership and the certificate's
#: participation-binding check: the largest tolerated constant-term residual,
#: and the most a constant term may fall below its floor (c >= floor - tol).
CONTRACT_TOL = 1e-9

#: The bounded solver's step: the damping that every reference pins.
BOUNDED_DAMPING = 0.5
#: Its sweep budget: only a stalled iteration reaches it.
BOUNDED_MAX_ITER = 100_000
#: Its stop: two orders below STATIONARITY_TOL, so its answers certify.
BOUNDED_TOL = 1e-10


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AParameters:
    """Quality weights per (source, aggregator) pair and their per-source sums."""

    a: Mapping[tuple[str, str], float]
    a_total: Mapping[str, float]


@dataclass(frozen=True)
class SolveDiagnostics:
    spectral_radius: float
    iterations: int
    max_residual: float
    marginal: bool = False


@dataclass(frozen=True)
class EquilibriumResult:
    """A solved market's tables (None when unsolved): IdTables over the
    market's pairs and source ids.  Any other mapping, or an IdTable over
    the ids in another order, is read through IdTable.of, the one id-order
    rule.  The polytope of constant terms is the market's: see
    polytope_membership."""

    status: str
    a: AParameters | None
    canonical_c: Mapping[tuple[str, str], float] | None
    efforts: Mapping[str, float] | None
    diagnostics: SolveDiagnostics

    @property
    def solved(self) -> bool:
        return self.status in (STATUS_UNIQUE, STATUS_BOUNDED)

    def arrays(self, pairs, sids) -> tuple[np.ndarray, ...]:
        """(a, a_total, canonical_c, efforts) over a market's pairs and
        source ids, each read by _aligned.  A result of another market raises
        ParseError naming the first mismatch."""
        return (_aligned(self.a.a, pairs, "a"), _aligned(self.a.a_total, sids, "a_total"),
                _aligned(self.canonical_c, pairs, "canonical_c"),
                _aligned(self.efforts, sids, "efforts"))


def _aligned(table, keys, name: str, location: str = "result",
             kind: str = "source") -> np.ndarray:
    """The table's array when its ids are `keys` (the market's pairs, or its
    ids of `kind`), after IdTable.of unless it is an IdTable over `keys`.  A
    missing, extra, repeated or wrongly kinded key (another market's table)
    raises ParseError at `location`, naming the first mismatch in id order."""
    if not (isinstance(table, IdTable) and (table.ids is keys or table.ids == keys)):
        table = IdTable.of(table)
        if table.ids != keys:
            first = _first_mismatch(keys, table.ids)
            shown = (f"pair ({', '.join(map(str, first))})" if isinstance(first, tuple)
                     else f"{kind} {first}")
            raise ParseError(f"{name} does not match the scenario: first mismatched {shown}",
                             location=location)
    return table.array


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


def _efforts_in_range(params: DerivedParameters, a_total: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(efforts, variances, in range) of every source at totals a_total,
    evaluated only where a total is in its incentive range (see
    _efforts_and_variances) and NaN elsewhere, where that would raise."""
    in_range = params.effort_map.in_range(a_total, slack=BOUNDARY_SLACK,
                                          clamp=params.effort_kind == "bounded")
    efforts, variances = np.full((2, len(a_total)), math.nan)
    at = np.flatnonzero(in_range)
    efforts[at], variances[at] = _efforts_and_variances(params, a_total[at], at)
    return efforts, variances, in_range


def payment_floors(params: DerivedParameters, a: np.ndarray,
                   variances: np.ndarray) -> np.ndarray:
    """Expected penalty terms q_s^b = a_s^b * sum_i xi_b[s, i] * variance_i:
    the minimum constant term that keeps b's expected payment to s
    nonnegative.  `a` and the result run over params.pairs, `variances` over
    the source ids."""
    penalty = variances[params.pair_source]  # the term i = s: xi_b(s, s) = 1
    for block, group in _block_groups(params.xi):  # each distinct block once
        spread = block @ variances[params.scenario.members[group[0]]]
        for j in group:
            penalty[params.aggregator_pairs[j]] += spread
    return a * penalty


def _contract(params: DerivedParameters, a_vec: np.ndarray, a_total: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(efforts over the source ids, floors and canonical c over params.pairs)
    at quality weights a_vec with per-source totals a_total."""
    efforts, variances = _efforts_and_variances(params, a_total)
    floors = payment_floors(params, a_vec, variances)
    share = a_vec / a_total[params.pair_source]
    return efforts, floors, floors + share * efforts[params.pair_source]


def canonical_c(a: AParameters, params: DerivedParameters) -> IdTable:
    """Proportional-surplus selection: each aggregator covers its own expected
    penalty plus a share of the source's effort proportional to its quality
    weight.  Always lies in the equilibrium polytope and binds the sources'
    participation constraint exactly.  Another market's weights raise ParseError."""
    c = _contract(params, _aligned(a.a, params.pairs, "a"),
                  _aligned(a.a_total, params.scenario.source_ids, "a_total"))[2]
    return IdTable(params.pairs, c)


def polytope_membership(c, a: AParameters, params: DerivedParameters):
    """Check whether a candidate c table lies in the equilibrium polytope of
    the given quality weights, within CONTRACT_TOL.  Returns (member,
    violations, dimensions); a NaN fails both tests.  Weights or a c table
    of another market raise ParseError."""
    sids = params.scenario.source_ids
    efforts, floors, _ = _contract(params, _aligned(a.a, params.pairs, "a"),
                                   _aligned(a.a_total, sids, "a_total"))
    c = _aligned(c, params.pairs, "c")
    totals = np.bincount(params.pair_source, weights=c)  # added in pair order
    expected = np.bincount(params.pair_source, weights=floors) + efforts
    off_sum, below = ~(np.abs(totals - expected) <= CONTRACT_TOL), ~(c >= floors - CONTRACT_TOL)
    violations: list[str] = []
    for k in np.flatnonzero(below | off_sum[params.pair_source]).tolist():
        (sid, bid), s = params.pairs[k], params.pair_source[k]
        if off_sum[s] and (k == 0 or params.pair_source[k - 1] != s):  # s's first pair
            violations.append(f"source {sid}: constant terms sum to {float(totals[s])}, "
                              f"equilibrium requires {float(expected[s])}")
        if below[k]:
            violations.append(f"pair ({sid}, {bid}): constant term "
                              f"{float(c[k])} below floor {float(floors[k])}")
    dimensions = dict(zip(sids, (np.bincount(params.pair_source) - 1).tolist()))
    return (not violations), tuple(violations), dimensions


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _finish(params: DerivedParameters, a_vec: np.ndarray,
            status: str, diagnostics: SolveDiagnostics) -> EquilibriumResult:
    """The result of quality weights a_vec, its tables over the market's
    pairs and source ids."""
    sids, pairs = params.scenario.source_ids, params.pairs
    totals = np.bincount(params.pair_source, weights=a_vec)
    efforts, _, c = _contract(params, a_vec, totals)
    return EquilibriumResult(
        status=status, a=AParameters(a=IdTable(pairs, a_vec), a_total=IdTable(sids, totals)),
        canonical_c=IdTable(pairs, c), efforts=IdTable(sids, efforts), diagnostics=diagnostics)


def _solve_coupled(params: DerivedParameters, alphas: list[float],
                   ) -> list[tuple[np.ndarray, float, int] | None]:
    """Per alpha, (a over params.pairs, residual, basis size) solving
    a = alpha Xi a + gamma, or None once alpha * rho(Xi) >= 1 - MARGINAL_BAND.

    alpha = 0 gives gamma.  The others read the market's one Krylov basis,
    params.krylov: V of D^-1 Xi D from g = gamma / d, with D = diag d for d =
    gamma + Xi gamma (a's first two terms at alpha = 1): scaled by gamma
    alone, a coupled pair with 1e4 times its rivals' demand left answers
    2.7e-12 off.  As D^-1 Xi D V_k = V_(k+1) H_bar, a = d * (V_k y) |g| for
    the y minimising |e_1 - (I_bar - alpha H_bar) y| = |r / d| / |g|, r a's
    residual (shifted GMRES: Saad and Schultz 1986, Frommer and Glassner
    1998).  k is the first basis size at which that minimum, Givens-updated
    per step for the largest alpha from the stored H (Saad 2003, sec.
    6.5.3), is at most float eps, or the size at which an invariant subspace
    or P vectors end the basis; the basis grows only past the steps an
    earlier reader grew, and k (so a) is the same whoever grew them.  Each
    answer is confirmed with one operator product, whose residual r
    (`residual` is max |r|) then refines it once on the same basis.  A
    residual above 1e-9 times max a, or a weight below -1e-9 times it (or
    NaN), raises NumericalFailureError naming alpha, 1 - alpha rho, k and
    the checks that failed, whose condition
    is cond(R) of I_bar - alpha H_bar = QR (inf for a non-finite R; 1 at
    alpha = 0, whose system is I): a Krylov estimate, as I - alpha Xi is
    never assembled."""
    xi, gamma, rho = params.coupling, params.gamma, params.spectral_radius
    answers = {0.0: (gamma, 0.0, 0, np.eye(1))}
    inside = sorted({alpha for alpha in alphas
                     if alpha > 0.0 and alpha * rho < 1.0 - MARGINAL_BAND})
    if inside:
        basis = params.krylov
        d, start = basis.d, basis.start
        top, rotations, residual, k = inside[-1], [], 1.0, 0
        while residual > np.finfo(float).eps and basis.grow(k + 1) > k:
            k += 1
            column = (-top * basis.H[:k + 1, k - 1]).tolist()  # of I_bar - top H_bar
            column[k - 1] += 1.0
            for i, (c, s) in enumerate(rotations):
                column[i], column[i + 1] = (c * column[i] + s * column[i + 1],
                                            c * column[i + 1] - s * column[i])
            norm = math.hypot(column[k - 1], column[k])
            rotations.append((column[k - 1] / norm, column[k] / norm))
            residual *= abs(column[k]) / norm
        V, H = basis.V, basis.H
        # every alpha's least-squares problem by one stacked QR; Q^T e_1 is Q's first row
        q, R = np.linalg.qr(np.eye(k + 1, k) - np.multiply.outer(inside, H[:k + 1, :k]))
        a = d * (np.linalg.solve(R, q[:, 0, :, None])[..., 0] @ V[:k] * np.linalg.norm(start))
        r = np.array([gamma + alpha * (xi @ row) - row for alpha, row in zip(inside, a)])
        rhs = np.einsum("pik,pi->pk", q, r / d @ V[:k + 1].T)  # Q^T V^T (r / d)
        a += d * (np.linalg.solve(R, rhs[..., None])[..., 0] @ V[:k])
        answers.update((alpha, (row, float(np.abs(res).max()), k, factor))
                       for alpha, row, res, factor in zip(inside, a, r, R))
    solved = []
    for alpha in alphas:
        if alpha not in answers:
            solved.append(None)
            continue
        a_vec, residual, k, factor = answers[alpha]
        tolerance = 1e-9 * float(np.abs(a_vec).max())  # relative to a: scale-free
        least = float(a_vec.min())
        failed = [f"residual {residual} exceeds {tolerance}"] if not residual <= tolerance else []
        if not least >= -tolerance:  # NaN fails both checks
            failed.append(f"negativity {least} is below -{tolerance}")
        if failed:
            raise NumericalFailureError(
                f"linear solve at alpha {alpha} (1 - alpha rho = {1.0 - alpha * rho}, basis "
                f"size {k}): {' and '.join(failed)} (1e-9 of max |a|) in the existence regime",
                condition=float(np.linalg.cond(factor)) if np.isfinite(factor).all() else math.inf)
        solved.append((np.where(a_vec < 0, 0.0, a_vec), residual, k))
    return solved


def solve_unbounded(params: DerivedParameters) -> EquilibriumResult:
    """Solve the equilibrium system for unbounded effort sets.

    Returns status "none" (with diagnostics) when the coupling radius reaches
    1, else the unique quality weights of a = Xi a + gamma, with the
    c-degeneracy described by the polytope.  They are _solve_coupled's
    one-point answer at alpha = 1, read from one Krylov basis of
    CouplingOperator products.  diagnostics.iterations is the basis size,
    and 0 on status "none".
    """
    params.validation.require_ok()
    if params.effort_kind != "unbounded":
        raise DomainError("solve_unbounded requires all effort sets unbounded")
    rho = params.spectral_radius
    (solved,) = _solve_coupled(params, [1.0])
    if solved is None:
        diag = SolveDiagnostics(spectral_radius=rho, iterations=0,
                                max_residual=math.nan,
                                marginal=abs(rho - 1.0) < MARGINAL_BAND)
        return EquilibriumResult(status=STATUS_NONE, a=None, canonical_c=None,
                                 efforts=None, diagnostics=diag)
    a_vec, residual, products = solved
    diag = SolveDiagnostics(spectral_radius=rho, iterations=products, max_residual=residual)
    return _finish(params, a_vec, STATUS_UNIQUE, diag)


_BRANCHES = ("at-minimum", "interior", "at-maximum")


def _best_response(params: DerivedParameters, a_vec: np.ndarray, totals: np.ndarray,
                   interior: np.ndarray, rows: slice | np.ndarray = slice(None),
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(targets, branches indexing _BRANCHES, totals interior + rivals) of
    the pairs `rows` (all by default), at their interior targets gamma + Xi a
    and a_vec's per-source `totals`; each target holds all other coordinates
    fixed.  The incentive interval is enforced on the total, rivals =
    totals[s] - a[(s, b)], then targets floor at 0."""
    source = params.pair_source[rows]
    rivals = totals[source] - a_vec[rows]
    total = interior + rivals
    lower, upper = params.a_lower[source], params.a_upper[source]
    branch = np.where(total < lower, 0, np.where(total > upper, 2, 1))
    target = np.choose(branch, (lower - rivals, interior, upper - rivals))
    return np.maximum(0.0, target), branch, total


def _variance_weights(params: DerivedParameters, a_vec: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, targets, branches) over params.pairs: per pair (s, b), the
    coefficient of sigma_s^2 in aggregator b's reduced loss,

        w_b[s] = gamma[s, b] + sum_{j != b} sum_{i in D_b & D_j} a[i, j] xi_j(i, s),

    which is _best_response's total (its terms i = s, xi_j(s, s) = 1, are
    the rivals' sum), and b's best-response target and branch for s.  Xi a
    is read from the xi blocks, never from params.coupling."""
    interior = params.gamma + CouplingOperator(params.scenario, params.xi) @ a_vec
    targets, branches, weights = _best_response(
        params, a_vec, np.bincount(params.pair_source, weights=a_vec), interior)
    return weights, targets, branches


def best_response_residual(params: DerivedParameters,
                           a: Mapping[tuple[str, str], float]) -> float:
    """Sup-norm distance of a quality-weight table from its own best-response
    targets; zero exactly at a bounded-game equilibrium."""
    a_vec = _aligned(a, params.pairs, "a")
    return float(np.abs(a_vec - _variance_weights(params, a_vec)[1]).max(initial=0.0))


def branch_profile(params: DerivedParameters,
                   a: Mapping[tuple[str, str], float]) -> dict[tuple[str, str], str]:
    """Which best-response branch each coordinate sits on ("interior",
    "at-minimum", "at-maximum"); all-interior means no clamp is active."""
    branches = _variance_weights(params, _aligned(a, params.pairs, "a"))[2]
    return {pair: _BRANCHES[k] for pair, k in zip(params.pairs, branches.tolist())}


def solve_bounded(params: DerivedParameters) -> EquilibriumResult:
    """Damped sequential best responses for bounded effort sets.

    Aggregators update in id order (Gauss-Seidel: later updates see earlier
    ones), each coordinate moving a BOUNDED_DAMPING fraction toward its
    best-response target.  One aggregator's coordinates update together, as
    one vector step: the target of (s, b) reads a[(s, j)] and a[(l, j)] only
    for j != b, so this gives the coordinate-by-coordinate iterates up to
    summation order.  Each step reads (Xi a) at b's pairs afresh from
    params.coupling (CouplingOperator.at) and clamps by _best_response, the
    rule the certificate also checks; nothing is kept between steps.
    It stops once a sweep moves no coordinate by BOUNDED_TOL; the constants
    fix which point of a saturated source's set of equilibria it returns.
    Exhausting BOUNDED_MAX_ITER sweeps raises NonConvergenceError carrying
    the last iterate; existence is guaranteed, so non-convergence is a
    solver limitation, never a nonexistence claim.
    """
    params.validation.require_ok()
    if params.effort_kind != "bounded":
        raise DomainError("solve_bounded requires all effort sets bounded")
    a = params.gamma.copy()  # start from the decoupled demands
    with np.errstate(over="ignore"):  # a coupled sum past the float range clamps to upper
        for iterations in range(1, BOUNDED_MAX_ITER + 1):
            residual = 0.0
            for b, blk in enumerate(params.aggregator_pairs):
                interior = params.gamma[blk] + params.coupling.at(b, a)
                target = _best_response(params, a, np.bincount(params.pair_source, weights=a),
                                        interior, blk)[0]
                delta = target - a[blk]
                residual = max(residual, float(np.abs(delta).max(initial=0.0)))
                a[blk] += BOUNDED_DAMPING * delta
            if residual < BOUNDED_TOL:
                break
        else:
            raise NonConvergenceError(
                f"best-response iteration did not settle below {BOUNDED_TOL:.0e} within "
                f"{BOUNDED_MAX_ITER} sweeps (an equilibrium exists: a solver limitation)",
                last_iterate=IdTable(params.pairs, a), residual=residual, iterations=iterations)
    diag = SolveDiagnostics(spectral_radius=params.spectral_radius,
                            iterations=iterations, max_residual=residual)
    return _finish(params, a, STATUS_BOUNDED, diag)


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


def _worst_grid_deviation(params: DerivedParameters, a_vec: np.ndarray, totals: np.ndarray,
                          weights: np.ndarray, efforts: np.ndarray,
                          variances: np.ndarray) -> tuple[float, np.ndarray, str]:
    """Largest improvement of any aggregator's reduced loss over the scored
    single-coordinate deviations, which were scored (pairs in visiting order
    by GRID_STEPS), and where the largest occurs ("" when none improves).

    Source s steps by t * a_min[s], t in GRID_STEPS, a_min[s] its least
    positive weight; none without one, or with NaN `efforts` (a total out of
    range).  A step is scored where the total stays in the incentive range
    and the weight nonnegative.  The reduced loss of aggregator b (own
    estimation loss, plus payment obligations created by rivals' contracts,
    plus the efforts it helps compensate) is linear in the variances and
    efforts.  Deviating a[(s, b)] by delta moves only totals[s], hence only
    e_s and sigma_s^2, whose coefficient in b's loss is the variance weight
    w_b[s] (`weights`), so it improves b's loss by -(w_b[s] * (change in
    sigma_s^2) + (change in e_s)).  Efforts are evaluated once per (source,
    step) in range, as one array.  The first of equal improvements is
    reported, visiting aggregators, then their sources, in id order, then
    the steps in order.
    """
    order = np.argsort(params.pair_aggregator, kind="stable")
    source = params.pair_source[order]
    a_min = np.full(len(totals), math.nan)  # fmin skips NaN: stays NaN with no positive weight
    np.fmin.at(a_min, params.pair_source, np.where(a_vec > 0, a_vec, math.nan))
    deltas = a_min[:, None] * np.array(GRID_STEPS)
    shifted = totals[:, None] + deltas
    in_range = ((shifted >= params.a_lower[:, None]) & (shifted <= params.a_upper[:, None])
                & ~np.isnan(efforts)[:, None])  # a_upper is inf if unbounded
    grid_efforts = np.repeat(efforts[:, None], len(GRID_STEPS), axis=1)
    grid_variances = np.repeat(variances[:, None], len(GRID_STEPS), axis=1)
    at, steps = np.nonzero(in_range)
    grid_efforts[at, steps], grid_variances[at, steps] = _efforts_and_variances(
        params, shifted[at, steps], at)
    scored = in_range[source] & (a_vec[order, None] + deltas[source] >= 0)
    improvement = -(weights[order, None] * (grid_variances[source] - variances[source, None])
                    + (grid_efforts[source] - efforts[source, None]))
    improvement = np.where(scored & (improvement > 0.0), improvement, 0.0)
    worst = float(improvement.max(initial=0.0))
    if worst == 0.0:
        return 0.0, scored, ""
    best, step = divmod(int(np.argmax(improvement)), len(GRID_STEPS))  # the first maximum
    (sid, bid), s = params.pairs[order[best]], source[best]
    return worst, scored, (f"aggregator {bid}, pair ({sid}, {bid}), delta {deltas[s, step]:+.3e} "
                           f"({GRID_STEPS[step]:+.1f} x a_min {a_min[s]:.3e})")


def certify_equilibrium(result: EquilibriumResult, params: DerivedParameters) -> CertificateReport:
    """Independent verification of a solved equilibrium.

    (i) analytic stationarity max |a - (gamma + Xi a)| and the existence
    bound (unbounded effort sets) or branch consistency by the solver's own
    rule, _best_response, and the radius bracket (bounded), chosen by the
    market's effort sets; a document status other than that solver's fails
    the first check; (ii) no scored deviation of one weight by GRID_STEPS
    times its source's least positive weight improves any aggregator's
    reduced loss (see _worst_grid_deviation); (iii) the document's constant
    terms bind participation and keep payments nonnegative (c >= floor -
    CONTRACT_TOL, polytope_membership's rule), and its efforts are those
    its quality weights imply; a sum of its weights out of its source's
    incentive range fails (iii), naming the first such source, and no
    efforts are evaluated there.  It sums the weights per
    source once and reads the xi blocks, never Xi.  A result whose tables
    are not keyed by this scenario's pairs and sources raises ParseError.
    """
    if not result.solved or result.a is None:
        raise DomainError("certification requires a solved equilibrium")
    a_vec, _, claimed_c, claimed = result.arrays(params.pairs, params.scenario.source_ids)
    a_sum = np.bincount(params.pair_source, weights=a_vec)
    efforts, variances, in_range = _efforts_in_range(params, a_sum)
    coupled = CouplingOperator(params.scenario, params.xi) @ a_vec
    interior = params.gamma + coupled
    targets, _, weights = _best_response(params, a_vec, a_sum, interior)
    # Xi >= 0, a >= 0: lo, the least ratio (Xi a)_i / a_i over a_i > 0, and h, the
    # largest (inf at a_i <= 0 or NaN), bracket rho(Xi); only unbounded sets need h < 1
    ratios = np.divide(coupled, a_vec, out=np.full_like(a_vec, math.inf), where=a_vec > 0)
    lo, h, rho = float(ratios.min()), float(ratios.max()), result.diagnostics.spectral_radius
    in_bracket = lo - RADIUS_TOL <= rho <= h + RADIUS_TOL
    bracket = (f"Collatz-Wielandt bracket [{lo:.6e}, {h:.6e}] for spectral radius {rho:.6e} "
               f"(margin {RADIUS_TOL:.0e})")
    checks: list[CheckResult] = []
    # the market's effort sets, not the document's status, choose the checks;
    # a status that is not the market's fails the first one
    status = STATUS_BOUNDED if params.effort_kind == "bounded" else STATUS_UNIQUE
    relabelled = "" if result.status == status else (
        f"; status {result.status} is not this market's {status}")

    if status == STATUS_UNIQUE:
        gap = a_vec - interior  # a - (gamma + Xi a), Xi a read from xi
        residual = float(np.abs(gap).max())
        checks.append(CheckResult(
            "stationarity", residual < STATIONARITY_TOL and not relabelled,
            f"fixed-point residual {residual:.3e} (tol {STATIONARITY_TOL:.1e})" + relabelled))
        # h < 1 proves a unique a*, |a - a*|_a <= |r|_a / (1 - h), |v|_a = max_i |v_i| / a_i
        errors = np.divide(np.abs(gap), a_vec, out=np.full_like(a_vec, math.inf), where=a_vec > 0)
        bound = float(errors.max()) / (1.0 - h) if h < 1.0 else math.inf
        checks.append(CheckResult(
            "existence-bound", h < 1.0 and in_bracket,
            f"{bracket}, error bound |r|_a / (1 - h) {bound:.3e}"))
    else:
        worst = float(np.abs(a_vec - targets).max(initial=0.0))
        checks.append(CheckResult(
            "branch-consistency", worst < STATIONARITY_TOL and not relabelled,
            f"best-response residual {worst:.3e} (tol {STATIONARITY_TOL:.1e})" + relabelled))
        checks.append(CheckResult("radius-bracket", in_bracket, bracket))

    gain, scored, gain_at = _worst_grid_deviation(params, a_vec, a_sum, weights, efforts, variances)
    checks.append(CheckResult(
        "best-response-grid", gain <= IMPROVEMENT_TOL,
        f"largest grid improvement {gain:.3e} over {scored.sum()} scored deviations"
        + (f" at {gain_at}" if gain_at else "")))

    # the document's c and efforts, against values recomputed from its
    # quality weights; NaN anywhere fails the check
    floors = payment_floors(params, a_vec, variances)
    surplus = claimed_c - floors
    worst_binding = float(np.abs(np.bincount(params.pair_source, weights=surplus)
                                 - claimed).max())
    worst_effort = float(np.abs(claimed - efforts).max())
    payments_ok = bool(np.all(claimed_c >= floors - CONTRACT_TOL))
    out_of_range = ""
    if not in_range.all():
        k = int(np.argmin(in_range))
        out_of_range = (f", source {params.scenario.source_ids[k]}: total {float(a_sum[k])!r} "
                        f"outside its incentive range [{float(params.a_lower[k])!r}, "
                        f"{float(params.a_upper[k])!r}]")
    checks.append(CheckResult(
        "participation-binding",
        bool(np.max([worst_binding, worst_effort]) < CONTRACT_TOL)
        and payments_ok and bool(in_range.all()),
        f"payment-vs-effort residual {worst_binding:.3e}, "
        f"effort-vs-total residual {worst_effort:.3e}, "
        f"nonnegative payments: {payments_ok}" + out_of_range))

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
    """Re-solve with the coupling matrix scaled by each alpha >= 0, in order.

    The radius scales linearly, so existence flips to "none" once
    alpha * rho(Xi) reaches 1; approaching it from below the demands blow up
    like 1/(1 - alpha * rho).  Every alpha is checked before any solve: a
    negative or non-finite one raises DomainError before any product, and
    one whose alpha * rho is not finite once rho is read.  Then one
    _solve_coupled call serves them all from the market's one Krylov basis,
    grown past the steps the radius and earlier solves left only if its
    largest alpha needs more, plus one confirming operator product per
    point.  A point matches its one-point sweep to rounding.  A failed solve
    inside the existence regime raises NumericalFailureError, as in
    solve_unbounded."""
    params.validation.require_ok()
    if params.effort_kind != "unbounded":
        raise DomainError("alpha_sweep requires unbounded effort sets")
    alphas = list(alphas)
    for alpha in alphas:
        if alpha < 0 or not math.isfinite(alpha):
            raise DomainError(f"alpha must be finite and nonnegative, got {alpha}")
    rho = params.spectral_radius
    for alpha in alphas:
        if not math.isfinite(alpha * rho):
            raise DomainError(f"alpha {alpha} times the spectral radius {rho} is not finite")
    points = []
    for alpha, solved in zip(alphas, _solve_coupled(params, alphas)):
        max_total = (math.nan if solved is None
                     else float(np.bincount(params.pair_source, weights=solved[0]).max()))
        points.append(AlphaPoint(float(alpha), float(alpha * rho),
                                 STATUS_NONE if solved is None else STATUS_UNIQUE, max_total))
    return points
