"""Equilibrium solvers: spectral radius against a dense eigensolver oracle,
the closed-form symmetric fixture, bounded/unbounded agreement, polytope and
certification behavior."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    make_coupled_direct,
    make_line_scenario,
    make_random_direct,
    make_single_buyer_giant,
    make_symmetric_direct,
)

from datamarket.equilibrium import (
    STATUS_BOUNDED,
    STATUS_NONE,
    STATUS_UNIQUE,
    AParameters,
    SourcePolytope,
    _solve_coupled,
    alpha_sweep,
    canonical_c,
    certify_equilibrium,
    payment_floors,
    polytope_membership,
    solve_bounded,
    solve_unbounded,
    spectral_radius,
)
from datamarket import market
from datamarket.effort import effort_response, exponential_model
from datamarket.errors import (
    DomainError,
    GenerationError,
    NumericalFailureError,
    ParseError,
    ScenarioValidationError,
)
from datamarket.market import derive_parameters
from datamarket.results import xi_matrix_csv
from datamarket.scenario import GenerationSpec, generate_scenario
from datamarket.welfare import price_of_anarchy


class TestSpectralRadius:
    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The matrices handed to the eigenvalue fallback, which still runs."""
        calls = []
        original = market._eigenvalue_radius

        def counted(M):
            calls.append(M)
            return original(M)
        monkeypatch.setattr(market, "_eigenvalue_radius", counted)
        return calls

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_pairing_fixture(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        assert spectral_radius(params.xi_matrix) == pytest.approx(0.5, abs=1e-12)

    def test_nilpotent(self):
        m = np.array([[0.0, 3.0], [0.0, 0.0]])
        assert spectral_radius(m) == 0.0

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            spectral_radius(np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(DomainError):
            spectral_radius(np.ones((2, 3)))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_nonnegative_vs_eigvals(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        m = rng.uniform(0, 1, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        oracle = max(abs(np.linalg.eigvals(m)))
        assert spectral_radius(m) == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_periodic_bipartite_blocks(self, seed, fallbacks):
        # the structure every two-aggregator market produces: eigenvalues in
        # +/- pairs, where power iteration from ones oscillates; from the
        # Ritz vector of +rho the first bracket is already closed
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 5))
        B = rng.uniform(0, 1, size=(k, k))
        C = rng.uniform(0, 1, size=(k, k))
        m = np.block([[np.zeros((k, k)), B], [C, np.zeros((k, k))]])
        oracle = max(abs(np.linalg.eigvals(m)))
        assert spectral_radius(m) == pytest.approx(oracle, rel=1e-8, abs=1e-10)
        assert len(fallbacks) == 0

    def test_reducible_distinct_blocks(self, fallbacks):
        m = np.array([[0.9, 0.0, 0.3],
                      [0.0, 0.4, 0.2],
                      [0.0, 0.0, 0.4]])
        assert spectral_radius(m) == pytest.approx(0.9, rel=1e-8)
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_operator_input_is_checked(self, bad):
        scenario = make_symmetric_direct()
        xi = derive_parameters(scenario).xi.copy()
        xi[0, 0, 1] = bad  # inside the first aggregator's stored block
        with pytest.raises(DomainError):
            spectral_radius(market.CouplingOperator(scenario, xi))

    def test_stalled_market_matches_eigvals(self, fallbacks):
        # a two-aggregator direct market (P = 100 pairs) stalls the bracket
        # when started from ones; the Ritz start certifies it
        params = derive_parameters(generate_scenario(
            GenerationSpec(50, 2, mode="direct", coupling_scale=0.002), 0))
        oracle = max(abs(np.linalg.eigvals(params.xi_matrix)))
        assert abs(spectral_radius(params.xi_matrix) - oracle) <= 1e-12 * oracle
        assert len(fallbacks) == 0

    def test_nilpotent_chain(self):
        m = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        assert spectral_radius(m) == 0.0

    @pytest.mark.parametrize("spec", [
        *(GenerationSpec(n, m, family="mixed")
          for n in (32, 40, 48) for m in (3, 4)),
        *(GenerationSpec(n, 4, family="mixed", bounded=True) for n in (64, 80, 96)),
    ], ids=lambda spec: f"n{spec.n_sources}-m{spec.n_aggregators}"
                        f"{'-bounded' if spec.bounded else ''}")
    def test_products_per_radius(self, spec, monkeypatch):
        # the benchmark's certify and best-response shapes: the Arnoldi pass
        # and one or two sweeps, where a start from ones took 54-75 products
        params = derive_parameters(generate_scenario(spec, 0))
        expected = params.spectral_radius  # read before the counter, uncounted
        products = []
        original = market.CouplingOperator.__matmul__

        def counted(self, a):
            products.append(1)
            return original(self, a)
        monkeypatch.setattr(market.CouplingOperator, "__matmul__", counted)
        rho = spectral_radius(market.CouplingOperator(params.scenario, params.xi))
        assert abs(rho - expected) <= market.RADIUS_TOL * max(1.0, rho)
        assert len(products) <= 20


class TestSpectralRadiusOverTheSupport:
    """A zero row of Xi (a source selling to one aggregator) leaves the power
    iterate with zero entries; the bracket over its support is still exact,
    so no eigenvalue fallback is needed."""

    @pytest.fixture(autouse=True)
    def no_fallback(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvalue fallback taken")
        monkeypatch.setattr(market, "_eigenvalue_radius", refuse)

    def test_zero_row_feeding_a_positive_block(self):
        m = np.array([[0.0, 0.0, 0.0],
                      [0.7, 0.2, 0.5],
                      [0.3, 0.4, 0.1]])
        oracle = max(abs(np.linalg.eigvals(m)))
        assert abs(spectral_radius(m) - oracle) <= 1e-10

    def test_half_sharing_market(self):
        params = derive_parameters(generate_scenario(
            GenerationSpec(40, 4, dimension=2, sharing_density=0.6), 1))
        assert not params.xi_matrix.any(axis=1).all()  # a single-buyer source
        oracle = max(abs(np.linalg.eigvals(params.xi_matrix)))
        assert abs(spectral_radius(params.xi_matrix) - oracle) <= 1e-10


class TestSolveUnbounded:
    def test_single_aggregator_demands_are_the_solution(self):
        params = derive_parameters(make_line_scenario(n_aggregators=1))
        result = solve_unbounded(params)
        assert result.status == STATUS_UNIQUE
        for pair in params.pairs:
            assert result.a.a[pair] == pytest.approx(params.gamma[params.pair_index[pair]],
                                                     abs=1e-14)

    def test_symmetric_fixture_closed_form(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        assert result.status == STATUS_UNIQUE
        assert result.diagnostics.spectral_radius == pytest.approx(0.5, abs=1e-12)
        for pair in params.pairs:
            assert result.a.a[pair] == pytest.approx(2.0, rel=1e-12)
        for sid in ("s1", "s2"):
            assert result.a.a_total[sid] == pytest.approx(4.0, rel=1e-12)
            assert result.efforts[sid] == pytest.approx(math.log(4.0), rel=1e-12)

    def test_unit_coupling_has_no_equilibrium(self):
        params = derive_parameters(make_symmetric_direct(xi_offdiag=1.0))
        result = solve_unbounded(params)
        assert result.status == STATUS_NONE
        assert result.a is None
        assert result.diagnostics.marginal

    def test_supercritical_coupling(self):
        params = derive_parameters(make_symmetric_direct(xi_offdiag=1.4))
        result = solve_unbounded(params)
        assert result.status == STATUS_NONE
        assert result.diagnostics.spectral_radius == pytest.approx(1.4, rel=1e-9)
        assert not result.diagnostics.marginal

    @pytest.mark.parametrize("seed", range(10))
    def test_fixed_point_and_demand_floor_random(self, seed):
        rng = np.random.default_rng(seed)
        scn = make_random_direct(rng, n=int(rng.integers(1, 5)),
                                 m=int(rng.integers(1, 5)))
        params = derive_parameters(scn)
        result = solve_unbounded(params)
        if result.status == STATUS_NONE:
            assert result.diagnostics.spectral_radius >= 1 - 1e-9
            return
        a_vec = np.array([result.a.a[p] for p in params.pairs])
        residual = np.abs(a_vec - (params.xi_matrix @ a_vec + params.gamma)).max()
        assert residual < 1e-9
        for k, pair in enumerate(params.pairs):
            assert result.a.a[pair] >= params.gamma[k] - 1e-12
        for sid, demand in zip(params.scenario.source_ids, params.gamma_total):
            assert result.a.a_total[sid] >= demand - 1e-12

    def test_refuses_invalid_scenario(self):
        scn = make_symmetric_direct(beta_value=0.25)  # demand below minimum
        params = derive_parameters(scn, require_valid=False)
        with pytest.raises(ScenarioValidationError):
            solve_unbounded(params)

    def test_refuses_bounded_sets(self):
        params = derive_parameters(make_symmetric_direct(e_max=1.0))
        with pytest.raises(DomainError):
            solve_unbounded(params)


class TestCanonicalC:
    def test_symmetric_fixture_values(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        for pair in params.pairs:
            assert result.canonical_c[pair] == pytest.approx(
                0.75 + 0.5 * math.log(4.0), rel=1e-12)
        member, violations, dims = polytope_membership(
            result.canonical_c, result.a, params)
        assert member and not violations
        assert dims == {"s1": 1, "s2": 1}

    def test_equal_split_of_surplus(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        for sid in ("s1", "s2"):
            shares = [result.canonical_c[(sid, bid)] - result.polytope[sid].floors[bid]
                      for bid in ("b1", "b2")]
            assert shares[0] == pytest.approx(shares[1], rel=1e-12)
            assert sum(shares) == pytest.approx(result.efforts[sid], rel=1e-12)

    def test_participation_binds_at_canonical_c(self):
        rng = np.random.default_rng(5)
        scn = make_random_direct(rng, n=3, m=2)
        params = derive_parameters(scn)
        result = solve_unbounded(params)
        assert result.status == STATUS_UNIQUE
        for sid in params.scenario.source_ids:
            sharing = params.scenario.sources_by_id[sid].sharing
            expected_payment = sum(
                result.canonical_c[(sid, bid)] - result.polytope[sid].floors[bid]
                for bid in sharing)
            assert expected_payment == pytest.approx(result.efforts[sid], abs=1e-9)

    def test_extreme_point_is_also_an_equilibrium(self, symmetric_direct):
        # the degeneracy lets one aggregator fund a source's entire surplus
        # while the other pays only its floor; efforts are untouched because
        # they depend on the quality weights alone
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        extreme = dict(result.canonical_c)
        for sid in ("s1", "s2"):
            floors = result.polytope[sid].floors
            extreme[(sid, "b1")] = floors["b1"] + result.polytope[sid].surplus
            extreme[(sid, "b2")] = floors["b2"]
        member, violations, _ = polytope_membership(extreme, result.a, params)
        assert member, violations

    def test_membership_rejects_shifted_entry(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        shifted = dict(result.canonical_c)
        shifted[("s1", "b1")] += 0.1
        member, violations, _ = polytope_membership(shifted, result.a, params)
        assert not member
        assert any("s1" in v and "sum" in v for v in violations)

    def test_membership_lists_every_violation_in_source_order(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        c = dict(result.canonical_c)
        c[("s1", "b2")] = -1.0          # below its floor, and off the sum
        c[("s2", "b1")] += 1.0          # the sum holds; b2's term falls below its floor
        c[("s2", "b2")] -= 1.0
        p1, p2 = result.polytope["s1"], result.polytope["s2"]
        member, violations, _ = polytope_membership(c, result.a, params)
        assert not member
        assert violations == (
            f"source s1: constant terms sum to {c[('s1', 'b1')] + c[('s1', 'b2')]}, "
            f"equilibrium requires {p1.total}",
            f"pair (s1, b2): constant term -1.0 below floor {p1.floors['b2']}",
            f"pair (s2, b2): constant term {c[('s2', 'b2')]} below floor {p2.floors['b2']}")

    @pytest.mark.parametrize("pair", [("s1", "b1"), ("s2", "b2")])
    def test_membership_rejects_nan_entry(self, symmetric_direct, pair):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        c = dict(result.canonical_c)
        c[pair] = math.nan
        member, violations, _ = polytope_membership(c, result.a, params)
        assert not member
        assert violations == (
            f"source {pair[0]}: constant terms sum to nan, "
            f"equilibrium requires {result.polytope[pair[0]].total}",
            f"pair ({pair[0]}, {pair[1]}): constant term nan below floor "
            f"{result.polytope[pair[0]].floors[pair[1]]}")

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_membership_refuses_a_bad_tolerance(self, symmetric_direct, tol):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        shifted = dict(result.canonical_c)
        shifted[("s1", "b1")] += 5.0
        with pytest.raises(DomainError, match="tolerance"):
            polytope_membership(shifted, result.a, params, tol=tol)

    def test_single_aggregator_polytope_is_a_point(self):
        params = derive_parameters(make_line_scenario(n_aggregators=1))
        result = solve_unbounded(params)
        assert all(p.dimension == 0 for p in result.polytope.values())


class TestWeightsOfAnotherMarket:
    # the weights of an 8-source market read against a 9-source one
    @pytest.mark.parametrize("check", ["canonical_c", "polytope_membership",
                                       "polytope_membership_c"])
    def test_parse_error_naming_the_pair(self, check):
        ra, rb = (solve_unbounded(derive_parameters(generate_scenario(GenerationSpec(n, 2), 0)))
                  for n in (8, 9))
        params_b = derive_parameters(generate_scenario(GenerationSpec(9, 2), 0))
        with pytest.raises(ParseError, match=r"first mismatched pair \(s009, b001\)"):
            if check == "canonical_c":
                canonical_c(ra.a, params_b)
            elif check == "polytope_membership":
                polytope_membership(rb.canonical_c, ra.a, params_b)
            else:  # the weights match, the c table is another market's
                polytope_membership(ra.canonical_c, rb.a, params_b)


class TestCoupledSolve:
    def test_one_spectral_radius_per_parameters(self, monkeypatch):
        calls = []
        original = market.spectral_radius

        def counted(matrix, **options):
            calls.append(matrix.shape)
            return original(matrix, **options)

        monkeypatch.setattr(market, "spectral_radius", counted)
        unbounded = derive_parameters(generate_scenario(GenerationSpec(8, 2), 0))
        bounded = derive_parameters(make_symmetric_direct(e_max=math.log(3.0)))
        assert calls == []  # derivation reads no radius
        solve_unbounded(unbounded)
        points = alpha_sweep(unbounded, [0.5, 1.0, 1e9])
        solve_unbounded(unbounded)
        assert [p.status for p in points] == [STATUS_UNIQUE, STATUS_UNIQUE, STATUS_NONE]
        solve_bounded(bounded)
        solve_bounded(bounded)
        assert calls == [unbounded.xi_matrix.shape, bounded.xi_matrix.shape]

    @pytest.mark.parametrize("failure", ["singular", "inaccurate", "nan"])
    def test_alpha_sweep_failed_solve(self, symmetric_direct, monkeypatch, failure):
        params = derive_parameters(symmetric_direct)

        def broken(system, rhs):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            if failure == "nan":
                return np.full_like(rhs, np.nan)
            return rhs  # the decoupled demands, off by the coupling

        monkeypatch.setattr(np.linalg, "solve", broken)
        with pytest.raises(NumericalFailureError):
            alpha_sweep(params, [0.5])


def _lu_answer(params, alpha=1.0):
    """a = alpha Xi a + gamma by one dense LU, the reference for both paths."""
    return np.linalg.solve(np.eye(len(params.gamma)) - alpha * params.xi_matrix,
                           params.gamma)


def _count_lu_calls(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(system, rhs):
        calls.append(system.shape)
        return solve(system, rhs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def _count_assemblies(monkeypatch):
    calls = []
    toarray = market.CouplingOperator.toarray

    def counted(self):
        calls.append(self.shape)
        return toarray(self)

    monkeypatch.setattr(market.CouplingOperator, "toarray", counted)
    return calls


def _scaled_demands(n, m, scale):
    """Direct-mode demands drawn from U(1, 2) times scale."""
    return np.random.default_rng(0).uniform(1.0, 2.0, size=(n, m)) * scale


# (market, alpha * rho of each sweep point, path of solve_unbounded, path of
# each sweep point).  Fixed-point products are predicted to cost less than one
# LU while log(eps) / log(alpha rho) < P // 4: 12 products at alpha rho =
# 0.05, 52 at 0.5, 101 at 0.7 and 342 at 0.9.
SOLVE_PATH_CASES = {
    # P = 240, rho = 0.13: about 18 products at alpha = 1, and within the
    # budget of 60 at alpha rho = 0.5; 0.999 takes the LU
    "generated": (lambda: generate_scenario(GenerationSpec(60, 4), 0),
                  (0.05, 0.5, 0.999), "fixed-point",
                  ("fixed-point", "fixed-point", "lu")),
    # P = 4: a budget of one product, below every prediction, so always the
    # LU, up to alpha = 1.99
    "symmetric": (make_symmetric_direct, (0.25, 0.5, 0.995), "lu", ("lu", "lu", "lu")),
    # P = 120, rho = 0.99: too close to 1 for a budget of 30 products
    "uniform-near-one": (lambda: make_coupled_direct(40, 3, lambda i, l: 0.99 / 78),
                         (0.05, 0.99), "lu", ("fixed-point", "lu")),
    # rho = 0.1 and a single-buyer source, decoupled, with 1e8 times the
    # others' demand: a step bound of eps * max(a) would stop the others
    # at a residual near 1e-8.  P = 241: alpha rho = 0.9 takes the LU
    "single-buyer-giant": (make_single_buyer_giant, (0.05, 0.5, 0.9), "fixed-point",
                           ("fixed-point", "fixed-point", "lu")),
    # rho = 0.1 with every demand near 1e8: both paths' residuals, a few ulps
    # of a, exceed 1e-9, which an absolute tolerance rejected.  P = 240
    "demands-near-1e8": (lambda: make_coupled_direct(
        80, 3, lambda i, l: 0.1 / 158,
        beta=lambda i, b, beta=_scaled_demands(80, 3, 1e8): beta[i, b]),
        (0.05, 0.5, 0.9), "fixed-point", ("fixed-point", "fixed-point", "lu")),
}


class TestSolvePaths:
    @pytest.mark.parametrize("case", sorted(SOLVE_PATH_CASES))
    def test_both_paths_agree_with_the_lu(self, case, monkeypatch):
        build, scaled_radii, solve_path, sweep_paths = SOLVE_PATH_CASES[case]
        params = derive_parameters(build())
        rho = params.spectral_radius
        alphas = [target / rho for target in scaled_radii]
        expected = [_lu_answer(params, alpha) for alpha in (1.0, *alphas)]
        lu_calls = _count_lu_calls(monkeypatch)

        result = solve_unbounded(params)
        a_vec = np.array([result.a.a[p] for p in params.pairs])
        np.testing.assert_allclose(a_vec, expected[0], rtol=1e-12, atol=0)
        # iterations counts the fixed-point products, or is 1 for the LU
        assert (result.diagnostics.iterations > 1) == (solve_path == "fixed-point")
        assert len(lu_calls) == (solve_path == "lu")

        for alpha, reference, path in zip(alphas, expected[1:], sweep_paths):
            del lu_calls[:]
            (point,) = alpha_sweep(params, [alpha])
            assert point.status == STATUS_UNIQUE
            total = np.bincount(params.pair_source, weights=reference).max()
            assert point.max_a_total == pytest.approx(total, rel=1e-12, abs=0)
            assert len(lu_calls) == (path == "lu"), (alpha * rho, path)

    def test_exhausted_budget_falls_through_to_the_lu(self, monkeypatch):
        # the chain (s, b) <- (s + 1, j != b) is nilpotent: rho = 0 predicts
        # one product, but the steps, doubling, vanish only after n = 12
        # products, past the budget P // 4 = 6
        n = 12
        params = derive_parameters(make_coupled_direct(
            n, 2, lambda i, l: 2.0 if i == l + 1 else 0.0))
        assert params.spectral_radius == 0.0
        lu_calls = _count_lu_calls(monkeypatch)
        result = solve_unbounded(params)
        assert result.diagnostics.iterations == 1 and len(lu_calls) == 1
        # a[(s, b)] = sum over t < n - s of 2^t
        closed_form = [2.0 ** (n - params.pair_source[k]) - 1.0
                       for k in range(len(params.pairs))]
        a_vec = np.array([result.a.a[p] for p in params.pairs])
        np.testing.assert_allclose(a_vec, closed_form, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale", [1e-6, 1e8])
    def test_inaccurate_answer_fails_at_every_scale(self, monkeypatch, scale):
        # an answer 1e-6 relative off fails the residual check whatever the
        # demands' scale; at 1e-6 its residual (~1e-12) is below an absolute
        # 1e-9.  A fixed-point answer cannot fail it: its stop rule bounds its
        # residual by eps * max(a).
        beta = _scaled_demands(20, 3, scale)
        params = derive_parameters(make_coupled_direct(  # minimum incentive 1e-6
            20, 3, lambda i, l: 0.1 / 38, lambda i, b: beta[i, b],
            model=exponential_model(1e3, 0.5)))
        solve = np.linalg.solve

        def inaccurate(system, rhs):
            return solve(system, rhs) * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "solve", inaccurate)
        with pytest.raises(NumericalFailureError, match="residual") as exc:
            solve_unbounded(params)  # P = 60 takes the LU
        assert exc.value.condition >= 1.0

    def test_fixed_point_path_holds_no_second_coupling_matrix(self):
        params = derive_parameters(generate_scenario(GenerationSpec(128, 4), 0))
        assert len(params.pairs) >= 500
        tracemalloc.start()
        try:
            result = solve_unbounded(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.diagnostics.iterations > 1
        assert peak < params.xi_matrix.nbytes

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(2, 40), m=st.integers(2, 4), seed=st.integers(0, 2**16))
    def test_weights_dominate_demand(self, n, m, seed):
        try:
            params = derive_parameters(generate_scenario(GenerationSpec(n, m), seed))
        except GenerationError:
            assume(False)
        assume(params.spectral_radius < 1.0 - 1e-9)
        result = solve_unbounded(params)
        a_vec = np.array([result.a.a[p] for p in params.pairs])
        assert np.all(a_vec >= params.gamma)


class TestOperatorSide:
    """Both solve paths read Xi through the one CouplingOperator of each
    market: the unbounded path assembles it only for an LU, and the bounded
    best responses never."""

    # (market, alpha * rho of each sweep point), each within the budget P // 4
    NEVER_ASSEMBLED = {
        # P = 192, the simulate-rounds market: 26 predicted products at
        # alpha rho = 0.25, within 48
        "n48-m4": (GenerationSpec(48, 4, family="mixed"), (0.25,)),
        # P = 512: 101 at alpha rho = 0.7, within 128
        "n128-m4": (GenerationSpec(128, 4), (0.5, 0.7)),
    }

    @pytest.fixture
    def scenario(self):
        return generate_scenario(GenerationSpec(128, 4), 0)

    @pytest.mark.parametrize("shape", sorted(NEVER_ASSEMBLED))
    def test_never_assembles(self, shape, monkeypatch):
        spec, targets = self.NEVER_ASSEMBLED[shape]
        scenario = generate_scenario(spec, 0)
        calls = _count_assemblies(monkeypatch)
        tracemalloc.start()
        try:
            params = derive_parameters(scenario)
            result = solve_unbounded(params)
            points = alpha_sweep(params, [target / params.spectral_radius
                                          for target in targets])
            price_of_anarchy(result, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        certificate = certify_equilibrium(result, params)
        assert calls == []
        assert isinstance(params.coupling, market.CouplingOperator)
        assert result.diagnostics.iterations > 1
        assert [p.status for p in points] == [STATUS_UNIQUE] * len(targets)
        assert certificate.passed
        dense_bytes = len(params.pairs) ** 2 * np.dtype(float).itemsize
        if len(params.pairs) >= 512:  # at P = 192 derivation alone peaks above Xi's size
            assert peak < dense_bytes
        # the dense Xi, read on demand, is the assembled one bit for bit
        matrix = params.xi_matrix
        assert len(calls) == 1
        np.testing.assert_array_equal(matrix, market.assemble_xi_matrix(scenario, params.xi)[0])

    @pytest.mark.parametrize("path", ["bounded", "unbounded-lu"])
    def test_one_operator_per_market(self, path, monkeypatch):
        # P = 512: the radius, the solve (best responses on the operator's
        # terms, or an LU at alpha rho = 0.9) and the xi_matrix.csv export
        # share one
        built = []
        init = market.CouplingOperator.__init__

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(market.CouplingOperator, "__init__", counted)
        params = derive_parameters(generate_scenario(
            GenerationSpec(128, 4, family="mixed", bounded=path == "bounded"), 0))
        assert len(params.pairs) == 512
        rho = params.spectral_radius
        if path == "bounded":
            assert solve_bounded(params).status == STATUS_BOUNDED
        else:
            (point,) = alpha_sweep(params, [0.9 / rho])
            assert point.status == STATUS_UNIQUE
        assert xi_matrix_csv(params).count("\n") == 513
        assert len(built) == 1

    def test_welfare_reads_the_one_operator(self, monkeypatch):
        # the efficiency predicate reads Xi's largest entry from the
        # operator's terms: one operator built on fresh parameters, no Xi
        spec = GenerationSpec(128, 4, family="mixed")
        result = solve_unbounded(derive_parameters(generate_scenario(spec, 0)))
        params = derive_parameters(generate_scenario(spec, 0))
        built, calls = [], _count_assemblies(monkeypatch)
        init = market.CouplingOperator.__init__

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(market.CouplingOperator, "__init__", counted)
        report = price_of_anarchy(result, params)
        assert len(built) == 1 and calls == []
        assert not report.efficient_possible

    def test_bounded_never_assembles(self, monkeypatch):
        # P = 512: best responses read the operator's terms, and hold no
        # second copy of Xi while they sweep
        calls = _count_assemblies(monkeypatch)
        params = derive_parameters(generate_scenario(
            GenerationSpec(128, 4, family="mixed", bounded=True), 0))
        assert len(params.pairs) == 512
        assert params.spectral_radius < 1.0
        tracemalloc.start()
        try:
            result = solve_bounded(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status == STATUS_BOUNDED
        assert certify_equilibrium(result, params).passed
        assert calls == []
        assert peak < len(params.pairs) ** 2 * np.dtype(float).itemsize

    def test_lu_point_matches_the_oracle(self, scenario, monkeypatch):
        params = derive_parameters(scenario)
        alpha = 0.9 / params.spectral_radius  # 343 predicted products
        expected = _lu_answer(params, alpha)
        lu_calls = _count_lu_calls(monkeypatch)
        a_vec, _, products = _solve_coupled(params, alpha)
        assert products == 1 and len(lu_calls) == 1
        np.testing.assert_allclose(a_vec, expected, rtol=1e-12, atol=0)
        (point,) = alpha_sweep(params, [alpha])
        total = np.bincount(params.pair_source, weights=expected).max()
        assert point.max_a_total == pytest.approx(total, rel=1e-12, abs=0)


class TestSolveBounded:
    def test_interior_solution_matches_unbounded(self):
        # cap far above the unconstrained total of 4
        bounded = derive_parameters(make_symmetric_direct(e_max=math.log(10.0)))
        unbounded = derive_parameters(make_symmetric_direct())
        rb = solve_bounded(bounded)
        ru = solve_unbounded(unbounded)
        assert rb.status == STATUS_BOUNDED
        for pair in bounded.pairs:
            assert rb.a.a[pair] == pytest.approx(ru.a.a[pair], abs=1e-8)

    def test_clamped_solution_saturates_total(self):
        # cap at a_upper = 3 below the unconstrained total of 4
        params = derive_parameters(make_symmetric_direct(e_max=math.log(3.0)))
        result = solve_bounded(params)
        assert result.status == STATUS_BOUNDED
        for sid in ("s1", "s2"):
            assert result.a.a_total[sid] == pytest.approx(3.0, abs=1e-8)
            assert result.efforts[sid] == pytest.approx(math.log(3.0), rel=1e-8)
        report = certify_equilibrium(result, params)
        assert report.passed, report.summary()

    def test_deterministic_iterates(self):
        params = derive_parameters(make_symmetric_direct(e_max=math.log(3.0)))
        r1 = solve_bounded(params, damping=0.4, tol=1e-10)
        r2 = solve_bounded(params, damping=0.4, tol=1e-10)
        assert r1.a.a == r2.a.a
        assert r1.diagnostics == r2.diagnostics

    def test_exists_even_with_supercritical_coupling(self):
        params = derive_parameters(make_symmetric_direct(xi_offdiag=1.4,
                                                         e_max=math.log(3.0)))
        result = solve_bounded(params)
        assert result.status == STATUS_BOUNDED
        for sid in ("s1", "s2"):
            assert result.a.a_total[sid] <= 3.0 + 1e-8

    def test_refuses_unbounded_sets(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        with pytest.raises(DomainError):
            solve_bounded(params)

    def test_bad_damping(self):
        params = derive_parameters(make_symmetric_direct(e_max=1.0))
        with pytest.raises(DomainError):
            solve_bounded(params, damping=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_unreachable_tolerance(self, tol):
        # no sweep can meet such a tol: all max_iter sweeps would run
        params = derive_parameters(make_symmetric_direct(e_max=math.log(3.0)))
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            solve_bounded(params, tol=tol)


class TestCertification:
    def test_certifies_symmetric_fixture(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        report = certify_equilibrium(result, params)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("market_kind", ["unbounded", "bounded", "partial-sharing"])
    def test_reads_no_coupling_matrix(self, market_kind):
        # the checks read the xi array only, so a NaN Xi, in either of the
        # forms the solvers read (assembled, operator), changes nothing
        spec = {"unbounded": GenerationSpec(8, 3, family="mixed"),
                "bounded": GenerationSpec(8, 3, family="mixed", bounded=True),
                "partial-sharing": GenerationSpec(10, 3, dimension=2, sharing_density=0.6)}
        params = derive_parameters(generate_scenario(spec[market_kind], 1))
        result = (solve_bounded if params.effort_kind == "bounded" else solve_unbounded)(params)
        expected = certify_equilibrium(result, params)
        blind = replace(params)  # the cached forms of Xi are not copied
        object.__setattr__(blind, "_xi_matrix", np.full_like(params.xi_matrix, np.nan))
        object.__setattr__(blind, "_coupling", market.CouplingOperator(
            params.scenario, np.full_like(params.xi, np.nan)))
        # NaN on every pair with coupling (a single-buyer source has none)
        assert np.isnan(blind.xi_matrix).all() and np.isnan(blind.coupling @ params.gamma).any()
        report = certify_equilibrium(result, blind)
        assert report.passed, report.summary()
        assert report == expected

    @pytest.mark.parametrize("offset", [0.1, -0.1])
    def test_fails_on_corrupted_a(self, symmetric_direct, offset):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        corrupted = dict(result.a.a)
        corrupted[("s1", "b1")] += offset
        totals = {sid: sum(corrupted[(sid, bid)] for bid in ("b1", "b2"))
                  for sid in ("s1", "s2")}
        bad = replace(result, a=AParameters(a=corrupted, a_total=totals))
        report = certify_equilibrium(bad, params)
        assert not report.passed
        stat = [c for c in report.checks if c.name == "stationarity"][0]
        assert not stat.passed

    def test_fails_on_efforts_not_following_from_totals(self, symmetric_direct):
        # every effort raised by 1 and every c raised by its share of that, so
        # the constant terms still pay exactly the claimed efforts
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        a, totals = result.a.a, result.a.a_total
        bad = replace(result,
                      efforts={sid: e + 1.0 for sid, e in result.efforts.items()},
                      canonical_c={(sid, bid): c + a[(sid, bid)] / totals[sid]
                                   for (sid, bid), c in result.canonical_c.items()})
        check = next(c for c in certify_equilibrium(bad, params).checks
                     if c.name == "participation-binding")
        assert not check.passed
        binding = float(check.detail.split("payment-vs-effort residual ")[1].split(",")[0])
        assert binding < 1e-9
        assert "effort-vs-total residual 1.000e+00" in check.detail

    @pytest.mark.parametrize("field", ["floors", "total", "surplus", "dimension"])
    def test_fails_on_corrupted_polytope(self, symmetric_direct, field):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        entry = result.polytope["s1"]
        corrupted = {"floors": {**entry.floors, "b1": entry.floors["b1"] + 5.0},
                     "total": entry.total + 5.0, "surplus": entry.surplus + 5.0,
                     "dimension": entry.dimension + 5}[field]
        bad = replace(result, polytope={**result.polytope,
                                        "s1": replace(entry, **{field: corrupted})})
        report = certify_equilibrium(bad, params)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["participation-binding"]
        assert "polytope residual 5.000e+00" in failed[0].detail

    def test_fails_on_totals_not_summing_a(self, symmetric_direct):
        # a_total of s1 raised by 0.1, with efforts, c (effort shares by the
        # sum of a) and polytope all following from the raised totals
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        sids = params.scenario.source_ids
        totals = dict(result.a.a_total, s1=result.a.a_total["s1"] + 0.1)
        efforts = {sid: effort_response(params.effort_model(sid), totals[sid])
                   for sid in sids}
        variances = np.array([params.effort_model(sid).sigma(efforts[sid]) ** 2
                              for sid in sids])
        a_vec = np.array([result.a.a[pair] for pair in params.pairs])
        floors = dict(zip(params.pairs, payment_floors(params, a_vec, variances)))
        a_sums = {sid: sum(v for (s, _), v in result.a.a.items() if s == sid) for sid in sids}
        c = {(sid, bid): floor + result.a.a[(sid, bid)] / a_sums[sid] * efforts[sid]
             for (sid, bid), floor in floors.items()}
        polytope = {sid: SourcePolytope(
            surplus=efforts[sid], floors={b: floors[(s, b)] for s, b in floors if s == sid},
            total=sum(floors[(s, b)] for s, b in floors if s == sid) + efforts[sid],
            dimension=p.dimension) for sid, p in result.polytope.items()}
        bad = replace(result, a=AParameters(a=result.a.a, a_total=totals),
                      canonical_c=c, efforts=efforts, polytope=polytope)
        report = certify_equilibrium(bad, params)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["participation-binding"]
        assert "total-vs-a residual 1.000e-01" in failed[0].detail

    @pytest.mark.parametrize("field", ["floors", "total", "surplus", "dimension"])
    def test_fails_on_nan_polytope_field(self, symmetric_direct, field):
        # the NaN sits in the last source, behind finite residuals
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        entry = result.polytope["s2"]
        nan = {**entry.floors, "b2": math.nan} if field == "floors" else math.nan
        bad = replace(result, polytope={**result.polytope,
                                        "s2": replace(entry, **{field: nan})})
        failed = [c for c in certify_equilibrium(bad, params).checks if not c.passed]
        assert [c.name for c in failed] == ["participation-binding"]
        assert "polytope residual nan" in failed[0].detail

    @pytest.mark.parametrize("direction", ["above", "below-a_lower"])
    def test_a_total_off_its_a_fails_instead_of_raising(self, direction):
        # a single-buyer source's total moved, a grid reaching past a_lower:
        # feasibility and effort are judged on the sum of a, so only the
        # total-vs-a residual notices
        params = derive_parameters(generate_scenario(
            GenerationSpec(8, 2, sharing_density=0.5), 0))
        result = solve_unbounded(params)
        sid = next(s for s, p in result.polytope.items() if p.dimension == 0)
        lower = params.effort_model(sid).incentive_bounds.a_lower
        total = result.a.a_total[sid]
        moved = total + 0.5 * (total - lower) if direction == "above" else 0.5 * lower
        bad = replace(result, a=AParameters(a=result.a.a,
                                            a_total={**result.a.a_total, sid: moved}))
        report = certify_equilibrium(bad, params, grid_radius=2.0 * moved, grid_points=201)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["participation-binding"]
        assert f"total-vs-a residual {abs(moved - total):.3e}" in failed[0].detail

    @pytest.mark.parametrize("options", [{"grid_points": 0}, {"grid_points": -1},
                                         {"grid_radius": 0.0}, {"grid_radius": -0.5},
                                         {"grid_radius": math.inf},
                                         {"grid_radius": math.nan}])
    def test_refuses_an_empty_or_unbounded_grid(self, symmetric_direct, options):
        params = derive_parameters(symmetric_direct)
        with pytest.raises(DomainError, match="grid"):
            certify_equilibrium(solve_unbounded(params), params, **options)

    def test_requires_solved_result(self):
        params = derive_parameters(make_symmetric_direct(xi_offdiag=1.0))
        result = solve_unbounded(params)
        with pytest.raises(DomainError):
            certify_equilibrium(result, params)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_certifies_random_solved_scenarios(self, seed):
        rng = np.random.default_rng(seed)
        scn = make_random_direct(rng, n=3, m=3, coupling=0.15)
        params = derive_parameters(scn)
        result = solve_unbounded(params)
        assert result.status == STATUS_UNIQUE
        report = certify_equilibrium(result, params)
        assert report.passed, report.summary()


class TestAlphaSweep:
    def test_zero_alpha_decouples(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        (point,) = alpha_sweep(params, [0.0])
        assert point.status == STATUS_UNIQUE
        assert point.max_a_total == pytest.approx(2.0, rel=1e-12)  # gamma total

    def test_closed_form_and_monotonicity(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        alphas = [0.5, 1.0, 1.9, 1.99, 1.999]
        points = alpha_sweep(params, alphas)
        maxima = [p.max_a_total for p in points]
        assert all(m2 > m1 for m1, m2 in zip(maxima, maxima[1:]))
        for alpha, point in zip(alphas, points):
            assert point.rho == pytest.approx(0.5 * alpha, rel=1e-10)
            assert point.max_a_total == pytest.approx(
                2.0 / (1.0 - 0.5 * alpha), rel=1e-6)

    def test_past_threshold_reports_none(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        p2, p25 = alpha_sweep(params, [2.0, 2.5])
        assert p2.status == STATUS_NONE and p25.status == STATUS_NONE
        assert math.isnan(p2.max_a_total)
