"""Equilibrium solvers: spectral radius against a dense eigensolver oracle,
the closed-form symmetric fixture, bounded/unbounded agreement, polytope and
certification behavior."""

import json
import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    by_id,
    count_assemblies,
    count_products,
    lu_answer,
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
    branch_profile,
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
from datamarket.results import result_from_json, result_to_json, xi_matrix_csv
from datamarket.scenario import GenerationSpec, generate_scenario
from datamarket.simulate import iter_rounds
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
        assert spectral_radius(params.coupling.toarray()) == pytest.approx(0.5, abs=1e-12)

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
        xi = [block.copy() for block in derive_parameters(scenario).xi]
        xi[0][0, 1] = bad  # inside the first aggregator's stored block
        with pytest.raises(DomainError):
            spectral_radius(market.CouplingOperator(scenario, xi))

    def test_stalled_market_matches_eigvals(self, fallbacks):
        # a two-aggregator direct market (P = 100 pairs) stalls the bracket
        # when started from ones; the Ritz start certifies it
        params = derive_parameters(generate_scenario(
            GenerationSpec(50, 2, mode="direct", coupling_scale=0.002), 0))
        matrix = params.coupling.toarray()
        oracle = max(abs(np.linalg.eigvals(matrix)))
        assert abs(spectral_radius(matrix) - oracle) <= 1e-12 * oracle
        assert len(fallbacks) == 0

    @pytest.mark.parametrize("reader", ["operator", "market"])
    def test_coupling_whose_products_overflow(self, reader):
        # a direct market at coupling scale 1e200 (rho = 4.6e200): the norms
        # of both Krylov bases overflow or underflow, so the bracket starts
        # from the ones vector
        params = derive_parameters(generate_scenario(
            GenerationSpec(6, 3, mode="direct", coupling_scale=1e200), 0))
        oracle = max(abs(np.linalg.eigvals(params.coupling.toarray())))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rho = (spectral_radius(params.coupling) if reader == "operator"
                   else params.spectral_radius)
        assert abs(rho - oracle) <= market.RADIUS_TOL * oracle

    def test_radius_past_the_float_range(self, fallbacks):
        # the power iterate overflows: the eigenvalues decide, and give inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert spectral_radius(np.full((2, 2), 1e308)) == math.inf
        assert len(fallbacks) == 1

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
        products = count_products(monkeypatch)
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
        matrix = params.coupling.toarray()
        assert not matrix.any(axis=1).all()  # a single-buyer source
        oracle = max(abs(np.linalg.eigvals(matrix)))
        assert abs(spectral_radius(matrix) - oracle) <= 1e-10


class TestSolveUnbounded:
    def test_single_aggregator_demands_are_the_solution(self):
        params = derive_parameters(make_line_scenario(n_aggregators=1))
        result = solve_unbounded(params)
        assert result.status == STATUS_UNIQUE
        for pair in params.pairs:
            assert result.a.a[pair] == pytest.approx(params.gamma[params.pairs.index(pair)],
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
        residual = np.abs(a_vec - (params.coupling.toarray() @ a_vec + params.gamma)).max()
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
            sharing = by_id(params.scenario.sources)[sid].sharing
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
        # every radius, a market's or spectral_radius's, is one power bracket
        calls = []
        original = market._power_bracket

        def counted(matrix, start):
            calls.append(matrix.shape)
            return original(matrix, start)

        monkeypatch.setattr(market, "_power_bracket", counted)
        unbounded = derive_parameters(generate_scenario(GenerationSpec(8, 2), 0))
        bounded = derive_parameters(make_symmetric_direct(e_max=math.log(3.0)))
        assert calls == []  # derivation reads no radius
        solve_unbounded(unbounded)
        points = alpha_sweep(unbounded, [0.5, 1.0, 1e9])
        solve_unbounded(unbounded)
        assert [p.status for p in points] == [STATUS_UNIQUE, STATUS_UNIQUE, STATUS_NONE]
        solve_bounded(bounded)
        solve_bounded(bounded)
        assert calls == [unbounded.coupling.shape, bounded.coupling.shape]

    def test_arnoldi_basis_grows_past_its_first_block(self):
        # 40 steps on a dense nonnegative 60 x 60 matrix: V and H double from
        # 16 rows twice, and the basis stays orthonormal with M V_k = V_(k+1) H
        M = np.random.default_rng(3).uniform(size=(60, 60))
        basis = market.KrylovBasis(M, np.ones(60))
        assert basis.grow(40) == basis.k == 40
        V, H, k = basis.V[:41], basis.H[:41, :40], basis.k
        np.testing.assert_allclose(V @ V.T, np.eye(k + 1), rtol=0, atol=1e-13)
        np.testing.assert_allclose(M @ V[:k].T, V.T @ H, rtol=0, atol=1e-12)

    def test_arnoldi_basis_grows_where_the_plain_norm_overflows(self):
        # couplings near 1e200: |Xi 1| squares entries past the float range,
        # yet every entry is finite, so the basis is not an invariant subspace
        scenario = generate_scenario(
            GenerationSpec(6, 3, mode="direct", coupling_scale=1e200), 0)
        params = derive_parameters(scenario, require_valid=False)
        M = params.coupling.toarray()
        basis = market.KrylovBasis(params.coupling, np.ones(M.shape[0]))
        k = basis.grow(12)
        assert k > 1
        V, H = basis.V[:k + 1], basis.H[:k + 1, :k]
        np.testing.assert_allclose(V @ V.T, np.eye(k + 1), rtol=0, atol=1e-13)
        np.testing.assert_allclose(M @ V[:k].T, V.T @ H, rtol=0, atol=1e-13 * np.abs(M).max())

    def test_arnoldi_basis_resumes_bit_for_bit(self):
        # grown in three calls, across both reallocations, or in one: the
        # same steps, so the same k and the same bits of V and H
        M = np.random.default_rng(3).uniform(size=(60, 60))
        resumed, once = market.KrylovBasis(M, np.ones(60)), market.KrylovBasis(M, np.ones(60))
        for k in (5, 17, 40):
            resumed.grow(k)
        assert resumed.k == once.grow(40) == 40
        assert np.array_equal(resumed.V[:41], once.V[:41])
        assert np.array_equal(resumed.H[:41, :40], once.H[:41, :40])

    def test_ritz_start_does_not_depend_on_how_far_the_basis_grew(self):
        # a market's basis grown past RADIUS_KRYLOV_DIM by a sweep near
        # alpha rho = 1 gives the radius the start of a fresh basis
        params = derive_parameters(generate_scenario(GenerationSpec(60, 4), 0))
        alpha_sweep(params, [0.999 / params.spectral_radius])
        assert params.krylov.k > market.RADIUS_KRYLOV_DIM
        fresh = market.KrylovBasis.scaled(params.coupling, params.gamma)
        assert np.array_equal(params.krylov.ritz_start(), fresh.ritz_start())
        assert fresh.k == market.RADIUS_KRYLOV_DIM

    @pytest.mark.parametrize("failure", ["inaccurate", "nan"])
    def test_alpha_sweep_failed_solve(self, symmetric_direct, monkeypatch, failure):
        # a failed least-squares solve on the basis fails the residual check
        params = derive_parameters(symmetric_direct)

        def broken(system, rhs):
            if failure == "nan":
                return np.full_like(rhs, np.nan)
            return rhs  # the right-hand side, unsolved

        monkeypatch.setattr(np.linalg, "solve", broken)
        with pytest.raises(NumericalFailureError):
            alpha_sweep(params, [0.5])


def _scaled_demands(n, m, scale):
    """Direct-mode demands drawn from U(1, 2) times scale."""
    return np.random.default_rng(0).uniform(1.0, 2.0, size=(n, m)) * scale


# (market, alpha * rho of each sweep point): every point reads one Krylov
# basis of the demand-scaled Xi, and none assembles Xi
SOLVE_PATH_CASES = {
    # P = 240, rho = 0.13
    "generated": (lambda: generate_scenario(GenerationSpec(60, 4), 0), (0.05, 0.5, 0.999)),
    # P = 4: the basis ends at an invariant subspace
    "symmetric": (make_symmetric_direct, (0.25, 0.5, 0.995)),
    # P = 120, rho = 0.99
    "uniform-near-one": (lambda: make_coupled_direct(40, 3, lambda i, l: 0.99 / 78),
                         (0.05, 0.99)),
    # rho = 0.1 and a single-buyer source, decoupled, with 1e8 times the
    # others' demand: a residual bound of eps * max(a) would stop the others
    # at a residual near 1e-8.  P = 241
    "single-buyer-giant": (make_single_buyer_giant, (0.05, 0.5, 0.9)),
    # rho = 0.5 with one source's demand 1e8 times the others', coupled to
    # every pair: scaled by gamma alone, its columns would dwarf the others'
    # and the basis break down early.  P = 120
    "coupled-giant": (lambda: make_coupled_direct(
        40, 3, lambda i, l: 0.5 / 78, beta=lambda i, b: 1e8 if i == 0 else 1.0 + 0.01 * i),
        (0.05, 0.5, 0.99)),
    # rho = 0.1 with every demand near 1e8: the residuals, a few ulps of a,
    # exceed 1e-9, which an absolute tolerance rejected.  P = 240
    "demands-near-1e8": (lambda: make_coupled_direct(
        80, 3, lambda i, l: 0.1 / 158,
        beta=lambda i, b, beta=_scaled_demands(80, 3, 1e8): beta[i, b]),
        (0.05, 0.5, 0.9)),
}


class TestSolvePaths:
    @pytest.mark.parametrize("case", sorted(SOLVE_PATH_CASES))
    def test_both_paths_agree_with_the_lu(self, case, monkeypatch):
        # solve_unbounded and one-point sweeps, each against the LU oracle
        build, scaled_radii = SOLVE_PATH_CASES[case]
        params = derive_parameters(build())
        rho = params.spectral_radius
        alphas = [target / rho for target in scaled_radii]
        expected = [lu_answer(params, alpha) for alpha in (1.0, *alphas)]
        assemblies = count_assemblies(monkeypatch)

        result = solve_unbounded(params)
        a_vec = np.array([result.a.a[p] for p in params.pairs])
        np.testing.assert_allclose(a_vec, expected[0], rtol=1e-12, atol=0)
        # iterations is the basis size, at most P
        assert 1 <= result.diagnostics.iterations <= len(params.pairs)

        for alpha, oracle in zip(alphas, expected[1:]):
            (point,) = alpha_sweep(params, [alpha])
            assert point.status == STATUS_UNIQUE
            total = np.bincount(params.pair_source, weights=oracle).max()
            assert point.max_a_total == pytest.approx(total, rel=1e-12, abs=0)
        assert assemblies == []

    @pytest.mark.parametrize("case", sorted(SOLVE_PATH_CASES))
    def test_one_sweep_serves_every_kind_of_point(self, case, monkeypatch):
        # the table's points and a "none" point, out of order, in one call
        build, scaled_radii = SOLVE_PATH_CASES[case]
        params = derive_parameters(build())
        rho = params.spectral_radius
        order = [len(scaled_radii), *reversed(range(len(scaled_radii)))]
        targets = [(*scaled_radii, 1.5)[k] for k in order]
        alphas = [target / rho for target in targets]
        expected = [None if target >= 1.0 else
                    np.bincount(params.pair_source, weights=lu_answer(params, alpha)).max()
                    for alpha, target in zip(alphas, targets)]
        assemblies = count_assemblies(monkeypatch)
        alone = [alpha_sweep(params, [alpha])[0] for alpha in alphas]
        points = alpha_sweep(params, alphas)
        assert assemblies == []
        assert [p.alpha for p in points] == alphas
        for point, single, total in zip(points, alone, expected):
            if total is None:
                assert point.status == single.status == STATUS_NONE
                continue
            assert point.status == STATUS_UNIQUE
            assert point.max_a_total == pytest.approx(total, rel=1e-12, abs=0)
            assert point.max_a_total == pytest.approx(single.max_a_total, rel=1e-12, abs=0)

    def test_nilpotent_chain_ends_its_basis_at_the_closed_form(self, monkeypatch):
        # the chain (s, b) <- (s + 1, j != b) is nilpotent: rho = 0, and the
        # steps of a fixed-point iteration, doubling, vanish only after n = 12
        # products.  The basis ends at the invariant subspace it spans, and
        # the answer is the closed form
        n = 12
        params = derive_parameters(make_coupled_direct(
            n, 2, lambda i, l: 2.0 if i == l + 1 else 0.0))
        assert params.spectral_radius == 0.0
        assemblies = count_assemblies(monkeypatch)
        result = solve_unbounded(params)
        assert 1 < result.diagnostics.iterations <= n + 1 and assemblies == []
        # a[(s, b)] = sum over t < n - s of 2^t
        closed_form = [2.0 ** (n - params.pair_source[k]) - 1.0
                       for k in range(len(params.pairs))]
        a_vec = np.array([result.a.a[p] for p in params.pairs])
        np.testing.assert_allclose(a_vec, closed_form, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale", [1e-6, 1e8])
    def test_inaccurate_answer_fails_at_every_scale(self, monkeypatch, scale):
        # an answer 1e-6 relative off fails the residual check whatever the
        # demands' scale; at 1e-6 its residual (~1e-12) is below an absolute
        # 1e-9.  The least-squares solves on the basis are made 1e-6 off
        beta = _scaled_demands(20, 3, scale)
        params = derive_parameters(make_coupled_direct(  # minimum incentive 1e-6
            20, 3, lambda i, l: 0.1 / 38, lambda i, b: beta[i, b],
            model=exponential_model(1e3, 0.5)))
        solve = np.linalg.solve

        def inaccurate(system, rhs):
            return solve(system, rhs) * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "solve", inaccurate)
        with pytest.raises(NumericalFailureError, match="residual") as exc:
            solve_unbounded(params)
        assert exc.value.condition >= 1.0

    @pytest.mark.parametrize("entry, alpha", [("solve", 1.0), ("sweep", 0.5)])
    def test_failure_at_scale_assembles_nothing(self, monkeypatch, entry, alpha):
        # north-star full sharing, P = 3000, with the least-squares solves
        # made 1e-6 off: the error names the failing point and reads its
        # condition from that point's k x k least-squares factor.  Assembling
        # and factoring a dense I - alpha Xi instead took 7.3-7.6 s and a
        # 159 MB peak (2 cores, one BLAS thread)
        params = derive_parameters(generate_scenario(
            GenerationSpec(300, 10, family="mixed", zeta_max=0.1), 0))
        assert len(params.pairs) == 3000 and params.spectral_radius < 0.5
        k = solve_unbounded(params).diagnostics.iterations  # alpha = 1 sets k for both
        solve = np.linalg.solve

        def inaccurate(system, rhs):
            return solve(system, rhs) * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "solve", inaccurate)
        assemblies = count_assemblies(monkeypatch)
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(NumericalFailureError, match="residual") as exc:
                if entry == "solve":
                    solve_unbounded(params)
                else:
                    alpha_sweep(params, [0.5, 1.0])
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 50e6 and assemblies == []
        assert exc.value.condition >= 1.0
        assert f"at alpha {alpha} (1 - alpha rho = {1.0 - alpha * params.spectral_radius}, " \
            f"basis size {k})" in str(exc.value)
        assert "negativity" not in str(exc.value)  # every weight is positive: only the residual

    def test_non_finite_factor_gives_infinite_condition(self, monkeypatch):
        # an SVD of a NaN factor fails: the condition reads inf instead
        params = derive_parameters(make_coupled_direct(20, 3, lambda i, l: 0.1 / 38))
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda system: [x * math.nan for x in qr(system)])
        with pytest.raises(NumericalFailureError, match="residual nan") as exc:
            solve_unbounded(params)
        assert exc.value.condition == math.inf

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
        assert peak < len(params.pairs) ** 2 * np.dtype(float).itemsize

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


class TestOneKrylovBasis:
    """The radius, the solve and every sweep point read one Arnoldi basis
    per market (params.krylov), which each extends only past the steps
    already grown."""

    # bench/workloads.py's large-market shapes at seed 0, and their sweep
    LARGE_MARKET = {
        "full-d1": (GenerationSpec(150, 8, family="mixed", zeta_max=0.1), 0, 18),
        "half-d2": (GenerationSpec(150, 8, dimension=2, family="mixed", zeta_max=0.1,
                                   sharing_density=0.5), 1, 30),
    }

    @pytest.mark.parametrize("shape", sorted(LARGE_MARKET))
    def test_large_market_products(self, shape, monkeypatch):
        # a basis per reader took 35 (full-d1) and 52 (half-d2) products
        spec, seed, most = self.LARGE_MARKET[shape]
        params = derive_parameters(generate_scenario(spec, seed))
        products = count_products(monkeypatch)
        assert params.spectral_radius < 1.0
        assert solve_unbounded(params).status == STATUS_UNIQUE
        alpha_sweep(params, [0.25, 0.5, 0.75])
        assert len(products) <= most

    @pytest.mark.parametrize("seed, n, m", [
        (k, n, m) for k, (n, m) in enumerate([(32, 3), (32, 4), (40, 3), (40, 4), (48, 3), (48, 4)])
    ])
    def test_certify_shapes_radius_and_solve(self, seed, n, m, monkeypatch):
        # the unbounded-certify shapes at seed 0: a basis per reader took 24-26
        params = derive_parameters(generate_scenario(GenerationSpec(n, m, family="mixed"), seed))
        products = count_products(monkeypatch)
        assert params.spectral_radius < 1.0
        assert solve_unbounded(params).status == STATUS_UNIQUE
        assert len(products) <= 15

    @pytest.mark.parametrize("case", sorted(SOLVE_PATH_CASES))
    def test_the_answer_does_not_depend_on_who_grew_the_basis(self, case):
        # fresh, after the radius, and after a sweep past alpha = 1 that grew
        # the basis further: the same steps, the same k, the same bits of a
        build, _ = SOLVE_PATH_CASES[case]
        scenario = build()
        fresh = solve_unbounded(derive_parameters(scenario))
        params = derive_parameters(scenario)
        assert params.spectral_radius < 1.0
        after_radius = solve_unbounded(params)
        params = derive_parameters(scenario)
        rho = params.spectral_radius
        top = 0.999 / rho
        assert top > 1.0
        (point,) = alpha_sweep(params, [top])
        after_sweep = solve_unbounded(params)
        assert params.krylov.k >= after_sweep.diagnostics.iterations
        for result in (after_radius, after_sweep):
            assert np.array_equal(result.a.a.array, fresh.a.a.array)
            assert result.diagnostics == fresh.diagnostics
        (alone,) = alpha_sweep(derive_parameters(scenario), [top])
        assert point.max_a_total == pytest.approx(alone.max_a_total, rel=1e-12, abs=0)

    def test_a_grown_basis_is_read_past_its_reallocation(self):
        # half-d2, P = 599: a sweep at alpha rho = 0.999 grows 30 steps, past
        # the 16 rows V starts with; the solve's 11 read the copied rows
        spec, seed, _ = self.LARGE_MARKET["half-d2"]
        scenario = generate_scenario(spec, seed)
        fresh = solve_unbounded(derive_parameters(scenario))
        params = derive_parameters(scenario)
        alpha_sweep(params, [0.999 / params.spectral_radius])
        assert params.krylov.k > 16 > fresh.diagnostics.iterations
        assert np.array_equal(solve_unbounded(params).a.a.array, fresh.a.a.array)

    @pytest.mark.parametrize("case", ["overflow", "zero-demand"])
    def test_demands_that_cannot_scale_start_the_radius_from_ones(self, case):
        # d = gamma + Xi gamma overflows (rho = 1.5, demands near 8e307), or a
        # zero demand makes g = gamma / d 0 (an invalid market, derived for
        # inspection): the radius starts from spectral_radius's basis from
        # ones, as for the operator alone, with no warning
        if case == "overflow":
            scenario = make_coupled_direct(20, 2, lambda i, l: 1.5 / 19,
                                           lambda i, b: 8e307 * (1.0 + 0.001 * i))
        else:
            scenario = make_coupled_direct(20, 2, lambda i, l: 0.1 / 19,
                                           lambda i, b: 0.0 if i == b == 0 else 1.0)
        params = derive_parameters(scenario, require_valid=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rho = params.spectral_radius
        assert not np.all(np.isfinite(params.krylov.d) & (params.krylov.start > 0))
        assert rho == spectral_radius(params.coupling)
        assert rho == pytest.approx(1.5 if case == "overflow" else 0.1, rel=1e-10)


class TestOperatorSide:
    """Both solvers read Xi through the one CouplingOperator of each market,
    and neither assembles it."""

    # (market, alpha * rho of each sweep point)
    NEVER_ASSEMBLED = {
        # P = 192, the simulate-rounds market
        "n48-m4": (GenerationSpec(48, 4, family="mixed"), (0.25, 0.99)),
        # P = 512
        "n128-m4": (GenerationSpec(128, 4), (0.5, 0.7)),
    }

    @pytest.fixture
    def scenario(self):
        return generate_scenario(GenerationSpec(128, 4), 0)

    @pytest.mark.parametrize("shape", sorted(NEVER_ASSEMBLED))
    def test_never_assembles(self, shape, monkeypatch):
        spec, targets = self.NEVER_ASSEMBLED[shape]
        scenario = generate_scenario(spec, 0)
        calls = count_assemblies(monkeypatch)
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

    # the radius's stall fallback (see market._power_bracket) assembles Xi:
    # both large-market shapes at bench seed 0 and the north-star full and
    # half-sharing (d=2) shapes (P = 1200, 599, 3000, 1465) never reach it
    RADIUS_WITHOUT_FALLBACK = {
        **{f"large-market-{key}": (spec, seed)
           for key, (spec, seed, _) in TestOneKrylovBasis.LARGE_MARKET.items()},
        "north-star-full": (GenerationSpec(300, 10, family="mixed", zeta_max=0.1), 0),
        "north-star-half-d2": (GenerationSpec(300, 10, dimension=2, family="mixed",
                                              zeta_max=0.1, sharing_density=0.5), 0),
    }

    @pytest.mark.parametrize("shape", sorted(RADIUS_WITHOUT_FALLBACK))
    def test_radius_assembles_nothing(self, shape, monkeypatch):
        spec, seed = self.RADIUS_WITHOUT_FALLBACK[shape]
        params = derive_parameters(generate_scenario(spec, seed))
        assemblies = count_assemblies(monkeypatch)
        assert 0.0 < params.spectral_radius < 1.0
        assert assemblies == []

    # a bench shape (unbounded-certify, simulate-rounds; P = 192) and the
    # north-star shape (P = 3000)
    STORED_ONCE = {
        "bench-n48-m4": GenerationSpec(48, 4, family="mixed"),
        "north-star-n300-m10": GenerationSpec(300, 10, family="mixed", zeta_max=0.1),
    }

    @pytest.mark.parametrize("shape", sorted(STORED_ONCE))
    def test_xi_is_stored_once(self, shape, monkeypatch):
        # solve, certify, welfare, a sweep and rounds assemble nothing, and
        # the parameters keep no P x P array, not even after xi_matrix.csv
        scenario = generate_scenario(self.STORED_ONCE[shape], 0)
        calls = count_assemblies(monkeypatch)
        params = derive_parameters(scenario)
        result = solve_unbounded(params)
        assert certify_equilibrium(result, params).passed
        price_of_anarchy(result, params)
        rho = params.spectral_radius
        assert [p.status for p in alpha_sweep(params, [0.5 / rho, 0.99 / rho])] == \
            [STATUS_UNIQUE] * 2
        assert len(list(iter_rounds(scenario, result, 3, 0))) == 3
        assert calls == []

        def square_arrays():
            return [name for name, value in vars(params).items()
                    if isinstance(value, np.ndarray) and value.shape == params.coupling.shape]

        assert square_arrays() == []
        assert xi_matrix_csv(params).count("\n") == len(params.pairs) + 1
        assert len(calls) == 1 and square_arrays() == []

    @pytest.mark.parametrize("path", ["bounded", "unbounded"])
    def test_one_operator_per_market(self, path, monkeypatch):
        # P = 512: the radius, the solve (best responses on the operator's
        # terms, or a sweep point at alpha rho = 0.9) and the xi_matrix.csv
        # export share one
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
        built, calls = [], count_assemblies(monkeypatch)
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
        calls = count_assemblies(monkeypatch)
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

    def test_boundary_sweep_matches_the_oracle(self, scenario, monkeypatch):
        # P = 512: one sweep up to the existence boundary reads one basis,
        # assembles nothing and matches the LU at every point
        targets = (0.5, 0.9, 0.99, 0.999)
        params = derive_parameters(scenario)
        alphas = [target / params.spectral_radius for target in targets]
        expected = [lu_answer(params, alpha) for alpha in alphas]
        assemblies = count_assemblies(monkeypatch)
        solved = _solve_coupled(params, alphas)
        points = alpha_sweep(params, alphas)
        assert assemblies == []
        for (a_vec, _, size), point, oracle in zip(solved, points, expected):
            assert size == solved[-1][2]
            np.testing.assert_allclose(a_vec, oracle, rtol=1e-12, atol=0)
            total = np.bincount(params.pair_source, weights=oracle).max()
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
        r1 = solve_bounded(params)
        r2 = solve_bounded(params)
        assert r1.a.a == r2.a.a
        assert r1.diagnostics == r2.diagnostics

    def test_exists_even_with_supercritical_coupling(self):
        params = derive_parameters(make_symmetric_direct(xi_offdiag=1.4,
                                                         e_max=math.log(3.0)))
        result = solve_bounded(params)
        assert result.status == STATUS_BOUNDED
        for sid in ("s1", "s2"):
            assert result.a.a_total[sid] <= 3.0 + 1e-8
        # the radius bracket asks no h < 1 of a bounded result
        assert result.diagnostics.spectral_radius == pytest.approx(1.4)
        report = certify_equilibrium(result, params)
        assert report.passed, report.summary()

    def test_refuses_unbounded_sets(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        with pytest.raises(DomainError):
            solve_bounded(params)


class TestCertification:
    def test_certifies_symmetric_fixture(self, symmetric_direct):
        params = derive_parameters(symmetric_direct)
        result = solve_unbounded(params)
        report = certify_equilibrium(result, params)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("market_kind", ["unbounded", "bounded", "partial-sharing"])
    def test_reads_no_coupling_matrix(self, market_kind, monkeypatch):
        # the checks read the xi blocks only: a NaN operator changes nothing,
        # and no dense Xi is assembled
        spec = {"unbounded": GenerationSpec(8, 3, family="mixed"),
                "bounded": GenerationSpec(8, 3, family="mixed", bounded=True),
                "partial-sharing": GenerationSpec(10, 3, dimension=2, sharing_density=0.6)}
        params = derive_parameters(generate_scenario(spec[market_kind], 1))
        result = (solve_bounded if params.effort_kind == "bounded" else solve_unbounded)(params)
        expected = certify_equilibrium(result, params)
        blind = replace(params)  # the cached operator is not copied
        object.__setattr__(blind, "_coupling", market.CouplingOperator(
            params.scenario, tuple(np.full_like(block, np.nan) for block in params.xi)))
        # NaN on every pair with coupling (a single-buyer source has none)
        assert np.isnan(blind.coupling @ params.gamma).any()
        assemblies = count_assemblies(monkeypatch)
        report = certify_equilibrium(result, blind)
        assert report.passed, report.summary()
        assert report == expected
        assert assemblies == []

    @pytest.mark.parametrize("shift, member", [(0.0, True), (5e-11, True), (1e-8, False)],
                             ids=["vertex", "within-tolerance", "below-floor"])
    def test_payments_are_judged_as_polytope_membership_judges_them(self, shift, member):
        # s001's whole surplus on its first pair, its other pairs at their
        # floors (a vertex), then `shift` moved from its second pair to its
        # first: both checks judge the floor within CONTRACT_TOL
        params = derive_parameters(generate_scenario(GenerationSpec(24, 3, family="mixed"), 0))
        result = solve_unbounded(params)
        polytope, c = result.polytope["s001"], dict(result.canonical_c)
        first, second, *rest = [bid for sid, bid in params.pairs if sid == "s001"]
        for bid in (second, *rest):
            c[("s001", bid)] = polytope.floors[bid]
        c[("s001", first)] = polytope.floors[first] + polytope.surplus + shift
        c[("s001", second)] -= shift
        assert polytope_membership(c, result.a, params)[0] is member
        report = certify_equilibrium(replace(result, canonical_c=c), params)
        assert report.passed is member, report.summary()
        if not member:
            failed = [check for check in report.checks if not check.passed]
            assert [check.name for check in failed] == ["participation-binding"]
            assert failed[0].detail.endswith("nonnegative payments: False")

    @pytest.mark.parametrize("radius", [5.0, 0.01])
    def test_fails_on_an_impossible_radius(self, radius):
        # rho = 0.2266 read from the document, edited past the bracket its
        # own a gives, [0.0766, 0.753]: only the existence bound notices
        params = derive_parameters(generate_scenario(GenerationSpec(24, 3, family="mixed"), 0))
        doc = json.loads(result_to_json(solve_unbounded(params)))
        assert certify_equilibrium(result_from_json(json.dumps(doc)), params).passed
        doc["diagnostics"]["spectral_radius"] = radius
        report = certify_equilibrium(result_from_json(json.dumps(doc)), params)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["existence-bound"]
        assert "bracket [7.655196e-02, 7.531417e-01]" in failed[0].detail

    @pytest.mark.parametrize("radius", [1e6, 0.01])
    def test_bounded_fails_on_a_radius_outside_its_bracket(self, radius):
        # bounded equilibria exist at any coupling, so h may pass 1, but rho
        # = 0.2266 must still lie in the bracket [0.0737, 0.750] of its own a
        params = derive_parameters(generate_scenario(
            GenerationSpec(24, 3, family="mixed", bounded=True), 0))
        doc = json.loads(result_to_json(solve_bounded(params)))
        assert certify_equilibrium(result_from_json(json.dumps(doc)), params).passed
        doc["diagnostics"]["spectral_radius"] = radius
        report = certify_equilibrium(result_from_json(json.dumps(doc)), params)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["radius-bracket"]
        assert "bracket [7.371640e-02, 7.503181e-01]" in failed[0].detail

    @pytest.mark.parametrize("spec, seed, status, failing", [
        (GenerationSpec(24, 3, family="mixed"), 0, STATUS_BOUNDED,
         ["stationarity", "existence-bound"]),
        (GenerationSpec(48, 4, family="mixed", bounded=True), 3, STATUS_UNIQUE,
         ["branch-consistency", "radius-bracket"]),
    ], ids=["unbounded-as-bounded", "bounded-as-unbounded"])
    def test_fails_on_a_status_not_the_markets(self, spec, seed, status, failing):
        # the market's effort sets choose the checks, so a relabelled answer
        # skips none (here rho is also edited to 5, past the bracket), and the
        # status fails the first check; the bounded answer is all interior
        params = derive_parameters(generate_scenario(spec, seed))
        solved = (solve_bounded if spec.bounded else solve_unbounded)(params)
        assert certify_equilibrium(solved, params).passed
        if spec.bounded:
            assert set(branch_profile(params, solved.a.a).values()) == {"interior"}
        doc = json.loads(result_to_json(solved))
        doc["status"] = status
        doc["diagnostics"]["spectral_radius"] = 5.0
        report = certify_equilibrium(result_from_json(json.dumps(doc)), params)
        assert [c.name for c in report.checks if not c.passed] == failing
        assert f"status {status} is not this market's {solved.status}" in report.checks[0].detail

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
        # a single-buyer source's total moved, below a_lower too: feasibility
        # and effort are judged on the sum of a, so only the total-vs-a
        # residual notices
        params = derive_parameters(generate_scenario(
            GenerationSpec(8, 2, sharing_density=0.5), 0))
        result = solve_unbounded(params)
        sid = next(s for s, p in result.polytope.items() if p.dimension == 0)
        lower = params.effort_model(sid).incentive_bounds.a_lower
        total = result.a.a_total[sid]
        moved = total + 0.5 * (total - lower) if direction == "above" else 0.5 * lower
        bad = replace(result, a=AParameters(a=result.a.a,
                                            a_total={**result.a.a_total, sid: moved}))
        report = certify_equilibrium(bad, params)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["participation-binding"]
        assert f"total-vs-a residual {abs(moved - total):.3e}" in failed[0].detail

    @pytest.mark.parametrize("bounded, value", [
        (False, "half-a_lower"), (False, "zero"), (False, "negative"), (True, "zero")])
    def test_weight_out_of_incentive_range_fails_naming_its_source(self, bounded, value):
        # a single-buyer source's weight and total both moved out of range:
        # efforts are evaluated only at the totals in range, so nothing raises
        # and no warning is given
        params = derive_parameters(generate_scenario(
            GenerationSpec(8, 2, family="mixed", sharing_density=0.5, bounded=bounded), 0))
        result = (solve_bounded if bounded else solve_unbounded)(params)
        sid = next(s for s, p in result.polytope.items() if p.dimension == 0)
        pair = next(p for p in params.pairs if p[0] == sid)
        moved = {"half-a_lower": 0.5 * params.effort_model(sid).incentive_bounds.a_lower,
                 "zero": 0.0, "negative": -result.a.a[pair]}[value]
        bad = replace(result, a=AParameters(a={**result.a.a, pair: moved},
                                            a_total={**result.a.a_total, sid: moved}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify_equilibrium(bad, params)
        assert not report.passed
        if not bounded:  # a bounded total is clamped onto its range
            check = next(c for c in report.checks if c.name == "participation-binding")
            assert not check.passed
            assert f"source {sid}: total {moved!r} outside its incentive range" in check.detail

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


    def test_zero_alphas_alone(self):
        # the largest point at alpha = 0: its basis is the ones vector alone,
        # and the answer is the demands exactly
        params = derive_parameters(generate_scenario(GenerationSpec(60, 4), 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (point,) = alpha_sweep(params, [0.0])
            zero, half = alpha_sweep(params, [0.0, 0.5 / params.spectral_radius])
        gamma_total = np.bincount(params.pair_source, weights=params.gamma).max()
        assert point.max_a_total == zero.max_a_total == gamma_total
        reference = lu_answer(params, 0.5 / params.spectral_radius)
        assert half.max_a_total == pytest.approx(
            np.bincount(params.pair_source, weights=reference).max(), rel=1e-12, abs=0)

    def test_tiny_radius_beside_its_largest_scale(self, monkeypatch):
        # rho = 1e-6: alpha = 1 beside alpha rho = 0.9, on the basis grown
        # for the latter.  P = 1400; a = 1 / (1 - alpha rho)
        n, m = 40, 35
        params = derive_parameters(make_coupled_direct(
            n, m, lambda i, l: 1e-6 / ((n - 1) * (m - 1))))
        rho = params.spectral_radius
        assert rho == pytest.approx(1e-6, rel=1e-12)
        assemblies = count_assemblies(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            top, one = alpha_sweep(params, [0.9 / rho, 1.0])
        assert assemblies == []
        assert top.max_a_total == pytest.approx(m / (1.0 - 0.9), rel=1e-12, abs=0)
        assert one.max_a_total == pytest.approx(m / (1.0 - rho), rel=1e-12, abs=0)

    @pytest.mark.parametrize("targets", [
        (0.7,), (0.3, 0.7, 0.5), tuple(np.linspace(0.1, 0.7, 9)),
    ], ids=lambda targets: f"{len(targets)}-points")
    def test_a_sweep_after_a_solve_costs_one_product_per_point(self, targets, monkeypatch):
        # P = 512: the radius and the solve grow the market's one basis past
        # what the sweep's largest point needs, so the sweep reads it and
        # only confirms each point with one product; a second solve, one
        params = derive_parameters(generate_scenario(GenerationSpec(128, 4), 0))
        rho = params.spectral_radius
        result = solve_unbounded(params)
        assert result.diagnostics.iterations > 1
        products = count_products(monkeypatch)
        assemblies = count_assemblies(monkeypatch)
        alpha_sweep(params, [target / rho for target in targets])
        assert len(products) == len(targets)
        del products[:]
        again = solve_unbounded(params)
        assert len(products) == 1 and assemblies == []
        assert np.array_equal(again.a.a.array, result.a.a.array)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_a_bad_alpha_anywhere_fails_before_any_product(self, bad, monkeypatch):
        params = derive_parameters(generate_scenario(GenerationSpec(60, 4), 0))
        rho = params.spectral_radius
        products = count_products(monkeypatch)
        with pytest.raises(DomainError, match="alpha"):
            alpha_sweep(params, [0.25 / rho, 0.5 / rho, bad])
        assert products == []

    def test_a_generator_of_alphas(self):
        params = derive_parameters(generate_scenario(GenerationSpec(60, 4), 0))
        alphas = [0.25 / params.spectral_radius, 0.0, 0.999 / params.spectral_radius, 1e9]
        assert alpha_sweep(params, (alpha for alpha in alphas)) == alpha_sweep(params, alphas)
