"""Equilibrium solvers: spectral radius against a dense eigensolver oracle,
the closed-form symmetric fixture, bounded/unbounded agreement, polytope and
certification behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_line_scenario, make_random_direct, make_symmetric_direct

from datamarket.equilibrium import (
    STATUS_BOUNDED,
    STATUS_NONE,
    STATUS_UNIQUE,
    AParameters,
    SourcePolytope,
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
from datamarket.effort import effort_response
from datamarket.errors import (
    DomainError,
    NumericalFailureError,
    ParseError,
    ScenarioValidationError,
)
from datamarket.market import derive_parameters
from datamarket.scenario import GenerationSpec, generate_scenario


class TestSpectralRadius:
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
    def test_periodic_bipartite_blocks(self, seed):
        # the structure every two-aggregator market produces: eigenvalues in
        # +/- pairs, where naive power iteration oscillates
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 5))
        B = rng.uniform(0, 1, size=(k, k))
        C = rng.uniform(0, 1, size=(k, k))
        m = np.block([[np.zeros((k, k)), B], [C, np.zeros((k, k))]])
        oracle = max(abs(np.linalg.eigvals(m)))
        assert spectral_radius(m) == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_reducible_distinct_blocks(self):
        m = np.array([[0.9, 0.0, 0.3],
                      [0.0, 0.4, 0.2],
                      [0.0, 0.0, 0.4]])
        assert spectral_radius(m) == pytest.approx(0.9, rel=1e-8)


class TestSpectralRadiusOverTheSupport:
    """A zero row of Xi (a source selling to one aggregator) leaves the power
    iterate with zero entries; the bracket over its support is still exact,
    so no Gelfand fallback is needed."""

    @pytest.fixture(autouse=True)
    def no_gelfand(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Gelfand fallback taken")
        monkeypatch.setattr(market, "_gelfand_radius", refuse)

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

    @pytest.mark.parametrize("failure", ["singular", "inaccurate"])
    def test_alpha_sweep_failed_solve(self, symmetric_direct, monkeypatch, failure):
        params = derive_parameters(symmetric_direct)

        def broken(system, rhs):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return rhs  # the decoupled demands, off by the coupling

        monkeypatch.setattr(np.linalg, "solve", broken)
        with pytest.raises(NumericalFailureError):
            alpha_sweep(params, [0.5])


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
        # the checks read the xi array only, so a NaN Xi changes nothing
        spec = {"unbounded": GenerationSpec(8, 3, family="mixed"),
                "bounded": GenerationSpec(8, 3, family="mixed", bounded=True),
                "partial-sharing": GenerationSpec(10, 3, dimension=2, sharing_density=0.6)}
        params = derive_parameters(generate_scenario(spec[market_kind], 1))
        result = (solve_bounded if params.effort_kind == "bounded" else solve_unbounded)(params)
        expected = certify_equilibrium(result, params)
        blind = replace(params, xi_matrix=np.full_like(params.xi_matrix, np.nan))
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
