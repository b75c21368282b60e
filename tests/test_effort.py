"""Effort map tests: closed forms against an independent root-find oracle,
monotonicity, first-order-condition residuals, and incentive bounds."""

import json
import math

import numpy as np
import pytest

from conftest import BENCH_MARKETS

from datamarket.effort import (
    _CLOSED_FORMS,
    UNBOUNDED,
    CustomVariance,
    EffortMap,
    EffortSet,
    EffortVarianceModel,
    ExponentialVariance,
    effort_response,
    effort_response_derivative,
    exponential_model,
    incentive_bounds,
    inverse_power_model,
    variance_at,
)
from datamarket.equilibrium import BOUNDARY_SLACK
from datamarket.errors import DomainError, IncentiveRangeError
from datamarket.scenario import (
    GenerationSpec,
    _parse_effort,
    generate_scenario,
    parse_scenario,
    serialize_scenario,
)


def foc_bisect_oracle(model, a_total, lo=0.0, hi=None, iters=200):
    """Independent bracketed bisection on 2*a*sigma*sigma' + 1 = 0."""

    def foc(e):
        return 2.0 * a_total * model.sigma(e) * model.sigma_prime(e) + 1.0

    if hi is None:
        hi = 1.0
        while foc(hi) < 0:
            hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if foc(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestClosedForms:
    def test_exponential_at_lower_bound_gives_zero_effort(self):
        m = exponential_model(1.0, 0.5)
        assert effort_response(m, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert effort_response(m, 1.0) == pytest.approx(
            foc_bisect_oracle(m, 1.0), abs=1e-10)

    def test_exponential_log_form(self):
        m = exponential_model(1.0, 0.5)
        assert effort_response(m, 4.0) == pytest.approx(math.log(4.0), rel=1e-12)
        assert effort_response(m, 4.0) == pytest.approx(
            foc_bisect_oracle(m, 4.0), rel=1e-10)

    def test_inverse_power_closed_form(self):
        m = inverse_power_model(1.0, 1.0)
        # (1 + e)^3 = 2a  =>  e = (2a)^(1/3) - 1
        a = 4.0
        assert effort_response(m, a) == pytest.approx((2 * a) ** (1 / 3) - 1, rel=1e-12)
        assert effort_response(m, a) == pytest.approx(
            foc_bisect_oracle(m, a), rel=1e-10)

    def test_below_lower_bound_is_an_error_naming_the_bound(self):
        m = exponential_model(1.0, 0.5)
        with pytest.raises(IncentiveRangeError) as exc:
            effort_response(m, 0.5)
        assert exc.value.bound == "lower"
        assert exc.value.limit == pytest.approx(1.0)

    def test_above_upper_bound_is_an_error(self):
        m = exponential_model(1.0, 0.5, EffortSet("bounded", e_max=math.log(4.0)))
        with pytest.raises(IncentiveRangeError) as exc:
            effort_response(m, 4.5)
        assert exc.value.bound == "upper"

    def test_nonpositive_a_total_is_a_domain_error(self):
        m = exponential_model(1.0, 0.5)
        with pytest.raises(DomainError):
            effort_response(m, 0.0)
        with pytest.raises(DomainError):
            effort_response(m, -1.0)


class TestDerivative:
    def test_exponential_quarter(self):
        # effort = ln(a) for sigma0=1, lam=0.5, so d(effort)/da = 1/a
        m = exponential_model(1.0, 0.5)
        assert effort_response_derivative(m, 4.0) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("make_model", [
        lambda: exponential_model(1.3, 0.7),
        lambda: inverse_power_model(0.9, 1.4),
    ])
    def test_matches_central_finite_differences(self, make_model):
        m = make_model()
        a_lower = incentive_bounds(m).a_lower
        for a in np.linspace(1.1 * a_lower, 10 * a_lower, 17):
            h = 1e-6 * a
            fd = (effort_response(m, a + h) - effort_response(m, a - h)) / (2 * h)
            assert effort_response_derivative(m, a) == pytest.approx(fd, rel=1e-6)

    def test_strictly_positive_on_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            if rng.uniform() < 0.5:
                m = exponential_model(rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0))
            else:
                m = inverse_power_model(rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0))
            a = incentive_bounds(m).a_lower * rng.uniform(1.0, 20.0)
            assert effort_response_derivative(m, a) > 0


class TestIncentiveBounds:
    def test_exponential_unbounded(self):
        b = incentive_bounds(exponential_model(1.0, 0.5))
        assert b.a_lower == pytest.approx(1.0, rel=1e-12)
        assert b.a_upper == math.inf

    def test_exponential_bounded_at_log4(self):
        m = exponential_model(1.0, 0.5, EffortSet("bounded", e_max=math.log(4.0)))
        b = incentive_bounds(m)
        assert b.a_lower == pytest.approx(1.0, rel=1e-12)
        assert b.a_upper == pytest.approx(4.0, rel=1e-12)

    def test_effort_at_bounds_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            sigma0, p = rng.uniform(0.5, 2.0), rng.uniform(0.3, 2.0)
            e_max = rng.uniform(0.5, 3.0)
            if rng.uniform() < 0.5:
                m = exponential_model(sigma0, p, EffortSet("bounded", e_max=e_max))
            else:
                m = inverse_power_model(sigma0, p, EffortSet("bounded", e_max=e_max))
            b = incentive_bounds(m)
            assert abs(effort_response(m, b.a_lower)) < 1e-10
            assert abs(effort_response(m, b.a_upper) - e_max) < 1e-10

    def test_computed_once_per_model(self):
        m = inverse_power_model(1.2, 0.8, EffortSet("bounded", e_max=2.0))
        assert incentive_bounds(m) is incentive_bounds(m)
        effort_response(m, 1.5 * incentive_bounds(m).a_lower)
        assert incentive_bounds(m) is incentive_bounds(m)

    @pytest.mark.parametrize("family, effort_set", [
        # sigma(e_max) * sigma'(e_max) underflows to 0 at e_max = 1000
        (ExponentialVariance(8.13, 1.5), EffortSet("bounded", e_max=1000.0)),
        # sigma(0) * sigma'(0) underflows to 0
        (ExponentialVariance(1e-300, 1.0), UNBOUNDED),
    ], ids=["e_max", "sigma0"])
    def test_nonfinite_bound_raises_at_construction(self, family, effort_set):
        with pytest.raises(DomainError, match="incentive bound inf at effort .* is not finite"):
            EffortVarianceModel(family, effort_set)

    def test_set_at_construction(self):
        m = inverse_power_model(1.2, 0.8, EffortSet("bounded", e_max=2.0))
        assert vars(m)["incentive_bounds"] == incentive_bounds(m)

    @pytest.mark.parametrize("factor, bound", [(0.5, "lower"), (2.0, "upper")])
    def test_out_of_range_after_caching(self, factor, bound):
        m = exponential_model(1.0, 0.5, EffortSet("bounded", e_max=math.log(4.0)))
        b = incentive_bounds(m)
        limit = b.a_lower if bound == "lower" else b.a_upper
        for _ in range(2):  # the first call fills the cache, the second reads it
            with pytest.raises(IncentiveRangeError) as info:
                effort_response(m, factor * limit)
            assert info.value.bound == bound
            assert info.value.limit == limit
            assert info.value.value == factor * limit


class TestVarianceAt:
    def test_examples(self):
        assert variance_at(exponential_model(1.0, 0.5), 0.0) == pytest.approx(1.0)
        assert variance_at(exponential_model(1.0, 0.5), math.log(2.0)) == pytest.approx(0.5, rel=1e-12)
        assert variance_at(inverse_power_model(2.0, 1.0), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_outside_effort_set(self):
        with pytest.raises(DomainError):
            variance_at(exponential_model(1.0, 0.5), -0.1)
        bounded = exponential_model(1.0, 0.5, EffortSet("bounded", e_max=1.0))
        with pytest.raises(DomainError):
            variance_at(bounded, 1.5)


class TestMapProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotone_and_foc_residual(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            m = exponential_model(rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.5))
        else:
            m = inverse_power_model(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.5))
        a_lower = incentive_bounds(m).a_lower
        grid = np.sort(rng.uniform(a_lower, 30 * a_lower, size=40))
        efforts = [effort_response(m, a) for a in grid]
        assert all(e2 > e1 for e1, e2 in zip(efforts, efforts[1:]))
        for a, e in zip(grid, efforts):
            residual = 2 * a * m.sigma(e) * m.sigma_prime(e) + 1.0
            assert abs(residual) < 1e-9


class TestCustomFamily:
    def test_custom_matches_exponential_closed_form(self):
        lam, sigma0 = 0.5, 1.0
        custom = EffortVarianceModel(CustomVariance(
            sigma_fn=lambda e: sigma0 * math.exp(-lam * e),
            sigma_prime_fn=lambda e: -lam * sigma0 * math.exp(-lam * e),
            sigma_second_fn=lambda e: lam * lam * sigma0 * math.exp(-lam * e),
        ))
        reference = exponential_model(sigma0, lam)
        for a in [1.0, 1.5, 4.0, 25.0]:
            assert effort_response(custom, a) == pytest.approx(
                effort_response(reference, a), rel=1e-11, abs=1e-11)

    def test_increasing_sigma_rejected_at_construction(self):
        with pytest.raises(DomainError):
            EffortVarianceModel(CustomVariance(
                sigma_fn=lambda e: 1.0 + e,
                sigma_prime_fn=lambda e: 1.0,
                sigma_second_fn=lambda e: 0.0,
            ))

    def test_missing_second_derivative_rejected(self):
        with pytest.raises(DomainError):
            EffortVarianceModel(CustomVariance(
                sigma_fn=lambda e: math.exp(-e),
                sigma_prime_fn=lambda e: -math.exp(-e),
            ))


class TestConstructionValidation:
    def test_bad_family_parameters(self):
        # the document names are part of the file format
        assert [(form.name, form.rate) for form in _CLOSED_FORMS.values()] == [
            ("exponential", "lambda"), ("inverse_power", "k")]
        with pytest.raises(DomainError, match="^inverse_power family requires k > 0$"):
            inverse_power_model(1.0, 0.0)
        for form in _CLOSED_FORMS.values():
            for bad in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(DomainError, match=f"^{form.name} family requires sigma0 > 0$"):
                    form.cls(bad, 0.5)
                with pytest.raises(DomainError,
                                   match=f"^{form.name} family requires {form.rate} > 0$"):
                    form.cls(1.0, bad)

    def test_bad_effort_sets(self):
        with pytest.raises(DomainError):
            EffortSet("bounded")
        with pytest.raises(DomainError):
            EffortSet("bounded", e_max=0.0)
        with pytest.raises(DomainError):
            EffortSet("unbounded", e_max=1.0)
        with pytest.raises(DomainError):
            EffortSet("open")


def _custom_exponential(sigma0, lam, effort_set):
    return EffortVarianceModel(CustomVariance(
        sigma_fn=lambda e: sigma0 * math.exp(-lam * e),
        sigma_prime_fn=lambda e: -lam * sigma0 * math.exp(-lam * e),
        sigma_second_fn=lambda e: lam * lam * sigma0 * math.exp(-lam * e)), effort_set)


def _random_models(rng, bounded, count=60):
    """Exponential, inverse-power and custom models, unbounded or bounded."""
    models = []
    for k in range(count):
        sigma0, p = rng.uniform(0.5, 80.0), rng.uniform(0.2, 3.0)
        effort_set = EffortSet("bounded", e_max=rng.uniform(0.2, 3.0)) if bounded else UNBOUNDED
        make = (exponential_model, inverse_power_model, _custom_exponential)[k % 3]
        models.append(make(sigma0, p, effort_set))
    return models


class TestArrayEvaluation:
    """EffortMap evaluates many models at once; the scalar API evaluates a
    one-element array through the same code, so the two agree bit for bit."""

    @pytest.mark.parametrize("bounded", [False, True])
    def test_array_and_scalar_are_bitwise_equal(self, bounded):
        rng = np.random.default_rng(3)
        models = _random_models(rng, bounded)
        emap = EffortMap.of(models)
        # the map computes its bounds, custom rows' too, to the models' bits
        assert emap.a_lower.tolist() == [m.incentive_bounds.a_lower for m in models]
        assert emap.a_upper.tolist() == [m.incentive_bounds.a_upper for m in models]
        # every model at a_lower, inside its range and (bounded) at a_upper
        index = np.repeat(np.arange(len(models)), 3)
        upper = np.where(np.isfinite(emap.a_upper), emap.a_upper, 50.0 * emap.a_lower)
        totals = np.column_stack((emap.a_lower,
                                  rng.uniform(emap.a_lower, upper),
                                  emap.a_upper if bounded else upper)).ravel()
        efforts = emap.efforts(totals, index)
        scalar = [effort_response(models[i], t) for i, t in zip(index, totals.tolist())]
        assert efforts.tolist() == scalar
        sigmas = emap.sigma(efforts, index)
        assert sigmas.tolist() == [models[i].sigma(e) for i, e in zip(index, scalar)]
        assert (sigmas * sigmas).tolist() == [variance_at(models[i], e)
                                              for i, e in zip(index, scalar)]

    @pytest.mark.parametrize("bounded", [False, True])
    def test_totals_inside_the_slack_snap_onto_the_bound(self, bounded):
        models = _random_models(np.random.default_rng(4), bounded, count=9)
        emap = EffortMap.of(models)
        margin = 0.5 * BOUNDARY_SLACK * np.maximum(1.0, emap.a_lower)
        efforts = emap.efforts(emap.a_lower - margin, slack=BOUNDARY_SLACK)
        assert efforts.tolist() == [effort_response(m, float(b))
                                    for m, b in zip(models, emap.a_lower)]
        if bounded:
            efforts = emap.efforts(emap.a_upper + margin, slack=BOUNDARY_SLACK)
            assert efforts.tolist() == [effort_response(m, float(b))
                                        for m, b in zip(models, emap.a_upper)]
            # clamped (the bounded solver's projection): far outside, onto the bounds
            assert emap.efforts(10.0 * emap.a_upper, clamp=True).tolist() == efforts.tolist()
        with pytest.raises(IncentiveRangeError):
            emap.efforts(emap.a_lower - 3.0 * margin, slack=BOUNDARY_SLACK)

    @pytest.mark.parametrize("factor, bound", [(0.5, "lower"), (2.0, "upper")])
    def test_out_of_range_payload_matches_the_scalar_error(self, factor, bound):
        models = [exponential_model(1.0, 0.5, EffortSet("bounded", e_max=math.log(4.0))),
                  inverse_power_model(2.0, 1.5, EffortSet("bounded", e_max=1.0))]
        emap = EffortMap.of(models)
        limit = (emap.a_lower if bound == "lower" else emap.a_upper)[1]
        totals = [1.5, factor * limit]  # the first total is in range
        with pytest.raises(IncentiveRangeError) as scalar:
            effort_response(models[1], factor * limit)
        with pytest.raises(IncentiveRangeError) as array:
            emap.efforts(totals)
        assert (array.value.bound, array.value.limit, array.value.value) == (
            scalar.value.bound, scalar.value.limit, scalar.value.value) == (
            bound, limit, factor * limit)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("total", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_non_finite_total_is_a_domain_error(self, total):
        emap = EffortMap.of([exponential_model(1.0, 0.5)] * 2)
        with pytest.raises(DomainError, match="positive and finite"):
            emap.efforts([2.0, total])

    def test_scalar_api_returns_floats(self):
        for model in (exponential_model(1.0, 0.5), inverse_power_model(1.0, 1.0),
                      _custom_exponential(1.0, 0.5, UNBOUNDED)):
            assert type(effort_response(model, 4.0)) is float
            assert type(model.sigma(1.0)) is float
            assert type(variance_at(model, 1.0)) is float


@pytest.mark.parametrize("code, form", enumerate(_CLOSED_FORMS.values()),
                         ids=[form.name for form in _CLOSED_FORMS.values()])
@pytest.mark.parametrize("sigma0, rate, e_max", [
    (-1.0, 0.5, math.inf), (1.0, 0.0, math.inf), (1.0, 0.5, -2.0), (1.0, 0.5, 0.0),
    (1e200, 1e200, math.inf),  # sigma'(0) overflows: a_lower rounds to 0
], ids=["negative-sigma0", "zero-rate", "negative-e_max", "zero-e_max", "a_lower-0"])
def test_out_of_range_columns_raise_the_models_own_error(code, form, sigma0, rate, e_max):
    # family codes are positions in _CLOSED_FORMS
    with pytest.raises(DomainError) as model_error:
        EffortVarianceModel(form.cls(sigma0, rate),
                            UNBOUNDED if e_max == math.inf else EffortSet("bounded", e_max=e_max))
    with pytest.raises(DomainError) as column_error:
        EffortMap([code, code], [1.0, sigma0], [0.5, rate], [math.inf, e_max])
    assert str(column_error.value) == str(model_error.value)


#: The bench markets, and a bounded inverse-power market on which Python's
#: scalar ** and numpy's power part ways at some sources' e_max.
EFFORT_MARKETS = {**BENCH_MARKETS, "inverse-power-bounded/n300-m4": (
    GenerationSpec(300, 4, family="inverse_power", bounded=True), 0)}


@pytest.mark.parametrize("market", sorted(EFFORT_MARKETS))
def test_scenario_effort_map_equals_its_models_bit_for_bit(market):
    # each source's model, read field by field from the document, sets its
    # incentive bounds with the scalar _incentive_at
    scenario = generate_scenario(*EFFORT_MARKETS[market])
    text = serialize_scenario(scenario)
    models = [_parse_effort(s["effort"], "effort") for s in json.loads(text)["sources"]]
    expected = {
        "sigma0": [tuple(vars(m.family).values())[0] for m in models],
        "rate": [tuple(vars(m.family).values())[1] for m in models],
        "e_max": [m.effort_set.e_max if m.effort_set.bounded else math.inf for m in models],
        "a_lower": [m.incentive_bounds.a_lower for m in models],
        "a_upper": [m.incentive_bounds.a_upper for m in models]}
    for built in (scenario, parse_scenario(text)):
        for name, values in expected.items():
            assert getattr(built.effort_map, name).tolist() == values, name
    if market.startswith("inverse-power"):
        e, k = np.array(expected["e_max"]), np.array(expected["rate"])
        assert (np.power(1.0 + e, -k - 1.0).tolist()
                != [(1.0 + x) ** (-y - 1.0) for x, y in zip(e.tolist(), k.tolist())])
