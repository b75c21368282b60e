"""OLS separability weights against hand linear algebra and a Monte-Carlo
oracle; leave-one-out prediction weights; rank-deficiency errors."""

import numpy as np
import pytest

from datamarket.errors import (
    DomainError,
    IllDefinedEstimatorError,
    IllDefinedPaymentError,
    ShapeError,
)
from datamarket.estimators import (
    CONDITION_LIMIT,
    QueryDistribution,
    _rank_deficient,
    design_matrix,
    g_value,
    leave_one_out_weights,
    ols_coefficients,
    point_mass,
    prediction_weights,
    validate_separability,
)


def dist(*atoms):
    return QueryDistribution(tuple((tuple(map(float, p)), w) for p, w in atoms))


class TestOlsCoefficients:
    def test_two_point_interpolation_indicator(self):
        h = ols_coefficients([(0.0,), (1.0,)], point_mass((0.0,)))
        np.testing.assert_allclose(h, [1.0, 0.0], atol=1e-14)

    def test_three_collinear_points_at_center(self):
        h = ols_coefficients([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)))
        np.testing.assert_allclose(h, [1 / 9, 1 / 9, 1 / 9], rtol=1e-12)

    def test_single_point_rank_deficient(self):
        with pytest.raises(IllDefinedEstimatorError):
            ols_coefficients([(0.0,)], point_mass((0.0,)))

    def test_duplicate_points_rank_deficient(self):
        with pytest.raises(IllDefinedEstimatorError):
            ols_coefficients([(1.0,), (1.0,), (1.0,)], point_mass((0.0,)))

    def test_nonnegativity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.integers(1, 4)
            n = rng.integers(d + 1, 9)
            pts = rng.uniform(-2, 2, size=(n, d))
            atoms = rng.uniform(-2, 2, size=(2, d))
            q = dist((atoms[0], 0.3), (atoms[1], 0.7))
            h = ols_coefficients(pts, q)
            assert np.all(h >= 0)

    def test_interpolation_gives_indicator_weights(self):
        # with exactly d+1 points the fit interpolates; querying a dataset
        # point puts weight 1 there and 0 elsewhere
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        h = ols_coefficients(pts, point_mass((1.0, 0.0)))
        np.testing.assert_allclose(h, [0.0, 1.0, 0.0], atol=1e-12)

    def test_mixture_linearity(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(5, 2))
        q1 = rng.uniform(-1, 1, size=2)
        q2 = rng.uniform(-1, 1, size=2)
        alpha = 0.35
        h1 = ols_coefficients(pts, point_mass(q1))
        h2 = ols_coefficients(pts, point_mass(q2))
        mixed = ols_coefficients(pts, dist((q1, alpha), (q2, 1 - alpha)))
        np.testing.assert_allclose(mixed, alpha * h1 + (1 - alpha) * h2, atol=1e-12)

    def test_query_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ols_coefficients([(0.0,), (1.0,)], point_mass((0.0, 1.0)))


class TestQueryDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(DomainError):
            dist(((0.0,), 0.5), ((1.0,), 0.4))

    def test_negative_probability(self):
        with pytest.raises(DomainError):
            dist(((0.0,), 1.5), ((1.0,), -0.5))


class TestGValue:
    def test_dot_product(self):
        assert g_value([(0.0,), (1.0,)], point_mass((0.0,)), [4.0, 9.0]) == pytest.approx(4.0)

    def test_zero_variances(self):
        assert g_value([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)), [0, 0, 0]) == 0.0

    def test_uniform_variances_third(self):
        v = g_value([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)), [1.0, 1.0, 1.0])
        assert v == pytest.approx(1 / 3, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            g_value([(0.0,), (1.0,)], point_mass((0.0,)), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("variances", [1.0, [[1.0, 2.0]]], ids=["scalar", "row"])
    def test_scalar_or_row_variances(self, variances):
        with pytest.raises(ShapeError):
            g_value([(0.0,), (1.0,)], point_mass((0.0,)), variances)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_variance(self, bad):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            g_value([(0.0,), (1.0,)], point_mass((0.0,)), [1.0, bad])


def loo_predictions(points, responses):
    """Each point's prediction from the fit on all the other points."""
    weights = leave_one_out_weights(np.array(points), [np.arange(len(points))], aggregators=["b1"],
                                    sources=[f"s{k + 1}" for k in range(len(points))])[0]
    return weights @ np.asarray(responses, dtype=float)


class TestLeaveOneOutWeights:
    def test_collinear_exact_fit(self):
        predictions = loo_predictions([(0.0,), (1.0,), (2.0,)], [0.0, 1.0, 2.0])
        np.testing.assert_allclose(predictions, [0.0, 1.0, 2.0], atol=1e-12)

    def test_two_points_rank_deficient(self):
        with pytest.raises(IllDefinedPaymentError) as info:
            loo_predictions([(0.0,), (1.0,)], [3.0, 4.0])
        assert (info.value.aggregator, info.value.source) == ("b1", "s1")

    def test_flat_line_extrapolation(self):
        assert loo_predictions([(0.0,), (1.0,), (2.0,)], [1.0, 1.0, 4.0])[2] == \
            pytest.approx(1.0, abs=1e-12)


class TestRankTest:
    """The one rank test that the design fit and the leave-one-out fits run."""

    def test_stack_of_grams(self):
        turn = np.array([[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]])
        grams = np.array([turn @ np.diag([1.0, 1e-11]) @ turn.T,  # condition 1e11
                          turn @ np.diag([1.0, 1e-13]) @ turn.T,  # condition 1e13
                          [[1.0, 1.0], [1.0, 1.0]],               # singular
                          [[np.nan, 1.0], [1.0, 1.0]]])
        np.testing.assert_array_equal(_rank_deficient(grams), [1, 2, 3])

    # the Gram without the first point sums x1 * x2 = inf and -inf to NaN
    def test_nan_leave_one_out_gram_names_its_source(self):
        points = [(0.0, 0.0), (1e200, 1e200), (1e200, -1e200), (1.0, 1.0), (2.0, 0.5)]
        with pytest.raises(IllDefinedPaymentError, match="Gram condition inf") as info:
            leave_one_out_weights(np.array(points), [np.arange(5)], aggregators=["b1"],
                                  sources=list("abcde"))
        assert (info.value.aggregator, info.value.source) == ("b1", "a")

    # three points 1 - e, 1, 1 + e: design Gram condition about 6 / e^2
    @pytest.mark.parametrize("spread, fails", [(7.7e-6, False), (7.7e-7, True)])
    def test_prediction_weights_on_each_side_of_the_limit(self, spread, fails):
        points = [(1.0 - spread,), (1.0,), (1.0 + spread,)]
        X = design_matrix(points)
        cond = np.linalg.cond(X.T @ X)
        assert CONDITION_LIMIT / 100 < cond < 100 * CONDITION_LIMIT
        assert (cond >= CONDITION_LIMIT) == fails
        if not fails:
            np.testing.assert_allclose(prediction_weights(points, [(1.0,)])[:, 0],
                                       [1 / 3, 1 / 3, 1 / 3], rtol=1e-6)
            return
        with pytest.raises(IllDefinedEstimatorError) as info:
            prediction_weights(points, [(1.0,)])
        assert f"condition {cond:.3e} exceeds" in str(info.value)


class TestSeparabilityMonteCarlo:
    def test_zero_variance_gives_zero(self):
        rep = validate_separability([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)),
                                    [0.0, 0.0, 0.0], ground_truth=[2.0, -1.0],
                                    trials=1000, seed=0)
        assert rep.mc_mse == pytest.approx(0.0, abs=1e-25)
        assert rep.predicted_mse == 0.0

    def test_matches_closed_form_within_three_se(self):
        rep = validate_separability([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)),
                                    [1.0, 1.0, 1.0], ground_truth=[0.5, 0.25],
                                    trials=100_000, seed=42)
        assert rep.predicted_mse == pytest.approx(1 / 3, rel=1e-12)
        assert abs(rep.mc_mse - rep.predicted_mse) <= 3 * rep.standard_error
        assert rep.standard_error > 0

    def test_deterministic_given_seed(self):
        args = ([(0.0,), (1.5,), (3.0,)], point_mass((0.5,)),
                [0.5, 1.0, 2.0], [1.0, 0.0])
        r1 = validate_separability(*args, trials=2000, seed=9)
        r2 = validate_separability(*args, trials=2000, seed=9)
        assert r1 == r2

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_variance(self, bad):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            validate_separability([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)),
                                  [1.0, bad, 1.0], [1.0, 0.0], trials=1000, seed=0)

    def test_scalar_variances(self):
        with pytest.raises(ShapeError):
            validate_separability([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)),
                                  1.0, [1.0, 0.0], trials=1000, seed=0)

    @pytest.mark.parametrize("truth", [1.0, [[1.0], [0.0]], [1.0, 0.0, 0.0]],
                             ids=["scalar", "column", "too-long"])
    def test_ground_truth_shape(self, truth):
        with pytest.raises(ShapeError):
            validate_separability([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)),
                                  [1.0, 1.0, 1.0], truth, trials=1000, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_ground_truth(self, bad):
        with pytest.raises(DomainError, match="must be finite"):
            validate_separability([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)),
                                  [1.0, 1.0, 1.0], [1.0, bad], trials=1000, seed=0)

    def test_trial_floor(self):
        with pytest.raises(DomainError):
            validate_separability([(0.0,), (1.0,), (2.0,)], point_mass((1.0,)),
                                  [1, 1, 1], [1.0, 0.0], trials=10, seed=0)

    def test_random_scenarios_within_three_se(self):
        rng = np.random.default_rng(123)
        for case in range(3):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d + 2, 9))
            pts = rng.uniform(-2, 2, size=(n, d))
            q = point_mass(rng.uniform(-2, 2, size=d))
            var = rng.uniform(0.2, 2.0, size=n)
            theta = rng.uniform(-1, 1, size=d + 1)
            rep = validate_separability(pts, q, var, theta,
                                        trials=100_000, seed=100 + case)
            assert abs(rep.mc_mse - rep.predicted_mse) <= 3 * rep.standard_error
