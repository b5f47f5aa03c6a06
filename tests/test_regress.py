import math

import numpy as np
import pytest

from ciakit import (
    LogisticFit,
    SeparationError,
    classify,
    fit_logistic,
    threshold_x,
)
from ciakit import regress
from ciakit.regress import lr_p_value, predict
from conftest import python_output
from oracles import chi2_sf_oracle, logistic_grid_oracle


def make_fit(a, b):
    return LogisticFit(
        a=a, b=b, se_a=0.0, se_b=0.0, ll_full=0.0, ll_null=0.0,
        chi2=0.0, p_value=1.0, converged=True, iterations=0,
    )


def synthetic(a, b, n=2000, seed=12345, lo=0.0, hi=10.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, size=n)
    probs = 1.0 / (1.0 + np.exp(-(a + b * xs)))
    ys = (rng.uniform(size=n) < probs).astype(int)
    return xs.tolist(), ys.tolist()


class TestPredict:
    def test_zero_logit(self):
        assert predict(make_fit(0.0, 0.0), 3.7) == 0.5
        assert predict(make_fit(-2.0, 1.0), 2.0) == 0.5

    def test_ln3(self):
        assert predict(make_fit(0.0, 1.0), math.log(3)) == pytest.approx(0.75)

    def test_extreme_logits_stay_finite(self):
        assert predict(make_fit(0.0, 1.0), 5000.0) == pytest.approx(1.0)
        assert predict(make_fit(0.0, 1.0), -5000.0) == pytest.approx(0.0)

    def test_monotone(self):
        up = make_fit(0.3, 2.0)
        down = make_fit(0.3, -2.0)
        xs = [-3.0, -1.0, 0.0, 2.0, 5.0]
        up_vals = [predict(up, x) for x in xs]
        down_vals = [predict(down, x) for x in xs]
        assert up_vals == sorted(up_vals)
        assert down_vals == sorted(down_vals, reverse=True)


class TestLrPValue:
    def test_null_boundary(self):
        assert lr_p_value(0.0) == 1.0

    def test_classic_critical_value(self):
        assert lr_p_value(3.841) == pytest.approx(0.0500, abs=0.0005)
        assert lr_p_value(3.841) == pytest.approx(chi2_sf_oracle(3.841, 1), abs=1e-12)

    def test_large_statistic(self):
        assert lr_p_value(342.68) < 0.0001

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lr_p_value(-0.5)


class TestFitLogistic:
    def test_recovers_true_parameters(self):
        xs, ys = synthetic(-2.0, 0.5)
        fit = fit_logistic(xs, ys)
        assert fit.converged
        assert abs(fit.a - (-2.0)) <= 3 * fit.se_a
        assert abs(fit.b - 0.5) <= 3 * fit.se_b
        assert fit.chi2 > 0
        assert fit.p_value < 0.001
        oracle_a, oracle_b = logistic_grid_oracle(xs, ys)
        assert fit.a == pytest.approx(oracle_a, abs=1e-3)
        assert fit.b == pytest.approx(oracle_b, abs=1e-3)

    def test_null_data_rarely_significant(self):
        rng = np.random.default_rng(777)
        insignificant = 0
        for _ in range(100):
            xs = rng.uniform(0, 10, size=2000)
            ys = rng.integers(0, 2, size=2000)
            fit = fit_logistic(xs.tolist(), ys.tolist())
            if fit.p_value > 0.05:
                insignificant += 1
        assert insignificant >= 90

    def test_separation_detected(self):
        xs = [i / 100 for i in range(1000)]
        ys = [1 if x > 5 else 0 for x in xs]
        with pytest.raises(SeparationError, match="separated"):
            fit_logistic([x for x in xs], ys)

    def test_step_halving_on_a_near_separated_sample(self, monkeypatch):
        xs = [-9.12, -4.16, -2.49, -0.87, -0.74, -0.4, -0.22, 0.53, 0.59, 0.6, 5.89, 9.99, 94.34]
        ys = [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0]
        calls = []
        log_likelihood = regress._log_likelihood

        def counted(*args):
            calls.append(args)
            return log_likelihood(*args)

        monkeypatch.setattr(regress, "_log_likelihood", counted)
        fit = fit_logistic(xs, ys)
        assert fit.converged
        # one null evaluation, then a trial step and an accepted one per
        # iteration; any evaluation beyond those is a halved step
        assert len(calls) > 1 + 2 * fit.iterations
        oracle_a, oracle_b = logistic_grid_oracle(xs, ys)
        assert fit.a == pytest.approx(oracle_a, abs=1e-3)
        assert fit.b == pytest.approx(oracle_b, abs=1e-3)

    def test_nested_likelihoods_ordered(self):
        xs, ys = synthetic(0.5, -0.3, n=500, seed=9)
        fit = fit_logistic(xs, ys)
        assert fit.ll_full >= fit.ll_null
        assert fit.chi2 >= 0
        assert fit.chi2 == pytest.approx(2 * (fit.ll_full - fit.ll_null), abs=1e-8)

    def test_affine_rescaling_covariance(self):
        xs, ys = synthetic(-1.0, 0.8, n=800, seed=31)
        fit = fit_logistic(xs, ys)
        m, s = 4.2, 2.5
        rescaled = [(x - m) / s for x in xs]
        fit2 = fit_logistic(rescaled, ys)
        assert fit2.b == pytest.approx(fit.b * s, rel=1e-6)
        assert fit2.ll_full == pytest.approx(fit.ll_full, abs=1e-8)
        assert fit2.chi2 == pytest.approx(fit.chi2, abs=1e-8)
        for x, z in zip(xs[:50], rescaled[:50]):
            assert predict(fit2, z) == pytest.approx(predict(fit, x), abs=1e-9)
        left = classify(fit, xs, ys)
        right = classify(fit2, rescaled, ys)
        assert (left.tp, left.fp, left.tn, left.fn) == (right.tp, right.fp, right.tn, right.fn)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_logistic([1.0] * 5, [0, 1, 0, 1, 0])
        with pytest.raises(ValueError, match="both classes"):
            fit_logistic(list(range(12)), [1] * 12)
        with pytest.raises(ValueError, match="equal-length"):
            fit_logistic([1.0] * 12, [0, 1] * 5)
        with pytest.raises(ValueError, match="constant predictor"):
            fit_logistic([2.0] * 12, [0, 1] * 6)
        with pytest.raises(ValueError, match="0/1"):
            fit_logistic(list(range(12)), [0, 2] * 6)
        # the exactly rounded mean of twelve 0.1s is not 0.1
        with pytest.raises(ValueError, match="constant predictor"):
            fit_logistic([0.1] * 12, [0, 1] * 6)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="xs must be finite"):
                fit_logistic([*range(11), bad], [0, 1] * 6)

    def test_row_order_does_not_change_the_fit(self):
        xs, ys = synthetic(-1.0, 0.8, n=300, seed=17)
        assert fit_logistic(xs, ys) == fit_logistic(xs[::-1], ys[::-1])


class TestClassify:
    def test_hand_counted_confusion(self):
        # predictions (1,1,1,0) vs truth (1,1,1,1) pooled with
        # predictions (0,0,0,0) vs truth (0,0,0,0)
        fit = make_fit(-4.0, 1.0)  # cutoff at x = 4
        xs = [9, 9, 9, 1, 1, 1, 1, 1]
        ys = [1, 1, 1, 1, 0, 0, 0, 0]
        report = classify(fit, xs, ys)
        assert (report.tp, report.fn, report.tn, report.fp) == (3, 1, 4, 0)
        assert report.sensitivity == pytest.approx(0.75)
        assert report.specificity == pytest.approx(1.0)

    def test_constant_half_predictor(self):
        fit = make_fit(0.0, 0.0)
        report = classify(fit, [1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
        assert report.specificity == 0.0
        assert report.sensitivity == 1.0

    def test_order_invariance(self):
        xs, ys = synthetic(-2.0, 0.5, n=200, seed=5)
        fit = fit_logistic(xs, ys)
        fwd = classify(fit, xs, ys)
        rev = classify(fit, xs[::-1], ys[::-1])
        assert fwd == rev

    def test_seeded_fit_beats_chance(self):
        xs, ys = synthetic(-2.0, 0.5)
        fit = fit_logistic(xs, ys)
        report = classify(fit, xs, ys)
        assert report.sensitivity > 0.5
        assert report.specificity > 0.5


class TestThresholdX:
    def test_half_probability(self):
        assert threshold_x(make_fit(-3.0, 1.5), 0.5) == pytest.approx(2.0)

    def test_closed_form(self):
        assert threshold_x(make_fit(-2.0, 0.5), 0.5) == pytest.approx(4.0)

    def test_general_probability(self):
        fit = make_fit(0.0, 1.0)
        assert threshold_x(fit, 0.75) == pytest.approx(math.log(3))

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError, match="no threshold"):
            threshold_x(make_fit(1.0, 0.0), 0.5)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            threshold_x(make_fit(1.0, 1.0), 1.0)


def test_import_loads_no_numpy():
    probe = "import ciakit, ciakit.cli, sys; print('numpy' in sys.modules)"
    assert python_output(probe).strip() == "False"
