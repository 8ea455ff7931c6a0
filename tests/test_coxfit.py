import math

import numpy as np
import pytest
from scipy.optimize import minimize

from coxmix.coxfit import (
    BaselineHazard,
    DegenerateComponentError,
    component_log_density,
    cumulative_hazard,
    default_time_bandwidth,
    fit_weighted_cox,
    kernel_values,
    partial_loglik_gradient,
    partial_loglik_hessian,
    smooth_baseline_hazard,
    weighted_partial_loglik,
    _increments,
    _RiskSets,
)
from coxmix.data import Dataset

from conftest import simulate_single


def brute_force_pl(data, w, beta):
    """Independent double-loop evaluation of the weighted partial likelihood."""
    beta = np.asarray(beta, dtype=float)
    total = 0.0
    for i in range(data.n):
        if data.delta[i] != 1 or w[i] <= 0:
            continue
        denom = 0.0
        for j in range(data.n):
            if data.y[j] >= data.y[i]:
                denom += w[j] * math.exp(float(data.x[j] @ beta))
        total += w[i] * (float(data.x[i] @ beta) - math.log(denom))
    return total


class TestPartialLoglik:
    def test_two_record_hand_value(self):
        data = Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 1]), x=np.array([[0.0], [0.0]]))
        val = weighted_partial_loglik(data, np.ones(2), np.array([0.0]))
        assert val == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_matches_brute_force(self, small_data, rng):
        w = rng.uniform(0.1, 1.0, size=small_data.n)
        for _ in range(5):
            beta = rng.normal(size=2)
            got = weighted_partial_loglik(small_data, w, beta)
            assert got == pytest.approx(brute_force_pl(small_data, w, beta), abs=1e-10)

    def test_beta_zero_closed_form(self, small_data, rng):
        w = rng.uniform(0.1, 1.0, size=small_data.n)
        expected = 0.0
        for i in range(small_data.n):
            if small_data.delta[i] == 1:
                rs = w[small_data.y >= small_data.y[i]].sum()
                expected += w[i] * (0.0 - math.log(rs))
        got = weighted_partial_loglik(small_data, w, np.zeros(2))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_rows_drop_out(self, small_data):
        w = np.array([1.0, 0.0, 1.0, 1.0, 0.5])
        beta = np.array([0.3, -0.2])
        got = weighted_partial_loglik(small_data, w, beta)
        assert got == pytest.approx(brute_force_pl(small_data, w, beta), abs=1e-12)

    def test_weight_validation(self, small_data):
        with pytest.raises(ValueError):
            weighted_partial_loglik(small_data, np.ones(3), np.zeros(2))
        with pytest.raises(ValueError):
            weighted_partial_loglik(small_data, -np.ones(small_data.n), np.zeros(2))


class TestDerivatives:
    def test_gradient_matches_central_differences(self, rng):
        data = simulate_single(40, 3, [0.5, -0.3, 0.8], seed=7, censor_frac=0.2)
        w = rng.uniform(0.05, 1.0, size=data.n)
        beta = np.array([0.2, 0.1, -0.4])
        grad = partial_loglik_gradient(data, w, beta)
        h = 1e-5
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (
                weighted_partial_loglik(data, w, beta + e)
                - weighted_partial_loglik(data, w, beta - e)
            ) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-6)

    def test_hessian_matches_gradient_differences(self, rng):
        data = simulate_single(40, 2, [0.5, -0.3], seed=11)
        w = rng.uniform(0.05, 1.0, size=data.n)
        beta = np.array([0.3, -0.1])
        hess = partial_loglik_hessian(data, w, beta)
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (
                partial_loglik_gradient(data, w, beta + e)
                - partial_loglik_gradient(data, w, beta - e)
            ) / (2 * h)
            assert np.allclose(hess[:, j], fd, atol=1e-6)

    def test_hessian_negative_semidefinite(self, rng):
        data = simulate_single(60, 2, [1.0, -1.0], seed=3)
        w = rng.uniform(0.1, 1.0, size=data.n)
        hess = partial_loglik_hessian(data, w, np.array([0.4, 0.2]))
        eigvals = np.linalg.eigvalsh(hess)
        assert np.all(eigvals <= 1e-10)


class TestFit:
    def test_matches_generic_optimizer(self):
        data = simulate_single(50, 2, [0.8, -0.5], seed=21)
        w = np.ones(data.n)
        fit = fit_weighted_cox(data, w)
        res = minimize(
            lambda b: -brute_force_pl(data, w, b),
            np.zeros(2),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000},
        )
        assert np.allclose(fit.beta, res.x, atol=1e-6)
        assert fit.converged

    def test_weighted_matches_generic_optimizer(self, rng):
        data = simulate_single(50, 2, [0.8, -0.5], seed=22, censor_frac=0.15)
        w = rng.uniform(0.05, 1.0, size=data.n)
        fit = fit_weighted_cox(data, w)
        res = minimize(
            lambda b: -brute_force_pl(data, w, b),
            fit.beta + 0.05,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000},
        )
        assert np.allclose(fit.beta, res.x, atol=1e-6)

    def test_zero_covariates_give_zero_beta(self):
        data = Dataset(y=np.array([1.0, 2.0, 3.0]), delta=np.array([1, 1, 1]), x=np.zeros((3, 1)))
        fit = fit_weighted_cox(data, np.ones(3))
        assert fit.beta[0] == 0.0

    def test_duplicated_rows_equal_double_weights(self):
        base = simulate_single(25, 2, [0.6, -0.4], seed=5)
        doubled = Dataset(
            y=np.concatenate([base.y, base.y]),
            delta=np.concatenate([base.delta, base.delta]),
            x=np.vstack([base.x, base.x]),
        )
        fit_dup = fit_weighted_cox(doubled, np.ones(doubled.n))
        fit_w = fit_weighted_cox(base, np.full(base.n, 2.0))
        assert np.allclose(fit_dup.beta, fit_w.beta, atol=1e-10)

    def test_weight_scale_invariance(self, rng):
        data = simulate_single(40, 2, [0.5, 0.5], seed=9)
        w = rng.uniform(0.1, 1.0, size=data.n)
        f1 = fit_weighted_cox(data, w)
        f2 = fit_weighted_cox(data, w * 0.001)
        assert np.allclose(f1.beta, f2.beta, atol=1e-8)
        assert np.allclose(f1.baseline.increments, f2.baseline.increments, atol=1e-12)

    def test_reported_loglik_uses_original_weights(self, rng):
        data = simulate_single(30, 1, [0.5], seed=13)
        base = rng.uniform(0.1, 0.5, size=data.n)
        for scale in (1.0, 1e-3, 1e3):
            w = scale * base
            fit = fit_weighted_cox(data, w)
            assert fit.loglik == pytest.approx(brute_force_pl(data, w, fit.beta), abs=1e-8)

    def test_no_event_weight_errors(self, small_data):
        w = np.where(small_data.delta == 1, 0.0, 1.0)
        with pytest.raises(DegenerateComponentError):
            fit_weighted_cox(small_data, w)

    def test_beta_init_length_checked(self, small_data):
        with pytest.raises(ValueError):
            fit_weighted_cox(small_data, np.ones(5), beta_init=np.zeros(3))


def profile_increments(data, w, beta):
    """(event_times, increments) of the profile baseline at beta."""
    rs = _RiskSets(data.y, data.delta)
    return rs.grid, _increments(rs, data.x, np.asarray(w, dtype=float), np.asarray(beta, dtype=float))


class TestProfileIncrements:
    def test_single_record(self):
        data = Dataset(y=np.array([1.0]), delta=np.array([1]), x=np.zeros((1, 1)))
        times, inc = profile_increments(data, np.ones(1), np.array([2.7]))
        assert times.tolist() == [1.0]
        assert inc.tolist() == [1.0]

    def test_nelson_aalen_two_events(self):
        data = Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 1]), x=np.zeros((2, 1)))
        times, inc = profile_increments(data, np.ones(2), np.zeros(1))
        assert np.allclose(times, [1.0, 2.0])
        assert np.allclose(inc, [0.5, 1.0], atol=1e-14)

    def test_tied_events_aggregate(self):
        data = Dataset(y=np.array([1.0, 1.0, 2.0]), delta=np.array([1, 1, 1]), x=np.zeros((3, 1)))
        times, inc = profile_increments(data, np.ones(3), np.zeros(1))
        assert np.allclose(times, [1.0, 2.0])
        assert np.allclose(inc, [2.0 / 3.0, 1.0], atol=1e-14)

    def test_matches_brute_force_with_soft_weights(self, rng):
        data = simulate_single(30, 2, [0.5, -0.5], seed=17, censor_frac=0.2)
        w = rng.uniform(0.05, 1.0, size=data.n)
        beta = np.array([0.4, -0.2])
        times, inc = profile_increments(data, w, beta)
        expected = {}
        for i in range(data.n):
            if data.delta[i] != 1:
                continue
            denom = sum(
                w[j] * math.exp(float(data.x[j] @ beta))
                for j in range(data.n)
                if data.y[j] >= data.y[i]
            )
            expected[data.y[i]] = expected.get(data.y[i], 0.0) + w[i] / denom
        assert np.allclose(times, sorted(expected))
        assert np.allclose(inc, [expected[t] for t in sorted(expected)], atol=1e-12)

    def test_censored_rows_carry_no_mass(self, small_data):
        times, inc = profile_increments(small_data, np.ones(5), np.zeros(2))
        # y=3.0 is censored; it must not appear among the jump times
        assert 3.0 not in times.tolist()
        assert inc.sum() > 0


    def test_underflowed_risk_sum_matches_unscaled_weights(self):
        # the last four records' risk sets hold only themselves; at weights
        # near 2^-1040, w exp(eta - max eta) = w exp(-40) underflows to zero
        data = Dataset(
            y=np.arange(1.0, 9.0),
            delta=np.ones(8, dtype=int),
            x=np.array([[0.0]] * 4 + [[-40.0]] * 4),
        )
        base = np.array([1.0, 0.5, 0.75, 1.0, 1.0, 0.5, 0.75, 1.0])
        tail = np.arange(8) >= 4
        # a power of two scales those weights exactly and leaves the tail's
        # increments w_i / sum_j w_j exp(eta_j) unchanged
        w = np.where(tail, base * 2.0**-1040, base)
        _, inc = profile_increments(data, w, np.ones(1))
        _, ref = profile_increments(data, base, np.ones(1))
        assert np.all(np.isfinite(inc))
        assert np.allclose(inc[tail], ref[tail], rtol=1e-12, atol=0.0)

    def test_out_of_range_increment_raises(self):
        # 1 / exp(-800) overflows even in log space
        data = Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 1]), x=np.array([[0.0], [-800.0]]))
        with pytest.raises(DegenerateComponentError):
            profile_increments(data, np.ones(2), np.ones(1))


class TestKernelsAndBandwidth:
    def test_gaussian_at_zero(self):
        assert kernel_values("gaussian", np.array([0.0]))[0] == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-15
        )

    def test_epanechnikov_support(self):
        vals = kernel_values("epanechnikov", np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0]))
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert vals[2] == 0.75
        assert vals[3] == pytest.approx(0.75 * (1 - 0.25), rel=1e-15)

    def test_unknown_kernel_errors(self):
        with pytest.raises(ValueError, match="kernel"):
            kernel_values("triangular", np.array([0.0]))

    def test_default_bandwidth_rule(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        expected = float(np.std(y, ddof=1)) * 5 ** (-0.2)
        assert default_time_bandwidth(y) == pytest.approx(expected, rel=1e-14)

    def test_degenerate_bandwidth_falls_back(self):
        assert default_time_bandwidth(np.array([2.0, 2.0, 2.0])) == 1.0
        assert default_time_bandwidth(np.array([2.0])) == 1.0


class TestBaselineEvaluation:
    def test_smooth_single_increment_at_center(self):
        bl = BaselineHazard(
            event_times=np.array([1.0]), increments=np.array([1.0]), kernel="gaussian", bandwidth=1.0
        )
        assert smooth_baseline_hazard(bl, 1.0) == pytest.approx(0.3989422804014327, rel=1e-12)

    def test_smooth_far_from_mass_epanechnikov(self):
        bl = BaselineHazard(
            event_times=np.array([1.0]),
            increments=np.array([1.0]),
            kernel="epanechnikov",
            bandwidth=0.5,
        )
        assert smooth_baseline_hazard(bl, 10.0) == 0.0

    def test_smooth_matches_plain_loop(self, rng):
        times = np.sort(rng.uniform(0, 3, size=8))
        inc = rng.uniform(0.01, 0.4, size=8)
        bl = BaselineHazard(event_times=times, increments=inc, kernel="gaussian", bandwidth=0.37)
        for t in (0.0, 0.9, 2.5):
            expected = sum(
                inc[e] * math.exp(-0.5 * ((t - times[e]) / 0.37) ** 2) / math.sqrt(2 * math.pi)
                for e in range(8)
            ) / 0.37
            assert smooth_baseline_hazard(bl, t) == pytest.approx(expected, rel=1e-12)

    def test_large_bandwidth_flattens(self):
        bl = BaselineHazard(
            event_times=np.array([1.0, 2.0, 3.0]),
            increments=np.array([0.2, 0.3, 0.5]),
            kernel="gaussian",
            bandwidth=1e6,
        )
        grid = np.array([0.5, 1.5, 3.5])
        vals = smooth_baseline_hazard(bl, grid)
        flat = kernel_values("gaussian", np.zeros(1))[0] * 1.0 / 1e6
        assert np.allclose(vals, flat, rtol=1e-6)

    def test_cumulative_hazard_steps(self):
        bl = BaselineHazard(
            event_times=np.array([1.0, 2.0]),
            increments=np.array([0.5, 1.0]),
            kernel="gaussian",
            bandwidth=1.0,
        )
        assert cumulative_hazard(bl, 0.0) == 0.0
        assert cumulative_hazard(bl, 0.999) == 0.0
        assert cumulative_hazard(bl, 1.0) == 0.5
        assert cumulative_hazard(bl, 1.5) == 0.5
        assert cumulative_hazard(bl, 2.0) == 1.5
        assert cumulative_hazard(bl, 99.0) == 1.5
        vec = cumulative_hazard(bl, np.array([0.0, 1.5, 2.5]))
        assert np.allclose(vec, [0.0, 0.5, 1.5])

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            BaselineHazard(
                event_times=np.array([2.0, 1.0]),
                increments=np.array([0.1, 0.1]),
                kernel="gaussian",
                bandwidth=1.0,
            )
        with pytest.raises(ValueError):
            BaselineHazard(
                event_times=np.array([1.0]),
                increments=np.array([-0.1]),
                kernel="gaussian",
                bandwidth=1.0,
            )
        with pytest.raises(ValueError):
            BaselineHazard(
                event_times=np.array([1.0]),
                increments=np.array([0.1]),
                kernel="gaussian",
                bandwidth=0.0,
            )


class TestComponentLogDensity:
    def test_censored_survivor_term_only(self):
        # delta=0, beta.x=0, cumhaz(y)=0.5 -> log density -0.5
        bl = BaselineHazard(
            event_times=np.array([1.0]), increments=np.array([0.5]), kernel="gaussian", bandwidth=1.0
        )
        data = Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 0]), x=np.zeros((2, 1)))
        fit = fit_weighted_cox(data, np.ones(2))
        fit = type(fit)(
            beta=np.array([0.0]), baseline=bl, loglik=0.0, converged=True, iterations=1
        )
        logd = component_log_density(data, fit)
        assert logd[1] == pytest.approx(-0.5, abs=1e-14)

    def test_event_term_matches_hand_formula(self, rng):
        data = simulate_single(12, 2, [0.5, -0.5], seed=31, censor_frac=0.25)
        w = rng.uniform(0.2, 1.0, size=data.n)
        fit = fit_weighted_cox(data, w)
        logd = component_log_density(data, fit)
        for i in range(data.n):
            eta = float(data.x[i] @ fit.beta)
            rate = smooth_baseline_hazard(fit.baseline, float(data.y[i]))
            cum = cumulative_hazard(fit.baseline, float(data.y[i]))
            expected = data.delta[i] * (math.log(max(rate, 1e-300)) + eta) - math.exp(eta) * cum
            assert logd[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_rate_floored_not_nan(self):
        bl = BaselineHazard(
            event_times=np.array([1.0]),
            increments=np.array([1.0]),
            kernel="epanechnikov",
            bandwidth=0.1,
        )
        # event far outside the kernel support: rate is exactly 0 -> floored log
        data = Dataset(y=np.array([50.0]), delta=np.array([1]), x=np.zeros((1, 1)))
        fit_obj = type("F", (), {})()
        from coxmix.coxfit import ComponentFit

        fit = ComponentFit(beta=np.array([0.0]), baseline=bl, loglik=0.0, converged=True, iterations=0)
        logd = component_log_density(data, fit)
        assert np.isfinite(logd[0])
        assert logd[0] < -600
