import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from coxmix.coxfit import (
    _record_log_densities,
    component_log_density,
    cumulative_hazard,
    default_time_bandwidth,
    fit_weighted_cox,
    kernel_values,
    smooth_baseline_hazard,
)
from coxmix.data import Dataset, standardize_covariates
from coxmix.em import (
    EMConfig,
    FittedModel,
    MixtureParams,
    _apply_prune,
    _FitContext,
    _initialize,
    _prune_mask,
    check_convergence,
    e_step,
    fit_mixture,
    load_model,
    model_from_json,
    model_to_json,
    monotonicity_failures,
    observed_loglik,
    penalized_observed_loglik,
    save_model,
    update_mixing_proportions,
)
from coxmix import em, tuning
from coxmix.coxfit import NumericalError
from coxmix.penalties import PenaltySpec, lla_coefficient, log_scale_term
from coxmix.simgen import SimConfig, run_study

from conftest import MALFORMED_MODELS, malformed_model_text, simulate_single, stack_fits


def two_component_fits(data, seed=0):
    """Two weighted fits with complementary random weights."""
    gen = np.random.default_rng(seed)
    w1 = gen.uniform(0.2, 0.8, size=data.n)
    return [fit_weighted_cox(data, w1), fit_weighted_cox(data, 1.0 - w1)]


def two_component_params(data, seed=0):
    """A small synthetic 2-component model built from two weighted fits."""
    return stack_fits([0.4, 0.6], two_component_fits(data, seed))


def mixture_fields(**changes):
    """MixtureParams keyword arguments for K = 2, p = 2 and m = 3, with changes."""
    fields = dict(
        pi=[0.4, 0.6],
        beta=[[0.5, -0.5], [1.0, 0.0]],
        event_times=[1.0, 2.0, 3.0],
        increments=[[0.1, 0.2, 0.3], [0.2, 0.0, 0.1]],
        kernel="gaussian",
        bandwidth=0.5,
    )
    fields.update(changes)
    return fields


class TestMixtureParams:
    def test_simplex_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureParams(**mixture_fields(pi=[0.5, 0.6]))
        with pytest.raises(ValueError):
            MixtureParams(**mixture_fields(pi=[1.2, -0.2]))
        with pytest.raises(ValueError, match="beta"):
            MixtureParams(**mixture_fields(pi=[1.0]))

    def test_k_property(self):
        params = MixtureParams(**mixture_fields())
        assert params.K == 2
        assert params.beta.shape == (2, 2)
        assert params.increments.shape == (2, 3)
        assert not params.beta.flags.writeable and not params.increments.flags.writeable

    def test_shapes_and_baseline_validated(self):
        # the fields of the model JSON: K rows of beta and of increments, one
        # increment column per event time, one shared kernel and bandwidth
        cases = [
            ({"beta": [[0.5, -0.5]]}, "beta"),
            ({"beta": [[0.5, -0.5], [1.0, 0.0], [0.0, 0.0]]}, "beta"),
            ({"beta": [[0.5, -0.5], [1.0]]}, "beta"),
            ({"beta": [0.5, -0.5]}, "beta"),
            ({"beta": [[0.5, np.nan], [1.0, 0.0]]}, "beta"),
            ({"increments": [[0.1, 0.2, 0.3]]}, "increments"),
            ({"increments": [[0.1, 0.2, 0.3]] * 3}, "increments"),
            ({"increments": [[0.1, 0.2], [0.2, 0.0]]}, "increments"),
            ({"increments": [[0.1, 0.2, 0.3], [0.2, 0.0]]}, "increments"),
            ({"increments": [0.1, 0.2, 0.3]}, "increments"),
            ({"increments": [[0.1, -0.2, 0.3], [0.2, 0.0, 0.1]]}, "increments"),
            ({"event_times": [1.0, 3.0, 2.0]}, "event_times"),
            ({"event_times": [[1.0, 2.0, 3.0]]}, "event_times"),
            ({"kernel": "foo"}, "kernel"),
            ({"bandwidth": 0.0}, "bandwidth"),
            ({"bandwidth": np.nan}, "bandwidth"),
        ]
        for changes, field in cases:
            with pytest.raises(ValueError, match=field):
                MixtureParams(**mixture_fields(**changes))


class TestEStep:
    def test_single_component_all_ones(self, small_data):
        fit = fit_weighted_cox(small_data, np.ones(small_data.n))
        params = stack_fits([1.0], [fit])
        S = e_step(small_data, params)
        assert np.allclose(S, 1.0)

    def test_identical_components_give_half(self, small_data):
        fit = fit_weighted_cox(small_data, np.ones(small_data.n))
        params = stack_fits([0.5, 0.5], [fit, fit])
        S = e_step(small_data, params)
        assert np.allclose(S, 0.5, atol=1e-14)

    def test_matches_linear_space_brute_force(self):
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]),
            delta=np.array([1, 0, 1]),
            x=np.array([[0.5], [-0.3], [1.0]]),
        )
        fits = two_component_fits(data)
        params = stack_fits([0.4, 0.6], fits)
        S = e_step(data, params)
        dens = np.exp(np.column_stack([component_log_density(data, c) for c in fits]))
        direct = params.pi[None, :] * dens
        direct = direct / direct.sum(axis=1, keepdims=True)
        assert np.allclose(S, direct, atol=1e-12)

    def test_covariate_count_mismatch_names_both_widths(self, small_data):
        params = two_component_params(small_data)
        wide = Dataset(y=small_data.y, delta=small_data.delta, x=np.ones((small_data.n, 3)))
        message = "model has 2 coefficients per component, data has 3 covariates"
        with pytest.raises(ValueError, match=message):
            e_step(wide, params)
        with pytest.raises(ValueError, match=message):
            observed_loglik(wide, params)

    def test_rows_sum_to_one(self, rng):
        data = simulate_single(40, 2, [0.5, -0.5], seed=2, censor_frac=0.2)
        params = two_component_params(data, seed=3)
        S = e_step(data, params)
        assert np.allclose(S.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(S >= 0)


def oracle_softmax(pi, logd):
    """(responsibilities, observed log-likelihood) through scipy's logsumexp,
    the E-step the shifted single-exponential one replaced."""
    with np.errstate(divide="ignore"):
        L = np.log(pi)[None, :] + logd
    lse = logsumexp(L, axis=1)
    # exp(L - lse) would carry the rounding of L - lse, up to |lse| eps
    # (8e-14 near -745), so the rows are shifted by their maximum first
    top = np.max(L, axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(invalid="ignore"):
        S = np.exp(L - top - logsumexp(L - top, axis=1, keepdims=True))
    S[~np.isfinite(lse)] = 1.0 / pi.size
    return S, float(np.sum(lse))


def estep_case(case):
    gen = np.random.default_rng(17)
    logd = gen.normal(-5.0, 3.0, size=(200, 3))
    pi = np.array([0.5, 0.3, 0.2])
    if case == "zero_pi":
        pi = np.array([0.6, 0.0, 0.4])
    elif case == "all_minus_inf":
        logd[[7, 150]] = -np.inf
        logd[40, 1] = -np.inf
    elif case == "one_component":
        pi, logd = np.array([1.0]), logd[:, :1]
    elif case == "underflow":
        # exp(-745) is the last subnormal, and below it exp gives 0
        logd = -745.0 + gen.normal(0.0, 2.0, size=logd.shape)
    return pi, logd


class TestEStepOracle:
    @pytest.mark.parametrize("case", ["plain", "zero_pi", "all_minus_inf", "one_component", "underflow"])
    def test_softmax_rows_and_observed_loglik_match_logsumexp(self, case, small_data, monkeypatch):
        pi, logd = estep_case(case)
        want_S, want_ll = oracle_softmax(pi, logd)
        if case == "all_minus_inf":
            with pytest.warns(UserWarning, match="zero density under every component"):
                S, dev, ll = em._softmax_rows(pi, logd)
            assert np.all(S[[7, 150]] == 1.0 / 3)
            assert ll == want_ll == -np.inf
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                S, dev, ll = em._softmax_rows(pi, logd)
            assert abs(ll - want_ll) <= 1e-14 * abs(want_ll)
        np.testing.assert_allclose(S, want_S, rtol=1e-14, atol=0)
        assert dev <= 1e-15
        fit = fit_weighted_cox(small_data, np.ones(small_data.n))
        params = stack_fits(pi, [fit] * pi.size)
        monkeypatch.setattr(em, "_record_log_densities", lambda data, *fields: logd)
        got = observed_loglik(small_data, params)
        if case == "all_minus_inf":
            assert got == -np.inf
        else:
            assert abs(got - want_ll) <= 1e-14 * abs(want_ll)

    def test_underflow_case_defeats_unshifted_exp(self):
        pi, logd = estep_case("underflow")
        assert np.any(np.exp(np.log(pi) + logd).sum(axis=1) == 0.0)


class TestPiUpdate:
    def test_level_zero_is_column_means(self, rng):
        S = rng.dirichlet(np.ones(3), size=20)
        spec = PenaltySpec(kind="scad", level=0.0)
        out = update_mixing_proportions(S, np.array([0.3, 0.3, 0.4]), spec)
        assert np.allclose(out, S.sum(axis=0) / 20.0, atol=1e-14)

    def test_flat_tail_reduces_to_unpenalized(self, rng):
        S = rng.dirichlet(np.ones(2), size=30)
        spec = PenaltySpec(kind="scad", level=0.1, shape=3.7)
        # both previous proportions beyond a*kappa = 0.37: slopes vanish
        out = update_mixing_proportions(S, np.array([0.45, 0.55]), spec)
        assert np.allclose(out, S.sum(axis=0) / 30.0, atol=1e-14)

    @pytest.mark.parametrize(
        "spec,pi_prev",
        [
            (PenaltySpec(kind="scad", level=0.1, shape=3.7), (0.3, 0.7)),
            (PenaltySpec(kind="mcp", level=0.1, shape=3.0), (0.25, 0.75)),
            (PenaltySpec(kind="ls", level=0.2), (0.3, 0.7)),
        ],
    )
    def test_matches_constrained_optimizer(self, spec, pi_prev):
        # n=10, column sums (3, 7): rows are copies of (0.3, 0.7)
        S = np.tile(np.array([0.3, 0.7]), (10, 1))
        n = 10
        pi_prev = np.asarray(pi_prev)
        got = update_mixing_proportions(S, pi_prev, spec)
        g = np.array([lla_coefficient(spec, float(p)) for p in pi_prev])
        colsum = S.sum(axis=0)

        def objective(pi):
            return -(np.sum(colsum * np.log(pi)) - n * spec.level * np.sum(g * pi))

        res = minimize(
            objective,
            np.array([0.5, 0.5]),
            method="SLSQP",
            bounds=[(1e-9, 1.0)] * 2,
            constraints=[{"type": "eq", "fun": lambda pi: pi.sum() - 1.0}],
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        assert np.allclose(got, res.x, atol=1e-6)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_surrogate_never_decreases(self, rng):
        # the accepted update must not lower the linearized surrogate
        spec = PenaltySpec(kind="mcp", level=0.15, shape=3.0)
        for trial in range(5):
            S = rng.dirichlet(np.ones(3), size=25)
            pi_prev = rng.dirichlet(np.ones(3))
            g = np.array([lla_coefficient(spec, float(p)) for p in pi_prev])
            colsum = S.sum(axis=0)

            def surrogate(pi):
                with np.errstate(divide="ignore"):
                    return float(np.sum(colsum * np.log(pi)) - 25 * spec.level * np.sum(g * pi))

            new = update_mixing_proportions(S, pi_prev, spec)
            assert surrogate(new) >= surrogate(pi_prev) - 1e-9

    def test_input_validation(self):
        spec = PenaltySpec(kind="ls", level=0.1)
        with pytest.raises(ValueError, match="2-d"):
            update_mixing_proportions(np.ones(4), np.array([1.0]), spec)
        with pytest.raises(ValueError, match="length"):
            update_mixing_proportions(np.ones((4, 2)) / 2, np.array([1.0]), spec)

    def test_huge_level_stays_on_simplex(self):
        S = np.tile(np.array([0.2, 0.8]), (10, 1))
        spec = PenaltySpec(kind="ls", level=50.0)
        out = update_mixing_proportions(S, np.array([0.2, 0.8]), spec)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out > 0)


class TestPrune:
    def test_unchanged_above_threshold(self, small_data):
        params = two_component_params(small_data)
        spec = PenaltySpec(kind="scad", level=0.1)
        assert _prune_mask(params.pi, spec).tolist() == [True, True]

    def test_below_threshold_removed(self):
        pi = np.array([0.999995, 0.000005])
        spec = PenaltySpec(kind="scad", level=0.1, prune_threshold=1e-5)
        keep = _prune_mask(pi, spec)
        assert keep.tolist() == [True, False]
        pi2, comps = _apply_prune(pi, ["a", "b"], keep)
        assert comps == ["a"]
        assert pi2.tolist() == [1.0]

    def test_renormalization(self):
        pi = np.array([0.6, 0.399992, 8e-6])
        spec = PenaltySpec(kind="scad", level=0.1, prune_threshold=1e-5)
        pi2, comps = _apply_prune(pi, ["a", "b", "c"], _prune_mask(pi, spec))
        assert comps == ["a", "b"]
        assert pi2.sum() == pytest.approx(1.0, abs=1e-15)
        assert pi2[0] == pytest.approx(0.6 / 0.999992, rel=1e-12)

    def test_last_component_survives(self):
        # a lone component is kept even below the threshold
        spec = PenaltySpec(kind="scad", level=0.1, prune_threshold=0.5)
        assert _prune_mask(np.array([0.3]), spec).tolist() == [True]

    def test_all_below_threshold_errors(self):
        spec = PenaltySpec(kind="scad", level=0.1, prune_threshold=0.9)
        with pytest.raises(NumericalError, match="prune threshold"):
            _prune_mask(np.array([0.5, 0.5]), spec)


class TestLoglikFunctions:
    def test_observed_matches_brute_force(self):
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]),
            delta=np.array([1, 0, 1]),
            x=np.array([[0.5], [-0.3], [1.0]]),
        )
        fits = two_component_fits(data)
        params = stack_fits([0.4, 0.6], fits)
        dens = np.exp(np.column_stack([component_log_density(data, c) for c in fits]))
        expected = float(np.sum(np.log(dens @ params.pi)))
        assert observed_loglik(data, params) == pytest.approx(expected, abs=1e-10)

    def test_penalized_subtracts_scaled_terms(self):
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]),
            delta=np.array([1, 0, 1]),
            x=np.array([[0.5], [-0.3], [1.0]]),
        )
        params = two_component_params(data)
        spec = PenaltySpec(kind="mcp", level=0.12, shape=3.0)
        expected = observed_loglik(data, params) - data.n * 0.12 * sum(
            log_scale_term(spec, float(p)) for p in params.pi
        )
        assert penalized_observed_loglik(data, params, spec) == pytest.approx(expected, abs=1e-10)

    def test_level_zero_single_component_is_cox_loglik(self):
        data = simulate_single(25, 2, [0.7, -0.4], seed=41, censor_frac=0.2)
        fit = fit_weighted_cox(data, np.ones(data.n))
        params = stack_fits([1.0], [fit])
        spec = PenaltySpec(kind="scad", level=0.0)
        expected = 0.0
        for i in range(data.n):
            eta = float(data.x[i] @ fit.beta)
            lam = smooth_baseline_hazard(fit.baseline, float(data.y[i]))
            cum = cumulative_hazard(fit.baseline, float(data.y[i]))
            expected += data.delta[i] * (math.log(lam) + eta) - math.exp(eta) * cum
        assert penalized_observed_loglik(data, params, spec) == pytest.approx(expected, abs=1e-10)

    def test_duplicate_component_leaves_mixture_term_unchanged(self, small_data):
        fit = fit_weighted_cox(small_data, np.ones(small_data.n))
        one = stack_fits([1.0], [fit])
        two = stack_fits([0.5, 0.5], [fit, fit])
        assert observed_loglik(small_data, two) == pytest.approx(
            observed_loglik(small_data, one), abs=1e-12
        )


class TestConvergence:
    def test_equal_values(self):
        assert check_convergence(-50.0, -50.0, EMConfig())

    def test_absolute_gap_too_large(self):
        assert not check_convergence(-100.0, -100.01, EMConfig())

    def test_both_criteria_met(self):
        assert check_convergence(-1000.0000005, -1000.000001, EMConfig())

    def test_zero_current_uses_absolute_only(self):
        assert check_convergence(0.0, 1e-7, EMConfig())
        assert not check_convergence(0.0, 1e-3, EMConfig())

    def test_relative_can_block(self):
        cfg = EMConfig(eps_abs=1e-2, eps_rel=1e-9)
        assert not check_convergence(-1.0, -1.001, cfg)


class TestMonotonicityLog:
    def test_flags_only_drops_beyond_tolerance(self):
        h = [-100.0, -99.0, -99.5, -99.5 - 1e-10]
        flagged = monotonicity_failures(h)
        assert flagged == [(2, -0.5)]

    def test_empty_and_monotone_histories(self):
        assert monotonicity_failures([]) == []
        assert monotonicity_failures([-10.0]) == []
        assert monotonicity_failures([-10.0, -9.0, -8.5]) == []

    def test_tolerance_scales_with_magnitude(self):
        # drop of 5e-7 at |l| ~ 1e3: tolerance is 1e-8 * 1001, so not flagged
        assert monotonicity_failures([-1000.0, -1000.0000005]) == []
        assert monotonicity_failures([-1000.0, -1000.1]) == [(1, pytest.approx(-0.1))]


class TestEMConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EMConfig(k_init=0)
        with pytest.raises(ValueError):
            EMConfig(max_iterations=0)
        with pytest.raises(ValueError):
            EMConfig(eps_abs=0.0)
        with pytest.raises(ValueError):
            EMConfig(eps_rel=1.5)
        with pytest.raises(ValueError):
            EMConfig(restarts=0)
        with pytest.raises(ValueError):
            EMConfig(seed=-1)
        with pytest.raises(ValueError):
            EMConfig(seed=2**64)


def initial_split(data, k_init, seed):
    ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
    return _initialize(ctx, k_init, np.random.default_rng(seed))


def random_params(grid, p, K, kernel, h, seed):
    gen = np.random.default_rng(seed)
    return MixtureParams(
        pi=np.full(K, 1.0 / K),
        beta=gen.normal(0.0, 0.7, size=(K, p)),
        event_times=grid,
        increments=gen.gamma(2.0, 0.5 / grid.size, size=(K, grid.size)),
        kernel=kernel,
        bandwidth=h,
    )


def dense_log_densities(data, params, ctx):
    """Per-component oracle through the full n x m kernel matrix."""
    event = data.delta == 1
    grid = np.unique(data.y[event])
    h = ctx.bandwidth
    kmat = kernel_values(ctx.kernel, (data.y[:, None] - grid[None, :]) / h) / h
    # Lambda(y_i) sums the increments at the grid times at or before y_i
    at_or_before = np.sum(grid[None, :] <= data.y[:, None], axis=1)
    cols = []
    for beta, inc in zip(params.beta, params.increments):
        eta = data.x @ beta
        rate = np.maximum(kmat @ inc, 1e-300)
        cum = np.concatenate(([0.0], np.cumsum(inc)))[at_or_before]
        hazard = np.where(cum > 0, np.exp(eta) * cum, 0.0)
        cols.append(np.where(event, np.log(rate) + eta, 0.0) - hazard)
    return np.column_stack(cols)


class TestFitContext:
    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("censor_frac", [0.0, 0.3])
    @pytest.mark.parametrize("K", [1, 3, 10])
    def test_log_density_matches_dense_and_public_paths(self, kernel, tied, censor_frac, K):
        data = simulate_single(150, 2, [0.8, -0.5], seed=71, censor_frac=censor_frac)
        if tied:
            data = Dataset(y=np.ceil(data.y * 20.0) / 20.0, delta=data.delta, x=data.x)
        std, _ = standardize_covariates(data)
        ctx = _FitContext(std, kernel, default_time_bandwidth(std.y))
        assert tied == (ctx.rs.grid.size < int(np.sum(std.delta)))
        params = random_params(ctx.rs.grid, std.p, K, kernel, ctx.bandwidth, seed=K)
        got = ctx.log_density(params)
        assert got.shape == (std.n, K)
        np.testing.assert_allclose(got, dense_log_densities(std, params, ctx), rtol=1e-12, atol=0)
        # the EM's cached path and the public one-call path agree exactly
        assert np.array_equal(got, _record_log_densities(std, params.beta, params.increments, params))

    @pytest.mark.parametrize("n", [3000, 20000])
    def test_build_memory_is_linear_in_events(self, n):
        data = simulate_single(n, 2, [0.5, -0.5], seed=5)
        h = default_time_bandwidth(data.y)
        tracemalloc.start()
        try:
            ctx = _FitContext(data, "gaussian", h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = ctx.rs.grid.size
        # an m x m kernel matrix alone would take 8 m bytes per event time
        assert peak < 1500 * m

    def test_no_attribute_spans_records_by_events(self):
        data = simulate_single(400, 2, [0.5, -0.5], seed=6, censor_frac=0.3)
        ctx = _FitContext(data, "epanechnikov", default_time_bandwidth(data.y))
        n, m = data.n, ctx.rs.grid.size
        assert m < n
        arrays = [v for obj in (ctx, ctx.rs) for v in vars(obj).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size < n * m for a in arrays)


class TestInitialize:
    def test_single_component(self, small_data):
        params, S = initial_split(small_data, 1, 0)
        assert params.K == 1
        assert np.allclose(S, 1.0)
        assert params.pi.tolist() == [1.0]

    def test_equal_initial_proportions(self, rng):
        data = simulate_single(60, 2, [0.5, -0.5], seed=8)
        params, S = initial_split(data, 4, 3)
        assert np.allclose(params.pi, 0.25)
        assert S.shape == (60, 4)
        assert np.allclose(S.sum(axis=1), 1.0)
        assert set(np.unique(S)) <= {0.0, 1.0}

    def test_fixed_seed_reproducible(self, small_data):
        a = initial_split(small_data, 2, 9)
        b = initial_split(small_data, 2, 9)
        assert np.array_equal(a[1], b[1])

    def test_event_starved_split_shrinks(self):
        # one event row cannot feed two components; k falls back to 1
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]), delta=np.array([1, 0, 0]), x=np.zeros((3, 1))
        )
        params, S = initial_split(data, 2, 0)
        assert params.K == 1


@pytest.fixture(scope="class")
def criterion_5_m_steps():
    """Replication 0 of the criterion-5 cell (data from SeedSequence([2026, 0, 0]))
    tuned as run_study does: every `_fit_coefficients` result, and each fitted
    model with the results made while fitting it."""
    made, models = [], []
    fit_coefficients = em._fit_coefficients
    fit_mixture_ = tuning.fit_mixture

    def recording(*args):
        fit = fit_coefficients(*args)
        made.append(fit)
        return fit

    def fitting(*args, **kwargs):
        start = len(made)
        model = fit_mixture_(*args, **kwargs)
        models.append((model, made[start:]))
        return model

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(em, "_fit_coefficients", recording)
        mp.setattr(tuning, "fit_mixture", fitting)
        warnings.simplefilter("ignore")
        run_study(
            SimConfig(n=600, censor_target=0.05, seed=2026), replications=1, kinds=("scad",),
            em_config=EMConfig(k_init=10, max_iterations=400, restarts=2),
            c_grid=np.array([0.6, 0.8]), cn_constant=2.0,
        )
    return made, models


class TestFitMixture:
    def test_single_component_reduction(self):
        data = simulate_single(50, 2, [0.8, -0.5], seed=23, censor_frac=0.1)
        spec = PenaltySpec(kind="scad", level=0.0)
        model = fit_mixture(data, spec, EMConfig(k_init=1, restarts=1, seed=4))
        direct = fit_weighted_cox(data, np.ones(data.n))
        assert model.params.K == 1
        assert np.allclose(model.params.beta[0], direct.beta, atol=1e-6)
        assert np.allclose(model.params.increments[0], direct.baseline.increments, atol=1e-8)

    def test_every_m_step_converges_on_criterion_5_data(self, criterion_5_m_steps):
        # a Newton search that ran out of halvings used to report
        # converged=False on about a quarter of these fits
        made, _ = criterion_5_m_steps
        assert len(made) > 1000
        assert [f for f in made if not f[2]] == []

    def test_newton_counts_in_diagnostics(self, criterion_5_m_steps):
        _, models = criterion_5_m_steps
        assert len(models) == 2
        for model, made in models:
            d = model.diagnostics
            assert d["newton_fits"] == len(made) > 0
            assert d["newton_iterations"] == sum(f[1] for f in made)
            assert d["newton_unconverged"] == sum(not f[2] for f in made)
            # in memory only: criterion 8 compares the model JSON byte for byte
            assert "newton" not in model_to_json(model)

    def test_bit_reproducible(self):
        data = simulate_single(60, 2, [0.6, -0.6], seed=29, censor_frac=0.15)
        spec = PenaltySpec(kind="mcp", level=0.05)
        cfg = EMConfig(k_init=3, max_iterations=150, restarts=2, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m1 = fit_mixture(data, spec, cfg)
            m2 = fit_mixture(data, spec, cfg)
        assert model_to_json(m1) == model_to_json(m2)

    def test_components_sorted_by_pi(self):
        data = simulate_single(80, 2, [0.6, -0.6], seed=37, censor_frac=0.1)
        spec = PenaltySpec(kind="scad", level=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_mixture(data, spec, EMConfig(k_init=3, max_iterations=150, restarts=1, seed=2))
        assert np.all(np.diff(model.params.pi) <= 1e-15)

    def test_history_finite_and_diagnostics_present(self):
        data = simulate_single(50, 2, [0.5, -0.5], seed=43)
        spec = PenaltySpec(kind="ls", level=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_mixture(data, spec, EMConfig(k_init=2, max_iterations=100, restarts=1, seed=7))
        assert np.all(np.isfinite(model.history))
        d = model.diagnostics
        assert d["responsibility_row_max_dev"] <= 1e-10
        assert d["pi_sum_max_dev"] <= 1e-10
        assert isinstance(d["monotonicity_failures"], list)
        assert d["prune_events"] >= 0

    def test_last_history_value_is_public_objective(self):
        data = simulate_single(60, 2, [0.6, -0.6], seed=47, censor_frac=0.2)
        for spec in (PenaltySpec(kind="scad", level=0.05), PenaltySpec(kind="ls", level=0.01)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                model = fit_mixture(data, spec, EMConfig(k_init=3, max_iterations=100, restarts=2, seed=5))
            want = penalized_observed_loglik(data, model.params, model.spec)
            assert model.history[-1] == pytest.approx(want, rel=1e-9, abs=0)

    def test_logged_drops_match_history(self):
        data = simulate_single(70, 2, [0.9, -0.7], seed=51, censor_frac=0.1)
        spec = PenaltySpec(kind="scad", level=0.0, prune_threshold=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_mixture(data, spec, EMConfig(k_init=3, max_iterations=200, restarts=1, seed=5))
        h = model.history
        expected = []
        for i in range(1, len(h)):
            diff = h[i] - h[i - 1]
            if diff < -1e-8 * (1.0 + abs(h[i])):
                expected.append((i, diff))
        assert model.diagnostics["monotonicity_failures"] == expected

    def test_relabeling_leaves_loglik_unchanged(self, small_data):
        params = two_component_params(small_data)
        spec = PenaltySpec(kind="scad", level=0.07)
        flipped = MixtureParams(
            pi=params.pi[::-1], beta=params.beta[::-1], event_times=params.event_times,
            increments=params.increments[::-1], kernel=params.kernel, bandwidth=params.bandwidth,
        )
        a = penalized_observed_loglik(small_data, params, spec)
        b = penalized_observed_loglik(small_data, flipped, spec)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize(
        "kernel, bandwidth, match",
        [
            ("gaussian", 0.0, "bandwidth"),
            ("gaussian", -1.0, "bandwidth"),
            ("gaussian", float("nan"), "bandwidth"),
            ("gaussian", float("inf"), "bandwidth"),
            ("foo", None, "kernel"),
        ],
    )
    def test_smoothing_checked_before_the_context_is_built(
        self, small_data, monkeypatch, kernel, bandwidth, match
    ):
        def no_context(*args):
            raise AssertionError("_FitContext built for invalid smoothing")

        monkeypatch.setattr(em, "_FitContext", no_context)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=match):
                fit_mixture(
                    small_data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1),
                    kernel=kernel, bandwidth=bandwidth,
                )

    def test_k_init_above_n_rejected(self, small_data):
        with pytest.raises(ValueError):
            fit_mixture(small_data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=6, restarts=1))

    def test_model_properties(self):
        data = simulate_single(40, 1, [0.5], seed=53)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="fitted components are not pairwise distinct")
            model = fit_mixture(
                data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1, seed=1)
            )
        assert model.params.kernel == "gaussian"
        assert model.params.bandwidth == default_time_bandwidth(data.y)

    def test_indistinct_components_warn(self):
        # a constant covariate standardizes to zero, so every component keeps beta = 0
        base = simulate_single(40, 1, [0.5], seed=53)
        data = Dataset(y=base.y, delta=base.delta, x=np.full((40, 1), 3.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_mixture(
                data,
                PenaltySpec(kind="scad", level=0.0),
                EMConfig(k_init=2, max_iterations=20, restarts=1, seed=1),
            )
        messages = [str(w.message) for w in caught]
        assert "constant covariate columns left unscaled" in messages
        assert "fitted components are not pairwise distinct" in messages
        assert model.params.K == 2
        assert np.array_equal(model.params.beta[0], model.params.beta[1])


class TestSerialization:
    def test_json_round_trip_exact(self):
        data = simulate_single(50, 2, [0.6, -0.6], seed=61, censor_frac=0.1)
        spec = PenaltySpec(kind="mcp", level=0.04, shape=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_mixture(data, spec, EMConfig(k_init=2, max_iterations=150, restarts=1, seed=3))
        text = model_to_json(model)
        back = model_from_json(text)
        assert back.params.K == model.params.K
        assert np.array_equal(back.params.pi, model.params.pi)
        for name in ("beta", "event_times", "increments"):
            assert np.array_equal(getattr(back.params, name), getattr(model.params, name))
        assert back.params.kernel == model.params.kernel
        assert back.params.bandwidth == model.params.bandwidth
        assert back.history == model.history
        assert back.seed == model.seed
        assert back.spec.kind == spec.kind
        assert back.spec.level == spec.level
        # serialization is a fixed point
        assert model_to_json(back) == text

    def test_json_is_valid_and_field_ordered(self, small_data):
        model = fit_mixture(
            small_data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1)
        )
        doc = json.loads(model_to_json(model))
        keys = list(doc.keys())
        assert keys == [
            "penalty",
            "level",
            "shape",
            "epsilon",
            "K",
            "pi",
            "beta",
            "baseline",
            "history",
            "seed",
        ]

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_malformed_model_rejected_on_load(self, small_data, case):
        model = FittedModel(
            params=two_component_params(small_data), spec=PenaltySpec(kind="scad", level=0.0), seed=0
        )
        text = model_to_json(model)
        assert model_to_json(model_from_json(text)) == text
        with pytest.raises(ValueError, match=MALFORMED_MODELS[case][1]):
            model_from_json(malformed_model_text(text, case))

    def test_save_and_load_file(self, tmp_path, small_data):
        model = fit_mixture(
            small_data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1)
        )
        path = str(tmp_path / "model.json")
        save_model(model, path)
        back = load_model(path)
        assert model_to_json(back) == model_to_json(model)
