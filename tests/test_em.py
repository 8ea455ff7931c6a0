import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from coxmix.coxfit import (
    BaselineHazard,
    ComponentFit,
    _log_density,
    _RiskSets,
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
    MixtureParams,
    _apply_prune,
    _FitContext,
    _initialize,
    _log_densities,
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
from coxmix.coxfit import NumericalError
from coxmix.penalties import PenaltySpec, lla_coefficient, log_scale_term

from conftest import simulate_single


def two_component_params(data, seed=0):
    """A small synthetic 2-component model built from two weighted fits."""
    gen = np.random.default_rng(seed)
    w1 = gen.uniform(0.2, 0.8, size=data.n)
    c1 = fit_weighted_cox(data, w1)
    c2 = fit_weighted_cox(data, 1.0 - w1)
    return MixtureParams(pi=np.array([0.4, 0.6]), components=[c1, c2])


class TestMixtureParams:
    def test_simplex_enforced(self, small_data):
        fit = fit_weighted_cox(small_data, np.ones(small_data.n))
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureParams(pi=np.array([0.5, 0.6]), components=[fit, fit])
        with pytest.raises(ValueError):
            MixtureParams(pi=np.array([1.2, -0.2]), components=[fit, fit])
        with pytest.raises(ValueError, match="disagree"):
            MixtureParams(pi=np.array([1.0]), components=[fit, fit])

    def test_k_property(self, small_data):
        fit = fit_weighted_cox(small_data, np.ones(small_data.n))
        params = MixtureParams(pi=np.array([0.5, 0.5]), components=[fit, fit])
        assert params.K == 2


class TestEStep:
    def test_single_component_all_ones(self, small_data):
        fit = fit_weighted_cox(small_data, np.ones(small_data.n))
        params = MixtureParams(pi=np.array([1.0]), components=[fit])
        S = e_step(small_data, params)
        assert np.allclose(S, 1.0)

    def test_identical_components_give_half(self, small_data):
        fit = fit_weighted_cox(small_data, np.ones(small_data.n))
        params = MixtureParams(pi=np.array([0.5, 0.5]), components=[fit, fit])
        S = e_step(small_data, params)
        assert np.allclose(S, 0.5, atol=1e-14)

    def test_matches_linear_space_brute_force(self):
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]),
            delta=np.array([1, 0, 1]),
            x=np.array([[0.5], [-0.3], [1.0]]),
        )
        params = two_component_params(data)
        S = e_step(data, params)
        dens = np.exp(np.column_stack([component_log_density(data, c) for c in params.components]))
        direct = params.pi[None, :] * dens
        direct = direct / direct.sum(axis=1, keepdims=True)
        assert np.allclose(S, direct, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        data = simulate_single(40, 2, [0.5, -0.5], seed=2, censor_frac=0.2)
        params = two_component_params(data, seed=3)
        S = e_step(data, params)
        assert np.allclose(S.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(S >= 0)


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
        params = two_component_params(data)
        dens = np.exp(np.column_stack([component_log_density(data, c) for c in params.components]))
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
        params = MixtureParams(pi=np.array([1.0]), components=[fit])
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
        one = MixtureParams(pi=np.array([1.0]), components=[fit])
        two = MixtureParams(pi=np.array([0.5, 0.5]), components=[fit, fit])
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
    comps = [
        ComponentFit(
            beta=gen.normal(0.0, 0.7, size=p),
            baseline=BaselineHazard(
                event_times=grid, increments=gen.gamma(2.0, 0.5 / grid.size, size=grid.size),
                kernel=kernel, bandwidth=h,
            ),
            loglik=float("nan"),
            converged=True,
            iterations=0,
        )
        for _ in range(K)
    ]
    return MixtureParams(pi=np.full(K, 1.0 / K), components=comps)


def dense_log_densities(data, params, ctx):
    """Per-component oracle through the full n x m kernel matrix."""
    rs = _RiskSets(data.y, data.delta)
    h = ctx.bandwidth
    kmat = kernel_values(ctx.kernel, (data.y[:, None] - rs.grid[None, :]) / h) / h
    cols = []
    for comp in params.components:
        inc = comp.baseline.increments
        cum = np.concatenate(([0.0], np.cumsum(inc)))[rs.cum_idx]
        cols.append(_log_density(data.x @ comp.beta, kmat @ inc, cum, rs.ev_mask))
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
        np.testing.assert_allclose(got, _log_densities(std, params), rtol=1e-12, atol=0)

    def test_build_memory_is_quadratic_in_events_only(self):
        data = simulate_single(3000, 2, [0.5, -0.5], seed=5)
        h = default_time_bandwidth(data.y)
        tracemalloc.start()
        try:
            ctx = _FitContext(data, "gaussian", h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = ctx.rs.grid.size
        assert peak < 1.25 * m * m * 8

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


class TestFitMixture:
    def test_single_component_reduction(self):
        data = simulate_single(50, 2, [0.8, -0.5], seed=23, censor_frac=0.1)
        spec = PenaltySpec(kind="scad", level=0.0)
        model = fit_mixture(data, spec, EMConfig(k_init=1, restarts=1, seed=4))
        direct = fit_weighted_cox(data, np.ones(data.n))
        assert model.params.K == 1
        assert np.allclose(model.params.components[0].beta, direct.beta, atol=1e-6)
        assert np.allclose(
            model.params.components[0].baseline.increments,
            direct.baseline.increments,
            atol=1e-8,
        )

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
            pi=params.pi[::-1].copy(), components=list(reversed(params.components))
        )
        a = penalized_observed_loglik(small_data, params, spec)
        b = penalized_observed_loglik(small_data, flipped, spec)
        assert a == pytest.approx(b, rel=1e-12)

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
        assert model.kernel == "gaussian"
        assert model.bandwidth == model.params.components[0].baseline.bandwidth

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
        assert np.array_equal(model.params.components[0].beta, model.params.components[1].beta)


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
        for a, b in zip(back.params.components, model.params.components):
            assert np.array_equal(a.beta, b.beta)
            assert np.array_equal(a.baseline.event_times, b.baseline.event_times)
            assert np.array_equal(a.baseline.increments, b.baseline.increments)
            assert a.baseline.kernel == b.baseline.kernel
            assert a.baseline.bandwidth == b.baseline.bandwidth
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

    def test_save_and_load_file(self, tmp_path, small_data):
        model = fit_mixture(
            small_data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1)
        )
        path = str(tmp_path / "model.json")
        save_model(model, path)
        back = load_model(path)
        assert model_to_json(back) == model_to_json(model)
