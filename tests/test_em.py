import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize
from scipy.special import logsumexp

from coxmix.coxfit import (
    component_log_density,
    cumulative_hazard,
    default_time_bandwidth,
    kernel_values,
    smooth_baseline_hazard,
)
from coxmix.data import Dataset
from coxmix.em import (
    EMConfig,
    FittedModel,
    MixtureParams,
    _apply_prune,
    _FitContext,
    _initialize,
    _penalty_total,
    _prune_mask,
    check_convergence,
    e_step,
    fit_mixture,
    load_model,
    model_from_json,
    model_to_json,
    monotonicity_failures,
    observed_loglik,
    save_model,
    update_mixing_proportions,
)
from coxmix import coxfit, em, tdroc, tuning
from coxmix.coxfit import DEFAULT_MAX_ITER, NewtonOutcome, NumericalError
from coxmix.penalties import KINDS, PenaltySpec, lla_coefficient, log_scale_term
from coxmix.simgen import SimConfig, generate_dataset, run_study

from conftest import MALFORMED_MODELS, malformed_model_text, real_data_shape_set, simulate_single, stack_fits


def two_component_params(data, seed=0):
    """A small synthetic 2-component model built from two weighted fits with
    complementary random weights."""
    w1 = np.random.default_rng(seed).uniform(0.2, 0.8, size=data.n)
    return stack_fits(data, [0.4, 0.6], [w1, 1.0 - w1])


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

    def test_empty_pi_rejected(self):
        with pytest.raises(ValueError, match="pi must be a nonempty 1-d array"):
            MixtureParams(**mixture_fields(pi=[]))

    @pytest.mark.parametrize(
        "changes",
        [
            {"event_times": [1.0, 2.0, np.inf]},
            {"event_times": [np.nan, 2.0, 3.0]},
            {"increments": [[0.1, np.inf, 0.3], [0.2, 0.0, 0.1]]},
            {"increments": [[0.1, 0.2, 0.3], [0.2, 0.0, np.nan]]},
        ],
    )
    def test_non_finite_baseline_rejected(self, changes):
        with pytest.raises(ValueError, match="baseline hazard entries must be finite"):
            MixtureParams(**mixture_fields(**changes))

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
        params = stack_fits(small_data, [1.0], [np.ones(small_data.n)])
        S = e_step(small_data, params)
        assert np.allclose(S, 1.0)

    def test_identical_components_give_half(self, small_data):
        params = stack_fits(small_data, [0.5, 0.5], [np.ones(small_data.n)] * 2)
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
        dens = np.exp(component_log_density(data, params))
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
        params = stack_fits(small_data, pi, [np.ones(small_data.n)] * pi.size)
        monkeypatch.setattr(em, "component_log_density", lambda data, params: logd)
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

    @pytest.mark.parametrize("level", [0.0, 0.1])
    def test_no_mass_raises_at_every_level(self, level):
        # column means of a zero matrix would leave the simplex
        with pytest.raises(NumericalError, match="carries no mass"):
            update_mixing_proportions(np.zeros((4, 2)), [0.5, 0.5], PenaltySpec(kind="scad", level=level))

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

    def test_root_matches_scipy_brentq(self):
        # 10,000 posed roots, each checked against a tight
        # scipy.optimize.brentq solve of the same equation
        gen = np.random.default_rng(2026)
        trials = posed = 0
        sizes = set()
        worst = 0.0
        while posed < 10_000:
            K = trials % 10 + 1
            n = int(gen.integers(10, 400))
            S = gen.dirichlet(np.full(K, gen.uniform(0.2, 3.0)), size=n)
            spec = PenaltySpec(kind=KINDS[trials % len(KINDS)], level=float(10.0 ** gen.uniform(-4.0, 0.0)))
            pi_prev = gen.dirichlet(np.ones(K))
            trials += 1
            shift = n * spec.level * np.array([lla_coefficient(spec, float(p)) for p in pi_prev])
            if not np.any(shift > 0.0):
                continue  # no root: the update returns the column means
            posed += 1
            sizes.add(K)
            pi = update_mixing_proportions(S, pi_prev, spec)
            colsum = S.sum(axis=0)
            gap = shift - shift.min()
            r = brentq(
                lambda r: float(np.sum(colsum / (r + gap)) - 1.0),
                float(np.max(colsum - gap)), n + 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500,
            )
            worst = max(worst, float(np.max(np.abs(pi - colsum / (r + gap)))))
        assert sizes == set(range(1, 11))
        assert worst <= 1e-14

    @pytest.mark.parametrize("K", [2, 5, 10, 100, 1000])
    def test_pole_free_at_huge_level(self, K):
        # shifts near 1e100 once made the root search evaluate at a pole; the
        # root's proportions are returned unnormalized, within (K + 1) eps of 1
        gen = np.random.default_rng(K)
        cases = [("ls", 0.1), ("ls", 1e100), ("ls", 1e300), ("scad", 0.1), ("scad", 1e100), ("mcp", 0.1), ("mcp", 1e100)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind, level in cases:
                spec = PenaltySpec(kind=kind, level=level)
                for _ in range(30):
                    S = gen.dirichlet(np.full(K, 0.05), size=50)
                    pi = update_mixing_proportions(S, gen.dirichlet(np.ones(K)), spec)
                    assert np.all(pi >= 0.0)
                    assert abs(float(pi.sum()) - 1.0) <= (K + 1) * np.finfo(float).eps

    def test_overflowing_shift_raises_numerical_error(self):
        # n * level * g overflows to inf at level 1e306 (n = 100, K = 3); that
        # must raise the documented error, not a floating-point warning
        S = np.random.default_rng(0).dirichlet(np.ones(3), size=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for level in (1e100, 1e300):
                pi = update_mixing_proportions(S, S.mean(axis=0), PenaltySpec(kind="ls", level=level))
                assert np.all(pi > 0.0)
                assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            with pytest.raises(NumericalError, match="1e\\+306"):
                update_mixing_proportions(S, S.mean(axis=0), PenaltySpec(kind="ls", level=1e306))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_rejects_nonfinite_or_negative_responsibilities(self, bad):
        S = np.full((4, 2), 0.5)
        S[1] = (1.0 - bad, bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            update_mixing_proportions(S, np.array([0.5, 0.5]), PenaltySpec(kind="ls", level=0.1))

    def test_underflowing_column(self):
        # column 1 holds one subnormal entry, so colsum / n underflows to 0
        S = np.zeros((100, 2))
        S[:, 0] = 1.0
        S[0, 1] = 5e-324
        # at level 0.1 both proportions are past shape * level, so the update
        # is the column means, with an exact 0 that pruning removes
        out = update_mixing_proportions(S, np.array([0.5, 0.5]), PenaltySpec(kind="scad", level=0.1))
        assert np.array_equal(out, [1.0, 0.0])
        # at level 1.0 the Newton path runs and refuses the zero share
        with pytest.raises(NumericalError, match="zero or non-finite proportion"):
            update_mixing_proportions(S, np.array([0.5, 0.5]), PenaltySpec(kind="scad", level=1.0))

    def test_huge_level_stays_on_simplex(self):
        S = np.tile(np.array([0.2, 0.8]), (10, 1))
        spec = PenaltySpec(kind="ls", level=50.0)
        out = update_mixing_proportions(S, np.array([0.2, 0.8]), spec)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out > 0)

    def test_newton_step_cap_raises(self, monkeypatch):
        S = np.random.default_rng(0).dirichlet(np.ones(3), size=50)
        pi_prev = np.array([0.5, 0.3, 0.2])
        spec = PenaltySpec(kind="scad", level=0.2)
        # the root search needs more than one step here, and finds it within the cap
        assert update_mixing_proportions(S, pi_prev, spec).sum() == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(em, "PI_NEWTON_MAX_STEPS", 1)
        with pytest.raises(NumericalError, match="not found in 1 Newton steps"):
            update_mixing_proportions(S, pi_prev, spec)


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
        # a fit's lone component has proportion 1 up to rounding, which clears
        # any prune threshold below 1
        for pi in (1.0, 1.0 - 1e-12, 1.0 + 1e-12):
            spec = PenaltySpec(kind="scad", level=0.1, prune_threshold=0.99)
            keep = _prune_mask(np.array([pi]), spec)
            assert keep.tolist() == [True]
            pi2, comps = _apply_prune(np.array([pi]), ["a"], keep)
            assert comps == ["a"]
            assert pi2.tolist() == [1.0]

    def test_all_below_threshold_errors(self):
        # a lone component gets no exemption: in a fit its proportion is 1
        for pi, threshold in (([0.5, 0.5], 0.9), ([0.3], 0.5)):
            spec = PenaltySpec(kind="scad", level=0.1, prune_threshold=threshold)
            with pytest.raises(NumericalError, match="prune threshold"):
                _prune_mask(np.array(pi), spec)


class TestLoglikFunctions:
    def test_observed_matches_brute_force(self):
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]),
            delta=np.array([1, 0, 1]),
            x=np.array([[0.5], [-0.3], [1.0]]),
        )
        params = two_component_params(data)
        dens = np.exp(component_log_density(data, params))
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
        expected = data.n * 0.12 * sum(log_scale_term(spec, float(p)) for p in params.pi)
        assert _penalty_total(params.pi, spec, data.n) == pytest.approx(expected, abs=1e-10)

    def test_level_zero_single_component_is_cox_loglik(self):
        data = simulate_single(25, 2, [0.7, -0.4], seed=41, censor_frac=0.2)
        params = stack_fits(data, [1.0], [np.ones(data.n)])
        spec = PenaltySpec(kind="scad", level=0.0)
        expected = 0.0
        for i in range(data.n):
            eta = float(data.x[i] @ params.beta[0])
            (lam,) = smooth_baseline_hazard(params, float(data.y[i]))
            (cum,) = cumulative_hazard(params, float(data.y[i]))
            expected += data.delta[i] * (math.log(lam) + eta) - math.exp(eta) * cum
        assert _penalty_total(params.pi, spec, data.n) == 0.0
        assert observed_loglik(data, params) == pytest.approx(expected, abs=1e-10)

    def test_duplicate_component_leaves_mixture_term_unchanged(self, small_data):
        w = np.ones(small_data.n)
        one = stack_fits(small_data, [1.0], [w])
        two = stack_fits(small_data, [0.5, 0.5], [w, w])
        assert observed_loglik(small_data, two) == pytest.approx(
            observed_loglik(small_data, one), abs=1e-12
        )


class TestLogDensityEntryPoint:
    """Every n x K log density outside the EM's cached context goes through
    `component_log_density`, the name the benchmark's `coxfit.log_density`
    layer times."""

    def test_each_scoring_path_calls_it_once(self, small_data, monkeypatch):
        assert em.component_log_density is coxfit.component_log_density
        calls = []

        def counting(data, params):
            calls.append(1)
            return coxfit.component_log_density(data, params)

        monkeypatch.setattr(em, "component_log_density", counting)
        params = two_component_params(small_data)
        model = FittedModel(params=params, spec=PenaltySpec(kind="scad", level=0.0), seed=0)
        for score in (
            lambda: e_step(small_data, params),
            lambda: observed_loglik(small_data, params),
            lambda: tdroc.compute_marker(model, small_data, "mixture_posterior_lp"),
        ):
            before = len(calls)
            score()
            assert len(calls) == before + 1


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
        for name in ("k_init", "max_iterations", "restarts", "seed"):
            for bad in (2.5, True, False):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    EMConfig(**{name: bad})
        config = EMConfig(k_init=np.int64(3), max_iterations=np.int32(7), restarts=np.uint8(2), seed=np.uint64(5))
        assert (config.k_init, config.max_iterations, config.restarts, config.seed) == (3, 7, 2, 5)


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
        ctx = _FitContext(data, kernel, default_time_bandwidth(data.y))
        assert tied == (ctx.rs.grid.size < int(np.sum(data.delta)))
        params = random_params(ctx.rs.grid, data.p, K, kernel, ctx.bandwidth, seed=K)
        got = ctx.log_density(params)
        assert got.shape == (data.n, K)
        # atol covers a value that cancels to near 0 from terms of order 1
        np.testing.assert_allclose(got, dense_log_densities(data, params, ctx), rtol=1e-12, atol=1e-15)
        # the EM's cached path and the public one-call path agree exactly
        assert np.array_equal(got, component_log_density(data, params))

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

    @pytest.mark.parametrize("seed", range(4))
    def test_refit_from_a_converged_beta_stays_put(self, seed):
        # a refit is one Newton step, and the step is 0 where g = 0: at a fully
        # converged beta the refit moves it by rounding only
        data = simulate_single(600, 2, [0.8, -0.5], seed=seed, censor_frac=0.2)
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        w = np.random.default_rng(seed).uniform(0.05, 1.0, size=data.n)
        w_r = w.take(ctx.rs.rev)
        beta = ctx.fit_coefficients(w_r, np.zeros(data.p))
        steps = ctx.newton_iterations
        again, inc = ctx.refit_component(w, beta)
        assert np.max(np.abs(again - beta)) <= 1e-12
        assert np.array_equal(inc, ctx.increments(w_r, again))
        assert ctx.newton_fits == 2 and ctx.newton_unconverged == 0
        assert ctx.newton_iterations - steps <= em.REFIT_NEWTON_STEPS == 1

    def test_starved_component_keeps_beta_and_gets_a_zero_baseline(self):
        # no weight at any event: the refit returns the same beta and a zero
        # baseline without a Newton solve
        data = simulate_single(40, 2, [0.8, -0.5], seed=7, censor_frac=0.3)
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        w = np.where(data.delta == 1, 0.0, 0.7)
        beta = np.array([0.3, -0.2])
        again, inc = ctx.refit_component(w, beta)
        assert again is beta
        assert 0 < ctx.rs.grid.size < data.n
        assert np.array_equal(inc, np.zeros(ctx.rs.grid.size))
        assert ctx.newton_fits == ctx.newton_iterations == 0

    def test_refit_takes_one_step_toward_the_full_fit(self):
        data = simulate_single(600, 2, [0.8, -0.5], seed=5, censor_frac=0.2)
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        w = np.random.default_rng(5).uniform(0.05, 1.0, size=data.n)
        full = ctx.fit_coefficients(w.take(ctx.rs.rev), np.zeros(data.p))
        steps = ctx.newton_iterations
        assert steps > 1
        one, _ = ctx.refit_component(w, np.zeros(data.p))
        assert ctx.newton_iterations - steps == 1
        # the step raised l on the way from 0 to the optimum
        l0, l1, lf = (coxfit.partial_loglik(data, w, b)[0] for b in (np.zeros(data.p), one, full))
        assert l0 < l1 < lf


class TestInitialize:
    def test_single_component(self, small_data):
        params = initial_split(small_data, 1, 0)
        assert params.K == 1
        assert params.pi.tolist() == [1.0]

    def test_equal_initial_proportions(self):
        data = simulate_single(60, 2, [0.5, -0.5], seed=8)
        params = initial_split(data, 4, 3)
        assert params.pi.tolist() == [0.25] * 4
        assert params.beta.shape == (4, 2)

    def test_fixed_seed_reproducible(self, small_data):
        a = initial_split(small_data, 2, 9)
        b = initial_split(small_data, 2, 9)
        for name in ("pi", "beta", "increments"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("k_init, seed", [(1, 0), (2, 9), (4, 3)])
    def test_each_beta_fits_its_group(self, k_init, seed):
        # each component's coefficients are the M-step Newton fit on the
        # indicator weights of its group in the start's random split
        data = simulate_single(60, 2, [0.5, -0.5], seed=8)
        params = initial_split(data, k_init, seed)
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        assign = np.random.default_rng(seed).integers(0, k_init, size=data.n)
        # the first draw gives every group an event, so it is the one used
        assert np.bincount(assign[data.delta == 1], minlength=k_init).min() > 0
        assert params.K == k_init
        for j in range(k_init):
            member = (assign == j).astype(float)
            beta = ctx.fit_coefficients(member.take(ctx.rs.rev), np.zeros(data.p))
            assert np.array_equal(params.beta[j], beta)

    def test_event_starved_split_shrinks(self):
        # one event row cannot feed two components; k falls back to 1
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]), delta=np.array([1, 0, 0]), x=np.zeros((3, 1))
        )
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        rng = np.random.default_rng(0)
        params = _initialize(ctx, 2, rng)
        assert params.K == 1
        assert params.pi.tolist() == [1.0]
        # every one of the 100 splits at k = 2 is drawn, then the one at k = 1
        twin = np.random.default_rng(0)
        for _ in range(100):
            twin.integers(0, 2, size=data.n)
        twin.integers(0, 1, size=data.n)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestEMState:
    def test_paused_run_resumes_bit_for_bit(self, monkeypatch):
        data, _ = generate_dataset(SimConfig(200, censor_target=0.2, seed=2026), np.random.default_rng(1))
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        spec = PenaltySpec(kind="scad", level=tuning.level_from_c(0.6, data.n))
        config = EMConfig(k_init=4, max_iterations=400, restarts=1)
        devs = []
        softmax_rows = em._softmax_rows

        def recording(pi, logd):
            out = softmax_rows(pi, logd)
            devs.append(out[1])
            return out

        monkeypatch.setattr(em, "_softmax_rows", recording)
        whole = em._run_em(ctx, spec, config, np.random.default_rng(0), config.max_iterations)
        assert whole.converged and whole.prune_events > 0
        # every E-step of the run is folded in: the start, each iteration's
        # (the last one included) and each post-prune one
        assert len(devs) > whole.iterations + 1
        assert whole.row_dev == max(devs)

        paused = em._run_em(ctx, spec, config, np.random.default_rng(0), 3)
        assert paused.iterations == 3 and not paused.converged
        assert paused.prune_events < whole.prune_events
        em._iterate(ctx, spec, config, paused, config.max_iterations)
        for name in ("pi", "beta", "event_times", "increments"):
            assert np.array_equal(getattr(paused.params, name), getattr(whole.params, name))
        assert paused.history == whole.history
        assert paused.iterations == whole.iterations
        assert paused.converged == whole.converged
        assert paused.prune_events == whole.prune_events


    @pytest.mark.parametrize("seed", range(4))
    def test_converged_state_is_a_fixed_point(self, seed):
        # "converged" tests the objective only; one more EM step from a
        # converged state must also leave the parameters where they are
        data, _ = generate_dataset(SimConfig(300, censor_target=0.05, seed=2026), np.random.default_rng(1))
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        spec = PenaltySpec(kind="scad", level=tuning.level_from_c(0.6, data.n))
        config = EMConfig(k_init=10, max_iterations=400, restarts=1, seed=seed)
        # the restart stream fit_mixture gives this config's one restart
        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
        state = em._run_em(ctx, spec, config, rng, config.max_iterations)
        assert state.converged
        before = state.params
        em._em_step(ctx, spec, config, state)
        assert state.params.K == before.K
        assert np.max(np.abs(state.params.beta - before.beta)) <= 1e-6
        assert np.max(np.abs(state.params.pi - before.pi)) <= 1e-8


@pytest.fixture(scope="class")
def criterion_5_m_steps():
    """Replications 0-2 of the criterion-5 cell (data from SeedSequence([2026,
    i, 0])) tuned as run_study does: every `_fit_coefficients` result as
    (beta, iterations, outcome, step budget), and each fitted model with the
    results made while fitting it. Three replications, since the restart
    screen leaves one replication about 600 solves."""
    made, models = [], []
    fit_coefficients = em._fit_coefficients
    fit_mixture_ = tuning.fit_mixture

    def recording(rs, w_r, beta0, max_steps=DEFAULT_MAX_ITER):
        fit = fit_coefficients(rs, w_r, beta0, max_steps)
        made.append((*fit, max_steps))
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
            SimConfig(n=600, censor_target=0.05, seed=2026), replications=3, kinds=("scad",),
            em_config=EMConfig(k_init=10, max_iterations=400, restarts=2),
            c_grid=np.array([0.6, 0.8]), cn_constant=2.0,
        )
    return made, models


class TestFitMixture:
    def test_single_component_reduction(self):
        data = simulate_single(50, 2, [0.8, -0.5], seed=23, censor_frac=0.1)
        spec = PenaltySpec(kind="scad", level=0.0)
        model = fit_mixture(data, spec, EMConfig(k_init=1, restarts=1, seed=4))
        # one weighted Cox fit on the caller's covariates, bit for bit
        direct = stack_fits(data, [1.0], [np.ones(data.n)])
        assert model.params.K == 1
        assert np.array_equal(model.params.beta, direct.beta)
        assert np.array_equal(model.params.increments, direct.increments)

    def test_objective_drops_are_listed_not_warned(self):
        # an unpenalized K = 3 fit that prunes nothing: the smoothed E-step and
        # the Breslow M-step let its objective fall at many iterations
        data, _ = generate_dataset(SimConfig(300, censor_target=0.05, seed=2026), np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="objective decreased")
            model = fit_mixture(
                data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=3, restarts=1, max_iterations=200, seed=0)
            )
        drops = model.diagnostics["monotonicity_failures"]
        assert model.params.K == 3
        assert model.diagnostics["prune_events"] == 0
        assert len(drops) > 100
        assert drops == monotonicity_failures(model.history)

    def test_every_m_step_converges_on_criterion_5_data(self, criterion_5_m_steps):
        # a Newton search that ran out of halvings used to report
        # converged=False on about a quarter of these fits
        made, _ = criterion_5_m_steps
        assert len(made) > 1000
        assert [f for f in made if f[2] is NewtonOutcome.FAILED] == []
        # the initial fits solve in full; each refit takes at most one step
        initial = [f for f in made if f[3] == DEFAULT_MAX_ITER]
        refits = [f for f in made if f[3] == em.REFIT_NEWTON_STEPS]
        assert len(initial) + len(refits) == len(made)
        assert initial and all(f[2] is NewtonOutcome.CONVERGED for f in initial)
        assert len(refits) > 1000 and all(f[1] <= 1 for f in refits)

    def test_newton_counts_in_diagnostics(self, criterion_5_m_steps):
        _, models = criterion_5_m_steps
        assert len(models) == 2 * 3
        for model, made in models:
            d = model.diagnostics
            assert d["newton_fits"] == len(made) > 0
            assert d["newton_iterations"] == sum(f[1] for f in made)
            assert d["newton_unconverged"] == sum(f[2] is NewtonOutcome.FAILED for f in made)
            # in memory only: criterion 8 compares the model JSON byte for byte
            assert "newton" not in model_to_json(model)

    def test_newton_steps_are_the_initial_fits_plus_one_per_refit(self):
        data, _ = generate_dataset(SimConfig(300, censor_target=0.05, seed=2026), np.random.default_rng(1))
        spec = PenaltySpec(kind="scad", level=tuning.level_from_c(0.6, data.n))
        config = EMConfig(k_init=10, max_iterations=400, restarts=1, seed=3)
        model = fit_mixture(data, spec, config)
        # the initial fits of the one restart, on the data fit_mixture fits
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        _initialize(ctx, config.k_init, np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0]))
        d = model.diagnostics
        refits = d["newton_fits"] - ctx.newton_fits
        assert refits >= d["iterations"] * model.params.K
        assert ctx.newton_iterations < d["newton_iterations"] <= ctx.newton_iterations + refits

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
            want = observed_loglik(data, model.params) - _penalty_total(model.params.pi, spec, data.n)
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
        a = observed_loglik(small_data, params) - _penalty_total(params.pi, spec, small_data.n)
        b = observed_loglik(small_data, flipped) - _penalty_total(flipped.pi, spec, small_data.n)
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
        # a constant covariate centres to zero, so every component keeps beta = 0
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
        assert "constant covariate columns" in messages
        assert "fitted components are not pairwise distinct" in messages
        assert model.params.K == 2
        assert np.array_equal(model.params.beta[0], model.params.beta[1])

    def test_dataset_without_covariates(self):
        base = simulate_single(40, 1, [0.5], seed=53, censor_frac=0.2)
        data = Dataset(y=base.y, delta=base.delta, x=np.empty((40, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = fit_mixture(data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1))
        # the K = 1 level-0 fit is the Nelson-Aalen estimator: events over the
        # number at risk at each distinct event time
        times = np.unique(data.y[data.delta == 1])
        events = np.array([np.sum((data.y == s) & (data.delta == 1)) for s in times])
        at_risk = np.array([np.sum(data.y >= s) for s in times])
        assert single.params.beta.shape == (1, 0)
        assert np.array_equal(single.params.increments[0], events / at_risk)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mixture = fit_mixture(
                data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=3, max_iterations=20, restarts=1)
            )
        assert "fitted components are not pairwise distinct" in [str(w.message) for w in caught]
        assert mixture.params.beta.shape == (mixture.params.K, 0)
        marker = tdroc.compute_marker(mixture, data, "mixture_event_prob", float(np.median(data.y)))
        assert np.all((marker >= 0) & (marker <= 1))
        again = model_from_json(model_to_json(mixture))
        assert np.array_equal(again.params.increments, mixture.params.increments)


class TestRestartScreen:
    """fit_mixture's screen: every restart runs SCREEN_ITERATIONS, the leader
    by best objective so far runs on, and the best finished run wins."""

    @pytest.fixture
    def scripted(self, monkeypatch):
        """fit_mixture over scripted restarts: `script` takes one
        (screen history, converged, final objective or error) per restart in
        spawn order. The screen returns a state with that history; running
        on converges it at the final objective, or raises the error. Returns
        (fit, the states run on, in order); fit(script) returns (the model,
        the states in spawn order)."""
        data = simulate_single(40, 2, [0.6, -0.6], seed=5)
        ran_on = []

        def params(i):
            # two components, distinct per restart, as real restarts carry
            w = np.linspace(0.1 + 0.2 * i, 0.9, data.n)
            return stack_fits(data, [0.5, 0.5], [w, 1.0 - w])

        def fit(script):
            states = [
                em._EMState(params(i), history=list(history), iterations=len(history) - 1, converged=converged)
                for i, (history, converged, _) in enumerate(script)
            ]
            outcome = {id(s): final for s, (_, _, final) in zip(states, script)}
            pending = iter(states)

            def screen(ctx, spec, config, rng, budget):
                assert budget == em.SCREEN_ITERATIONS
                return next(pending)

            def run_on(ctx, spec, config, state, budget):
                assert budget == config.max_iterations
                ran_on.append(state)
                final = outcome[id(state)]
                if isinstance(final, Exception):
                    raise final
                state.history.append(final)
                state.iterations += 1
                state.converged = True

            monkeypatch.setattr(em, "_run_em", screen)
            monkeypatch.setattr(em, "_iterate", run_on)
            config = EMConfig(k_init=1, max_iterations=400, restarts=len(script), seed=0)
            return fit_mixture(data, PenaltySpec(kind="scad", level=0.05), config), states

        return fit, ran_on

    def test_one_restart_is_not_screened(self):
        data, _ = generate_dataset(SimConfig(200, censor_target=0.2, seed=2026), np.random.default_rng(1))
        spec = PenaltySpec(kind="scad", level=tuning.level_from_c(0.6, data.n))
        config = EMConfig(k_init=4, max_iterations=400, restarts=1, seed=5)
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        run = em._run_em(
            ctx, spec, config, np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0]), config.max_iterations
        )
        assert run.converged and run.iterations > em.SCREEN_ITERATIONS
        order = np.argsort(-run.params.pi, kind="stable")
        params = ctx.mixture(run.params.pi[order], run.params.beta[order], run.params.increments[order])
        whole = FittedModel(params=params, spec=spec, seed=5, history=run.history)
        model = fit_mixture(data, spec, config)
        assert model_to_json(model) == model_to_json(whole)
        d = model.diagnostics
        assert (d["converged"], d["iterations"], d["em_iterations_total"]) == (True, run.iterations, run.iterations)
        assert d["restarts_screened"] == 0 and d["restart_failures"] == []
        assert (d["newton_fits"], d["newton_iterations"]) == (ctx.newton_fits, ctx.newton_iterations)

    def test_leader_is_the_best_so_far_not_the_last(self, scripted):
        fit, ran_on = scripted
        model, states = fit([([0.0, 10.0, 5.0], False, 6.0), ([0.0, 6.0, 7.0], False, 8.0)])
        assert ran_on == [states[0]]
        assert model.history == [0.0, 10.0, 5.0, 6.0]
        assert model.diagnostics["restarts_screened"] == 1

    def test_ties_go_to_spawn_order(self, scripted):
        fit, ran_on = scripted
        model, states = fit([([0.0, 3.0], False, 4.0), ([0.0, 8.0], False, 8.5), ([0.0, 8.0], False, 9.0)])
        assert ran_on == [states[1]]
        assert model.history[-1] == 8.5
        assert model.diagnostics["restarts_screened"] == 2

    def test_restart_converged_in_the_screen_can_win(self, scripted):
        fit, ran_on = scripted
        # the leader runs on and ends below the restart that already converged
        model, states = fit([([0.0, 9.0], True, None), ([0.0, 10.0], False, 8.0)])
        assert ran_on == [states[1]]
        assert model.history == [0.0, 9.0]
        assert model.diagnostics["converged"] and model.diagnostics["restarts_screened"] == 0

    def test_converged_leader_runs_nothing_on(self, scripted):
        fit, ran_on = scripted
        model, _ = fit([([0.0, 4.0], False, 50.0), ([0.0, 11.0], True, None)])
        assert ran_on == []
        assert model.history == [0.0, 11.0]
        assert model.diagnostics["restarts_screened"] == 1

    def test_failed_leader_hands_over(self, scripted):
        fit, ran_on = scripted
        model, states = fit([([0.0, 10.0], False, NumericalError("leader broke")), ([0.0, 9.0], False, 7.0)])
        assert ran_on == states
        assert model.history == [0.0, 9.0, 7.0]
        assert model.diagnostics["restart_failures"] == ["leader broke"]
        assert model.diagnostics["restarts_screened"] == 0

    def test_failed_leader_after_the_first_hands_over(self, scripted):
        # the failed leader is not the first run, so dropping it must not
        # compare runs' arrays with one another
        fit, ran_on = scripted
        model, states = fit(
            [
                ([0.0, 8.0], False, 6.0),
                ([0.0, 10.0], False, NumericalError("leader broke")),
                ([0.0, 9.0], False, 7.0),
            ]
        )
        assert ran_on == [states[1], states[2]]
        assert model.history == [0.0, 9.0, 7.0]
        assert model.diagnostics["restart_failures"] == ["leader broke"]
        assert model.diagnostics["restarts_screened"] == 1

    def test_every_restart_failing_raises(self, scripted):
        fit, _ = scripted
        with pytest.raises(NumericalError, match="every EM restart failed: one; two"):
            fit([([0.0, 10.0], False, NumericalError("one")), ([0.0, 9.0], False, NumericalError("two"))])

    def test_screen_counts_on_real_data(self, large_n_600):
        spec = PenaltySpec(kind="scad", level=tuning.level_from_c(0.6, large_n_600.n))
        config = EMConfig(k_init=10, max_iterations=400, restarts=3, seed=0)
        unscreened = []
        for child in np.random.SeedSequence(0).spawn(3):
            ctx = _FitContext(large_n_600, "gaussian", default_time_bandwidth(large_n_600.y))
            unscreened.append(em._run_em(ctx, spec, config, np.random.default_rng(child), config.max_iterations))
        model = fit_mixture(large_n_600, spec, config)
        d = model.diagnostics
        assert d["restarts_screened"] == 2 and d["restart_failures"] == []
        # the leader runs exactly as it would have unscreened
        leader = next(run for run in unscreened if run.history == model.history)
        assert d["iterations"] == leader.iterations and d["converged"]
        assert d["em_iterations_total"] == leader.iterations + 2 * em.SCREEN_ITERATIONS
        assert "screen" not in model_to_json(model) and "em_iterations" not in model_to_json(model)


@pytest.fixture(scope="module")
def large_n_600():
    """SimConfig(600, censor_target=0.05, seed=2026) drawn with default_rng(1)."""
    data, _ = generate_dataset(SimConfig(600, censor_target=0.05, seed=2026), np.random.default_rng(1))
    return data


def with_columns(data, x):
    return Dataset(y=data.y, delta=data.delta, x=x)


class TestCovariateScale:
    """fit_mixture fits the caller's covariates; a shift or rescale of a
    column moves its coefficient and the baselines, nothing else."""

    SCAD_06 = EMConfig(k_init=10, max_iterations=400, restarts=2)

    @staticmethod
    def scad_06(n):
        return PenaltySpec(kind="scad", level=tuning.level_from_c(0.6, n))

    def fit_both(self, data):
        """The K = 1 level-0 fit and the SCAD c = 0.6 fit of `data`, and the
        messages of the warnings they gave."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            single = fit_mixture(data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1))
            mixture = fit_mixture(data, self.scad_06(data.n), self.SCAD_06)
        return (single, mixture), {str(w.message) for w in caught}

    def test_constant_column_centres_to_zero(self, large_n_600):
        # 0.3 does not sum exactly over 600 records, so the column mean is an
        # ulp off 0.3; centred on it, the column would be +-5.6e-17 noise,
        # which stalls the K = 1 fit at beta = 0 and overflows the SCAD fit
        x = np.column_stack([large_n_600.x, np.full(large_n_600.n, 0.3)])
        assert x[:, 2].mean() != 0.3
        data = with_columns(large_n_600, x)
        ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))
        assert not np.any(ctx.rs.design[3])
        fits, messages = self.fit_both(data)
        assert "constant covariate columns" in messages
        assert np.all(np.abs(fits[0].params.beta[0, :2]) > 0.005)
        # each fit is the fit without the column, with beta = 0 on it
        for got, want in zip(fits, self.fit_both(large_n_600)[0]):
            assert got.params.K == want.params.K
            assert got.diagnostics["converged"] and got.diagnostics["newton_unconverged"] == 0
            assert not np.any(got.params.beta[:, 2])
            np.testing.assert_allclose(got.params.beta[:, :2], want.params.beta, rtol=0, atol=1e-9)
            np.testing.assert_allclose(got.params.increments, want.params.increments, rtol=1e-9, atol=0)

    def test_overflowing_baseline_is_a_numerical_error(self, large_n_600):
        # with x1 + 300, a component with beta1 near -3 has its baseline at
        # x = 0 near exp(900): past the float range
        x = large_n_600.x + [300.0, 0.0]
        spec = self.scad_06(large_n_600.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="baseline hazard at x = 0 overflows"):
                fit_mixture(with_columns(large_n_600, x), spec, self.SCAD_06)

    def test_shifted_column_gives_the_same_fit(self, large_n_600):
        # the baselines at x1 + 100 = 0 hold increments near 1e-44; scaling a
        # tie sum to x = 0 before dividing by its risk-set sum flushes them
        # to 0 and moves the objective by 7.8e-3
        x = large_n_600.x + [100.0, 0.0]
        shifted = with_columns(large_n_600, x)
        spec = self.scad_06(large_n_600.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plain = fit_mixture(large_n_600, spec, self.SCAD_06)
            moved = fit_mixture(shifted, spec, self.SCAD_06)
        assert moved.params.K == plain.params.K == 2
        np.testing.assert_allclose(moved.params.beta, plain.params.beta, rtol=0, atol=1e-10)
        assert moved.history[-1] == pytest.approx(plain.history[-1], rel=1e-9, abs=0)
        t = float(np.median(large_n_600.y))
        np.testing.assert_allclose(
            tdroc.compute_marker(moved, shifted, "mixture_event_prob", t),
            tdroc.compute_marker(plain, large_n_600, "mixture_event_prob", t),
            rtol=0, atol=1e-10,
        )

    def test_rescaled_real_data_shape_gives_the_same_fit(self):
        # GBSG-like column scales and offsets on the p = 7 set
        data = real_data_shape_set()
        scale = np.array([1.0, 10.0, 100.0, 1000.0, 0.01, 1.0, 50.0])
        offset = np.array([0.0, 2000.0, 0.0, -50.0, 0.0, 1.0, 40.0])
        spec = self.scad_06(data.n)
        config = EMConfig(k_init=10, max_iterations=400, restarts=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plain = fit_mixture(data, spec, config)
            moved = fit_mixture(with_columns(data, data.x * scale + offset), spec, config)
        assert moved.params.K == plain.params.K == 2
        assert moved.diagnostics["iterations"] == plain.diagnostics["iterations"]
        np.testing.assert_allclose(moved.params.beta * scale, plain.params.beta, rtol=1e-9, atol=0)
        assert moved.history[-1] == pytest.approx(plain.history[-1], rel=1e-9, abs=0)


class TestSerialization:
    def test_json_number_spellings(self):
        values = [0.1, np.float64(-2.5), 1e300, math.nan, -math.nan, math.inf, -math.inf]
        assert [em._fmt_float(v) for v in values] == [
            "0.10000000000000001", "-2.5", "1.0000000000000001e+300", "NaN", "NaN", "Infinity", "-Infinity",
        ]

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

    def test_boolean_k_rejected_for_one_component_model(self, small_data):
        # True == 1, so only the integer check tells it from this model's K
        model = FittedModel(
            params=stack_fits(small_data, [1.0], [np.ones(small_data.n)]),
            spec=PenaltySpec(kind="scad", level=0.0),
            seed=0,
        )
        doc = json.loads(model_to_json(model))
        assert doc["K"] == 1
        with pytest.raises(ValueError, match="'K' is malformed: K must be an integer"):
            model_from_json(json.dumps({**doc, "K": True}))

    def test_save_and_load_file(self, tmp_path, small_data):
        model = fit_mixture(
            small_data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1)
        )
        path = str(tmp_path / "model.json")
        save_model(model, path)
        back = load_model(path)
        assert model_to_json(back) == model_to_json(model)
