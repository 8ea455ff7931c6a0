import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

import coxmix.coxfit as coxfit
from coxmix.coxfit import (
    DegenerateComponentError,
    component_log_density,
    cumulative_hazard,
    default_time_bandwidth,
    kernel_values,
    partial_loglik,
    smooth_baseline_hazard,
    NewtonOutcome,
    _EventWeights,
    NumericalError,
    _fit_coefficients,
    _increments,
    _newton_step,
    _pl_derivs,
    _pl_value,
    _risk_weights,
    _RiskSets,
    _smoother,
    _tie_sums,
    _TimeIndex,
)
from coxmix.data import Dataset
from coxmix.em import MixtureParams

from conftest import simulate_single, stack_fits


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
        val = partial_loglik(data, np.ones(2), np.array([0.0]))[0]
        assert val == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_matches_brute_force(self, small_data, rng):
        w = rng.uniform(0.1, 1.0, size=small_data.n)
        for _ in range(5):
            beta = rng.normal(size=2)
            got = partial_loglik(small_data, w, beta)[0]
            assert got == pytest.approx(brute_force_pl(small_data, w, beta), abs=1e-10)

    def test_beta_zero_closed_form(self, small_data, rng):
        w = rng.uniform(0.1, 1.0, size=small_data.n)
        expected = 0.0
        for i in range(small_data.n):
            if small_data.delta[i] == 1:
                rs = w[small_data.y >= small_data.y[i]].sum()
                expected += w[i] * (0.0 - math.log(rs))
        got = partial_loglik(small_data, w, np.zeros(2))[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_rows_drop_out(self, small_data):
        w = np.array([1.0, 0.0, 1.0, 1.0, 0.5])
        beta = np.array([0.3, -0.2])
        got = partial_loglik(small_data, w, beta)[0]
        assert got == pytest.approx(brute_force_pl(small_data, w, beta), abs=1e-12)

    def test_weight_validation(self, small_data):
        with pytest.raises(ValueError):
            partial_loglik(small_data, np.ones(3), np.zeros(2))
        with pytest.raises(ValueError):
            partial_loglik(small_data, -np.ones(small_data.n), np.zeros(2))


class TestDerivatives:
    def test_gradient_matches_central_differences(self, rng):
        data = simulate_single(40, 3, [0.5, -0.3, 0.8], seed=7, censor_frac=0.2)
        w = rng.uniform(0.05, 1.0, size=data.n)
        beta = np.array([0.2, 0.1, -0.4])
        _, grad, _ = partial_loglik(data, w, beta)
        h = 1e-5
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (partial_loglik(data, w, beta + e)[0] - partial_loglik(data, w, beta - e)[0]) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-6)

    def test_hessian_matches_gradient_differences(self, rng):
        data = simulate_single(40, 2, [0.5, -0.3], seed=11)
        w = rng.uniform(0.05, 1.0, size=data.n)
        beta = np.array([0.3, -0.1])
        _, _, hess = partial_loglik(data, w, beta)
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (partial_loglik(data, w, beta + e)[1] - partial_loglik(data, w, beta - e)[1]) / (2 * h)
            assert np.allclose(hess[:, j], fd, atol=1e-6)

    def test_hessian_negative_semidefinite(self, rng):
        data = simulate_single(60, 2, [1.0, -1.0], seed=3)
        w = rng.uniform(0.1, 1.0, size=data.n)
        _, _, hess = partial_loglik(data, w, np.array([0.4, 0.2]))
        eigvals = np.linalg.eigvalsh(hess)
        assert np.all(eigvals <= 1e-10)


def three_sums_derivs(data, w, beta):
    """(l, gradient, Hessian) from separate risk-set sums of e, e x and e x x^T.

    The pass the fused one replaced, on the raw covariates: the oracle for
    `_pl_derivs`.
    """
    x = data.x
    order = np.argsort(data.y, kind="stable")
    rev = order[::-1]
    count = data.n - np.searchsorted(data.y[order], data.y, side="left")

    def sums(values):
        return np.cumsum(values[rev], axis=0)[count - 1]

    eta = x @ beta
    shift = float(np.max(eta))
    e = w * np.exp(eta - shift)
    s0 = sums(e)
    s1 = sums(e[:, None] * x)
    s2 = sums(e[:, None, None] * (x[:, :, None] * x[:, None, :]))
    ev = (data.delta == 1) & (w > 0)
    wv = w[ev]
    s0e = s0[ev]
    xbar = s1[ev] / s0e[:, None]
    ll = float(np.sum(wv * (eta[ev] - shift - np.log(s0e))))
    grad = (wv[:, None] * (x[ev] - xbar)).sum(axis=0)
    second = s2[ev] / s0e[:, None, None] - xbar[:, :, None] * xbar[:, None, :]
    hess = -(wv[:, None, None] * second).sum(axis=0)
    return ll, grad, hess


def prepared(data, w):
    """`_EventWeights` of w on a fresh index of data."""
    rs = _RiskSets(data.x, data.y, data.delta)
    return _EventWeights(rs, np.take(w, rs.rev))


def fused_derivs(data, w, beta):
    return _pl_derivs(prepared(data, w), np.asarray(beta, dtype=float))


def oracle_case(p, tied, weights, seed=31):
    data = simulate_single(120, p, np.linspace(0.6, -0.4, p), seed=seed, censor_frac=0.25)
    if tied:
        data = Dataset(y=np.ceil(data.y * 10.0) / 10.0, delta=data.delta, x=data.x)
    gen = np.random.default_rng(seed + p)
    w = gen.uniform(0.05, 1.0, size=data.n)
    if weights == "zero_at_events":
        w[np.flatnonzero(data.delta == 1)[::3]] = 0.0
    elif weights == "tiny":
        w = w * 2.0**-1000
    return data, w, gen.normal(scale=0.5, size=p)


def max_rel_err(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


class TestFusedDerivatives:
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("weights", ["uniform", "zero_at_events", "tiny"])
    def test_matches_three_sums(self, p, tied, weights):
        data, w, beta = oracle_case(p, tied, weights)
        if tied:
            assert np.unique(data.y[data.delta == 1]).size < int(data.delta.sum())
        ll, grad, hess = fused_derivs(data, w, beta)
        ll_o, grad_o, hess_o = three_sums_derivs(data, w, beta)
        assert abs(ll - ll_o) <= 1e-12 * abs(ll_o)
        assert max_rel_err(grad, grad_o) <= 1e-12
        assert max_rel_err(hess, hess_o) <= 1e-12
        assert np.array_equal(hess, hess.T)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_offset_covariates_lose_no_more_than_three_sums(self, p):
        data, w, beta = oracle_case(p, False, "uniform")
        shifted = Dataset(y=data.y, delta=data.delta, x=data.x + 1e4)
        # shifted.x - 1e4 is exact, and the derivatives do not change under
        # a shift of x, so the centred input gives the reference values
        centred = Dataset(y=data.y, delta=data.delta, x=shifted.x - 1e4)
        ref = three_sums_derivs(centred, w, beta)
        fused = fused_derivs(shifted, w, beta)
        parent = three_sums_derivs(shifted, w, beta)
        for got, old, want in zip(fused, parent, ref):
            assert np.max(np.abs(np.subtract(got, want))) <= np.max(np.abs(np.subtract(old, want)))

    @pytest.mark.parametrize("weights", ["uniform", "zero_at_events", "tiny"])
    @pytest.mark.parametrize("tied", [False, True])
    def test_loglik_equals_pl_value_bitwise(self, weights, tied, rng):
        # l from the design's row of ones equals l from one plain cumulative
        # sum of w exp(eta) in risk order, bit for bit
        data, w, _ = oracle_case(3, tied, weights)
        ew = prepared(data, w)
        for _ in range(5):
            beta = rng.normal(size=3)
            eta, shift, e = _risk_weights(ew.rs, ew.w_r, beta)
            s0 = np.take(np.cumsum(e), ew.row)
            plain = float(np.sum(ew.wv * (np.take(eta, ew.position) - shift - np.log(s0))))
            assert _pl_derivs(ew, beta)[0] == _pl_value(ew, beta) == _pl_derivs(ew, beta, False)[0] == plain

    @pytest.mark.parametrize("p", [2, 7])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("weights", ["uniform", "zero_at_events", "tiny"])
    def test_loglik_pass_equals_derivative_pass_bitwise(self, p, tied, weights):
        # the trial points of a capped Newton solve compute l alone; it must
        # be the l that the full pass gives
        data, w, beta0 = oracle_case(p, tied, weights)
        ew = prepared(data, w)
        gen = np.random.default_rng(p)
        betas = [gen.normal(scale=scale, size=p) for scale in (0.1, 0.5, 1.0, 3.0) for _ in range(5)]
        for beta in [beta0] + betas:
            ll = _pl_derivs(ew, beta, False)[0]
            assert math.isfinite(ll)
            assert ll == _pl_derivs(ew, beta)[0]

    def test_loglik_pass_of_a_degenerate_risk_sum_is_minus_inf(self):
        # the later a record, the smaller its covariate: at beta = 1 every
        # record after the first few underflows exp(eta - max eta) to 0, so
        # the late risk sums are 0
        y = np.arange(1.0, 21.0)
        data = Dataset(y=y, delta=np.ones(20, dtype=int), x=np.column_stack([-1000.0 * y, np.zeros(20)]))
        ew = prepared(data, np.ones(20))
        beta = np.array([1.0, 0.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert _pl_derivs(ew, beta, False)[0] == _pl_derivs(ew, beta)[0] == -np.inf


def per_call_derivs(rs, w, beta):
    """`_pl_derivs` with the weights gathered and filtered on every call, as the
    pass did before Newton prepared them once per solve: the oracle that the
    prepared `_EventWeights` must match bit for bit."""
    w_r = np.take(w, rs.rev)
    eta = beta @ rs.design[1 : rs.p + 1]
    shift = float(np.max(eta))
    e = np.exp(eta - shift)
    e *= w_r
    position, row = rs.ev_at
    wv = np.take(w_r, position)
    x_ev = np.take(rs.design[1 : rs.p + 1], rs.ev_at[0], axis=1)
    if not wv.min(initial=1.0) > 0:
        keep = np.flatnonzero(wv > 0)
        position, row = np.take(rs.ev_at, keep, axis=1)
        wv, x_ev = np.take(wv, keep), np.take(x_ev, keep, axis=1)
    sums = np.multiply(rs.design, e)
    np.cumsum(sums, axis=1, out=sums)
    s = np.take(sums, row, axis=1)
    s0 = s[0]
    ll = -np.inf
    if np.all(np.isfinite(s0)) and not np.any(s0 <= 0):
        ll = float(np.sum(wv * (np.take(eta, position) - shift - np.log(s0))))
        ll = ll if math.isfinite(ll) else -np.inf
    p = rs.p
    s1 = s[1 : p + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = wv / s0
        xbar = s1 / s0
        grad = x_ev @ wv - s1 @ a
        second = s[p + 1 :] @ a - (xbar[rs.triu[0]] * xbar[rs.triu[1]]) @ wv
    return ll, grad, -second[rs.sym]


class TestEventWeights:
    @pytest.mark.parametrize("weights", ["uniform", "zero_at_events", "tiny"])
    @pytest.mark.parametrize("tied", [False, True])
    def test_prepared_pass_equals_per_call_pass_bitwise(self, weights, tied, rng):
        data, w, beta0 = oracle_case(3, tied, weights)
        ew = prepared(data, w)
        dropped = int(np.sum((data.delta == 1) & (w == 0)))
        assert ew.wv.size == int(data.delta.sum()) - dropped
        assert (dropped > 0) == (weights == "zero_at_events")
        for beta in [beta0] + [rng.normal(size=3) for _ in range(4)]:
            ll, grad, hess = per_call_derivs(ew.rs, w, beta)
            # a pass leaves the prepared weights as it found them, and the
            # public entry point prepares the same weights
            for got in (_pl_derivs(ew, beta), _pl_derivs(ew, beta), partial_loglik(data, w, beta)):
                assert got[0] == ll
                assert np.array_equal(got[1], grad)
                assert np.array_equal(got[2], hess)

    def test_no_event_weight_gives_the_per_call_zeros(self):
        data, w, beta = oracle_case(2, False, "uniform")
        w[data.delta == 1] = 0.0
        ew = prepared(data, w)
        assert ew.wv.size == 0
        ll, grad, hess = _pl_derivs(ew, beta)
        want = per_call_derivs(ew.rs, w, beta)
        assert ll == want[0] == 0.0
        assert np.array_equal(grad, want[1]) and np.array_equal(hess, want[2])

    def test_newton_prepares_once_and_passes_once_per_point(self, monkeypatch):
        data, w, _ = oracle_case(3, False, "zero_at_events")
        rs = _RiskSets(data.x, data.y, data.delta)
        newton_step = coxfit._newton_step
        # a 64-fold step overshoots, so the searches reject trial points too
        monkeypatch.setattr(coxfit, "_newton_step", lambda hess, grad: 64.0 * newton_step(hess, grad))
        built, passes = [], []

        class Counting(_EventWeights):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def recording(ew, beta, derivs=True):
            out = _pl_derivs(ew, beta, derivs)
            passes.append((ew, beta.tobytes(), out[0]))
            return out

        monkeypatch.setattr(coxfit, "_EventWeights", Counting)
        monkeypatch.setattr(coxfit, "_pl_derivs", recording)
        w_r = np.take(w / w.max(), rs.rev)
        beta, ll, iterations, outcome = coxfit._newton(rs, w_r, np.zeros(3))
        assert len(built) == 1
        assert all(ew is built[0] for ew, _, _ in passes)
        # the start, then each trial point once; a trial is a step exactly
        # when it beats the last accepted l
        assert len({point for _, point, _ in passes}) == len(passes)
        best, accepted = passes[0][2], 0
        for _, _, value in passes[1:]:
            if value > best:
                best, accepted = value, accepted + 1
        assert outcome is NewtonOutcome.CONVERGED
        assert iterations == accepted < len(passes) - 1
        assert ll == best


def fit_cox(data, w, beta0=None, max_steps=coxfit.DEFAULT_MAX_ITER):
    """(beta, accepted Newton steps, outcome) of one weighted Cox fit from
    beta0, zero by default, in at most `max_steps` accepted steps."""
    rs = _RiskSets(data.x, data.y, data.delta)
    beta0 = np.zeros(data.p) if beta0 is None else beta0
    return _fit_coefficients(rs, np.take(np.asarray(w, dtype=float), rs.rev), beta0, max_steps)


class TestNewtonStop:
    @pytest.mark.parametrize("seed", range(8))
    def test_restart_at_optimum_converges_without_search(self, seed, monkeypatch):
        data = simulate_single(600, 2, [0.8, -0.5], seed=seed, censor_frac=0.2)
        w = np.random.default_rng(seed).uniform(0.05, 1.0, size=data.n)
        beta, _, outcome = fit_cox(data, w)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _pl_derivs(*args, **kwargs)

        monkeypatch.setattr(coxfit, "_pl_derivs", counting)
        _, _, again = fit_cox(data, w, beta)
        assert again is NewtonOutcome.CONVERGED
        # the start point and at most one trial point
        assert len(calls) <= 2
        assert outcome is NewtonOutcome.CONVERGED

    def test_rejected_trials_are_not_steps(self, monkeypatch):
        data = simulate_single(600, 2, [0.8, -0.5], seed=3, censor_frac=0.2)
        w = np.random.default_rng(3).uniform(0.05, 1.0, size=data.n)
        plain, _, _ = fit_cox(data, w)
        newton_step = coxfit._newton_step
        # a 64-fold step overshoots, so the first trials of a search fail
        monkeypatch.setattr(coxfit, "_newton_step", lambda hess, grad: 64.0 * newton_step(hess, grad))
        values, points = [], []

        def recording(ew, beta, derivs=True):
            out = _pl_derivs(ew, beta, derivs)
            values.append(out[0])
            points.append(beta.tobytes())
            return out

        monkeypatch.setattr(coxfit, "_pl_derivs", recording)
        beta, iterations, outcome = fit_cox(data, w)
        # a trial is accepted exactly when it beats the last accepted l
        best, accepted = values[0], 0
        for ll in values[1:]:
            if ll > best:
                best, accepted = ll, accepted + 1
        assert outcome is NewtonOutcome.CONVERGED
        assert iterations == accepted
        assert len(values) - 1 > iterations
        # one derivative pass per point, accepted or not
        assert len(set(points)) == len(points)
        assert np.max(np.abs(beta - plain)) <= 1e-8

    def test_non_ascent_direction_is_not_convergence(self, monkeypatch):
        data = simulate_single(50, 2, [0.8, -0.5], seed=21)
        # a step pointing downhill makes g'step negative with |g| above tolerance
        monkeypatch.setattr(coxfit, "_newton_step", lambda hess, grad: -grad)
        _, iterations, outcome = fit_cox(data, np.ones(data.n))
        assert outcome is NewtonOutcome.FAILED
        assert iterations == 0

    def test_search_out_of_halvings_fails(self, monkeypatch):
        data = simulate_single(50, 2, [0.8, -0.5], seed=21)
        # an ascent direction so long that every halving still overshoots
        newton_step = coxfit._newton_step
        monkeypatch.setattr(coxfit, "_newton_step", lambda hess, grad: 1e30 * newton_step(hess, grad))
        _, iterations, outcome = fit_cox(data, np.ones(data.n), max_steps=1)
        assert outcome is NewtonOutcome.FAILED
        assert not outcome
        assert iterations == 0

    @pytest.mark.parametrize("stretch", [1.0, 64.0])
    def test_last_step_trials_compute_loglik_alone(self, stretch, monkeypatch):
        data = simulate_single(600, 2, [0.8, -0.5], seed=3, censor_frac=0.2)
        w = np.random.default_rng(3).uniform(0.05, 1.0, size=data.n)
        newton_step = coxfit._newton_step
        # a 64-fold step overshoots, so the last step's search rejects trials too
        monkeypatch.setattr(coxfit, "_newton_step", lambda hess, grad: stretch * newton_step(hess, grad))
        derivs, values = [], []

        def recording(ew, beta, full=True):
            out = _pl_derivs(ew, beta, full)
            if full:
                derivs.append(beta.tobytes())
            else:
                values.append(out[0])
            return out

        monkeypatch.setattr(coxfit, "_pl_derivs", recording)
        one, iterations, outcome = fit_cox(data, w, max_steps=1)
        assert (iterations, outcome) == (1, NewtonOutcome.CAPPED)
        # the start alone takes the derivative pass; the step's trials, l alone
        assert derivs == [np.zeros(2).tobytes()]
        assert (len(values) == 1) == (stretch == 1.0)
        # one accepted step: the first trial that beats the start
        start = _pl_derivs(prepared(data, w / w.max()), np.zeros(2))[0]
        assert values[:-1] == [v for v in values if not v > start] and values[-1] > start
        # steps depend on beta alone, so two capped steps are one step twice
        two, iterations, _ = fit_cox(data, w, max_steps=2)
        assert iterations == 2
        assert np.array_equal(two, fit_cox(data, w, one, max_steps=1)[0])

    def test_ridge_escalates_until_the_step_is_finite(self):
        # 1e305 / 1e-300 overflows undamped and at the ridges 1e-8, 1e-6 and
        # 1e-4; the fifth system, at ridge ((1e-8 * 100) * 100) * 100, solves
        neg = 1e-300 * np.eye(2)
        grad = np.full(2, 1e305)
        with np.errstate(over="ignore"):
            step = _newton_step(-neg, grad)
            assert np.array_equal(step, np.linalg.solve(neg + ((1e-8 * 100.0) * 100.0) * 100.0 * np.eye(2), grad))
            with pytest.raises(NumericalError, match="remained singular despite ridge damping"):
                _newton_step(-neg, np.full(2, np.inf))


class TestFit:
    def test_matches_generic_optimizer(self):
        data = simulate_single(50, 2, [0.8, -0.5], seed=21)
        w = np.ones(data.n)
        beta, _, outcome = fit_cox(data, w)
        res = minimize(
            lambda b: -brute_force_pl(data, w, b),
            np.zeros(2),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000},
        )
        assert np.allclose(beta, res.x, atol=1e-6)
        assert outcome is NewtonOutcome.CONVERGED

    def test_weighted_matches_generic_optimizer(self, rng):
        data = simulate_single(50, 2, [0.8, -0.5], seed=22, censor_frac=0.15)
        w = rng.uniform(0.05, 1.0, size=data.n)
        beta, _, _ = fit_cox(data, w)
        res = minimize(
            lambda b: -brute_force_pl(data, w, b),
            beta + 0.05,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000},
        )
        assert np.allclose(beta, res.x, atol=1e-6)

    def test_zero_covariates_give_zero_beta(self):
        data = Dataset(y=np.array([1.0, 2.0, 3.0]), delta=np.array([1, 1, 1]), x=np.zeros((3, 1)))
        beta, iterations, outcome = fit_cox(data, np.ones(3))
        assert beta[0] == 0.0
        # g = 0 exactly: a zero slope is an optimum, not a failed search
        assert outcome is NewtonOutcome.CONVERGED
        assert iterations == 0

    def test_duplicated_rows_equal_double_weights(self):
        base = simulate_single(25, 2, [0.6, -0.4], seed=5)
        doubled = Dataset(
            y=np.concatenate([base.y, base.y]),
            delta=np.concatenate([base.delta, base.delta]),
            x=np.vstack([base.x, base.x]),
        )
        beta_dup, _, _ = fit_cox(doubled, np.ones(doubled.n))
        beta_w, _, _ = fit_cox(base, np.full(base.n, 2.0))
        assert np.allclose(beta_dup, beta_w, atol=1e-10)

    def test_weight_scale_invariance(self, rng):
        data = simulate_single(40, 2, [0.5, 0.5], seed=9)
        w = rng.uniform(0.1, 1.0, size=data.n)
        b1, _, _ = fit_cox(data, w)
        b2, _, _ = fit_cox(data, w * 0.001)
        assert np.allclose(b1, b2, atol=1e-8)
        _, inc1 = profile_increments(data, w, b1)
        _, inc2 = profile_increments(data, w * 0.001, b2)
        assert np.allclose(inc1, inc2, atol=1e-12)


def brute_risk_set(y, s):
    """Records in the risk set at time s, by definition."""
    return set(np.flatnonzero(y >= s).tolist())


class TestTimeIndex:
    @pytest.fixture(params=["untied", "tied"])
    def sample(self, request):
        data = simulate_single(60, 1, [0.5], seed=23, censor_frac=0.3)
        if request.param == "tied":
            # a few coarse times: several tie rounds, and events tied with censorings
            data = Dataset(y=np.ceil(data.y * 2.0) / 2.0, delta=data.delta, x=data.x)
        return data

    def test_closing_rows_bound_the_risk_sets(self, sample):
        y, delta = sample.y, sample.delta
        ix = _TimeIndex(y, delta)
        assert np.array_equal(ix.grid, np.unique(y[delta == 1]))
        assert sorted(ix.rev.tolist()) == list(range(sample.n))
        for s, row in zip(ix.grid, ix.grid_row):
            assert set(ix.rev[: row + 1].tolist()) == brute_risk_set(y, s)
        position, row = ix.ev_at
        events = ix.rev[position]
        assert np.all(delta[events] == 1) and events.size == int(delta.sum())
        assert np.all(np.diff(position) > 0)
        for i, r in zip(events, row):
            assert set(ix.rev[: r + 1].tolist()) == brute_risk_set(y, y[i])

    def test_tie_rounds_hold_each_event_once_in_record_order(self, sample):
        y, delta = sample.y, sample.delta
        ix = _TimeIndex(y, delta)
        assert np.array_equal(ix.rounds[0][0], np.arange(ix.grid.size))
        seen = {k: [] for k in range(ix.grid.size)}
        for pos, cols in ix.rounds:
            assert np.all(np.diff(pos) > 0)
            for g, c in zip(pos, cols):
                seen[g].append(int(ix.rev[c]))
        for g, s in enumerate(ix.grid):
            assert seen[g] == np.flatnonzero((y == s) & (delta == 1)).tolist()
        # the coarse times tie up to several events at one time
        assert (len(ix.rounds) >= 3) == (ix.grid.size < int(delta.sum()))

    def test_tie_sums_add_tied_events_in_record_order(self, sample, rng):
        y, delta = sample.y, sample.delta
        ix = _TimeIndex(y, delta)
        w = rng.uniform(size=(3, sample.n))
        w_r = w[:, ix.rev]
        g = ix.grid.size
        for lo, hi in ((0, g), (0, g // 2), (g // 3, g), (g // 3, g // 2), (0, 0)):
            want = np.zeros((3, hi - lo))
            for c, s in enumerate(ix.grid[lo:hi]):
                first, *rest = np.flatnonzero((y == s) & (delta == 1))
                want[:, c] = w[:, first]
                for i in rest:
                    want[:, c] += w[:, i]
            assert np.array_equal(_tie_sums(ix, w_r, lo, hi), want)
            assert np.array_equal(_tie_sums(ix, w_r[0], lo, hi), want[0])
            # the records after grid time lo's risk set closes are never read
            prefix = w_r[:, : ix.grid_row[lo] + 1]
            assert np.array_equal(_tie_sums(ix, prefix, lo, hi), want)


def profile_increments(data, w, beta):
    """(event_times, increments) of the profile baseline at beta."""
    rs = _RiskSets(data.x, data.y, data.delta)
    w_r = np.take(np.asarray(w, dtype=float), rs.rev)
    return rs.grid, _increments(rs, w_r, np.asarray(beta, dtype=float))


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
        untied = simulate_single(30, 2, [0.5, -0.5], seed=17, censor_frac=0.2)
        # rounding up to one decimal ties events with one another
        tied = Dataset(y=np.ceil(untied.y * 10.0) / 10.0, delta=untied.delta, x=untied.x)
        beta = np.array([0.4, -0.2])
        for data in (untied, tied):
            w = rng.uniform(0.05, 1.0, size=data.n)
            times, inc = profile_increments(data, w, beta)
            # sum_{i: y_i = s, d_i = 1} w_i / sum_{j: y_j >= s} w_j exp(eta_j) at each event time s
            want_times = np.unique(data.y[data.delta == 1])
            want = []
            for s in want_times:
                num = sum(w[i] for i in range(data.n) if data.delta[i] == 1 and data.y[i] == s)
                den = sum(w[j] * math.exp(float(data.x[j] @ beta)) for j in range(data.n) if data.y[j] >= s)
                want.append(num / den)
            assert np.array_equal(times, want_times)
            np.testing.assert_allclose(inc, want, rtol=1e-12, atol=0)
        assert np.unique(tied.y[tied.delta == 1]).size < int(tied.delta.sum())

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

    def test_kernel_formulas_bit_for_bit(self):
        one_up, one_down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        u = np.array([0.0, 0.5, 1.0, one_up, one_down, 38.5, 40.0, np.inf, 1e-160])
        u = np.concatenate([u, -u, [np.nan]])
        gaussian = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        epanechnikov = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
        assert kernel_values("gaussian", u).tobytes() == gaussian.tobytes()
        assert kernel_values("epanechnikov", u).tobytes() == epanechnikov.tobytes()
        assert kernel_values("epanechnikov", np.array([np.nan]))[0] == 0.0

    @pytest.mark.parametrize("kernel", coxfit.KERNELS)
    def test_caller_array_is_left_unchanged(self, kernel):
        u = np.linspace(-2.0, 2.0, 9)
        before = u.copy()
        kernel_values(kernel, u)
        assert np.array_equal(u, before)

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


def baselines(times, inc, kernel="gaussian", bandwidth=1.0):
    """MixtureParams with one zero-coefficient component per row of inc."""
    inc = np.atleast_2d(np.asarray(inc, dtype=float))
    K = inc.shape[0]
    return MixtureParams(
        pi=np.full(K, 1.0 / K), beta=np.zeros((K, 1)), event_times=times, increments=inc,
        kernel=kernel, bandwidth=bandwidth,
    )


class TestBaselineEvaluation:
    def test_smooth_single_increment_at_center(self):
        bl = baselines([1.0], [1.0])
        assert smooth_baseline_hazard(bl, 1.0)[0] == pytest.approx(0.3989422804014327, rel=1e-12)

    def test_smooth_far_from_mass_epanechnikov(self):
        bl = baselines([1.0], [1.0], kernel="epanechnikov", bandwidth=0.5)
        assert smooth_baseline_hazard(bl, 10.0)[0] == 0.0

    def test_smooth_matches_plain_loop(self, rng):
        times = np.sort(rng.uniform(0, 3, size=8))
        inc = rng.uniform(0.01, 0.4, size=8)
        bl = baselines(times, inc, bandwidth=0.37)
        for t in (0.0, 0.9, 2.5):
            expected = sum(
                inc[e] * math.exp(-0.5 * ((t - times[e]) / 0.37) ** 2) / math.sqrt(2 * math.pi)
                for e in range(8)
            ) / 0.37
            assert smooth_baseline_hazard(bl, t)[0] == pytest.approx(expected, rel=1e-12)

    def test_large_bandwidth_flattens(self):
        bl = baselines([1.0, 2.0, 3.0], [0.2, 0.3, 0.5], bandwidth=1e6)
        grid = np.array([0.5, 1.5, 3.5])
        vals = smooth_baseline_hazard(bl, grid)
        flat = kernel_values("gaussian", np.zeros(1))[0] * 1.0 / 1e6
        assert np.allclose(vals, flat, rtol=1e-6)

    def test_cumulative_hazard_steps(self):
        bl = baselines([1.0, 2.0], [0.5, 1.0])
        assert cumulative_hazard(bl, 0.0)[0] == 0.0
        assert cumulative_hazard(bl, 0.999)[0] == 0.0
        assert cumulative_hazard(bl, 1.0)[0] == 0.5
        assert cumulative_hazard(bl, 1.5)[0] == 0.5
        assert cumulative_hazard(bl, 2.0)[0] == 1.5
        assert cumulative_hazard(bl, 99.0)[0] == 1.5
        vec = cumulative_hazard(bl, np.array([0.0, 1.5, 2.5]))
        assert np.allclose(vec, [[0.0, 0.5, 1.5]])

    def test_cumulative_hazard_is_nan_at_nan_times(self):
        bl = baselines([1.0, 2.0], [[0.5, 1.0], [0.25, 0.0]])
        assert np.isnan(cumulative_hazard(bl, math.nan)).all()
        assert np.array_equal(cumulative_hazard(bl, math.inf), [1.5, 0.25])
        vec = cumulative_hazard(bl, np.array([math.nan, 1.5, math.inf]))
        assert np.isnan(vec[:, 0]).all()
        assert np.array_equal(vec[:, 1:], [[0.5, 1.5], [0.25, 0.25]])

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_no_event_times(self, kernel):
        # an empty grid smooths to 0 (NaN at a NaN time) and accumulates to 0,
        # so an event's log density is the floored log rate plus eta
        params = MixtureParams(
            pi=[0.5, 0.5], beta=[[0.4], [-0.3]], event_times=[], increments=np.zeros((2, 0)),
            kernel=kernel, bandwidth=1.0,
        )
        t = np.array([0.5, math.nan, 3.0])
        rates = smooth_baseline_hazard(params, t)
        assert np.array_equal(rates[:, [0, 2]], np.zeros((2, 2))) and np.isnan(rates[:, 1]).all()
        assert np.array_equal(smooth_baseline_hazard(params, 1.0), [0.0, 0.0])
        assert np.array_equal(cumulative_hazard(params, t[[0, 2]]), np.zeros((2, 2)))
        data = Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 0]), x=np.array([[0.5], [-1.0]]))
        logd = component_log_density(data, params)
        assert np.array_equal(logd[0], math.log(1e-300) + np.array([0.4, -0.3]) * 0.5)
        assert np.array_equal(logd[1], [0.0, 0.0])

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_rows_are_components(self, kernel, rng):
        times = np.sort(rng.uniform(0, 3, size=20))
        inc = rng.uniform(0.0, 0.4, size=(3, 20))
        bl = baselines(times, inc, kernel=kernel, bandwidth=0.4)
        t = np.array([-1.0, 0.2, 1.3, 2.9, 5.0])
        rates, cums = smooth_baseline_hazard(bl, t), cumulative_hazard(bl, t)
        assert rates.shape == cums.shape == (3, t.size)
        assert smooth_baseline_hazard(bl, 1.3).shape == cumulative_hazard(bl, 1.3).shape == (3,)
        # a row's rates may differ from its lone smoothing in the last bits,
        # as the smoother's matrix products run over all K rows at once
        for k in range(3):
            one = baselines(times, inc[k], kernel=kernel, bandwidth=0.4)
            np.testing.assert_allclose(smooth_baseline_hazard(one, t)[0], rates[k], rtol=1e-13, atol=0)
            np.testing.assert_allclose(smooth_baseline_hazard(one, 1.3), rates[k, [2]], rtol=1e-13, atol=0)
            assert np.array_equal(cumulative_hazard(one, t)[0], cums[k])


def dense_rates(grid, kernel, h, t, inc):
    """K((t - T)/h)/h @ inc through the full len(t) x m kernel matrix."""
    with np.errstate(over="ignore"):
        return (kernel_values(kernel, (t[:, None] - grid[None, :]) / h) / h @ inc.T).T


def assert_rate_contract(got, want, inc, h):
    """Relative error <= 1e-12 where the rate is >= 1e-8 sum(inc)/h, absolute
    error <= 1e-14 sum(inc)/h everywhere."""
    scale = inc.sum(axis=1, keepdims=True) / h
    err = np.abs(got - want)
    assert np.all(err <= 1e-14 * scale)
    big = want >= 1e-8 * scale
    assert np.all(err[big] <= 1e-12 * want[big])


def smoothing_grid(kind, gen):
    """(grid, bandwidth) of distinct event times."""
    if kind == "untied":
        data = simulate_single(2000, 2, [0.8, -0.5], seed=int(gen.integers(1000)), censor_frac=0.1)
        return np.unique(data.y[data.delta == 1]), default_time_bandwidth(data.y)
    # times rounded to a 1/20 lattice, many on box edges and window ends
    times = np.ceil(gen.gamma(2.0, 1.0, size=1500) * 20.0) / 20.0
    return np.unique(times), 0.25


def smoothing_targets(grid, h, gen):
    mid = 0.5 * (grid[1:] + grid[:-1])
    between = gen.uniform(grid[0], grid[-1], size=200)
    steps = h * np.array([0.5, 2.0, 10.0])
    return np.concatenate([grid, mid, between, grid[0] - steps, grid[-1] + steps])


class TestSmoother:
    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("grid_kind", ["untied", "tied"])
    @pytest.mark.parametrize("K", [1, 3, 10])
    def test_matches_dense_sum(self, kernel, grid_kind, K):
        gen = np.random.default_rng(K)
        grid, h = smoothing_grid(grid_kind, gen)
        t = smoothing_targets(grid, h, gen)
        inc = gen.gamma(2.0, 0.5 / grid.size, size=(K, grid.size))
        got = _smoother(grid, kernel, h, t)(inc)
        assert got.shape == (K, t.size)
        assert_rate_contract(got, dense_rates(grid, kernel, h, t, inc), inc, h)

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_far_targets_are_exactly_zero(self, kernel):
        gen = np.random.default_rng(3)
        grid, h = smoothing_grid("untied", gen)
        below = grid[0] - h * np.array([40.5, 1e3, 1e300])
        t = np.concatenate([below, grid[-1] + h * np.array([40.5, 1e6]), [np.inf]])
        inc = gen.gamma(2.0, 0.5, size=(3, grid.size))
        assert np.all(dense_rates(grid, kernel, h, t, inc) == 0.0)
        assert np.all(_smoother(grid, kernel, h, t)(inc) == 0.0)

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_zero_increments(self, kernel):
        gen = np.random.default_rng(4)
        grid, h = smoothing_grid("untied", gen)
        t = smoothing_targets(grid, h, gen)
        inc = gen.gamma(2.0, 0.5 / grid.size, size=(3, grid.size))
        inc[0] = 0.0
        inc[1, ::2] = 0.0
        inc[2, : grid.size // 2] = 0.0
        got = _smoother(grid, kernel, h, t)(inc)
        assert np.all(got[0] == 0.0)
        assert_rate_contract(got, dense_rates(grid, kernel, h, t, inc), inc, h)

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_bandwidth_beyond_range_is_one_box(self, kernel):
        gen = np.random.default_rng(5)
        grid = np.sort(gen.uniform(0.0, 1.0, size=300))
        h = 1e3
        t = np.concatenate([grid, [-5.0, 0.5, 7.0, 2e3]])
        inc = gen.gamma(2.0, 0.01, size=(3, grid.size))
        got = _smoother(grid, kernel, h, t)(inc)
        assert_rate_contract(got, dense_rates(grid, kernel, h, t, inc), inc, h)

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_distant_clusters_keep_memory_linear(self, kernel):
        gen = np.random.default_rng(6)
        h = 0.5
        m = 400
        far = 1e4 * h
        grid = np.sort(np.concatenate([gen.uniform(0.0, 3.0, m // 2), gen.uniform(far, far + 3.0, m // 2)]))
        t = np.concatenate([grid, grid + 0.3 * h])
        inc = gen.gamma(2.0, 0.01, size=(3, m))
        tracemalloc.start()
        try:
            got = _smoother(grid, kernel, h, t)(inc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # boxes spanning the gap between the clusters would take 10^4 x 16 nodes
        assert peak < 4096 * m
        assert_rate_contract(got, dense_rates(grid, kernel, h, t, inc), inc, h)

    @pytest.mark.parametrize("K", [1, 10])
    def test_clusters_either_side_of_box_reach(self, K):
        # clusters 3h wide with gaps of 9, 10, 11 and 12 bandwidths, either
        # side of the 10-box reach, so some clusters meet across the gap and
        # some are out of each other's reach; the targets lie near the
        # clusters and far beyond both ends
        gen = np.random.default_rng(8 + K)
        h = 0.5
        gaps = np.array([9.0, 10.0, 11.0, 12.0]) * h
        starts = np.concatenate([[0.0], np.cumsum(3.0 * h + gaps)])
        grid = np.sort(np.concatenate([s + gen.uniform(0.0, 3.0 * h, size=60) for s in starts]))
        far = h * np.array([9.5, 10.5, 11.5, 15.0])
        t = np.concatenate([grid, grid - 0.3 * h, grid + 0.3 * h, grid[0] - far, grid[-1] + far])
        inc = gen.gamma(2.0, 0.5 / grid.size, size=(K, grid.size))
        got = _smoother(grid, "gaussian", h, t)(inc)
        assert_rate_contract(got, dense_rates(grid, "gaussian", h, t, inc), inc, h)

    def test_box_reach_is_the_contracts(self):
        # the dropped offsets add at most K(reach) sum(inc)/h, and the
        # relative bound needs that below 1e-12 * 1e-8 sum(inc)/h
        reach = next(r for r in range(1, 64) if kernel_values("gaussian", r) <= 1e-20)
        assert coxfit._BOX_REACH == reach == 10
        assert coxfit._BOX_BLOCKS.shape == (21, 16, 16)

    @pytest.mark.parametrize("scale", [1.0, 1e-2])
    @pytest.mark.parametrize("K", [1, 10])
    def test_contract_at_the_box_reach(self, K, scale):
        # an n = 600 sample spans under 2,000 bandwidths at 1e-2 of its rule
        # of thumb, inside the span the Gaussian contract holds for
        gen = np.random.default_rng(20 + K)
        data = simulate_single(600, 2, [0.8, -0.5], seed=20 + K, censor_frac=0.1)
        grid = np.unique(data.y[data.delta == 1])
        h = scale * default_time_bandwidth(data.y)
        assert (grid[-1] - grid[0]) / h < 2000
        steps = h * np.array([9.5, 10.0, 10.5, 11.5])
        t = np.concatenate([smoothing_targets(grid, h, gen), grid[0] - steps, grid[-1] + steps])
        inc = gen.gamma(2.0, 0.5 / grid.size, size=(K, grid.size))
        assert_rate_contract(_smoother(grid, "gaussian", h, t)(inc), dense_rates(grid, "gaussian", h, t, inc), inc, h)

    def test_rate_is_exactly_zero_past_the_box_reach(self):
        # within 10h of an event time every rate is positive; past 11h of
        # every one they are all exactly 0, though the dense sum's are not
        gen = np.random.default_rng(12)
        grid, h = smoothing_grid("untied", gen)
        inc = gen.gamma(2.0, 0.5 / grid.size, size=(3, grid.size))
        near = np.array([grid[0] - 10.0 * h, grid[-1] + 10.0 * h])
        beyond = h * np.array([11.0 * (1 + 1e-12), 11.5, 15.0])
        far = np.concatenate([grid[0] - beyond, grid[-1] + beyond])
        assert np.all(_smoother(grid, "gaussian", h, near)(inc) > 0.0)
        assert np.all(_smoother(grid, "gaussian", h, far)(inc) == 0.0)
        assert np.all(dense_rates(grid, "gaussian", h, far[[0, 3]], inc) > 0.0)

    def test_bandwidth_far_below_spacing_keeps_memory_linear(self):
        # event times about 100 boxes apart: boxes spanning the gaps between
        # them would take 10^5 x 16 nodes
        gen = np.random.default_rng(9)
        m = 1000
        grid = np.sort(gen.uniform(0.0, 1.0, m))
        h = 1e-5
        t = np.concatenate([grid, grid + 0.3 * h])
        inc = gen.gamma(2.0, 0.01, size=(3, m))
        tracemalloc.start()
        try:
            got = _smoother(grid, "gaussian", h, t)(inc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8192 * m
        assert got.shape == (3, t.size) and np.all(np.isfinite(got))

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_no_targets(self, kernel):
        grid = np.array([1.0, 2.0, 3.5])
        assert _smoother(grid, kernel, 0.7, np.array([]))(np.ones((3, 3))).shape == (3, 0)
        bl = baselines(grid, [[0.1, 0.2, 0.3]] * 2, kernel=kernel, bandwidth=0.7)
        assert smooth_baseline_hazard(bl, np.array([])).shape == (2, 0)

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_scalar_and_vector_public_calls_agree(self, kernel):
        gen = np.random.default_rng(7)
        grid, h = smoothing_grid("untied", gen)
        inc = gen.gamma(2.0, 0.5 / grid.size, size=grid.size)
        bl = baselines(grid, inc, kernel=kernel, bandwidth=h)
        t = smoothing_targets(grid, h, gen)[::97]
        vec = smooth_baseline_hazard(bl, t)
        assert [smooth_baseline_hazard(bl, float(v))[0] for v in t] == pytest.approx(vec[0], rel=1e-12, abs=0.0)
        assert_rate_contract(vec, dense_rates(grid, kernel, h, t, inc[None, :]), inc[None, :], h)


class TestComponentLogDensity:
    def test_censored_survivor_term_only(self):
        # delta=0, beta.x=0, cumhaz(y)=0.5 -> log density -0.5
        data = Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 0]), x=np.zeros((2, 1)))
        logd = component_log_density(data, baselines([1.0], [0.5]))
        assert logd.shape == (2, 1)
        assert logd[1, 0] == pytest.approx(-0.5, abs=1e-14)

    def test_event_term_matches_hand_formula(self, rng):
        data = simulate_single(12, 2, [0.5, -0.5], seed=31, censor_frac=0.25)
        w = rng.uniform(0.2, 1.0, size=data.n)
        params = stack_fits(data, [0.5, 0.5], [w, 1.0 - w])
        logd = component_log_density(data, params)
        assert logd.shape == (data.n, 2)
        for i in range(data.n):
            eta = data.x[i] @ params.beta.T
            rate = smooth_baseline_hazard(params, float(data.y[i]))
            cum = cumulative_hazard(params, float(data.y[i]))
            for k in range(2):
                expected = data.delta[i] * (math.log(max(rate[k], 1e-300)) + eta[k]) - math.exp(eta[k]) * cum[k]
                assert logd[i, k] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_rate_floored_not_nan(self):
        bl = baselines([1.0], [1.0], kernel="epanechnikov", bandwidth=0.1)
        # event far outside the kernel support: rate is exactly 0 -> floored log
        data = Dataset(y=np.array([50.0]), delta=np.array([1]), x=np.zeros((1, 1)))
        logd = component_log_density(data, bl)
        assert np.isfinite(logd[0, 0])
        assert logd[0, 0] < -600
