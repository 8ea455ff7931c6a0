import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

import coxmix.coxfit as coxfit
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
    _EventWeights,
    _increments,
    _pl_derivs,
    _pl_value,
    _risk_weights,
    _RiskSets,
    _smoother,
    _tie_sums,
    _TimeIndex,
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
            assert _pl_derivs(ew, beta)[0] == _pl_value(ew, beta) == plain


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
    x_ev = rs.x_ev
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
            # a pass leaves the prepared weights as it found them
            for got in (_pl_derivs(ew, beta), _pl_derivs(ew, beta)):
                assert got[0] == ll
                assert np.array_equal(got[1], grad)
                assert np.array_equal(got[2], hess)
            assert weighted_partial_loglik(data, w, beta) == ll
            assert np.array_equal(partial_loglik_gradient(data, w, beta), grad)
            assert np.array_equal(partial_loglik_hessian(data, w, beta), hess)

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

        def recording(ew, beta):
            out = _pl_derivs(ew, beta)
            passes.append((ew, beta.tobytes(), out[0]))
            return out

        monkeypatch.setattr(coxfit, "_EventWeights", Counting)
        monkeypatch.setattr(coxfit, "_pl_derivs", recording)
        w_r = np.take(w / w.max(), rs.rev)
        beta, ll, iterations, converged = coxfit._newton(rs, w_r, np.zeros(3))
        assert len(built) == 1
        assert all(ew is built[0] for ew, _, _ in passes)
        # the start, then each trial point once; a trial is a step exactly
        # when it beats the last accepted l
        assert len({point for _, point, _ in passes}) == len(passes)
        best, accepted = passes[0][2], 0
        for _, _, value in passes[1:]:
            if value > best:
                best, accepted = value, accepted + 1
        assert converged
        assert iterations == accepted < len(passes) - 1
        assert ll == best


class TestNewtonStop:
    @pytest.mark.parametrize("seed", range(8))
    def test_restart_at_optimum_converges_without_search(self, seed, monkeypatch):
        data = simulate_single(600, 2, [0.8, -0.5], seed=seed, censor_frac=0.2)
        w = np.random.default_rng(seed).uniform(0.05, 1.0, size=data.n)
        fit = fit_weighted_cox(data, w)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _pl_derivs(*args, **kwargs)

        monkeypatch.setattr(coxfit, "_pl_derivs", counting)
        again = fit_weighted_cox(data, w, beta_init=fit.beta)
        assert again.converged
        # the start point and at most one trial point
        assert len(calls) <= 2
        assert fit.converged

    def test_rejected_trials_are_not_steps(self, monkeypatch):
        data = simulate_single(600, 2, [0.8, -0.5], seed=3, censor_frac=0.2)
        w = np.random.default_rng(3).uniform(0.05, 1.0, size=data.n)
        plain = fit_weighted_cox(data, w)
        newton_step = coxfit._newton_step
        # a 64-fold step overshoots, so the first trials of a search fail
        monkeypatch.setattr(coxfit, "_newton_step", lambda hess, grad: 64.0 * newton_step(hess, grad))
        values, points = [], []

        def recording(ew, beta):
            out = _pl_derivs(ew, beta)
            values.append(out[0])
            points.append(beta.tobytes())
            return out

        monkeypatch.setattr(coxfit, "_pl_derivs", recording)
        fit = fit_weighted_cox(data, w)
        # a trial is accepted exactly when it beats the last accepted l
        best, accepted = values[0], 0
        for ll in values[1:]:
            if ll > best:
                best, accepted = ll, accepted + 1
        assert fit.converged
        assert fit.iterations == accepted
        assert len(values) - 1 > fit.iterations
        # one derivative pass per point, accepted or not
        assert len(set(points)) == len(points)
        assert np.max(np.abs(fit.beta - plain.beta)) <= 1e-8

    def test_non_ascent_direction_is_not_convergence(self, monkeypatch):
        data = simulate_single(50, 2, [0.8, -0.5], seed=21)
        # a step pointing downhill makes g'step negative with |g| above tolerance
        monkeypatch.setattr(coxfit, "_newton_step", lambda hess, grad: -grad)
        fit = fit_weighted_cox(data, np.ones(data.n))
        assert not fit.converged
        assert fit.iterations == 0


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
        # g = 0 exactly: a zero slope is an optimum, not a failed search
        assert fit.converged
        assert fit.iterations == 0

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

    def test_no_event_weight_errors(self, small_data):
        w = np.where(small_data.delta == 1, 0.0, 1.0)
        with pytest.raises(DegenerateComponentError):
            fit_weighted_cox(small_data, w)

    def test_beta_init_length_checked(self, small_data):
        with pytest.raises(ValueError):
            fit_weighted_cox(small_data, np.ones(5), beta_init=np.zeros(3))


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
        for m in (ix.grid.size, ix.grid.size // 2, 0):
            want = np.zeros((3, m))
            for g, s in enumerate(ix.grid[:m]):
                first, *rest = np.flatnonzero((y == s) & (delta == 1))
                want[:, g] = w[:, first]
                for i in rest:
                    want[:, g] += w[:, i]
            assert np.array_equal(_tie_sums(ix, w_r, m), want)
            assert np.array_equal(_tie_sums(ix, w_r[0], m), want[0])


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

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_no_targets(self, kernel):
        grid = np.array([1.0, 2.0, 3.5])
        assert _smoother(grid, kernel, 0.7, np.array([]))(np.ones((3, 3))).shape == (3, 0)
        bl = BaselineHazard(event_times=grid, increments=np.array([0.1, 0.2, 0.3]), kernel=kernel, bandwidth=0.7)
        assert smooth_baseline_hazard(bl, np.array([])).shape == (0,)

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_scalar_and_vector_public_calls_agree(self, kernel):
        gen = np.random.default_rng(7)
        grid, h = smoothing_grid("untied", gen)
        inc = gen.gamma(2.0, 0.5 / grid.size, size=grid.size)
        bl = BaselineHazard(event_times=grid, increments=inc, kernel=kernel, bandwidth=h)
        t = smoothing_targets(grid, h, gen)[::97]
        vec = smooth_baseline_hazard(bl, t)
        assert [smooth_baseline_hazard(bl, float(v)) for v in t] == pytest.approx(vec, rel=1e-12, abs=0.0)
        assert_rate_contract(vec[None, :], dense_rates(grid, kernel, h, t, inc[None, :]), inc[None, :], h)


class TestComponentLogDensity:
    def test_censored_survivor_term_only(self):
        # delta=0, beta.x=0, cumhaz(y)=0.5 -> log density -0.5
        bl = BaselineHazard(
            event_times=np.array([1.0]), increments=np.array([0.5]), kernel="gaussian", bandwidth=1.0
        )
        data = Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 0]), x=np.zeros((2, 1)))
        fit = fit_weighted_cox(data, np.ones(2))
        fit = type(fit)(beta=np.array([0.0]), baseline=bl, converged=True, iterations=1)
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
        from coxmix.coxfit import ComponentFit

        fit = ComponentFit(beta=np.array([0.0]), baseline=bl, converged=True, iterations=0)
        logd = component_log_density(data, fit)
        assert np.isfinite(logd[0])
        assert logd[0] < -600
