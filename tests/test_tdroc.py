import math
import tracemalloc
import warnings

import numpy as np
import pytest

from coxmix import tdroc
from coxmix.coxfit import _record_log_densities, fit_weighted_cox, kernel_values
from coxmix.data import Dataset
from coxmix.em import e_step, FittedModel, MixtureParams, fit_mixture, EMConfig, observed_loglik
from coxmix.penalties import PenaltySpec
from coxmix.tdroc import (
    MARKER_MODES,
    auc,
    censoring_weights,
    compute_marker,
    conditional_survival,
    default_marker_bandwidth,
    roc_curve,
)

from conftest import simulate_single, stack_fits


def weighted_mann_whitney(markers, weights):
    """Pairwise case-vs-control comparison probability, ties counted half."""
    m = np.asarray(markers, dtype=float)
    w = np.asarray(weights, dtype=float)
    num = 0.0
    for i in range(m.size):
        for j in range(m.size):
            if m[i] > m[j]:
                score = 1.0
            elif m[i] == m[j]:
                score = 0.5
            else:
                score = 0.0
            num += w[i] * (1.0 - w[j]) * score
    return num / (w.sum() * (1.0 - w).sum())


def plain_km(data, t):
    """Unconditional Kaplan-Meier survival at t."""
    s = 1.0
    for u in np.unique(data.y[data.delta == 1]):
        if u > t:
            break
        d = np.sum((data.y == u) & (data.delta == 1))
        r = np.sum(data.y >= u)
        s *= 1.0 - d / r
    return s


def dense_conditional_km(markers, data, bandwidth, kernel):
    """Reference build of every subject's curve over every event time.

    Returns (times, curves) with one row of `curves` per subject. This is
    the all-rows, all-times algorithm the library restricts; per row it runs
    the same elementwise operations in the same order.
    """
    m = np.asarray(markers, dtype=float)
    times = np.unique(data.y[data.delta == 1])
    with np.errstate(invalid="ignore"):
        u = (m[None, :] - m[:, None]) / bandwidth
    if not np.all(np.isfinite(u)):
        u = np.zeros_like(u)
    w = kernel_values(kernel, u)
    order = np.argsort(data.y, kind="stable")
    suffix = np.cumsum(w[:, order][:, ::-1], axis=1)[:, ::-1]
    den = suffix[:, np.searchsorted(data.y[order], times, side="left")]
    ev = data.delta == 1
    num = np.zeros_like(den)
    np.add.at(num.T, np.searchsorted(times, data.y[ev]), w[:, ev].T)
    empty = den <= 0.0
    factors = np.where(empty, 1.0, 1.0 - num / np.where(empty, 1.0, den))
    return times, np.cumprod(factors, axis=1)


def dense_survival_at(times, curves, at):
    """Each row's curve at its own time in `at` (1 before the first event)."""
    idx = np.searchsorted(times, at, side="right") - 1
    rows = np.arange(curves.shape[0])
    return np.where(idx >= 0, curves[rows, np.maximum(idx, 0)], 1.0)


def dense_censoring_weights(markers, data, t, bandwidth, kernel):
    times, curves = dense_conditional_km(markers, data, bandwidth, kernel)
    W = np.zeros(data.n)
    W[(data.y <= t) & (data.delta == 1)] = 1.0
    frac = (data.y < t) & (data.delta == 0)
    s_t = dense_survival_at(times, curves, np.full(data.n, t))[frac]
    s_y = dense_survival_at(times, curves, data.y)[frac]
    zero = s_y <= 0.0
    ratio = np.where(zero, 0.0, s_t / np.where(zero, 1.0, s_y))
    W[frac] = np.clip(1.0 - ratio, 0.0, 1.0)
    return W


def horizon(data, where):
    """A horizon at, between, before or after the distinct event times."""
    times = np.unique(data.y[data.delta == 1])
    if where == "at_event":
        return float(times[times.size // 2])
    if where == "between_events":
        k = times.size // 2
        return float(0.5 * (times[k] + times[k + 1]))
    if where == "before_first":
        return float(times[0] - 1e-3)
    return float(data.y.max() + 1.0)


class TestBandwidthRule:
    def test_formula(self):
        m = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        expected = 1.06 * m.std(ddof=1) * 5 ** (-0.2)
        assert default_marker_bandwidth(m) == pytest.approx(expected)

    def test_degenerate_inputs(self):
        assert default_marker_bandwidth(np.array([3.0, 3.0, 3.0])) == 1.0
        assert default_marker_bandwidth(np.array([42.0])) == 1.0


class TestRocCurve:
    def test_matches_pairwise_oracle_binary_weights(self, rng):
        m = rng.normal(size=30)
        w = (rng.uniform(size=30) < 0.4).astype(float)
        w[0], w[1] = 1.0, 0.0  # both classes present
        got = auc(roc_curve(m, w))
        assert got == pytest.approx(weighted_mann_whitney(m, w), abs=1e-12)

    def test_matches_pairwise_oracle_fractional_weights(self, rng):
        m = rng.normal(size=25)
        w = rng.uniform(0.05, 0.95, size=25)
        got = auc(roc_curve(m, w))
        assert got == pytest.approx(weighted_mann_whitney(m, w), abs=1e-12)

    def test_ties_counted_half(self):
        m = np.array([1.0, 1.0, 1.0, 1.0])
        w = np.array([1.0, 1.0, 0.0, 0.0])
        assert auc(roc_curve(m, w)) == pytest.approx(0.5, abs=1e-15)
        assert auc(roc_curve(m, w)) == pytest.approx(weighted_mann_whitney(m, w), abs=1e-15)

    def test_perfect_and_reversed_markers(self):
        m = np.array([0.1, 0.2, 3.0, 4.0])
        w = np.array([0.0, 0.0, 1.0, 1.0])
        assert auc(roc_curve(m, w)) == pytest.approx(1.0, abs=1e-15)
        assert auc(roc_curve(-m, w)) == pytest.approx(0.0, abs=1e-15)

    def test_sentinels_and_monotonicity(self, rng):
        m = rng.normal(size=20)
        w = rng.uniform(size=20)
        curve = roc_curve(m, w)
        assert curve.thresholds[0] == np.inf
        assert curve.thresholds[-1] == -np.inf
        assert curve.sensitivity[0] == 0.0
        assert curve.one_minus_specificity[0] == 0.0
        assert curve.sensitivity[-1] == pytest.approx(1.0, abs=1e-12)
        assert curve.one_minus_specificity[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(curve.sensitivity) >= -1e-15)
        assert np.all(np.diff(curve.one_minus_specificity) >= -1e-15)
        assert curve.thresholds.size == np.unique(m).size + 2

    def test_monotone_marker_transform_preserves_auc(self, rng):
        m = rng.normal(size=15)
        w = rng.uniform(size=15)
        assert auc(roc_curve(np.exp(m), w)) == pytest.approx(auc(roc_curve(m, w)), abs=1e-15)

    def test_degenerate_weight_errors(self):
        m = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="every weight is zero"):
            roc_curve(m, np.zeros(2))
        with pytest.raises(ValueError, match="every weight is one"):
            roc_curve(m, np.ones(2))
        with pytest.raises(ValueError, match="matching 1-d"):
            roc_curve(m, np.ones(3))
        m4, w4 = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.5, 0.0, 0.5])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="markers must be finite"):
                roc_curve(np.where(np.arange(4) == 1, bad, m4), w4)
        # a negative or above-one weight would make the sensitivity fall
        for bad in ([1.5, -0.2, 0.5, 0.0], [1.0, np.nan, 0.5, 0.0], [1.0, np.inf, 0.5, 0.0], [-0.0, 1.0 + 1e-12, 0.5, 0.0]):
            with pytest.raises(ValueError, match=r"weights must be finite and lie in \[0, 1\]"):
                roc_curve(m4, np.array(bad))


class TestSensitivitySpecificity:
    def test_hand_example(self):
        m = np.array([3.0, 2.0, 1.0, 0.0])
        w = np.array([1.0, 0.5, 0.0, 0.5])
        curve = roc_curve(m, w)
        # M > 1.5 selects the first two subjects, as threshold 1.0 on the curve does
        i = curve.thresholds.tolist().index(1.0)
        # case mass above: 1 + 0.5 of total 2; control mass at or below: 1 + 0.5 of total 2
        assert curve.sensitivity[i] == pytest.approx(0.75)
        assert 1.0 - curve.one_minus_specificity[i] == pytest.approx(0.75)


class TestConditionalSurvival:
    def test_infinite_bandwidth_is_plain_km(self):
        data = simulate_single(40, 1, [0.5], seed=101, censor_frac=0.3)
        markers = data.x[:, 0]
        t = float(np.median(data.y))
        got = conditional_survival(markers, data, t, bandwidth=np.inf)
        expected = plain_km(data, t)
        assert np.allclose(got, expected, atol=1e-12)

    def test_identical_markers_give_plain_km(self):
        data = simulate_single(30, 1, [0.5], seed=103, censor_frac=0.25)
        markers = np.zeros(30)
        t = float(np.quantile(data.y, 0.6))
        got = conditional_survival(markers, data, t, bandwidth=2.0)
        assert np.allclose(got, plain_km(data, t), atol=1e-12)

    def test_before_first_event_is_one(self):
        data = Dataset(
            y=np.array([2.0, 3.0, 4.0]), delta=np.array([1, 1, 0]), x=np.zeros((3, 1))
        )
        got = conditional_survival(np.array([0.0, 1.0, 2.0]), data, 1.0)
        assert np.allclose(got, 1.0)

    def test_empty_risk_set_skipped_with_warning(self):
        # compact kernel and far-apart markers starve one curve's risk set
        data = Dataset(
            y=np.array([1.0, 2.0]), delta=np.array([1, 1]), x=np.zeros((2, 1))
        )
        markers = np.array([0.0, 100.0])
        with pytest.warns(UserWarning, match="empty weighted risk set"):
            got = conditional_survival(markers, data, 2.0, bandwidth=1.0, kernel="epanechnikov")
        assert np.all(np.isfinite(got))
        # subject 0 never sees the event at y=2, so its factor there is skipped
        assert got[0] == pytest.approx(0.0, abs=1e-15) or got[0] > 0.0

    def test_validation(self):
        data = Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 0]), x=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="one entry per record"):
            conditional_survival(np.array([1.0]), data, 1.0)
        with pytest.raises(ValueError, match="finite"):
            conditional_survival(np.array([1.0, np.nan]), data, 1.0)
        with pytest.raises(ValueError, match="positive"):
            conditional_survival(np.array([1.0, 2.0]), data, 1.0, bandwidth=0.0)


class TestRestrictedBuild:
    """The library builds curves only for the rows and times it reads; the
    results must equal the dense build's bit for bit."""

    @staticmethod
    def make_data(tied):
        data = simulate_single(80, 1, [0.7], seed=157, censor_frac=0.35)
        if not tied:
            return data
        # one decimal leaves many tied times among events and censorings
        y = np.maximum(np.round(data.y, 1), 0.1)
        ev_y = y[data.delta == 1]
        assert np.unique(ev_y).size < ev_y.size
        assert np.intersect1d(ev_y, y[data.delta == 0]).size > 0
        return Dataset(y=y, delta=data.delta, x=data.x)

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("where", ["at_event", "between_events", "before_first", "after_last"])
    @pytest.mark.parametrize("bandwidth", [0.4, np.inf])
    def test_bit_identical_to_dense_build(self, kernel, tied, where, bandwidth):
        data = self.make_data(tied)
        markers = data.x[:, 0]
        t = horizon(data, where)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            W = censoring_weights(markers, data, t, bandwidth=bandwidth, kernel=kernel)
            S = conditional_survival(markers, data, t, bandwidth=bandwidth, kernel=kernel)
            times, curves = dense_conditional_km(markers, data, bandwidth, kernel)
            W_dense = dense_censoring_weights(markers, data, t, bandwidth, kernel)
        assert np.array_equal(W, W_dense)
        assert np.array_equal(S, dense_survival_at(times, curves, np.full(data.n, t)))
        if where in ("at_event", "between_events"):
            assert np.any((W > 0.0) & (W < 1.0))  # the fractional weights are exercised

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("rows_per_block", [1, 3])
    def test_bit_identical_across_blocks_and_tie_rounds(self, monkeypatch, kernel, tied, rows_per_block):
        data = self.make_data(tied)
        if tied:
            _, counts = np.unique(data.y[data.delta == 1], return_counts=True)
            assert counts.max() >= 3  # several tie rounds at one time
        monkeypatch.setattr(tdroc, "_BLOCK_ENTRIES", rows_per_block * data.n)
        markers = data.x[:, 0]
        times, curves = dense_conditional_km(markers, data, 0.4, kernel)
        for where in ("at_event", "between_events", "before_first", "after_last"):
            t = horizon(data, where)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                W = censoring_weights(markers, data, t, bandwidth=0.4, kernel=kernel)
                S = conditional_survival(markers, data, t, bandwidth=0.4, kernel=kernel)
                W_dense = dense_censoring_weights(markers, data, t, 0.4, kernel)
            assert np.array_equal(W, W_dense)
            assert np.array_equal(S, dense_survival_at(times, curves, np.full(data.n, t)))
        assert np.sum((data.y < t) & (data.delta == 0)) > 3 * rows_per_block  # many blocks

    def test_builds_only_rows_censored_before_horizon(self, monkeypatch):
        data = simulate_single(120, 1, [0.6], seed=163, censor_frac=0.3)
        t = float(np.median(data.y))
        built = []

        class Spy(tdroc._ConditionalKM):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.curves.shape[0])

        monkeypatch.setattr(tdroc, "_ConditionalKM", Spy)
        censoring_weights(data.x[:, 0], data, t)
        frac = (data.y < t) & (data.delta == 0)
        assert built == [int(frac.sum())]

    def test_memory_is_not_quadratic(self):
        n = 3000
        gen = np.random.default_rng(167)
        y = gen.standard_exponential(n)
        delta = np.ones(n, dtype=int)
        delta[np.argsort(y)[:: n // 20]] = 0  # 20 censored records spread over time
        data = Dataset(y=y, delta=delta, x=gen.standard_normal((n, 1)))
        t = float(np.median(y))
        markers = data.x[:, 0]
        assert 0 < np.sum((y < t) & (delta == 0)) <= 20
        tracemalloc.start()
        try:
            censoring_weights(markers, data, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    @pytest.mark.parametrize("n", [3000, 12000])
    @pytest.mark.parametrize("func", [censoring_weights, conditional_survival])
    def test_memory_per_subject_stays_flat_as_censored_rows_grow(self, n, func):
        gen = np.random.default_rng(173)
        y = gen.standard_exponential(n)
        delta = (gen.uniform(size=n) >= 0.3).astype(int)
        data = Dataset(y=y, delta=delta, x=gen.standard_normal((n, 1)))
        t = float(np.quantile(y, 0.75))
        assert np.sum((y < t) & (delta == 0)) > n // 5  # r grows with n
        tracemalloc.start()
        try:
            func(data.x[:, 0], data, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block of kernel entries is about 1 MB whatever n is: some 2.2 kB
        # per subject at n = 3000, against 32 kB and 149 kB with all rows at once
        assert peak / n < 4096

    def test_no_warning_for_curves_no_weight_uses(self):
        # subject 0's curve starves at y = 2 (no subject near its marker is
        # still at risk), but only subject 2 is censored before t
        data = Dataset(
            y=np.array([1.0, 2.0, 1.5, 3.0]), delta=np.array([1, 1, 0, 0]), x=np.zeros((4, 1))
        )
        markers = np.array([0.0, 100.0, 100.5, 100.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = censoring_weights(markers, data, 2.0, bandwidth=1.0, kernel="epanechnikov")
        assert W[0] == 1.0 and W[1] == 1.0 and W[3] == 0.0
        assert 0.0 < W[2] < 1.0
        with pytest.warns(UserWarning, match="empty weighted risk set"):
            conditional_survival(markers, data, 2.0, bandwidth=1.0, kernel="epanechnikov")

    def test_tiny_bandwidth_keeps_markers_apart(self):
        # (M_j - M_i) / h overflows to infinity: the kernel weight is zero,
        # not the K(0) of an infinite bandwidth
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]), delta=np.array([1, 1, 1]), x=np.zeros((3, 1))
        )
        with pytest.warns(UserWarning, match="empty weighted risk set"):
            got = conditional_survival(np.array([0.0, 1.0, 2.0]), data, 2.5, bandwidth=1e-320)
        assert np.array_equal(got, np.array([0.0, 0.0, 1.0]))


class TestCensoringWeights:
    def test_events_and_survivors(self):
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0, 4.0, 2.5]),
            delta=np.array([1, 0, 1, 0, 1]),
            x=np.zeros((5, 1)),
        )
        W = censoring_weights(np.zeros(5), data, t=2.5)
        assert W[0] == 1.0  # event before t
        assert W[4] == 1.0  # event exactly at t
        assert W[2] == 0.0  # event after t
        assert W[3] == 0.0  # censored after t

    def test_censored_exactly_at_horizon_is_control(self):
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]), delta=np.array([1, 0, 1]), x=np.zeros((3, 1))
        )
        W = censoring_weights(np.zeros(3), data, t=2.0)
        assert W[1] == 0.0

    def test_fractional_weight_matches_km_ratio(self):
        data = simulate_single(50, 1, [0.6], seed=107, censor_frac=0.35)
        t = float(np.quantile(data.y, 0.7))
        markers = np.zeros(50)  # identical markers: conditional KM is plain KM
        W = censoring_weights(markers, data, t, bandwidth=1.0)
        frac = (data.y < t) & (data.delta == 0)
        assert np.any(frac)
        for i in np.nonzero(frac)[0]:
            expected = 1.0 - plain_km(data, t) / plain_km(data, float(data.y[i]))
            assert W[i] == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= W[i] <= 1.0

    def test_inputs_checked_when_no_one_is_censored_before_t(self):
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0, 4.0]), delta=np.array([1, 1, 0, 0]), x=np.zeros((4, 1))
        )
        for t in (2.5, 3.5):  # nobody, then subject 2, censored before t
            with pytest.raises(ValueError, match="finite"):
                censoring_weights(np.array([np.nan, 1.0, 2.0, 3.0]), data, t)
            with pytest.raises(ValueError, match="one entry per record"):
                censoring_weights(np.array([1.0, 2.0]), data, t)
            with pytest.raises(ValueError, match="positive"):
                censoring_weights(np.arange(4.0), data, t, bandwidth=0.0)

    def test_unknown_kernel_rejected_when_no_one_is_censored_before_t(self):
        data = simulate_single(20, 1, [0.5], seed=103, censor_frac=0.3)
        t = float(data.y.min())
        assert not np.any((data.y < t) & (data.delta == 0))
        for func in (censoring_weights, conditional_survival):
            with pytest.raises(ValueError, match="unknown kernel 'foo'"):
                func(data.x[:, 0], data, t, kernel="foo")

    def test_uncensored_data_weights_are_indicators(self):
        data = simulate_single(30, 1, [0.5], seed=109, censor_frac=0.0)
        t = float(np.median(data.y))
        W = censoring_weights(data.x[:, 0], data, t)
        assert np.array_equal(W, ((data.y <= t) & (data.delta == 1)).astype(float))


class TestComputeMarker:
    def make_single_model(self, data):
        fit = fit_weighted_cox(data, np.ones(data.n))
        params = stack_fits([1.0], [fit])
        return FittedModel(params=params, spec=PenaltySpec(kind="scad", level=0.0), seed=0)

    def make_mixture_model(self, data):
        gen = np.random.default_rng(7)
        w = gen.uniform(0.2, 0.8, size=data.n)
        c1 = fit_weighted_cox(data, w)
        c2 = fit_weighted_cox(data, 1.0 - w)
        params = stack_fits([0.45, 0.55], [c1, c2])
        return FittedModel(params=params, spec=PenaltySpec(kind="scad", level=0.1), seed=0)

    def test_linear_predictor(self):
        data = simulate_single(25, 2, [0.8, -0.4], seed=113)
        model = self.make_single_model(data)
        got = compute_marker(model, data, "cox_linear_predictor")
        assert np.allclose(got, data.x @ model.params.beta[0], atol=1e-14)

    def test_covariate_count_mismatch_names_both_widths(self):
        data = simulate_single(25, 2, [0.8, -0.4], seed=113)
        narrow = Dataset(y=data.y, delta=data.delta, x=data.x[:, :1])
        message = "model has 2 coefficients per component, data has 1 covariates"
        for model in (self.make_single_model(data), self.make_mixture_model(data)):
            for mode in MARKER_MODES:
                with pytest.raises(ValueError, match=message):
                    compute_marker(model, narrow, mode, t=1.0)

    def test_linear_predictor_requires_one_component(self):
        data = simulate_single(25, 2, [0.8, -0.4], seed=113)
        model = self.make_mixture_model(data)
        with pytest.raises(ValueError, match="single-component"):
            compute_marker(model, data, "cox_linear_predictor")

    def test_posterior_lp_brute_force(self):
        data = simulate_single(20, 2, [0.7, -0.6], seed=127, censor_frac=0.2)
        model = self.make_mixture_model(data)
        got = compute_marker(model, data, "mixture_posterior_lp")
        S = e_step(data, model.params)
        expected = np.zeros(data.n)
        for i in range(data.n):
            for k, beta in enumerate(model.params.beta):
                expected[i] += S[i, k] * float(data.x[i] @ beta)
        assert np.allclose(got, expected, atol=1e-12)

    def test_event_prob_brute_force(self):
        data = simulate_single(20, 2, [0.7, -0.6], seed=131, censor_frac=0.2)
        model = self.make_mixture_model(data)
        t = float(np.median(data.y))
        got = compute_marker(model, data, "mixture_event_prob", t=t)
        expected = np.zeros(data.n)
        for i in range(data.n):
            s = 0.0
            for pi_k, beta, inc in zip(model.params.pi, model.params.beta, model.params.increments):
                lam = float(np.sum(inc[model.params.event_times <= t]))
                s += pi_k * math.exp(-math.exp(float(data.x[i] @ beta)) * lam)
            expected[i] = 1.0 - s
        assert np.allclose(got, expected, atol=1e-12)
        assert np.all((got >= 0) & (got <= 1))

    def test_event_prob_requires_time(self):
        data = simulate_single(20, 1, [0.5], seed=137)
        model = self.make_single_model(data)
        with pytest.raises(ValueError, match="evaluation time"):
            compute_marker(model, data, "mixture_event_prob")

    def test_unknown_mode(self):
        data = simulate_single(20, 1, [0.5], seed=139)
        model = self.make_single_model(data)
        with pytest.raises(ValueError, match="unknown marker mode"):
            compute_marker(model, data, "nope")

    def test_overflowing_risk_before_first_event_time(self):
        # record 0 has exp(eta) = inf under component 1 and is censored before
        # the first event time, where Lambda = 0
        x = np.array([[-400.0, -400.0], [0.1, -0.2], [0.3, 0.4], [-0.5, 0.2], [0.0, 0.1]])
        data = Dataset(y=np.array([0.5, 1.0, 2.0, 3.0, 4.0]), delta=np.array([0, 1, 1, 0, 1]), x=x)
        params = MixtureParams(
            pi=[0.4, 0.6], beta=[[0.5, 0.5], [-1.0, -1.0]], event_times=[1.0, 2.0, 4.0],
            increments=[[0.2, 0.3, 0.4], [0.1, 0.2, 0.3]], kernel="gaussian", bandwidth=1.0,
        )
        model = FittedModel(params=params, spec=PenaltySpec(kind="scad", level=0.0), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            logd = _record_log_densities(data, params.beta, params.increments, params)
            S = e_step(data, params)
            loglik = observed_loglik(data, params)
            lp = compute_marker(model, data, "mixture_posterior_lp")
            prob = compute_marker(model, data, "mixture_event_prob", t=2.0)
        assert logd[0].tolist() == [0.0, 0.0]
        assert np.all(np.isfinite(logd)) and math.isfinite(loglik)
        np.testing.assert_allclose(S[0], [0.4, 0.6], rtol=1e-14)
        assert lp[0] == pytest.approx(0.4 * -400.0 + 0.6 * 800.0, rel=1e-14)
        # by t = 2 component 1 has surely failed and component 0 has not
        assert prob[0] == pytest.approx(0.6, abs=1e-15)
        assert np.all(np.isfinite(lp)) and np.all((prob >= 0) & (prob <= 1))

    def test_mode_registry(self):
        assert MARKER_MODES == (
            "cox_linear_predictor",
            "mixture_posterior_lp",
            "mixture_event_prob",
        )


class TestEndToEnd:
    def test_informative_marker_beats_chance(self):
        data = simulate_single(150, 1, [1.5], seed=149, censor_frac=0.2)
        t = float(np.median(data.y))
        markers = data.x[:, 0] * 1.5
        W = censoring_weights(markers, data, t)
        a = auc(roc_curve(markers, W))
        assert a > 0.65

    def test_fitted_model_marker_pipeline(self):
        data = simulate_single(100, 1, [1.2], seed=151, censor_frac=0.15)
        model = fit_mixture(
            data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1, seed=1)
        )
        t = float(np.median(data.y))
        markers = compute_marker(model, data, "mixture_event_prob", t=t)
        W = censoring_weights(markers, data, t)
        a = auc(roc_curve(markers, W))
        assert 0.5 < a <= 1.0
