import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid

from coxmix import tdroc
from coxmix.coxfit import component_log_density, kernel_values
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


def dense_factors(markers, data, t, bandwidth, kernel):
    """Reference build of every subject's Kaplan-Meier factors at the event times up to t.

    Returns (times, factors) with one row of `factors` per subject. This is
    the all-rows algorithm the library restricts; per entry it runs the same
    elementwise operations in the same order. A risk-set mass is the pairwise
    `np.sum` of the weights of the records with y >= the last event time up
    to t, followed by sequential sums in risk order over the other records.
    """
    m = np.asarray(markers, dtype=float)
    times = np.unique(data.y[data.delta == 1])
    times = times[times <= t]
    if times.size == 0:
        return times, np.ones((data.n, 0))
    with np.errstate(invalid="ignore"):
        u = (m[None, :] - m[:, None]) / bandwidth
    if not np.all(np.isfinite(u)):
        u = np.zeros_like(u)
    w = kernel_values(kernel, u)
    order = np.argsort(data.y, kind="stable")
    # C order, so that each row's pairwise sum runs along the row as the library's does
    w_risk = np.ascontiguousarray(w[:, order[::-1]])
    # the risk set at times[c] is the first at_risk[c] records in risk order
    at_risk = data.n - np.searchsorted(data.y[order], times, side="left")
    tail = at_risk[-1]
    mass = np.cumsum(np.column_stack([w_risk[:, :tail].sum(axis=1), w_risk[:, tail:]]), axis=1)
    den = mass[:, at_risk - tail]
    ev = (data.delta == 1) & (data.y <= t)
    num = np.zeros_like(den)
    np.add.at(num.T, np.searchsorted(times, data.y[ev]), w[:, ev].T)
    empty = den <= 0.0
    return times, np.where(empty, 1.0, 1.0 - num / np.where(empty, 1.0, den))


def dense_conditional_km(markers, data, t, bandwidth, kernel):
    """(times, curves): every subject's survival curve up to t, the forward products of its factors."""
    times, factors = dense_factors(markers, data, t, bandwidth, kernel)
    return times, np.cumprod(factors, axis=1)


def dense_survival_at(times, curves, at):
    """Each row's curve at its own time in `at` (1 before the first event)."""
    padded = np.column_stack([np.ones(curves.shape[0]), curves])
    return padded[np.arange(curves.shape[0]), np.searchsorted(times, at, side="right")]


def dense_window_products(markers, data, t, after, bandwidth, kernel):
    """Each subject's product of its dense factors at the event times in
    (after_i, t], multiplied from t back to the first event time after after_i."""
    times, factors = dense_factors(markers, data, t, bandwidth, kernel)
    m = times.size
    # column k holds the product of the last k factors up to t
    back = np.ones((data.n, m + 1))
    back[:, 1:] = np.cumprod(factors[:, ::-1], axis=1)
    k = np.maximum(m - np.searchsorted(times, after, side="right"), 0)
    return back[np.arange(data.n), k]


def dense_censoring_weights(markers, data, t, bandwidth, kernel):
    W = np.zeros(data.n)
    W[(data.y <= t) & (data.delta == 1)] = 1.0
    frac = (data.y < t) & (data.delta == 0)
    products = dense_window_products(markers, data, t, data.y, bandwidth, kernel)
    W[frac] = np.clip(1.0 - products[frac], 0.0, 1.0)
    return W


def ratio_censoring_weights(markers, data, t, bandwidth, kernel):
    """W = 1 - S(t)/S(Y_i), the two survivals read off the forward curves."""
    times, curves = dense_conditional_km(markers, data, t, bandwidth, kernel)
    W = np.zeros(data.n)
    W[(data.y <= t) & (data.delta == 1)] = 1.0
    frac = (data.y < t) & (data.delta == 0)
    s_t = dense_survival_at(times, curves, np.full(data.n, t))[frac]
    s_y = dense_survival_at(times, curves, data.y)[frac]
    W[frac] = np.clip(1.0 - s_t / s_y, 0.0, 1.0)
    return W


def check_against_dense_builds(markers, data, t, bandwidth, kernel):
    """Weights and survivals equal the windowed dense build bit for bit, and
    the ratio of forward curves to rounding; returns the weights."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        W = censoring_weights(markers, data, t, bandwidth=bandwidth, kernel=kernel)
        S = conditional_survival(markers, data, t, bandwidth=bandwidth, kernel=kernel)
        W_dense = dense_censoring_weights(markers, data, t, bandwidth, kernel)
        S_dense = dense_window_products(markers, data, t, np.full(data.n, -np.inf), bandwidth, kernel)
        W_ratio = ratio_censoring_weights(markers, data, t, bandwidth, kernel)
        times, curves = dense_conditional_km(markers, data, t, bandwidth, kernel)
    assert np.array_equal(W, W_dense)
    assert np.array_equal(S, S_dense)
    np.testing.assert_allclose(W, W_ratio, rtol=0, atol=1e-13)
    np.testing.assert_allclose(S, dense_survival_at(times, curves, np.full(data.n, t)), rtol=0, atol=1e-13)
    return W


HORIZONS = (
    "at_event", "between_events", "before_first", "after_last",
    # the last event time up to t is the first or the last one
    "first_event", "last_event", "before_last_censoring", "inf",
)


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
    if where == "first_event":
        return float(times[0])
    if where == "last_event":
        return float(times[-1])
    if where == "before_last_censoring":
        assert data.y.max() > times[-1]  # the last record is censored
        return float(0.5 * (times[-1] + data.y.max()))
    if where == "inf":
        return np.inf
    return float(data.y.max() + 1.0)


class TestBandwidthRule:
    def test_formula(self):
        m = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        expected = 1.06 * m.std(ddof=1) * 5 ** (-0.2)
        assert default_marker_bandwidth(m) == pytest.approx(expected)

    def test_degenerate_inputs(self):
        assert default_marker_bandwidth(np.array([3.0, 3.0, 3.0])) == 1.0
        assert default_marker_bandwidth(np.array([42.0])) == 1.0

    def test_huge_markers_keep_their_bandwidth(self):
        # squaring markers of 1e160 overflows; the rule and the weights built
        # from it must scale with the markers instead
        data = simulate_single(200, 1, [0.8], seed=11, censor_frac=0.3)
        x = data.x[:, 0]
        t = float(np.median(data.y))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = default_marker_bandwidth(x * 1e160)
            W = censoring_weights(x * 1e160, data, t)
        assert h == pytest.approx(1e160 * default_marker_bandwidth(x), rel=1e-15)
        np.testing.assert_allclose(W, censoring_weights(x, data, t), rtol=1e-12)


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

    def test_coordinates_match_brute_force_masses(self, rng):
        for trial in range(60):
            n = int(rng.integers(2, 300))
            # every other trial on a coarse lattice, so many markers tie
            m = rng.normal(size=n) if trial % 2 else rng.integers(0, max(2, n // 5), size=n) * 0.1
            w = rng.uniform(size=n)
            w[rng.uniform(size=n) < 0.2] = 0.0
            w[rng.uniform(size=n) < 0.2] = 1.0
            w[0], w[1] = 1.0, 0.0  # both classes present
            curve = roc_curve(m, w)
            assert np.array_equal(curve.thresholds[1:-1], np.unique(m)[::-1])
            above = m[None, :] > curve.thresholds[:, None]
            np.testing.assert_allclose(curve.sensitivity, above @ w / w.sum(), rtol=0, atol=1e-14)
            np.testing.assert_allclose(
                curve.one_minus_specificity, above @ (1.0 - w) / (1.0 - w).sum(), rtol=0, atol=1e-14
            )

    def test_monotone_marker_transform_preserves_auc(self, rng):
        m = rng.normal(size=15)
        w = rng.uniform(size=15)
        assert auc(roc_curve(np.exp(m), w)) == pytest.approx(auc(roc_curve(m, w)), abs=1e-15)

    def test_area_is_scipy_trapezoid_bit_for_bit(self, rng):
        for trial in range(300):
            n = int(rng.integers(2, 400))
            # markers on a lattice of n / 7 to n values, so many of them tie
            m = rng.integers(0, max(2, n // (trial % 7 + 1)), size=n) * 0.1
            w = rng.uniform(size=n)
            w[rng.uniform(size=n) < 0.3] = 0.0
            w[0], w[1] = 1.0, 0.0  # both classes present
            curve = roc_curve(m, w)
            want = float(trapezoid(curve.sensitivity, curve.one_minus_specificity))
            assert auc(curve).hex() == want.hex()

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
    @pytest.mark.parametrize("where", HORIZONS)
    @pytest.mark.parametrize("bandwidth", [0.4, np.inf])
    def test_bit_identical_to_dense_build(self, kernel, tied, where, bandwidth):
        data = self.make_data(tied)
        t = horizon(data, where)
        W = check_against_dense_builds(data.x[:, 0], data, t, bandwidth, kernel)
        if where in ("at_event", "between_events"):
            assert np.any((W > 0.0) & (W < 1.0))  # the fractional weights are exercised
        if where in ("before_last_censoring", "inf"):
            # no event time past the last one changes a weight
            last = horizon(data, "last_event")
            assert np.array_equal(W, check_against_dense_builds(data.x[:, 0], data, last, bandwidth, kernel))

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("rows_per_block", [1, 3, None])
    def test_bit_identical_across_blocks_and_tie_rounds(self, monkeypatch, kernel, tied, rows_per_block):
        # blocks of at least 1 or 3 rows (more where the risk-order prefix is
        # shorter than n), or the default block size
        data = self.make_data(tied)
        if tied:
            _, counts = np.unique(data.y[data.delta == 1], return_counts=True)
            assert counts.max() >= 3  # several tie rounds at one time
        if rows_per_block is not None:
            monkeypatch.setattr(tdroc, "_BLOCK_ENTRIES", rows_per_block * data.n)
        for where in HORIZONS:
            t = horizon(data, where)
            check_against_dense_builds(data.x[:, 0], data, t, 0.4, kernel)
        if rows_per_block is not None:
            assert np.sum((data.y < t) & (data.delta == 0)) > 3 * rows_per_block  # many blocks

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("bandwidth", [0.4, np.inf])
    def test_caller_arrays_are_left_unchanged(self, kernel, bandwidth):
        data = self.make_data(True)
        markers = data.x[:, 0].copy()
        before = (markers.copy(), data.y.copy(), data.delta.copy())
        t = horizon(data, "between_events")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            censoring_weights(markers, data, t, bandwidth=bandwidth, kernel=kernel)
            conditional_survival(markers, data, t, bandwidth=bandwidth, kernel=kernel)
        assert markers.flags.writeable
        for got, want in zip((markers, data.y, data.delta), before):
            assert np.array_equal(got, want)

    def test_kernel_entries_cover_each_window_only(self, monkeypatch):
        # one row per block: row i evaluates the kernel at the records still
        # at risk at s_i, the first event time after Y_i, and nowhere else
        n = 400
        gen = np.random.default_rng(181)
        y = gen.standard_exponential(n)
        delta = np.ones(n, dtype=int)
        delta[np.argsort(y)[5 :: n // 25]] = 0  # censored records spread over time
        data = Dataset(y=y, delta=delta, x=gen.standard_normal((n, 1)))
        t = float(np.quantile(y, 0.9))
        frac = (y < t) & (delta == 0)
        times = np.unique(y[delta == 1])
        s = times[np.searchsorted(times, y[frac], side="right")]
        assert np.all(s <= t)  # every window holds an event time
        want = int(sum(np.sum(y >= s_i) for s_i in s))
        assert want < 0.6 * frac.sum() * n  # a full-width build would reach r * n

        entries = []

        def counting(kernel, u):
            entries.append(np.size(u))
            return kernel_in_place(kernel, u)

        kernel_in_place = tdroc._kernel_in_place
        monkeypatch.setattr(tdroc, "_BLOCK_ENTRIES", 1)
        monkeypatch.setattr(tdroc, "_kernel_in_place", counting)
        W = censoring_weights(data.x[:, 0], data, t, bandwidth=0.3)
        assert len(entries) == frac.sum()
        assert sum(entries) == want
        monkeypatch.undo()
        assert np.array_equal(W, dense_censoring_weights(data.x[:, 0], data, t, 0.3, "gaussian"))

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

    def test_tiny_bandwidth_weight_of_a_censored_subject_is_zero(self):
        # at h = 1e-320 every kernel weight but a subject's own is 0: subject
        # 1, censored at 2, is alone in its risk set up to 2 and out of every
        # later one, so the factor at 3 is skipped and no case mass moves
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0, 4.0]), delta=np.array([1, 0, 1, 1]), x=np.zeros((4, 1))
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            W = censoring_weights(np.array([0.0, 1.0, 2.0, 3.0]), data, 3.5, bandwidth=1e-320)
        assert [str(w.message) for w in caught] == ["empty weighted risk set; the corresponding factor is skipped"]
        assert np.array_equal(W, np.array([1.0, 0.0, 1.0, 0.0]))


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

    @pytest.mark.parametrize("func", [censoring_weights, conditional_survival])
    def test_nan_horizon_rejected_before_any_curve_is_built(self, func, monkeypatch):
        data = simulate_single(30, 1, [0.5], seed=107, censor_frac=0.3)

        def no_build(*args, **kwargs):
            raise AssertionError("built curves for a NaN horizon")

        monkeypatch.setattr(tdroc, "_ConditionalKM", no_build)
        with pytest.raises(ValueError, match="the horizon t is NaN"):
            func(data.x[:, 0], data, math.nan)

    def test_infinite_horizon_reads_the_last_event_time(self):
        data = simulate_single(30, 1, [0.5], seed=107, censor_frac=0.3)
        last = float(data.y[data.delta == 1].max())
        for func in (censoring_weights, conditional_survival):
            assert np.array_equal(func(data.x[:, 0], data, math.inf), func(data.x[:, 0], data, last))

    def test_uncensored_data_weights_are_indicators(self):
        data = simulate_single(30, 1, [0.5], seed=109, censor_frac=0.0)
        t = float(np.median(data.y))
        W = censoring_weights(data.x[:, 0], data, t)
        assert np.array_equal(W, ((data.y <= t) & (data.delta == 1)).astype(float))


class TestComputeMarker:
    def make_single_model(self, data):
        params = stack_fits(data, [1.0], [np.ones(data.n)])
        return FittedModel(params=params, spec=PenaltySpec(kind="scad", level=0.0), seed=0)

    def make_mixture_model(self, data):
        gen = np.random.default_rng(7)
        w = gen.uniform(0.2, 0.8, size=data.n)
        params = stack_fits(data, [0.45, 0.55], [w, 1.0 - w])
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

    def test_event_prob_rejects_nan_time_and_reads_inf_as_total_hazard(self):
        data = simulate_single(20, 2, [0.7, -0.6], seed=131, censor_frac=0.2)
        model = self.make_mixture_model(data)
        with pytest.raises(ValueError, match="the horizon t is NaN"):
            compute_marker(model, data, "mixture_event_prob", t=math.nan)
        last = float(model.params.event_times[-1])
        assert np.array_equal(
            compute_marker(model, data, "mixture_event_prob", t=math.inf),
            compute_marker(model, data, "mixture_event_prob", t=last),
        )

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
            logd = component_log_density(data, params)
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
