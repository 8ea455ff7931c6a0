"""Time-dependent ROC curves and AUC for right-censored data.

Cases at horizon t are subjects with an observed event by t; controls are
subjects still event-free. Censoring before t is handled with fractional
weights from a marker-conditional Kaplan-Meier estimate, so a subject censored
early counts partially as a case and partially as a control. Subject i's weight
reads only the curve's factors at the event times in its window (Y_i, t],
and those read only the subjects with y_j > Y_i. So for the r subjects
censored before t the weights cost about sum_i #{j : y_j > Y_i} kernel
entries, at most r * n, all evaluated in one reused buffer, plus r times the
window's event times in factors. Cumulative sums run only over the records
inside a window; the records at risk at every window time enter each risk
set as one pairwise sum. Memory is O(block + n + r), linear in n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coxfit import (
    _check_covariates, _check_kernel, _cumulative_risks, _kernel_in_place, _lambda_index, _rule_of_thumb, _tie_sums,
    _TimeIndex,
)
from .data import Dataset
from .em import FittedModel, e_step

__all__ = [
    "MARKER_MODES",
    "default_marker_bandwidth",
    "compute_marker",
    "conditional_survival",
    "censoring_weights",
    "RocCurve",
    "roc_curve",
    "auc",
]

MARKER_MODES = ("cox_linear_predictor", "mixture_posterior_lp", "mixture_event_prob")


def default_marker_bandwidth(markers: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * sd(markers) * n^(-1/5)."""
    return _rule_of_thumb(markers, 1.06)


def compute_marker(model: FittedModel, data: Dataset, mode: str, t: float | None = None) -> np.ndarray:
    """Model-based risk marker per subject; larger values mean higher risk.

    Modes
    -----
    cox_linear_predictor
        beta.x for a single-component model only.
    mixture_posterior_lp
        Responsibility-weighted linear predictor sum_k s_ik beta_k.x_i, with
        responsibilities evaluated on `data`.
    mixture_event_prob
        Model event probability by t: 1 - sum_k pi_k exp(-exp(beta_k.x) Lambda_k(t)).
    """
    if mode not in MARKER_MODES:
        raise ValueError(f"unknown marker mode {mode!r}; expected one of {MARKER_MODES}")
    params = model.params
    _check_covariates(params.beta, data.x)
    if mode == "cox_linear_predictor":
        if params.K != 1:
            raise ValueError("cox_linear_predictor requires a single-component model")
        return data.x @ params.beta[0]
    if mode == "mixture_posterior_lp":
        # eta = x beta^T, the product `_cumulative_risks` takes
        return np.sum(e_step(data, params) * (data.x @ params.beta.T), axis=1)
    if t is None:
        raise ValueError("mixture_event_prob requires an evaluation time")
    lam_idx = _lambda_index(params.event_times, _horizon(t))
    _, risk = _cumulative_risks(data.x, params.beta, params.increments, lam_idx)
    return 1.0 - np.exp(-risk) @ params.pi


# kernel entries (rows x subjects) of one block of curves built at once: the
# size of the one buffer a build reuses for every block (or of its widest
# row, if longer)
_BLOCK_ENTRIES = 2**17


def _horizon(t) -> float:
    """The horizon t as a float; NaN is rejected rather than read as t = inf."""
    t = float(t)
    if np.isnan(t):
        raise ValueError("the horizon t is NaN")
    return t


def _marker_inputs(
    markers, data: Dataset, t, bandwidth: float | None, kernel: str
) -> tuple[np.ndarray, float, float]:
    """Checked markers, horizon and marker bandwidth (the rule of thumb if
    None); the kernel is checked here too, so a bad one fails even when no
    curve is built."""
    t = _horizon(t)
    _check_kernel(kernel)
    m = np.asarray(markers, dtype=float)
    if m.shape != (data.n,):
        raise ValueError("markers must be a 1-d array with one entry per record")
    if not np.all(np.isfinite(m)):
        raise ValueError("markers must be finite")
    h = default_marker_bandwidth(m) if bandwidth is None else float(bandwidth)
    if not h > 0:
        raise ValueError("marker bandwidth must be positive")
    return m, t, h


class _ConditionalKM:
    """Kernel-weighted Kaplan-Meier products over a window of event times.

    The factor at event time s for subject i is
    1 - sum_j K_h(M_j - M_i) I(y_j = s, d_j = 1) / sum_j K_h(M_j - M_i) I(y_j >= s);
    a factor with an empty risk set is skipped with a warning.

    Entry i of `curves` is the product of the factors of subject `rows[i]` at
    the event times s with after[i] < s <= t, that is S(t|M)/S(after[i]|M);
    it is 1 when no event time falls in the window. The sums run on the Cox
    fit's time index, and tied events are added in record order
    (`_tie_sums`). A risk-set mass is the pairwise `np.sum` over the records
    at risk at the last window time (y >= the last event time up to t),
    which every risk set of the window holds, followed by cumulative sums in
    risk order over the other records of the window.

    The factors at times in (after_i, t] read only the subjects with
    y_j > after_i, the first records in risk order. So rows are sorted by
    their first window column a, and each block is built over the prefix of
    `grid_row[a] + 1` records and the columns a..m-1 that its earliest window
    reads. Every block is a view of one buffer of `_BLOCK_ENTRIES` floats (or
    of the widest row), allocated once per build, and every pass over its
    kernel entries runs in place. That costs about sum_i #{j : y_j > after_i}
    kernel entries and len(rows) times the window columns in factors, in
    O(block + n + len(rows)) memory. A row's sums and its product, which runs
    from t back to the row's own first column, never mix in other rows, so
    its bits do not depend on the block the row falls in.
    """

    def __init__(
        self, markers: np.ndarray, data: Dataset, bandwidth: float, kernel: str, rows: np.ndarray,
        after: np.ndarray, t: float,
    ):
        ix = _TimeIndex(data.y, data.delta)
        # the window of row i is grid columns first[i]..m-1
        m = int(_lambda_index(ix.grid, t))
        first = _lambda_index(ix.grid, after)
        self.curves = np.ones(rows.size)
        order = np.argsort(first, kind="stable")
        order = order[first[order] < m]
        if order.size == 0:
            return
        m_risk = markers[ix.rev]
        # the first `tail` records in risk order are at risk at every window time
        tail = int(ix.grid_row[m - 1]) + 1
        buf = np.empty(max(_BLOCK_ENTRIES, int(ix.grid_row[first[order[0]]]) + 1))

        any_empty = False
        lo = 0
        while lo < order.size:
            a = int(first[order[lo]])
            width = int(ix.grid_row[a]) + 1
            block = order[lo : lo + max(1, _BLOCK_ENTRIES // width)]
            lo += block.size
            w = buf[: block.size * width].reshape(block.size, width)
            if np.isinf(bandwidth):
                # every weight collapses to K(0)
                w.fill(0.0)
            else:
                with np.errstate(over="ignore"):
                    np.subtract(m_risk[None, :width], markers[rows[block], None], out=w)
                    np.divide(w, bandwidth, out=w)
            _kernel_in_place(kernel, w)
            num = _tie_sums(ix, w, a, m)
            # risk-set masses: one sum over the records at risk at every window
            # time, then cumulative sums in risk order over the rest
            w[:, tail - 1] = w[:, :tail].sum(axis=1)
            rest = w[:, tail - 1 :]
            np.cumsum(rest, axis=1, out=rest)
            den = w[:, ix.grid_row[a:m]]
            empty = den <= 0.0
            any_empty = any_empty or bool(np.any(empty))
            factors = np.divide(num, den, out=num, where=~empty)
            np.subtract(1.0, factors, out=factors)
            factors[empty] = 1.0
            # column k of the reversed products, written over den, holds
            # those at columns m-1-k..m-1
            back = np.cumprod(factors[:, ::-1], axis=1, out=den)
            self.curves[block] = back[np.arange(block.size), m - 1 - first[block]]
        if any_empty:
            warnings.warn("empty weighted risk set; the corresponding factor is skipped", stacklevel=3)


def conditional_survival(
    markers: np.ndarray,
    data: Dataset,
    t: float,
    bandwidth: float | None = None,
    kernel: str = "gaussian",
) -> np.ndarray:
    """Kernel-conditional Kaplan-Meier survival at time t, one value per subject."""
    m, t, h = _marker_inputs(markers, data, t, bandwidth, kernel)
    return _ConditionalKM(m, data, h, kernel, np.arange(data.n), np.full(data.n, -np.inf), t).curves


def censoring_weights(
    markers: np.ndarray,
    data: Dataset,
    t: float,
    bandwidth: float | None = None,
    kernel: str = "gaussian",
) -> np.ndarray:
    """Case weight W_i at horizon t.

    W = 0 for subjects beyond t or censored exactly at t, W = 1 for events by
    t, and W = 1 - S(t|M_i)/S(Y_i|M_i) for subjects censored before t. That
    ratio is the product of the conditional Kaplan-Meier factors at the event
    times in (Y_i, t], and only those are built: sum_i #{j : y_j > Y_i}
    kernel entries over the subjects censored before t, in one reused buffer,
    with cumulative sums only over the records inside each window, in
    O(block + n + r) memory. S(Y_i|M_i) is never
    0: subject i is in its own risk set, with kernel weight K(0) > 0, at every
    event time up to Y_i, so every factor there is positive.

    The "empty weighted risk set" warning is raised only when a factor that
    one of these weights uses is skipped: one at an event time in (Y_i, t]
    on the curve of a subject censored before t.
    """
    m, t, h = _marker_inputs(markers, data, t, bandwidth, kernel)
    y = data.y
    delta = data.delta
    W = np.zeros(data.n)
    W[(y <= t) & (delta == 1)] = 1.0
    frac = (y < t) & (delta == 0)
    if np.any(frac):
        rows = np.flatnonzero(frac)
        km = _ConditionalKM(m, data, h, kernel, rows, y[rows], t)
        W[frac] = np.clip(1.0 - km.curves, 0.0, 1.0)
    return W


@dataclass(frozen=True)
class RocCurve:
    """ROC polygon at one horizon: descending thresholds with infinite sentinels."""

    thresholds: np.ndarray
    sensitivity: np.ndarray
    one_minus_specificity: np.ndarray


def roc_curve(markers: np.ndarray, weights: np.ndarray) -> RocCurve:
    """Weighted ROC curve over all distinct marker thresholds.

    At threshold c the sensitivity is P(M > c | case) and 1 - specificity is
    P(M > c | control), with case weights W and control weights 1 - W. The
    first point is (0, 0) at threshold +inf and the last is (1, 1) at
    threshold -inf; both coordinates are nondecreasing along the curve.
    Markers must be finite and weights finite in [0, 1]; anything else, or
    weights that leave no case or no control mass, raises ValueError.

    One sort of the distinct markers gives the whole curve: the mass above
    the k-th largest distinct marker is the cumulative sum of the case (or
    control) mass at the k - 1 larger ones.
    """
    m = np.asarray(markers, dtype=float)
    w = np.asarray(weights, dtype=float)
    if m.shape != w.shape or m.ndim != 1:
        raise ValueError("markers and weights must be matching 1-d arrays")
    if not np.all(np.isfinite(m)):
        raise ValueError("markers must be finite")
    # NaN fails both comparisons
    if not np.all((w >= 0.0) & (w <= 1.0)):
        raise ValueError("weights must be finite and lie in [0, 1]")
    total_case = float(w.sum())
    total_ctrl = float((1.0 - w).sum())
    if total_case <= 0:
        raise ValueError("no case mass at this horizon: every weight is zero")
    if total_ctrl <= 0:
        raise ValueError("no control mass at this horizon: every weight is one")
    values, inverse = np.unique(m, return_inverse=True)
    # case and control mass at each distinct marker, largest marker first
    case = np.bincount(inverse, weights=w)[::-1]
    ctrl = np.bincount(inverse, weights=1.0 - w)[::-1]
    thresholds = np.concatenate(([np.inf], values[::-1], [-np.inf]))
    sens = np.concatenate(([0.0, 0.0], np.cumsum(case))) / total_case
    one_minus_spec = np.concatenate(([0.0, 0.0], np.cumsum(ctrl))) / total_ctrl
    return RocCurve(thresholds=thresholds, sensitivity=sens, one_minus_specificity=one_minus_spec)


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC polygon, summed as scipy.integrate.trapezoid sums it."""
    x, y = np.asarray(curve.one_minus_specificity), np.asarray(curve.sensitivity)
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())
