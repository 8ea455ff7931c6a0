"""Time-dependent ROC curves and AUC for right-censored data.

Cases at horizon t are subjects with an observed event by t; controls are
subjects still event-free. Censoring before t is handled with fractional
weights from a marker-conditional Kaplan-Meier estimate, so a subject censored
early counts partially as a case and partially as a control. Those curves are
built only for the subjects censored before t and only at event times up to
t, in O(r * n) time for r such subjects out of n. The rows are built a block
at a time, so memory is O(block * n + r) and grows linearly in n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .coxfit import (
    _check_covariates, _check_kernel, _cumulative_risks, _lambda_index, _rule_of_thumb, _tie_sums, _TimeIndex,
    kernel_values,
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
    if mode == "mixture_event_prob" and t is None:
        raise ValueError("mixture_event_prob requires an evaluation time")
    lam_idx = _lambda_index(params.event_times, data.y if mode == "mixture_posterior_lp" else float(t))
    eta, risk = _cumulative_risks(data.x, params.beta, params.increments, lam_idx)
    if mode == "mixture_posterior_lp":
        return np.sum(e_step(data, params) * eta, axis=1)
    return 1.0 - np.exp(-risk) @ params.pi


# kernel entries (rows x subjects) of one block of curves built at once
_BLOCK_ENTRIES = 2**17


def _marker_inputs(markers, data: Dataset, bandwidth: float | None, kernel: str) -> tuple[np.ndarray, float]:
    """Checked markers and the marker bandwidth (the rule of thumb if None); the
    kernel is checked here too, so a bad one fails even when no curve is built."""
    _check_kernel(kernel)
    m = np.asarray(markers, dtype=float)
    if m.shape != (data.n,):
        raise ValueError("markers must be a 1-d array with one entry per record")
    if not np.all(np.isfinite(m)):
        raise ValueError("markers must be finite")
    h = default_marker_bandwidth(m) if bandwidth is None else float(bandwidth)
    if not h > 0:
        raise ValueError("marker bandwidth must be positive")
    return m, h


class _ConditionalKM:
    """Kernel-weighted Kaplan-Meier survival for the markers of selected rows.

    The factor at event time s for subject i is
    1 - sum_j K_h(M_j - M_i) I(y_j = s, d_j = 1) / sum_j K_h(M_j - M_i) I(y_j >= s);
    a factor with an empty risk set is skipped with a warning.

    The sums run on the Cox fit's time index: risk sets are cumulative sums
    in risk order, and tied events are added in record order (`_tie_sums`).
    Row i of `at` holds the times at which the curve of subject `rows[i]` is
    read, and row i of `curves` holds the survival there (1 before the first
    event time). Only event times up to the latest time in `at` enter, since
    the product up to t is a prefix of the full one. Rows are built in blocks
    of about `_BLOCK_ENTRIES` kernel entries, each row with the same
    operations in the same order whatever block it falls in. Every risk set
    still sums over all n subjects, so time is O(len(rows) * n) and memory
    O(block * n + len(rows)).
    """

    def __init__(
        self, markers: np.ndarray, data: Dataset, bandwidth: float, kernel: str, rows: np.ndarray,
        at: np.ndarray,
    ):
        ix = _TimeIndex(data.y, data.delta)
        # the event times up to the latest time read
        m = int(_lambda_index(ix.grid, at.max()))
        self.curves = np.ones(at.shape)
        if m == 0:
            return
        m_risk = markers[ix.rev]

        step = max(1, _BLOCK_ENTRIES // data.n)
        any_empty = False
        for lo in range(0, rows.size, step):
            block = rows[lo : lo + step]
            if np.isinf(bandwidth):
                # every weight collapses to K(0)
                u = np.zeros((block.size, data.n))
            else:
                with np.errstate(over="ignore"):
                    u = (m_risk[None, :] - markers[block, None]) / bandwidth
            w = kernel_values(kernel, u)
            num = _tie_sums(ix, w, m)
            # cumulative sums in risk order give the weighted risk-set mass
            den = w.cumsum(axis=1, out=w)[:, ix.grid_row[:m]]
            empty = den <= 0.0
            any_empty = any_empty or bool(np.any(empty))
            factors = np.where(empty, 1.0, 1.0 - num / np.where(empty, 1.0, den))
            # each curve led by a 1, so the Lambda index reads it as it reads Lambda
            curves = np.ones((block.size, m + 1))
            np.cumprod(factors, axis=1, out=curves[:, 1:])
            idx = _lambda_index(ix.grid, at[lo : lo + step])
            self.curves[lo : lo + step] = np.take_along_axis(curves, idx, axis=1)
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
    m, h = _marker_inputs(markers, data, bandwidth, kernel)
    km = _ConditionalKM(m, data, h, kernel, np.arange(data.n), np.full((data.n, 1), float(t)))
    return km.curves[:, 0]


def censoring_weights(
    markers: np.ndarray,
    data: Dataset,
    t: float,
    bandwidth: float | None = None,
    kernel: str = "gaussian",
) -> np.ndarray:
    """Case weight W_i at horizon t.

    W = 0 for subjects beyond t or censored exactly at t, W = 1 for events by
    t, and W = 1 - S(t|M_i)/S(Y_i|M_i) for subjects censored before t.

    The "empty weighted risk set" warning is raised only when a factor that
    one of these weights uses is skipped: one at an event time in (Y_i, t]
    on the curve of a subject censored before t.
    """
    m, h = _marker_inputs(markers, data, bandwidth, kernel)
    y = data.y
    delta = data.delta
    t = float(t)
    W = np.zeros(data.n)
    W[(y <= t) & (delta == 1)] = 1.0
    frac = (y < t) & (delta == 0)
    if np.any(frac):
        rows = np.flatnonzero(frac)
        km = _ConditionalKM(m, data, h, kernel, rows, np.column_stack((np.full(rows.size, t), y[rows])))
        s_t, s_y = km.curves.T
        zero = s_y <= 0.0
        if np.any(zero):
            warnings.warn("conditional survival vanished at a censoring time; weight set to 1", stacklevel=2)
        ratio = np.where(zero, 0.0, s_t / np.where(zero, 1.0, s_y))
        W[frac] = np.clip(1.0 - ratio, 0.0, 1.0)
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
    uniq = np.unique(m)
    thresholds = np.concatenate(([np.inf], uniq[::-1], [-np.inf]))
    desc = np.argsort(-m, kind="stable")
    case_cum = np.concatenate(([0.0], np.cumsum(w[desc])))
    ctrl_cum = np.concatenate(([0.0], np.cumsum((1.0 - w)[desc])))
    m_asc = m[desc][::-1]
    greater = m.size - np.searchsorted(m_asc, thresholds, side="right")
    sens = case_cum[greater] / total_case
    one_minus_spec = ctrl_cum[greater] / total_ctrl
    return RocCurve(thresholds=thresholds, sensitivity=sens, one_minus_specificity=one_minus_spec)


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC polygon."""
    return float(trapezoid(curve.sensitivity, curve.one_minus_specificity))
