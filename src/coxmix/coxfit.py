"""Weighted Cox partial-likelihood fitting and baseline hazard estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

__all__ = [
    "NumericalError",
    "DegenerateComponentError",
    "BaselineHazard",
    "ComponentFit",
    "KERNELS",
    "kernel_values",
    "default_time_bandwidth",
    "weighted_partial_loglik",
    "partial_loglik_gradient",
    "partial_loglik_hessian",
    "fit_weighted_cox",
    "profile_hazard_increments",
    "smooth_baseline_hazard",
    "cumulative_hazard",
    "component_log_density",
]

KERNELS = ("gaussian", "epanechnikov")

# floor applied before taking log of the smoothed hazard
RATE_FLOOR = 1e-300

DEFAULT_MAX_ITER = 25
DEFAULT_GRAD_TOL = 1e-8
DEFAULT_MAX_HALVINGS = 20
RIDGE_FACTOR = 1e-8


class NumericalError(Exception):
    """Optimization or numerical evaluation failed."""


class DegenerateComponentError(NumericalError):
    """A component carries no usable event weight."""


def kernel_values(kernel: str, u: np.ndarray) -> np.ndarray:
    """Kernel K(u): standard Gaussian density or Epanechnikov 0.75(1-u^2) on [-1, 1]."""
    u = np.asarray(u, dtype=float)
    if kernel == "gaussian":
        return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    if kernel == "epanechnikov":
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")


def default_time_bandwidth(y: np.ndarray) -> float:
    """Rule-of-thumb bandwidth sd(y) * n^(-1/5) for smoothing hazard increments."""
    y = np.asarray(y, dtype=float)
    n = y.size
    s = float(y.std(ddof=1)) if n > 1 else 0.0
    if s <= 0.0:
        return 1.0
    return s * n ** (-0.2)


@dataclass(frozen=True)
class BaselineHazard:
    """Nonparametric baseline hazard for one component.

    Attributes
    ----------
    event_times : ndarray, shape (m,)
        Strictly increasing distinct event times.
    increments : ndarray, shape (m,)
        Nonnegative hazard mass at each event time (ties aggregated).
    kernel : str
        Smoothing kernel used when the hazard is evaluated as a rate.
    bandwidth : float
        Smoothing bandwidth, positive and finite.
    """

    event_times: np.ndarray
    increments: np.ndarray
    kernel: str
    bandwidth: float

    def __post_init__(self) -> None:
        t = np.array(self.event_times, dtype=float, copy=True)
        inc = np.array(self.increments, dtype=float, copy=True)
        if t.ndim != 1 or inc.shape != t.shape:
            raise ValueError("event_times and increments must be matching 1-d arrays")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("event_times must be strictly increasing")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(inc)):
            raise ValueError("baseline hazard entries must be finite")
        if np.any(inc < 0):
            raise ValueError("hazard increments must be nonnegative")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {KERNELS}")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")
        t.setflags(write=False)
        inc.setflags(write=False)
        object.__setattr__(self, "event_times", t)
        object.__setattr__(self, "increments", inc)


@dataclass(frozen=True)
class ComponentFit:
    """One fitted component: coefficients, baseline hazard, and fit diagnostics."""

    beta: np.ndarray
    baseline: BaselineHazard
    loglik: float
    converged: bool
    iterations: int

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=float, copy=True)
        if beta.ndim != 1:
            raise ValueError("beta must be a 1-d array")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta must be finite")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


class _RiskSets:
    """Per-dataset event index built from (y, delta) with O(n) memory.

    Holds the risk-set order, so that sums over {j : y_j >= y_i} come from
    cumulative sums in descending time order; the distinct event-time grid;
    each event's position on that grid; and each record's index into the
    zero-padded cumulative increments, which gives Lambda(y_i).
    """

    def __init__(self, y: np.ndarray, delta: np.ndarray):
        order = np.argsort(y, kind="stable")
        self.rev = order[::-1]
        # count[i] = |{j : y_j >= y_i}|; ties enter the risk set together
        self.count = y.size - np.searchsorted(y[order], y, side="left")
        self.ev_mask = delta == 1
        self.grid = np.unique(y[self.ev_mask])
        self.grid_pos = np.searchsorted(self.grid, y[self.ev_mask])
        self.cum_idx = np.searchsorted(self.grid, y, side="right")

    def sums(self, values: np.ndarray) -> np.ndarray:
        cum = np.cumsum(values[self.rev], axis=0)
        return cum[self.count - 1]


def _check_weights(data: Dataset, weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.n,):
        raise ValueError("weights must be a 1-d array with one entry per record")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    return w


def _pl_value(x, w, beta, rs: _RiskSets) -> float:
    eta = x @ beta
    shift = float(np.max(eta))
    with np.errstate(over="ignore", under="ignore"):
        e = w * np.exp(eta - shift)
    s0 = rs.sums(e)
    ev = rs.ev_mask & (w > 0)
    s0e = s0[ev]
    if not np.all(np.isfinite(s0e)) or np.any(s0e <= 0):
        return -np.inf
    val = float(np.sum(w[ev] * (eta[ev] - shift - np.log(s0e))))
    return val if math.isfinite(val) else -np.inf


def _pl_derivs(x, w, beta, rs: _RiskSets):
    eta = x @ beta
    shift = float(np.max(eta))
    e = w * np.exp(eta - shift)
    s0 = rs.sums(e)
    s1 = rs.sums(e[:, None] * x)
    xx = x[:, :, None] * x[:, None, :]
    s2 = rs.sums(e[:, None, None] * xx)
    ev = rs.ev_mask & (w > 0)
    wv = w[ev]
    s0e = s0[ev]
    # degenerate risk sums produce non-finite values here; callers reject them
    with np.errstate(divide="ignore", invalid="ignore"):
        xbar = s1[ev] / s0e[:, None]
        ll = float(np.sum(wv * (eta[ev] - shift - np.log(s0e))))
        grad = (wv[:, None] * (x[ev] - xbar)).sum(axis=0)
        second = s2[ev] / s0e[:, None, None] - xbar[:, :, None] * xbar[:, None, :]
        hess = -(wv[:, None, None] * second).sum(axis=0)
    return ll, grad, hess


def weighted_partial_loglik(data: Dataset, weights: np.ndarray, beta: np.ndarray) -> float:
    """Weighted Cox partial log-likelihood with Breslow-style risk sets.

    sum_i delta_i w_i [beta.x_i - log sum_{j: y_j >= y_i} w_j exp(beta.x_j)]
    """
    w = _check_weights(data, weights)
    beta = np.asarray(beta, dtype=float)
    return _pl_value(data.x, w, beta, _RiskSets(data.y, data.delta))


def partial_loglik_gradient(data: Dataset, weights: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Analytic gradient of `weighted_partial_loglik` in beta."""
    w = _check_weights(data, weights)
    beta = np.asarray(beta, dtype=float)
    _, grad, _ = _pl_derivs(data.x, w, beta, _RiskSets(data.y, data.delta))
    return grad


def partial_loglik_hessian(data: Dataset, weights: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Analytic Hessian of `weighted_partial_loglik` in beta (negative semidefinite)."""
    w = _check_weights(data, weights)
    beta = np.asarray(beta, dtype=float)
    _, _, hess = _pl_derivs(data.x, w, beta, _RiskSets(data.y, data.delta))
    return hess


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    neg = -hess
    if not np.all(np.isfinite(neg)):
        raise NumericalError("Hessian is not finite")
    p = neg.shape[0]
    ridge = 0.0
    base = RIDGE_FACTOR * max(float(np.trace(neg)), 1.0)
    for _ in range(6):
        try:
            step = np.linalg.solve(neg + ridge * np.eye(p), grad)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.all(np.isfinite(step)):
            return step
        # singular or overflowing system: escalate ridge damping
        ridge = base if ridge == 0.0 else ridge * 100.0
    raise NumericalError("Newton system remained singular despite ridge damping")


def _newton(x, w, rs: _RiskSets, beta0):
    beta = np.array(beta0, dtype=float, copy=True)
    ll, grad, hess = _pl_derivs(x, w, beta, rs)
    if not math.isfinite(ll):
        raise NumericalError("partial likelihood not finite at the starting point")
    iterations = 0
    converged = bool(np.max(np.abs(grad)) <= DEFAULT_GRAD_TOL)
    while iterations < DEFAULT_MAX_ITER and not converged:
        step = _newton_step(hess, grad)
        scale = 1.0
        accepted = False
        for _ in range(DEFAULT_MAX_HALVINGS + 1):
            cand = beta + scale * step
            cand_ll = _pl_value(x, w, cand, rs)
            if math.isfinite(cand_ll) and cand_ll > ll:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        beta = cand
        ll, grad, hess = _pl_derivs(x, w, beta, rs)
        iterations += 1
        converged = bool(np.max(np.abs(grad)) <= DEFAULT_GRAD_TOL)
    return beta, ll, iterations, converged


def _fit_coefficients(rs: _RiskSets, x, w, beta0):
    """Newton fit of one weighted Cox component.

    Returns (beta, loglik, iterations, converged) with the partial
    log-likelihood taken at the caller's weights w.
    """
    # the maximizer is invariant to rescaling the weights, and unit-scale
    # weights keep the risk sums and gradient tolerance well conditioned
    c = float(np.max(w))
    w_fit = w / c
    try:
        beta, ll, iterations, converged = _newton(x, w_fit, rs, beta0)
    except NumericalError:
        # a warm start can be infeasible after the weights shift; zero is
        # always a finite starting point for the partial likelihood
        beta, ll, iterations, converged = _newton(x, w_fit, rs, np.zeros(x.shape[1]))
    # l(c w) = c l(w) - c log(c) sum_{events, w > 0} w
    ll = c * ll - c * math.log(c) * float(np.sum(w_fit[rs.ev_mask & (w_fit > 0)]))
    return beta, ll, iterations, converged


def _increments(rs: _RiskSets, x, w, beta) -> np.ndarray:
    eta = x @ beta
    shift = float(np.max(eta))
    s0 = rs.sums(w * np.exp(eta - shift))
    num = w[rs.ev_mask]
    den = s0[rs.ev_mask]
    with np.errstate(invalid="ignore"):
        raw = np.where(num > 0, num * math.exp(-shift) / np.where(den > 0, den, 1.0), 0.0)
    lost = (num > 0) & (den <= 0)
    if np.any(lost):
        # tiny weights times exp(eta - shift) underflowed the risk-set sum to
        # zero; log w_i - log sum_j w_j exp(eta_j) recovers the increment
        with np.errstate(divide="ignore"):
            log_e = np.log(w) + eta
        log_s0 = np.logaddexp.accumulate(log_e[rs.rev])[rs.count - 1][rs.ev_mask]
        with np.errstate(over="ignore"):
            raw[lost] = np.exp(np.log(num[lost]) - log_s0[lost])
        if not np.all(np.isfinite(raw[lost])):
            raise DegenerateComponentError("risk-set weight sum at an event time is out of range")
    inc = np.zeros(rs.grid.size)
    np.add.at(inc, rs.grid_pos, raw)
    return inc


def fit_weighted_cox(
    data: Dataset,
    weights: np.ndarray,
    beta_init: np.ndarray | None = None,
    kernel: str = "gaussian",
    bandwidth: float | None = None,
) -> ComponentFit:
    """Fit one weighted Cox component by damped Newton iteration.

    Returns the coefficient vector together with the profile baseline hazard
    (Breslow-type increments at event times, smoothed on evaluation). If
    Newton fails from `beta_init`, the fit is retried once from zero. The
    reported `loglik` is the partial log-likelihood at the given weights,
    not at the rescaled weights the iteration runs on.

    Raises
    ------
    DegenerateComponentError
        If no record has an event and positive weight.
    NumericalError
        If the Newton system cannot be solved from either start.
    """
    w = _check_weights(data, weights)
    if not np.any((data.delta == 1) & (w > 0)):
        raise DegenerateComponentError("no event carries positive weight")
    beta0 = np.zeros(data.p) if beta_init is None else np.asarray(beta_init, dtype=float)
    if beta0.shape != (data.p,):
        raise ValueError("beta_init has wrong length")
    rs = _RiskSets(data.y, data.delta)
    beta, ll, iterations, converged = _fit_coefficients(rs, data.x, w, beta0)
    h = default_time_bandwidth(data.y) if bandwidth is None else float(bandwidth)
    inc = _increments(rs, data.x, w, beta)
    baseline = BaselineHazard(event_times=rs.grid, increments=inc, kernel=kernel, bandwidth=h)
    return ComponentFit(beta=beta, baseline=baseline, loglik=ll, converged=converged, iterations=iterations)


def profile_hazard_increments(
    data: Dataset, weights: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Profile hazard increments w_i / sum_{j: y_j >= y_i} w_j exp(beta.x_j) at events.

    Returns (event_times, increments) over the distinct event times, with tied
    events aggregated.
    """
    w = _check_weights(data, weights)
    rs = _RiskSets(data.y, data.delta)
    return rs.grid, _increments(rs, data.x, w, np.asarray(beta, dtype=float))


def smooth_baseline_hazard(baseline: BaselineHazard, t):
    """Kernel-smoothed hazard rate (1/h) sum_e K((t - T_e)/h) * increment_e."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    u = (arr[:, None] - baseline.event_times[None, :]) / baseline.bandwidth
    vals = kernel_values(baseline.kernel, u) @ baseline.increments / baseline.bandwidth
    return float(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


def _padded_cumsum(increments: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(increments)))


def cumulative_hazard(baseline: BaselineHazard, t):
    """Step cumulative hazard sum_{T_e <= t} increment_e."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = _padded_cumsum(baseline.increments)[np.searchsorted(baseline.event_times, arr, side="right")]
    return float(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


def _log_density(eta, rate, cum, event) -> np.ndarray:
    """delta * (log rate + eta) - exp(eta) * cum, the rate floored at 1e-300."""
    log_rate = np.log(np.maximum(rate, RATE_FLOOR))
    with np.errstate(over="ignore"):
        risk = np.exp(eta)
    hazard_term = np.where(cum > 0, risk * cum, 0.0)
    return np.where(event, log_rate + eta, 0.0) - hazard_term


def component_log_density(data: Dataset, fit: ComponentFit) -> np.ndarray:
    """Log density of each record under one component.

    delta * (log rate(y) + beta.x) - exp(beta.x) * cumhaz(y), where the rate is
    the kernel-smoothed baseline floored at 1e-300 before the log.
    """
    rate = smooth_baseline_hazard(fit.baseline, data.y)
    cum = cumulative_hazard(fit.baseline, data.y)
    return _log_density(data.x @ fit.beta, rate, cum, data.delta == 1)
