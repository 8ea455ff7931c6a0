"""Weighted Cox partial-likelihood fitting and baseline hazard estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
    "smooth_baseline_hazard",
    "cumulative_hazard",
    "component_log_density",
]

KERNELS = ("gaussian", "epanechnikov")

# floor applied before taking log of the smoothed hazard
RATE_FLOOR = 1e-300

DEFAULT_MAX_ITER = 25
DEFAULT_MAX_HALVINGS = 20
RIDGE_FACTOR = 1e-8
# a Newton line search stops once the largest gain left is within
# GAIN_TOL * max(1, |l|), the rounding of the log-likelihood
GAIN_TOL = 4.0 * float(np.finfo(float).eps)


class NumericalError(Exception):
    """Optimization or numerical evaluation failed."""


class DegenerateComponentError(NumericalError):
    """A component carries no usable event weight."""


def kernel_values(kernel: str, u: np.ndarray) -> np.ndarray:
    """Kernel K(u): standard Gaussian density or Epanechnikov 0.75(1-u^2) on [-1, 1]."""
    _check_kernel(kernel)
    u = np.asarray(u, dtype=float)
    if kernel == "gaussian":
        return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _rule_of_thumb(values: np.ndarray, factor: float) -> float:
    """factor * sd(values) * n^(-1/5), or 1 when n < 2 or the values do not vary."""
    v = np.asarray(values, dtype=float)
    n = v.size
    s = float(v.std(ddof=1)) if n > 1 else 0.0
    if s <= 0.0:
        return 1.0
    return factor * s * n ** (-0.2)


def default_time_bandwidth(y: np.ndarray) -> float:
    """Rule-of-thumb bandwidth sd(y) * n^(-1/5) for smoothing hazard increments."""
    return _rule_of_thumb(y, 1.0)


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
        t, inc = _baseline_arrays(self.event_times, self.increments, self.kernel, self.bandwidth)
        object.__setattr__(self, "event_times", t)
        object.__setattr__(self, "increments", inc)


def _float_array(value, name: str) -> np.ndarray:
    """A fresh float copy of value; ragged or non-numeric input names the field."""
    try:
        return np.array(value, dtype=float, copy=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a rectangular array of numbers") from exc


def _check_kernel(kernel: str) -> None:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")


def _check_smoothing(kernel: str, bandwidth: float) -> None:
    _check_kernel(kernel)
    if not (bandwidth > 0 and math.isfinite(bandwidth)):
        raise ValueError("bandwidth must be positive and finite")


def _baseline_arrays(event_times, increments, kernel: str, bandwidth: float, rows: int | None = None):
    """Checked read-only copies of a baseline's event times (m) and its
    increments: m of them, or `rows` x m for components sharing the grid."""
    t = _float_array(event_times, "event_times")
    inc = _float_array(increments, "increments")
    if t.ndim != 1:
        raise ValueError("event_times must be a 1-d array")
    shape = (t.size,) if rows is None else (rows, t.size)
    if inc.shape != shape:
        raise ValueError(f"increments must have shape {shape}, one column per event time; got {inc.shape}")
    if t.size and np.any(np.diff(t) <= 0):
        raise ValueError("event_times must be strictly increasing")
    if not np.all(np.isfinite(t)) or not np.all(np.isfinite(inc)):
        raise ValueError("baseline hazard entries must be finite")
    if np.any(inc < 0):
        raise ValueError("hazard increments must be nonnegative")
    _check_smoothing(kernel, bandwidth)
    t.setflags(write=False)
    inc.setflags(write=False)
    return t, inc


@dataclass(frozen=True)
class ComponentFit:
    """One fitted component: coefficients, baseline hazard, and fit diagnostics.

    `converged` is True when Newton ended with no representable gain left
    along the Newton direction: no step could raise the partial likelihood by
    more than its rounding. `iterations` counts accepted Newton steps.
    """

    beta: np.ndarray
    baseline: BaselineHazard
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


class _TimeIndex:
    """A sample's event-time axis, built from (y, delta) alone.

    Sums over the risk set {j : y_j >= s} are cumulative sums in descending
    time order, the risk order; tied times enter a risk set together. The
    index holds:
    - `rev`, the risk order, and `ev_mask`, the events in record order;
    - `grid`, the distinct event times, and `grid_row`, the cumulative-sum
      row that closes each one's risk set;
    - `ev_at`, per event in risk order its position and the row that closes
      its risk set (2 x events, so one gather selects both);
    - `rounds`, the events as (grid positions, risk-order positions) split
      into tie rounds: round k holds the k-th event in record order at each
      time that has one, so round 0 covers every grid time in order.
    """

    def __init__(self, y: np.ndarray, delta: np.ndarray):
        order = np.argsort(y, kind="stable")
        self.rev = order[::-1].copy()
        self.ev_mask = delta == 1
        self.grid = np.unique(y[self.ev_mask])
        self.grid_row = y.size - 1 - np.searchsorted(y[order], self.grid, side="left")
        ev = np.flatnonzero(self.ev_mask[self.rev])
        ev_grid = np.searchsorted(self.grid, y[self.rev[ev]])
        self.ev_at = np.stack([ev, self.grid_row[ev_grid]])
        # reversed, the events run by ascending time with ties in record order
        pos, cols = ev_grid[::-1], ev[::-1]
        rank = np.arange(pos.size) - np.searchsorted(pos, pos, side="left")
        self.rounds = [(pos[rank == k], cols[rank == k]) for k in range(int(rank.max()) + 1)]


def _tie_sums(ix: _TimeIndex, w: np.ndarray, m: int) -> np.ndarray:
    """Sums of w over the events at each of the first m grid times, tied
    events added in record order. The last axis of w runs over the records
    in risk order: one weight vector or a block of rows."""
    (_, first), *ties = ix.rounds
    out = w[..., first[:m]]
    for pos, cols in ties:
        k = np.searchsorted(pos, m)
        out[..., pos[:k]] += w[..., cols[:k]]
    return out


class _RiskSets(_TimeIndex):
    """The time index of (y, delta) plus the Cox design of x, in O(n p^2)
    memory. It adds:
    - `design`, a contiguous q x n array with one column per record in risk
      order and the rows [1, x_c, upper triangle of x_c x_c^T], q = 1 + p +
      p(p + 1)/2, where x_c are the column-centred covariates. Each row is
      one cumulative sum over contiguous memory. The partial likelihood and
      its derivatives do not change when x is shifted, and centring keeps
      the second-moment sums free of cancellation;
    - `x_ev`, the centred covariates of each event in risk order (p x events).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, delta: np.ndarray):
        super().__init__(y, delta)
        self.center = x.mean(axis=0)
        self.p = x.shape[1]
        xc = (x[self.rev] - self.center).T
        self.triu = np.triu_indices(self.p)
        # sym[i, j] is the row of the design's second-moment block holding x_i x_j
        self.sym = np.empty((self.p, self.p), dtype=np.intp)
        self.sym[self.triu] = np.arange(self.triu[0].size)
        self.sym[self.triu[1], self.triu[0]] = self.sym[self.triu]
        self.design = np.concatenate([np.ones((1, y.size)), xc, xc[self.triu[0]] * xc[self.triu[1]]])
        self.x_ev = np.take(xc, self.ev_at[0], axis=1)


def _check_weights(data: Dataset, weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.n,):
        raise ValueError("weights must be a 1-d array with one entry per record")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    return w


def _risk_weights(rs: _RiskSets, w_r, beta):
    """(eta, max eta, w exp(eta - max eta)) in risk order, eta on centred x;
    `w_r` is the weights in risk order."""
    eta = beta @ rs.design[1 : rs.p + 1]
    shift = float(eta.max())
    e = np.exp(eta - shift)
    e *= w_r
    return eta, shift, e


class _EventWeights:
    """One weight vector prepared for repeated derivative passes on `rs`.

    Holds the weights in risk order (`w_r`) and, for the events with
    positive weight, their weights (`wv`), positions (`position`), the
    cumulative-sum rows that close their risk sets (`row`) and their centred
    covariates (`x_ev`). A zero-weight event adds nothing to l, g or H. All
    of this depends on the weights only, which stay fixed during a Newton
    solve, so each solve builds it once.
    """

    __slots__ = ("rs", "w_r", "wv", "position", "row", "x_ev")

    def __init__(self, rs: _RiskSets, w_r: np.ndarray):
        self.rs = rs
        self.w_r = w_r
        position, row = rs.ev_at
        wv = w_r.take(position)
        x_ev = rs.x_ev
        if wv.min(initial=1.0) <= 0:
            keep = np.flatnonzero(wv > 0)
            position, row = rs.ev_at.take(keep, axis=1)
            wv = wv.take(keep)
            x_ev = x_ev.take(keep, axis=1)
        self.wv, self.position, self.row, self.x_ev = wv, position, row, x_ev


def _pl_value(ew: _EventWeights, beta) -> float:
    return _pl_derivs(ew, beta)[0]


def _pl_derivs(ew: _EventWeights, beta):
    """(l, gradient, Hessian) from one cumulative sum along the rows of e * design.

    The q x n product e * design is summed in place along each contiguous
    row, and only the event columns are gathered. With s = (s0, S1, S2) the
    risk-set sums of the design at the events (1, p and p(p + 1)/2 rows),
    a = w / s0 and xbar = S1 / s0:
        g = x_ev w - S1 a,    H = -[S2 a - (xbar xbar^T) w],
    the second moments packed as the design's upper triangle, and
    l = sum w (eta - log s0), or -inf when a risk sum or l is not finite.

    Everything that depends on the weights alone comes prepared in `ew`, so
    a pass does only the work that changes with beta. Degenerate risk sums
    make g and H non-finite and the callers reject them; a pass raises no
    floating-point warning only inside np.errstate(divide="ignore",
    invalid="ignore"), which `_newton` holds over a whole solve.
    """
    rs = ew.rs
    eta, shift, e = _risk_weights(rs, ew.w_r, beta)
    sums = np.multiply(rs.design, e)
    sums.cumsum(axis=1, out=sums)
    s = sums.take(ew.row, axis=1)
    s0 = s[0]
    wv = ew.wv
    ll = -np.inf
    # every risk sum positive and finite; true when no event carries weight
    if s0.min(initial=np.inf) > 0 and s0.max(initial=0.0) < np.inf:
        ll = float((wv * (eta.take(ew.position) - shift - np.log(s0))).sum())
        ll = ll if math.isfinite(ll) else -np.inf
    p = rs.p
    s1 = s[1 : p + 1]
    a = wv / s0
    xbar = s1 / s0
    grad = ew.x_ev @ wv - s1 @ a
    second = s[p + 1 :] @ a - (xbar.take(rs.triu[0], axis=0) * xbar.take(rs.triu[1], axis=0)) @ wv
    return ll, grad, -second.take(rs.sym)


def _event_weights(data: Dataset, weights: np.ndarray) -> _EventWeights:
    """Checked public weights prepared on a fresh index of `data`."""
    w = _check_weights(data, weights)
    rs = _RiskSets(data.x, data.y, data.delta)
    return _EventWeights(rs, w.take(rs.rev))


def weighted_partial_loglik(data: Dataset, weights: np.ndarray, beta: np.ndarray) -> float:
    """Weighted Cox partial log-likelihood with Breslow-style risk sets.

    sum_i delta_i w_i [beta.x_i - log sum_{j: y_j >= y_i} w_j exp(beta.x_j)]
    """
    ew = _event_weights(data, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _pl_value(ew, np.asarray(beta, dtype=float))


def partial_loglik_gradient(data: Dataset, weights: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Analytic gradient of `weighted_partial_loglik` in beta."""
    ew = _event_weights(data, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, grad, _ = _pl_derivs(ew, np.asarray(beta, dtype=float))
    return grad


def partial_loglik_hessian(data: Dataset, weights: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Analytic Hessian of `weighted_partial_loglik` in beta (negative semidefinite)."""
    ew = _event_weights(data, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, hess = _pl_derivs(ew, np.asarray(beta, dtype=float))
    return hess


def _solve(a: np.ndarray, b: np.ndarray):
    """a^-1 b, or None when a is singular or the solution is not finite."""
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    return x if np.isfinite(x).all() else None


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    neg = -hess
    if not np.isfinite(neg).all():
        raise NumericalError("Hessian is not finite")
    step = _solve(neg, grad)
    if step is not None:
        return step
    # singular or overflowing system: escalate ridge damping
    ridge = RIDGE_FACTOR * max(float(np.trace(neg)), 1.0)
    eye = np.eye(neg.shape[0])
    for _ in range(5):
        step = _solve(neg + ridge * eye, grad)
        if step is not None:
            return step
        ridge *= 100.0
    raise NumericalError("Newton system remained singular despite ridge damping")


def _newton(rs: _RiskSets, w_r, beta0):
    """Damped Newton ascent of the weighted partial likelihood from beta0:
    (beta, l, accepted steps, converged), with `w_r` the weights in risk order.

    The weights are prepared once (`_EventWeights`) and every point, the
    start and each trial of the line search, costs one `_pl_derivs` pass.
    One np.errstate covers the solve: degenerate risk sums give a -inf l or
    non-finite g and H, which the search rejects without a warning.
    """
    ew = _EventWeights(rs, w_r)
    beta = np.array(beta0, dtype=float, copy=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll, grad, hess = _pl_derivs(ew, beta)
        if not math.isfinite(ll):
            raise NumericalError("partial likelihood not finite at the starting point")
        iterations = 0
        converged = False
        while iterations < DEFAULT_MAX_ITER:
            step = _newton_step(hess, grad)
            # l is concave, so l(beta + s step) <= l + s g'step; once that bound is
            # within rounding of l, no shorter step can raise l representably
            slope = float(grad @ step)
            floor = GAIN_TOL * max(1.0, abs(ll))
            if not slope >= -floor:
                break
            scale = 1.0
            accepted = None
            for _ in range(DEFAULT_MAX_HALVINGS + 1):
                if scale * slope <= floor:
                    converged = True
                    break
                cand = beta + scale * step
                # one pass per trial point: an accepted trial's g and H are the
                # next step's, and l is the one `_pl_value` would give
                trial = _pl_derivs(ew, cand)
                if math.isfinite(trial[0]) and trial[0] > ll:
                    accepted = trial
                    break
                scale *= 0.5
            if accepted is None:
                break
            beta = cand
            ll, grad, hess = accepted
            iterations += 1
    return beta, ll, iterations, converged


def _fit_coefficients(rs: _RiskSets, w_r, beta0):
    """Newton fit of one weighted Cox component: (beta, iterations, converged),
    `w_r` the weights in risk order."""
    # the maximizer is invariant to rescaling the weights, and unit-scale
    # weights keep the risk sums well conditioned; dividing the gathered
    # weights gives the bits that gathering w / max(w) would
    w_fit = w_r / float(w_r.max())
    try:
        beta, _, iterations, converged = _newton(rs, w_fit, beta0)
    except NumericalError:
        # a warm start can be infeasible after the weights shift; zero is
        # always a finite starting point for the partial likelihood
        beta, _, iterations, converged = _newton(rs, w_fit, np.zeros(rs.p))
    return beta, iterations, converged


def _increments(rs: _RiskSets, w_r, beta) -> np.ndarray:
    """Breslow increments on the event-time grid, `w_r` the weights in risk
    order: at each time, the weight of its tied events over its risk-set sum
    of w exp(eta)."""
    eta, shift, e = _risk_weights(rs, w_r, beta)
    num = _tie_sums(rs, w_r, rs.grid.size)
    den = e.cumsum().take(rs.grid_row)
    # eta on the caller's covariates is the index's eta plus this offset
    offset = float(rs.center @ beta)
    with np.errstate(invalid="ignore"):
        inc = np.where(num > 0, num * math.exp(-shift - offset) / np.where(den > 0, den, 1.0), 0.0)
    lost = (num > 0) & (den <= 0)
    if lost.any():
        # tiny weights times exp(eta - shift) underflowed the risk-set sum to
        # zero; log w - log sum_j w_j exp(eta_j) recovers the increment
        with np.errstate(divide="ignore"):
            log_e = np.log(w_r) + eta
        log_s0 = np.logaddexp.accumulate(log_e).take(rs.grid_row)
        with np.errstate(over="ignore"):
            inc[lost] = np.exp(np.log(num[lost]) - log_s0[lost] - offset)
        if not np.all(np.isfinite(inc[lost])):
            raise DegenerateComponentError("risk-set weight sum at an event time is out of range")
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
    Newton fails from `beta_init`, the fit is retried once from zero.

    `converged` means no representable gain is left along the Newton
    direction: the partial likelihood is concave, so once s g'step falls
    within 4 eps max(1, |l|) no step length s can raise it. A zero slope, at
    an exact optimum, counts. A search that runs out of halvings with a
    larger predicted gain, a slope below -4 eps max(1, |l|) or a NaN slope,
    or 25 accepted steps without that test passing, reports False.

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
    rs = _RiskSets(data.x, data.y, data.delta)
    w_r = w.take(rs.rev)
    beta, iterations, converged = _fit_coefficients(rs, w_r, beta0)
    h = default_time_bandwidth(data.y) if bandwidth is None else float(bandwidth)
    inc = _increments(rs, w_r, beta)
    baseline = BaselineHazard(event_times=rs.grid, increments=inc, kernel=kernel, bandwidth=h)
    return ComponentFit(beta=beta, baseline=baseline, converged=converged, iterations=iterations)


# Chebyshev points per box of the Gaussian smoother: with 16, interpolating
# K(u) over a pair of width-h boxes is exact to rounding
_CHEB_POINTS = 16
_CHEB_ANGLES = (2 * np.arange(_CHEB_POINTS) + 1) * math.pi / (2 * _CHEB_POINTS)
_CHEB_NODES = np.cos(_CHEB_ANGLES)
# barycentric weights of the first-kind nodes, up to a common factor
_CHEB_WEIGHTS = (-1.0) ** np.arange(_CHEB_POINTS) * np.sin(_CHEB_ANGLES)


def _box_pair_blocks() -> np.ndarray:
    """K(d + (z_i - z_j)/2) for box offsets d = -D..D, D the last offset
    at which exp(-u^2/2) does not underflow to 0 at some pair of nodes."""
    u = np.arange(64)[:, None, None] + (_CHEB_NODES[:, None] - _CHEB_NODES[None, :]) / 2
    ahead = kernel_values("gaussian", u)
    reach = int(np.flatnonzero(ahead.any(axis=(1, 2)))[-1])
    # the block at offset -d is the transpose of the one at d
    blocks = np.concatenate([ahead[reach:0:-1].transpose(0, 2, 1), ahead[: reach + 1]])
    blocks.setflags(write=False)
    return blocks


_BOX_BLOCKS = _box_pair_blocks()
_BOX_REACH = (_BOX_BLOCKS.shape[0] - 1) // 2


def _box_coordinates(u: np.ndarray):
    """(box index, position in [-1, 1] within the box) of positions u given
    in bandwidths from the first grid point; box b covers [b, b + 1)."""
    box = np.floor(u)
    return box.astype(np.int64), 2.0 * (u - box) - 1.0


def _lagrange_rows(x: np.ndarray) -> np.ndarray:
    """Chebyshev Lagrange basis at each x in [-1, 1], one row of 16 per x."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = _CHEB_WEIGHTS / (x[:, None] - _CHEB_NODES)
        total = terms.sum(axis=1)
        rows = terms / total[:, None]
    # an x on a node divides by zero; its row is that node's indicator
    on_node = ~np.isfinite(total)
    rows[on_node] = x[on_node, None] == _CHEB_NODES
    return rows


def _as_slice(idx: np.ndarray):
    """idx as a slice when it is a run of consecutive integers."""
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx[-1] - idx[0] == idx.size - 1 else idx


def _box_matrix(box_slot: np.ndarray, x: np.ndarray, boxes: int):
    """Sparse len(x) x (boxes * 16) matrix interpolating box-node values at x."""
    p = _CHEB_POINTS
    cols = box_slot[:, None] * p + np.arange(p)
    indptr = np.arange(0, x.size * p + 1, p)
    return sparse.csr_array((_lagrange_rows(x).ravel(), cols.ravel(), indptr), shape=(x.size, boxes * p))


class _GaussianBoxes:
    """sum_e K((t - T_e)/h)/h inc_e by one-level Chebyshev box interpolation.

    The axis is cut into boxes of width h from the first grid point. Each
    occupied box gets 16 Chebyshev nodes: sources are anterpolated onto them,
    box pairs interact through one 16 x 16 block per box offset, and the node
    potentials are interpolated to the targets. Offsets beyond _BOX_REACH,
    where the kernel underflows to 0, are dropped. Only boxes that hold a
    grid point or a target are built, so memory is 16 (m + len(t)) numbers
    plus at most 2 _BOX_REACH + 1 box pairs per target box, whatever the
    spread of the times.
    """

    def __init__(self, grid: np.ndarray, bandwidth: float, t: np.ndarray):
        self.bandwidth = bandwidth
        box, x = _box_coordinates((grid - grid[0]) / bandwidth)
        src_boxes, src_slot = np.unique(box, return_inverse=True)
        self.sources = src_boxes.size
        self.anterpolate = _box_matrix(src_slot, x, src_boxes.size).T
        # a target moved to a box out of every source box's reach gets rate 0,
        # as it would where it was; this keeps far targets' boxes representable
        reach = _BOX_REACH + 1
        box, x = _box_coordinates(np.clip((t - grid[0]) / bandwidth, -reach, src_boxes[-1] + reach))
        dst_boxes, dst_slot = np.unique(box, return_inverse=True)
        self.targets = dst_boxes.size
        self.interpolate = _box_matrix(dst_slot, x, dst_boxes.size)
        # source box dst - d for each target box and offset d, where occupied
        offsets = np.arange(-_BOX_REACH, _BOX_REACH + 1)
        want = dst_boxes[None, :] - offsets[:, None]
        found = np.minimum(np.searchsorted(src_boxes, want), src_boxes.size - 1)
        hit = src_boxes[found] == want
        # (block transposed, target slots, source slots) per offset in use;
        # runs of consecutive slots become slices, which index without copies
        self.pairs = [
            (_BOX_BLOCKS[k].T.copy(), _as_slice(np.flatnonzero(hit[k])), _as_slice(found[k][hit[k]]))
            for k in np.flatnonzero(hit.any(axis=1))
        ]

    def __call__(self, inc: np.ndarray) -> np.ndarray:
        p = _CHEB_POINTS
        K = inc.shape[0]
        # box x component x node, so each offset is one matrix product
        charge = (self.anterpolate @ inc.T).reshape(self.sources, p, K).transpose(0, 2, 1).copy()
        potential = np.zeros((self.targets, K, p))
        for block_t, dst, src in self.pairs:
            potential[dst] += charge[src] @ block_t
        nodes = potential.transpose(0, 2, 1).reshape(self.targets * p, K)
        return (self.interpolate @ nodes).T / self.bandwidth


class _EpanechnikovWindows:
    """sum_e K((t - T_e)/h)/h inc_e as exact sums over the window [t - h, t + h].

    With d_e the distance of T_e from the centre c of its width-h box and
    tau = (t - c)/h, each term is 0.75 (1 - tau^2 + 2 tau d_e - d_e^2) inc_e,
    so a window is read off per-box running sums of inc, inc d and inc d^2.
    A window covers a prefix, a suffix or all of each of the (at most three)
    boxes it meets, so forward sums serve prefixes and backward sums serve
    suffixes, and no sum is a difference of two larger ones.
    """

    def __init__(self, grid: np.ndarray, bandwidth: float, t: np.ndarray):
        self.bandwidth = bandwidth
        m = grid.size
        boxes, slot = np.unique(np.floor((grid - grid[0]) / bandwidth), return_inverse=True)
        centre = grid[0] + (boxes + 0.5) * bandwidth
        starts = np.searchsorted(slot, np.arange(boxes.size))
        ends = np.append(starts[1:], m)
        d = (grid - centre[slot]) / bandwidth
        self.powers = np.column_stack([np.ones(m), d, d * d])
        # steps k of a doubling scan, with a 0/1 mask on the rows whose
        # partner k places away lies in the same box
        self.steps = []
        k = 1
        while k < int(np.max(ends - starts)):
            self.steps.append((k, (slot[k:] == slot[:-k]).astype(float)[:, None]))
            k *= 2
        lo = np.searchsorted(grid, t - bandwidth, side="left")
        hi = np.searchsorted(grid, t + bandwidth, side="right")
        first = slot[np.minimum(lo, m - 1)]
        last = slot[np.maximum(hi - 1, 0)]
        span = np.where(lo < hi, last - first + 1, 0)
        parts = int(np.max(span, initial=0))
        index, coef = [], []
        for j in range(parts):
            s = np.minimum(first + j, boxes.size - 1)
            a = np.maximum(lo, starts[s])
            used = j < span
            # a part that starts at its box's start is a prefix, read off the
            # forward sums at its last entry; any other part runs to the
            # box's end and is read off the backward sums at its first
            at = np.where(a == starts[s], np.minimum(hi, ends[s]) - 1, m + a)
            index.append(np.where(used, at, 0))
            tau = (t - centre[s]) / bandwidth
            coef.append(np.where(used, [1.0 - tau * tau, 2.0 * tau, -np.ones_like(tau)], 0.0))
        # one row per target: (part, moment) pairs
        self.index = np.array(index, dtype=np.intp).reshape(parts, t.size).T.ravel()
        self.coef = np.array(coef).reshape(parts, 3, t.size).transpose(2, 0, 1).reshape(t.size, 1, 3 * parts)

    def __call__(self, inc: np.ndarray) -> np.ndarray:
        K = inc.shape[0]
        fwd = (self.powers[:, :, None] * inc.T[:, None, :]).reshape(-1, 3 * K)
        bwd = fwd.copy()
        for k, same in self.steps:
            fwd[k:] += fwd[:-k] * same
            bwd[:-k] += bwd[k:] * same
        sums = np.concatenate([fwd, bwd])[self.index].reshape(self.coef.shape[0], self.coef.shape[2], K)
        return 0.75 * (self.coef @ sums)[:, 0, :].T / self.bandwidth


def _smoother(grid: np.ndarray, kernel: str, bandwidth: float, t: np.ndarray):
    """inc (K x m) -> the K smoothed rates (1/h) sum_e K((t - T_e)/h) inc_e at
    the float array t.

    Built once per grid, kernel, bandwidth and targets, in O(m + len(t))
    memory (O(m log m + len(t)) for the Epanechnikov scan masks). Rates are
    clipped at 0 from below; NaN targets give NaN.
    """
    _check_smoothing(kernel, bandwidth)
    nan = np.isnan(t)
    if grid.size == 0:
        return lambda inc: np.where(nan, np.nan, np.zeros((inc.shape[0], t.size)))
    smooth = (_GaussianBoxes if kernel == "gaussian" else _EpanechnikovWindows)(
        grid, float(bandwidth), np.where(nan, grid[0], t)
    )

    def apply(inc: np.ndarray) -> np.ndarray:
        rate = np.maximum(smooth(inc), 0.0)
        rate[:, nan] = np.nan
        return rate

    return apply


def smooth_baseline_hazard(baseline: BaselineHazard, t):
    """Kernel-smoothed hazard rate (1/h) sum_e K((t - T_e)/h) * increment_e.

    Computed in time and memory linear in m event times and len(t) (up to a
    log m factor for the Epanechnikov kernel), without the len(t) x m kernel
    matrix. Against that dense sum, the relative error is at most 1e-12
    wherever the rate is at least 1e-8 sum(increments)/h, and the absolute
    error at most 1e-14 sum(increments)/h everywhere. More than 40h from
    every event time the Gaussian rate is exactly 0, as the dense sum's
    terms underflow there; the Epanechnikov rate is 0 beyond h.

    Each call builds the smoother over all m event times for its targets:
    at m = 4598 one target costs about 1.5 ms and 4800 targets 4 to 6 ms,
    so pass all times in one array rather than calling once per time.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    smooth = _smoother(baseline.event_times, baseline.kernel, baseline.bandwidth, arr)
    vals = smooth(baseline.increments[None, :])[0]
    return float(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


def _padded_cumsum(increments: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, each row led by a zero."""
    out = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def _lambda_index(event_times: np.ndarray, t):
    """Index of Lambda(t) in the zero-padded cumulative increments: the
    number of event times at or before t."""
    return np.searchsorted(event_times, t, side="right")


def _cumulative_risks(x, beta, increments, lam_idx) -> tuple[np.ndarray, np.ndarray]:
    """n x K linear predictors eta = x beta_k and cumulative risks exp(eta) Lambda_k,
    Lambda_k read at `lam_idx`; a risk is 0, with no warning, wherever Lambda = 0."""
    eta = x @ beta.T
    cum = _padded_cumsum(increments)[:, lam_idx].T
    with np.errstate(over="ignore", invalid="ignore"):
        risk = np.where(cum > 0, np.exp(eta) * cum, 0.0)
    return eta, risk


def cumulative_hazard(baseline: BaselineHazard, t):
    """Step cumulative hazard sum_{T_e <= t} increment_e, the cumulative risk at eta = 0."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    idx = _lambda_index(baseline.event_times, arr)
    _, vals = _cumulative_risks(np.zeros((arr.size, 0)), np.zeros((1, 0)), baseline.increments[None], idx)
    return float(vals[0, 0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals[:, 0]


def _check_covariates(beta: np.ndarray, x: np.ndarray) -> None:
    if beta.shape[-1] != x.shape[1]:
        raise ValueError(
            f"model has {beta.shape[-1]} coefficients per component, data has {x.shape[1]} covariates"
        )


def _record_density(data: Dataset, event_times, kernel: str, bandwidth: float):
    """The map (beta, increments) -> n x K log densities of the records of
    `data`, delta * (log rate + eta) - exp(eta) * Lambda(y), for K components
    on the grid `event_times`. The rates are smoothed at the records' event
    times only, the one place they enter, and floored at 1e-300. The smoother
    and the index of Lambda(y) are built once, here."""
    event = data.delta == 1
    smooth = _smoother(event_times, kernel, bandwidth, data.y[event])
    lam_idx = _lambda_index(event_times, data.y)

    def log_densities(beta, increments) -> np.ndarray:
        eta, risk = _cumulative_risks(data.x, beta, increments, lam_idx)
        out = np.zeros(eta.shape)
        out[event] = np.log(np.maximum(smooth(increments).T, RATE_FLOOR)) + eta[event]
        out -= risk
        return out

    return log_densities


def _record_log_densities(data: Dataset, beta, increments, grid) -> np.ndarray:
    """`_record_density` of any records, built for one call; `grid` carries
    the shared `event_times`, `kernel` and `bandwidth`."""
    _check_covariates(beta, data.x)
    return _record_density(data, grid.event_times, grid.kernel, grid.bandwidth)(beta, increments)


def component_log_density(data: Dataset, fit: ComponentFit) -> np.ndarray:
    """Log density of each record under one component.

    delta * (log rate(y) + beta.x) - exp(beta.x) * cumhaz(y), where the rate is
    the kernel-smoothed baseline floored at 1e-300 before the log. The rate
    is evaluated only where delta = 1, the one place it enters, with the
    accuracy and linear memory of `smooth_baseline_hazard`.
    """
    inc = np.array([fit.baseline.increments])
    return _record_log_densities(data, np.array([fit.beta]), inc, fit.baseline)[:, 0]
