"""Weighted Cox partial-likelihood fitting and baseline hazard estimation."""

from __future__ import annotations

import enum
import math

import numpy as np

from .data import Dataset

__all__ = [
    "NumericalError",
    "DegenerateComponentError",
    "KERNELS",
    "kernel_values",
    "default_time_bandwidth",
    "partial_loglik",
    "smooth_baseline_hazard",
    "cumulative_hazard",
    "component_log_density",
]

KERNELS = ("gaussian", "epanechnikov")

# floor applied before taking log of the smoothed hazard
RATE_FLOOR = 1e-300

# accepted steps of a full Newton solve
DEFAULT_MAX_ITER = 25
DEFAULT_MAX_HALVINGS = 20
RIDGE_FACTOR = 1e-8
# a Newton line search stops once the largest gain left is within
# GAIN_TOL * max(1, |l|), the rounding of the log-likelihood
GAIN_TOL = 4.0 * float(np.finfo(float).eps)


class NumericalError(Exception):
    """Optimization or numerical evaluation failed."""


class DegenerateComponentError(NumericalError):
    """A component's baseline hazard overflows at x = 0 of the covariates."""


class NewtonOutcome(enum.IntEnum):
    """How a Newton solve ended (see `_newton`). FAILED is 0, so an outcome
    is true exactly when the solve did not fail."""

    FAILED = 0
    CONVERGED = 1
    CAPPED = 2


def kernel_values(kernel: str, u: np.ndarray) -> np.ndarray:
    """Kernel K(u): standard Gaussian density or Epanechnikov 0.75(1-u^2) on [-1, 1]."""
    _check_kernel(kernel)
    return _kernel_in_place(kernel, np.array(u, dtype=float))


def _kernel_in_place(kernel: str, u: np.ndarray) -> np.ndarray:
    """Overwrite the float array u with K(u) and return it. The Gaussian is
    exp((u*u)*(-0.5))/sqrt(2 pi), the same bits as exp(-0.5*u*u)/sqrt(2 pi);
    the Epanechnikov is 0 where |u| > 1 and at NaN. Where u*u overflows, K(u)
    is 0 exactly, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        np.multiply(u, u, out=u)
    if kernel == "gaussian":
        np.multiply(u, -0.5, out=u)
        np.exp(u, out=u)
        return np.divide(u, math.sqrt(2.0 * math.pi), out=u)
    np.subtract(1.0, u, out=u)
    np.multiply(u, 0.75, out=u)
    # 1 - u*u < 0 exactly where |u| > 1, and fmax maps NaN to 0
    return np.fmax(u, 0.0, out=u)


def _rule_of_thumb(values: np.ndarray, factor: float) -> float:
    """factor * sd(values) * n^(-1/5), or 1 when n < 2 or the values do not vary."""
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        return 1.0
    # sd of the values scaled by a power of two into (-1, 1), so that values
    # near the float limit do not overflow when squared; the scaling is exact
    e = int(np.frexp(np.max(np.abs(v)))[1])
    s = float(np.ldexp(np.ldexp(v, -e).std(ddof=1), e))
    if s <= 0.0:
        return 1.0
    return factor * s * n ** (-0.2)


def default_time_bandwidth(y: np.ndarray) -> float:
    """Rule-of-thumb bandwidth sd(y) * n^(-1/5) for smoothing hazard increments."""
    return _rule_of_thumb(y, 1.0)


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


def _tie_sums(ix: _TimeIndex, w: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Sums of w over the events at grid times lo..hi-1, tied events added in
    record order. The last axis of w runs over the records in risk order: one
    weight vector or a block of rows, and it may stop after the risk set of
    grid time lo closes (`grid_row[lo] + 1` records)."""
    (_, first), *ties = ix.rounds
    out = w[..., first[lo:hi]]
    for pos, cols in ties:
        a, b = np.searchsorted(pos, (lo, hi))
        out[..., pos[a:b] - lo] += w[..., cols[a:b]]
    return out


class _RiskSets(_TimeIndex):
    """The time index of (y, delta) plus the Cox design of x, in O(n p^2)
    memory. It adds:
    - `design`, a contiguous q x n array with one column per record in risk
      order and the rows [1, x_c, upper triangle of x_c x_c^T], q = 1 + p +
      p(p + 1)/2, where x_c are the column-centred covariates. Each row is
      one cumulative sum over contiguous memory. The partial likelihood and
      its derivatives do not change when x is shifted, and centring keeps
      the second-moment sums free of cancellation. This is the one place
      the fit moves the covariates' origin, to `center`: the column means,
      except that a column whose values are all equal is centred on that
      value, so it centres to exactly 0 (its mean can be an ulp off).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, delta: np.ndarray):
        super().__init__(y, delta)
        self.center = np.where(np.all(x == x[0], axis=0), x[0], x.mean(axis=0))
        self.p = x.shape[1]
        xc = (x[self.rev] - self.center).T
        self.triu = np.triu_indices(self.p)
        # sym[i, j] is the row of the design's second-moment block holding x_i x_j
        self.sym = np.empty((self.p, self.p), dtype=np.intp)
        self.sym[self.triu] = np.arange(self.triu[0].size)
        self.sym[self.triu[1], self.triu[0]] = self.sym[self.triu]
        self.design = np.concatenate([np.ones((1, y.size)), xc, xc[self.triu[0]] * xc[self.triu[1]]])


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
    positive weight, their weights (`wv`), positions (`position`) and the
    cumulative-sum rows that close their risk sets (`row`), and `xw`, the
    sum of those events' centred covariates weighted by `wv` (p): the
    gradient's event term. A zero-weight event adds nothing to l, g or H.
    All of this depends on the weights only, which stay fixed during a
    Newton solve, so each solve builds it once.
    """

    __slots__ = ("rs", "w_r", "wv", "position", "row", "xw")

    def __init__(self, rs: _RiskSets, w_r: np.ndarray):
        self.rs = rs
        self.w_r = w_r
        position, row = rs.ev_at
        wv = w_r.take(position)
        if wv.min(initial=1.0) <= 0:
            keep = np.flatnonzero(wv > 0)
            position, row = rs.ev_at.take(keep, axis=1)
            wv = wv.take(keep)
        self.wv, self.position, self.row = wv, position, row
        self.xw = np.take(rs.design[1 : rs.p + 1], position, axis=1) @ wv


# no library code calls this; the benchmark's tracer and the traced CI step
# hook it as coxfit.pl_value (ROADMAP item 2 deletes it)
def _pl_value(ew: _EventWeights, beta) -> float:
    return _pl_derivs(ew, beta)[0]


def _pl_derivs(ew: _EventWeights, beta, derivs: bool = True):
    """(l, gradient, Hessian) from one cumulative sum along the rows of e * design.

    The q x n product e * design is summed in place along each contiguous
    row, and only the event columns are gathered. With s = (s0, S1, S2) the
    risk-set sums of the design at the events (1, p and p(p + 1)/2 rows),
    a = w / s0 and xbar = S1 / s0:
        l = sum w (eta - shift - log s0),
        g = xw - S1 a,    H = -[S2 a - (xbar xbar^T) w],
    the sums over the events with positive weight, xw their weighted
    centred covariates (prepared in `ew`), e = w exp(eta - shift)
    and the second moments packed as the design's upper triangle. l is -inf
    when a risk sum is 0 or not finite or l is not finite, and 0 when no
    event carries weight.
    With `derivs` false the pass runs over the design's first row alone,
    the row of ones, and gives (l, None, None): the same s0, so the same l.

    Everything that depends on the weights alone comes prepared in `ew`, so
    a pass does only the work that changes with beta. Degenerate risk sums
    make g and H non-finite and the callers reject them; a pass raises no
    floating-point warning only inside np.errstate(divide="ignore",
    over="ignore", invalid="ignore"), which `_newton` holds over a whole
    solve and `partial_loglik` over its one pass.
    """
    rs = ew.rs
    eta, shift, e = _risk_weights(rs, ew.w_r, beta)
    sums = np.multiply(rs.design if derivs else rs.design[:1], e)
    sums.cumsum(axis=1, out=sums)
    s = sums.take(ew.row, axis=1)
    s0 = s[0]
    wv = ew.wv
    ll = -np.inf
    if s0.min(initial=np.inf) > 0 and s0.max(initial=0.0) < np.inf:
        ll = float((wv * (eta.take(ew.position) - shift - np.log(s0))).sum())
        ll = ll if math.isfinite(ll) else -np.inf
    if not derivs:
        return ll, None, None
    p = rs.p
    s1 = s[1 : p + 1]
    a = wv / s0
    xbar = s1 / s0
    grad = ew.xw - s1 @ a
    second = s[p + 1 :] @ a - (xbar.take(rs.triu[0], axis=0) * xbar.take(rs.triu[1], axis=0)) @ wv
    return ll, grad, -second.take(rs.sym)


def partial_loglik(data: Dataset, weights: np.ndarray, beta: np.ndarray):
    """Weighted Cox partial log-likelihood with Breslow-style risk sets,

        l = sum_i delta_i w_i [beta.x_i - log sum_{j: y_j >= y_i} w_j exp(beta.x_j)],

    with its gradient and its (negative semidefinite) Hessian in beta:
    (l, g, H) from one derivative pass.
    """
    w = _check_weights(data, weights)
    rs = _RiskSets(data.x, data.y, data.delta)
    ew = _EventWeights(rs, w.take(rs.rev))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _pl_derivs(ew, np.asarray(beta, dtype=float))


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The Newton step (-H)^-1 g. A singular system, or one whose solution is
    not finite, is retried with -H + ridge I for up to five ridges, the
    first 1e-8 max(tr(-H), 1) and each 100 times the last; NumericalError
    when every system fails or H is not finite."""
    neg = -hess
    if not np.isfinite(neg).all():
        raise NumericalError("Hessian is not finite")
    system = neg
    ridge = RIDGE_FACTOR * max(float(np.trace(neg)), 1.0)
    for _ in range(6):
        try:
            step = np.linalg.solve(system, grad)
            if np.isfinite(step).all():
                return step
        except np.linalg.LinAlgError:
            pass
        system = neg + ridge * np.eye(neg.shape[0])
        ridge *= 100.0
    raise NumericalError("Newton system remained singular despite ridge damping")


def _newton(rs: _RiskSets, w_r, beta0, max_steps: int = DEFAULT_MAX_ITER):
    """Damped Newton ascent of the weighted partial likelihood from beta0:
    (beta, l, accepted steps, outcome), with `w_r` the weights in risk order
    and at most `max_steps` accepted steps.

    The weights are prepared once (`_EventWeights`). The start and each
    trial point of the line search cost one `_pl_derivs` pass, and an
    accepted trial's g and H are the next step's. No step follows the last
    one the budget allows, so its trial points take the l-only pass. One
    np.errstate covers the solve: degenerate risk sums give a -inf l or
    non-finite g and H, which the search rejects without a warning.

    The outcome is one of:
    - CONVERGED: no representable gain is left along the Newton direction.
      l is concave, so once s g'step falls within 4 eps max(1, |l|) no step
      length s can raise it. A zero slope, at an exact optimum, counts;
    - CAPPED: `max_steps` steps were accepted before that test passed. Each
      accepted step raised l;
    - FAILED: the search ran out of halvings with a larger predicted gain,
      or the slope was below -4 eps max(1, |l|) or NaN.
    """
    ew = _EventWeights(rs, w_r)
    beta = np.array(beta0, dtype=float, copy=True)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ll, grad, hess = _pl_derivs(ew, beta)
        if not math.isfinite(ll):
            raise NumericalError("partial likelihood not finite at the starting point")
        for iterations in range(max_steps):
            step = _newton_step(hess, grad)
            # l is concave, so l(beta + s step) <= l + s g'step; once that bound is
            # within rounding of l, no shorter step can raise l representably
            slope = float(grad @ step)
            floor = GAIN_TOL * max(1.0, abs(ll))
            if not slope >= -floor:
                return beta, ll, iterations, NewtonOutcome.FAILED
            last = iterations + 1 == max_steps
            scale = 1.0
            for _ in range(DEFAULT_MAX_HALVINGS + 1):
                if scale * slope <= floor:
                    return beta, ll, iterations, NewtonOutcome.CONVERGED
                cand = beta + scale * step
                trial = _pl_derivs(ew, cand, not last)
                if math.isfinite(trial[0]) and trial[0] > ll:
                    break
                scale *= 0.5
            else:
                return beta, ll, iterations, NewtonOutcome.FAILED
            beta, ll = cand, trial[0]
            if not last:
                grad, hess = trial[1:]
    return beta, ll, max_steps, NewtonOutcome.CAPPED


def _fit_coefficients(rs: _RiskSets, w_r, beta0, max_steps: int = DEFAULT_MAX_ITER):
    """Newton fit of one weighted Cox component: (beta, iterations, outcome),
    `w_r` the weights in risk order and at most `max_steps` accepted steps."""
    # the maximizer and the Newton step are invariant to rescaling the
    # weights, and unit-scale weights keep the risk sums well conditioned;
    # dividing the gathered weights gives the bits that gathering w / max(w)
    # would
    w_fit = w_r / float(w_r.max())
    try:
        beta, _, iterations, outcome = _newton(rs, w_fit, beta0, max_steps)
    except NumericalError:
        # a warm start can be infeasible after the weights shift; zero is
        # always a finite starting point for the partial likelihood
        beta, _, iterations, outcome = _newton(rs, w_fit, np.zeros(rs.p), max_steps)
    return beta, iterations, outcome


def _increments(rs: _RiskSets, w_r, beta) -> np.ndarray:
    """Breslow increments on the event-time grid, `w_r` the weights in risk
    order: at each time, the weight of its tied events over its risk-set sum
    of w exp(eta).

    The sums run on the index's centred covariates, eta_c = beta.(x -
    center), shifted by their largest value; the baseline is stored at
    x = 0 of the caller's covariates, which multiplies each ratio by
    exp(-shift - beta.center). Each tie sum is divided by its risk-set sum
    before the ratio is multiplied by that factor: the product of a tie sum
    and the factor can underflow or overflow where the increment itself
    is representable. The increment must be representable at x = 0, and
    so must the factor: an increment that is not finite raises
    DegenerateComponentError.
    """
    eta, shift, e = _risk_weights(rs, w_r, beta)
    num = _tie_sums(rs, w_r, 0, rs.grid.size)
    den = e.cumsum().take(rs.grid_row)
    # eta on the caller's covariates is the index's eta plus this offset
    offset = float(rs.center @ beta)
    with np.errstate(over="ignore", invalid="ignore"):
        inc = np.where(num > 0, num / np.where(den > 0, den, 1.0) * np.exp(-shift - offset), 0.0)
    lost = (num > 0) & (den <= 0)
    if lost.any():
        # tiny weights times exp(eta - shift) underflowed the risk-set sum to
        # zero; log w - log sum_j w_j exp(eta_j) recovers the increment
        with np.errstate(divide="ignore"):
            log_e = np.log(w_r) + eta
        log_s0 = np.logaddexp.accumulate(log_e).take(rs.grid_row)
        with np.errstate(over="ignore"):
            inc[lost] = np.exp(np.log(num[lost]) - log_s0[lost] - offset)
    if not np.all(np.isfinite(inc)):
        raise DegenerateComponentError("the baseline hazard at x = 0 overflows")
    return inc


# Chebyshev points per box of the Gaussian smoother: with 16, interpolating
# K(u) over a pair of width-h boxes is exact to rounding
_CHEB_POINTS = 16
_CHEB_ANGLES = (2 * np.arange(_CHEB_POINTS) + 1) * math.pi / (2 * _CHEB_POINTS)
_CHEB_NODES = np.cos(_CHEB_ANGLES)
# barycentric weights of the first-kind nodes, up to a common factor
_CHEB_WEIGHTS = (-1.0) ** np.arange(_CHEB_POINTS) * np.sin(_CHEB_ANGLES)


# Box offsets the Gaussian smoother keeps, set by the accuracy contract of
# `smooth_baseline_hazard`: relative error 1e-12 wherever the rate is at
# least 1e-8 sum(inc)/h, absolute error 1e-14 sum(inc)/h everywhere. A source
# and a target whose boxes are more than R apart lie more than R bandwidths
# apart, so the dropped offsets add at most K(R) sum(inc)/h in total. The
# relative half then needs K(R) <= 1e-12 * 1e-8 = 1e-20, the tighter of the
# two; the smallest integer R that meets it is 10, where K(10) = 7.7e-23
# (K(9) = 1.0e-18).
_BOX_REACH = 10


def _box_pair_blocks() -> np.ndarray:
    """K(d + (z_i - z_j)/2) for box offsets d = -_BOX_REACH.._BOX_REACH."""
    u = np.arange(_BOX_REACH + 1)[:, None, None] + (_CHEB_NODES[:, None] - _CHEB_NODES[None, :]) / 2
    ahead = kernel_values("gaussian", u)
    # the block at offset -d is the transpose of the one at d
    blocks = np.concatenate([ahead[:0:-1].transpose(0, 2, 1), ahead])
    blocks.setflags(write=False)
    return blocks


_BOX_BLOCKS = _box_pair_blocks()


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


def _box_runs(box: np.ndarray):
    """(distinct boxes, slice of the points in each) of sorted box indices."""
    boxes, starts = np.unique(box, return_index=True)
    ends = np.append(starts[1:], box.size)
    return boxes, [slice(int(a), int(b)) for a, b in zip(starts, ends)]


class _GaussianBoxes:
    """sum_e K((t - T_e)/h) inc_e by one-level Chebyshev box interpolation;
    `_smoother` applies the 1/h.

    The axis is cut into boxes of width h from the first grid point. Each
    occupied box gets 16 Chebyshev nodes: sources are anterpolated onto them,
    box pairs interact through one 16 x 16 block per box offset, and the node
    potentials are interpolated to the targets. Offsets beyond _BOX_REACH =
    10 boxes are dropped, as the accuracy contract of
    `smooth_baseline_hazard` cannot see their terms. A box's
    anterpolation and interpolation are each one matrix product with the
    dense Lagrange rows of its run of sorted points. Only boxes that hold a
    grid point or a target are built, so memory is 16 (m + len(t)) numbers
    for the rows, 16 K per source box and per target box for a call, plus at
    most 21 box pairs per target box, whatever the spread of the times. At
    m = len(t) = 4598 the build peaked at 2 MB and a call with K = 3 at
    0.25 MB more; at 10^-4 of the rule-of-thumb bandwidth, where nearly every
    time has a box of its own, at 4.6 and 6.6 MB.

    Box coordinates are measured from the first grid point in bandwidths,
    so a position d bandwidths out carries a rounding error of about
    1e-16 d, and the kernel values' relative error grows with it. Up to
    2,000 bandwidths the error stays within the 1e-12 relative bound that
    `smooth_baseline_hazard` states (8.1e-13 at most in 40 draws); at 2,500
    bandwidths it reached 1.5e-12, at 10^4 2.5e-12 and at 10^5 1.8e-11.
    """

    def __init__(self, grid: np.ndarray, bandwidth: float, t: np.ndarray):
        box, x = _box_coordinates((grid - grid[0]) / bandwidth)
        src_boxes, self.src_runs = _box_runs(box)
        self.src_rows = _lagrange_rows(x)
        # a target moved to a box out of every source box's reach gets rate 0,
        # as it would where it was; this keeps far targets' boxes representable
        reach = _BOX_REACH + 1
        order = np.argsort(t, kind="stable")
        self.restore = np.argsort(order)
        box, x = _box_coordinates(np.clip((t[order] - grid[0]) / bandwidth, -reach, src_boxes[-1] + reach))
        dst_boxes, self.dst_runs = _box_runs(box)
        self.dst_rows = _lagrange_rows(x)
        # source box dst - d for each target box and offset d, where occupied
        offsets = np.arange(-_BOX_REACH, _BOX_REACH + 1)
        want = dst_boxes[None, :] - offsets[:, None]
        found = np.minimum(np.searchsorted(src_boxes, want), src_boxes.size - 1)
        hit = src_boxes[found] == want
        # (block transposed, target slots, source slots) per offset in use;
        # the block of offset -d is the transpose of the block of offset d,
        # and runs of consecutive slots become slices, which index without copies
        self.pairs = [
            (_BOX_BLOCKS[-1 - k], _as_slice(np.flatnonzero(hit[k])), _as_slice(found[k][hit[k]]))
            for k in np.flatnonzero(hit.any(axis=1))
        ]

    def __call__(self, inc: np.ndarray) -> np.ndarray:
        K = inc.shape[0]
        # box x component x node, so each offset is one matrix product
        charge = np.empty((len(self.src_runs), K, _CHEB_POINTS))
        for box, run in zip(charge, self.src_runs):
            np.matmul(inc[:, run], self.src_rows[run], out=box)
        potential = np.zeros((len(self.dst_runs), K, _CHEB_POINTS))
        for block_t, dst, src in self.pairs:
            potential[dst] += charge[src] @ block_t
        rates = np.empty((K, self.dst_rows.shape[0]))
        for box, run in zip(potential, self.dst_runs):
            np.matmul(box, self.dst_rows[run].T, out=rates[:, run])
        return rates.take(self.restore, axis=1)


class _EpanechnikovWindows:
    """sum_e K((t - T_e)/h) inc_e as exact sums over the window [t - h, t + h];
    `_smoother` applies the 1/h.

    With d_e the distance of T_e from the centre c of its width-h box and
    tau = (t - c)/h, each term is 0.75 (1 - tau^2 + 2 tau d_e - d_e^2) inc_e,
    so a window is read off per-box running sums of inc, inc d and inc d^2.
    A window covers a prefix, a suffix or all of each of the (at most three)
    boxes it meets, so forward sums serve prefixes and backward sums serve
    suffixes, and no sum is a difference of two larger ones.
    """

    def __init__(self, grid: np.ndarray, bandwidth: float, t: np.ndarray):
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
        return 0.75 * (self.coef @ sums)[:, 0, :].T


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
    bandwidth = float(bandwidth)
    smooth = (_GaussianBoxes if kernel == "gaussian" else _EpanechnikovWindows)(
        grid, bandwidth, np.where(nan, grid[0], t)
    )

    def apply(inc: np.ndarray) -> np.ndarray:
        rate = np.maximum(smooth(inc) / bandwidth, 0.0)
        rate[:, nan] = np.nan
        return rate

    return apply


def smooth_baseline_hazard(params, t):
    """Kernel-smoothed hazard rates (1/h) sum_e K((t - T_e)/h) * increment_e
    of the K baselines of `params`, anything with `event_times` (m), K x m
    `increments`, `kernel` and `bandwidth` (a MixtureParams): K x len(t), or
    K values at a scalar t.

    Computed in time and memory linear in m event times and len(t) (up to a
    log factor for sorting the targets of the Gaussian kernel and for the
    Epanechnikov scan masks), without the len(t) x m kernel matrix. Against
    that dense sum, the relative error is at most 1e-12 wherever the rate
    is at least 1e-8 sum(increments)/h, and the absolute error at most
    1e-14 sum(increments)/h everywhere. For the Gaussian kernel this holds
    while the event times and targets lie within 2,000 bandwidths of the
    first event time; a rule-of-thumb bandwidth spans a few dozen.
    Positions are measured from there in bandwidths (see `_GaussianBoxes`),
    so the error grows with the span: the relative error reached 1.5e-12
    over 2,500 bandwidths (40 draws), and with 1,000 event times uniform
    over 10^4 bandwidths 2.5e-12, over 10^5 1.8e-11 (8 draws). Terms the
    contract cannot see are dropped: the Gaussian rate is exactly 0 from
    11h beyond every event time, and may be from 10h (see `_BOX_REACH`),
    where each of the dense sum's terms is below 8e-23 increment_e/h. The
    Epanechnikov rate is 0 beyond h.

    Each call builds the smoother over all m event times for its targets.
    At m = 4598 and one row, one target costs about 0.75 ms (Gaussian) or
    0.9 ms (Epanechnikov) and 4800 targets about 2 ms (Gaussian) or 2.4 ms
    (Epanechnikov) on a 2-core Xeon with one BLAS thread; three rows cost
    about 5% more (Gaussian) or twice as much (Epanechnikov). So pass all
    times in one array rather than calling once per time.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = _smoother(params.event_times, params.kernel, params.bandwidth, arr)(params.increments)
    return vals[:, 0] if np.ndim(t) == 0 else vals


def _padded_cumsum(increments: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, each row led by a zero."""
    out = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def _lambda_index(event_times: np.ndarray, t):
    """Index of Lambda(t) in the zero-padded cumulative increments: the
    number of event times at or before t. NaN sorts last and reads as t = inf,
    so callers that take a horizon reject or mask NaN first."""
    return np.searchsorted(event_times, t, side="right")


def _cumulative_risks(x, beta, increments, lam_idx) -> tuple[np.ndarray, np.ndarray]:
    """n x K linear predictors eta = x beta_k and cumulative risks exp(eta) Lambda_k,
    Lambda_k read at `lam_idx`; a risk is 0, with no warning, wherever Lambda = 0."""
    eta = x @ beta.T
    cum = _padded_cumsum(increments)[:, lam_idx].T
    with np.errstate(over="ignore", invalid="ignore"):
        risk = np.where(cum > 0, np.exp(eta) * cum, 0.0)
    return eta, risk


def cumulative_hazard(params, t):
    """Step cumulative hazards sum_{T_e <= t} increment_e of the K baselines
    of `params`, read as `smooth_baseline_hazard` reads them: K x len(t), or
    K values at a scalar t; NaN at NaN times."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = _padded_cumsum(params.increments)[:, _lambda_index(params.event_times, arr)]
    vals[:, np.isnan(arr)] = np.nan
    return vals[:, 0] if np.ndim(t) == 0 else vals


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
    event = np.flatnonzero(data.delta == 1)
    smooth = _smoother(event_times, kernel, bandwidth, data.y.take(event))
    lam_idx = _lambda_index(event_times, data.y)

    def log_densities(beta, increments) -> np.ndarray:
        eta, risk = _cumulative_risks(data.x, beta, increments, lam_idx)
        out = np.zeros(eta.shape)
        out[event] = np.log(np.maximum(smooth(increments).T, RATE_FLOOR)) + eta.take(event, axis=0)
        out -= risk
        return out

    return log_densities


def component_log_density(data: Dataset, params) -> np.ndarray:
    """n x K log densities of the records of `data` under the K components
    of `params`, anything with K x p `beta` and the fields that
    `smooth_baseline_hazard` reads (a MixtureParams).

    delta * (log rate(y) + beta.x) - exp(beta.x) * cumhaz(y), where the rate is
    the kernel-smoothed baseline floored at 1e-300 before the log. The rate
    is evaluated only where delta = 1, the one place it enters, with the
    accuracy and linear memory of `smooth_baseline_hazard`. The smoother is
    built for this one call; the EM keeps its own for the records it fits.
    """
    _check_covariates(params.beta, data.x)
    density = _record_density(data, params.event_times, params.kernel, params.bandwidth)
    return density(params.beta, params.increments)
