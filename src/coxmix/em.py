"""Penalized EM for finite mixtures of Cox proportional-hazards components."""

from __future__ import annotations

import json
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coxfit import (
    DEFAULT_MAX_ITER,
    NewtonOutcome,
    NumericalError,
    _check_smoothing,
    _fit_coefficients,
    _float_array,
    _increments,
    _record_density,
    _RiskSets,
    component_log_density,
    default_time_bandwidth,
)
from .data import Dataset, _format_real
from .penalties import PenaltySpec, lla_coefficient, log_scale_term

__all__ = [
    "EMConfig",
    "MixtureParams",
    "FittedModel",
    "e_step",
    "update_mixing_proportions",
    "observed_loglik",
    "penalized_observed_loglik",
    "check_convergence",
    "monotonicity_failures",
    "fit_mixture",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

DEFAULT_K_INIT = 10
DEFAULT_MAX_ITERATIONS = 500
DEFAULT_EPS_ABS = 1e-6
DEFAULT_EPS_REL = 1e-6
DEFAULT_RESTARTS = 5

# share of each record's weight spread across all components when building
# the initial baselines; keeps every starting density strictly positive
INIT_MASS_FLOOR = 0.05

# coefficient vectors closer than this in sup norm are flagged as indistinct
DISTINCT_TOL = 1e-6

# Newton steps allowed for the root of the penalized mixing-proportion update
PI_NEWTON_MAX_STEPS = 100

# accepted Newton steps of each EM refit of a component's coefficients: one
# step that raises the weighted partial likelihood makes a generalized EM
REFIT_NEWTON_STEPS = 1

# EM iterations every restart runs before only the leader by best objective
# so far goes on (the "small EM" of Biernacki, Celeux & Govaert, CSDA 2003).
# On replications 12-59 of the criterion-5 cell, the grid points whose two
# restarts reached different fixed points were ranked right by the best
# objective from iteration 8 on; the screen is 2.5 times that, since the
# iterations a ranking needs vary between data sets
SCREEN_ITERATIONS = 20


def _check_integer(name: str, value, lo: int = 1, hi: int | None = None) -> int:
    """The one check of a count or a seed: `value` as an int; ValueError
    unless it is an integer (numpy integers pass, booleans do not) of at
    least `lo` and, when `hi` is given, below `hi`."""
    try:
        # operator.index takes True as 1 (numpy's bool it rejects itself)
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if hi is not None and not lo <= value < hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi})")
    if value < lo:
        raise ValueError(f"{name} must be at least {lo}")
    return value


@dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM search."""

    k_init: int = DEFAULT_K_INIT
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    eps_abs: float = DEFAULT_EPS_ABS
    eps_rel: float = DEFAULT_EPS_REL
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("k_init", "max_iterations", "restarts"):
            _check_integer(name, getattr(self, name))
        _check_integer("seed", self.seed, 0, 2**64)
        if not (0 < self.eps_abs < 1) or not (0 < self.eps_rel < 1):
            raise ValueError("convergence tolerances must lie in (0, 1)")


@dataclass(frozen=True)
class MixtureParams:
    """Mixing proportions `pi` (K), coefficients `beta` (K x p) and the K
    baseline hazards as `increments` (K x m) on one shared grid of
    `event_times` (m), smoothed with one `kernel` and `bandwidth`: the
    fields and shapes of the model JSON.

    Construction checks every field and stores read-only float copies of
    the four arrays: pi on the simplex, finite beta with one row per
    component, strictly increasing finite event times, finite nonnegative
    increments of shape K x m, a known kernel and a positive finite
    bandwidth."""

    pi: np.ndarray
    beta: np.ndarray
    event_times: np.ndarray
    increments: np.ndarray
    kernel: str
    bandwidth: float

    def __post_init__(self) -> None:
        pi = _float_array(self.pi, "pi")
        if pi.ndim != 1 or pi.size == 0:
            raise ValueError("pi must be a nonempty 1-d array")
        if not np.all(np.isfinite(pi)) or np.any(pi < 0) or np.any(pi > 1 + 1e-9):
            raise ValueError("mixing proportions must lie in [0, 1]")
        if abs(float(pi.sum()) - 1.0) > 1e-9:
            raise ValueError("mixing proportions must sum to 1")
        beta = _float_array(self.beta, "beta")
        if beta.ndim != 2 or beta.shape[0] != pi.size or not np.all(np.isfinite(beta)):
            raise ValueError(f"beta must be a finite K x p array, one row per entry of pi (K = {pi.size})")
        times = _float_array(self.event_times, "event_times")
        inc = _float_array(self.increments, "increments")
        if times.ndim != 1:
            raise ValueError("event_times must be a 1-d array")
        shape = (pi.size, times.size)
        if inc.shape != shape:
            raise ValueError(f"increments must have shape {shape}, one column per event time; got {inc.shape}")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("event_times must be strictly increasing")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(inc)):
            raise ValueError("baseline hazard entries must be finite")
        if np.any(inc < 0):
            raise ValueError("hazard increments must be nonnegative")
        _check_smoothing(self.kernel, self.bandwidth)
        for name, value in (("pi", pi), ("beta", beta), ("event_times", times), ("increments", inc)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def K(self) -> int:
        return self.pi.size


@dataclass
class FittedModel:
    """Result of `fit_mixture`, or of loading a serialized model."""

    params: MixtureParams
    spec: PenaltySpec
    seed: int
    history: list[float] = field(default_factory=list)
    diagnostics: dict | None = None


class _FitContext:
    """What the EM caches for one dataset on top of its Cox index: the
    kernel, the bandwidth, and the records' log density, whose smoother is
    built once at the records' event times.
    """

    def __init__(self, data: Dataset, kernel: str, bandwidth: float):
        self.n, self.p = data.x.shape
        self.kernel = kernel
        self.bandwidth = float(bandwidth)
        self.rs = _RiskSets(data.x, data.y, data.delta)
        self.density = _record_density(data, self.rs.grid, kernel, self.bandwidth)
        # Newton solves on this context, their accepted steps, and the solves
        # that failed; EM iterations run on it
        self.newton_fits = 0
        self.newton_iterations = 0
        self.newton_unconverged = 0
        self.em_iterations = 0

    def fit_coefficients(self, w_r: np.ndarray, beta: np.ndarray, max_steps: int = DEFAULT_MAX_ITER) -> np.ndarray:
        """Newton fit of one component's coefficients from beta in at most
        `max_steps` accepted steps, `w_r` its weights in risk order; the
        solve is added to the counts."""
        beta, iterations, outcome = _fit_coefficients(self.rs, w_r, beta, max_steps)
        self.newton_fits += 1
        self.newton_iterations += iterations
        self.newton_unconverged += outcome is NewtonOutcome.FAILED
        return beta

    def increments(self, w_r: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Breslow increments of one component, `w_r` its weights in risk order."""
        return _increments(self.rs, w_r, beta)

    def log_density(self, params: MixtureParams) -> np.ndarray:
        """n x K log densities of every record under every component."""
        return self.density(params.beta, params.increments)

    def mixture(self, pi: np.ndarray, beta: np.ndarray, increments: np.ndarray) -> MixtureParams:
        """Stacked components on this context's grid, kernel and bandwidth."""
        return MixtureParams(
            pi=pi, beta=beta, event_times=self.rs.grid, increments=increments,
            kernel=self.kernel, bandwidth=self.bandwidth,
        )

    def refit_component(self, w: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(beta, increments) of one EM refit of a component: at most
        REFIT_NEWTON_STEPS line-searched Newton steps on its weighted partial
        likelihood from beta."""
        # a component starved of event weight keeps its coefficients and gets a
        # zero baseline; the next E-step then removes it naturally
        if float(w[self.rs.ev_mask].sum()) <= 0.0:
            return beta, np.zeros(self.rs.grid.size)
        w_r = w.take(self.rs.rev)
        beta = self.fit_coefficients(w_r, beta, REFIT_NEWTON_STEPS)
        return beta, self.increments(w_r, beta)


def _log_joint(pi: np.ndarray, logd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and the row log-sum-exp of L = log pi + log f.

    Each record's L is shifted by its largest entry and exponentiated once;
    the sums of those exponentials give both the log-sum-exp and the
    responsibilities. A record that is -inf under every component, or has a
    +inf or NaN entry, gets a non-finite log-sum-exp and responsibilities.
    The work runs on a K x n copy, so every per-record reduction reads
    contiguous memory; the responsibilities are its n x K transpose.
    """
    with np.errstate(divide="ignore"):
        L = np.add(np.log(pi)[:, None], logd.T, order="C")
    top = L.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    L -= top
    np.exp(L, out=L)
    total = L.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lse = np.log(total) + top
        L /= total
    return L.T, lse


def _softmax_rows(pi: np.ndarray, logd: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(responsibilities, largest row-sum deviation from 1, observed log-likelihood)."""
    S, lse = _log_joint(pi, logd)
    bad = ~np.isfinite(lse)
    if np.any(bad):
        warnings.warn(
            "records with zero density under every component; uniform responsibilities assigned",
            stacklevel=3,
        )
        S[bad] = 1.0 / pi.size
    rowdev = float(np.max(np.abs(S.sum(axis=1) - 1.0)))
    return S, rowdev, float(np.sum(lse))


def _initialize(ctx: _FitContext, k_init: int, rng: np.random.Generator):
    """Random hard assignment into k groups, equal initial proportions, and
    per-group Cox fits.

    k runs down from k_init: each k draws up to 100 uniform splits and keeps
    the first whose groups all hold an event row. At k = 1 the first draw
    succeeds, as a Dataset holds at least one event, so the loop always ends
    with a split."""
    events = ctx.rs.ev_mask
    for k in range(int(k_init), 0, -1):
        draws = (rng.integers(0, k, size=ctx.n) for _ in range(100))
        assign = next((a for a in draws if np.bincount(a[events], minlength=k).min() > 0), None)
        if assign is not None:
            break
    beta = np.empty((k, ctx.p))
    inc = np.empty((k, ctx.rs.grid.size))
    for j in range(k):
        member = (assign == j).astype(float)
        beta[j] = ctx.fit_coefficients(member.take(ctx.rs.rev), np.zeros(ctx.p))
        # the initial baselines must place positive mass at every event time:
        # a hard partition gives each component exactly zero mass at the other
        # groups' events, and the first E-step would then return the starting
        # assignment unchanged, freezing the split. At k = 1 member is all
        # ones and the floor adds back to exactly 1
        w = (1.0 - INIT_MASS_FLOOR) * member + INIT_MASS_FLOOR / k
        inc[j] = ctx.increments(w.take(ctx.rs.rev), beta[j])
    return ctx.mixture(np.full(k, 1.0 / k), beta, inc)


def e_step(data: Dataset, params: MixtureParams) -> np.ndarray:
    """Posterior component responsibilities, rows on the simplex.

    Uses the kernel-smoothed component densities so it applies to any data,
    not just the records the model was fitted on. Computed in log space; a
    record with zero density under every component gets a uniform row and
    triggers a warning.
    """
    S, _, _ = _softmax_rows(params.pi, component_log_density(data, params))
    return S


def update_mixing_proportions(S: np.ndarray, pi_prev: np.ndarray, spec: PenaltySpec) -> np.ndarray:
    """Penalized M-step update of the mixing proportions.

    Maximizes sum_k colsum_k log pi_k - n * level * sum_k g_k pi_k on the
    simplex, where g_k is the local linear approximation slope of the penalty
    at pi_prev. The maximizer is pi_k = colsum_k / (rho + n * level * g_k) with
    rho chosen so the proportions sum to one.

    Over the components with mass, write gap_k for each shift n * level * g_k
    less the smallest, and r = rho + min(shift): the proportions ca_k / (r +
    gap_k) sum to f(r), which falls and is convex for r > 0, so f(r) = 1 has
    one root. Newton starts at r = max_k(ca_k - gap_k), where f(r) >= 1 and
    every denominator is at least ca_k. f lies above each of its tangents, so
    no step passes the root and the iterates rise; the first one that does
    not rise ends the search, a point floating point always reaches. There
    the last step moved r by less than an ulp and each share is rounded
    once, so the proportions are returned as they are, summing to 1 within
    (K + 1) eps; no renormalization follows. A level so large that a shift
    overflows raises NumericalError, and so does a matrix with no mass.

    When every active shift is 0 the update is colsum / n with no root
    search. That holds at level 0, and at a positive SCAD or MCP level once
    every previous proportion is at or past shape * level, where the slope g
    is 0. On this path a column whose colsum / n underflows gets an exact 0
    proportion, which pruning then removes; on the Newton path a zero or
    non-finite proportion raises NumericalError.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise ValueError("responsibilities must be a 2-d array")
    if not np.all(np.isfinite(S)) or np.any(S < 0.0):
        raise ValueError("responsibilities must be finite and nonnegative")
    n, K = S.shape
    pi_prev = np.asarray(pi_prev, dtype=float)
    if pi_prev.shape != (K,):
        raise ValueError("pi_prev length must match the responsibility columns")
    colsum = S.sum(axis=0)
    lam = spec.level
    g = np.array([lla_coefficient(spec, float(p)) for p in pi_prev])
    with np.errstate(over="ignore"):
        shift = n * lam * g
    active = colsum > 0.0
    if not np.any(active):
        raise NumericalError("responsibility matrix carries no mass")
    if not np.all(np.isfinite(shift[active])):
        raise NumericalError(f"penalty level {lam!r} overflows the mixing-proportion shifts n * level * g")
    if np.all(shift[active] == 0.0):
        return colsum / n

    ca = colsum[active]
    gap = shift[active] - np.min(shift[active])
    r = float(np.max(ca - gap))
    for _ in range(PI_NEWTON_MAX_STEPS):
        # pi_k as ca / (r + gap): colsum / (rho + shift) cancels to 0 at huge levels
        denom = r + gap
        share = ca / denom
        rise = (float(share.sum()) - 1.0) / float(np.sum(share / denom))
        if not r + rise > r:
            break
        r += rise
    else:
        raise NumericalError(f"mixing-proportion root not found in {PI_NEWTON_MAX_STEPS} Newton steps")
    pi = np.zeros(K)
    pi[active] = share
    if np.any(share <= 0.0) or not np.all(np.isfinite(share)):
        raise NumericalError(f"mixing-proportion update gave a zero or non-finite proportion at penalty level {lam!r}")
    return pi


def _prune_mask(pi: np.ndarray, spec: PenaltySpec) -> np.ndarray:
    keep = pi >= spec.prune_threshold
    if not np.any(keep):
        raise NumericalError(
            f"every component fell below the prune threshold at penalty level {spec.level!r}"
        )
    return keep


def _apply_prune(pi, rows, keep):
    pi2 = pi[keep]
    return pi2 / pi2.sum(), [r for r, k in zip(rows, keep) if k]


def observed_loglik(data: Dataset, params: MixtureParams) -> float:
    """Unpenalized observed-data mixture log-likelihood."""
    _, lse = _log_joint(params.pi, component_log_density(data, params))
    return float(np.sum(lse))


def _penalty_total(pi: np.ndarray, spec: PenaltySpec, n: int) -> float:
    return n * spec.level * sum(log_scale_term(spec, float(p)) for p in pi)


def penalized_observed_loglik(data: Dataset, params: MixtureParams, spec: PenaltySpec) -> float:
    """Observed log-likelihood minus n * level * sum_k [log(eps + p(pi_k)) - log(eps)]."""
    return observed_loglik(data, params) - _penalty_total(params.pi, spec, data.n)


def check_convergence(current: float, previous: float, config: EMConfig) -> bool:
    """True when the step satisfies the absolute and relative criteria together."""
    diff = abs(current - previous)
    abs_ok = diff < config.eps_abs
    if current == 0.0:
        return abs_ok
    return abs_ok and (diff / abs(current) < config.eps_rel)


# relative tolerance for flagging a drop in the tracked objective
MONOTONICITY_RTOL = 1e-8


def monotonicity_failures(history) -> list[tuple[int, float]]:
    """Steps where the tracked objective dropped beyond 1e-8 * (1 + |value|).

    The per-iteration objective plugs the kernel-smoothed baseline into the
    observed log-likelihood, which is not the quantity the profile M-step
    raises, so it can fall, at times by more than 1. Drops are part of this
    EM: they are listed, never warned about, as (iteration index, drop)
    pairs.
    """
    out: list[tuple[int, float]] = []
    for i in range(1, len(history)):
        diff = history[i] - history[i - 1]
        tol = MONOTONICITY_RTOL * (1.0 + abs(history[i]))
        if diff < -tol:
            out.append((i, float(diff)))
    return out


@dataclass(eq=False)
class _EMState:
    """What one EM run carries from one iteration to the next, so a run can be
    paused after any iteration and resumed with `_em_step`: the current
    `params`, their n x K log density `logd` and responsibilities `S`, the
    objective `history` (one entry per E-step on fresh params), the largest
    responsibility row-sum deviation `row_dev` over every E-step, the largest
    proportion-sum deviation `pi_dev`, the components pruned so far, the
    iterations run, and whether the last one met the convergence test.
    Two states are equal only when they are the same run."""

    params: MixtureParams
    logd: np.ndarray | None = None
    S: np.ndarray | None = None
    history: list[float] = field(default_factory=list)
    row_dev: float = 0.0
    pi_dev: float = 0.0
    prune_events: int = 0
    iterations: int = 0
    converged: bool = False

    def observe(self, pi: np.ndarray, logd: np.ndarray) -> float:
        """E-step at (pi, logd): keeps logd and the responsibilities, folds
        their row deviation into `row_dev` and returns the observed
        log-likelihood at (pi, logd)."""
        self.S, dev, observed = _softmax_rows(pi, logd)
        self.logd = logd
        self.row_dev = max(self.row_dev, dev)
        return observed


def _em_step(ctx: _FitContext, spec: PenaltySpec, config: EMConfig, state: _EMState) -> None:
    """One EM iteration on `state`: the penalized pi update, pruning, the
    component refits, the E-step on their log density, and the convergence
    test on the objective it appends to the history."""
    pi = update_mixing_proportions(state.S, state.params.pi, spec)
    state.pi_dev = max(state.pi_dev, abs(float(pi.sum()) - 1.0))
    keep = _prune_mask(pi, spec)
    beta = state.params.beta
    if not np.all(keep):
        state.prune_events += int(np.sum(~keep))
        pi, beta = _apply_prune(pi, beta, keep)
        state.pi_dev = max(state.pi_dev, abs(float(pi.sum()) - 1.0))
        # responsibilities must reflect the reduced model before refitting
        state.observe(pi, state.logd[:, keep])
    betas, incs = zip(*(ctx.refit_component(state.S[:, k], b) for k, b in enumerate(beta)))
    state.params = ctx.mixture(pi, np.array(betas), np.array(incs))
    observed = state.observe(pi, ctx.log_density(state.params))
    state.history.append(observed - _penalty_total(pi, spec, ctx.n))
    state.iterations += 1
    ctx.em_iterations += 1
    state.converged = check_convergence(state.history[-1], state.history[-2], config)


def _iterate(ctx: _FitContext, spec: PenaltySpec, config: EMConfig, state: _EMState, budget: int) -> None:
    """EM iterations on `state` until the convergence test holds or it has
    run `budget` in all."""
    while not state.converged and state.iterations < budget:
        _em_step(ctx, spec, config, state)


def _run_em(ctx: _FitContext, spec: PenaltySpec, config: EMConfig, rng: np.random.Generator, budget: int) -> _EMState:
    """One restart: a random start, then EM iterations until the convergence
    test holds or `budget` have run. The rng is read only by the start, so a
    run paused at its budget resumes with `_iterate` as if it had never
    stopped."""
    params = _initialize(ctx, config.k_init, rng)
    state = _EMState(params)
    # each E-step also yields the objective at the (pi, log f) it reads
    observed = state.observe(params.pi, ctx.log_density(params))
    state.history.append(observed - _penalty_total(params.pi, spec, ctx.n))
    _iterate(ctx, spec, config, state, budget)
    return state


def _distinct_components(params: MixtureParams, tol: float = DISTINCT_TOL) -> bool:
    # sup-norm distance between every pair of coefficient rows; 0 with no covariates
    gap = np.max(np.abs(params.beta[:, None, :] - params.beta[None, :, :]), axis=2, initial=0.0)
    return not np.any(gap[np.triu_indices(params.K, 1)] < tol)


def fit_mixture(
    data: Dataset,
    spec: PenaltySpec,
    config: EMConfig | None = None,
    kernel: str = "gaussian",
    bandwidth: float | None = None,
) -> FittedModel:
    """Fit a penalized Cox mixture by EM with random restarts.

    The fit runs on the covariates of `data` as given, with no centred or
    scaled copy: the partial likelihood, its Newton steps and the EM
    objective do not change when a covariate is shifted or rescaled, so
    beta is on the columns' own scale and each baseline is the one at
    x = 0. That baseline must be representable: one that overflows there
    fails its restart (see `coxfit._increments`). A covariate column whose
    values are all equal gives a warning; its coefficients stay 0.

    Every restart first runs at most SCREEN_ITERATIONS EM iterations. Only
    the leader, the restart with the highest penalized objective so far
    (ties to the earlier restart), then runs on to convergence or
    `config.max_iterations`; if it fails, the next in that order runs on. A
    restart that converged inside the screen, or reached
    `config.max_iterations` there, is finished already. Of the
    finished restarts, the one with the highest final penalized observed
    log-likelihood wins. A lone restart is its own leader, so it runs
    exactly as it would unscreened. Components are ordered by decreasing
    proportion.

    `diagnostics` holds, for the winning restart:

    - `converged`: whether its last iteration met the eps_abs/eps_rel test
      on the penalized objective with kernel-smoothed baselines. That
      objective is not an ascent path of this EM, so it can drop;
    - `iterations`: the EM iterations it ran;
    - `prune_events`: the components it pruned;
    - `monotonicity_failures`: the (iteration, drop) pairs where its
      objective fell by more than 1e-8 * (1 + |value|). Drops are part of
      this EM: they are listed, never warned about;

    and, over every restart (the Newton counts also over the initial fits):

    - `responsibility_row_max_dev` and `pi_sum_max_dev`: the largest
      deviation from 1 of a responsibility row sum and of the proportions'
      sum;
    - `restart_failures`: the messages of restarts that failed, in the
      screen or while running on;
    - `newton_fits`, `newton_iterations` and `newton_unconverged`: Newton
      solves, their accepted steps, and the solves that failed: a line
      search that ran out of halvings, or a slope that was too negative or
      NaN. An initial fit solves in full, up to 25 steps; each EM refit
      takes at most one step and stops there, which is not a failure;
    - `em_iterations_total`: the EM iterations run, the screen's included;
    - `restarts_screened`: the restarts stopped at the screen.

    The model JSON stores no diagnostics.

    Parameters
    ----------
    data : Dataset
    spec : PenaltySpec
        Penalty kind, level, and pruning threshold.
    config : EMConfig, optional
        Initial number of components, restart count, iteration budget,
        convergence tolerances, and the seed all randomness derives from.
    kernel, bandwidth :
        Baseline-hazard smoothing; bandwidth defaults to sd(y) * n^(-1/5).

    Raises
    ------
    NumericalError
        If every restart fails.
    """
    config = EMConfig() if config is None else config
    if config.k_init > data.n:
        raise ValueError("k_init cannot exceed the number of records")
    h = default_time_bandwidth(data.y) if bandwidth is None else float(bandwidth)
    _check_smoothing(kernel, h)
    ctx = _FitContext(data, kernel, h)
    # the index centres a column to exactly 0 when, and only when, all its values are equal
    if not np.all(ctx.rs.design[1 : ctx.p + 1].any(axis=1)):
        warnings.warn("constant covariate columns", stacklevel=2)
    children = np.random.SeedSequence(config.seed).spawn(config.restarts)
    screen = min(SCREEN_ITERATIONS, config.max_iterations)
    runs: list[_EMState] = []
    failures: list[str] = []
    for child in children:
        try:
            runs.append(_run_em(ctx, spec, config, np.random.default_rng(child), screen))
        except NumericalError as exc:
            failures.append(str(exc))

    def finished(run: _EMState) -> bool:
        return run.converged or run.iterations >= config.max_iterations

    # the leader by best objective so far goes on, since the objective can
    # drop; sorted is stable, so ties go to spawn order. A leader that fails
    # hands over to the next; one that finished inside the screen ends it
    for run in sorted(runs, key=lambda r: max(r.history), reverse=True):
        if finished(run):
            break
        try:
            _iterate(ctx, spec, config, run, config.max_iterations)
            break
        except NumericalError as exc:
            failures.append(str(exc))
            runs.remove(run)
    done = [run for run in runs if finished(run)]
    if not done:
        raise NumericalError(
            "every EM restart failed: " + "; ".join(failures[:3]) + ("..." if len(failures) > 3 else "")
        )
    # the first of the highest final objectives, in spawn order
    best = max(done, key=lambda r: r.history[-1])
    order = np.argsort(-best.params.pi, kind="stable")
    params = ctx.mixture(best.params.pi[order], best.params.beta[order], best.params.increments[order])
    if not _distinct_components(params):
        warnings.warn("fitted components are not pairwise distinct", stacklevel=2)
    return FittedModel(
        params=params,
        spec=spec,
        seed=config.seed,
        history=list(best.history),
        diagnostics={
            "responsibility_row_max_dev": max(run.row_dev for run in runs),
            "pi_sum_max_dev": max(run.pi_dev for run in runs),
            "restart_failures": failures,
            "converged": best.converged,
            "iterations": best.iterations,
            "prune_events": best.prune_events,
            "monotonicity_failures": monotonicity_failures(best.history),
            "newton_fits": ctx.newton_fits,
            "newton_iterations": ctx.newton_iterations,
            "newton_unconverged": ctx.newton_unconverged,
            "em_iterations_total": ctx.em_iterations,
            "restarts_screened": len(runs) - len(done),
        },
    )


def _fmt_float(v: float) -> str:
    """A real as a JSON number; non-finite values take JSON's own spellings."""
    text = _format_real(v)
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


def _fmt_array(vals) -> str:
    """A vector or a matrix as nested JSON arrays of `_fmt_float` numbers."""
    fmt = _fmt_array if np.ndim(vals) > 1 else _fmt_float
    return "[" + ", ".join(fmt(v) for v in vals) + "]"


def model_to_json(model: FittedModel) -> str:
    """Serialize a fitted model with 17-significant-digit reals and a fixed field order."""
    spec = model.spec
    params = model.params
    shape = "null" if spec.shape is None else _fmt_float(spec.shape)
    lines = [
        "{",
        f'  "penalty": {json.dumps(spec.kind)},',
        f'  "level": {_fmt_float(spec.level)},',
        f'  "shape": {shape},',
        f'  "epsilon": {_fmt_float(spec.epsilon)},',
        f'  "K": {params.K},',
        f'  "pi": {_fmt_array(params.pi)},',
        f'  "beta": {_fmt_array(params.beta)},',
        '  "baseline": {',
        f'    "event_times": {_fmt_array(params.event_times)},',
        f'    "increments": {_fmt_array(params.increments)},',
        f'    "kernel": {json.dumps(params.kernel)},',
        f'    "bandwidth": {_fmt_float(params.bandwidth)}',
        "  },",
        f'  "history": {_fmt_array(model.history)},',
        f'  "seed": {int(model.seed)}',
        "}",
    ]
    return "\n".join(lines) + "\n"


def _field(doc, name: str, cast=lambda value: value):
    """cast(doc[name]); a missing field or a value cast rejects is a ValueError naming it."""
    if name not in doc:
        raise ValueError(f"model JSON has no {name!r} field")
    try:
        return cast(doc[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model JSON field {name!r} is malformed: {exc}") from exc


def model_from_json(text: str) -> FittedModel:
    """Rebuild a FittedModel from its JSON form; diagnostics are not stored.
    A missing or mistyped field raises ValueError naming it."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError(f"model JSON must be an object, not {type(raw).__name__}")
    spec = PenaltySpec(
        kind=_field(raw, "penalty"),
        level=_field(raw, "level", float),
        shape=None if raw.get("shape") is None else _field(raw, "shape", float),
        epsilon=_field(raw, "epsilon", float),
    )
    base = _field(raw, "baseline", lambda doc: {**doc})
    params = MixtureParams(
        pi=_field(raw, "pi"), beta=_field(raw, "beta"), event_times=_field(base, "event_times"),
        increments=_field(base, "increments"), kernel=_field(base, "kernel"),
        bandwidth=_field(base, "bandwidth", float),
    )
    K = _field(raw, "K", lambda value: _check_integer("K", value))
    if K != params.K:
        raise ValueError(f"K = {K} disagrees with the {params.K} components stored")
    history = _field(raw, "history", lambda h: [float(v) for v in h])
    seed = _field(raw, "seed", lambda value: _check_integer("seed", value, 0, 2**64))
    return FittedModel(params=params, spec=spec, seed=seed, history=history)


def save_model(model: FittedModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path: str) -> FittedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
