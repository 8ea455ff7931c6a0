"""Penalized EM for finite mixtures of Cox proportional-hazards components."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .coxfit import (
    NumericalError,
    _baseline_arrays,
    _check_smoothing,
    _fit_coefficients,
    _float_array,
    _increments,
    _record_density,
    _record_log_densities,
    _RiskSets,
    default_time_bandwidth,
)
from .data import Dataset, standardize_covariates
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
        if self.k_init < 1:
            raise ValueError("k_init must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (0 < self.eps_abs < 1) or not (0 < self.eps_rel < 1):
            raise ValueError("convergence tolerances must lie in (0, 1)")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be a 64-bit nonnegative integer")


@dataclass(frozen=True)
class MixtureParams:
    """Mixing proportions `pi` (K), coefficients `beta` (K x p) and the K
    baseline hazards as `increments` (K x m) on one shared grid of
    `event_times` (m), smoothed with one `kernel` and `bandwidth`: the
    fields and shapes of the model JSON."""

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
        times, inc = _baseline_arrays(self.event_times, self.increments, self.kernel, self.bandwidth, pi.size)
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
        # M-step Newton solves on this context, their accepted steps, and the
        # solves that ended unconverged
        self.newton_fits = 0
        self.newton_iterations = 0
        self.newton_unconverged = 0

    def fit_coefficients(self, w_r: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Newton fit of one component's coefficients from beta, `w_r` its
        weights in risk order; the solve is added to the counts."""
        beta, iterations, converged = _fit_coefficients(self.rs, w_r, beta)
        self.newton_fits += 1
        self.newton_iterations += iterations
        self.newton_unconverged += not converged
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
        """(beta, increments) of one weighted Cox fit warm-started from beta."""
        # a component starved of event weight keeps its coefficients and gets a
        # zero baseline; the next E-step then removes it naturally
        if float(w[self.rs.ev_mask].sum()) <= 0.0:
            return beta, np.zeros(self.rs.grid.size)
        w_r = w.take(self.rs.rev)
        beta = self.fit_coefficients(w_r, beta)
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
    """Random hard assignment into k_init groups, equal initial proportions,
    and per-group Cox fits. Returns (params, responsibilities)."""
    n = ctx.n
    k = int(k_init)
    events = ctx.rs.ev_mask
    assign = None
    while assign is None:
        for _ in range(100):
            cand = rng.integers(0, k, size=n)
            counts = np.bincount(cand[events], minlength=k)
            if counts.min() > 0:
                assign = cand
                break
        else:
            # some group never received an event row; try a smaller split
            k -= 1
            if k < 1:
                raise NumericalError("could not seed initial components with event rows")
    S = np.zeros((n, k))
    S[np.arange(n), assign] = 1.0
    beta = np.empty((k, ctx.p))
    inc = np.empty((k, ctx.rs.grid.size))
    for j in range(k):
        beta[j] = ctx.fit_coefficients(S[:, j].take(ctx.rs.rev), np.zeros(ctx.p))
        # the initial baselines must place positive mass at every event time:
        # a hard partition gives each component exactly zero mass at the other
        # groups' events, and the first E-step would then return the starting
        # assignment unchanged, freezing the split
        w = S[:, j] if k == 1 else (1.0 - INIT_MASS_FLOOR) * S[:, j] + INIT_MASS_FLOOR / k
        inc[j] = ctx.increments(w.take(ctx.rs.rev), beta[j])
    return ctx.mixture(np.full(k, 1.0 / k), beta, inc), S


def e_step(data: Dataset, params: MixtureParams) -> np.ndarray:
    """Posterior component responsibilities, rows on the simplex.

    Uses the kernel-smoothed component densities so it applies to any data,
    not just the records the model was fitted on. Computed in log space; a
    record with zero density under every component gets a uniform row and
    triggers a warning.
    """
    S, _, _ = _softmax_rows(params.pi, _record_log_densities(data, params.beta, params.increments, params))
    return S


def update_mixing_proportions(S: np.ndarray, pi_prev: np.ndarray, spec: PenaltySpec) -> np.ndarray:
    """Penalized M-step update of the mixing proportions.

    Maximizes sum_k colsum_k log pi_k - n * level * sum_k g_k pi_k on the
    simplex, where g_k is the local linear approximation slope of the penalty
    at pi_prev. The maximizer is pi_k = colsum_k / (rho + n * level * g_k) with
    rho chosen so the proportions sum to one.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise ValueError("responsibilities must be a 2-d array")
    n, K = S.shape
    pi_prev = np.asarray(pi_prev, dtype=float)
    if pi_prev.shape != (K,):
        raise ValueError("pi_prev length must match the responsibility columns")
    colsum = S.sum(axis=0)
    lam = spec.level
    if lam == 0.0:
        return colsum / n
    g = np.array([lla_coefficient(spec, float(p)) for p in pi_prev])
    shift = n * lam * g
    active = colsum > 0.0
    if not np.any(active):
        raise NumericalError("responsibility matrix carries no mass")
    if np.all(shift[active] == 0.0):
        return colsum / n

    ca = colsum[active]
    sa = shift[active]

    def excess(rho: float) -> float:
        return float(np.sum(ca / (rho + sa)) - 1.0)

    hi = float(n)  # excess(n) <= 0 because colsums total n and shifts are nonnegative
    if excess(hi) == 0.0:
        rho = hi
    else:
        lo = -float(np.min(sa))
        span = hi - lo
        bracket = None
        for j in range(1, 1100):
            cand = lo + span * 0.5**j
            if excess(cand) > 0.0:
                bracket = cand
                break
        if bracket is None:
            raise NumericalError(
                f"mixing-proportion update is infeasible at penalty level {lam!r}"
            )
        rho = brentq(excess, bracket, hi, xtol=1e-13, rtol=4 * np.finfo(float).eps, maxiter=256)
    with np.errstate(divide="ignore", invalid="ignore"):
        pi = np.where(active, colsum / (rho + shift), 0.0)
    if np.any(pi[active] <= 0.0) or not np.all(np.isfinite(pi)):
        raise NumericalError(
            f"mixing-proportion update produced a nonpositive denominator at penalty level {lam!r}"
        )
    total = float(pi.sum())
    if abs(total - 1.0) > 1e-12:
        pi = pi / total
    return pi


def _prune_mask(pi: np.ndarray, spec: PenaltySpec) -> np.ndarray:
    keep = pi >= spec.prune_threshold
    if not np.any(keep):
        if pi.size == 1:
            return np.ones(1, dtype=bool)
        raise NumericalError(
            f"every component fell below the prune threshold at penalty level {spec.level!r}"
        )
    return keep


def _apply_prune(pi, rows, keep):
    pi2 = pi[keep]
    return pi2 / pi2.sum(), [r for r, k in zip(rows, keep) if k]


def observed_loglik(data: Dataset, params: MixtureParams) -> float:
    """Unpenalized observed-data mixture log-likelihood."""
    _, lse = _log_joint(params.pi, _record_log_densities(data, params.beta, params.increments, params))
    return float(np.sum(lse))


def _penalty_total(pi: np.ndarray, spec: PenaltySpec, n: int) -> float:
    if spec.level == 0.0:
        return 0.0
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
    observed log-likelihood, which is not the exact quantity the profile
    M-step maximizes, so small decreases can occur. They are recorded as
    (iteration index, drop) pairs rather than raised.
    """
    out: list[tuple[int, float]] = []
    for i in range(1, len(history)):
        diff = history[i] - history[i - 1]
        tol = MONOTONICITY_RTOL * (1.0 + abs(history[i]))
        if diff < -tol:
            out.append((i, float(diff)))
    return out


@dataclass
class _EMRun:
    params: MixtureParams
    history: list[float]
    converged: bool
    iterations: int
    row_dev: float
    pi_dev: float
    prune_events: int


def _run_em(ctx: _FitContext, spec: PenaltySpec, config: EMConfig, rng: np.random.Generator) -> _EMRun:
    params, _ = _initialize(ctx, config.k_init, rng)
    logd = ctx.log_density(params)
    # each E-step also yields the objective at the (pi, log f) it reads
    S, dev, observed = _softmax_rows(params.pi, logd)
    history = [observed - _penalty_total(params.pi, spec, ctx.n)]
    row_dev = 0.0
    pi_dev = 0.0
    converged = False
    iterations = 0
    prune_events = 0
    for iterations in range(1, config.max_iterations + 1):
        row_dev = max(row_dev, dev)
        pi_new = update_mixing_proportions(S, params.pi, spec)
        pi_dev = max(pi_dev, abs(float(pi_new.sum()) - 1.0))
        keep = _prune_mask(pi_new, spec)
        beta = params.beta
        if not np.all(keep):
            prune_events += int(np.sum(~keep))
            pi_new, beta = _apply_prune(pi_new, beta, keep)
            pi_dev = max(pi_dev, abs(float(pi_new.sum()) - 1.0))
            logd = logd[:, keep]
            # responsibilities must reflect the reduced model before refitting
            S, dev, _ = _softmax_rows(pi_new, logd)
            row_dev = max(row_dev, dev)
        betas, incs = zip(*(ctx.refit_component(S[:, k], b) for k, b in enumerate(beta)))
        params = ctx.mixture(pi_new, np.array(betas), np.array(incs))
        logd = ctx.log_density(params)
        S, dev, observed = _softmax_rows(params.pi, logd)
        history.append(observed - _penalty_total(params.pi, spec, ctx.n))
        if check_convergence(history[-1], history[-2], config):
            converged = True
            break
    return _EMRun(
        params=params,
        history=history,
        converged=converged,
        iterations=iterations,
        row_dev=row_dev,
        pi_dev=pi_dev,
        prune_events=prune_events,
    )


def _destandardize(params: MixtureParams, record, order) -> MixtureParams:
    """params on the original covariate scale, with the components in `order`."""
    rows = [(params.beta[k], params.increments[k]) for k in order]
    beta = np.array([record.original_beta(b) for b, _ in rows])
    # one scalar factor per row, as the per-component mapping always did
    inc = np.array([row * math.exp(-record.linear_offset(b)) for b, row in rows])
    if not np.all(np.isfinite(inc)):
        raise NumericalError(
            "baseline increments overflowed while mapping back to the original covariate scale"
        )
    return replace(params, pi=params.pi[order], beta=beta, increments=inc)


def _distinct_components(params: MixtureParams, tol: float = DISTINCT_TOL) -> bool:
    # sup-norm distance between every pair of coefficient rows
    gap = np.max(np.abs(params.beta[:, None, :] - params.beta[None, :, :]), axis=2)
    return not np.any(gap[np.triu_indices(params.K, 1)] < tol)


def fit_mixture(
    data: Dataset,
    spec: PenaltySpec,
    config: EMConfig | None = None,
    kernel: str = "gaussian",
    bandwidth: float | None = None,
) -> FittedModel:
    """Fit a penalized Cox mixture by EM with random restarts.

    Covariates are standardized internally and every reported quantity is
    mapped back to the original scale. The best restart by final penalized
    observed log-likelihood wins; components are ordered by decreasing
    proportion. Besides the winning restart's figures, `diagnostics` counts
    the M-step over the initial fits and every restart: `newton_fits`
    (Newton solves), `newton_iterations` (accepted Newton steps) and
    `newton_unconverged` (solves that did not report convergence). The
    model JSON stores no diagnostics.

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
    std_data, record = standardize_covariates(data)
    ctx = _FitContext(std_data, kernel, h)
    children = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best: _EMRun | None = None
    failures: list[str] = []
    row_dev = 0.0
    pi_dev = 0.0
    for child in children:
        rng = np.random.default_rng(child)
        try:
            run = _run_em(ctx, spec, config, rng)
        except NumericalError as exc:
            failures.append(str(exc))
            continue
        row_dev = max(row_dev, run.row_dev)
        pi_dev = max(pi_dev, run.pi_dev)
        if best is None or run.history[-1] > best.history[-1]:
            best = run
    if best is None:
        raise NumericalError(
            "every EM restart failed: " + "; ".join(failures[:3]) + ("..." if len(failures) > 3 else "")
        )
    order = np.argsort(-best.params.pi, kind="stable")
    params = _destandardize(best.params, record, order)
    if not _distinct_components(params):
        warnings.warn("fitted components are not pairwise distinct", stacklevel=2)
    drops = monotonicity_failures(best.history)
    if drops and spec.level == 0.0 and best.prune_events == 0:
        # classical EM promises ascent here; the smoothed plug-in broke it
        warnings.warn(
            f"objective decreased beyond tolerance at {len(drops)} iteration(s); "
            f"largest drop {min(d for _, d in drops):.3e}",
            stacklevel=2,
        )
    return FittedModel(
        params=params,
        spec=spec,
        seed=config.seed,
        history=list(best.history),
        diagnostics={
            "responsibility_row_max_dev": row_dev,
            "pi_sum_max_dev": pi_dev,
            "restart_failures": failures,
            "converged": best.converged,
            "iterations": best.iterations,
            "prune_events": best.prune_events,
            "monotonicity_failures": drops,
            "newton_fits": ctx.newton_fits,
            "newton_iterations": ctx.newton_iterations,
            "newton_unconverged": ctx.newton_unconverged,
        },
    )


def _fmt_float(v: float) -> str:
    v = float(v)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".17g")


def _fmt_vector(vals) -> str:
    return "[" + ", ".join(_fmt_float(v) for v in vals) + "]"


def _fmt_matrix(rows) -> str:
    return "[" + ", ".join(_fmt_vector(r) for r in rows) + "]"


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
        f'  "pi": {_fmt_vector(params.pi)},',
        f'  "beta": {_fmt_matrix(params.beta)},',
        '  "baseline": {',
        f'    "event_times": {_fmt_vector(params.event_times)},',
        f'    "increments": {_fmt_matrix(params.increments)},',
        f'    "kernel": {json.dumps(params.kernel)},',
        f'    "bandwidth": {_fmt_float(params.bandwidth)}',
        "  },",
        f'  "history": {_fmt_vector(model.history)},',
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
    K = _field(raw, "K", int)
    if K != params.K:
        raise ValueError(f"K = {K} disagrees with the {params.K} components stored")
    history = _field(raw, "history", lambda h: [float(v) for v in h])
    return FittedModel(params=params, spec=spec, seed=_field(raw, "seed", int), history=history)


def save_model(model: FittedModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path: str) -> FittedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
