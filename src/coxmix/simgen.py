"""Synthetic two-group survival data and the Monte-Carlo bias/SD study.

Event times follow a linear transformation model per latent group,
log(2(exp(4T) - 1)) = -beta_k.x + log E with E unit exponential, which is the
Cox proportional-hazards model with baseline cumulative hazard
Lambda0(t) = 2(exp(4t) - 1) and relative risk exp(beta_k.x). Censoring times
are uniform on [0, C] with C calibrated to hit a target censoring fraction.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .coxfit import NumericalError
from .data import Dataset
from .em import DEFAULT_RESTARTS, EMConfig
from .penalties import DEFAULT_EPSILON, DEFAULT_PRUNE_THRESHOLD
from .tuning import DEFAULT_CN_CONSTANT, _map_in_pool, select_tuning

__all__ = [
    "SimConfig",
    "ar1_covariates",
    "generate_dataset",
    "calibrate_censoring",
    "StudyRow",
    "StudyResult",
    "run_study",
    "study_to_csv",
]

DEFAULT_PILOT_SIZE = 100_000


@dataclass(frozen=True)
class SimConfig:
    """Generating-model description for one study cell."""

    n: int
    pi_true: tuple = (1.0 / 3.0, 2.0 / 3.0)
    beta_true: tuple = ((-3.0, -2.0), (1.0, 1.0))
    ar1_rho: float = 0.5
    censor_target: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("sample size must be at least 1")
        pi = tuple(float(v) for v in self.pi_true)
        beta = tuple(tuple(float(b) for b in row) for row in self.beta_true)
        object.__setattr__(self, "pi_true", pi)
        object.__setattr__(self, "beta_true", beta)
        if len(pi) < 1 or any(v < 0 for v in pi) or abs(sum(pi) - 1.0) > 1e-9:
            raise ValueError("pi_true must lie on the probability simplex")
        if len(beta) != len(pi):
            raise ValueError("beta_true must have one coefficient vector per component")
        p = len(beta[0])
        if p < 1 or any(len(row) != p for row in beta):
            raise ValueError("beta_true rows must share a common positive length")
        if not abs(self.ar1_rho) < 1:
            raise ValueError("ar1_rho must satisfy |rho| < 1")
        if not 0.0 <= self.censor_target < 1.0:
            raise ValueError("censor_target must lie in [0, 1)")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    @property
    def K(self) -> int:
        return len(self.pi_true)

    @property
    def p(self) -> int:
        return len(self.beta_true[0])


def ar1_covariates(n: int, p: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Mean-zero Gaussian rows with covariance rho^|s-t| between coordinates."""
    if not abs(rho) < 1:
        raise ValueError("rho must satisfy |rho| < 1")
    idx = np.arange(p)
    sigma = rho ** np.abs(idx[:, None] - idx[None, :])
    chol = np.linalg.cholesky(sigma)
    return rng.standard_normal((n, p)) @ chol.T


def _draw_event_times(config: SimConfig, rng: np.random.Generator, size: int):
    """Latent labels, covariates, and event times, in that draw order."""
    pvals = np.asarray(config.pi_true)
    pvals = pvals / pvals.sum()
    labels = rng.choice(config.K, size=size, p=pvals)
    x = ar1_covariates(size, config.p, config.ar1_rho, rng)
    e = rng.standard_exponential(size)
    beta = np.asarray(config.beta_true)
    lp = np.einsum("ij,ij->i", x, beta[labels])
    t = 0.25 * np.log1p(0.5 * e * np.exp(-lp))
    return t, labels, x


def calibrate_censoring(
    config: SimConfig, rng: np.random.Generator, pilot_size: int = DEFAULT_PILOT_SIZE
) -> float:
    """Upper bound C of the Uniform[0, C] censoring law hitting censor_target.

    The expected censoring fraction E[min(T, C)] / C is continuous and
    strictly decreasing in C, so bisection on a pilot sample of event times
    converges; the result lands within 0.005 of the target in expectation.
    """
    target = config.censor_target
    if not 0.0 < target < 1.0:
        raise ValueError("censoring calibration needs a target strictly inside (0, 1)")
    t, _, _ = _draw_event_times(config, rng, pilot_size)

    def frac(upper: float) -> float:
        return float(np.minimum(t, upper).mean()) / upper

    lo, hi = 1e-12, 1.0
    while frac(hi) > target:
        hi *= 2.0
        if hi > 1e12:
            raise NumericalError("censoring calibration bracket did not close")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if frac(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    upper = 0.5 * (lo + hi)
    if abs(frac(upper) - target) > 0.005:
        raise NumericalError("censoring calibration did not reach the target fraction")
    return upper


def generate_dataset(
    config: SimConfig, rng: np.random.Generator, censor_upper: float | None = None
):
    """One synthetic dataset plus its true component labels (0-based).

    Draws consume the stream in a fixed order: labels, covariates, unit
    exponentials, then (when censoring is active and no precomputed bound is
    supplied) the calibration pilot, then censoring times. Pass censor_upper
    to reuse a calibration across datasets.
    """
    t, labels, x = _draw_event_times(config, rng, config.n)
    if config.censor_target == 0.0:
        return Dataset(y=t, delta=np.ones(config.n), x=x), labels
    if censor_upper is None:
        censor_upper = calibrate_censoring(config, rng)
    c = rng.uniform(0.0, censor_upper, size=config.n)
    y = np.minimum(t, c)
    delta = (t <= c).astype(float)
    return Dataset(y=y, delta=delta, x=x), labels


@dataclass(frozen=True)
class StudyRow:
    """One bias/SD table cell."""

    penalty: str
    n: int
    censor_target: float
    component: int
    parameter: str
    bias: float
    sd: float
    replications_used: int
    k_hat_mode: int
    k_correct_fraction: float


@dataclass(frozen=True)
class StudyResult:
    rows: tuple
    replications: int
    failures: dict
    k_hat_counts: dict


def _align_to_truth(pi_hat, beta_hat, beta_true):
    """Permute fitted components to minimize total squared beta distance."""
    K = len(beta_true)
    truth = np.asarray(beta_true)
    fitted = np.asarray(beta_hat)
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(K)):
        cost = float(np.sum((fitted[list(perm)] - truth) ** 2))
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    pi_a = tuple(pi_hat[j] for j in best_perm)
    beta_a = tuple(tuple(beta_hat[j]) for j in best_perm)
    return pi_a, beta_a


def _study_replication(r, *, config, censor_upper, kinds, em_config, **tuning_options):
    data_rng = np.random.default_rng(np.random.SeedSequence([config.seed, r, 0]))
    data, _ = generate_dataset(config, data_rng, censor_upper=censor_upper)
    em_seed = int(np.random.SeedSequence([config.seed, r, 1]).generate_state(1, dtype=np.uint64)[0])
    cfg = replace(em_config, seed=em_seed)
    out = {}
    for kind in kinds:
        try:
            report = select_tuning(data, kind, config=cfg, workers=1, **tuning_options)
            params = report.best_model.params
            out[kind] = (
                params.K,
                tuple(float(v) for v in params.pi),
                tuple(tuple(float(b) for b in row) for row in params.beta),
            )
        except NumericalError:
            out[kind] = None
    return out


def run_study(
    config: SimConfig,
    replications: int,
    kinds=("scad",),
    em_config: EMConfig | None = None,
    c_grid=None,
    cn_constant: float = DEFAULT_CN_CONSTANT,
    shape: float | None = None,
    epsilon: float = DEFAULT_EPSILON,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    workers: int = 1,
) -> StudyResult:
    """Replicate generate/tune/fit and tabulate bias and SD per parameter.

    Bias rows condition on replications whose selected component count equals
    the true one; each replication draws its random streams from
    (config.seed, replication index), so results do not depend on worker
    count or scheduling. Replications where every tuning attempt fails
    numerically are excluded and counted in `failures`.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if em_config is None:
        em_config = EMConfig(restarts=DEFAULT_RESTARTS, seed=config.seed)
    censor_upper = None
    if config.censor_target > 0.0:
        cal_rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
        censor_upper = calibrate_censoring(config, cal_rng)

    replicate = partial(
        _study_replication, config=config, censor_upper=censor_upper, kinds=tuple(kinds),
        em_config=em_config, c_grid=c_grid, cn_constant=cn_constant, shape=shape, epsilon=epsilon,
        prune_threshold=prune_threshold,
    )
    outcomes = _map_in_pool(replicate, list(range(replications)), workers)

    K_true = config.K
    rows = []
    failures = {}
    k_counts = {}
    for kind in kinds:
        per_rep = [out[kind] for out in outcomes]
        failures[kind] = sum(1 for v in per_rep if v is None)
        successes = [v for v in per_rep if v is not None]
        counts = Counter(k for (k, _, _) in successes)
        k_counts[kind] = dict(sorted(counts.items()))
        if counts:
            top = max(counts.values())
            k_mode = min(k for k, c in counts.items() if c == top)
            k_frac = counts.get(K_true, 0) / len(successes)
        else:
            k_mode = 0
            k_frac = 0.0
        aligned = [
            _align_to_truth(pi_hat, beta_hat, config.beta_true)
            for (k, pi_hat, beta_hat) in successes
            if k == K_true
        ]
        used = len(aligned)

        def cell(values, truth):
            if not values:
                return float("nan"), float("nan")
            arr = np.asarray(values)
            bias = float(arr.mean()) - truth
            sd = float(arr.std(ddof=1)) if used > 1 else float("nan")
            return bias, sd

        for k in range(K_true):
            specs = [("pi", config.pi_true[k], [a[0][k] for a in aligned])]
            for j in range(config.p):
                specs.append(
                    (f"beta{j + 1}", config.beta_true[k][j], [a[1][k][j] for a in aligned])
                )
            for name, truth, values in specs:
                bias, sd = cell(values, truth)
                rows.append(
                    StudyRow(
                        penalty=kind,
                        n=config.n,
                        censor_target=config.censor_target,
                        component=k + 1,
                        parameter=name,
                        bias=bias,
                        sd=sd,
                        replications_used=used,
                        k_hat_mode=k_mode,
                        k_correct_fraction=k_frac,
                    )
                )
    return StudyResult(
        rows=tuple(rows),
        replications=replications,
        failures=failures,
        k_hat_counts=k_counts,
    )


def study_to_csv(result: StudyResult) -> str:
    header = ("penalty,n,censor_target,component,parameter,bias,sd,"
              "replications_used,K_hat_mode,K_correct_fraction")
    lines = [header]
    for row in result.rows:
        lines.append(
            f"{row.penalty},{row.n},{format(row.censor_target, '.17g')},"
            f"{row.component},{row.parameter},{format(row.bias, '.17g')},"
            f"{format(row.sd, '.17g')},{row.replications_used},"
            f"{row.k_hat_mode},{format(row.k_correct_fraction, '.17g')}"
        )
    return "\n".join(lines) + "\n"
