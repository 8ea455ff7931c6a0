"""Synthetic two-group survival data and the Monte-Carlo bias/SD study.

Event times follow a linear transformation model per latent group,
log(2(exp(4T) - 1)) = -beta_k.x + log E with E unit exponential, which is the
Cox proportional-hazards model with baseline cumulative hazard
Lambda0(t) = 2(exp(4t) - 1) and relative risk exp(beta_k.x). Censoring times
are uniform on [0, C] with C calibrated to hit a target censoring fraction.
The calibration draws its pilot sample from the caller's generator and then
solves for C in closed form: it consumes the stream exactly as the pilot
draw does, so the draws after it do not depend on how C is solved.
"""

from __future__ import annotations

import io
import itertools
from collections import Counter
from dataclasses import astuple, dataclass, replace
from functools import partial

import numpy as np

from .coxfit import NumericalError
from .data import Dataset, _write_rows
from .em import EMConfig, _check_integer
from .penalties import DEFAULT_EPSILON, DEFAULT_PRUNE_THRESHOLD
from .tuning import DEFAULT_CN_CONSTANT, _map_in_pool, _tuning_inputs, select_tuning

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
        _check_integer("n", self.n)
        _check_integer("seed", self.seed, 0, 2**64)
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

    The expected censoring fraction is E[min(T, C)] / C, estimated on a pilot
    sample of n event times drawn from `rng`. With the pilot sorted,
    t(1) <= ... <= t(n), and S_j the sum of its j smallest times, the line
    (S_j + (n - j) C) / (n C) equals the fraction on [t(j), t(j+1)] and is
    no smaller elsewhere, since each term replaces min(t, C) by t or by C.
    So the fraction equals the target p at the smallest of
    C_j = S_j / (n p - (n - j)) over the j whose denominator is positive:
    the bound is exact on the pilot up to rounding, with no search. As
    min(T, C) / C lies in [0, 1], the pilot's fraction at any C has standard
    error at most 0.5 / sqrt(n), 0.0016 at the default 100,000 draws.
    """
    target = config.censor_target
    if not 0.0 < target < 1.0:
        raise ValueError("censoring calibration needs a target strictly inside (0, 1)")
    t, _, _ = _draw_event_times(config, rng, pilot_size)
    t = np.sort(t)
    n = t.size
    den = n * target - (n - np.arange(1, n + 1))
    pos = np.flatnonzero(den > 0)
    j = pos[np.argmin(np.cumsum(t)[pos] / den[pos])]
    # the running sums pick the interval; its sum is then taken pairwise,
    # which stays within a few ulps where a running sum over many tied
    # times drifts
    return float(t[: j + 1].sum() / den[j])


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
    failures: dict
    k_hat_counts: dict


def _align_to_truth(pi_hat, beta_hat, beta_true):
    """Fitted rows (pi_k, beta_k) as a K x (1 + p) array, in the first
    component order with the least total squared beta distance to the truth."""
    fit = np.column_stack([pi_hat, beta_hat])
    perms = [list(perm) for perm in itertools.permutations(range(len(fit)))]
    costs = [np.sum((fit[perm, 1:] - beta_true) ** 2) for perm in perms]
    return fit[perms[np.argmin(costs)]]


def _study_replication(r, *, config, censor_upper, kinds, em_config, **tuning_options):
    data_rng = np.random.default_rng(np.random.SeedSequence([config.seed, r, 0]))
    data, _ = generate_dataset(config, data_rng, censor_upper=censor_upper)
    em_seed = int(np.random.SeedSequence([config.seed, r, 1]).generate_state(1, dtype=np.uint64)[0])
    cfg = replace(em_config, seed=em_seed)
    out = {}
    for kind in kinds:
        try:
            report = select_tuning(data, kind, config=cfg, workers=1, **tuning_options)
            out[kind] = (report.best_model.params.pi, report.best_model.params.beta)
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
    numerically are excluded and counted in `failures`. Empty, repeated or
    unknown kinds, a bad replication or worker count, and every other
    tuning option (shape, epsilon, prune threshold, grid, C_n constant) are
    rejected before any draw.
    """
    _check_integer("replications", replications)
    _check_integer("workers", workers)
    kinds = tuple(kinds)
    if not kinds or len(set(kinds)) < len(kinds):
        raise ValueError(f"need at least one penalty kind, each named once; got {kinds}")
    for kind in kinds:
        # the checked grid, so that a one-pass iterable serves every replication
        c_grid, _ = _tuning_inputs(kind, c_grid, cn_constant, shape, epsilon, prune_threshold)
    if em_config is None:
        em_config = EMConfig()
    censor_upper = None
    if config.censor_target > 0.0:
        cal_rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
        censor_upper = calibrate_censoring(config, cal_rng)

    replicate = partial(
        _study_replication, config=config, censor_upper=censor_upper, kinds=kinds,
        em_config=em_config, c_grid=c_grid, cn_constant=cn_constant, shape=shape, epsilon=epsilon,
        prune_threshold=prune_threshold,
    )
    outcomes = _map_in_pool(replicate, list(range(replications)), workers)

    truth = np.column_stack([config.pi_true, config.beta_true])
    names = ["pi"] + [f"beta{j + 1}" for j in range(config.p)]
    rows = []
    failures = {}
    k_counts = {}
    for kind in kinds:
        fits = [out[kind] for out in outcomes if out[kind] is not None]
        failures[kind] = replications - len(fits)
        counts = Counter(pi.size for pi, _ in fits)
        k_counts[kind] = dict(sorted(counts.items()))
        # the most frequent K-hat, ties going to the smaller K
        k_mode = min(counts, key=lambda k: (-counts[k], k), default=0)
        k_frac = counts[config.K] / len(fits) if fits else 0.0
        aligned = np.array(
            [_align_to_truth(pi, beta, truth[:, 1:]) for pi, beta in fits if pi.size == config.K]
        ).reshape(-1, *truth.shape)
        used = len(aligned)
        for k, j in np.ndindex(truth.shape):
            column = aligned[:, k, j]
            rows.append(
                StudyRow(
                    penalty=kind,
                    n=config.n,
                    censor_target=config.censor_target,
                    component=k + 1,
                    parameter=names[j],
                    bias=float(column.mean() - truth[k, j]) if used else float("nan"),
                    sd=float(column.std(ddof=1)) if used > 1 else float("nan"),
                    replications_used=used,
                    k_hat_mode=k_mode,
                    k_correct_fraction=k_frac,
                )
            )
    return StudyResult(rows=tuple(rows), failures=failures, k_hat_counts=k_counts)


def study_to_csv(result: StudyResult) -> str:
    header = ["penalty", "n", "censor_target", "component", "parameter", "bias", "sd",
              "replications_used", "K_hat_mode", "K_correct_fraction"]
    out = io.StringIO()
    _write_rows(out, header, map(astuple, result.rows))
    return out.getvalue()
