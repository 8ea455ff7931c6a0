"""Penalty-level selection over a grid by modified BIC."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace
from functools import partial

import numpy as np

from .coxfit import NumericalError, _check_kernel, _check_smoothing
from .data import Dataset, _write_csv
from .em import EMConfig, FittedModel, _check_integer, _penalty_total, fit_mixture
from .penalties import (
    DEFAULT_EPSILON,
    DEFAULT_PRUNE_THRESHOLD,
    PenaltySpec,
)

__all__ = [
    "TuningRow",
    "TuningReport",
    "bic_score",
    "default_c_grid",
    "level_from_c",
    "select_tuning",
    "report_to_csv",
]

DEFAULT_CN_CONSTANT = 1.0
DEFAULT_GRID_POINTS = 20
DEFAULT_GRID_LO = 0.1
DEFAULT_GRID_HI = 2.0


def default_c_grid() -> np.ndarray:
    return np.linspace(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_POINTS)


def level_from_c(c: float, n: int) -> float:
    """Penalty level c * sqrt(log(n) / n)."""
    if c < 0:
        raise ValueError("grid multiplier must be nonnegative")
    _check_integer("n", n)
    return float(c) * math.sqrt(math.log(n) / n)


def _check_cn_constant(cn_constant: float) -> None:
    if not (math.isfinite(cn_constant) and cn_constant > 0):
        raise ValueError("cn_constant must be finite and positive")


def bic_score(loglik: float, n: int, k: int, p: int, cn_constant: float = DEFAULT_CN_CONSTANT) -> float:
    """Modified BIC: loglik - 0.5 * C_n * D_f * log(n).

    D_f = k - 1 + k * p counts free mixture parameters and C_n =
    cn_constant * log(log(n + k)) grows slowly with the sample size.
    """
    _check_cn_constant(cn_constant)
    if n + k <= math.e:
        raise NumericalError("modified BIC undefined: n + K must exceed e for log(log(n + K)) > 0")
    df = k - 1 + k * p
    cn = cn_constant * math.log(math.log(n + k))
    return float(loglik) - 0.5 * cn * df * math.log(n)


@dataclass(frozen=True)
class TuningRow:
    c: float
    level: float
    k_hat: int
    bic: float
    loglik: float
    iterations: int
    converged: bool


@dataclass
class TuningReport:
    """One row per grid point plus the index of the selected level."""

    rows: list[TuningRow]
    best_index: int
    models: list[FittedModel | None] = field(default_factory=list, repr=False)

    @property
    def best(self) -> TuningRow:
        return self.rows[self.best_index]

    @property
    def best_model(self) -> FittedModel | None:
        return self.models[self.best_index] if self.models else None


def _pick_best(rows: list[TuningRow]) -> int:
    """Index of the highest finite BIC, ties to fewer components, then the smaller level."""
    scored = [i for i, row in enumerate(rows) if math.isfinite(row.bic)]
    if not scored:
        raise NumericalError("every grid point failed to fit")
    return max(scored, key=lambda i: (rows[i].bic, -rows[i].k_hat, -rows[i].level))


def _tuning_inputs(kind, c_grid, cn_constant, shape, epsilon, prune_threshold, kernel="gaussian", bandwidth=None):
    """(grid of multipliers, the penalty at level 0): the one check of every
    tuning option, made before any draw, fit or worker. A bandwidth of None
    is each fit's rule of thumb, checked there."""
    grid = default_c_grid() if c_grid is None else np.asarray(list(c_grid), dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("c_grid must be a nonempty 1-d collection")
    if np.any(grid < 0) or not np.all(np.isfinite(grid)):
        raise ValueError("grid multipliers must be finite and nonnegative")
    _check_cn_constant(cn_constant)
    if bandwidth is None:
        _check_kernel(kernel)
    else:
        _check_smoothing(kernel, float(bandwidth))
    return grid, PenaltySpec(kind, 0.0, shape, epsilon, prune_threshold)


def _fit_grid_point(
    c, *, data, spec, config, cn_constant, kernel, bandwidth
) -> tuple[TuningRow, FittedModel | None]:
    level = level_from_c(c, data.n)
    # replace re-runs the spec's checks; a resolved shape resolves to itself
    spec = replace(spec, level=level)
    try:
        model = fit_mixture(data, spec, config, kernel=kernel, bandwidth=bandwidth)
    except NumericalError:
        return TuningRow(float(c), level, 0, float("nan"), float("nan"), 0, False), None
    # the fit's last objective is the penalized observed log-likelihood at its
    # final parameters, so adding the penalty back gives the observed one
    loglik = model.history[-1] + _penalty_total(model.params.pi, spec, data.n)
    score = bic_score(loglik, data.n, model.params.K, data.p, cn_constant)
    row = TuningRow(
        c=float(c),
        level=level,
        k_hat=model.params.K,
        bic=score,
        loglik=loglik,
        iterations=int(model.diagnostics["iterations"]),
        converged=bool(model.diagnostics["converged"]),
    )
    return row, model


def _map_in_pool(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], spread over up to `workers` processes."""
    _check_integer("workers", workers)
    # a fork-started pool launches all its processes at once, so never more than tasks
    pool_size = min(workers, len(items))
    if pool_size <= 1:
        return [fn(item) for item in items]
    # imported here so that a serial run never loads the process-pool machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(fn, items))


def select_tuning(
    data: Dataset,
    kind: str,
    c_grid=None,
    config: EMConfig | None = None,
    cn_constant: float = DEFAULT_CN_CONSTANT,
    shape: float | None = None,
    epsilon: float = DEFAULT_EPSILON,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    kernel: str = "gaussian",
    bandwidth: float | None = None,
    workers: int = 1,
) -> TuningReport:
    """Fit the mixture at every level of the grid and rank by modified BIC.

    The same EM configuration (and therefore the same restart seeds) is reused
    at every grid point; with no `config`, that is `fit_mixture`'s default.
    Ties in BIC break toward fewer components, then the smaller level. Grid
    points whose fit fails are kept in the report with a NaN score; only a
    fully failed grid raises. The kind, shape, epsilon, prune threshold,
    grid, C_n constant, kernel and a given bandwidth are checked before any
    fit or worker starts.
    """
    grid, spec = _tuning_inputs(kind, c_grid, cn_constant, shape, epsilon, prune_threshold, kernel, bandwidth)
    fit_point = partial(
        _fit_grid_point, data=data, spec=spec, config=config, cn_constant=cn_constant,
        kernel=kernel, bandwidth=bandwidth,
    )
    results = _map_in_pool(fit_point, [float(c) for c in grid], workers)
    rows = [r for r, _ in results]
    models = [m for _, m in results]
    best = _pick_best(rows)
    return TuningReport(rows=rows, best_index=best, models=models)


def report_to_csv(report: TuningReport, path: str) -> None:
    header = ["c", "level", "k_hat", "bic", "loglik", "iterations", "converged"]
    _write_csv(path, header, map(astuple, report.rows))
