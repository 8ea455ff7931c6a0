"""Penalty-level selection over a grid by modified BIC."""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .coxfit import NumericalError
from .data import Dataset
from .em import EMConfig, FittedModel, fit_mixture, observed_loglik
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
    "report_summary",
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
    if n < 1:
        raise ValueError("need at least one record to scale a penalty level")
    return float(c) * math.sqrt(math.log(n) / n)


def bic_score(loglik: float, n: int, k: int, p: int, cn_constant: float = DEFAULT_CN_CONSTANT) -> float:
    """Modified BIC: loglik - 0.5 * C_n * D_f * log(n).

    D_f = k - 1 + k * p counts free mixture parameters and C_n =
    cn_constant * log(log(n + k)) grows slowly with the sample size.
    """
    if cn_constant <= 0:
        raise ValueError("cn_constant must be positive")
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
    cn_constant: float
    n: int
    models: list[FittedModel | None] = field(default_factory=list, repr=False)

    @property
    def best(self) -> TuningRow:
        return self.rows[self.best_index]

    @property
    def best_model(self) -> FittedModel | None:
        return self.models[self.best_index] if self.models else None


def _pick_best(rows: list[TuningRow]) -> int:
    best = -1
    for i, row in enumerate(rows):
        if not math.isfinite(row.bic):
            continue
        if best < 0:
            best = i
            continue
        cur = rows[best]
        key_new = (row.bic, -row.k_hat, -row.level)
        key_cur = (cur.bic, -cur.k_hat, -cur.level)
        if key_new > key_cur:
            best = i
    if best < 0:
        raise NumericalError("every grid point failed to fit")
    return best


def _fit_grid_point(
    c, *, data, kind, config, cn_constant, shape, epsilon, prune_threshold, kernel, bandwidth
) -> tuple[TuningRow, FittedModel | None]:
    level = level_from_c(c, data.n)
    spec = PenaltySpec(
        kind=kind, level=level, shape=shape, epsilon=epsilon, prune_threshold=prune_threshold
    )
    try:
        model = fit_mixture(data, spec, config, kernel=kernel, bandwidth=bandwidth)
    except NumericalError:
        return TuningRow(float(c), level, 0, float("nan"), float("nan"), 0, False), None
    loglik = observed_loglik(data, model.params)
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
    if workers < 1:
        raise ValueError("workers must be at least 1")
    # a fork-started pool launches all its processes at once, so never more than tasks
    pool_size = min(workers, len(items))
    if pool_size <= 1:
        return [fn(item) for item in items]
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
    at every grid point. Ties in BIC break toward fewer components, then the
    smaller level. Grid points whose fit fails are kept in the report with a
    NaN score; only a fully failed grid raises.
    """
    config = EMConfig() if config is None else config
    grid = default_c_grid() if c_grid is None else np.asarray(list(c_grid), dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("c_grid must be a nonempty 1-d collection")
    if np.any(grid < 0) or not np.all(np.isfinite(grid)):
        raise ValueError("grid multipliers must be finite and nonnegative")
    fit_point = partial(
        _fit_grid_point, data=data, kind=kind, config=config, cn_constant=cn_constant, shape=shape,
        epsilon=epsilon, prune_threshold=prune_threshold, kernel=kernel, bandwidth=bandwidth,
    )
    results = _map_in_pool(fit_point, [float(c) for c in grid], workers)
    rows = [r for r, _ in results]
    models = [m for _, m in results]
    best = _pick_best(rows)
    return TuningReport(rows=rows, best_index=best, cn_constant=cn_constant, n=data.n, models=models)


def report_to_csv(report: TuningReport, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["c", "level", "k_hat", "bic", "loglik", "iterations", "converged"])
        for row in report.rows:
            writer.writerow(
                [
                    format(row.c, ".17g"),
                    format(row.level, ".17g"),
                    str(row.k_hat),
                    format(row.bic, ".17g"),
                    format(row.loglik, ".17g"),
                    str(row.iterations),
                    "true" if row.converged else "false",
                ]
            )


def report_summary(report: TuningReport) -> dict:
    """JSON-ready summary of the selected grid point."""
    best = report.best
    return {
        "n": report.n,
        "cn_constant": report.cn_constant,
        "grid_points": len(report.rows),
        "best": {
            "c": best.c,
            "level": best.level,
            "k_hat": best.k_hat,
            "bic": best.bic,
            "loglik": best.loglik,
            "converged": best.converged,
        },
    }
