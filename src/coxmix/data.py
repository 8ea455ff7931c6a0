"""Right-censored survival data: validation, CSV input and output, standardization."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "Standardization",
    "load_dataset",
    "save_dataset",
    "standardize_covariates",
]


class DataError(Exception):
    """Malformed or unusable input data."""


@dataclass(frozen=True)
class Dataset:
    """Immutable right-censored sample, validated on construction.

    The arrays are read-only copies. Risk sets and the event-time grid are
    not stored here; the fitting code builds them once per dataset.

    Attributes
    ----------
    y : ndarray, shape (n,)
        Observed times, nonnegative.
    delta : ndarray, shape (n,)
        Event indicators in {0, 1}; at least one event is required.
    x : ndarray, shape (n, p)
        Covariates, finite.
    """

    y: np.ndarray
    delta: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        y = np.array(self.y, dtype=float, copy=True)
        # cast after the 0/1 check, so a status such as 0.5 or 1.7 is rejected, not truncated
        delta = np.array(self.delta, dtype=float, copy=True)
        x = np.array(self.x, dtype=float, copy=True)
        if y.ndim != 1 or y.size == 0:
            raise DataError("times must form a nonempty 1-d array")
        n = y.size
        if delta.shape != (n,):
            raise DataError("status array must match the number of times")
        if x.ndim != 2 or x.shape[0] != n:
            raise DataError("covariate matrix must have one row per record")
        if not np.all(np.isfinite(y)):
            raise DataError("times must be finite")
        if np.any(y < 0):
            raise DataError("times must be nonnegative")
        if not np.all((delta == 0) | (delta == 1)):
            raise DataError("status values must be 0 or 1")
        if not np.any(delta == 1):
            raise DataError("dataset contains no event rows")
        if not np.all(np.isfinite(x)):
            raise DataError("covariates must be finite")
        for name, arr in (("y", y), ("delta", delta.astype(np.int64)), ("x", x)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.x.shape[1]


def load_dataset(
    path: str,
    time_col: str = "time",
    status_col: str = "status",
    covariate_cols: list[str] | None = None,
) -> Dataset:
    """Read a headered CSV into a Dataset.

    Columns other than the time and status columns are treated as covariates
    unless `covariate_cols` narrows the selection. Data rows are numbered from
    1 in error messages.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise DataError(f"{path}: header names {', '.join(map(repr, repeated))} more than once")
        for required in (time_col, status_col):
            if required not in header:
                raise DataError(f"{path}: missing required column {required!r}")
        if covariate_cols is None:
            covariate_cols = [h for h in header if h not in (time_col, status_col)]
        else:
            for c in covariate_cols:
                if c not in header:
                    raise DataError(f"{path}: missing covariate column {c!r}")
        t_idx = header.index(time_col)
        s_idx = header.index(status_col)
        x_idx = [header.index(c) for c in covariate_cols]

        times: list[float] = []
        status: list[int] = []
        covs: list[list[float]] = []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}")

            def cell(idx: int, name: str, finite: str | None = None) -> float:
                """The parsed cell; `finite` names the quantity when it must be finite."""
                raw = row[idx].strip()
                if raw == "":
                    raise DataError(f"{path}: row {row_no}, column {name!r}: missing value")
                try:
                    value = float(raw)
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_no}, column {name!r}: cannot parse {raw!r}"
                    ) from None
                if finite and not np.isfinite(value):
                    raise DataError(f"{path}: row {row_no}, column {name!r}: non-finite {finite}")
                return value

            t = cell(t_idx, time_col, "time")
            if t < 0:
                raise DataError(f"{path}: row {row_no}: negative time {t!r}")
            s = cell(s_idx, status_col)
            if s not in (0.0, 1.0):
                raise DataError(f"{path}: row {row_no}: status must be 0 or 1, got {row[s_idx].strip()!r}")
            times.append(t)
            status.append(int(s))
            covs.append([cell(j, covariate_cols[k], "covariate") for k, j in enumerate(x_idx)])

    if not times:
        raise DataError(f"{path}: no data rows")
    if not any(status):
        raise DataError(f"{path}: dataset contains no event rows")
    x = np.asarray(covs, dtype=float).reshape(len(times), len(covariate_cols))
    return Dataset(y=np.asarray(times), delta=np.asarray(status), x=x)


def save_dataset(data: Dataset, path: str, covariate_names: list[str] | None = None) -> None:
    """Write a Dataset as a headered CSV (time, status, covariates)."""
    if covariate_names is None:
        covariate_names = [f"x{j + 1}" for j in range(data.p)]
    if len(covariate_names) != data.p:
        raise ValueError("covariate_names length must match p")
    rows = (
        [format(float(y), ".17g"), str(int(d))] + [format(float(v), ".17g") for v in x]
        for y, d, x in zip(data.y, data.delta, data.x)
    )
    _write_csv(path, ["time", "status"] + list(covariate_names), rows)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write the header and rows as CSV lines ending in a bare newline."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class Standardization:
    """Per-column centering and scaling applied before fitting.

    `scale` holds the sample standard deviation (ddof=1), replaced by 1 for
    constant columns.
    """

    mean: np.ndarray
    scale: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.scale

    def original_beta(self, beta_std: np.ndarray) -> np.ndarray:
        return np.asarray(beta_std, dtype=float) / self.scale

    def linear_offset(self, beta_std: np.ndarray) -> float:
        """Constant subtracted from the original-scale linear predictor, i.e.
        beta_std . (mean / scale)."""
        return float(np.dot(np.asarray(beta_std, dtype=float), self.mean / self.scale))


def standardize_covariates(data: Dataset) -> tuple[Dataset, Standardization]:
    """Center and scale covariate columns; constant columns pass through with a warning."""
    mean = data.x.mean(axis=0)
    if data.n > 1:
        scale = data.x.std(axis=0, ddof=1)
    else:
        scale = np.zeros(data.p)
    constant = scale == 0.0
    if np.any(constant):
        warnings.warn("constant covariate columns left unscaled", stacklevel=2)
        scale = np.where(constant, 1.0, scale)
    record = Standardization(mean=mean, scale=scale)
    std = Dataset(y=data.y, delta=data.delta, x=record.apply(data.x))
    return std, record
