"""Command-line front end: simulate, fit, tune, predict, roc, study.

Every option can come from a flag or from a `--config` file of key=value
lines; flags win. Each command writes a `<output>.meta.json` sidecar holding
the fully resolved options, the seed, and library versions, so a run can be
reproduced byte-identically.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .coxfit import KERNELS, NumericalError
from .data import DataError, load_dataset, save_dataset
from .em import (
    DEFAULT_EPS_ABS,
    DEFAULT_EPS_REL,
    DEFAULT_K_INIT,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_RESTARTS,
    EMConfig,
    fit_mixture,
    load_model,
    penalized_observed_loglik,
    save_model,
)
from .penalties import (
    DEFAULT_EPSILON,
    DEFAULT_PRUNE_THRESHOLD,
    KINDS,
    PenaltySpec,
)
from .simgen import SimConfig, generate_dataset, run_study, study_to_csv
from .tdroc import MARKER_MODES, auc, censoring_weights, compute_marker, roc_curve
from .tuning import DEFAULT_CN_CONSTANT, report_summary, report_to_csv, select_tuning

__all__ = ["main", "build_parser"]


def _load_config(path: str | None) -> dict:
    """Parse key=value lines; '#' starts a comment, dashes match underscores."""
    if path is None:
        return {}
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line {lineno}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    return out


def _resolve(args, cfg: dict, name: str, cast, default=None, required=False):
    value = getattr(args, name, None)
    if value is None and name in cfg:
        raw = cfg[name]
        try:
            value = cast(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad config value for {name}: {raw!r}") from exc
    if value is None:
        value = default
    if value is None and required:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return value


def _float_list(text: str) -> list[float]:
    items = [part.strip() for part in str(text).split(",") if part.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return [float(part) for part in items]


def _str_list(text: str) -> list[str]:
    items = [part.strip() for part in str(text).split(",") if part.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


def _write_meta(out_path: str, command: str, options: dict, seed: int) -> None:
    meta = {
        "command": command,
        "options": options,
        "seed": seed,
        "versions": {
            "coxmix": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    with open(out_path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _em_config(args, cfg: dict) -> EMConfig:
    return EMConfig(
        k_init=_resolve(args, cfg, "k_init", int, DEFAULT_K_INIT),
        max_iterations=_resolve(args, cfg, "max_iter", int, DEFAULT_MAX_ITERATIONS),
        eps_abs=_resolve(args, cfg, "eps_abs", float, DEFAULT_EPS_ABS),
        eps_rel=_resolve(args, cfg, "eps_rel", float, DEFAULT_EPS_REL),
        restarts=_resolve(args, cfg, "restarts", int, DEFAULT_RESTARTS),
        seed=_resolve(args, cfg, "seed", int, 0),
    )


def _em_options(config: EMConfig) -> dict:
    """The EM settings as they appear in a command's meta options."""
    return {
        "k_init": config.k_init, "max_iter": config.max_iterations,
        "eps_abs": config.eps_abs, "eps_rel": config.eps_rel, "restarts": config.restarts,
    }


def _penalty_spec(args, cfg: dict, kind: str, level: float) -> PenaltySpec:
    return PenaltySpec(
        kind=kind,
        level=level,
        shape=_resolve(args, cfg, "shape", float),
        epsilon=_resolve(args, cfg, "epsilon", float, DEFAULT_EPSILON),
        prune_threshold=_resolve(args, cfg, "prune", float, DEFAULT_PRUNE_THRESHOLD),
    )


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    n = _resolve(args, cfg, "n", int, required=True)
    censor = _resolve(args, cfg, "censor", float, 0.05)
    seed = _resolve(args, cfg, "seed", int, 0)
    out = _resolve(args, cfg, "out", str, "data.csv")
    labels_out = _resolve(args, cfg, "labels_out", str)
    sim = SimConfig(n=n, censor_target=censor, seed=seed)
    rng = np.random.default_rng(seed)
    data, labels = generate_dataset(sim, rng)
    save_dataset(data, out)
    if labels_out is not None:
        with open(labels_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["component"])
            for lab in labels:
                writer.writerow([str(int(lab) + 1)])
    options = {"n": n, "censor": censor, "out": out, "labels_out": labels_out}
    _write_meta(out, "simulate", options, seed)
    censored = 1.0 - float(data.delta.mean())
    print(f"wrote {out}: {n} rows, censored fraction {censored:.4f}")
    return 0


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    penalty = _resolve(args, cfg, "penalty", str, required=True)
    level = _resolve(args, cfg, "level", float, required=True)
    out = _resolve(args, cfg, "out", str, "model.json")
    kernel = _resolve(args, cfg, "hazard_kernel", str, "gaussian")
    bandwidth = _resolve(args, cfg, "bandwidth", float)
    data = load_dataset(args.data)
    spec = _penalty_spec(args, cfg, penalty, level)
    config = _em_config(args, cfg)
    model = fit_mixture(data, spec, config, kernel=kernel, bandwidth=bandwidth)
    save_model(model, out)
    options = {
        "data": args.data, "penalty": penalty, "level": level,
        "shape": model.spec.shape, "epsilon": model.spec.epsilon,
        "prune": model.spec.prune_threshold, **_em_options(config),
        "hazard_kernel": kernel, "bandwidth": bandwidth, "out": out,
    }
    _write_meta(out, "fit", options, config.seed)
    loglik = penalized_observed_loglik(data, model.params, model.spec)
    print(f"wrote {out}: K = {model.params.K}, penalized loglik = {loglik:.6f}")
    return 0


def cmd_tune(args) -> int:
    cfg = _load_config(args.config)
    penalty = _resolve(args, cfg, "penalty", str, required=True)
    c_grid = _resolve(args, cfg, "c_grid", _float_list)
    cn_constant = _resolve(args, cfg, "cn_constant", float, DEFAULT_CN_CONSTANT)
    kernel = _resolve(args, cfg, "hazard_kernel", str, "gaussian")
    bandwidth = _resolve(args, cfg, "bandwidth", float)
    workers = _resolve(args, cfg, "workers", int, 1)
    out = _resolve(args, cfg, "out", str, "tuning.csv")
    out_model = _resolve(args, cfg, "out_model", str, "model.json")
    data = load_dataset(args.data)
    config = _em_config(args, cfg)
    report = select_tuning(
        data,
        penalty,
        c_grid=None if c_grid is None else np.asarray(c_grid, dtype=float),
        config=config,
        cn_constant=cn_constant,
        shape=_resolve(args, cfg, "shape", float),
        epsilon=_resolve(args, cfg, "epsilon", float, DEFAULT_EPSILON),
        prune_threshold=_resolve(args, cfg, "prune", float, DEFAULT_PRUNE_THRESHOLD),
        kernel=kernel,
        bandwidth=bandwidth,
        workers=workers,
    )
    report_to_csv(report, out)
    save_model(report.best_model, out_model)
    options = {
        "data": args.data, "penalty": penalty,
        "c_grid": [row.c for row in report.rows], "cn_constant": cn_constant,
        **_em_options(config), "hazard_kernel": kernel,
        "bandwidth": bandwidth, "workers": workers,
        "out": out, "out_model": out_model,
    }
    _write_meta(out, "tune", options, config.seed)
    summary = report_summary(report)
    best = summary["best"]
    print(
        f"wrote {out} and {out_model}: best c = {best['c']:g}, "
        f"K = {best['k_hat']}, BIC = {best['bic']:.6f}"
    )
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config(args.config)
    mode = _resolve(args, cfg, "marker_mode", str, "mixture_event_prob")
    times = _resolve(args, cfg, "times", _float_list)
    out = _resolve(args, cfg, "out", str, "markers.csv")
    seed = _resolve(args, cfg, "seed", int, 0)
    model = load_model(args.model)
    data = load_dataset(args.data)
    if mode == "mixture_event_prob":
        if not times:
            raise ValueError("mixture_event_prob markers need --times")
        columns = [(f"marker_t{format(t, 'g')}", compute_marker(model, data, mode, t)) for t in times]
    else:
        columns = [("marker", compute_marker(model, data, mode))]
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name for name, _ in columns])
        for i in range(data.n):
            writer.writerow([format(vals[i], ".17g") for _, vals in columns])
    options = {
        "model": args.model, "data": args.data, "marker_mode": mode,
        "times": times, "out": out,
    }
    _write_meta(out, "predict", options, seed)
    print(f"wrote {out}: {data.n} rows, {len(columns)} marker column(s)")
    return 0


def cmd_roc(args) -> int:
    cfg = _load_config(args.config)
    mode = _resolve(args, cfg, "marker_mode", str, "mixture_event_prob")
    times = _resolve(args, cfg, "times", _float_list, required=True)
    bandwidth = _resolve(args, cfg, "bandwidth", float)
    out_roc = _resolve(args, cfg, "out_roc", str, "roc.csv")
    out_auc = _resolve(args, cfg, "out", str, "auc.csv")
    seed = _resolve(args, cfg, "seed", int, 0)
    model = load_model(args.model)
    data = load_dataset(args.data)
    auc_rows = []
    roc_rows = []
    for t in times:
        markers = compute_marker(model, data, mode, t)
        weights = censoring_weights(markers, data, t, bandwidth=bandwidth)
        curve = roc_curve(markers, weights)
        auc_rows.append((t, auc(curve)))
        for c, sens, oms in zip(curve.thresholds, curve.sensitivity, curve.one_minus_specificity):
            roc_rows.append((t, c, sens, oms))
    with open(out_roc, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "threshold", "sensitivity", "one_minus_specificity"])
        for t, c, sens, oms in roc_rows:
            writer.writerow([format(v, ".17g") for v in (t, c, sens, oms)])
    with open(out_auc, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "auc"])
        for t, value in auc_rows:
            writer.writerow([format(t, ".17g"), format(value, ".17g")])
    options = {
        "model": args.model, "data": args.data, "marker_mode": mode,
        "times": times, "bandwidth": bandwidth,
        "out": out_auc, "out_roc": out_roc,
    }
    _write_meta(out_auc, "roc", options, seed)
    for t, value in auc_rows:
        print(f"t = {format(t, 'g')}: AUC = {value:.6f}")
    return 0


def cmd_study(args) -> int:
    cfg = _load_config(args.config)
    penalties = _resolve(args, cfg, "penalty", _str_list, required=True)
    for kind in penalties:
        if kind not in KINDS:
            raise ValueError(f"unknown penalty kind {kind!r}; expected one of {KINDS}")
    n = _resolve(args, cfg, "n", int, required=True)
    censor = _resolve(args, cfg, "censor", float, 0.05)
    replications = _resolve(args, cfg, "replications", int, required=True)
    seed = _resolve(args, cfg, "seed", int, 0)
    c_grid = _resolve(args, cfg, "c_grid", _float_list)
    cn_constant = _resolve(args, cfg, "cn_constant", float, DEFAULT_CN_CONSTANT)
    workers = _resolve(args, cfg, "workers", int, 1)
    out = _resolve(args, cfg, "out", str, "study.csv")
    sim = SimConfig(n=n, censor_target=censor, seed=seed)
    config = _em_config(args, cfg)
    result = run_study(
        sim,
        replications,
        kinds=tuple(penalties),
        em_config=config,
        c_grid=None if c_grid is None else np.asarray(c_grid, dtype=float),
        cn_constant=cn_constant,
        shape=_resolve(args, cfg, "shape", float),
        epsilon=_resolve(args, cfg, "epsilon", float, DEFAULT_EPSILON),
        prune_threshold=_resolve(args, cfg, "prune", float, DEFAULT_PRUNE_THRESHOLD),
        workers=workers,
    )
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(study_to_csv(result))
    options = {
        "n": n, "censor": censor, "replications": replications,
        "penalty": penalties, "c_grid": c_grid, "cn_constant": cn_constant,
        **_em_options(config), "workers": workers, "out": out,
        "failures": result.failures, "k_hat_counts": result.k_hat_counts,
    }
    _write_meta(out, "study", options, seed)
    failed = sum(result.failures.values())
    print(f"wrote {out}: {replications} replications per penalty, {failed} failed fits excluded")
    return 0


def _add_config_flag(p) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value option file; flags override it")
    p.add_argument("--seed", type=int, help="master seed for all randomness")


def _add_em_flags(p) -> None:
    p.add_argument("--k-init", type=int, help="initial component count")
    p.add_argument("--restarts", type=int, help="random restarts per fit")
    p.add_argument("--max-iter", type=int, help="iteration cap per run")
    p.add_argument("--eps-abs", type=float, help="absolute convergence tolerance")
    p.add_argument("--eps-rel", type=float, help="relative convergence tolerance")


def _add_penalty_flags(p, with_choices: bool = True) -> None:
    if with_choices:
        p.add_argument("--penalty", choices=KINDS, help="penalty kind")
    else:
        p.add_argument("--penalty", type=_str_list, help="comma-separated penalty kinds")
    p.add_argument("--shape", type=float, help="penalty shape parameter")
    p.add_argument("--epsilon", type=float, help="local-linear-approximation offset")
    p.add_argument("--prune", type=float, help="component pruning threshold")


def _add_hazard_flags(p) -> None:
    p.add_argument("--hazard-kernel", choices=KERNELS, help="baseline hazard smoothing kernel")
    p.add_argument("--bandwidth", type=float, help="smoothing bandwidth")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxmix",
        description="Finite mixtures of Cox models with penalized component selection.",
    )
    parser.add_argument("--version", action="version", version=f"coxmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_config_flag(p)
    p.add_argument("--n", type=int, help="rows to generate")
    p.add_argument("--censor", type=float, help="target censoring fraction")
    p.add_argument("--out", help="output dataset CSV")
    p.add_argument("--labels-out", help="optional true-label CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a mixture at one penalty level")
    p.add_argument("data", help="input dataset CSV")
    _add_config_flag(p)
    _add_penalty_flags(p)
    p.add_argument("--level", type=float, help="penalty level")
    _add_em_flags(p)
    _add_hazard_flags(p)
    p.add_argument("--out", help="output model JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("tune", help="select the penalty level by modified BIC")
    p.add_argument("data", help="input dataset CSV")
    _add_config_flag(p)
    _add_penalty_flags(p)
    p.add_argument("--c-grid", type=_float_list, help="comma-separated grid multipliers")
    p.add_argument("--cn-constant", type=float, help="modified-BIC severity constant")
    _add_em_flags(p)
    _add_hazard_flags(p)
    p.add_argument("--workers", type=int, help="concurrent grid points")
    p.add_argument("--out", help="output report CSV")
    p.add_argument("--out-model", help="output best-model JSON")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("predict", help="write model-based risk markers")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="dataset CSV to score")
    _add_config_flag(p)
    p.add_argument("--marker-mode", choices=MARKER_MODES, help="marker definition")
    p.add_argument("--times", type=_float_list, help="comma-separated horizons for event-probability markers")
    p.add_argument("--out", help="output marker CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("roc", help="time-dependent ROC and AUC")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="dataset CSV to evaluate")
    _add_config_flag(p)
    p.add_argument("--marker-mode", choices=MARKER_MODES, help="marker definition")
    p.add_argument("--times", type=_float_list, help="comma-separated evaluation horizons")
    p.add_argument("--bandwidth", type=float, help="marker kernel bandwidth")
    p.add_argument("--out", help="output AUC CSV")
    p.add_argument("--out-roc", help="output ROC curve CSV")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("study", help="Monte-Carlo bias/SD study")
    _add_config_flag(p)
    _add_penalty_flags(p, with_choices=False)
    p.add_argument("--n", type=int, help="sample size per replication")
    p.add_argument("--censor", type=float, help="target censoring fraction")
    p.add_argument("--replications", type=int, help="number of replications")
    p.add_argument("--c-grid", type=_float_list, help="comma-separated grid multipliers")
    p.add_argument("--cn-constant", type=float, help="modified-BIC severity constant")
    _add_em_flags(p)
    p.add_argument("--workers", type=int, help="concurrent replications")
    p.add_argument("--out", help="output study CSV")
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
