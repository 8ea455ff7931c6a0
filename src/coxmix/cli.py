"""Command-line front end: simulate, fit, tune, predict, roc, study.

Each command declares each of its options once, in `COMMANDS`: flag, cast,
default, required, help and choices. That one declaration makes the flag,
casts the config-file value, supplies the default, enforces the required
check and names the entry in the meta sidecar.

An option can come from a flag or from a `--config` file of key=value lines;
flags win. Config keys are the flag names, with dashes or underscores. A key
that only other commands declare is ignored, so one file can serve several
commands; a key that no command declares is a usage error. A key means the
same thing in every command that declares it: `bandwidth` is the hazard
smoother's in fit and tune, and roc's marker kernel takes
`marker_bandwidth`. Each command writes a `<output>.meta.json` sidecar
holding every resolved option, the seed (null for predict and roc, which
draw no random numbers) and the coxmix, numpy and Python versions, so a
run can be reproduced byte-identically. Its `outcome` is what the run did:
for fit, the winning restart's `converged` and `iterations` and the fit's
`em_iterations_total` and `restarts_screened`; null for the others.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .coxfit import KERNELS, NumericalError
from .data import DataError, _write_csv, load_dataset, save_dataset
from .em import (
    DEFAULT_EPS_ABS,
    DEFAULT_EPS_REL,
    DEFAULT_K_INIT,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_RESTARTS,
    SCREEN_ITERATIONS,
    EMConfig,
    fit_mixture,
    load_model,
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
from .tuning import DEFAULT_CN_CONSTANT, report_to_csv, select_tuning

__all__ = ["main", "build_parser"]


def _str_list(text: str) -> list[str]:
    items = [part.strip() for part in str(text).split(",") if part.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


def _float_list(text: str) -> list[float]:
    return [float(part) for part in _str_list(text)]


class Opt(NamedTuple):
    """One option of one command; a flag without leading dashes is positional."""

    flag: str
    cast: Callable = str
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple | None = None

    @property
    def name(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


SEED = Opt("--seed", int, 0, help="master seed for all randomness")
DATA = Opt("data", help="input dataset CSV")
KIND = Opt("--penalty", required=True, choices=KINDS, help="penalty kind")
PENALTY_SHAPE = (
    Opt("--shape", float, help="penalty shape parameter"),
    Opt("--epsilon", float, DEFAULT_EPSILON, help="local-linear-approximation offset"),
    Opt("--prune", float, DEFAULT_PRUNE_THRESHOLD, help="component pruning threshold"),
)
GRID = (
    Opt("--c-grid", _float_list, help="comma-separated grid multipliers"),
    Opt("--cn-constant", float, DEFAULT_CN_CONSTANT, help="modified-BIC severity constant"),
)
EM = (
    Opt("--k-init", int, DEFAULT_K_INIT, help="initial component count"),
    Opt(
        "--restarts", int, DEFAULT_RESTARTS,
        help=f"random restarts per fit: each runs up to {SCREEN_ITERATIONS} EM iterations, then only the one "
        "with the best objective so far runs to convergence",
    ),
    Opt("--max-iter", int, DEFAULT_MAX_ITERATIONS, help="iteration cap per run"),
    Opt("--eps-abs", float, DEFAULT_EPS_ABS, help="absolute convergence tolerance"),
    Opt("--eps-rel", float, DEFAULT_EPS_REL, help="relative convergence tolerance"),
    SEED,
)
HAZARD = (
    Opt("--hazard-kernel", default="gaussian", choices=KERNELS, help="baseline hazard smoothing kernel"),
    Opt("--bandwidth", float, help="smoothing bandwidth"),
)
SCORING = (
    Opt("--model", required=True, help="model JSON"),
    Opt("--data", required=True, help="dataset CSV to score"),
    Opt("--marker-mode", default="mixture_event_prob", choices=MARKER_MODES, help="marker definition"),
)


def _write_meta(out_path: str, command: str, options: dict, seed: int | None, outcome: dict | None) -> None:
    meta = {
        "command": command,
        "options": options,
        "outcome": outcome,
        "seed": seed,
        "versions": {
            "coxmix": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    with open(out_path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _em_config(o) -> EMConfig:
    return EMConfig(
        k_init=o.k_init, max_iterations=o.max_iter, eps_abs=o.eps_abs,
        eps_rel=o.eps_rel, restarts=o.restarts, seed=o.seed,
    )


# Each cmd_* takes the resolved options and returns the meta entries that the
# options cannot know; `main` writes the sidecar. What the run did, under the
# key "outcome", goes beside the options rather than among them, so that a
# config file written from the options still reproduces the run.


def cmd_simulate(o) -> dict:
    sim = SimConfig(n=o.n, censor_target=o.censor, seed=o.seed)
    data, labels = generate_dataset(sim, np.random.default_rng(o.seed))
    save_dataset(data, o.out)
    if o.labels_out is not None:
        _write_csv(o.labels_out, ["component"], ([lab + 1] for lab in labels))
    censored = 1.0 - float(data.delta.mean())
    print(f"wrote {o.out}: {o.n} rows, censored fraction {censored:.4f}")
    return {}


def cmd_fit(o) -> dict:
    data = load_dataset(o.data)
    spec = PenaltySpec(
        kind=o.penalty, level=o.level, shape=o.shape, epsilon=o.epsilon, prune_threshold=o.prune
    )
    model = fit_mixture(data, spec, _em_config(o), kernel=o.hazard_kernel, bandwidth=o.bandwidth)
    save_model(model, o.out)
    # the fit's last objective is the penalized observed log-likelihood
    print(f"wrote {o.out}: K = {model.params.K}, penalized loglik = {model.history[-1]:.6f}")
    # the winning restart's convergence and iterations, and the fit's work counts
    outcome = {
        key: model.diagnostics[key] for key in ("converged", "iterations", "em_iterations_total", "restarts_screened")
    }
    return {"shape": model.spec.shape, "outcome": outcome}


def cmd_tune(o) -> dict:
    data = load_dataset(o.data)
    report = select_tuning(
        data,
        o.penalty,
        c_grid=o.c_grid,
        config=_em_config(o),
        cn_constant=o.cn_constant,
        shape=o.shape,
        epsilon=o.epsilon,
        prune_threshold=o.prune,
        kernel=o.hazard_kernel,
        bandwidth=o.bandwidth,
        workers=o.workers,
    )
    report_to_csv(report, o.out)
    save_model(report.best_model, o.out_model)
    best = report.best
    print(
        f"wrote {o.out} and {o.out_model}: best c = {best.c:g}, "
        f"K = {best.k_hat}, BIC = {best.bic:.6f}"
    )
    return {"c_grid": [row.c for row in report.rows]}


def cmd_predict(o) -> dict:
    model = load_model(o.model)
    data = load_dataset(o.data)
    mode = o.marker_mode
    if mode == "mixture_event_prob":
        if not o.times:
            raise ValueError("mixture_event_prob markers need --times")
        columns = [(f"marker_t{format(t, 'g')}", compute_marker(model, data, mode, t)) for t in o.times]
    else:
        columns = [("marker", compute_marker(model, data, mode))]
    _write_csv(o.out, [name for name, _ in columns], zip(*(vals for _, vals in columns)))
    print(f"wrote {o.out}: {data.n} rows, {len(columns)} marker column(s)")
    return {}


def cmd_roc(o) -> dict:
    model = load_model(o.model)
    data = load_dataset(o.data)
    auc_rows = []
    roc_rows = []
    # only event-probability markers depend on the horizon; the others are
    # computed once for every horizon
    fixed = None if o.marker_mode == "mixture_event_prob" else compute_marker(model, data, o.marker_mode)
    for t in o.times:
        markers = compute_marker(model, data, o.marker_mode, t) if fixed is None else fixed
        weights = censoring_weights(markers, data, t, bandwidth=o.marker_bandwidth)
        curve = roc_curve(markers, weights)
        auc_rows.append((t, auc(curve)))
        for c, sens, oms in zip(curve.thresholds, curve.sensitivity, curve.one_minus_specificity):
            roc_rows.append((t, c, sens, oms))
    header = ["time", "threshold", "sensitivity", "one_minus_specificity"]
    _write_csv(o.out_roc, header, roc_rows)
    _write_csv(o.out, ["time", "auc"], auc_rows)
    for t, value in auc_rows:
        print(f"t = {format(t, 'g')}: AUC = {value:.6f}")
    return {}


def cmd_study(o) -> dict:
    sim = SimConfig(n=o.n, censor_target=o.censor, seed=o.seed)
    result = run_study(
        sim,
        o.replications,
        kinds=tuple(o.penalty),
        em_config=_em_config(o),
        c_grid=o.c_grid,
        cn_constant=o.cn_constant,
        shape=o.shape,
        epsilon=o.epsilon,
        prune_threshold=o.prune,
        workers=o.workers,
    )
    with open(o.out, "w", newline="", encoding="utf-8") as fh:
        fh.write(study_to_csv(result))
    failed = sum(result.failures.values())
    print(f"wrote {o.out}: {o.replications} replications per penalty, {failed} failed fits excluded")
    return {"failures": result.failures, "k_hat_counts": result.k_hat_counts}


COMMANDS = {
    "simulate": ("generate a synthetic dataset", cmd_simulate, (
        Opt("--n", int, required=True, help="rows to generate"),
        Opt("--censor", float, 0.05, help="target censoring fraction"),
        SEED,
        Opt("--out", default="data.csv", help="output dataset CSV"),
        Opt("--labels-out", help="optional true-label CSV"),
    )),
    "fit": ("fit a mixture at one penalty level", cmd_fit, (
        DATA,
        KIND,
        Opt("--level", float, required=True, help="penalty level"),
        *PENALTY_SHAPE,
        *EM,
        *HAZARD,
        Opt("--out", default="model.json", help="output model JSON"),
    )),
    "tune": ("select the penalty level by modified BIC", cmd_tune, (
        DATA,
        KIND,
        *PENALTY_SHAPE,
        *GRID,
        *EM,
        *HAZARD,
        Opt("--workers", int, 1, help="concurrent grid points"),
        Opt("--out", default="tuning.csv", help="output report CSV"),
        Opt("--out-model", default="model.json", help="output best-model JSON"),
    )),
    "predict": ("write model-based risk markers", cmd_predict, (
        *SCORING,
        Opt("--times", _float_list, help="comma-separated horizons for event-probability markers"),
        Opt("--out", default="markers.csv", help="output marker CSV"),
    )),
    "roc": ("time-dependent ROC and AUC", cmd_roc, (
        *SCORING,
        Opt("--times", _float_list, required=True, help="comma-separated evaluation horizons"),
        Opt("--marker-bandwidth", float, help="marker kernel bandwidth"),
        Opt("--out", default="auc.csv", help="output AUC CSV"),
        Opt("--out-roc", default="roc.csv", help="output ROC curve CSV"),
    )),
    "study": ("Monte-Carlo bias/SD study", cmd_study, (
        Opt("--penalty", _str_list, required=True, help="comma-separated penalty kinds"),
        *PENALTY_SHAPE,
        Opt("--n", int, required=True, help="sample size per replication"),
        Opt("--censor", float, 0.05, help="target censoring fraction"),
        Opt("--replications", int, required=True, help="number of replications"),
        *GRID,
        *EM,
        Opt("--workers", int, 1, help="concurrent replications"),
        Opt("--out", default="study.csv", help="output study CSV"),
    )),
}

CONFIG_KEYS = frozenset(opt.name for _, _, options in COMMANDS.values() for opt in options)


def _load_config(path: str | None) -> dict:
    """Parse key=value lines; '#' starts a comment, dashes match underscores,
    and a UTF-8 byte-order mark is read past."""
    if path is None:
        return {}
    out = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line {lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                name = key.replace("-", "_")
                if name not in CONFIG_KEYS:
                    raise ValueError(f"config line {lineno}: unknown key {key!r}")
                out[name] = value
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    return out


def _resolve(args, options) -> dict:
    """Each option's value: its flag, else the config file, else its default."""
    cfg = _load_config(args.config)
    values = {}
    for opt in options:
        value = getattr(args, opt.name)
        if value is None and opt.name in cfg:
            raw = cfg[opt.name]
            try:
                value = opt.cast(raw)
                if opt.choices is not None and value not in opt.choices:
                    raise ValueError(f"expected one of {opt.choices}")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad config value for {opt.name}: {raw!r}") from exc
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ValueError(f"missing required option {opt.flag}")
        values[opt.name] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxmix",
        description="Finite mixtures of Cox models with penalized component selection.",
    )
    parser.add_argument("--version", action="version", version=f"coxmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", metavar="FILE", help="key=value option file; flags override it")
        for opt in options:
            if opt.flag.startswith("-"):
                p.add_argument(opt.flag, type=opt.cast, choices=opt.choices, help=opt.help)
            else:
                p.add_argument(opt.flag, help=opt.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    _, run, options = COMMANDS[args.command]
    try:
        values = _resolve(args, options)
        results = run(argparse.Namespace(**values))
        seed = values.pop("seed", None)
        outcome = results.pop("outcome", None)
        _write_meta(values["out"], args.command, {**values, **results}, seed, outcome)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
