"""Spans and counters around coxmix's layer boundaries, patched in from outside.

The tracer replaces functions and methods of the installed `coxmix` modules
with timing wrappers for the length of a traced run and puts the originals
back afterwards. Nothing under `src/` knows about it. A module-level
function is patched under every name a `coxmix` module holds it by (for
example `em` imports `_newton` from `coxfit` by name); a method is patched on
its class. A target that no longer exists is reported as missing instead of
failing the run, so the benchmark keeps working while internals are renamed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One wrapped boundary: `target` is "module:function" or "module:Class.method"."""

    layer: str
    target: str
    peak_memory: bool = False
    # called as on_return(tracer, args, kwargs, result) after a successful call
    on_return: Callable | None = None


def _newton_done(tracer, args, kwargs, result):
    _, _, iterations, converged = result
    tracer.count("coxfit.newton.iterations", iterations)
    tracer.count("coxfit.newton.unconverged", 0 if converged else 1)


def _restart_done(tracer, args, kwargs, result):
    from coxmix.em import monotonicity_failures

    tracer.count("em.iterations", result.iterations)
    tracer.count("em.restarts.converged", 1 if result.converged else 0)
    tracer.count("em.monotonicity_drops", len(monotonicity_failures(result.history)))


def _ckm_done(tracer, args, kwargs, result):
    tracer.count("tdroc.ckm.rows_built", args[0].curves.shape[0])


def _weights_done(tracer, args, kwargs, result):
    # rows censored before the horizon are the only ones whose weight needs a
    # conditional survival curve
    data = args[1] if len(args) > 1 else kwargs["data"]
    t = float(args[2] if len(args) > 2 else kwargs["t"])
    tracer.count("tdroc.ckm.rows_needed", int(((data.y < t) & (data.delta == 0)).sum()))


HOOKS = (
    Hook("coxfit.newton", "coxmix.coxfit:_newton", on_return=_newton_done),
    Hook("coxfit.pl_derivs", "coxmix.coxfit:_pl_derivs"),
    Hook("coxfit.pl_value", "coxmix.coxfit:_pl_value"),
    Hook("coxfit.risksets", "coxmix.coxfit:_RiskSets.__init__"),
    Hook("coxfit.log_density", "coxmix.coxfit:component_log_density"),
    Hook("em.context", "coxmix.em:_FitContext.__init__", peak_memory=True),
    Hook("em.log_density", "coxmix.em:_FitContext.log_density"),
    Hook("em.increments", "coxmix.em:_FitContext.increments"),
    Hook("em.estep", "coxmix.em:_softmax_rows"),
    Hook("em.pi_update", "coxmix.em:update_mixing_proportions"),
    Hook("em.restart", "coxmix.em:_run_em", on_return=_restart_done),
    Hook("tuning.grid_point", "coxmix.tuning:_fit_grid_point"),
    Hook("tuning.observed_loglik", "coxmix.em:observed_loglik"),
    Hook("tdroc.marker", "coxmix.tdroc:compute_marker"),
    Hook("tdroc.ckm", "coxmix.tdroc:_ConditionalKM.__init__", peak_memory=True, on_return=_ckm_done),
    Hook("tdroc.weights", "coxmix.tdroc:censoring_weights", on_return=_weights_done),
    Hook("tdroc.roc", "coxmix.tdroc:roc_curve"),
    Hook("tdroc.roc", "coxmix.tdroc:auc"),
    Hook("simgen.generate", "coxmix.simgen:generate_dataset"),
)


class Tracer:
    """In-memory spans (name, start, end, parent, root) and per-root counters.

    A root is a span opened by the benchmark itself with `root()`: one set-up
    or one timed unit. Counters and peaks are kept per root, so a unit's
    numbers can be told apart from the set-up's.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self.missing_counters: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        root = self.spans[self.stack[0]][4] if self.stack else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def root(self, name: str):
        """Context manager for a span opened by the benchmark's own code."""
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        if self.stack:
            self.counters[self.spans[self.stack[0]][4]][name] += value

    def _peak(self, layer: str, nbytes: int) -> None:
        if self.stack:
            r = self.spans[self.stack[0]][4]
            self.peaks[r][layer] = max(self.peaks[r][layer], nbytes)

    # -- patching ----------------------------------------------------------
    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            try:
                self._install(hook)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)

    def _install(self, hook: Hook) -> None:
        mod_name, qual = hook.target.split(":")
        module = importlib.import_module(mod_name)
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            original = getattr(cls, meth)
            # an inherited method is restored by deleting the override
            self._restore.append((cls, meth, cls.__dict__.get(meth)))
            setattr(cls, meth, self._wrap(hook, original))
            return
        original = getattr(module, qual)
        wrapper = self._wrap(hook, original)
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "") or ""
            if name != "coxmix" and not name.startswith("coxmix."):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, attr, original))
                    setattr(other, attr, wrapper)

    def _wrap(self, hook: Hook, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(hook.layer)
            own_tracemalloc = hook.peak_memory and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            try:
                result = original(*args, **kwargs)
            finally:
                if own_tracemalloc:
                    tracer._peak(hook.layer, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._close(idx)
            if hook.on_return is not None:
                try:
                    hook.on_return(tracer, args, kwargs, result)
                except (AttributeError, ImportError, IndexError, KeyError, TypeError, ValueError):
                    # the result no longer has the shape the counter reads
                    if hook.layer not in tracer.missing_counters:
                        tracer.missing_counters.append(hook.layer)
            return result

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------
    def per_root(self) -> dict[int, dict[str, dict[str, float]]]:
        """root index -> layer -> {calls, s, self_s}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        )
        for idx, (name, start, end, parent, root) in enumerate(self.spans):
            agg = out[root][name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += (end - start) - child_time[idx]
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, root."""
        with open(path, "w", encoding="utf-8") as fh:
            t0 = self.spans[0][1] if self.spans else 0.0
            for idx, (name, start, end, parent, root) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start - t0, "end": end - t0,
                         "parent": parent, "root": root}
                    )
                    + "\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.idx = -1

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False

    @property
    def seconds(self) -> float:
        start, end = self.tracer.spans[self.idx][1:3]
        return end - start
