"""Benchmark of the coxmix pipeline: penalized-EM fit, modified-BIC tuning and
time-dependent ROC scoring.

Run from the repository root, with no install step:

    python3 bench/run.py --workload tune-n600 --seed 2026 --seconds 30 --trace 0

Workloads: tune-n600, fit-n4800 and score-n4800-c25 (see bench/README.md);
--workload all runs the three one after another.
Each run is one process, so peak RSS is that workload's own. The run sets up
its inputs from the seed a few times (set-up time is the median), then times
the workload's fixed number of units, so every commit times the same inputs.
--seconds is only a safety cap: no unit starts once the units would run past
twice that. Between units a plain run times a fixed reference computation
that does not use coxmix; the bounded time metric, cpu_per_ref, is the mean
user CPU time of a unit divided by the median CPU time of the reference, so
that the machine's own drift in speed cancels. With --trace 1 every unit is
run twice on the same input, once plain and once with the layer hooks of
tracer.py installed, and the per-layer numbers come from the traced copies.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. The lines before it hold the environment, every metric
in readable form, the output digest and the check results. The exit code is 0
when every output check holds, 1 when one does not, and 2 when the run cannot
start (for example when the coxmix sources are not next to this directory).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from statistics import median

from tracer import HOOKS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# fresh interpreters timed for the import, and set-ups per run; set-up time
# is the median of each
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
# no unit starts once the run would pass this many times --seconds
CAP_FACTOR = 2.0
BLAS_THREADS = 1
DEFAULT_SEED = 2026

WORKLOAD_NAMES = ("tune-n600", "fit-n4800", "score-n4800-c25")
END_TO_END = {"cpu_per_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# sizes of the two reference computations, each about 0.1 s on a 2-core
# Xeon VM: "small" has three parts of about 35 ms, "vector" passes over an
# array of 300,000 elements, under numpy's 4 MB threshold for huge pages
REF_SMALL_LOOPS = 3000
REF_SORT_LOOPS = 800
REF_PY_LOOPS = 150_000
REF_VECTOR_SIZE = 300_000
REF_VECTOR_PASSES = 30
# reference timings per plain run at least, spread over the unit boundaries;
# the run's reference time is their median
REF_SAMPLES = 10
# CPU time of either reference in a quiet spell of the 2-core Xeon VM;
# setup_s is rescaled to the machine speed at which a reference takes this
REF_NOMINAL_S = 0.08

# layers whose time is reported, in the order of the README's layer map
TIMED_LAYERS = (
    "coxfit.newton",
    "coxfit.pl_derivs",
    "coxfit.pl_value",
    "coxfit.log_density",
    "em.context",
    "em.log_density",
    "em.increments",
    "em.estep",
    "em.pi_update",
    "tuning.grid_point",
    "tuning.observed_loglik",
    "tdroc.marker",
    "tdroc.ckm",
    "tdroc.weights",
    "tdroc.roc",
    "simgen.generate",
)
# layers measured during set-up rather than during the timed units
SETUP_LAYERS = ("simgen.generate",)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {"trace.wall_s": "s", "trace.fit_s": "s", "trace.roc_s": "s", "trace.overhead_s": "s"}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "coxfit.newton.iterations": "count",
            "coxfit.newton.unconverged": "count",
            "coxfit.linesearch.accept_ratio": "ratio",
            "coxfit.risksets.builds": "count",
            "em.context.builds": "count",
            "em.context.peak_mb": "MB",
            "em.restarts": "count",
            "em.iterations": "count",
            "em.restarts.converged_ratio": "ratio",
            "em.monotonicity_drops": "count",
            "tuning.grid_points": "count",
            "tdroc.ckm.builds": "count",
            "tdroc.ckm.peak_mb": "MB",
            "tdroc.ckm.rows_built": "count",
            "tdroc.ckm.rows_needed": "count",
            "tdroc.ckm.useful_ratio": "ratio",
            "coxfit.newton.share_of_fit": "ratio",
            "em.log_density.share_of_fit": "ratio",
            "tdroc.ckm.share_of_roc": "ratio",
        }
    )
    return units


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import coxmix; print(time.perf_counter() - t)"
)


def import_seconds(src: Path) -> float:
    """Median time to import coxmix (numpy and scipy included) in a fresh
    interpreter, over IMPORT_REPEATS interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return median(times)


def reference_seconds(kind: str) -> float:
    """CPU time of a fixed computation that uses numpy and Python but not
    coxmix.

    Timed between units, it tells how fast the machine runs at that moment:
    on the shared 2-core VM the benchmark was written on, this speed drifted
    by up to half within minutes, and a unit slowed with it. Dividing a
    unit's CPU time by the reference's cancels that drift, while a change to
    coxmix still moves the ratio. Each workload names the kind
    that mirrors the work that dominates it:

    - "small": Python loops driving numpy calls on arrays of 600 and 4800
      elements, and a pure-Python loop;
    - "vector": numpy passes over an array of 300,000 elements (exp,
      cumulative sum, dot product and sort), with few Python steps.
    """
    import numpy as np

    # every result is read, so the timed steps do all their work
    acc = 0.0
    if kind == "small":
        small = np.linspace(0.0, 1.0, 600)
        large = np.linspace(0.0, 1.0, 4800)
        t0 = time.process_time()
        for k in range(REF_SMALL_LOOPS):
            z = np.exp(small - small[k % small.size])
            acc += float(np.cumsum(z[::-1])[-1] + z @ small)
        for k in range(REF_SORT_LOOPS):
            w = np.sort(np.abs(large - large[(7 * k) % large.size]))
            acc += float(np.searchsorted(w, 0.5) + w.sum())
        for k in range(REF_PY_LOOPS):
            acc += (k * 0.5) if k & 1 else -k
        return time.process_time() - t0
    a = np.linspace(0.0, 1.0, REF_VECTOR_SIZE)
    t0 = time.process_time()
    for k in range(REF_VECTOR_PASSES):
        b = np.exp(-a * (1.0 + k * 1e-3))
        acc += float(np.cumsum(b)[-1] + a @ b + np.sort(b[::7])[-1])
    return time.process_time() - t0


def user_seconds() -> float:
    """User CPU time of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def pin_blas_threads() -> int:
    """Run BLAS on one thread; returns the CPUs this process may use.

    Must run before numpy is imported. With two threads on a 2-core machine,
    fit-n4800 ran in 19-23 s but drifted by 15% between identical runs as the
    other core's load changed; on one thread it takes about 32 s and drifts
    about half as much.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None when not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "seed": seed,
    }


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def quartiles(values) -> tuple[float, float, float]:
    values = sorted(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(tracer, unit_roots, setup_roots, fit_s, roc_s) -> dict[str, float | None]:
    """Per-layer numbers: times and peaks are means over the traced units,
    counts come from the first traced unit so that they repeat
    exactly for a seed."""
    agg = tracer.per_root()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def layer(name, roots):
        return [agg[r].get(name, empty) for r in roots]

    def counter(name):
        return tracer.counters[unit_roots[0]].get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float | None] = {}
    for name in TIMED_LAYERS:
        vals = layer(name, setup_roots if name in SETUP_LAYERS else unit_roots)
        out[f"{name}.calls"] = vals[0]["calls"]
        out[f"{name}.s"] = mean(v["s"] for v in vals)
        out[f"{name}.self_s"] = mean(v["self_s"] for v in vals)
    first = unit_roots[0]
    newton_iters = counter("coxfit.newton.iterations")
    restarts = layer("em.restart", [first])[0]["calls"]
    built = counter("tdroc.ckm.rows_built")
    needed = counter("tdroc.ckm.rows_needed")
    out.update(
        {
            "coxfit.newton.iterations": newton_iters,
            "coxfit.newton.unconverged": counter("coxfit.newton.unconverged"),
            # each accepted Newton step is one iteration; every trial step
            # costs one partial-likelihood value
            "coxfit.linesearch.accept_ratio": ratio(newton_iters, out["coxfit.pl_value.calls"]),
            "coxfit.risksets.builds": layer("coxfit.risksets", [first])[0]["calls"],
            "em.context.builds": out["em.context.calls"],
            "em.context.peak_mb": mean(tracer.peaks[r].get("em.context", 0) for r in unit_roots) / 2**20,
            "em.restarts": restarts,
            "em.iterations": counter("em.iterations"),
            "em.restarts.converged_ratio": ratio(counter("em.restarts.converged"), restarts),
            "em.monotonicity_drops": counter("em.monotonicity_drops"),
            "tuning.grid_points": out["tuning.grid_point.calls"],
            "tdroc.ckm.builds": out["tdroc.ckm.calls"],
            "tdroc.ckm.peak_mb": mean(tracer.peaks[r].get("tdroc.ckm", 0) for r in unit_roots) / 2**20,
            "tdroc.ckm.rows_built": built,
            "tdroc.ckm.rows_needed": needed,
            "tdroc.ckm.useful_ratio": ratio(needed, built),
            "coxfit.newton.share_of_fit": ratio(out["coxfit.newton.s"], fit_s),
            "em.log_density.share_of_fit": ratio(out["em.log_density.s"], fit_s),
            "tdroc.ckm.share_of_roc": ratio(out["tdroc.ckm.s"], roc_s),
        }
    )
    missing_layers = {h.layer for h in HOOKS if h.target in tracer.missing}
    missing_layers |= set(tracer.missing_counters)
    for key in out:
        if any(key == m or key.startswith(m + ".") for m in missing_layers):
            out[key] = None
    return out


def stress_checks(workload: str, m: dict) -> list[tuple[str, bool]]:
    """What each workload claims to stress, read off the traced shares."""
    if workload == "tune-n600":
        share = m.get("coxfit.newton.share_of_fit") or 0.0
        return [(f"Newton is {share:.0%} of fit_s (claim: at least half)", share >= 0.5)]
    if workload == "fit-n4800":
        selfs = {k[: -len(".self_s")]: v for k, v in m.items() if k.endswith(".self_s") and v is not None}
        top = max(selfs, key=selfs.get) if selfs else "none"
        return [(f"largest self-time layer is {top} (claim: em.log_density)", top == "em.log_density")]
    share = m.get("tdroc.ckm.share_of_roc") or 0.0
    return [(f"tdroc.ckm is {share:.0%} of roc_s (claim: at least 90%)", share >= 0.9)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        # one fresh process per workload, so each peak RSS is its own
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rest += ["--tiny"] if args.tiny else []
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)

    src = ROOT / "src"
    if not (src / "coxmix" / "__init__.py").is_file():
        print(f"error: coxmix sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    nproc = pin_blas_threads()

    import_s = import_seconds(src)
    # loads numpy, so only once the BLAS threads are pinned
    import workloads

    # the library warns about objective drops and empty risk sets; those are
    # counted as failures where they matter, and would flood the output
    warnings.simplefilter("ignore")

    env = environment(args.seed, nproc)
    print("env " + json.dumps(env), flush=True)
    if env["blas_threads"] is not None and env["blas_threads"] != min(BLAS_THREADS, nproc):
        print(f"error: BLAS runs {env['blas_threads']} threads, expected {BLAS_THREADS}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(cls.TINY if args.tiny else cls.FULL, args.seed)
    tracer = Tracer() if args.trace else None
    problems: list[str] = []

    setup_times, setup_roots, setup_digests = [], [], []
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.install()
            with tracer.root("setup") as span:
                setup_digests.append(wl.setup())
            tracer.uninstall()
            setup_roots.append(span.idx)
            setup_times.append(span.seconds)
        else:
            t = time.perf_counter()
            setup_digests.append(wl.setup())
            setup_times.append(time.perf_counter() - t)
    if len(set(setup_digests)) != 1:
        problems.append("set-up is not deterministic: repeated set-ups gave different outputs")
    setup_raw_s = import_s + median(setup_times)

    units, walls, overheads, unit_roots, traced_units, steps, refs = [], [], [], [], [], [], []
    user_times = []
    planned = wl.sizes.units
    # reference calls at each boundary before, between and after the units
    ref_calls = -(-REF_SAMPLES // (planned + 1))
    if tracer is None:
        reference_seconds(wl.REFERENCE)  # warm-up, not kept
        refs += [reference_seconds(wl.REFERENCE) for _ in range(ref_calls)]
    cap = CAP_FACTOR * args.seconds * (2 if tracer is not None else 1)
    start = time.perf_counter()
    for i in range(planned):
        if steps and time.perf_counter() - start + median(steps) > cap:
            break
        step = time.perf_counter()
        inputs = wl.prepare(i)
        if tracer is None:
            t, cpu = time.perf_counter(), user_seconds()
            units.append(wl.unit(inputs))
            walls.append(time.perf_counter() - t)
            user_times.append(user_seconds() - cpu)
            refs += [reference_seconds(wl.REFERENCE) for _ in range(ref_calls)]
        else:
            pair = {}
            # alternate which copy runs first so warm caches favour neither
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    with tracer.root("unit") as span:
                        u = wl.unit(inputs)
                    tracer.uninstall()
                    unit_roots.append(span.idx)
                    traced_units.append(u)
                    pair[True] = (u, span.seconds)
                    walls.append(span.seconds)
                else:
                    t = time.perf_counter()
                    u = wl.unit(inputs)
                    pair[False] = (u, time.perf_counter() - t)
                    units.append(u)
            if pair[True][0].digest != pair[False][0].digest:
                problems.append(f"unit {i}: traced and plain runs gave different outputs")
            overheads.append(pair[True][1] - pair[False][1])
        steps.append(time.perf_counter() - step)
    elapsed = time.perf_counter() - start

    for u in units + traced_units:
        problems += u.problems
        for err in u.errors:
            print(f"failed operation: {err}", file=sys.stderr)
    if args.workload != "tune-n600" and len({u.digest for u in units}) != 1:
        problems.append("repeated units on the same input gave different outputs")
    problems += wl.run_checks(units)
    attempted = wl.setup_attempted + sum(u.attempted for u in units)
    failed = wl.setup_failed + sum(u.failed for u in units)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = units if tracer is None else traced_units
    wall_s = mean(walls)
    fit_s = mean(u.fit_s for u in timed)
    roc_s = mean(u.roc_s for u in timed)

    print(f"workload {args.workload}  seed {args.seed}  units {len(walls)} of {planned}  "
          f"measured {elapsed:.1f} s  trace {args.trace}")
    if len(walls) < planned:
        print(f"  cap: stopped after {len(walls)} of {planned} units at {CAP_FACTOR:g} x --seconds; "
              "figures cover fewer inputs than a full run")
    q1, q2, q3 = quartiles(walls)
    # a traced run's times are all traced ones, so they print only under trace.* names
    prefix = "" if tracer is None else "trace."
    print(f"  {prefix}wall_s per unit: mean {wall_s:.4f} s, median {q2:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, "
          f"n {len(walls)}")
    if tracer is None:
        ref_s = median(refs)
        print(f"  reference ({wl.REFERENCE}): median {ref_s:.4f} s over {len(refs)} timings, "
              f"range {min(refs):.4f} to {max(refs):.4f} s")
        # the wall time of set-up drifts with the machine's speed as much as
        # the units do, so it is reported at the speed where a reference
        # takes REF_NOMINAL_S
        setup_s = setup_raw_s * REF_NOMINAL_S / ref_s
        print(f"  set-up: median import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
              f"{median(setup_times):.4f} s = {setup_raw_s:.4f} s as measured, "
              f"{setup_s:.4f} s at the reference speed")
        readable = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "user_s": (mean(user_times), "s"),
            "cpu_per_ref": (mean(user_times) / ref_s, "ratio"),
            # left out where the workload does not run that layer
            "fit_s": (fit_s, "s") if fit_s else None,
            "roc_s": (roc_s, "s") if roc_s else None,
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "fail_ratio": (failed / attempted, "ratio"),
        }
        for name, val in readable.items():
            if val is not None:
                print(f"  {name:<12} {val[0]:.6g} {val[1]}")
    else:
        print(f"  fail_ratio {failed / attempted:.6g} ratio; peak RSS of the traced run {peak_rss_mb:.1f} MB")
    print(f"  operations: {attempted} attempted, {failed} failed")
    print(f"digest {workloads.sha([setup_digests[0]] + [u.digest for u in units])}")

    if tracer is None:
        metrics = {name: {"value": readable[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layer = layer_metrics(tracer, unit_roots, setup_roots, fit_s, roc_s)
        layer.update(
            {"trace.wall_s": wall_s, "trace.fit_s": fit_s, "trace.roc_s": roc_s, "trace.overhead_s": median(overheads)}
        )
        metrics = {}
        for name, unit in per_layer_units().items():
            value = layer[name]
            if value is None:
                metrics[name] = {"value": None, "unit": unit, "missing": True}
            else:
                metrics[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
        for name, m in metrics.items():
            shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:<34} {shown} {m['unit']}")
        for target in tracer.missing:
            print(f"missing hook: {target}")
        for hook_layer in tracer.missing_counters:
            print(f"missing counter source: {hook_layer}")
        for text, ok in stress_checks(args.workload, layer):
            print(f"stress check {'PASS' if ok else 'FAIL'}: {text}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")

    for p in dict.fromkeys(problems):
        print(f"check failed: {p} (x{problems.count(p)})")
    print("checks " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
