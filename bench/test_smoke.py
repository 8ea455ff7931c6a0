"""Smoke test of the benchmark: every workload at tiny sizes, plain and traced.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q

It checks that each run passes its output checks, that the last line names
every metric of BENCHMARK.json with its unit, that the readable lines show
the six end-to-end figures that apply, and that two runs with the same seed
give the same output digest.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# which of the six readable figures each workload has; fit_s and roc_s are
# left out where the workload does not run that layer
SIX = {
    "tune-n600": ("setup_s", "wall_s", "fit_s", "roc_s", "peak_rss_mb", "fail_ratio"),
    "fit-n4800": ("setup_s", "wall_s", "fit_s", "peak_rss_mb", "fail_ratio"),
    "score-n4800-c25": ("setup_s", "wall_s", "roc_s", "peak_rss_mb", "fail_ratio"),
}


def run(workload: str, trace: int, seed: int = 5) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "30", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest(lines: list[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("digest "))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_prints_end_to_end_metrics(workload):
    lines, result = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] > 0
    shown = {m.group(1) for m in (re.match(r"  (\w+) +\S+ (\S+)$", line) for line in lines) if m}
    assert set(SIX[workload]) <= shown
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    assert env["seed"] == 5
    assert env["blas_threads"] is None or env["blas_threads"] <= env["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    _, result = run(workload, trace=1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert m["value"] is not None, f"{name} is missing"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(workload):
    first, _ = run(workload, trace=0, seed=11)
    second, _ = run(workload, trace=0, seed=11)
    assert digest(first) == digest(second)


def test_missing_hook_is_reported_not_fatal():
    sys.path.insert(0, str(ROOT / "bench"))
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Hook, Tracer

    tracer = Tracer()
    tracer.install([Hook("gone", "coxmix.coxfit:_no_such_function"),
                    Hook("gone.method", "coxmix.em:_NoSuchClass.method")])
    tracer.uninstall()
    assert tracer.missing == ["coxmix.coxfit:_no_such_function", "coxmix.em:_NoSuchClass.method"]
