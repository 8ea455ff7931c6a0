"""The benchmark's tracer (bench/tracer.py) wraps coxmix functions and methods
by name. A rename or a changed return shape makes it report the hook missing
instead of failing, so these tests load the tracer as it is and check that
every hook still finds its target and every counter still reads its result.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

from coxmix import em
from coxmix.em import EMConfig, fit_mixture
from coxmix.penalties import PenaltySpec

from conftest import simulate_single

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_hook_finds_its_target_and_reads_its_result(tracer_module):
    data = simulate_single(60, 2, [0.8, -0.5], seed=5, censor_frac=0.2)
    originals = (em._run_em, em._softmax_rows, em._FitContext.log_density)
    tracer = tracer_module.Tracer()
    try:
        tracer.install(tracer_module.HOOKS)
        with tracer.root("fit"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_mixture(data, PenaltySpec("scad", 0.05), EMConfig(k_init=2, max_iterations=10, restarts=1))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.missing_counters == []
    assert (em._run_em, em._softmax_rows, em._FitContext.log_density) == originals
    layers = {name for name, *_ in tracer.spans}
    assert {"em.restart", "em.estep", "em.log_density", "em.pi_update", "coxfit.newton"} <= layers
