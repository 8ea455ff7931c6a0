import json

import numpy as np
import pytest

from coxmix.data import Dataset
from coxmix.em import MixtureParams

# verdict lines queued by the acceptance tests; printed after capture ends
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def simulate_single(n, p, beta, seed, censor_frac=0.0):
    """Exponential survival with hazard exp(beta.x); optional uniform censoring."""
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    lp = x @ np.asarray(beta, dtype=float)
    t = gen.standard_exponential(n) / np.exp(lp)
    if censor_frac > 0:
        c = gen.uniform(0, np.quantile(t, 1.0 - censor_frac) * 2.0, size=n)
        y = np.minimum(t, c)
        delta = (t <= c).astype(int)
        if delta.sum() == 0:
            delta[np.argmin(y)] = 1
    else:
        y = t
        delta = np.ones(n, dtype=int)
    return Dataset(y=y, delta=delta, x=x)


def stack_fits(pi, fits):
    """MixtureParams of `fit_weighted_cox` results fitted on one dataset with
    one kernel and bandwidth, so their baselines share a grid."""
    base = fits[0].baseline
    return MixtureParams(
        pi=np.asarray(pi, dtype=float),
        beta=[fit.beta for fit in fits],
        event_times=base.event_times,
        increments=[fit.baseline.increments for fit in fits],
        kernel=base.kernel,
        bandwidth=base.bandwidth,
    )


# ways to corrupt the JSON of a K = 2, p = 2 model: (edit of the parsed
# document, pattern the load error must match)
MALFORMED_MODELS = {
    "extra_increment_row": (
        lambda doc: doc["baseline"]["increments"].append(doc["baseline"]["increments"][0]), "increments"
    ),
    "missing_increment_row": (lambda doc: doc["baseline"]["increments"].pop(), "increments"),
    "ragged_beta": (lambda doc: doc["beta"][1].pop(), "beta"),
    "increment_width": (
        lambda doc: doc["baseline"].update(increments=[r[:-1] for r in doc["baseline"]["increments"]]),
        "increments",
    ),
    "K_mismatch": (lambda doc: doc.update(K=3), "K = 3"),
}


def malformed_model_text(text, case):
    doc = json.loads(text)
    MALFORMED_MODELS[case][0](doc)
    return json.dumps(doc)


@pytest.fixture
def small_data():
    y = np.array([2.0, 1.0, 3.0, 1.5, 2.5])
    delta = np.array([1, 1, 0, 1, 1])
    x = np.array([[0.5, -1.0], [-0.2, 0.3], [1.1, 0.4], [0.0, -0.7], [-0.9, 1.2]])
    return Dataset(y=y, delta=delta, x=x)


@pytest.fixture
def serial_pool():
    """A ProcessPoolExecutor stand-in that records each max_workers and maps in-process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    SerialPool.sizes = sizes
    return SerialPool
