import numpy as np
import pytest

from coxmix.data import Dataset

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
