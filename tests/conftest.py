import json

import numpy as np
import pytest

from coxmix.coxfit import default_time_bandwidth
from coxmix.data import Dataset
from coxmix.em import _FitContext
from coxmix.simgen import SimConfig, generate_dataset

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


def stack_fits(data, pi, weights):
    """MixtureParams of one weighted Cox fit of `data` per weight vector, each
    from beta = 0, on the data's event-time grid with the Gaussian kernel and
    the rule-of-thumb bandwidth."""
    ctx = _FitContext(data, "gaussian", default_time_bandwidth(data.y))

    def fit(w):
        w_r = np.asarray(w, dtype=float).take(ctx.rs.rev)
        beta = ctx.fit_coefficients(w_r, np.zeros(data.p))
        return beta, ctx.increments(w_r, beta)

    betas, incs = zip(*(fit(w) for w in weights))
    return ctx.mixture(np.asarray(pi, dtype=float), np.array(betas), np.array(incs))


def real_data_shape_set():
    """The shape of the GBSG analysis (n = 686, p = 7, about 55% censoring,
    heavily tied times): two components, with every time moved up to the
    next of 60 quantiles of the times."""
    cell = SimConfig(
        686, pi_true=(0.4, 0.6),
        beta_true=((-1, -0.5, 0, 0.5, 0, 0, 0.3), (1, 0.5, 0, -0.5, 0, 0.2, 0)),
        censor_target=0.55, seed=7,
    )
    raw, _ = generate_dataset(cell, np.random.default_rng(3))
    knots = np.quantile(raw.y, np.arange(1, 61) / 60)
    return Dataset(y=knots[np.searchsorted(knots, raw.y)], delta=raw.delta, x=raw.x)


def _drop(name):
    return lambda doc: {key: value for key, value in doc.items() if key != name}


def _put(name, value):
    return lambda doc: {**doc, name: value}


def _edit_increments(edit):
    def corrupt(doc):
        return {**doc, "baseline": {**doc["baseline"], "increments": edit(doc["baseline"]["increments"])}}

    return corrupt


# ways to corrupt the JSON of a K = 2, p = 2 model: (parsed document ->
# corrupted document, pattern the load error must match)
MALFORMED_MODELS = {
    "extra_increment_row": (_edit_increments(lambda inc: inc + inc[:1]), "increments"),
    "missing_increment_row": (_edit_increments(lambda inc: inc[:-1]), "increments"),
    "ragged_beta": (lambda doc: {**doc, "beta": [doc["beta"][0], doc["beta"][1][:-1]]}, "beta"),
    "increment_width": (_edit_increments(lambda inc: [row[:-1] for row in inc]), "increments"),
    "K_mismatch": (_put("K", 3), "K = 3"),
    # K and seed pass the one count-and-seed check, with no truncation
    "K_fractional": (_put("K", 1.5), "'K' is malformed: K must be an integer"),
    "K_whole_float": (_put("K", 2.0), "'K' is malformed: K must be an integer"),
    "K_zero": (_put("K", 0), "'K' is malformed: K must be at least 1"),
    "K_true": (_put("K", True), "'K' is malformed: K must be an integer"),
    "K_false": (_put("K", False), "'K' is malformed: K must be an integer"),
    "seed_fractional": (_put("seed", 7.9), "'seed' is malformed: seed must be an integer"),
    "seed_true": (_put("seed", True), "'seed' is malformed: seed must be an integer"),
    "seed_false": (_put("seed", False), "'seed' is malformed: seed must be an integer"),
    "seed_string": (_put("seed", "7"), "'seed' is malformed: seed must be an integer"),
    "seed_negative": (_put("seed", -3), r"'seed' is malformed: seed must lie in \[0, 18446744073709551616\)"),
    "seed_too_large": (_put("seed", 2**64), r"'seed' is malformed: seed must lie in \["),
    **{
        f"missing_{name}": (_drop(name), f"no '{name}' field")
        for name in ("history", "seed", "penalty", "level", "epsilon", "baseline", "pi", "K")
    },
    "history_not_a_list": (_put("history", 5), "'history' is malformed"),
    "baseline_not_an_object": (_put("baseline", [1]), "'baseline' is malformed"),
    "top_level_list": (lambda doc: [doc], "must be an object"),
}


def malformed_model_text(text, case):
    return json.dumps(MALFORMED_MODELS[case][0](json.loads(text)))


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
