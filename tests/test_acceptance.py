"""End-to-end acceptance checks, one test per numbered criterion.

Each test queues a single pass/fail verdict line; the lines print in an
"acceptance criteria" section after the run, past pytest's output
capture. Criteria 5 and 6 run the full 100-replication Monte-Carlo
studies and take a couple of minutes each; everything else runs in
seconds.
"""

import math
import os
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize

from coxmix.coxfit import (
    partial_loglik_gradient,
    partial_loglik_hessian,
    weighted_partial_loglik,
)
from coxmix.data import Dataset, load_dataset
from coxmix.em import EMConfig, fit_mixture, model_to_json, monotonicity_failures
from coxmix.penalties import PenaltySpec, lla_coefficient, penalty_derivative, penalty_value
from coxmix.simgen import SimConfig, generate_dataset, run_study
from coxmix.tdroc import auc, censoring_weights, compute_marker, conditional_survival, roc_curve
from coxmix.tuning import select_tuning

from conftest import ACCEPTANCE_LINES, simulate_single


def report(num, verdict, detail):
    if not isinstance(verdict, str):
        verdict = "PASS" if verdict else "FAIL"
    line = f"criterion {num}: {verdict} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def breslow_partial_loglik(y, delta, x, beta):
    """Independent brute-force Cox partial log-likelihood with Breslow risk sets."""
    risk = np.exp(x @ beta)
    ll = 0.0
    for i in range(len(y)):
        if delta[i] != 1:
            continue
        ll += float(x[i] @ beta) - math.log(float(risk[y >= y[i]].sum()))
    return ll


def plain_kaplan_meier(y, delta, t):
    """Independent unconditional Kaplan-Meier survival at t."""
    s = 1.0
    for u in sorted(set(y[delta == 1])):
        if u > t:
            break
        d = int(np.sum((y == u) & (delta == 1)))
        r = int(np.sum(y >= u))
        s *= 1.0 - d / r
    return s


def test_criterion_1_single_component_oracle():
    start = time.perf_counter()
    cfg = SimConfig(
        n=200, pi_true=(1.0,), beta_true=((0.8, -0.5),), censor_target=0.05, seed=314
    )
    data, _ = generate_dataset(cfg, np.random.default_rng(314))
    model = fit_mixture(
        data, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1, seed=1)
    )
    beta_hat = model.params.beta[0]

    res = minimize(
        lambda b: -breslow_partial_loglik(data.y, data.delta, data.x, b),
        np.zeros(2),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 5000},
    )
    elapsed = time.perf_counter() - start
    gap = float(np.max(np.abs(beta_hat - res.x)))
    ok = res.success and gap <= 1e-6 and elapsed < 5.0
    report(1, ok, f"max |beta - oracle| = {gap:.2e} (tol 1e-6), {elapsed:.1f} s")
    assert res.success
    assert gap <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_gradient_hessian_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    h = 1e-5
    worst_g = 0.0
    worst_h = 0.0
    for trial in range(50):
        n = int(rng.integers(5, 31))
        p = int(rng.integers(1, 4))
        y = rng.exponential(1.0, size=n)
        if trial % 3 == 0:
            y = np.round(y, 1) + 0.05  # force ties
        delta = (rng.uniform(size=n) < 0.7).astype(float)
        if delta.sum() == 0:
            delta[0] = 1.0
        x = rng.normal(size=(n, p))
        w = rng.uniform(0.1, 1.0, size=n)
        beta = rng.normal(scale=0.5, size=p)
        data = Dataset(y=y, delta=delta, x=x)

        grad = partial_loglik_gradient(data, w, beta)
        hess = partial_loglik_hessian(data, w, beta)
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd_g = (
                weighted_partial_loglik(data, w, beta + e)
                - weighted_partial_loglik(data, w, beta - e)
            ) / (2 * h)
            rel = abs(grad[j] - fd_g) / max(1.0, abs(grad[j]))
            worst_g = max(worst_g, rel)
            fd_h_col = (
                partial_loglik_gradient(data, w, beta + e)
                - partial_loglik_gradient(data, w, beta - e)
            ) / (2 * h)
            for i in range(p):
                rel = abs(hess[i, j] - fd_h_col[i]) / max(1.0, abs(hess[i, j]))
                worst_h = max(worst_h, rel)
    elapsed = time.perf_counter() - start
    ok = worst_g < 1e-5 and worst_h < 1e-5 and elapsed < 10.0
    report(
        2, ok,
        f"50 instances, worst rel err gradient {worst_g:.2e}, hessian {worst_h:.2e} "
        f"(tol 1e-5), {elapsed:.1f} s",
    )
    assert worst_g < 1e-5
    assert worst_h < 1e-5
    assert elapsed < 10.0


def test_criterion_3_penalty_knot_continuity_and_quadrature():
    cases = [
        (PenaltySpec(kind="scad", level=0.1, shape=3.7), (0.1, 0.37), 0.6),
        (PenaltySpec(kind="scad", level=0.2, shape=3.0), (0.2, 0.6), 0.9),
        (PenaltySpec(kind="mcp", level=0.15, shape=3.0), (0.45,), 0.7),
        (PenaltySpec(kind="mcp", level=0.1, shape=2.5), (0.25,), 0.5),
    ]
    worst_knot = 0.0
    worst_quad = 0.0
    for spec, knots, hi in cases:
        for knot in knots:
            lo_pt = np.nextafter(knot, 0.0)
            hi_pt = np.nextafter(knot, 1.0)
            worst_knot = max(
                worst_knot,
                abs(penalty_value(spec, hi_pt) - penalty_value(spec, lo_pt)),
                abs(penalty_derivative(spec, hi_pt) - penalty_derivative(spec, lo_pt)),
            )
        grid = np.linspace(0.0, hi, 1000)
        inner = [k for k in knots if k < hi]
        for xval in grid:
            integral, _ = quad(
                lambda u: penalty_derivative(spec, u), 0.0, float(xval),
                points=[k for k in inner if k < xval] or None, limit=200,
            )
            worst_quad = max(worst_quad, abs(penalty_value(spec, float(xval)) - integral))
    ok = worst_knot <= 1e-12 and worst_quad <= 1e-8
    report(
        3, ok,
        f"worst knot jump {worst_knot:.2e} (tol 1e-12), "
        f"worst value-vs-integral gap {worst_quad:.2e} (tol 1e-8)",
    )
    assert worst_knot <= 1e-12
    assert worst_quad <= 1e-8


def test_criterion_4_pi_update_against_constrained_optimizer():
    from coxmix.em import update_mixing_proportions

    rng = np.random.default_rng(424242)
    kinds = ("scad", "mcp", "ls")
    worst = 0.0
    for trial in range(20):
        K = int(rng.integers(2, 5))
        n = int(rng.integers(10, 41))
        S = rng.dirichlet(np.ones(K), size=n)
        pi_prev = rng.dirichlet(np.ones(K))
        kind = kinds[trial % 3]
        shape = {"scad": 3.7, "mcp": 3.0, "ls": None}[kind]
        spec = PenaltySpec(kind=kind, level=float(rng.uniform(0.02, 0.3)), shape=shape)

        got = update_mixing_proportions(S, pi_prev, spec)

        g = np.array([lla_coefficient(spec, float(v)) for v in pi_prev])
        colsum = S.sum(axis=0)

        def objective(pi):
            return -(np.sum(colsum * np.log(pi)) - n * spec.level * np.sum(g * pi))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SLSQP clips iterates to bounds
            res = minimize(
                objective,
                np.full(K, 1.0 / K),
                method="SLSQP",
                bounds=[(1e-10, 1.0)] * K,
                constraints=[{"type": "eq", "fun": lambda pi: pi.sum() - 1.0}],
                options={"ftol": 1e-14, "maxiter": 1000},
            )
        assert res.success
        worst = max(worst, float(np.max(np.abs(got - res.x))))
    ok = worst <= 1e-6
    report(4, ok, f"20 instances, worst per-coordinate gap {worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6


def _study_cells(result, kind):
    pi1 = next(
        r for r in result.rows
        if r.penalty == kind and r.component == 1 and r.parameter == "pi"
    )
    betas = [
        r for r in result.rows
        if r.penalty == kind and r.parameter.startswith("beta")
    ]
    return pi1, betas


@pytest.mark.slow
def test_criterion_5_scad_selection_bias_study():
    start = time.perf_counter()
    cfg = SimConfig(n=600, censor_target=0.05, seed=2026)
    em = EMConfig(k_init=10, max_iterations=400, restarts=2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_study(
            cfg, replications=100, kinds=("scad",), em_config=em,
            c_grid=np.array([0.6, 0.8]), cn_constant=2.0, workers=1,
        )
    elapsed = time.perf_counter() - start
    pi1, betas = _study_cells(result, "scad")
    beta_worst = max(abs(r.bias) for r in betas)
    ok = (
        abs(pi1.bias) <= 0.01
        and 0.008 <= pi1.sd <= 0.03
        and beta_worst <= 0.05
        and pi1.k_correct_fraction >= 0.80
    )
    report(
        5, ok,
        f"bias(pi1) = {pi1.bias:+.5f} (tol 0.01), SD = {pi1.sd:.5f} (in [0.008, 0.03]), "
        f"max |beta bias| = {beta_worst:.5f} (tol 0.05), "
        f"K correct in {pi1.k_correct_fraction:.0%} (need 80%), {elapsed:.0f} s",
    )
    assert abs(pi1.bias) <= 0.01
    assert 0.008 <= pi1.sd <= 0.03
    assert beta_worst <= 0.05
    assert pi1.k_correct_fraction >= 0.80


@pytest.mark.slow
def test_criterion_6_mcp_censored_bias_study():
    start = time.perf_counter()
    cfg = SimConfig(n=600, censor_target=0.25, seed=4061)
    em = EMConfig(k_init=10, max_iterations=400, restarts=2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_study(
            cfg, replications=100, kinds=("mcp",), em_config=em,
            c_grid=np.array([0.6, 0.8]), cn_constant=2.0, workers=1,
        )
    elapsed = time.perf_counter() - start
    pi1, _ = _study_cells(result, "mcp")
    ok = abs(pi1.bias) <= 0.01 and 0.008 <= pi1.sd <= 0.03
    report(
        6, ok,
        f"bias(pi1) = {pi1.bias:+.5f} (tol 0.01), SD = {pi1.sd:.5f} "
        f"(in [0.008, 0.03]), {elapsed:.0f} s",
    )
    assert abs(pi1.bias) <= 0.01
    assert 0.008 <= pi1.sd <= 0.03


def test_criterion_7_tdroc_properties():
    # (a) perfect marker, no censoring
    rng = np.random.default_rng(777)
    y = rng.exponential(1.0, size=200)
    data = Dataset(y=y, delta=np.ones(200), x=np.zeros((200, 1)))
    t = float(np.median(y))
    marker = -y  # earlier events score strictly higher
    w = censoring_weights(marker, data, t)
    auc_perfect = auc(roc_curve(marker, w))
    gap_a = abs(auc_perfect - 1.0)

    # (b) marker independent of survival
    big = simulate_single(2000, 1, [0.0], seed=778, censor_frac=0.2)
    t_b = float(np.median(big.y))
    noise = np.random.default_rng(779).normal(size=2000)
    w_b = censoring_weights(noise, big, t_b)
    auc_null = auc(roc_curve(noise, w_b))

    # (c) infinite marker bandwidth collapses to the ordinary Kaplan-Meier
    cens = simulate_single(300, 1, [0.7], seed=780, censor_frac=0.3)
    markers_c = np.random.default_rng(781).normal(size=300)
    gap_c = 0.0
    for q in (0.25, 0.5, 0.75):
        tq = float(np.quantile(cens.y, q))
        got = conditional_survival(markers_c, cens, tq, bandwidth=np.inf)
        km = plain_kaplan_meier(cens.y, cens.delta, tq)
        gap_c = max(gap_c, float(np.max(np.abs(got - km))))

    # (d) strictly increasing marker transforms; with no censoring before t
    # the weights are indicators, so the AUC depends only on the ranking
    m0 = np.random.default_rng(782).normal(size=200)
    w_d = censoring_weights(m0, data, t)
    base = auc(roc_curve(m0, w_d))
    gap_d = 0.0
    for transform in (np.exp, lambda v: 3.0 * v + 7.0, lambda v: v**3):
        gap_d = max(gap_d, abs(auc(roc_curve(transform(m0), w_d)) - base))

    ok = gap_a <= 1e-12 and 0.45 <= auc_null <= 0.55 and gap_c <= 1e-12 and gap_d <= 1e-12
    report(
        7, ok,
        f"perfect-marker AUC gap {gap_a:.1e}, null AUC {auc_null:.3f} (in [0.45, 0.55]), "
        f"KM gap {gap_c:.1e}, transform gap {gap_d:.1e} (tols 1e-12)",
    )
    assert gap_a <= 1e-12
    assert 0.45 <= auc_null <= 0.55
    assert gap_c <= 1e-12
    assert gap_d <= 1e-12


def test_criterion_8_em_invariants_and_reproducibility():
    # ten seeded unpenalized runs on mixture data; pruning disabled so the
    # logged objective is the plain observed log-likelihood throughout
    spec = PenaltySpec(kind="scad", level=0.0, prune_threshold=1e-6)
    worst_row = 0.0
    worst_pi = 0.0
    runs_with_drops = 0
    total_drops = 0
    largest_drop = 0.0
    for i in range(10):
        cfg = SimConfig(n=150, censor_target=0.0, seed=100 + i)
        data, _ = generate_dataset(cfg, np.random.default_rng(100 + i))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_mixture(
                data, spec, EMConfig(k_init=3, max_iterations=200, restarts=1, seed=i)
            )
        diag = model.diagnostics
        worst_row = max(worst_row, diag["responsibility_row_max_dev"])
        worst_pi = max(worst_pi, diag["pi_sum_max_dev"])
        # the logged failures must agree with an independent scan of the history
        h = model.history
        recomputed = [
            (j, h[j] - h[j - 1])
            for j in range(1, len(h))
            if h[j] - h[j - 1] < -1e-8 * (1.0 + abs(h[j]))
        ]
        assert diag["monotonicity_failures"] == recomputed
        assert monotonicity_failures(h) == recomputed
        if recomputed:
            runs_with_drops += 1
            total_drops += len(recomputed)
            largest_drop = min(largest_drop, min(d for _, d in recomputed))

    # fixed-seed bit-reproducibility: identical serialized models twice over
    data = simulate_single(100, 2, [0.7, -0.6], seed=881, censor_frac=0.1)
    em = EMConfig(k_init=3, max_iterations=150, restarts=2, seed=17)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        j1 = model_to_json(fit_mixture(data, PenaltySpec(kind="scad", level=0.05), em))
        j2 = model_to_json(fit_mixture(data, PenaltySpec(kind="scad", level=0.05), em))
    same_reruns = j1 == j2

    # worker count must not leak into tuning results
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep1 = select_tuning(
            data, "scad", c_grid=[0.4, 0.8],
            config=EMConfig(k_init=3, max_iterations=150, restarts=1, seed=9), workers=1,
        )
        rep4 = select_tuning(
            data, "scad", c_grid=[0.4, 0.8],
            config=EMConfig(k_init=3, max_iterations=150, restarts=1, seed=9), workers=4,
        )
    same_workers = rep1.rows == rep4.rows and model_to_json(rep1.best_model) == model_to_json(
        rep4.best_model
    )

    ok = worst_row <= 1e-10 and worst_pi <= 1e-10 and same_reruns and same_workers
    report(
        8, ok,
        f"simplex deviations {max(worst_row, worst_pi):.1e} (tol 1e-10); soft monotonicity: "
        f"{runs_with_drops}/10 runs logged {total_drops} drops beyond 1e-8*(1+|l|) "
        f"(largest {largest_drop:.2e}), all logged faithfully; bit-identical reruns: "
        f"{same_reruns}; workers 1 vs 4 identical: {same_workers}",
    )
    assert worst_row <= 1e-10
    assert worst_pi <= 1e-10
    assert same_reruns
    assert same_workers


def _gbsg_paths():
    train = os.environ.get("COXMIX_GBSG_TRAIN")
    test = os.environ.get("COXMIX_GBSG_TEST")
    if train and test and os.path.exists(train) and os.path.exists(test):
        return train, test
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    train = os.path.join(here, "data", "gbsg_train.csv")
    test = os.path.join(here, "data", "gbsg_test.csv")
    if os.path.exists(train) and os.path.exists(test):
        return train, test
    return None


def test_criterion_9_gbsg_auc_reproduction():
    paths = _gbsg_paths()
    if paths is None:
        report(9, "SKIP", "GBSG train/test CSVs not present "
                          "(set COXMIX_GBSG_TRAIN / COXMIX_GBSG_TEST)")
        pytest.skip("GBSG data files not available")
    train_path, test_path = paths
    train = load_dataset(train_path)
    test = load_dataset(test_path)
    horizon = 18.0  # months

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tuned = select_tuning(
            train, "scad", config=EMConfig(seed=0), cn_constant=2.0, workers=1
        )
        mixture = tuned.best_model
        single = fit_mixture(
            train, PenaltySpec(kind="scad", level=0.0), EMConfig(k_init=1, restarts=1, seed=0)
        )

    m_mix = compute_marker(mixture, test, "mixture_event_prob", t=horizon)
    w_mix = censoring_weights(m_mix, test, horizon)
    auc_mix = auc(roc_curve(m_mix, w_mix))

    m_cox = compute_marker(single, test, "cox_linear_predictor")
    w_cox = censoring_weights(m_cox, test, horizon)
    auc_cox = auc(roc_curve(m_cox, w_cox))

    ok = abs(auc_mix - 0.721) <= 0.03 and abs(auc_cox - 0.684) <= 0.02
    report(
        9, ok,
        f"mixture AUC(18m) = {auc_mix:.3f} (target 0.721 +/- 0.03), "
        f"single Cox AUC = {auc_cox:.3f} (target 0.684 +/- 0.02), K_hat = {mixture.params.K}",
    )
    assert abs(auc_mix - 0.721) <= 0.03
    assert abs(auc_cox - 0.684) <= 0.02
