import math
import warnings

import numpy as np
import pytest

from coxmix.em import EMConfig
from coxmix.simgen import (
    SimConfig,
    StudyResult,
    StudyRow,
    ar1_covariates,
    calibrate_censoring,
    generate_dataset,
    run_study,
    study_to_csv,
)
from coxmix.simgen import _align_to_truth


SINGLE_NULL = dict(pi_true=(1.0,), beta_true=((0.0,),))


class TestSimConfig:
    def test_defaults_describe_two_groups(self):
        cfg = SimConfig(n=100)
        assert cfg.K == 2
        assert cfg.p == 2
        assert cfg.pi_true == pytest.approx((1.0 / 3.0, 2.0 / 3.0))
        assert cfg.beta_true == ((-3.0, -2.0), (1.0, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=0)
        with pytest.raises(ValueError, match="simplex"):
            SimConfig(n=10, pi_true=(0.5, 0.6))
        with pytest.raises(ValueError, match="per component"):
            SimConfig(n=10, pi_true=(0.5, 0.5), beta_true=((1.0,),))
        with pytest.raises(ValueError, match="common positive length"):
            SimConfig(n=10, pi_true=(0.5, 0.5), beta_true=((1.0,), (1.0, 2.0)))
        with pytest.raises(ValueError, match="rho"):
            SimConfig(n=10, ar1_rho=1.0)
        with pytest.raises(ValueError):
            SimConfig(n=10, censor_target=1.0)
        with pytest.raises(ValueError):
            SimConfig(n=10, seed=-1)


class TestAr1Covariates:
    def test_shape_and_moments(self):
        rng = np.random.default_rng(11)
        x = ar1_covariates(60_000, 3, 0.5, rng)
        assert x.shape == (60_000, 3)
        assert np.allclose(x.mean(axis=0), 0.0, atol=0.02)
        assert np.allclose(x.var(axis=0, ddof=1), 1.0, atol=0.03)
        corr = np.corrcoef(x, rowvar=False)
        assert corr[0, 1] == pytest.approx(0.5, abs=0.02)
        assert corr[1, 2] == pytest.approx(0.5, abs=0.02)
        assert corr[0, 2] == pytest.approx(0.25, abs=0.02)

    def test_independent_when_rho_zero(self):
        rng = np.random.default_rng(13)
        x = ar1_covariates(40_000, 2, 0.0, rng)
        corr = np.corrcoef(x, rowvar=False)
        assert corr[0, 1] == pytest.approx(0.0, abs=0.02)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            ar1_covariates(10, 2, -1.0, np.random.default_rng(0))


class TestGeneratingLaw:
    def test_stream_identity_and_inversion(self):
        cfg = SimConfig(n=500, censor_target=0.0, seed=17)
        data, labels = generate_dataset(cfg, np.random.default_rng(17))

        # replay the documented draw order on an identically seeded stream
        rng = np.random.default_rng(17)
        pvals = np.asarray(cfg.pi_true)
        labels2 = rng.choice(cfg.K, size=cfg.n, p=pvals / pvals.sum())
        x2 = ar1_covariates(cfg.n, cfg.p, cfg.ar1_rho, rng)
        e2 = rng.standard_exponential(cfg.n)
        assert np.array_equal(labels, labels2)
        assert np.array_equal(data.x, x2)

        # the recorded times invert to the exponential draws under
        # Lambda0(t) = 2(exp(4t) - 1) and relative risk exp(beta.x)
        beta = np.asarray(cfg.beta_true)
        lp = np.einsum("ij,ij->i", x2, beta[labels2])
        assert np.allclose(2.0 * np.expm1(4.0 * data.y) * np.exp(lp), e2, rtol=1e-12)

    def test_uncensored_dataset_fields(self):
        cfg = SimConfig(n=200, censor_target=0.0, seed=19)
        data, labels = generate_dataset(cfg, np.random.default_rng(19))
        assert data.n == 200
        assert np.all(data.delta == 1)
        assert np.all(data.y > 0)
        assert labels.shape == (200,)
        assert set(np.unique(labels)) <= {0, 1}

    def test_label_frequencies_match_pi(self):
        cfg = SimConfig(n=30_000, censor_target=0.0, seed=23)
        _, labels = generate_dataset(cfg, np.random.default_rng(23))
        assert np.mean(labels == 0) == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_null_model_survival_curve(self):
        # with beta = 0 the survival law is exp(-2(exp(4t) - 1)); at
        # t = log(2)/4 = 0.17328679513998632 the cumulative hazard is exactly 2
        cfg = SimConfig(n=20_000, censor_target=0.0, seed=29, **SINGLE_NULL)
        data, _ = generate_dataset(cfg, np.random.default_rng(29))
        for t in (0.05, 0.1, 0.17328679513998632):
            expected = math.exp(-2.0 * (math.exp(4.0 * t) - 1.0))
            assert np.mean(data.y > t) == pytest.approx(expected, abs=0.02)

    def test_reproducible_and_seed_sensitive(self):
        cfg = SimConfig(n=50, censor_target=0.0, seed=31)
        a, la = generate_dataset(cfg, np.random.default_rng(7))
        b, lb = generate_dataset(cfg, np.random.default_rng(7))
        c, _ = generate_dataset(cfg, np.random.default_rng(8))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(la, lb)
        assert not np.array_equal(a.y, c.y)


class TestCensoringCalibration:
    def test_realized_fraction_near_target(self):
        cfg = SimConfig(n=20_000, censor_target=0.25, seed=37)
        data, _ = generate_dataset(cfg, np.random.default_rng(37))
        realized = 1.0 - data.delta.mean()
        assert realized == pytest.approx(0.25, abs=0.02)

    def test_light_censoring(self):
        cfg = SimConfig(n=20_000, censor_target=0.05, seed=41)
        data, _ = generate_dataset(cfg, np.random.default_rng(41))
        assert 1.0 - data.delta.mean() == pytest.approx(0.05, abs=0.015)

    def test_heavier_target_needs_smaller_bound(self):
        light = SimConfig(n=100, censor_target=0.05, seed=43)
        heavy = SimConfig(n=100, censor_target=0.40, seed=43)
        c_light = calibrate_censoring(light, np.random.default_rng(43), pilot_size=50_000)
        c_heavy = calibrate_censoring(heavy, np.random.default_rng(43), pilot_size=50_000)
        assert c_heavy < c_light

    def test_precomputed_bound_reused(self):
        cfg = SimConfig(n=2_000, censor_target=0.2, seed=47)
        upper = calibrate_censoring(cfg, np.random.default_rng(47))
        data, _ = generate_dataset(cfg, np.random.default_rng(48), censor_upper=upper)
        assert 1.0 - data.delta.mean() == pytest.approx(0.2, abs=0.04)
        assert np.all(data.y <= upper + 1e-12)
        assert np.any(data.delta == 0)

    def test_zero_target_rejected(self):
        cfg = SimConfig(n=100, censor_target=0.0)
        with pytest.raises(ValueError, match="strictly inside"):
            calibrate_censoring(cfg, np.random.default_rng(0))


class TestAlignment:
    def test_permutation_recovered(self):
        truth = ((-3.0, -2.0), (1.0, 1.0))
        pi, beta = _align_to_truth((0.7, 0.3), ((0.9, 1.1), (-2.8, -2.1)), truth)
        assert pi == (0.3, 0.7)
        assert beta == ((-2.8, -2.1), (0.9, 1.1))

    def test_identity_when_already_aligned(self):
        truth = ((-3.0, -2.0), (1.0, 1.0))
        pi, beta = _align_to_truth((0.4, 0.6), ((-3.1, -1.9), (1.2, 0.8)), truth)
        assert pi == (0.4, 0.6)
        assert beta == ((-3.1, -1.9), (1.2, 0.8))


@pytest.fixture(scope="module")
def tiny_study():
    cfg = SimConfig(n=120, censor_target=0.0, seed=53)
    em = EMConfig(k_init=3, max_iterations=120, restarts=1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_study(
            cfg, replications=2, kinds=("scad",), em_config=em, c_grid=[0.8], workers=1
        )
    return cfg, em, result


class TestRunStudy:
    def test_table_shape(self, tiny_study):
        cfg, _, result = tiny_study
        # one row per component and parameter: K * (1 + p)
        assert len(result.rows) == cfg.K * (1 + cfg.p)
        assert result.replications == 2
        assert set(result.failures) == {"scad"}
        params = [(r.component, r.parameter) for r in result.rows]
        assert params == [
            (1, "pi"), (1, "beta1"), (1, "beta2"),
            (2, "pi"), (2, "beta1"), (2, "beta2"),
        ]
        for row in result.rows:
            assert row.penalty == "scad"
            assert row.n == 120
            assert row.censor_target == 0.0
            assert 0.0 <= row.k_correct_fraction <= 1.0

    def test_worker_count_invariant(self, tiny_study):
        cfg, em, serial = tiny_study
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parallel = run_study(
                cfg, replications=2, kinds=("scad",), em_config=em, c_grid=[0.8], workers=2
            )
        # NaN cells defeat dataclass equality; the 17-digit CSV text is exact
        assert study_to_csv(parallel) == study_to_csv(serial)
        assert parallel.k_hat_counts == serial.k_hat_counts
        assert parallel.failures == serial.failures

    def test_pool_never_exceeds_replications(self, tiny_study, monkeypatch, serial_pool):
        import coxmix.tuning as tuning_mod

        cfg, em, serial = tiny_study
        monkeypatch.setattr(tuning_mod, "ProcessPoolExecutor", serial_pool)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pooled = run_study(
                cfg, replications=2, kinds=("scad",), em_config=em, c_grid=[0.8], workers=500
            )
        assert serial_pool.sizes == [2]
        assert study_to_csv(pooled) == study_to_csv(serial)

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            run_study(SimConfig(n=50), replications=1, workers=0)

    def test_replication_count_validated(self):
        with pytest.raises(ValueError):
            run_study(SimConfig(n=50), replications=0)

    def test_csv_layout(self, tiny_study):
        _, _, result = tiny_study
        text = study_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "penalty,n,censor_target,component,parameter,bias,sd,"
            "replications_used,K_hat_mode,K_correct_fraction"
        )
        assert len(lines) == 1 + len(result.rows)
        first = lines[1].split(",")
        assert first[0] == "scad"
        assert int(first[1]) == 120
        float(first[5])  # bias parses (may be nan)
        float(first[6])

    def test_csv_handles_nan_cells(self):
        row = StudyRow(
            penalty="mcp", n=10, censor_target=0.1, component=1, parameter="pi",
            bias=float("nan"), sd=float("nan"), replications_used=0,
            k_hat_mode=0, k_correct_fraction=0.0,
        )
        result = StudyResult(rows=(row,), replications=1, failures={"mcp": 1}, k_hat_counts={"mcp": {}})
        lines = study_to_csv(result).strip().split("\n")
        cells = lines[1].split(",")
        assert math.isnan(float(cells[5]))
        assert math.isnan(float(cells[6]))
