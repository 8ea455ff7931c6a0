import concurrent.futures
import math
import warnings

import numpy as np
import pytest

from coxmix.coxfit import NumericalError
from coxmix.em import EMConfig, fit_mixture
from coxmix.penalties import PenaltySpec
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
from coxmix import simgen
from coxmix.simgen import DEFAULT_PILOT_SIZE, _align_to_truth, _draw_event_times
from coxmix.tuning import level_from_c


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
        for name in ("n", "seed"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimConfig(**{"n": 10, name: 2.5})
        cfg = SimConfig(n=np.int64(10), seed=np.uint64(3))
        assert (cfg.n, cfg.seed) == (10, 3)


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

    @pytest.mark.parametrize("target, seed", [(0.01, 1), (0.25, 2026), (0.55, 7), (0.9, 3)])
    def test_bound_solves_the_pilot_equation(self, target, seed):
        cfg = SimConfig(n=100, censor_target=target, seed=seed)
        upper = calibrate_censoring(cfg, np.random.default_rng(seed))
        t, _, _ = _draw_event_times(cfg, np.random.default_rng(seed), DEFAULT_PILOT_SIZE)
        assert abs(np.minimum(t, upper).mean() / upper - target) <= 2e-15

    def test_tied_pilot_times(self, monkeypatch):
        # on a lattice of 0.05 most pilot times tie, so many intervals
        # between consecutive sorted times are empty
        draw = simgen._draw_event_times

        def lattice(config, rng, size):
            t, labels, x = draw(config, rng, size)
            return np.ceil(t / 0.05) * 0.05, labels, x

        monkeypatch.setattr(simgen, "_draw_event_times", lattice)
        for target in (0.05, 0.3, 0.7):
            cfg = SimConfig(n=100, censor_target=target, seed=11)
            upper = calibrate_censoring(cfg, np.random.default_rng(11), pilot_size=20_000)
            t, _, _ = lattice(cfg, np.random.default_rng(11), 20_000)
            assert np.unique(t).size < 100
            assert abs(np.minimum(t, upper).mean() / upper - target) <= 2e-15

    def test_calibration_consumes_the_stream_as_the_pilot_draw(self):
        cfg = SimConfig(n=100, censor_target=0.25, seed=5)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        calibrate_censoring(cfg, rng, pilot_size=5_000)
        _draw_event_times(cfg, twin, 5_000)
        assert np.array_equal(rng.random(4), twin.random(4))

    def test_zero_target_rejected(self):
        cfg = SimConfig(n=100, censor_target=0.0)
        with pytest.raises(ValueError, match="strictly inside"):
            calibrate_censoring(cfg, np.random.default_rng(0))


class TestAlignment:
    def test_permutation_recovered(self):
        truth = np.array([[-3.0, -2.0], [1.0, 1.0]])
        rows = _align_to_truth(np.array([0.7, 0.3]), np.array([[0.9, 1.1], [-2.8, -2.1]]), truth)
        assert rows.shape == (2, 3)
        assert np.array_equal(rows, [[0.3, -2.8, -2.1], [0.7, 0.9, 1.1]])

    def test_identity_when_already_aligned(self):
        truth = np.array([[-3.0, -2.0], [1.0, 1.0]])
        rows = _align_to_truth(np.array([0.4, 0.6]), np.array([[-3.1, -1.9], [1.2, 0.8]]), truth)
        assert np.array_equal(rows, [[0.4, -3.1, -1.9], [0.6, 1.2, 0.8]])


@pytest.fixture(scope="module")
def tiny_study():
    cfg = SimConfig(n=120, censor_target=0.0, seed=53)
    em = EMConfig(k_init=3, max_iterations=120, restarts=1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = run_study(
            cfg, replications=2, kinds=("scad",), em_config=em, c_grid=[0.8], workers=1
        )
    return cfg, em, result


class TestRunStudy:
    def test_table_shape(self, tiny_study):
        cfg, _, result = tiny_study
        # one row per component and parameter: K * (1 + p)
        assert len(result.rows) == cfg.K * (1 + cfg.p)
        assert set(result.failures) == {"scad"}
        # every replication is either a fit counted by its K-hat or a failure
        assert sum(result.k_hat_counts["scad"].values()) + result.failures["scad"] == 2
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
            warnings.simplefilter("ignore", UserWarning)
            parallel = run_study(
                cfg, replications=2, kinds=("scad",), em_config=em, c_grid=[0.8], workers=2
            )
        # NaN cells defeat dataclass equality; the 17-digit CSV text is exact
        assert study_to_csv(parallel) == study_to_csv(serial)
        assert parallel.k_hat_counts == serial.k_hat_counts
        assert parallel.failures == serial.failures

    def test_pool_never_exceeds_replications(self, tiny_study, monkeypatch, serial_pool):
        cfg, em, serial = tiny_study
        # the pool class is looked up where a multi-worker run starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pooled = run_study(
                cfg, replications=2, kinds=("scad",), em_config=em, c_grid=[0.8], workers=500
            )
        assert serial_pool.sizes == [2]
        assert study_to_csv(pooled) == study_to_csv(serial)

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            run_study(SimConfig(n=50), replications=1, workers=0)
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_study(SimConfig(n=50), replications=1, workers=1.5)

    def test_replication_count_validated(self):
        with pytest.raises(ValueError):
            run_study(SimConfig(n=50), replications=0)
        with pytest.raises(ValueError, match="replications must be an integer"):
            run_study(SimConfig(n=50), replications=1.5)

    @pytest.fixture
    def no_draw(self, monkeypatch):
        import coxmix.simgen as simgen_mod

        def fail(*args, **kwargs):
            raise AssertionError("drew data before checking kinds")

        monkeypatch.setattr(simgen_mod, "calibrate_censoring", fail)

    @pytest.mark.parametrize("kinds", [(), ("scad", "scad"), ("scad", "mcp", "scad")])
    def test_empty_or_repeated_kinds_rejected(self, kinds, no_draw):
        with pytest.raises(ValueError, match="each named once"):
            run_study(SimConfig(n=50), replications=1, kinds=kinds)

    def test_unknown_kind_rejected_before_any_draw(self, no_draw):
        with pytest.raises(ValueError, match="unknown penalty kind 'lasso'"):
            run_study(SimConfig(n=50), replications=1, kinds=("scad", "lasso"))

    def test_bad_worker_count_rejected_before_any_draw(self, no_draw):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_study(SimConfig(n=50), replications=1, workers=0)
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_study(SimConfig(n=50), replications=1, workers=1.5)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"shape": 1.5}, "SCAD shape parameter must exceed 2"),
            ({"kinds": ("mcp", "scad"), "shape": 1.5}, "SCAD shape parameter must exceed 2"),
            ({"kinds": ("mcp",), "shape": 1.0}, "MCP shape parameter must exceed 1"),
            ({"epsilon": 0.0}, "epsilon must be finite and positive"),
            ({"prune_threshold": 2.0}, "prune threshold must lie in"),
            ({"c_grid": [-1.0]}, "grid multipliers must be finite and nonnegative"),
            ({"c_grid": []}, "c_grid must be a nonempty"),
            ({"cn_constant": 0.0}, "cn_constant must be finite and positive"),
        ],
        ids=["scad_shape", "scad_shape_after_mcp", "mcp_shape", "epsilon", "prune_threshold",
             "negative_grid", "empty_grid", "cn_constant"],
    )
    def test_bad_tuning_option_rejected_before_any_draw(self, monkeypatch, options, message):
        sizes = []
        draw = simgen._draw_event_times

        def spy(config, rng, size):
            sizes.append(size)
            return draw(config, rng, size)

        monkeypatch.setattr(simgen, "_draw_event_times", spy)
        with pytest.raises(ValueError, match=message):
            run_study(SimConfig(50, censor_target=0.2), 1, **options)
        # neither the 100,000-draw calibration pilot nor a dataset was drawn
        assert sizes == []

    def test_one_pass_grid_serves_every_replication(self, tiny_study):
        cfg, em, serial = tiny_study
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = run_study(
                cfg, replications=2, kinds=("scad",), em_config=em, c_grid=iter([0.8]), workers=1
            )
        assert study_to_csv(result) == study_to_csv(serial)

    def test_replication_whose_every_grid_point_fails_is_counted(self, monkeypatch):
        import coxmix.tuning as tuning_mod

        def broken(*args, **kwargs):
            raise NumericalError("forced failure")

        monkeypatch.setattr(tuning_mod, "fit_mixture", broken)
        result = run_study(
            SimConfig(n=50, censor_target=0.0), replications=2, kinds=("scad", "mcp"), c_grid=[0.5, 1.0]
        )
        assert result.failures == {"scad": 2, "mcp": 2}
        assert result.k_hat_counts == {"scad": {}, "mcp": {}}
        for row in result.rows:
            assert row.replications_used == 0
            assert row.k_hat_mode == 0
            assert row.k_correct_fraction == 0.0
            assert math.isnan(row.bias) and math.isnan(row.sd)

    def test_first_replication_at_n50_fits_without_floating_point_warnings(self):
        # replication 0 at n = 50 as the study draws it: a restart reaches a
        # subnormal risk-set sum, where the derivative pass's w / s0
        # overflows. The Newton search rejects that point, so the fit must
        # neither warn nor fail.
        cfg = SimConfig(n=50)
        censor_upper = calibrate_censoring(cfg, np.random.default_rng(np.random.SeedSequence([0])))
        data, _ = generate_dataset(
            cfg, np.random.default_rng(np.random.SeedSequence([0, 0, 0])), censor_upper=censor_upper
        )
        seed = int(np.random.SeedSequence([0, 0, 1]).generate_state(1, dtype=np.uint64)[0])
        spec = PenaltySpec(kind="scad", level=level_from_c(0.1, cfg.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = fit_mixture(data, spec, EMConfig(seed=seed))
        assert model.params.K == 6
        assert model.diagnostics["converged"]
        assert len(model.diagnostics["restart_failures"]) == 3

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

    def test_tiny_study_cells(self, tiny_study):
        # a K-hat mode tie (1 and 2 once each) broken toward the smaller K, and
        # one replication with K-hat = K, so every SD is nan
        _, _, result = tiny_study
        assert study_to_csv(result) == (
            "penalty,n,censor_target,component,parameter,bias,sd,"
            "replications_used,K_hat_mode,K_correct_fraction\n"
            "scad,120,0,1,pi,-0.23565771332117091,nan,1,1,0.5\n"
            "scad,120,0,1,beta1,0.052034661215640376,nan,1,1,0.5\n"
            "scad,120,0,1,beta2,0.060050516379435592,nan,1,1,0.5\n"
            "scad,120,0,2,pi,0.2356577133211708,nan,1,1,0.5\n"
            "scad,120,0,2,beta1,-0.38770776790302408,nan,1,1,0.5\n"
            "scad,120,0,2,beta2,-0.23068224728254638,nan,1,1,0.5\n"
        )
        assert result.k_hat_counts == {"scad": {1: 1, 2: 1}}
        assert result.failures == {"scad": 0}

    def test_cells_nan_when_no_replication_selects_k(self):
        cfg = SimConfig(n=80, censor_target=0.05, seed=5)
        em = EMConfig(k_init=3, max_iterations=40, restarts=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = run_study(cfg, replications=2, kinds=("scad", "mcp"), em_config=em, c_grid=[40.0])
        cells = [
            f"{kind},80,0.050000000000000003,{k},{name},nan,nan,0,1,0\n"
            for kind in ("scad", "mcp") for k in (1, 2) for name in ("pi", "beta1", "beta2")
        ]
        assert study_to_csv(result) == (
            "penalty,n,censor_target,component,parameter,bias,sd,"
            "replications_used,K_hat_mode,K_correct_fraction\n" + "".join(cells)
        )
        assert result.k_hat_counts == {"scad": {1: 2}, "mcp": {1: 2}}
        assert result.failures == {"scad": 0, "mcp": 0}

    def test_cells_over_nine_replications(self):
        # means and SDs over more than eight values; one replication selects K-hat = 1
        cfg = SimConfig(n=80, censor_target=0.05, seed=9)
        em = EMConfig(k_init=2, max_iterations=30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = run_study(cfg, replications=10, kinds=("scad",), em_config=em, c_grid=[0.5])
        assert study_to_csv(result) == (
            "penalty,n,censor_target,component,parameter,bias,sd,"
            "replications_used,K_hat_mode,K_correct_fraction\n"
            "scad,80,0.050000000000000003,1,pi,-0.076991364979195009,0.10241925464386076,9,2,0.90000000000000002\n"
            "scad,80,0.050000000000000003,1,beta1,0.2384421863719437,1.3734848925447247,9,2,0.90000000000000002\n"
            "scad,80,0.050000000000000003,1,beta2,-0.28788086453994488,0.74749161723278756,9,2,0.90000000000000002\n"
            "scad,80,0.050000000000000003,2,pi,0.076991364979195009,0.10241925464386081,9,2,0.90000000000000002\n"
            "scad,80,0.050000000000000003,2,beta1,0.011025930770303116,0.16247967885754416,9,2,0.90000000000000002\n"
            "scad,80,0.050000000000000003,2,beta2,-0.080838931632394528,0.27589931975424131,9,2,0.90000000000000002\n"
        )
        assert result.k_hat_counts == {"scad": {1: 1, 2: 9}}
        assert result.failures == {"scad": 0}

    def test_csv_text(self):
        rows = (
            StudyRow(
                penalty="scad", n=600, censor_target=0.05, component=1, parameter="pi",
                bias=0.1 + 0.2 - 0.3, sd=math.nan, replications_used=1,
                k_hat_mode=np.int64(2), k_correct_fraction=2.0 / 3.0,
            ),
            StudyRow(
                penalty="mcp", n=np.int64(600), censor_target=0.25, component=2, parameter="beta2",
                bias=-1.0, sd=0.012345678901234568, replications_used=0,
                k_hat_mode=0, k_correct_fraction=0.0,
            ),
        )
        result = StudyResult(rows=rows, failures={}, k_hat_counts={})
        assert study_to_csv(result) == (
            "penalty,n,censor_target,component,parameter,bias,sd,"
            "replications_used,K_hat_mode,K_correct_fraction\n"
            "scad,600,0.050000000000000003,1,pi,5.5511151231257827e-17,nan,1,2,0.66666666666666663\n"
            "mcp,600,0.25,2,beta2,-1,0.012345678901234568,0,0,0\n"
        )

    def test_csv_handles_nan_cells(self):
        row = StudyRow(
            penalty="mcp", n=10, censor_target=0.1, component=1, parameter="pi",
            bias=float("nan"), sd=float("nan"), replications_used=0,
            k_hat_mode=0, k_correct_fraction=0.0,
        )
        result = StudyResult(rows=(row,), failures={"mcp": 1}, k_hat_counts={"mcp": {}})
        lines = study_to_csv(result).strip().split("\n")
        cells = lines[1].split(",")
        assert math.isnan(float(cells[5]))
        assert math.isnan(float(cells[6]))
