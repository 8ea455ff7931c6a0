import concurrent.futures
import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from coxmix.coxfit import NumericalError
from coxmix import simgen, tuning
from coxmix.em import EMConfig, model_to_json, observed_loglik
from coxmix.tuning import (
    DEFAULT_CN_CONSTANT,
    TuningReport,
    TuningRow,
    bic_score,
    default_c_grid,
    level_from_c,
    report_to_csv,
    select_tuning,
)
from coxmix.tuning import _pick_best

from conftest import real_data_shape_set, simulate_single


QUICK = EMConfig(k_init=2, max_iterations=80, restarts=1, seed=3)


class TestLevelFromC:
    def test_formula(self):
        assert level_from_c(0.5, 100) == pytest.approx(0.5 * math.sqrt(math.log(100) / 100))
        assert level_from_c(0.0, 10) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            level_from_c(-0.1, 100)
        with pytest.raises(ValueError):
            level_from_c(1.0, 0)

    def test_default_grid(self):
        g = default_c_grid()
        assert g[0] == pytest.approx(0.1)
        assert g[-1] == pytest.approx(2.0)
        assert g.size == 20


class TestBicScore:
    def test_pinned_value(self):
        # K=2, p=2: D_f = 2 - 1 + 2*2 = 5
        got = bic_score(-310.0, 100, 2, 2, cn_constant=1.0)
        expected = -310.0 - 0.5 * math.log(math.log(102)) * 5 * math.log(100)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_df_step_per_covariate(self):
        # adding one covariate adds k to D_f
        n, k = 200, 3
        gap = bic_score(0.0, n, k, 2) - bic_score(0.0, n, k, 3)
        assert gap == pytest.approx(0.5 * math.log(math.log(n + k)) * k * math.log(n))

    def test_df_step_per_component(self):
        n, p = 500, 1
        a = bic_score(0.0, n, 1, p, cn_constant=2.0)
        b = bic_score(0.0, n, 2, p, cn_constant=2.0)
        # D_f goes 1 -> 3 and C_n shifts from log(log(501)) to log(log(502))
        expected = (
            -0.5 * 2.0 * math.log(math.log(n + 1)) * 1 * math.log(n)
            + 0.5 * 2.0 * math.log(math.log(n + 2)) * 3 * math.log(n)
        )
        assert a - b == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_loglik(self):
        assert bic_score(-10.0, 50, 2, 1) > bic_score(-11.0, 50, 2, 1)

    def test_rejects_bad_inputs(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="cn_constant must be finite and positive"):
                bic_score(0.0, 100, 2, 1, cn_constant=bad)
        with pytest.raises(NumericalError, match="exceed e"):
            bic_score(0.0, 1, 1, 1)


def _row(c, level, k_hat, bic, loglik=0.0, iterations=5, converged=True):
    return TuningRow(c, level, k_hat, bic, loglik, iterations, converged)


class TestPickBest:
    def test_highest_bic_wins(self):
        rows = [_row(0.1, 0.01, 2, -50.0), _row(0.2, 0.02, 2, -40.0), _row(0.3, 0.03, 2, -45.0)]
        assert _pick_best(rows) == 1

    def test_tie_breaks_toward_fewer_components(self):
        rows = [_row(0.1, 0.01, 3, -40.0), _row(0.2, 0.02, 2, -40.0)]
        assert _pick_best(rows) == 1

    def test_tie_breaks_toward_smaller_level(self):
        rows = [_row(0.2, 0.02, 2, -40.0), _row(0.1, 0.01, 2, -40.0)]
        assert _pick_best(rows) == 1

    def test_nan_rows_skipped(self):
        rows = [_row(0.1, 0.01, 0, float("nan")), _row(0.2, 0.02, 2, -99.0)]
        assert _pick_best(rows) == 1

    def test_all_nan_raises(self):
        rows = [_row(0.1, 0.01, 0, float("nan")), _row(0.2, 0.02, 0, float("nan"))]
        with pytest.raises(NumericalError, match="every grid point"):
            _pick_best(rows)


@pytest.fixture(scope="module")
def tuning_data():
    return simulate_single(50, 2, [0.7, -0.5], seed=77, censor_frac=0.15)


class TestSelectTuning:
    def test_report_shape_and_consistency(self, tuning_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = select_tuning(tuning_data, "scad", c_grid=[0.3, 0.8], config=QUICK)
        assert len(report.rows) == 2
        for c, row in zip([0.3, 0.8], report.rows):
            assert row.c == c
            assert row.level == pytest.approx(level_from_c(c, tuning_data.n))
            assert row.k_hat >= 1
            assert math.isfinite(row.bic)
        best = report.best
        model = report.best_model
        assert model is not None
        assert model.params.K == best.k_hat
        assert observed_loglik(tuning_data, model.params) == pytest.approx(best.loglik, abs=1e-10)
        assert bic_score(
            best.loglik, tuning_data.n, best.k_hat, tuning_data.p, DEFAULT_CN_CONSTANT
        ) == pytest.approx(best.bic, abs=1e-12)

    def test_repeated_grid_point_gives_identical_rows(self, tuning_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = select_tuning(tuning_data, "mcp", c_grid=[0.5, 0.5], config=QUICK)
        assert report.rows[0] == report.rows[1]

    def test_worker_count_does_not_change_rows(self, tuning_data):
        # three restarts are screened; one restart is its own leader and runs as unscreened
        for restarts in (1, 3):
            config = replace(QUICK, restarts=restarts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                serial = select_tuning(tuning_data, "scad", c_grid=[0.3, 0.9], config=config, workers=1)
                parallel = select_tuning(tuning_data, "scad", c_grid=[0.3, 0.9], config=config, workers=2)
            assert serial.rows == parallel.rows
            assert serial.best_index == parallel.best_index
            assert model_to_json(serial.best_model) == model_to_json(parallel.best_model)
            screened = [m.diagnostics["restarts_screened"] for m in parallel.models]
            assert screened == [m.diagnostics["restarts_screened"] for m in serial.models]
            assert (sum(screened) > 0) == (restarts > 1)

    def test_failed_point_kept_as_nan(self, tuning_data, monkeypatch):
        import coxmix.tuning as tuning_mod

        real = tuning_mod.fit_mixture

        def flaky(data, spec, config=None, **kw):
            if spec.level > level_from_c(0.5, data.n):
                raise NumericalError("forced failure")
            return real(data, spec, config, **kw)

        monkeypatch.setattr(tuning_mod, "fit_mixture", flaky)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = select_tuning(tuning_data, "scad", c_grid=[0.3, 1.5], config=QUICK)
        assert math.isnan(report.rows[1].bic)
        assert report.rows[1].k_hat == 0
        assert not report.rows[1].converged
        assert report.models[1] is None
        assert report.best_index == 0

    def test_all_points_failing_raises(self, tuning_data, monkeypatch):
        import coxmix.tuning as tuning_mod

        def broken(*a, **k):
            raise NumericalError("forced failure")

        monkeypatch.setattr(tuning_mod, "fit_mixture", broken)
        with pytest.raises(NumericalError, match="every grid point"):
            select_tuning(tuning_data, "scad", c_grid=[0.3, 0.8], config=QUICK)

    def test_pool_never_exceeds_grid_points(self, tuning_data, monkeypatch, serial_pool):
        # the pool class is looked up where a multi-worker run starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pooled = select_tuning(tuning_data, "scad", c_grid=[0.3, 0.9], config=QUICK, workers=500)
            serial = select_tuning(tuning_data, "scad", c_grid=[0.3, 0.9], config=QUICK, workers=1)
        assert serial_pool.sizes == [2]
        assert pooled.rows == serial.rows

    def test_workers_validated(self, tuning_data):
        with pytest.raises(ValueError, match="workers"):
            select_tuning(tuning_data, "scad", c_grid=[0.5], config=QUICK, workers=0)
        with pytest.raises(ValueError, match="workers must be an integer"):
            select_tuning(tuning_data, "scad", c_grid=[0.5], config=QUICK, workers=1.5)

    @pytest.mark.parametrize(
        "kernel, bandwidth", [("gaussian", 0.0), ("gaussian", float("nan")), ("foo", None)]
    )
    def test_smoothing_validated_without_runtime_warnings(self, tuning_data, kernel, bandwidth):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="kernel" if bandwidth is None else "bandwidth"):
                select_tuning(
                    tuning_data, "scad", c_grid=[0.5, 1.0], config=QUICK, kernel=kernel, bandwidth=bandwidth
                )

    def test_grid_validation(self, tuning_data):
        with pytest.raises(ValueError):
            select_tuning(tuning_data, "scad", c_grid=[], config=QUICK)
        with pytest.raises(ValueError):
            select_tuning(tuning_data, "scad", c_grid=[-0.1, 0.5], config=QUICK)
        for bad in (np.inf, np.nan):
            # rejected up front, not by the fit of the bad grid point
            with pytest.raises(ValueError, match="grid multipliers must be finite"):
                select_tuning(tuning_data, "scad", c_grid=[0.5, bad], config=QUICK)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_bad_cn_constant_rejected_before_any_fit(self, tuning_data, monkeypatch, bad):
        def no_fit(*args, **kwargs):
            raise AssertionError("a grid point was fitted")

        monkeypatch.setattr(tuning, "fit_mixture", no_fit)
        with pytest.raises(ValueError, match="cn_constant must be finite and positive"):
            select_tuning(tuning_data, "scad", c_grid=[0.6, 0.8], config=QUICK, cn_constant=bad)

    @pytest.mark.parametrize(
        "kind, options, message",
        [
            ("scad", {"shape": 1.5}, "SCAD shape parameter must exceed 2"),
            ("mcp", {"shape": 0.5}, "MCP shape parameter must exceed 1"),
            ("lasso", {}, "unknown penalty kind 'lasso'"),
            ("scad", {"epsilon": math.inf}, "epsilon must be finite and positive"),
            ("ls", {"prune_threshold": 0.0}, "prune threshold must lie in"),
        ],
        ids=["scad_shape", "mcp_shape", "unknown_kind", "epsilon", "prune_threshold"],
    )
    def test_bad_penalty_rejected_before_any_pool(self, tuning_data, monkeypatch, kind, options, message):
        def no_pool(*args, **kwargs):
            raise AssertionError("the grid was mapped")

        monkeypatch.setattr(tuning, "_map_in_pool", no_pool)
        with pytest.raises(ValueError, match=message):
            select_tuning(tuning_data, kind, c_grid=[0.6, 0.8], config=QUICK, workers=2, **options)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"bandwidth": 0.0}, "bandwidth must be positive and finite"),
            ({"bandwidth": math.nan}, "bandwidth must be positive and finite"),
            ({"bandwidth": -1.0, "kernel": "epanechnikov"}, "bandwidth must be positive and finite"),
            ({"kernel": "box"}, "unknown kernel 'box'"),
            ({"kernel": "box", "bandwidth": 0.5}, "unknown kernel 'box'"),
        ],
        ids=["zero_bandwidth", "nan_bandwidth", "negative_bandwidth", "unknown_kernel", "unknown_kernel_with_bandwidth"],
    )
    def test_bad_smoothing_rejected_before_any_pool(self, tuning_data, monkeypatch, options, message):
        def no_pool(*args, **kwargs):
            raise AssertionError("the grid was mapped")

        monkeypatch.setattr(tuning, "_map_in_pool", no_pool)
        with pytest.raises(ValueError, match=message):
            select_tuning(tuning_data, "scad", c_grid=[0.5, 1.0], config=QUICK, workers=2, **options)


class TestReportOutputs:
    def test_csv_round_trip(self, tmp_path):
        rows = [
            _row(0.3, 0.04321, 2, -123.456789012345, -100.1, 17, True),
            _row(0.9, float("nan"), 0, float("nan"), float("nan"), 0, False),
        ]
        report = TuningReport(rows=rows, best_index=0)
        path = str(tmp_path / "grid.csv")
        report_to_csv(report, path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["c", "level", "k_hat", "bic", "loglik", "iterations", "converged"]
        assert len(parsed) == 3
        assert float(parsed[1][0]) == 0.3
        assert float(parsed[1][3]) == -123.456789012345
        assert parsed[1][6] == "true"
        assert math.isnan(float(parsed[2][3]))
        assert parsed[2][6] == "false"

    def test_csv_bytes(self, tmp_path):
        # numpy integers and booleans write as Python's do; inf, -inf and nan as lowercase words
        rows = [
            _row(0.3, 0.1 * 0.3, np.int64(2), -123.456789012345, -math.inf, np.int64(17), np.bool_(True)),
            _row(0.9, 0.27, 0, math.nan, math.nan, 0, False),
            _row(1.5, 2.0 / 3.0, 1, math.inf, -1e-300, 400, np.bool_(False)),
        ]
        path = tmp_path / "grid.csv"
        report_to_csv(TuningReport(rows=rows, best_index=0), str(path))
        assert path.read_bytes() == (
            b"c,level,k_hat,bic,loglik,iterations,converged\n"
            b"0.29999999999999999,0.029999999999999999,2,-123.456789012345,-inf,17,true\n"
            b"0.90000000000000002,0.27000000000000002,0,nan,nan,0,false\n"
            b"1.5,0.66666666666666663,1,inf,-1e-300,400,false\n"
        )


def test_subnormal_responsibility_does_not_abort_grid_point():
    # replication 4 of the criterion-5 cell: at c = 0.6 both restarts reach a
    # component whose event weights are subnormal, and the profile increments
    # used to raise on the underflowed risk-set sums
    cell = simgen.SimConfig(n=600, censor_target=0.05, seed=2026)
    upper = simgen.calibrate_censoring(cell, np.random.default_rng(np.random.SeedSequence([2026])))
    rng = np.random.default_rng(np.random.SeedSequence([2026, 4, 0]))
    data, _ = simgen.generate_dataset(cell, rng, upper)
    em_seed = int(np.random.SeedSequence([2026, 4, 1]).generate_state(1, dtype=np.uint64)[0])
    config = EMConfig(k_init=10, max_iterations=400, restarts=2, seed=em_seed)
    report = select_tuning(data, "scad", c_grid=[0.6], config=config, cn_constant=2.0)
    assert math.isfinite(report.rows[0].bic)


def test_tuning_at_the_real_data_shape():
    data = real_data_shape_set()
    assert data.x.shape == (686, 7)
    assert np.unique(data.y[data.delta == 1]).size == 59
    assert 0.5 < 1.0 - data.delta.mean() < 0.53
    config = EMConfig(k_init=10, max_iterations=400, restarts=2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = select_tuning(data, "scad", c_grid=[0.6, 0.8, 1.0], config=config, cn_constant=2.0)
    # K-hat and the winning grid point are not pinned: c = 0.8 and c = 1.0
    # reach one fixed point and their BICs differ only by EM convergence noise
    for row in report.rows:
        assert math.isfinite(row.bic)
        assert row.converged
