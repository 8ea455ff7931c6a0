import csv
import math
import warnings

import numpy as np
import pytest

from coxmix.coxfit import NumericalError
from coxmix import simgen
from coxmix.em import EMConfig, observed_loglik
from coxmix.tuning import (
    TuningReport,
    TuningRow,
    bic_score,
    default_c_grid,
    level_from_c,
    report_summary,
    report_to_csv,
    select_tuning,
)
from coxmix.tuning import _pick_best

from conftest import simulate_single


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
        with pytest.raises(ValueError):
            bic_score(0.0, 100, 2, 1, cn_constant=0.0)
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
        assert report.n == tuning_data.n
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
            best.loglik, tuning_data.n, best.k_hat, tuning_data.p, report.cn_constant
        ) == pytest.approx(best.bic, abs=1e-12)

    def test_repeated_grid_point_gives_identical_rows(self, tuning_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = select_tuning(tuning_data, "mcp", c_grid=[0.5, 0.5], config=QUICK)
        assert report.rows[0] == report.rows[1]

    def test_worker_count_does_not_change_rows(self, tuning_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            serial = select_tuning(tuning_data, "scad", c_grid=[0.3, 0.9], config=QUICK, workers=1)
            parallel = select_tuning(tuning_data, "scad", c_grid=[0.3, 0.9], config=QUICK, workers=2)
        assert serial.rows == parallel.rows
        assert serial.best_index == parallel.best_index

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
        import coxmix.tuning as tuning_mod

        monkeypatch.setattr(tuning_mod, "ProcessPoolExecutor", serial_pool)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pooled = select_tuning(tuning_data, "scad", c_grid=[0.3, 0.9], config=QUICK, workers=500)
            serial = select_tuning(tuning_data, "scad", c_grid=[0.3, 0.9], config=QUICK, workers=1)
        assert serial_pool.sizes == [2]
        assert pooled.rows == serial.rows

    def test_workers_validated(self, tuning_data):
        with pytest.raises(ValueError, match="workers"):
            select_tuning(tuning_data, "scad", c_grid=[0.5], config=QUICK, workers=0)

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


class TestReportOutputs:
    def test_csv_round_trip(self, tmp_path):
        rows = [
            _row(0.3, 0.04321, 2, -123.456789012345, -100.1, 17, True),
            _row(0.9, float("nan"), 0, float("nan"), float("nan"), 0, False),
        ]
        report = TuningReport(rows=rows, best_index=0, cn_constant=1.0, n=50)
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

    def test_summary_fields(self):
        rows = [_row(0.3, 0.04, 2, -12.5, -10.0, 9, True)]
        report = TuningReport(rows=rows, best_index=0, cn_constant=2.0, n=80)
        s = report_summary(report)
        assert s["n"] == 80
        assert s["cn_constant"] == 2.0
        assert s["grid_points"] == 1
        assert s["best"]["k_hat"] == 2
        assert s["best"]["bic"] == -12.5


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
