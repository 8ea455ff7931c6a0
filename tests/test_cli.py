import csv
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import coxmix
from coxmix import cli
from coxmix.cli import COMMANDS, build_parser, main
from coxmix.data import Dataset, load_dataset, save_dataset
from coxmix.em import EMConfig, FittedModel, fit_mixture, load_model, model_to_json
from coxmix.penalties import PenaltySpec
from coxmix.simgen import SimConfig, generate_dataset
from coxmix.tdroc import auc, censoring_weights, compute_marker, roc_curve

from conftest import MALFORMED_MODELS, malformed_model_text, simulate_single, stack_fits


def run_cli(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


@pytest.fixture()
def data_csv(tmp_path):
    data = simulate_single(60, 2, [0.8, -0.5], seed=211, censor_frac=0.15)
    path = str(tmp_path / "data.csv")
    save_dataset(data, path)
    return path


@pytest.fixture()
def fitted_model(tmp_path, data_csv):
    model_path = str(tmp_path / "model.json")
    code = run_cli(
        [
            "fit", data_csv, "--penalty", "scad", "--level", "0",
            "--k-init", "1", "--restarts", "1", "--seed", "2",
            "--out", model_path,
        ]
    )
    assert code == 0
    return model_path


class TestParserBasics:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "coxmix" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("simulate", "fit", "tune", "predict", "roc", "study"):
            assert name in out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_penalty_choice_is_usage_error(self, data_csv, capsys):
        assert main(["fit", data_csv, "--penalty", "ridge", "--level", "0.1"]) == 2

    def test_module_entry_point(self):
        # the child does not inherit pytest's `pythonpath` setting, so it is
        # pointed at the directory that holds the package under test
        package_root = str(Path(coxmix.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "coxmix", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("coxmix ")


class TestSimulate:
    def test_writes_dataset_labels_and_meta(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        labels = str(tmp_path / "labels.csv")
        code = run_cli(
            ["simulate", "--n", "80", "--censor", "0.1", "--seed", "3",
             "--out", out, "--labels-out", labels]
        )
        assert code == 0
        data = load_dataset(out)
        assert data.n == 80
        assert data.p == 2
        with open(labels, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["component"]
        assert len(rows) == 81
        assert set(v for (v,) in rows[1:]) <= {"1", "2"}
        meta = json.load(open(out + ".meta.json"))
        assert meta["command"] == "simulate"
        assert meta["seed"] == 3
        assert meta["options"]["n"] == 80
        assert "coxmix" in meta["versions"]
        assert "wrote" in capsys.readouterr().out

    def test_meta_records_the_versions_that_shape_outputs(self, tmp_path):
        # coxmix, numpy and python; no library module imports scipy
        out = str(tmp_path / "sim.csv")
        assert run_cli(["simulate", "--n", "30", "--out", out]) == 0
        assert set(json.load(open(out + ".meta.json"))["versions"]) == {"coxmix", "numpy", "python"}

    def test_deterministic_per_seed(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert run_cli(["simulate", "--n", "40", "--seed", "11", "--out", a]) == 0
        assert run_cli(["simulate", "--n", "40", "--seed", "11", "--out", b]) == 0
        assert open(a).read() == open(b).read()

    def test_missing_n_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["simulate", "--out", str(tmp_path / "x.csv")]) == 2
        assert "missing required option --n" in capsys.readouterr().err

    def test_invalid_n_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["simulate", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("n = 30\ncensor = 0.0  # comment\nseed = 9\n")
        out = str(tmp_path / "sim.csv")
        code = run_cli(["simulate", "--config", str(cfg), "--n", "40", "--out", out])
        assert code == 0
        meta = json.load(open(out + ".meta.json"))
        assert meta["options"]["n"] == 40  # flag wins
        assert meta["options"]["censor"] == 0.0  # config supplies the rest
        assert meta["seed"] == 9

    def test_dashed_keys_match_underscored_options(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        labels = str(tmp_path / "labels.csv")
        cfg.write_text(f"labels-out = {labels}\n")
        out = str(tmp_path / "sim.csv")
        assert run_cli(["simulate", "--config", str(cfg), "--n", "20", "--out", out]) == 0
        assert len(open(labels).read().strip().split("\n")) == 21

    def test_malformed_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("this line has no equals sign\n")
        assert run_cli(["simulate", "--config", str(cfg), "--n", "20"]) == 2
        assert "expected key=value" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run_cli(["simulate", "--config", str(tmp_path / "nope.cfg"), "--n", "20"]) == 2

    def test_comment_only_and_blank_lines_are_skipped(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("# simulation options\n\n   \nn = 30  # records\n  # seed = 1\nseed = 9\n")
        out = str(tmp_path / "sim.csv")
        assert run_cli(["simulate", "--config", str(cfg), "--out", out]) == 0
        meta = json.load(open(out + ".meta.json"))
        assert meta["options"]["n"] == 30
        assert meta["seed"] == 9

    def test_byte_order_mark_is_read_past(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn = 30\nseed = 9\n")
        out = str(tmp_path / "sim.csv")
        assert run_cli(["simulate", "--config", str(cfg), "--out", out]) == 0
        meta = json.load(open(out + ".meta.json"))
        assert meta["options"]["n"] == 30
        assert meta["seed"] == 9

    def test_value_outside_choices_is_usage_error(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("penalty = lasso\n")
        code = run_cli(["tune", data_csv, "--config", str(cfg), "--c-grid", "0.5"])
        assert code == 2
        assert "bad config value for penalty: 'lasso'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [",", " , ,"])
    def test_empty_comma_list_is_usage_error(self, tmp_path, data_csv, capsys, text):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"c_grid = {text}\n")
        code = run_cli(["tune", data_csv, "--config", str(cfg), "--penalty", "scad"])
        assert code == 2
        assert "bad config value for c_grid" in capsys.readouterr().err
        # the same list given as a flag is refused by the parser
        assert run_cli(["tune", data_csv, "--penalty", "scad", "--c-grid", text]) == 2

    def test_uncastable_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("n = twenty\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        assert "bad config value for n" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "text, key, lineno",
        [("max_iterations = 5\n", "max_iterations", 1), ("n = 20\nlevle = 0.3\n", "levle", 2)],
    )
    def test_unknown_key_is_usage_error(self, tmp_path, data_csv, capsys, text, key, lineno):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(text)
        code = run_cli(
            ["fit", data_csv, "--config", str(cfg), "--penalty", "scad", "--level", "0",
             "--k-init", "1", "--restarts", "1", "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"line {lineno}" in err
        assert repr(key) in err

    def test_keys_of_other_commands_are_ignored(self, tmp_path, data_csv, fitted_model):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("level = 0.3\ntimes = 0.1\nseed = 4\nn = 20\n")
        out = str(tmp_path / "grid.csv")
        code = run_cli(
            ["tune", data_csv, "--config", str(cfg), "--penalty", "scad", "--c-grid", "0.8",
             "--k-init", "1", "--restarts", "1", "--out", out,
             "--out-model", str(tmp_path / "best.json")]
        )
        assert code == 0
        meta = json.load(open(out + ".meta.json"))
        assert "level" not in meta["options"]
        assert meta["seed"] == 4
        markers = str(tmp_path / "markers.csv")
        code = run_cli(
            ["predict", "--config", str(cfg), "--model", fitted_model, "--data", data_csv,
             "--out", markers]
        )
        assert code == 0
        meta = json.load(open(markers + ".meta.json"))
        assert meta["options"]["times"] == [0.1]
        assert meta["seed"] is None

    def test_bandwidth_key_is_the_hazard_smoothers(self, tmp_path, data_csv, fitted_model):
        # roc's marker kernel takes --marker-bandwidth, so a shared file's
        # hazard bandwidth leaves its weights alone
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("bandwidth = 0.001\n")
        t = format(float(np.median(load_dataset(data_csv).y)), ".17g")

        def roc(name, extra):
            out = tmp_path / f"auc_{name}.csv"
            code = run_cli(
                ["roc", "--model", fitted_model, "--data", data_csv, "--times", t,
                 "--out", str(out), "--out-roc", str(tmp_path / f"roc_{name}.csv"), *extra]
            )
            assert code == 0
            options = json.load(open(str(out) + ".meta.json"))["options"]
            del options["out"], options["out_roc"]
            return out.read_text(), options

        plain = roc("plain", [])
        assert roc("shared", ["--config", str(cfg)]) == plain
        assert plain[1]["marker_bandwidth"] is None
        out = str(tmp_path / "m.json")
        code = run_cli(
            ["fit", data_csv, "--config", str(cfg), "--penalty", "scad", "--level", "0",
             "--k-init", "1", "--restarts", "1", "--out", out]
        )
        assert code == 0
        assert json.load(open(out + ".meta.json"))["options"]["bandwidth"] == 0.001

    def test_marker_bandwidth_sets_the_roc_weights(self, tmp_path, data_csv, fitted_model):
        data = load_dataset(data_csv)
        t = float(np.median(data.y))
        out = tmp_path / "auc.csv"
        code = run_cli(
            ["roc", "--model", fitted_model, "--data", data_csv, "--times", format(t, ".17g"),
             "--marker-bandwidth", "0.001", "--out", str(out), "--out-roc", str(tmp_path / "roc.csv")]
        )
        assert code == 0
        markers = compute_marker(load_model(fitted_model), data, "mixture_event_prob", t)
        narrow = auc(roc_curve(markers, censoring_weights(markers, data, t, bandwidth=0.001)))
        default = auc(roc_curve(markers, censoring_weights(markers, data, t)))
        assert narrow != default
        assert float(out.read_text().splitlines()[1].split(",")[1]) == narrow


class TestFit:
    def test_fit_writes_model_and_meta(self, tmp_path, data_csv, capsys):
        out = str(tmp_path / "m.json")
        code = run_cli(
            ["fit", data_csv, "--penalty", "scad", "--level", "0",
             "--k-init", "1", "--restarts", "1", "--out", out]
        )
        assert code == 0
        model = load_model(out)
        assert model.params.K == 1
        meta = json.load(open(out + ".meta.json"))
        assert meta["command"] == "fit"
        assert meta["options"]["penalty"] == "scad"
        assert "K = 1" in capsys.readouterr().out

    def test_fit_meta_records_the_outcome(self, tmp_path, data_csv):
        out = str(tmp_path / "m.json")
        code = run_cli(
            ["fit", data_csv, "--penalty", "scad", "--level", "0.05", "--k-init", "3",
             "--restarts", "3", "--max-iter", "200", "--seed", "4", "--out", out]
        )
        assert code == 0
        meta = json.load(open(out + ".meta.json"))
        spec = PenaltySpec(kind="scad", level=0.05)
        config = EMConfig(k_init=3, max_iterations=200, restarts=3, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_mixture(load_dataset(data_csv), spec, config)
        d = model.diagnostics
        assert meta["outcome"] == {
            "converged": d["converged"], "iterations": d["iterations"],
            "em_iterations_total": d["em_iterations_total"], "restarts_screened": d["restarts_screened"],
        }
        assert meta["outcome"]["em_iterations_total"] >= meta["outcome"]["iterations"] > 0
        # what the run did is not an option a config file could set
        assert "converged" not in meta["options"]

    def test_fit_prints_the_last_objective(self, tmp_path, data_csv, capsys):
        out = str(tmp_path / "m.json")
        code = run_cli(
            ["fit", data_csv, "--penalty", "scad", "--level", "0.05",
             "--k-init", "2", "--restarts", "1", "--max-iter", "40", "--out", out]
        )
        assert code == 0
        printed = re.search(r"penalized loglik = (\S+)", capsys.readouterr().out).group(1)
        assert printed == f"{load_model(out).history[-1]:.6f}"

    def test_fit_is_deterministic(self, tmp_path, data_csv):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        argv = ["fit", data_csv, "--penalty", "mcp", "--level", "0.05",
                "--k-init", "2", "--restarts", "1", "--max-iter", "80", "--seed", "5"]
        assert run_cli(argv + ["--out", a]) == 0
        assert run_cli(argv + ["--out", b]) == 0
        assert open(a).read() == open(b).read()

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        code = run_cli(
            ["fit", str(tmp_path / "absent.csv"), "--penalty", "scad", "--level", "0"]
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_bad_status_value_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,status,x1\n1.0,1,0.5\n2.0,2,0.3\n")
        code = run_cli(["fit", str(bad), "--penalty", "scad", "--level", "0"])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_overflowing_baseline_is_numerical_failure(self, tmp_path, capsys):
        # with x1 + 300 every restart reaches a baseline at x = 0 past the
        # float range; that is a numerical failure, not a usage error
        data, _ = generate_dataset(SimConfig(600, censor_target=0.05, seed=2026), np.random.default_rng(1))
        path = str(tmp_path / "shifted.csv")
        save_dataset(Dataset(y=data.y, delta=data.delta, x=data.x + [300.0, 0.0]), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["fit", path, "--penalty", "scad", "--level", "0.1", "--out", str(tmp_path / "m.json")])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_dataset_without_covariates_fits_and_scores(self, tmp_path, data_csv):
        data = load_dataset(data_csv)
        bare = str(tmp_path / "bare.csv")
        save_dataset(Dataset(y=data.y, delta=data.delta, x=np.empty((data.n, 0))), bare)
        model = str(tmp_path / "m.json")
        assert run_cli(["fit", bare, "--penalty", "scad", "--level", "0", "--k-init", "1",
                        "--restarts", "1", "--out", model]) == 0
        assert load_model(model).params.beta.shape == (1, 0)
        t = format(float(np.median(data.y)), ".17g")
        assert run_cli(["roc", "--model", model, "--data", bare, "--times", t,
                        "--out", str(tmp_path / "auc.csv"), "--out-roc", str(tmp_path / "roc.csv")]) == 0

    def test_missing_level_is_usage_error(self, data_csv, capsys):
        assert run_cli(["fit", data_csv, "--penalty", "scad"]) == 2
        assert "missing required option --level" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "tune"])
    @pytest.mark.parametrize("bandwidth", ["0", "-1", "nan", "inf"])
    def test_invalid_bandwidth_is_usage_error(self, tmp_path, data_csv, capsys, command, bandwidth):
        argv = [command, data_csv, "--penalty", "scad", "--k-init", "1", "--restarts", "1",
                "--bandwidth", bandwidth, "--out", str(tmp_path / "m.json")]
        code = run_cli(argv + (["--level", "0"] if command == "fit" else ["--c-grid", "0.5"]))
        assert code == 2
        assert "bandwidth must be positive and finite" in capsys.readouterr().err


class TestTune:
    def test_tune_writes_report_model_and_meta(self, tmp_path, data_csv, capsys):
        out = str(tmp_path / "grid.csv")
        out_model = str(tmp_path / "best.json")
        code = run_cli(
            ["tune", data_csv, "--penalty", "scad", "--c-grid", "0.3,0.8",
             "--k-init", "2", "--restarts", "1", "--max-iter", "80", "--seed", "3",
             "--out", out, "--out-model", out_model]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "level", "k_hat", "bic", "loglik", "iterations", "converged"]
        assert len(rows) == 3
        model = load_model(out_model)
        assert model.params.K >= 1
        meta = json.load(open(out + ".meta.json"))
        assert meta["options"]["c_grid"] == [0.3, 0.8]
        # the summary line names one grid row, the one whose model was saved
        summaries = {
            f"wrote {out} and {out_model}: best c = {float(c):g}, K = {k}, BIC = {float(bic):.6f}"
            for c, _, k, bic, *_ in rows[1:] if int(k) == model.params.K
        }
        assert capsys.readouterr().out.strip() in summaries

    def test_single_record_tune_is_numerical_failure(self, tmp_path, capsys):
        # modified BIC needs log(log(n + K)) > 0; one record cannot satisfy it
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("time,status,x1\n1.0,1,0.5\n")
        code = run_cli(
            ["tune", str(tiny), "--penalty", "scad", "--c-grid", "0.5",
             "--k-init", "1", "--restarts", "1"]
        )
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_cn_constant_is_usage_error(self, data_csv, capsys):
        code = run_cli(["tune", data_csv, "--penalty", "scad", "--c-grid", "0.5", "--cn-constant", "nan"])
        assert code == 2
        assert "cn_constant must be finite and positive" in capsys.readouterr().err


    def test_meta_reproduces_run(self, tmp_path, data_csv):
        out = str(tmp_path / "grid.csv")
        out_model = str(tmp_path / "best.json")
        code = run_cli(
            ["tune", data_csv, "--penalty", "scad", "--c-grid", "0.3,0.8",
             "--shape", "5", "--epsilon", "1e-3", "--prune", "1e-4",
             "--k-init", "2", "--restarts", "1", "--max-iter", "80", "--seed", "3",
             "--out", out, "--out-model", out_model]
        )
        assert code == 0
        meta = json.load(open(out + ".meta.json"))
        options = meta["options"]
        assert options["shape"] == 5.0
        assert options["epsilon"] == 1e-3
        assert options["prune"] == 1e-4
        rerun_out = str(tmp_path / "grid2.csv")
        rerun_model = str(tmp_path / "best2.json")
        lines = [f"seed = {meta['seed']}"]
        for key, value in {**options, "out": rerun_out, "out_model": rerun_model}.items():
            if isinstance(value, list):
                value = ",".join(repr(v) for v in value)
            if value is not None:
                lines.append(f"{key} = {value}")
        cfg = tmp_path / "rerun.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert run_cli(["tune", options["data"], "--config", str(cfg)]) == 0
        assert open(rerun_out, "rb").read() == open(out, "rb").read()
        assert open(rerun_model, "rb").read() == open(out_model, "rb").read()

    def test_zero_workers_is_usage_error(self, tmp_path, data_csv, capsys):
        code = run_cli(
            ["tune", data_csv, "--penalty", "scad", "--c-grid", "0.8", "--workers", "0",
             "--k-init", "1", "--restarts", "1", "--out", str(tmp_path / "grid.csv"),
             "--out-model", str(tmp_path / "best.json")]
        )
        assert code == 2
        assert "workers must be at least 1" in capsys.readouterr().err


class TestPredictAndRoc:
    def test_predict_event_prob_columns(self, tmp_path, data_csv, fitted_model, capsys):
        out = str(tmp_path / "markers.csv")
        code = run_cli(
            ["predict", "--model", fitted_model, "--data", data_csv,
             "--times", "0.1,0.25", "--out", out]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["marker_t0.1", "marker_t0.25"]
        assert len(rows) == 61
        vals = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.all((vals >= 0) & (vals <= 1))
        # longer horizons only raise model event probabilities
        assert np.all(vals[:, 1] >= vals[:, 0] - 1e-12)

    def test_predict_posterior_lp_single_column(self, tmp_path, data_csv, fitted_model):
        out = str(tmp_path / "markers.csv")
        code = run_cli(
            ["predict", "--model", fitted_model, "--data", data_csv,
             "--marker-mode", "mixture_posterior_lp", "--out", out]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["marker"]
        assert len(rows) == 61

    def test_predict_without_times_is_usage_error(self, tmp_path, data_csv, fitted_model, capsys):
        out = str(tmp_path / "markers.csv")
        code = run_cli(["predict", "--model", fitted_model, "--data", data_csv, "--out", out])
        assert code == 2
        assert "--times" in capsys.readouterr().err

    def test_roc_outputs(self, tmp_path, data_csv, fitted_model, capsys):
        data = load_dataset(data_csv)
        t = float(np.median(data.y))
        out_auc = str(tmp_path / "auc.csv")
        out_roc = str(tmp_path / "roc.csv")
        code = run_cli(
            ["roc", "--model", fitted_model, "--data", data_csv,
             "--times", format(t, ".17g"), "--out", out_auc, "--out-roc", out_roc]
        )
        assert code == 0
        with open(out_auc, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "auc"]
        value = float(rows[1][1])
        assert 0.5 < value <= 1.0
        with open(out_roc, newline="") as fh:
            roc_rows = list(csv.reader(fh))
        assert roc_rows[0] == ["time", "threshold", "sensitivity", "one_minus_specificity"]
        sens = np.array([float(r[2]) for r in roc_rows[1:]])
        assert sens[0] == 0.0
        assert sens[-1] == 1.0
        assert "AUC" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["cox_linear_predictor", "mixture_posterior_lp"])
    def test_roc_computes_a_horizon_free_marker_once(
        self, tmp_path, data_csv, fitted_model, mode, monkeypatch
    ):
        data = load_dataset(data_csv)
        times = [format(float(q), ".17g") for q in np.quantile(data.y, [0.25, 0.5, 0.75])]

        def roc(name, horizons):
            out, out_roc = tmp_path / f"auc_{name}.csv", tmp_path / f"roc_{name}.csv"
            code = run_cli(
                ["roc", "--model", fitted_model, "--data", data_csv, "--marker-mode", mode,
                 "--times", ",".join(horizons), "--out", str(out), "--out-roc", str(out_roc)]
            )
            assert code == 0
            return [path.read_text().splitlines() for path in (out, out_roc)]

        # one horizon per run is the per-horizon loop
        single = [roc(str(i), [t]) for i, t in enumerate(times)]
        calls = []
        compute_marker = cli.compute_marker

        def counting(*args):
            calls.append(args)
            return compute_marker(*args)

        monkeypatch.setattr(cli, "compute_marker", counting)
        together = roc("all", times)
        assert len(calls) == 1
        for k, lines in enumerate(together):
            assert lines == single[0][k][:1] + [row for runs in single for row in runs[k][1:]]

    @pytest.mark.parametrize(
        "command, mode",
        [("predict", "mixture_event_prob"), ("roc", "mixture_event_prob"), ("roc", "mixture_posterior_lp")],
    )
    def test_nan_horizon_is_usage_error(self, tmp_path, data_csv, fitted_model, capsys, command, mode):
        out = tmp_path / "out.csv"
        argv = [command, "--model", fitted_model, "--data", data_csv, "--marker-mode", mode,
                "--times", "nan,0.1", "--out", str(out)]
        if command == "roc":
            argv += ["--out-roc", str(tmp_path / "roc.csv")]
        assert run_cli(argv) == 2
        assert "the horizon t is NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "roc"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_malformed_model_is_usage_error(self, tmp_path, data_csv, capsys, command, case):
        data = load_dataset(data_csv)
        w = np.linspace(0.2, 0.8, data.n)
        spec = PenaltySpec(kind="scad", level=0.0)
        model = FittedModel(params=stack_fits(data, [0.5, 0.5], [w, 1.0 - w]), spec=spec, seed=0)
        path = tmp_path / "bad.json"
        path.write_text(malformed_model_text(model_to_json(model), case))
        code = run_cli(
            [command, "--model", str(path), "--data", data_csv, "--times", "0.5",
             "--out", str(tmp_path / "out.csv")]
        )
        assert code == 2
        assert re.search(MALFORMED_MODELS[case][1], capsys.readouterr().err)

    def test_roc_on_data_with_other_covariate_count_is_usage_error(self, tmp_path, fitted_model, capsys):
        wide = str(tmp_path / "wide.csv")
        save_dataset(simulate_single(60, 3, [0.8, -0.5, 0.2], seed=5, censor_frac=0.15), wide)
        code = run_cli(
            ["roc", "--model", fitted_model, "--data", wide, "--times", "0.5",
             "--out", str(tmp_path / "auc.csv")]
        )
        assert code == 2
        assert "model has 2 coefficients per component, data has 3 covariates" in capsys.readouterr().err

    def test_roc_requires_times(self, tmp_path, data_csv, fitted_model, capsys):
        code = run_cli(
            ["roc", "--model", fitted_model, "--data", data_csv,
             "--out", str(tmp_path / "auc.csv")]
        )
        assert code == 2
        assert "missing required option --times" in capsys.readouterr().err


    def test_no_seed_option(self, tmp_path, data_csv, fitted_model, monkeypatch):
        monkeypatch.chdir(tmp_path)  # roc writes its default --out-roc here
        for command in ("predict", "roc"):
            out = str(tmp_path / f"{command}.csv")
            argv = [command, "--model", fitted_model, "--data", data_csv, "--times", "0.1",
                    "--out", out]
            assert run_cli(argv + ["--seed", "1"]) == 2
            assert run_cli(argv) == 0
            assert json.load(open(out + ".meta.json"))["seed"] is None


class TestStudy:
    def test_small_study_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "study.csv")
        code = run_cli(
            ["study", "--penalty", "scad", "--n", "100", "--censor", "0",
             "--replications", "1", "--c-grid", "0.8", "--k-init", "2",
             "--restarts", "1", "--max-iter", "60", "--seed", "5", "--out", out]
        )
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0].startswith("penalty,n,censor_target")
        assert len(lines) == 1 + 2 * 3  # K * (1 + p) rows
        meta = json.load(open(out + ".meta.json"))
        assert meta["options"]["replications"] == 1
        assert "scad" in meta["options"]["failures"]
        assert "excluded" in capsys.readouterr().out

    def test_unknown_penalty_kind_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            ["study", "--penalty", "ridge", "--n", "50", "--replications", "1",
             "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "unknown penalty kind" in capsys.readouterr().err

    def test_repeated_penalty_kind_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli(
            ["study", "--penalty", "scad,scad", "--n", "50", "--replications", "1",
             "--out", str(out)]
        )
        assert code == 2
        assert "each named once" in capsys.readouterr().err
        assert not out.exists()


class TestOptionTable:
    def test_readme_invocations_parse(self, tmp_path, monkeypatch):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = [line.strip() for line in text.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("coxmix ")]
        parser = build_parser()
        assert {parser.parse_args(argv).command for argv in commands} == set(COMMANDS)
        # run each line in order, so later lines read what earlier ones wrote;
        # the 100-replication study is left to test_small_study_round_trip
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            if argv[0] == "study":
                continue
            assert run_cli(argv) == 0, argv
            outputs = [argv[i + 1] for i, arg in enumerate(argv) if arg.startswith(("--out", "--labels-out"))]
            assert outputs and all((tmp_path / name).is_file() for name in outputs), argv

    def test_help_lists_every_declared_flag(self, capsys):
        for command, (_, _, options) in COMMANDS.items():
            assert main([command, "--help"]) == 0
            out = capsys.readouterr().out
            for flag in ["--config", *(opt.flag for opt in options)]:
                assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", out), (command, flag)
