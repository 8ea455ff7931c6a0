import csv
import json
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coxmix.cli import COMMANDS, build_parser, main
from coxmix.coxfit import fit_weighted_cox
from coxmix.data import load_dataset, save_dataset
from coxmix.em import FittedModel, load_model, model_to_json
from coxmix.penalties import PenaltySpec

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
        proc = subprocess.run(
            [sys.executable, "-m", "coxmix", "--version"],
            capture_output=True, text=True,
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
        assert "best c" in capsys.readouterr().out

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

    @pytest.mark.parametrize("command", ["predict", "roc"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_malformed_model_is_usage_error(self, tmp_path, data_csv, capsys, command, case):
        data = load_dataset(data_csv)
        w = np.linspace(0.2, 0.8, data.n)
        fits = [fit_weighted_cox(data, w), fit_weighted_cox(data, 1.0 - w)]
        spec = PenaltySpec(kind="scad", level=0.0)
        model = FittedModel(params=stack_fits([0.5, 0.5], fits), spec=spec, seed=0)
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


class TestOptionTable:
    def test_readme_invocations_parse(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = [line.strip() for line in text.replace("\\\n", " ").splitlines()]
        commands = [line for line in lines if line.startswith("coxmix ")]
        parser = build_parser()
        parsed = {parser.parse_args(shlex.split(line)[1:]).command for line in commands}
        assert parsed == set(COMMANDS)

    def test_help_lists_every_declared_flag(self, capsys):
        for command, (_, _, options) in COMMANDS.items():
            assert main([command, "--help"]) == 0
            out = capsys.readouterr().out
            for flag in ["--config", *(opt.flag for opt in options)]:
                assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", out), (command, flag)
