"""Tests for the command-line interface."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import secantboost.losses as losses_module
from conftest import logistic_nan_below, logistic_nan_between, logistic_then, separable_dataset
from secantboost.cli import (
    EXIT_CONFIG,
    EXIT_CONSTANT_LOSS,
    EXIT_DATA,
    EXIT_OK,
    SEED_ENV_VAR,
    RunConfig,
    load_model,
    main,
)
from secantboost.errors import ConfigError


@pytest.fixture()
def train_csv(tmp_path):
    rng = np.random.default_rng(12)
    lines = ["a,b,label"]
    for _ in range(40):
        x = rng.normal(size=2)
        y = 1 if x[0] + 0.5 * x[1] > 0 else 0
        lines.append(f"{x[0]:.6f},{x[1]:.6f},{y}")
    path = tmp_path / "train.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def flat_loss_csv(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("z,F\n-100,1.0\n100,1.0\n")
    return str(path)


class TestTrain:
    def test_train_writes_model_and_telemetry(self, tmp_path, train_csv, capsys):
        out = tmp_path / "run"
        code = main(["train", "-T", "5", "--seed", "3", train_csv, str(out)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] >= 1
        assert summary["stop_reason"] in ("completed", "zero_weights", "offsets_infeasible")
        telemetry = (out / "telemetry.csv").read_text().strip().split("\n")
        assert telemetry[0].startswith("t,train_loss,")
        assert len(telemetry) == summary["iterations"] + 1
        payload = json.loads((out / "model.json").read_text())
        assert payload["version"] == 1
        assert len(payload["terms"]) == summary["iterations"]

    def test_rerun_is_byte_identical(self, tmp_path, train_csv):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "-T", "4", "--seed", "9", train_csv, str(out1)]) == EXIT_OK
        assert main(["train", "-T", "4", "--seed", "9", train_csv, str(out2)]) == EXIT_OK
        assert (out1 / "telemetry.csv").read_bytes() == (out2 / "telemetry.csv").read_bytes()
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_constant_loss_exit_code(self, tmp_path, train_csv, flat_loss_csv, capsys):
        out = tmp_path / "flat_run"
        code = main(["train", "--loss-table", flat_loss_csv, train_csv, str(out)])
        assert code == EXIT_CONSTANT_LOSS
        assert "constant loss" in capsys.readouterr().err
        # The single telemetry row documents the degenerate stop; no model.
        telemetry = (out / "telemetry.csv").read_text().strip().split("\n")
        assert len(telemetry) == 2
        assert telemetry[1].split(",")[0] == "1"
        assert telemetry[1].split(",")[-1] == "zero_weights"
        assert not (out / "model.json").exists()

    def test_missing_data_exits_3(self, tmp_path):
        code = main(["train", str(tmp_path / "nope.csv"), str(tmp_path / "out")])
        assert code == EXIT_DATA

    def test_bad_flag_value_exits_2(self, tmp_path, train_csv):
        assert main(["train", "-T", "0", train_csv, str(tmp_path / "o")]) == EXIT_CONFIG
        assert (
            main(["train", "--loss", "unknown_loss", train_csv, str(tmp_path / "o")])
            == EXIT_CONFIG
        )

    def test_non_finite_loss_exits_2(self, tmp_path, train_csv, capsys, monkeypatch):
        monkeypatch.setattr(losses_module, "_REGISTRY", {})
        losses_module.register_loss("broken", lambda: logistic_then(math.nan))
        code = main(["train", "--loss", "broken", "-T", "30", train_csv, str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "returned nan at z=" in capsys.readouterr().err

    def test_non_finite_chord_slope_at_start_exits_2(self, tmp_path, train_csv, capsys, monkeypatch):
        monkeypatch.setattr(losses_module, "_REGISTRY", {})
        losses_module.register_loss("broken_start", lambda: logistic_nan_below(-0.5))
        code = main(["train", "--loss", "broken_start", "-T", "5", train_csv, str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "returned nan at z=-1.0" in capsys.readouterr().err

    def test_nan_between_finite_edges_exits_2(self, tmp_path, capsys, monkeypatch):
        S = separable_dataset(m=120, seed=3)
        rows = [f"{a!r},{b!r},{int(y)}" for a, b, y in zip(*S.columns, S.labels.tolist())]
        data = tmp_path / "separable.csv"
        data.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        monkeypatch.setattr(losses_module, "_REGISTRY", {})
        losses_module.register_loss("holed", lambda: logistic_nan_between(0.30, 0.31))
        code = main(["train", "--loss", "holed", "-T", "30", str(data), str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "returned nan at z=" in err
        assert 0.30 < float(err.split("z=")[1].split(";")[0]) < 0.31


class TestEval:
    def test_round_trip_matches_final_telemetry(self, tmp_path, train_csv, capsys):
        out = tmp_path / "run"
        assert main(["train", "-T", "5", "--seed", "3", train_csv, str(out)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        code = main(["eval", str(out / "model.json"), train_csv])
        assert code == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        # Exact agreement: eval rebuilds the same margins the trainer saw.
        assert metrics["error"] == summary["train_err"]
        assert metrics["loss"] == summary["train_loss"]
        assert metrics["m"] == 40

    def test_schema_mismatch_exits_3(self, tmp_path, train_csv, capsys):
        out = tmp_path / "run"
        assert main(["train", "-T", "2", train_csv, str(out)]) == EXIT_OK
        capsys.readouterr()
        other = tmp_path / "other.csv"
        other.write_text("c,label\n1,1\n2,-1\n")
        assert main(["eval", str(out / "model.json"), str(other)]) == EXIT_DATA

    def test_missing_model_exits_3(self, tmp_path, train_csv):
        assert main(["eval", str(tmp_path / "no.json"), train_csv]) == EXIT_DATA

    def test_wrong_version_exits_2(self, tmp_path, train_csv):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"version": 99, "features": [], "terms": [], "h0": 0}))
        assert main(["eval", str(model), train_csv]) == EXIT_CONFIG


class TestLoadModel:
    def test_tree_round_trip(self, tmp_path, train_csv, capsys):
        out = tmp_path / "run"
        assert (
            main(["train", "-T", "3", "--max-nodes", "2", train_csv, str(out)])
            == EXIT_OK
        )
        capsys.readouterr()
        ens, payload = load_model(str(out / "model.json"))
        assert len(ens.terms) == len(payload["terms"])
        for (alpha, h), term in zip(ens.terms, payload["terms"]):
            assert alpha == term["alpha"]
            assert h.node_count == term["node_count"]
            assert h.n_features == 2


class TestCv:
    def test_cv_outputs(self, tmp_path, train_csv, capsys):
        out = tmp_path / "cv"
        code = main(
            ["cv", "-T", "3", "--folds", "4", "--seed", "2", train_csv, str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["folds"] == 4
        for j in range(4):
            assert (out / f"fold_{j:02d}_telemetry.csv").exists()
        curves = (out / "cv_curves.csv").read_text().strip().split("\n")
        assert curves[0] == "t,fold_00,fold_01,fold_02,fold_03,mean_test_err"
        assert len(curves) == 4  # header + T rows
        last = curves[-1].split(",")
        assert last[0] == "3"
        mean = float(last[-1])
        np.testing.assert_allclose(
            mean, np.mean([float(c) for c in last[1:-1]]), rtol=1e-12
        )
        assert summary["final_mean_test_err"] == mean

    def test_noise_changes_training_but_is_deterministic(self, tmp_path, train_csv):
        out1, out2, out3 = (tmp_path / n for n in ("n1", "n2", "n0"))
        args = ["cv", "-T", "2", "--folds", "3", "--seed", "5", "--noise-eta", "0.2"]
        assert main(args + [train_csv, str(out1)]) == EXIT_OK
        assert main(args + [train_csv, str(out2)]) == EXIT_OK
        clean = ["cv", "-T", "2", "--folds", "3", "--seed", "5"]
        assert main(clean + [train_csv, str(out3)]) == EXIT_OK
        a = (out1 / "cv_curves.csv").read_bytes()
        assert a == (out2 / "cv_curves.csv").read_bytes()
        assert a != (out3 / "cv_curves.csv").read_bytes()

    def test_invalid_noise_exits_2(self, tmp_path, train_csv):
        code = main(
            ["cv", "--noise-eta", "1.0", train_csv, str(tmp_path / "cv")]
        )
        assert code == EXIT_CONFIG


class TestLossesCommand:
    def test_curve_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(
            ["losses", "--loss", "spring", "--loss-param", "Q=2",
             "--lo", "-1", "--hi", "1", "--steps", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "z,F"
        assert len(lines) == 6
        z0, f0 = lines[3].split(",")  # midpoint of [-1, 1] is z = 0
        assert float(z0) == 0.0
        assert float(f0) == pytest.approx(math.log(2.0), rel=1e-15)
        # Values are plain repr floats, not numpy scalars.
        assert "(" not in lines[1]

    def test_stdout_default(self, capsys):
        assert main(["losses", "--steps", "3", "--lo", "0", "--hi", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "z,F"
        assert len(lines) == 4

    def test_bad_range_exits_2(self):
        assert main(["losses", "--lo", "1", "--hi", "0"]) == EXIT_CONFIG
        assert main(["losses", "--steps", "1"]) == EXIT_CONFIG

    def test_broken_pipe_is_not_an_error(self, monkeypatch):
        import sys

        class _ClosedPipe:
            def write(self, *_args):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

            def close(self):
                pass

        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["losses", "--steps", "5"]) == EXIT_OK


class TestConfigResolution:
    def test_config_file_plus_flag_override(self, tmp_path, train_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"T": 2, "seed": 7, "loss": "logistic"}))
        out1 = tmp_path / "c1"
        assert (
            main(["train", "--config", str(cfg_path), "-T", "3", train_csv, str(out1)])
            == EXIT_OK
        )
        payload = json.loads((out1 / "model.json").read_text())
        assert payload["config"]["T"] == 3  # flag wins
        assert payload["config"]["seed"] == 7  # file value kept

    def test_unknown_config_key_exits_2(self, tmp_path, train_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iterations": 5}))
        code = main(
            ["train", "--config", str(cfg_path), train_csv, str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG

    def test_env_seed_is_default_only(self, tmp_path, train_csv, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        out1 = tmp_path / "e1"
        assert main(["train", "-T", "2", train_csv, str(out1)]) == EXIT_OK
        assert json.loads((out1 / "model.json").read_text())["seed"] == 123
        # An explicit flag beats the environment.
        out2 = tmp_path / "e2"
        assert main(["train", "-T", "2", "--seed", "4", train_csv, str(out2)]) == EXIT_OK
        assert json.loads((out2 / "model.json").read_text())["seed"] == 4

    def test_bad_env_seed_exits_2(self, tmp_path, train_csv, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["train", train_csv, str(tmp_path / "o")]) == EXIT_CONFIG

    def test_runconfig_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(T=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(folds=1).validate()
        with pytest.raises(ConfigError):
            RunConfig(noise_eta=-0.5).validate()
        assert RunConfig().validate() is not None
