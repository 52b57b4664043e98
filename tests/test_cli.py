"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import copy
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import secantboost.losses as losses_module
from conftest import logistic_nan_below, logistic_hole, logistic_then, separable_dataset
from secantboost import BoostConfig, LossSpec, make_builtin
from secantboost.cli import (
    EXIT_CONFIG,
    EXIT_CONSTANT_LOSS,
    EXIT_DATA,
    EXIT_DISCONTINUITY,
    EXIT_OK,
    MAX_TREE_DEPTH,
    SEED_ENV_VAR,
    RunConfig,
    _config_from_args,
    build_boost_config,
    build_loss,
    build_parser,
    load_model,
    main,
    save_model,
)
from secantboost.data import load_csv
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
def mixed_csv(tmp_path):
    """Numeric a and categorical c; the label is a > 0.1 or c == x, and a stump splits on a."""
    rng = np.random.default_rng(13)
    lines = ["a,c,label"]
    for _ in range(40):
        a, c = rng.normal(), rng.choice(["x", "y", "z"])
        lines.append(f"{a:.6f},{c},{int(a > 0.1 or c == 'x')}")
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def one_class_csv(tmp_path):
    """train_csv's shape with every label 1."""
    rng = np.random.default_rng(14)
    lines = ["a,b,label"] + [f"{a:.6f},{b:.6f},1" for a, b in rng.normal(size=(12, 2))]
    path = tmp_path / "one_class.csv"
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

    def test_unknown_categorical_column_exits_3(self, tmp_path, train_csv, capsys):
        code = main(["train", "--categorical", "nosuch", train_csv, str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "categorical columns ['nosuch'] not in header" in capsys.readouterr().err

    def test_missing_data_exits_3(self, tmp_path):
        code = main(["train", str(tmp_path / "nope.csv"), str(tmp_path / "out")])
        assert code == EXIT_DATA

    def test_one_class_exits_3(self, tmp_path, one_class_csv, capsys):
        # Every label 1 leaves a tree nothing to separate; nothing is written.
        out = tmp_path / "out"
        assert main(["train", "-T", "3", one_class_csv, str(out)]) == EXIT_DATA
        assert "every label is class +1; training needs both classes" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_value_exits_2(self, tmp_path, train_csv):
        assert main(["train", "-T", "0", train_csv, str(tmp_path / "o")]) == EXIT_CONFIG
        assert (
            main(["train", "--loss", "unknown_loss", train_csv, str(tmp_path / "o")])
            == EXIT_CONFIG
        )

    @pytest.mark.parametrize(
        "flag",
        [
            ["--max-nodes", "0"],
            ["--delta-init", "0"],
            ["--epsilon", "0"],
            ["--precision-Z", "1"],
            ["--loss-param", "Q"],
            ["--loss-param", "Q=abc"],
        ],
        ids=lambda flag: " ".join(flag),
    )
    def test_out_of_range_flag_exits_2(self, tmp_path, train_csv, capsys, flag):
        assert main(["train", *flag, train_csv, str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_unallocatable_precision_exits_2(self, tmp_path, train_csv, capsys):
        # spring's offsets are scanned per example on a grid of precision_Z
        # points; 10**15 of them exceed a 47-bit address space, so the
        # allocation fails at once without touching memory.
        flags = ["--loss", "spring", "--loss-param", "Q=500", "--precision-Z", str(10**15)]
        assert main(["train", *flags, train_csv, str(tmp_path / "o")]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("out of memory: ") and err.count("\n") == 1, err

    def test_stalled_guard_exits_5(self, tmp_path, train_csv, capsys, monkeypatch):
        import secantboost.boost as boost_module

        monkeypatch.setattr(boost_module, "GUARD_CAP", 0)
        assert main(["train", "-T", "3", train_csv, str(tmp_path / "o")]) == EXIT_DISCONTINUITY
        err = capsys.readouterr().err
        assert err == (
            "discontinuity collision: no smoothness step met its decrease bound after 0 halvings\n"
        )

    def test_non_finite_loss_exits_2(self, tmp_path, train_csv, capsys, monkeypatch):
        monkeypatch.setattr(losses_module, "_REGISTRY", {})
        losses_module.register_loss("broken", lambda: logistic_then(math.nan))
        code = main(["train", "--loss", "broken", "-T", "30", train_csv, str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "returned nan at z=" in capsys.readouterr().err

    def test_invalid_declared_beta_exits_2(self, tmp_path, train_csv, capsys, monkeypatch):
        def factory():
            evaluate = make_builtin("logistic").evaluate
            return LossSpec("bad_beta", evaluate, is_convex=True, smoothness_beta=-1.0)

        monkeypatch.setattr(losses_module, "_REGISTRY", {})
        losses_module.register_loss("bad_beta", factory)
        code = main(["train", "--loss", "bad_beta", "-T", "5", train_csv, str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "need 0 < smoothness_beta < inf, got -1.0" in capsys.readouterr().err

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
        losses_module.register_loss("holed", lambda: logistic_hole(0.30, 0.31))
        code = main(["train", "--loss", "holed", "-T", "30", str(data), str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "returned nan at z=" in err
        assert 0.30 < float(err.split("z=")[1].split(";")[0]) < 0.31

    def test_inf_between_finite_edges_exits_2(self, tmp_path, capsys, monkeypatch):
        S = separable_dataset(m=120, seed=3)
        rows = [f"{a!r},{b!r},{int(y)}" for a, b, y in zip(*S.columns, S.labels.tolist())]
        data = tmp_path / "separable.csv"
        data.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        monkeypatch.setattr(losses_module, "_REGISTRY", {})
        # No margin of this run lands in (0.40, 0.41); only a chord-gap grid crosses it.
        losses_module.register_loss("inf_holed", lambda: logistic_hole(0.40, 0.41, bad=math.inf))
        code = main(["train", "--loss", "inf_holed", "-T", "30", str(data), str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "returned inf at z=" in err
        assert 0.40 < float(err.split("z=")[1].split(";")[0]) < 0.41


class TestLargeDeltaInit:
    """The halving search's cap counts from the default start, so a large
    delta_init on a continuous loss is no discontinuity."""

    @pytest.mark.parametrize(
        "loss, delta_init", [("hinge", "1e200"), ("hinge", "1e308"), ("spring", "1e300")]
    )
    def test_continuous_loss_trains(self, tmp_path, train_csv, capsys, loss, delta_init):
        flags = ["-T", "3", "--loss", loss, "--delta-init", delta_init]
        assert main(["train", *flags, train_csv, str(tmp_path / "o")]) == EXIT_OK
        assert '"stop_reason": "completed"' in capsys.readouterr().out

    @pytest.mark.parametrize("delta_init", ["inf", "nan"])
    def test_non_finite_delta_init_exits_2(self, tmp_path, train_csv, capsys, delta_init):
        flags = ["-T", "3", "--loss", "zero_one", "--delta-init", delta_init]
        assert main(["train", *flags, train_csv, str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: delta_init must be positive and finite, got {delta_init}\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_overflowing_loss_exits_2(self, tmp_path, train_csv, capsys):
        flags = ["-T", "3", "--loss", "exponential", "--delta-init", "1e300"]
        assert main(["train", *flags, train_csv, str(tmp_path / "o")]) == EXIT_CONFIG
        assert "loss 'exponential' returned inf at z=" in capsys.readouterr().err


class TestOffsetBudget:
    """A knob whose offset budget epsilon*alpha^2*M^2*w2_bar under- or
    overflows exits 2 naming alpha, epsilon and the knob."""

    @pytest.mark.parametrize(
        "flags, knob",
        [
            (["--epsilon", "1e200"], "epsilon=1e+200"),  # alpha^2 underflows
            (["--loss", "hinge", "--delta-init", "1e-200"], "delta_init=1e-200"),  # likewise
            (["--loss", "hinge", "--delta-init", "1e-310"], "delta_init=1e-310"),  # epsilon = inf
            (["--loss", "hinge", "--delta-init", "5e-324"], "delta_init=5e-324"),  # no edge moves
        ],
        ids=["epsilon_1e200", "delta_init_1e-200", "delta_init_1e-310", "delta_init_5e-324"],
    )
    def test_out_of_range_budget_exits_2(self, tmp_path, train_csv, capsys, flags, knob):
        code = main(["train", "-T", "5", *flags, train_csv, str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: offset budget z_limit=" in err
        assert "alpha=" in err and "epsilon=" in err and knob in err


@pytest.fixture()
def trained_model(tmp_path, train_csv, capsys):
    out = tmp_path / "run"
    assert main(["train", "-T", "2", train_csv, str(out)]) == EXIT_OK
    capsys.readouterr()
    return out / "model.json"


@pytest.fixture()
def mixed_model(tmp_path, mixed_csv, capsys):
    """A stump model on mixed_csv; its first root tests numeric feature 0."""
    out = tmp_path / "mixed_run"
    assert main(["train", "-T", "2", mixed_csv, str(out)]) == EXIT_OK
    capsys.readouterr()
    model = out / "model.json"
    root = json.loads(model.read_text())["terms"][0]["tree"]
    assert root["feature"] == 0 and "threshold" in root
    return model


_DROP = object()


def _edit(*keys, value=_DROP):
    """An edit of a model payload: set the item at the key path, or drop it."""

    def edit(payload):
        node = payload
        for key in keys[:-1]:
            node = node[key]
        if value is _DROP:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return payload

    return edit


# Structurally malformed models: eval exits 3.
MALFORMED_MODELS = {
    "not_an_object": lambda payload: [payload],
    "no_features": _edit("features"),
    "no_terms": _edit("terms"),
    "no_left": _edit("terms", 0, "tree", "left"),
    "feature_not_an_object": _edit("features", 0, value="a"),
    "feature_index_too_large": _edit("terms", 0, "tree", "feature", value=2),
    "feature_index_negative": _edit("terms", 0, "tree", "feature", value=-1),
    "h0_not_a_number": _edit("h0", value="x"),
    "h0_nan": _edit("h0", value=math.nan),
    "h0_bool": _edit("h0", value=True),
    "h0_too_large": _edit("h0", value=10**400),
    "alpha_inf": _edit("terms", 0, "alpha", value=math.inf),
    "alpha_bool": _edit("terms", 0, "alpha", value=False),
    "value_nan": _edit("terms", 0, "tree", "left", "value", value=math.nan),
    "value_bool": _edit("terms", 0, "tree", "right", "value", value=True),
    "threshold_inf": _edit("terms", 0, "tree", "threshold", value=-math.inf),
    "threshold_bool": _edit("terms", 0, "tree", "threshold", value=True),
    "no_threshold_nor_category": _edit("terms", 0, "tree", "threshold"),
    "threshold_and_category": _edit("terms", 0, "tree", "category", value="x"),
    "category_not_a_string": lambda payload: _edit("terms", 0, "tree", "category", value=5)(
        _edit("terms", 0, "tree", "threshold")(payload)
    ),
    # Feature 1 (c) is categorical, feature 0 (a) numeric.
    "threshold_on_categorical": _edit("terms", 0, "tree", "feature", value=1),
    "category_on_numeric": lambda payload: _edit("terms", 0, "tree", "category", value="y")(
        _edit("terms", 0, "tree", "threshold")(payload)
    ),
    "feature_type_unknown": _edit("features", 0, "type", value="text"),
    "feature_float": _edit("terms", 0, "tree", "feature", value=0.9),
    "feature_bool": _edit("terms", 0, "tree", "feature", value=False),
    "node_count_string": _edit("terms", 0, "node_count", value="1"),
    "node_count_bool": _edit("terms", 0, "node_count", value=True),
    "node_count_float": _edit("terms", 0, "node_count", value=1.0),
    "node_count_wrong": _edit("terms", 0, "node_count", value=5),
    "terms_object": _edit("terms", value={}),
    "terms_string": _edit("terms", value=""),
    "features_object": _edit("features", value={}),
    "no_seed": _edit("seed"),
    "seed_null": _edit("seed", value=None),
    "seed_float": _edit("seed", value=0.9),
    "seed_bool": _edit("seed", value=True),
    "seed_string": _edit("seed", value="x"),
    "seed_array": _edit("seed", value=[]),
    "seed_object": _edit("seed", value={}),
    "seed_not_the_config_seed": lambda payload: _edit("seed", value=-7)(
        _edit("config", "seed", value=3)(payload)
    ),
}

# Models whose version or config eval does not accept: eval exits 2.
BAD_MODEL_CONFIGS = {
    "version_bool": _edit("version", value=True),  # True == 1
    "version_float": _edit("version", value=1.0),
    "unknown_key": _edit("config", "extra", value=1),
    "mistyped_T": _edit("config", "T", value="2"),
    "mistyped_loss_params": _edit("config", "loss_params", value=[1]),
    "not_an_object": _edit("config", value=5),
    "negative_seed": _edit("config", "seed", value=-1),
}


class TestEval:
    @pytest.mark.parametrize("edit", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
    def test_malformed_model_exits_3(self, mixed_model, mixed_csv, capsys, edit):
        mixed_model.write_text(json.dumps(edit(json.loads(mixed_model.read_text()))))
        assert main(["eval", str(mixed_model), mixed_csv]) == EXIT_DATA
        assert "data error: model" in capsys.readouterr().err

    def test_too_deeply_nested_model_exits_3(self, tmp_path, train_csv, capsys):
        model = tmp_path / "model.json"
        model.write_text("[" * 5000 + "]" * 5000)  # valid JSON that json.load cannot recurse into
        assert main(["eval", str(model), train_csv]) == EXIT_DATA
        assert "data error: model" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", BAD_MODEL_CONFIGS.values(), ids=BAD_MODEL_CONFIGS)
    def test_bad_model_config_exits_2(self, trained_model, train_csv, capsys, edit):
        trained_model.write_text(json.dumps(edit(json.loads(trained_model.read_text()))))
        assert main(["eval", str(trained_model), train_csv]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

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

    def test_one_class_data_is_evaluated(self, trained_model, one_class_csv, capsys):
        assert main(["eval", str(trained_model), one_class_csv]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["m"] == 12

    def test_schema_mismatch_exits_3(self, tmp_path, train_csv, capsys):
        out = tmp_path / "run"
        assert main(["train", "-T", "2", train_csv, str(out)]) == EXIT_OK
        capsys.readouterr()
        other = tmp_path / "other.csv"
        other.write_text("c,label\n1,1\n2,-1\n")
        assert main(["eval", str(out / "model.json"), str(other)]) == EXIT_DATA

    def test_non_finite_loss_at_a_margin_exits_2(
        self, trained_model, train_csv, capsys, monkeypatch
    ):
        # logistic_then(nan) is NaN above z = 0.3, where some margins of the
        # trained model lie.
        monkeypatch.setattr(losses_module, "_REGISTRY", {})
        losses_module.register_loss("broken", lambda: logistic_then(math.nan))
        edit = _edit("config", "loss", value="broken")
        trained_model.write_text(json.dumps(edit(json.loads(trained_model.read_text()))))
        assert main(["eval", str(trained_model), train_csv]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "returned nan at z=" in err
        assert float(err.split("z=")[1].split(";")[0]) > 0.3

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
        ens, _, payload = load_model(str(out / "model.json"))
        assert len(ens.terms) == len(payload["terms"])
        for (alpha, h), term in zip(ens.terms, payload["terms"]):
            assert alpha == term["alpha"]
            assert h.node_count == term["node_count"]
            assert h.n_features == 2

    def test_save_load_save_is_byte_identical(self, tmp_path, mixed_csv, capsys):
        out = tmp_path / "run"
        assert main(["train", "-T", "4", "--max-nodes", "3", mixed_csv, str(out)]) == EXIT_OK
        capsys.readouterr()
        saved = (out / "model.json").read_bytes()
        assert b'"category"' in saved and b'"threshold"' in saved
        ens, cfg, _ = load_model(str(out / "model.json"))
        save_model(str(tmp_path / "again.json"), ens, cfg, load_csv(mixed_csv))
        assert (tmp_path / "again.json").read_bytes() == saved


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

    def test_one_class_exits_3(self, tmp_path, one_class_csv, capsys):
        out = tmp_path / "cv"
        assert main(["cv", "--folds", "4", one_class_csv, str(out)]) == EXIT_DATA
        assert "every label is class +1; training needs both classes" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_loss_exits_4(self, tmp_path, train_csv, flat_loss_csv, capsys):
        out = tmp_path / "cv"
        code = main(["cv", "--loss-table", flat_loss_csv, "--folds", "3", train_csv, str(out)])
        assert code == EXIT_CONSTANT_LOSS
        stdout, err = capsys.readouterr()
        assert "constant loss" in err
        # Each fold's telemetry documents the degenerate stop; no curves, no summary.
        for j in range(3):
            telemetry = (out / f"fold_{j:02d}_telemetry.csv").read_text().strip().split("\n")
            assert len(telemetry) == 2
            assert telemetry[1].split(",")[-1] == "zero_weights"
        assert not (out / "cv_curves.csv").exists()
        assert stdout == ""

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

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_non_finite_value_exits_2(self, capsys):
        # exp(800) overflows float64.
        code = main(["losses", "--loss", "exponential", "--lo", "-800", "--hi", "-700"])
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "loss 'exponential' returned inf at z=-800.0;" in err

    def test_unallocatable_steps_exits_2(self, capsys):
        # 10**15 float64 points exceed a 47-bit address space, so the
        # allocation fails at once without touching memory.
        assert main(["losses", "--steps", str(10**15)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("out of memory: ") and err.count("\n") == 1, err

    def test_bad_range_exits_2(self):
        assert main(["losses", "--lo", "1", "--hi", "0"]) == EXIT_CONFIG
        assert main(["losses", "--steps", "1"]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bounds",
        [
            ["--lo=-inf"],
            ["--hi=inf"],
            ["--lo=nan"],
            ["--loss", "square", "--lo=-1e308", "--hi=1e308"],
        ],
        ids=["lo_inf", "hi_inf", "lo_nan", "span_overflows"],
    )
    def test_non_finite_range_exits_2(self, capsys, bounds):
        # The range is at fault, not the loss: no grid point is evaluated.
        assert main(["losses", *bounds]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "config error: need finite --lo < --hi with a finite span hi - lo" in err

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

    def test_config_value_that_a_flag_overrides_is_checked(self, tmp_path, train_csv, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"folds": "x"}))
        argv = ["cv", "--config", str(cfg_path), "--folds", "2", "-T", "1", train_csv]
        assert main([*argv, str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: folds must be int, got 'x'\n"

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

    @pytest.mark.parametrize("command", ["train", "cv", "losses"])
    def test_negative_seed_exits_2(self, tmp_path, train_csv, capsys, monkeypatch, command):
        """numpy rejects a negative seed where the folds are drawn; the config
        check rejects it first, from the flag or the environment."""
        args = [] if command == "losses" else ["-T", "2", train_csv, str(tmp_path / "o")]
        monkeypatch.setenv(SEED_ENV_VAR, "-5")
        assert main([command, *args]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -5\n"
        if command != "losses":  # which has no --seed flag
            monkeypatch.setenv(SEED_ENV_VAR, "3")
            assert main([command, "--seed", "-1", *args]) == EXIT_CONFIG
            assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"

    def test_bad_env_seed_exits_2(self, tmp_path, train_csv, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["train", train_csv, str(tmp_path / "o")]) == EXIT_CONFIG
        assert main(["losses", "--steps", "3"]) == EXIT_CONFIG

    def test_booster_defaults_come_from_boost_config(self):
        assert build_boost_config(RunConfig()) == BoostConfig()

    def test_table_loss_is_named_table(self, flat_loss_csv):
        # RunConfig.loss defaults to "logistic"; a table loss must not take that name.
        assert build_loss(RunConfig(loss_table=flat_loss_csv)).name == "table"

    def test_runconfig_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(T=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(folds=1).validate()
        with pytest.raises(ConfigError):
            RunConfig(noise_eta=-0.5).validate()
        with pytest.raises(ConfigError):
            RunConfig(seed=-1).validate()
        assert RunConfig().validate() is not None


# A config-file value of the wrong type for each kind of RunConfig field.
MISTYPED = [
    ("folds", "3"),
    ("seed", "x"),
    ("loss_params", [1]),
    ("precision_Z", 4.5),
    ("max_nodes", 2.5),
    ("T", True),
    ("epsilon", "0.1"),
    ("noise_eta", False),
    ("loss_params", {"Q": "5"}),
    ("categorical", "a"),
    ("categorical", [1]),
    ("loss", 3),
    ("loss_table", 1),
    ("label_col", 1.5),
]


class TestUnreadableInput:
    """A file that is not UTF-8, or a CSV field past the csv module's limit,
    is reported as the reader's usual error with a one-line message."""

    @staticmethod
    def _one_line_error(capsys, prefix):
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(prefix) and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["train", "cv", "eval"])
    def test_non_utf8_data_exits_3(self, tmp_path, trained_model, command, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"a,b,label\n1,2,1\n\xff,3,-1\n")
        first = str(trained_model) if command == "eval" else str(data)
        second = str(data) if command == "eval" else str(tmp_path / "out")
        assert main([command, first, second]) == EXIT_DATA
        self._one_line_error(capsys, "data error: cannot read")

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_oversized_data_field_exits_3(self, tmp_path, command, capsys):
        data = tmp_path / "long.csv"
        data.write_text("a,label\n1,1\n" + "x" * 140_000 + ",-1\n")
        assert main([command, str(data), str(tmp_path / "out")]) == EXIT_DATA
        self._one_line_error(capsys, f"data error: {data}:3: field larger than field limit")

    @pytest.mark.parametrize(
        "content", [b"z,F\n0,1\n\xff,2\n", b"z,F\n0,1\n" + b"1" * 140_000 + b",2\n"],
        ids=["non_utf8", "oversized_field"],
    )
    def test_unreadable_loss_table_exits_2(self, tmp_path, train_csv, content, capsys):
        table = tmp_path / "table.csv"
        table.write_bytes(content)
        argv = ["train", "--loss-table", str(table), train_csv, str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        self._one_line_error(capsys, f"config error: cannot read {table}")

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_missing_loss_table_exits_2(self, tmp_path, train_csv, command, capsys):
        table = tmp_path / "nope.csv"
        argv = [command, "--loss-table", str(table), train_csv, str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        self._one_line_error(capsys, f"config error: cannot read {table}: [Errno 2]")

    def test_non_utf8_config_exits_2(self, tmp_path, train_csv, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"T": 2, "loss": "\xff"}')
        argv = ["train", "--config", str(cfg_path), train_csv, str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        self._one_line_error(capsys, f"config error: cannot read config {cfg_path}")

    def test_non_utf8_model_exits_3(self, trained_model, train_csv, capsys):
        trained_model.write_bytes(trained_model.read_bytes().replace(b'"h0"', b'"h0\xff"', 1))
        assert main(["eval", str(trained_model), train_csv]) == EXIT_DATA
        self._one_line_error(capsys, f"data error: cannot read model {trained_model}")


class TestConfigTypes:
    @pytest.mark.parametrize("key,value", MISTYPED)
    def test_mistyped_config_value_exits_2(self, tmp_path, train_csv, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), train_csv, str(out)]) == EXIT_CONFIG
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_mistyped_loss_params_with_flag_exits_2(self, tmp_path, train_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"loss_params": [1]}))
        argv = ["train", "--config", str(cfg_path), "--loss-param", "Q=2", train_csv, "o"]
        assert main(argv) == EXIT_CONFIG

    @pytest.mark.parametrize("text", ["5", "[]", "null", pytest.param("[" * 5000 + "]" * 5000, id="deep")])
    def test_non_object_config_exits_2(self, tmp_path, train_csv, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["train", "--config", str(cfg_path), train_csv, "o"]) == EXIT_CONFIG

    def test_well_typed_values_pass(self):
        cfg = RunConfig(label_col=2, loss_params={"Q": 5, "q": -1.5}, categorical=["a"])
        assert cfg.validate() is cfg
        assert RunConfig(loss_table=None, delta_init=2).validate() is not None


def _config_subparsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: sub.choices[name] for name in ("train", "cv")}


# One flag value per RunConfig field a flag sets: (argument, resulting value).
FLAG_SAMPLES = {
    "loss": ("spring", "spring"),
    "loss_table": ("table.csv", "table.csv"),
    "T": ("3", 3),
    "max_nodes": ("2", 2),
    "delta_init": ("0.5", 0.5),
    "epsilon": ("0.2", 0.2),
    "precision_Z": ("8", 8),
    "seed": ("7", 7),
    "label_col": ("y", "y"),
    "categorical": ("a", ["a"]),
    "noise_eta": ("0.1", 0.1),
    "folds": ("3", 3),
}


class TestFlagOverrides:
    """_config_from_args copies every flag whose dest names a RunConfig field."""

    def test_every_option_dest_is_a_field(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        for name, sub in _config_subparsers().items():
            dests = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
            assert dests - {"config", "loss_param"} <= fields, name
            assert dests - {"config", "loss_param"} <= set(FLAG_SAMPLES), name

    def test_each_flag_reaches_its_field(self, train_csv, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        default = RunConfig()
        seen = set()
        for name, sub in _config_subparsers().items():
            for action in sub._actions:
                if action.dest not in FLAG_SAMPLES:
                    continue
                arg, want = FLAG_SAMPLES[action.dest]
                argv = [name, action.option_strings[0], arg, train_csv, "out"]
                cfg = _config_from_args(build_parser().parse_args(argv))
                assert getattr(cfg, action.dest) == want != getattr(default, action.dest)
                changed = {
                    f.name for f in dataclasses.fields(RunConfig)
                    if getattr(cfg, f.name) != getattr(default, f.name)
                }
                assert changed == {action.dest}, argv
                seen.add(action.dest)
        assert seen == set(FLAG_SAMPLES)

    def test_categorical_twice(self, train_csv):
        argv = ["train", "--categorical", "a", "--categorical", "b", train_csv, "out"]
        assert _config_from_args(build_parser().parse_args(argv)).categorical == ["a", "b"]

    def test_loss_param_merges_with_config_file(self, tmp_path, train_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"loss": "spring", "loss_params": {"Q": 5.0, "q": -1.0}}))
        argv = ["train", "--config", str(cfg_path), "--loss-param", "Q=7", train_csv, "out"]
        cfg = _config_from_args(build_parser().parse_args(argv))
        assert cfg.loss_params == {"Q": 7.0, "q": -1.0}
        assert cfg.loss == "spring"


# The values set into each field of a JSON input, one at a time.
SUBSTITUTES = (None, True, -1, 0, 2, 0.5, "", "x", [], {})
_NUMBER = {"int", "float"}
_JSON_KINDS = {
    type(None): "null", bool: "bool", int: "int", float: "float",
    str: "string", list: "array", dict: "object",
}
# The JSON kinds each model.json member admits, by key (tree nodes at every
# depth share keys); the members of "config" admit their RunConfig type.
MODEL_KINDS = {
    "version": {"int"}, "h0": _NUMBER, "terms": {"array"}, "features": {"array"},
    "config": {"object"}, "seed": {"int"}, "alpha": _NUMBER, "node_count": {"int"},
    "tree": {"object"}, "left": {"object"}, "right": {"object"}, "feature": {"int"},
    "threshold": _NUMBER, "category": {"string"}, "value": _NUMBER,
    "name": {"string"}, "type": {"string"},
}
CONFIG_KINDS = {
    f.name: {
        "str": {"string"}, "str | None": {"string", "null"}, "str | int": {"string", "int"},
        "int": {"int"}, "float": _NUMBER, "dict[str, float]": {"object"}, "list[str]": {"array"},
    }[f.type]
    for f in dataclasses.fields(RunConfig)
}


def _member_paths(node, path=()):
    """The key path of every object member in a JSON value, at every depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _member_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _member_paths(value, path + (i,))


class TestGeneratedMalformedJson:
    """Every member of a trained model.json and of a --config file, set to
    each of SUBSTITUTES or deleted: the CLI returns 0, or 2 or 3 with a
    one-line message, and never raises.  A value of a kind the member does
    not admit, or a deleted model key outside "config", never returns 0."""

    @staticmethod
    def _failures(path, payload, kinds_of, argv, capsys):
        failures = []
        for member in _member_paths(payload):
            kinds, required = kinds_of(member)
            for value in SUBSTITUTES + (_DROP,):
                path.write_text(json.dumps(_edit(*member, value=value)(copy.deepcopy(payload))))
                try:
                    code = main(argv)
                except Exception as exc:  # listed with the other failures
                    code = type(exc).__name__
                out, err = capsys.readouterr()
                rejected = required if value is _DROP else _JSON_KINDS[type(value)] not in kinds
                allowed = (EXIT_CONFIG, EXIT_DATA) + (() if rejected else (EXIT_OK,))
                if code not in allowed or code != EXIT_OK and (out or err.count("\n") != 1):
                    failures.append((member, "deleted" if value is _DROP else value, code, err))
        return failures

    def test_model_members(self, tmp_path, mixed_csv, capsys):
        # One two-node tree: a threshold on numeric a, then a category of c.
        assert main(["train", "-T", "1", "--max-nodes", "2", mixed_csv, str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        model = tmp_path / "model.json"
        payload = json.loads(model.read_text())
        assert {"threshold", "category"} <= {member[-1] for member in _member_paths(payload)}

        def kinds_of(member):
            if member[0] == "config" and len(member) == 2:
                return CONFIG_KINDS[member[1]], False
            return MODEL_KINDS[member[-1]], True

        argv = ["eval", str(model), mixed_csv]
        assert self._failures(model, payload, kinds_of, argv, capsys) == []

    def test_config_members(self, tmp_path, mixed_csv, capsys):
        # --folds is a flag here; the file's folds is checked before the flag overrides it.
        payload = dataclasses.asdict(RunConfig(T=2))
        cfg_path = tmp_path / "cfg.json"
        argv = ["cv", "--config", str(cfg_path), "--folds", "2", mixed_csv, str(tmp_path / "cv")]

        def kinds_of(member):
            return CONFIG_KINDS[member[0]], False

        assert self._failures(cfg_path, payload, kinds_of, argv, capsys) == []


# A valid four-knot loss table, and the strings set into each of its cells.
TABLE_ROWS = (("-2", "2.13"), ("-0.5", "0.97"), ("0.5", "0.47"), ("2", "0.13"))
# "", "x" and "0x10" are no number; "nan", "inf" and "1e400" no finite one.
TABLE_NOT_FINITE = ("", "x", "nan", "inf", "1e400", "0x10")
TABLE_FINITE = ("1e308", "-0", " 1 ")


class TestGeneratedMalformedLossTable:
    """Each data cell of a valid --loss-table CSV set to each substitute, and
    each data row deleted, duplicated, cut to one cell or given a third: the
    CLI returns one of its exit codes, never raises, and prints a one-line
    message on a failure.  A cell that is no finite number, a duplicated
    abscissa and a row without exactly two cells return 2."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e308 knots overflow weight sums
    def test_mutated_tables(self, tmp_path, train_csv, capsys):
        table = tmp_path / "table.csv"
        argv = ["train", "-T", "2", "--loss-table", str(table), train_csv, str(tmp_path / "out")]
        cases = []  # (what, rows, the one exit code required or None)
        for i, j in itertools.product(range(len(TABLE_ROWS)), range(2)):
            for value in TABLE_NOT_FINITE + TABLE_FINITE:
                rows = [list(row) for row in TABLE_ROWS]
                rows[i][j] = value
                cases.append(((i, j, value), rows, EXIT_CONFIG if value in TABLE_NOT_FINITE else None))
        for i, row in enumerate(TABLE_ROWS):
            before, after = list(TABLE_ROWS[:i]), list(TABLE_ROWS[i + 1:])
            cases += [
                ((i, "deleted"), before + after, None),
                ((i, "duplicated"), before + [row, row] + after, EXIT_CONFIG),
                ((i, "one cell"), before + [row[:1]] + after, EXIT_CONFIG),
                ((i, "third cell"), before + [row + ("9",)] + after, EXIT_CONFIG),
            ]
        failures = []
        for what, rows, required in cases:
            table.write_text("z,F\n" + "".join(",".join(row) + "\n" for row in rows))
            try:
                code = main(argv)
            except Exception as exc:  # listed with the other failures
                code = type(exc).__name__
            _, err = capsys.readouterr()
            allowed = (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_CONSTANT_LOSS, EXIT_DISCONTINUITY)
            if (code not in allowed or required is not None and code != required
                    or code != EXIT_OK and err.count("\n") != 1):
                failures.append((what, code, err))
        assert failures == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("knot", [0, 3])
    def test_overflowing_decrease_bound_exits_2(self, tmp_path, train_csv, knot, capsys):
        # A 1e308 knot makes the edge about 1e303, whose square overflows the
        # decrease bound.
        values = ["1.0"] * 4
        values[knot] = "1e308"
        table = tmp_path / "table.csv"
        table.write_text("z,F\n" + "".join(f"{z},{v}\n" for z, v in zip((-100, -1, 1, 100), values)))
        argv = ["train", "-T", "2", "--loss-table", str(table), train_csv, str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        _, err = capsys.readouterr()
        assert err.startswith("config error: loss 'table' overflows the decrease bound at t=1")
        assert err.count("\n") == 1


# Loss tables whose values reach 1e308 over the 40 rows of train_csv:
# (knots, the knot set to 1e308, the start of the one stderr line).  h0 is
# 0, so where F(0) is near 1e308 the initial mean loss overflows; where it
# is not, the t=1 weights are finite (up to 1e308) but their total sum|w|
# overflows, or, with F(1) = 1e308, every weight is 1 and FindAlpha's trial
# edges overflow.
INITIAL_LOSS = (
    "config error: loss 'table' gives an initial mean loss that overflows to inf at h0=0.0 "
)
WEIGHT_TOTAL = (
    "config error: loss 'table' gives weights at t=1 whose total sum|w| overflows to inf "
    "(largest |w| = "
)
TRIAL_EDGE = "config error: loss 'table' overflows FindAlpha's trial edge to -inf at alpha=1.0; "
_KNOTS = (("-1", "2"), ("0", "1"), ("1", "0"), ("2", "0"))
OVERFLOW_TABLES = [
    (TABLE_ROWS, 0, WEIGHT_TOTAL),
    (TABLE_ROWS, 1, INITIAL_LOSS),
    (TABLE_ROWS, 2, INITIAL_LOSS),
    (_KNOTS, 0, WEIGHT_TOTAL),
    (_KNOTS, 1, INITIAL_LOSS),
    (_KNOTS, 2, TRIAL_EDGE),
    ((("-1", "1e308"), ("1", "9.9e307")), 0, INITIAL_LOSS),
]


class TestWeightTotalOverflow:
    """A 1e308 knot exits 2 with one stderr line naming what overflowed,
    and no RuntimeWarning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "knots, knot, message", OVERFLOW_TABLES,
        ids=[f"knots{i}-{knot}" for i, (_, knot, _) in enumerate(OVERFLOW_TABLES)],
    )
    def test_exits_2_naming_weight_total(self, tmp_path, train_csv, knots, knot, message, capsys):
        rows = [list(row) for row in knots]
        rows[knot][1] = "1e308"
        table = tmp_path / "table.csv"
        table.write_text("z,F\n" + "".join(",".join(row) + "\n" for row in rows))
        argv = ["train", "-T", "2", "--loss-table", str(table), train_csv, str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        _, err = capsys.readouterr()
        assert err.startswith(message), err
        assert err.count("\n") == 1


@pytest.fixture()
def chain_csv(tmp_path):
    """f0 = i with label 1 iff i*i mod 7 < 3: best-first growth on it makes a
    chain, so a tree's depth equals its number of internal nodes."""
    lines = ["f0,label"] + [f"{i},{int(i * i % 7 < 3)}" for i in range(2400)]
    path = tmp_path / "chain.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestDeepTree:
    @pytest.mark.parametrize("nodes", [MAX_TREE_DEPTH + 1, 1000])
    def test_train_refuses_deeper_than_bound(self, tmp_path, chain_csv, nodes, capsys):
        out = tmp_path / "out"
        assert main(["train", "-T", "1", "--max-nodes", str(nodes), chain_csv, str(out)]) == EXIT_CONFIG
        _, err = capsys.readouterr()
        assert err == (
            f"config error: tree 1 has depth {nodes}; a saved model holds trees of depth at most "
            f"{MAX_TREE_DEPTH} (lower --max-nodes)\n"
        )
        assert not (out / "model.json").exists()

    def test_model_at_bound_round_trips(self, tmp_path, chain_csv, capsys):
        out = tmp_path / "out"
        argv = ["train", "-T", "1", "--max-nodes", str(MAX_TREE_DEPTH), chain_csv, str(out)]
        assert main(argv) == EXIT_OK
        trained = json.loads(capsys.readouterr()[0])
        ens, _, _ = load_model(str(out / "model.json"))
        assert ens.terms[0][1].depth() == MAX_TREE_DEPTH
        assert main(["eval", str(out / "model.json"), chain_csv]) == EXIT_OK
        evaluated = json.loads(capsys.readouterr()[0])
        assert (evaluated["loss"], evaluated["error"]) == (trained["train_loss"], trained["train_err"])

    def test_cv_on_deep_trees(self, tmp_path, chain_csv, capsys):
        argv = ["cv", "-T", "1", "--max-nodes", "2400", chain_csv, str(tmp_path / "cv")]
        assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert json.loads(out)["folds"] == 10
        assert err == ""


# A valid 24-row data CSV: numeric a, categorical c, 0/1 labels; and the
# strings set into each cell of one of its rows.
DATA_ROWS = tuple(
    (f"{(i - 11.5) / 4:g}", "xyz"[i % 3], str(int((i - 11.5) / 4 > 0.1 or i % 3 == 0)))
    for i in range(24)
)
DATA_CELLS = ("", "x", "nan", "inf", "1e400", "1e308", "-0", " 1 ", "0x10", "2")
# The cells that are no finite number: set into a, they make it categorical.
DATA_NOT_NUMERIC = ("x", "nan", "inf", "1e400", "0x10")


class TestGeneratedMalformedDataCsv:
    """Each cell of one data row set to each substitute; the row deleted,
    duplicated, cut to one cell, given an extra cell or its a and c swapped;
    the file cut to its header or its header dropped.  train, and eval of a
    model trained on the clean file, return 0, 2 or 3 and never raise, with a
    one-line message on a failure.  Under eval, a mutation that makes column
    a categorical is a schema mismatch (exit 3)."""

    ROW = 5

    def _cases(self):
        header, rows = ("a", "c", "label"), [list(row) for row in DATA_ROWS]
        row = rows[self.ROW]
        before, after = rows[: self.ROW], rows[self.ROW + 1:]
        cases = []  # (what, header and rows, True if column a turns categorical)
        for j, value in itertools.product(range(3), DATA_CELLS):
            mutated = [list(r) for r in rows]
            mutated[self.ROW][j] = value
            cases.append(((header[j], value), [header] + mutated, j == 0 and value in DATA_NOT_NUMERIC))
        cases += [
            ("deleted", [header] + before + after, False),
            ("duplicated", [header] + before + [row, row] + after, False),
            ("one cell", [header] + before + [row[:1]] + after, False),
            ("extra cell", [header] + before + [row + ["9"]] + after, False),
            ("a and c swapped", [header] + before + [[row[1], row[0], row[2]]] + after, True),
            ("header only", [header], False),
            ("no header", rows, False),
        ]
        return cases

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e308 features overflow thresholds
    def test_mutated_data(self, tmp_path, capsys):
        clean = tmp_path / "clean.csv"
        clean.write_text("".join(",".join(r) + "\n" for r in (("a", "c", "label"),) + DATA_ROWS))
        assert main(["train", "-T", "2", "--max-nodes", "2", str(clean), str(tmp_path)]) == EXIT_OK
        model = str(tmp_path / "model.json")
        data = tmp_path / "data.csv"
        failures = []
        for what, rows, retyped in self._cases():
            data.write_text("".join(",".join(r) + "\n" for r in rows))
            capsys.readouterr()
            for argv in (
                ["train", "-T", "2", "--max-nodes", "2", str(data), str(tmp_path / "out")],
                ["eval", model, str(data)],
            ):
                try:
                    code = main(argv)
                except Exception as exc:  # listed with the other failures
                    code = type(exc).__name__
                _, err = capsys.readouterr()
                if (code not in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
                        or code != EXIT_OK and err.count("\n") != 1
                        or argv[0] == "eval" and retyped
                        and (code != EXIT_DATA or "schema mismatch" not in err)):
                    failures.append((what, argv[0], code, err))
        assert failures == []
