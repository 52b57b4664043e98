"""Command-line interface: train, eval, cv, and loss inspection.

Configuration comes from an optional JSON file plus flag overrides; the seed
default can also arrive through the SECANTBOOST_SEED environment variable.
Exit codes: 0 ok, 2 config (also a size too large to allocate), 3 data/I-O,
4 constant loss, 5 discontinuity collision (a jump point not avoided, or no
step after 200 halvings below the default start).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import boost, data, losses
from .errors import ConfigError, ConstantLossError, DataError, DiscontinuityCollisionError
from .trees import TreeNode, WeakHypothesis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONSTANT_LOSS = 4
EXIT_DISCONTINUITY = 5

SEED_ENV_VAR = "SECANTBOOST_SEED"

MODEL_VERSION = 1

# Deepest tree save_model writes.  A model nests one JSON object per tree
# level, and json.load decodes nested objects recursively, so a much deeper
# tree would not load back under Python's default recursion limit (1000).
MAX_TREE_DEPTH = 500


def _num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# The values each RunConfig annotation admits.
_FIELD_TYPES = {
    "str": lambda x: isinstance(x, str),
    "str | None": lambda x: x is None or isinstance(x, str),
    "str | int": lambda x: isinstance(x, str) or _int(x),
    "int": _int,
    "float": _num,
    "dict[str, float]": lambda x: (
        isinstance(x, dict) and all(isinstance(k, str) and _num(v) for k, v in x.items())
    ),
    "list[str]": lambda x: isinstance(x, list) and all(isinstance(c, str) for c in x),
}


@dataclass
class RunConfig:
    loss: str = "logistic"
    loss_params: dict[str, float] = field(default_factory=dict)
    loss_table: str | None = None
    T: int = 50
    max_nodes: int = boost.BoostConfig.max_nodes
    delta_init: float = boost.BoostConfig.delta_init
    epsilon: float = boost.BoostConfig.epsilon
    precision_Z: int = boost.BoostConfig.precision_Z
    noise_eta: float = 0.0
    folds: int = 10
    seed: int = boost.BoostConfig.seed
    label_col: str | int = "label"
    categorical: list[str] = field(default_factory=list)

    def validate(self) -> "RunConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _FIELD_TYPES[f.type](value):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.max_nodes < 1:
            raise ConfigError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if not 0 < self.delta_init < math.inf:
            raise ConfigError(f"delta_init must be positive and finite, got {self.delta_init}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.precision_Z < 2:
            raise ConfigError(f"precision_Z must be >= 2, got {self.precision_Z}")
        if not 0.0 <= self.noise_eta < 1.0:
            raise ConfigError(f"noise_eta must be in [0, 1), got {self.noise_eta}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


def build_loss(cfg: RunConfig) -> losses.LossSpec:
    if cfg.loss_table:
        return losses.load_table_loss(cfg.loss_table)
    return losses.make_builtin(cfg.loss, **cfg.loss_params)


def build_boost_config(cfg: RunConfig) -> boost.BoostConfig:
    return boost.BoostConfig(
        max_nodes=cfg.max_nodes,
        delta_init=cfg.delta_init,
        epsilon=cfg.epsilon,
        precision_Z=cfg.precision_Z,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# model (de)serialization


def _node_to_json(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    out = {"feature": node.feature, "left": _node_to_json(node.left), "right": _node_to_json(node.right)}
    if node.threshold is not None:
        out["threshold"] = node.threshold
    else:
        out["category"] = node.category
    return out


def _finite(x, what: str, integer: bool = False):
    """x as a float, or as an int if integer; ValueError unless it is a finite
    JSON number (not a bool), and an integer if integer (not 1.0)."""
    if not (_num(x) and math.isfinite(x) and (isinstance(x, int) or not integer)):
        raise ValueError(f"{what} must be a finite {'integer' if integer else 'number'}, got {x!r}")
    return x if integer else float(x)


def _node_from_json(obj: dict, kinds: list) -> TreeNode:
    """The tree at obj; each test must suit its feature's declared type in kinds."""
    if "value" in obj:
        return TreeNode(value=_finite(obj["value"], "leaf value"))
    feature = _finite(obj["feature"], "feature", integer=True)
    if not 0 <= feature < len(kinds):
        raise IndexError(f"feature {feature} outside [0, {len(kinds)})")
    numeric = kinds[feature] == "numeric"
    test = "threshold" if numeric else "category"
    tests = {key: obj[key] for key in ("threshold", "category") if key in obj}
    if tests.keys() != {test} or not (numeric or isinstance(tests[test], str)):
        raise ValueError(f"a node on {kinds[feature]} feature {feature} needs a {test}: {tests}")
    return TreeNode(
        feature=feature,
        threshold=_finite(obj["threshold"], "threshold") if numeric else None,
        category=obj.get("category"),
        left=_node_from_json(obj["left"], kinds),
        right=_node_from_json(obj["right"], kinds),
    )


def save_model(path: str, ens: boost.Ensemble, cfg: RunConfig, S: data.Dataset) -> None:
    """Write the ensemble to path as JSON.  The text is built before the file
    is opened; a tree deeper than MAX_TREE_DEPTH is a ConfigError and
    writes nothing."""
    for t, (_, h) in enumerate(ens.terms, start=1):
        depth = h.depth()
        if depth > MAX_TREE_DEPTH:
            raise ConfigError(
                f"tree {t} has depth {depth}; a saved model holds trees of depth at most "
                f"{MAX_TREE_DEPTH} (lower --max-nodes)"
            )
    payload = {
        "version": MODEL_VERSION,
        "h0": ens.h0,
        "terms": [
            {
                "alpha": alpha,
                "node_count": h.node_count,
                "tree": _node_to_json(h.root),
            }
            for alpha, h in ens.terms
        ],
        "features": [
            {"name": n, "type": k} for n, k in zip(S.feature_names, S.feature_types)
        ],
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
    }
    text = json.dumps(payload, indent=1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json(path: str, what: str, error: type[Exception]):
    """The JSON value in the file at path; error, naming what and path, when
    the file cannot be read or decoded or is not valid JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def load_model(path: str):
    """(ensemble, its RunConfig, the JSON payload) from a model.json.

    DataError for a malformed model or a top-level seed other than the
    config's; ConfigError for an unsupported version or an invalid config.
    """
    payload = _read_json(path, "model", DataError)
    if not isinstance(payload, dict):
        raise DataError(f"model {path} must hold a JSON object")
    version = payload.get("version")
    if not _int(version) or version != MODEL_VERSION:
        raise ConfigError(f"unsupported model version {version!r}")
    try:
        for key in ("terms", "features"):
            if not isinstance(payload[key], list):
                raise TypeError(f"{key} must be an array, got {payload[key]!r}")
        _finite(payload["seed"], "seed", integer=True)
        schema = [(f["name"], f["type"]) for f in payload["features"]]
        kinds = [kind for _, kind in schema]
        if not set(kinds) <= {"numeric", "categorical"}:
            raise ValueError(f"feature types must be numeric or categorical, got {kinds}")
        ens = boost.Ensemble(h0=_finite(payload["h0"], "h0"), n_features=len(kinds))
        for term in payload["terms"]:
            tree = _node_from_json(term["tree"], kinds)
            node_count = _finite(term["node_count"], "node_count", integer=True)
            h = WeakHypothesis(tree, node_count, len(kinds))
            internal = sum(1 for _ in h.iter_leaves()) - 1  # each internal node has two children
            if h.node_count != internal:
                raise ValueError(f"node_count {h.node_count} != {internal} internal nodes")
            ens.terms.append((_finite(term["alpha"], "alpha"), h))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"model {path} is malformed: {type(exc).__name__}: {exc}") from None
    cfg = _merged(RunConfig(), payload.get("config"), f"model {path} config").validate()
    if payload["seed"] != cfg.seed:
        raise DataError(
            f"model {path} is malformed: seed {payload['seed']} differs from config seed {cfg.seed}"
        )
    return ens, cfg, payload


# ---------------------------------------------------------------------------
# subcommands


def _load_dataset(cfg: RunConfig, data_path: str) -> data.Dataset:
    return data.load_csv(data_path, label_column=cfg.label_col, force_categorical=cfg.categorical)


def _load_training_data(cfg: RunConfig, data_path: str) -> data.Dataset:
    """The dataset at data_path; DataError if its labels are all one class,
    which leaves a tree nothing to separate."""
    S = _load_dataset(cfg, data_path)
    if np.all(S.labels == S.labels[0]):
        raise DataError(
            f"{data_path}: every label is class {S.labels[0]:+.0f}; training needs both classes"
        )
    return S


def cmd_train(cfg: RunConfig, data_path: str, out_dir: str) -> int:
    S = _load_training_data(cfg, data_path)
    F = build_loss(cfg)
    os.makedirs(out_dir, exist_ok=True)
    ens, rows = boost.run(F, S, cfg.T, build_boost_config(cfg))
    with open(os.path.join(out_dir, "telemetry.csv"), "w", encoding="utf-8") as fh:
        boost.telemetry_to_csv(rows, fh)
    if rows[0].constant_loss:
        raise ConstantLossError("stopped at t=1 with zero weights")
    save_model(os.path.join(out_dir, "model.json"), ens, cfg, S)
    last = rows[-1]
    print(
        json.dumps(
            {
                "iterations": len(rows),
                "stop_reason": last.stop_reason,
                "train_loss": last.train_loss,
                "train_err": last.train_err,
            }
        )
    )
    return EXIT_OK


def cmd_eval(model_path: str, data_path: str) -> int:
    ens, cfg, payload = load_model(model_path)
    S = _load_dataset(cfg, data_path)
    expected = [(f["name"], f["type"]) for f in payload["features"]]
    actual = list(zip(S.feature_names, S.feature_types))
    if expected != actual:
        raise DataError(f"schema mismatch: model has {expected}, data has {actual}")
    F = build_loss(cfg)
    margins = S.labels * ens.predict_dataset(S)
    metrics = {
        "error": float(np.mean(margins <= 0.0)),
        "loss": float(np.mean(F(margins))),
        "m": S.m,
    }
    print(json.dumps(metrics))
    return EXIT_OK


def _test_error_curve(ens: boost.Ensemble, S_test: data.Dataset, T: int) -> list:
    """Per-iteration test 0/1 error, padded with the final value up to T."""
    y = S_test.labels
    margins = y * ens.h0
    curve = []
    for alpha, h in ens.terms:
        margins = margins + alpha * y * h.predict_dataset(S_test)
        curve.append(float(np.count_nonzero(margins <= 0.0) / margins.size))
    if not curve:
        curve = [float(np.count_nonzero(margins <= 0.0) / margins.size)]
    while len(curve) < T:
        curve.append(curve[-1])
    return curve


def run_cross_validation(cfg: RunConfig, S: data.Dataset):
    """Stratified k-fold CV; noise only ever touches the training split.

    Returns (per-fold telemetry lists, per-fold test-error curves, mean curve).
    """
    F = build_loss(cfg)
    bcfg = build_boost_config(cfg)
    plan = data.stratified_folds(S, cfg.folds, cfg.seed)
    fold_rows = []
    curves = []
    for fold in range(cfg.folds):
        S_train = S.subset(plan.train_indices(fold))
        S_test = S.subset(plan.test_indices(fold))
        if cfg.noise_eta > 0.0:
            S_train = losses.inject_label_noise(
                S_train, cfg.noise_eta, seed=cfg.seed * 1009 + fold
            )
        fold_cfg = dataclasses.replace(bcfg, seed=cfg.seed * 131 + fold)
        ens, rows = boost.run(F, S_train, cfg.T, fold_cfg)
        fold_rows.append(rows)
        curves.append(_test_error_curve(ens, S_test, cfg.T))
    mean_curve = [float(np.mean([c[t] for c in curves])) for t in range(cfg.T)]
    return fold_rows, curves, mean_curve


def cmd_cv(cfg: RunConfig, data_path: str, out_dir: str) -> int:
    S = _load_training_data(cfg, data_path)
    os.makedirs(out_dir, exist_ok=True)
    fold_rows, curves, mean_curve = run_cross_validation(cfg, S)
    for fold, rows in enumerate(fold_rows):
        path = os.path.join(out_dir, f"fold_{fold:02d}_telemetry.csv")
        with open(path, "w", encoding="utf-8") as fh:
            boost.telemetry_to_csv(rows, fh)
    if fold_rows[0][0].constant_loss:
        raise ConstantLossError("every fold stopped at t=1 with zero weights")
    curve_path = os.path.join(out_dir, "cv_curves.csv")
    with open(curve_path, "w", encoding="utf-8") as fh:
        header = ["t"] + [f"fold_{j:02d}" for j in range(cfg.folds)] + ["mean_test_err"]
        fh.write(",".join(header) + "\n")
        for t in range(cfg.T):
            cells = [str(t + 1)] + [repr(c[t]) for c in curves] + [repr(mean_curve[t])]
            fh.write(",".join(cells) + "\n")
    print(json.dumps({"folds": cfg.folds, "final_mean_test_err": mean_curve[-1]}))
    return EXIT_OK


def cmd_losses(cfg: RunConfig, lo: float, hi: float, steps: int, out: str | None) -> int:
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps}")
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ConfigError(f"need finite --lo < --hi with a finite span hi - lo, got [{lo}, {hi}]")
    F = build_loss(cfg)
    zs = np.linspace(lo, hi, steps)
    values = F(zs)  # a non-finite value raises before any output
    fh = open(out, "w", encoding="utf-8") if out else sys.stdout
    try:
        fh.write("z,F\n")
        for z, value in zip(zs.tolist(), values.tolist()):
            fh.write(f"{z!r},{value!r}\n")
    finally:
        if out:
            fh.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _parse_loss_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--loss-param expects NAME=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"loss parameter {key!r} must be numeric, got {value!r}") from None
    return params


def _merged(cfg: RunConfig, payload, where: str) -> RunConfig:
    """cfg with the fields that payload, a JSON value read from where, sets.

    ConfigError, naming where, unless payload is an object whose keys are all
    RunConfig fields; the caller validates the values.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must hold a JSON object")
    unknown = payload.keys() - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return dataclasses.replace(cfg, **payload)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
    if getattr(args, "config", None):
        payload = _read_json(args.config, "config", ConfigError)
        where = f"config {args.config}"
        _merged(RunConfig(), payload, where).validate()  # before a flag overrides a file value
        cfg = _merged(cfg, payload, where)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()  # before the merge below, which needs loss_params to be a dict
    if getattr(args, "loss_param", None):
        cfg.loss_params = {**cfg.loss_params, **_parse_loss_params(args.loss_param)}
    return cfg


def _add_loss_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss", help="builtin or registered loss name (default logistic)")
    p.add_argument("--loss-param", action="append", metavar="NAME=VALUE",
                   help="loss parameter, repeatable (e.g. Q=500)")
    p.add_argument("--loss-table", help="two-column CSV (z,F) piecewise-linear loss")


def _add_config_flags(p: argparse.ArgumentParser, cv: bool = False) -> None:
    p.add_argument("--config", help="JSON file with RunConfig fields (flags override)")
    _add_loss_flags(p)
    p.add_argument("-T", type=int, help="boosting iterations")
    p.add_argument("--max-nodes", type=int, dest="max_nodes", help="internal nodes per tree")
    p.add_argument("--delta-init", type=float, dest="delta_init", help="halving-search start")
    p.add_argument("--epsilon", type=float, help="smoothness-route slack")
    p.add_argument("--precision-Z", type=int, dest="precision_Z", help="offset scan resolution")
    p.add_argument("--seed", type=int, help=f"master seed (default ${SEED_ENV_VAR} or 0)")
    p.add_argument("--label-col", dest="label_col", help="label column name or index")
    p.add_argument("--categorical", action="append", metavar="COL",
                   help="force a column categorical, repeatable")
    if cv:
        p.add_argument("--noise-eta", type=float, dest="noise_eta",
                       help="training-fold label flip probability")
        p.add_argument("--folds", type=int, help="number of CV folds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secantboost",
        description="Boosted tree ensembles for arbitrary losses, queried by value only.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit an ensemble, write model + telemetry")
    _add_config_flags(p_train)
    p_train.add_argument("data", help="training CSV")
    p_train.add_argument("out", help="output directory")

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p_eval.add_argument("model", help="model.json path")
    p_eval.add_argument("data", help="evaluation CSV")

    p_cv = sub.add_parser("cv", help="stratified cross-validation with optional label noise")
    _add_config_flags(p_cv, cv=True)
    p_cv.add_argument("data", help="dataset CSV")
    p_cv.add_argument("out", help="output directory")

    p_losses = sub.add_parser("losses", help="sample a loss curve as CSV")
    _add_loss_flags(p_losses)
    p_losses.add_argument("--lo", type=float, default=-2.0)
    p_losses.add_argument("--hi", type=float, default=2.0)
    p_losses.add_argument("--steps", type=int, default=401)
    p_losses.add_argument("--out", help="output CSV (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(_config_from_args(args), args.data, args.out)
        if args.command == "eval":
            return cmd_eval(args.model, args.data)
        if args.command == "cv":
            return cmd_cv(_config_from_args(args), args.data, args.out)
        if args.command == "losses":
            return cmd_losses(_config_from_args(args), args.lo, args.hi, args.steps, args.out)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConstantLossError as exc:
        print(f"constant loss: {exc}", file=sys.stderr)
        return EXIT_CONSTANT_LOSS
    except DiscontinuityCollisionError as exc:
        print(f"discontinuity collision: {exc}", file=sys.stderr)
        return EXIT_DISCONTINUITY
    except BrokenPipeError:
        # Downstream closed our stdout (e.g. `losses | head`); not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        # A size flag too large to allocate (e.g. --steps, --precision-Z).
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
