"""Golden digests: boosting outputs pinned across builds, not just reruns.

Each run of a fixed grid (eight losses x {stumps, 20-node trees} x two seeds
on numeric data, plus categorical board runs and mixed numeric/categorical
runs with tied thresholds) is reduced to three sha256
digests: the telemetry CSV, the canonical model text, and every row's
recorded vectors and certificate fields.  The stored digests were written by
an earlier build, so a refactor that claims to leave outputs unchanged must
reproduce them bit for bit.  Float results depend on the numpy build and the
CPU, so the test skips, saying why, when either differs from the ones the
digests were written with.  The 1-Lipschitz runs also check that every
refreshed weight stays within the loss's slope bound, up to rounding.

Regenerate (only when an output change is intended and argued for):

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import secantboost as sb
from conftest import board_dataset
from secantboost.cli import _node_to_json
from secantboost.vderiv import secant_slopes

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

T = 12
M = 120
SEEDS = (1, 2)
LOSSES = {
    "logistic": lambda: sb.make_builtin("logistic"),
    "square": lambda: sb.make_builtin("square"),
    "exponential": lambda: sb.make_builtin("exponential"),
    "hinge": lambda: sb.make_builtin("hinge"),
    "clipped_logistic": lambda: sb.make_builtin("clipped_logistic", q=-2.0),
    "spring": lambda: sb.make_builtin("spring", Q=500.0),
    "zero_one": lambda: sb.make_builtin("zero_one"),
    "table": lambda: sb.table_loss(
        "table", [-3.0, -1.0, 0.0, 0.5, 2.0], [3.0, 1.6, 0.9, 0.7, 0.0]
    ),
}
TREES = {"stumps": 1, "trees20": 20}
ROW_VECTORS = ("weights", "offsets_new", "edges_new", "offsets_reused")
ROW_SCALARS = ("decrease_bound", "w2_measured", "z_limit", "pi", "route")


def _numeric(seed: int) -> sb.Dataset:
    """Three features, labels from a noisy linear rule (not separable)."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(M, 3)), 6)
    raw = X @ np.array([1.0, 0.5, -0.3]) + 0.4 * rng.normal(size=M)
    return sb.dataset_from_numeric(X, np.where(raw > 0.0, 1.0, -1.0))


def _mixed(seed: int) -> sb.Dataset:
    """Two coarse numeric features and two categorical ones, one with a rare level.

    Rounding to one decimal leaves many duplicate values and tied thresholds;
    the category "z" is carried by only a few rows.
    """
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(M, 2)), 1)
    colour = rng.choice(["red", "green", "blue"], size=M)
    rare = np.where(rng.random(M) < 0.04, "z", rng.choice(["a", "b"], size=M))
    raw = X @ np.array([1.0, -0.6]) + 0.8 * (colour == "red") - 0.5 * (rare == "b")
    raw += 0.3 * rng.normal(size=M)
    return sb.dataset_from_columns(
        (X[:, 0], colour, X[:, 1], rare),
        np.where(raw > 0.0, 1.0, -1.0),
        types=("numeric", "categorical", "numeric", "categorical"),
    )


def grid() -> dict:
    """Run name -> (loss factory, dataset factory, max_nodes, seed, precision_Z)."""
    runs = {}
    for loss in LOSSES:
        for tree, max_nodes in TREES.items():
            for seed in SEEDS:
                runs[f"{loss}-{tree}-seed{seed}"] = (loss, _numeric, max_nodes, seed, 64)
    runs["logistic-board-trees20-seed1"] = ("logistic", lambda s: board_dataset(M, s), 20, 1, 64)
    runs["logistic-board-stumps-seed1"] = ("logistic", lambda s: board_dataset(M, s), 1, 1, 64)
    for seed in SEEDS:
        runs[f"mixed-trees20-seed{seed}"] = ("logistic", _mixed, 20, seed, 64)
    # A coarse first scan (precision_Z=4): the 20-node runs refine
    # near-budget decisions, and the spring one also retries the scan at 4x
    # resolution (about 400 times in 1440 requests).
    runs["spring-stumps-Z4-seed1"] = ("spring", _numeric, 1, 1, 4)
    runs["spring-trees20-Z4-seed1"] = ("spring", _numeric, 20, 1, 4)
    runs["clipped_logistic-trees20-Z4-seed1"] = ("clipped_logistic", _numeric, 20, 1, 4)
    return runs


def _model_text(ens: sb.Ensemble) -> str:
    terms = [
        {"alpha": alpha, "node_count": h.node_count, "tree": _node_to_json(h.root)}
        for alpha, h in ens.terms
    ]
    return json.dumps({"h0": ens.h0, "terms": terms}, sort_keys=True)


def _rows_digest(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        for name in ROW_VECTORS:
            value = getattr(row, name)
            digest.update(name.encode())
            digest.update(b"None" if value is None else np.ascontiguousarray(value).tobytes())
        for name in ROW_SCALARS:
            digest.update(f"{name}={getattr(row, name)!r};".encode())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _run(name: str):
    """(ensemble, rows) of a grid run, computed once per process."""
    loss, make_data, max_nodes, seed, precision_Z = grid()[name]
    cfg = sb.BoostConfig(
        max_nodes=max_nodes, seed=seed, precision_Z=precision_Z, record_vectors=True
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-edge stops are part of the output
        return sb.run(LOSSES[loss](), make_data(seed), T, cfg)


def run_digests(name: str) -> dict:
    ens, rows = _run(name)
    csv = io.StringIO()
    sb.telemetry_to_csv(rows, csv)
    return {
        "telemetry": hashlib.sha256(csv.getvalue().encode()).hexdigest(),
        "model": hashlib.sha256(_model_text(ens).encode()).hexdigest(),
        "rows": _rows_digest(rows),
    }


def _platform() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


@pytest.fixture(scope="module")
def stored() -> dict:
    payload = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = _platform()
    if payload["platform"] != here:
        pytest.skip(f"digests were written on {payload['platform']}, this is {here}")
    return payload["runs"]


def test_grid_matches_stored_runs(stored):
    assert sorted(stored) == sorted(grid())


@pytest.mark.parametrize("name", sorted(grid()))
def test_outputs_match_golden_digests(stored, name):
    assert run_digests(name) == stored[name]


# Losses whose secant slopes are bounded by 1 in magnitude.
ONE_LIPSCHITZ = ("logistic", "clipped_logistic", "hinge")


@pytest.mark.parametrize(
    "name", sorted(name for name, run in grid().items() if run[0] in ONE_LIPSCHITZ)
)
def test_refreshed_weights_within_lipschitz_bound(name):
    """|w| <= 1 + 4*eps*(|z| + max(|F(z)|, |F(z+v)|))/|v| for every refreshed weight.

    A refreshed weight is the secant slope -(F(z+v) - F(z))/v, at most 1 in
    magnitude for these losses in exact arithmetic.  Rounding z+v and the two
    loss values moves the numerator by a few ulps of |z| and of F, so the
    slack grows as v shrinks; a fixed relative slack such as 1e-9 does not
    hold (hinge-stumps-seed2 reaches |w| - 1 = 3.8e-8 at v = 1.5e-9).
    """
    F = LOSSES[grid()[name][0]]()
    _, rows = _run(name)
    eps = np.finfo(np.float64).eps
    checked = 0
    for row, after in zip(rows, rows[1:] + [None]):
        if row.offsets_new is None:
            continue
        z, v = row.edges_new, row.offsets_new
        w = -secant_slopes(F, z, v)
        assert after is None or np.array_equal(after.weights, w)
        slack = 4 * eps * (np.abs(z) + np.maximum(np.abs(F(z)), np.abs(F(z + v)))) / np.abs(v)
        bad = np.flatnonzero(np.abs(w) > 1.0 + slack)
        assert bad.size == 0, (row.t, w[bad], z[bad], v[bad])
        checked += w.size
    assert checked > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    runs = {name: run_digests(name) for name in sorted(grid())}
    DIGESTS.write_text(
        json.dumps({"platform": _platform(), "runs": runs}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(runs)} runs to {DIGESTS}")
