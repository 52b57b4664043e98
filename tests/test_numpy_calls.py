"""The per-round paths call numpy's C reductions, not its Python wrappers.

np.mean, np.sum, np.any, np.all, np.flatnonzero and np.diff are Python
functions around the C entry points np.add.reduce, np.count_nonzero and
ndarray.nonzero.  Once per round, or once per FindAlpha trial or oracle
pass, their wrappers cost more than the C work on a few hundred examples.
The rewrites give the wrappers' results bit for bit; the tests below pin
that, and keep the wrappers out of the per-round functions.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest


def _bits(x) -> str:
    return float(x).hex()


def _spanning_arrays():
    """Float arrays of magnitudes from 1e-300 to 1e300, both signs, and ±0.0."""
    rng = np.random.default_rng(31)
    out = [np.array([0.0]), np.array([-0.0]), np.array([-0.0, -0.0]), np.array([-0.0, 0.0]),
           np.array([1e-300]), np.array([-1e300]), np.array([5e-324, 5e-324, 5e-324])]
    for m in (1, 2, 3, 7, 10, 127, 128, 129, 200, 3200):
        for lo, hi in ((-300, 300), (-300, -290), (290, 300), (-1, 1)):
            mags = 10.0 ** rng.uniform(lo, hi, size=m)
            out.append(mags * rng.choice([-1.0, 1.0], size=m))
        x = rng.normal(size=m)
        x[rng.random(m) < 0.3] = -0.0
        out.append(x)
    return out


@pytest.mark.parametrize("x", _spanning_arrays(), ids=lambda x: f"m{x.size}")
def test_mean_rewrite_is_bitwise(x):
    with np.errstate(over="ignore"):  # sums near 1e308 may overflow, in both
        assert _bits(np.add.reduce(x) / x.size) == _bits(np.mean(x))
        assert _bits(np.add.reduce(x)) == _bits(np.sum(x))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 200, 201, 3200, 4099])
def test_mask_mean_rewrite_is_bitwise(m):
    rng = np.random.default_rng(m)
    for count in sorted({0, 1, m // 3, m // 2, m - 1, m}):
        mask = np.zeros(m, dtype=bool)
        mask[rng.permutation(m)[:count]] = True
        assert _bits(np.count_nonzero(mask) / mask.size) == _bits(np.mean(mask))
        assert bool(np.count_nonzero(mask)) == bool(np.any(mask))
        assert mask.nonzero()[0].tolist() == np.flatnonzero(mask).tolist()


FORBIDDEN = ("mean", "sum", "any", "all", "flatnonzero", "diff")

# Per module, the functions a boosting round runs (once per round, per
# FindAlpha trial, per oracle pass or per tree node).
PER_ROUND = {
    "boost": ("_initialize", "_initial_loss", "_leverage", "_refresh_offsets", "run"),
    "leverage": ("edge", "partial_weights", "find_alpha", "second_order_mean", "w2_from_alpha"),
    "offsets": ("find_offset", "_find_offsets", "_accept", "_scan_pass"),
    "bregman": ("_certificate", "_grid_term", "obi", "q_star", "offset_feasible"),
    "trees": ("WeakHypothesis.predict_dataset", "_first_min", "_best_split", "train_tree"),
    "data": ("_ColumnIndex.take", "_ColumnIndex.cut", "Dataset.subset"),
    "cli": ("_test_error_curve",),
}


def _functions(tree: ast.Module, prefix: str = ""):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield f"{prefix}{node.name}", node


@pytest.mark.parametrize("module", sorted(PER_ROUND))
def test_per_round_functions_call_no_numpy_wrapper(module):
    """No call to np.mean, np.sum, np.any, np.all, np.flatnonzero or np.diff in:
    boost._initialize, boost._initial_loss, boost._leverage,
    boost._refresh_offsets, boost.run; leverage.edge,
    leverage.partial_weights, leverage.find_alpha, leverage.second_order_mean,
    leverage.w2_from_alpha; offsets.find_offset, offsets._find_offsets,
    offsets._accept, offsets._scan_pass; bregman._certificate,
    bregman._grid_term, bregman.obi, bregman.q_star, bregman.offset_feasible;
    trees.WeakHypothesis.predict_dataset, trees._first_min, trees._best_split,
    trees.train_tree; data._ColumnIndex.take, data._ColumnIndex.cut,
    data.Dataset.subset; cli._test_error_curve.  Use np.add.reduce (divided
    by the size for a mean), np.count_nonzero and ndarray.nonzero instead.
    """
    mod = importlib.import_module(f"secantboost.{module}")
    found = dict(_functions(ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))))
    calls = []
    for name in PER_ROUND[module]:
        assert name in found, f"{module}.{name} is gone: update PER_ROUND"
        for node in ast.walk(found[name]):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and node.func.attr in FORBIDDEN):
                calls.append(f"{module}.{name}, line {node.lineno}: np.{node.func.attr}")
    assert not calls, calls
