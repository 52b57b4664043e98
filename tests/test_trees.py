"""Tests for weighted decision-tree induction."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import separable_dataset
from secantboost import (
    ConfigError,
    Dataset,
    Ensemble,
    dataset_from_columns,
    dataset_from_numeric,
    max_confidence,
    nonzero_shift,
    train_tree,
)
from secantboost import trees
from secantboost.trees import (
    TreeNode,
    WeakHypothesis,
    _best_split,
    _branch_impurity,
    _code_sums,
    _leaf_value,
)


def _stump_data():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    return dataset_from_numeric(X, y)


class TestLeafValue:
    def test_smoothing_formula(self):
        # Half log-odds with additive smoothing kappa = 1/(2n+2).
        n = 4
        kappa = 1.0 / (2.0 * n + 2.0)
        expected = 0.5 * math.log((0.75 + kappa) / (0.25 + kappa))
        assert _leaf_value(3.0, 4.0, n) == pytest.approx(expected)

    def test_pure_leaf_is_finite_and_nonzero(self):
        v = _leaf_value(5.0, 5.0, 5)
        assert math.isfinite(v)
        assert v > 0.0

    def test_balanced_leaf_is_zero(self):
        assert _leaf_value(2.0, 4.0, 4) == 0.0


class TestBranchImpurity:
    def test_formula(self):
        assert _branch_impurity(1.0, 3.0) == pytest.approx(2.0 * math.sqrt(3.0))

    def test_tiny_negative_product_clamps(self):
        # Cumulative-sum dust can leave the complement a hair below zero.
        assert _branch_impurity(1.0, -1e-18) == 0.0


class TestStump:
    def test_perfect_split(self):
        S = _stump_data()
        h = train_tree(S, np.ones(4), max_nodes=1)
        assert h.node_count == 1
        assert h.root.feature == 0
        assert h.root.threshold == pytest.approx(1.5)  # midpoint of 1 and 2
        assert h.predict([0.5]) < 0.0
        assert h.predict([2.5]) > 0.0

    def test_unweighted_root_split_is_brute_force_optimal(self):
        """The chosen split must beat every candidate (feature, midpoint)
        pair under the weighted Matushita objective."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = np.where(X[:, 1] + 0.3 * rng.normal(size=40) > 0, 1.0, -1.0)
        w = rng.uniform(0.1, 2.0, size=40)
        S = dataset_from_numeric(X, y)
        h = train_tree(S, w, max_nodes=1)

        def impurity_of(f, cut):
            mask = X[:, f] <= cut
            out = 0.0
            for side in (mask, ~mask):
                wp = float(np.sum(w[side & (y > 0)]))
                wn = float(np.sum(w[side & (y < 0)]))
                out += 2.0 * math.sqrt(max(0.0, wp * wn))
            return out

        chosen = impurity_of(h.root.feature, h.root.threshold)
        for f in range(3):
            vals = np.unique(X[:, f])
            for lo, hi in zip(vals[:-1], vals[1:]):
                assert chosen <= impurity_of(f, 0.5 * (lo + hi)) + 1e-12

    def test_tie_breaks_prefer_lowest_feature(self):
        # Both features separate the labels perfectly; feature 0 must win.
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        h = train_tree(dataset_from_numeric(X, y), np.ones(4), max_nodes=1)
        assert h.root.feature == 0

    def test_zero_weight_examples_are_ignored(self):
        # The mislabeled example carries no weight, so the clean split stands.
        X = np.array([[0.0], [1.0], [2.0], [1.2]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        h = train_tree(dataset_from_numeric(X, y), w, max_nodes=1)
        assert h.root.threshold == pytest.approx(1.5)


class TestCategorical:
    def test_one_vs_rest_split(self):
        col = np.array(["a", "a", "b", "c", "b", "c"])
        y = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        S = dataset_from_columns([col], y, names=("cat",), types=("categorical",))
        h = train_tree(S, np.ones(6), max_nodes=1)
        assert h.root.category == "a"
        assert h.root.threshold is None
        assert h.predict(["a"]) > 0.0
        assert h.predict(["b"]) < 0.0

    def test_unseen_category_falls_right(self):
        col = np.array(["a", "a", "b", "b"])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        S = dataset_from_columns([col], y, names=("cat",), types=("categorical",))
        h = train_tree(S, np.ones(4), max_nodes=1)
        assert h.predict(["zzz"]) == h.predict(["b"])


class TestCodeSums:
    """Each code's sum must equal np.add.reduce over its slice, bit for bit."""

    @staticmethod
    def _check(rng, lengths):
        codes = np.repeat(np.arange(lengths.size), lengths)
        wi = rng.uniform(0.0, 2.0, size=codes.size) * (rng.random(codes.size) < 0.9)
        sums, counts = _code_sums(codes, wi, lengths.size + 1)
        np.testing.assert_array_equal(counts, np.append(lengths, 0))
        ends = np.cumsum(lengths)
        want = [np.add.reduce(wi[b - n:b]) for n, b in zip(lengths.tolist(), ends.tolist())]
        assert sums.tobytes() == np.array(want + [0.0]).tobytes()

    def test_random_slices_match_add_reduce(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            self._check(rng, rng.integers(1, 5001, size=int(rng.integers(1, 12))))

    def test_slices_past_pairwise_blocks_match_add_reduce(self):
        # Slices longer than numpy's 8 192-element reduction buffer.
        rng = np.random.default_rng(15)
        self._check(rng, np.array([8193, 20_000, 1, 70_000, 129]))

    def test_empty_codes_sum_to_zero(self):
        sums, counts = _code_sums(np.array([1, 1, 3], dtype=np.intp), np.array([0.5, 0.25, 2.0]), 5)
        assert sums.tolist() == [0.0, 0.75, 0.0, 2.0, 0.0]
        assert counts.tolist() == [0, 2, 0, 1, 0]


class TestGrowth:
    def test_grows_to_max_nodes(self):
        # A staircase needs two internal nodes; both splits carry positive
        # impurity gain, so best-first growth reaches them in order.
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        S = dataset_from_numeric(X, y)
        h = train_tree(S, np.ones(6), max_nodes=4)
        assert h.node_count == 2
        preds = np.sign(h.predict_dataset(S))
        np.testing.assert_array_equal(preds, y)

    def test_budget_of_one_stops_after_root(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        h = train_tree(dataset_from_numeric(X, y), np.ones(6), max_nodes=1)
        assert h.node_count == 1

    def test_zero_gain_splits_are_refused(self):
        # Balanced XOR: every single split leaves both branches 50/50, so no
        # candidate decreases the impurity and the tree stays a leaf (the
        # booster repairs the resulting zero confidence downstream).
        X = np.array(list(itertools.product([0.0, 1.0], repeat=2)) * 4)
        y = np.where(np.logical_xor(X[:, 0] > 0.5, X[:, 1] > 0.5), 1.0, -1.0)
        S = dataset_from_numeric(X, y)
        h = train_tree(S, np.ones(len(y)), max_nodes=3)
        assert h.root.is_leaf
        assert h.root.value == 0.0

    def test_stops_when_pure(self):
        S = _stump_data()
        h = train_tree(S, np.ones(4), max_nodes=50)
        # One split makes both leaves pure; no further growth is possible.
        assert h.node_count == 1

    def test_constant_features_stay_a_leaf(self):
        X = np.zeros((6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        h = train_tree(dataset_from_numeric(X, y), np.ones(6), max_nodes=4)
        assert h.node_count == 0
        assert h.root.is_leaf

    def test_validation(self):
        S = _stump_data()
        with pytest.raises(ValueError, match="max_nodes"):
            train_tree(S, np.ones(4), max_nodes=0)
        with pytest.raises(ValueError, match="nonnegative"):
            train_tree(S, np.array([1.0, -1.0, 1.0, 1.0]), max_nodes=1)
        for bad in (math.nan, math.inf, -math.inf):
            # NaN passes a `w < 0` test and fails `w > 0`: unchecked, the
            # row would silently drop out of training.
            with pytest.raises(ValueError, match="finite"):
                train_tree(S, np.array([1.0, bad, 1.0, 1.0]), max_nodes=1)
        with pytest.raises(ValueError, match="all-zero"):
            train_tree(S, np.zeros(4), max_nodes=1)
        with pytest.raises(ValueError, match="length"):
            train_tree(S, np.ones(3), max_nodes=1)


class TestWeightScale:
    """Weights whose impurity products overflow build the tree of their
    power-of-two scaling, which is the tree the unscaled weights give."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [900, 1000])
    def test_huge_weights_build_the_same_tree(self, k):
        for seed in range(20):
            S = separable_dataset(m=60, seed=seed)
            w = np.random.default_rng(seed).uniform(0.1, 2.0, S.m)
            want = train_tree(S, w, max_nodes=6)
            got = train_tree(S, w * 2.0**k, max_nodes=6)
            assert got.node_count == want.node_count >= 1, f"seed {seed}"
            assert got.root == want.root, f"seed {seed}"

    @pytest.mark.filterwarnings("error")
    def test_too_wide_a_range_is_refused(self):
        # Scaling 1e305 down far enough pushes 1e-200 below the normal floats.
        with pytest.raises(ConfigError, match="tree weights from 1e-200 to 1e\\+305"):
            train_tree(_stump_data(), np.array([1e305, 1e-200, 1.0, 1e305]), max_nodes=1)


class TestPredict:
    def test_dataset_prediction_matches_row_prediction(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 4))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        S = dataset_from_numeric(X, y)
        h = train_tree(S, rng.uniform(0.5, 1.5, size=30), max_nodes=5)
        vec = h.predict_dataset(S)
        for i in range(S.m):
            assert vec[i] == h.predict(S.row(i))

    def test_chain_deeper_than_recursion_limit(self):
        """A chain of 3000 tests x <= k, each sending x = k left to a leaf of
        value k: prediction, shifting and depth walk it without recursion."""
        n = 3000
        root = node = TreeNode()
        for k in range(n):
            node.feature, node.threshold = 0, float(k)
            node.left, node.right = TreeNode(value=float(k)), TreeNode(value=-1.0)
            node = node.right
        h = WeakHypothesis(root, n, 1)
        S = dataset_from_numeric(np.arange(n + 1, dtype=np.float64)[:, None], np.ones(n + 1))
        expected = np.append(np.arange(n, dtype=np.float64), -1.0)
        assert h.depth() == n
        assert h.predict_dataset(S).tolist() == expected.tolist()
        shifted = h.shifted(0.5)
        assert shifted.depth() == n and shifted.node_count == n
        assert shifted.predict_dataset(S).tolist() == (expected + 0.5).tolist()

    def test_wrong_arity_rejected(self):
        h = train_tree(_stump_data(), np.ones(4), max_nodes=1)
        with pytest.raises(ValueError, match="expected 1 features"):
            h.predict([1.0, 2.0])

    @staticmethod
    def _three_feature_tree():
        """A 3-node tree on 3 numeric features, and data sets of 2 and 4
        features built from its training rows."""
        rng = np.random.default_rng(29)
        X = rng.normal(size=(40, 4))
        y = np.where(X[:, 0] + X[:, 2] > 0, 1.0, -1.0)
        h = train_tree(dataset_from_numeric(X[:, :3], y), np.ones(40), max_nodes=3)
        assert h.n_features == 3 and h.node_count == 3
        return h, dataset_from_numeric(X[:, :2], y), dataset_from_numeric(X, y)

    def test_dataset_with_fewer_features_rejected(self):
        h, fewer, _ = self._three_feature_tree()
        with pytest.raises(ValueError, match="^expected 3 features, got 2$"):
            h.predict_dataset(fewer)

    def test_dataset_with_more_features_rejected(self):
        # As predict refuses a row of 4 features, predict_dataset refuses a
        # data set of 4, although every test the tree makes could be read.
        h, _, more = self._three_feature_tree()
        with pytest.raises(ValueError, match="^expected 3 features, got 4$"):
            h.predict(more.row(0))
        with pytest.raises(ValueError, match="^expected 3 features, got 4$"):
            h.predict_dataset(more)

    def test_ensemble_rejects_a_wrong_feature_count(self):
        h, fewer, more = self._three_feature_tree()
        ens = Ensemble(0.25, [(0.5, h), (1.5, h)])
        for S, got in ((fewer, 2), (more, 4)):
            with pytest.raises(ValueError, match=f"^expected 3 features, got {got}$"):
                ens.predict_dataset(S)


def _recursive_walk(node: TreeNode, depth: int = 0):
    yield node, depth
    if not node.is_leaf:
        yield from _recursive_walk(node.left, depth + 1)
        yield from _recursive_walk(node.right, depth + 1)


def _walk_trees():
    """A stump, a 20-node numeric tree and a 20-node categorical tree."""
    rng = np.random.default_rng(26)
    X = rng.normal(size=(200, 3))
    y = np.where(X[:, 0] + rng.normal(size=200) > 0, 1.0, -1.0)
    cols = [rng.choice(list("abcdef"), size=200) for _ in range(3)]
    yc = np.where((cols[0] < "c") ^ (rng.random(200) < 0.3), 1.0, -1.0)
    S_cat = dataset_from_columns(cols, yc, types=("categorical",) * 3)
    return (
        train_tree(_stump_data(), np.ones(4), max_nodes=1),
        train_tree(dataset_from_numeric(X, y), rng.uniform(0.5, 1.5, 200), max_nodes=20),
        train_tree(S_cat, rng.uniform(0.5, 1.5, 200), max_nodes=20),
    )


class TestWalk:
    def test_matches_a_recursive_walk(self):
        for h, nodes in zip(_walk_trees(), (1, 20, 20)):
            assert h.node_count == nodes
            want = [(id(node), depth) for node, depth in _recursive_walk(h.root)]
            got = [(id(node), depth) for node, depth in h.walk()]
            assert got == want and len(set(got)) == 2 * nodes + 1
            leaves = [node for node, _ in _recursive_walk(h.root) if node.is_leaf]
            assert [id(leaf) for leaf in h.iter_leaves()] == [id(leaf) for leaf in leaves]
            assert h.depth() == max(depth for _, depth in want)
        assert _walk_trees()[2].root.category is not None


class TestMaxConfidence:
    def test_matches_prediction_maximum(self):
        S = _stump_data()
        h = train_tree(S, np.ones(4), max_nodes=1)
        assert max_confidence(h, S) == float(np.max(np.abs(h.predict_dataset(S))))
        assert max_confidence(h, S) > 0.0


class TestNonzeroShift:
    def test_no_op_when_all_nonzero(self):
        S = _stump_data()
        h = train_tree(S, np.ones(4), max_nodes=1)
        assert nonzero_shift(h, S) is h

    def test_zero_leaf_is_shifted(self):
        # A perfectly balanced leaf has confidence exactly 0; the shift must
        # move every prediction off zero by the documented magnitude.
        X = np.zeros((4, 1))
        y = np.array([1.0, 1.0, -1.0, -1.0])
        S = dataset_from_numeric(X, y)
        h = train_tree(S, np.ones(4), max_nodes=3)
        assert h.root.is_leaf and h.root.value == 0.0
        shifted = nonzero_shift(h, S)
        values = shifted.predict_dataset(S)
        assert np.all(np.abs(values) > 0.0)
        # M falls back to the leaf magnitudes (all zero here -> 1.0), so the
        # shift is 0.5 * 0.1 * 1.0 / 1.1.
        assert abs(values[0]) == pytest.approx(0.5 * 0.1 / 1.1)

    def test_shift_magnitude_formula(self):
        # Mixed stump: the left branch {+,-} balances to confidence exactly
        # zero while the right branch is pure, so M comes from the dataset
        # predictions and one leaf needs repair.
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        S = dataset_from_numeric(X, y)
        h = train_tree(S, np.ones(6), max_nodes=1)
        values = h.predict_dataset(S)
        assert np.any(values == 0.0)
        M = float(np.max(np.abs(values)))
        shifted = nonzero_shift(h, S)
        delta = 0.5 * 0.1 * M / 1.1
        moved = shifted.predict_dataset(S) - values
        np.testing.assert_allclose(np.abs(moved), delta, rtol=1e-9)

    def test_nonzero_leaves_skip_prediction(self, monkeypatch):
        # The leaves alone decide: a tree without a zero leaf comes back as
        # the same object without S ever being predicted.
        S = _stump_data()
        h = train_tree(S, np.ones(4), max_nodes=1)
        calls = []
        original = WeakHypothesis.predict_dataset

        def counted(self, S):
            calls.append(S)
            return original(self, S)

        monkeypatch.setattr(WeakHypothesis, "predict_dataset", counted)
        assert nonzero_shift(h, S) is h
        assert calls == []

    def test_unreached_zero_leaf_is_shifted(self):
        # A zero leaf that no example of S reaches still forces the shift:
        # M comes from the predictions on S, which never see that leaf.
        S = _stump_data()
        h = WeakHypothesis(
            TreeNode(feature=0, threshold=10.0, left=TreeNode(value=0.8), right=TreeNode(value=0.0)),
            node_count=1,
            n_features=1,
        )
        assert np.all(h.predict_dataset(S) == 0.8)
        shifted = nonzero_shift(h, S)
        assert shifted is not h
        delta = 0.5 * 0.1 * 0.8 / 1.1
        leaves = [leaf.value for leaf in shifted.iter_leaves()]
        assert leaves == pytest.approx([0.8 + delta, delta], rel=1e-12)


# ---------------------------------------------------------------------------
# Loop reference: the scan-every-boundary split search and the string-mask
# tree growth that the vectorized code replaced, kept verbatim so the two can
# be compared for exact equality.


def _leaf_orders(S, idx: np.ndarray) -> np.ndarray:
    """The leaf idx's per-row orders, built by sorting the leaf itself, not
    by the column index's cut: numeric features first, then categorical ones, each the
    stable argsort of the leaf's column (category labels sort as their codes
    do)."""
    rows = [f for f, kind in enumerate(S.feature_types) if kind == "numeric"]
    rows += [f for f, kind in enumerate(S.feature_types) if kind != "numeric"]
    return np.array([idx[np.argsort(S.columns[f][idx], kind="stable")] for f in rows],
                    dtype=np.intp).reshape(len(rows), idx.size)


def _splits(S, y, w, parts: list) -> list:
    """_best_split on the batch of leaves parts (each ascending), given
    _leaf_orders and the sums as train_tree forms them."""
    wp = np.where(y > 0, w, 0.0)
    orders = [_leaf_orders(S, idx) for idx in parts]
    w_tot = [float(np.sum(w[idx])) for idx in parts]
    w_pos = [float(np.sum(np.where(y[idx] > 0, w[idx], 0.0))) for idx in parts]
    return _best_split(S._index, w, wp, orders, w_tot, w_pos)


def _split(S, y, w, idx: np.ndarray):
    """The batch search on the one leaf idx (ascending)."""
    return _splits(S, y, w, [idx])[0]


def _loop_branch_impurity(w_pos: float, w_neg: float) -> float:
    return 2.0 * math.sqrt(max(0.0, w_pos * w_neg))


def _loop_best_split(S, y, w, idx: np.ndarray):
    best = None
    wi = w[idx]
    pos = y[idx] > 0
    for f in range(len(S.columns)):
        col = S.columns[f][idx]
        if S.feature_types[f] == "numeric":
            vals = col.astype(np.float64)
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            sw = wi[order]
            sp = np.where(pos[order], sw, 0.0)
            cum_w = np.cumsum(sw)
            cum_p = np.cumsum(sp)
            boundary = np.nonzero(sv[1:] > sv[:-1])[0]  # split after position k
            for k in boundary:
                wl = cum_w[k]
                pl = cum_p[k]
                wr = cum_w[-1] - wl
                pr = cum_p[-1] - pl
                if wl <= 0.0 or wr <= 0.0:
                    continue
                imp = _loop_branch_impurity(pl, wl - pl) + _loop_branch_impurity(pr, wr - pr)
                cut = 0.5 * (sv[k] + sv[k + 1])
                cand = (imp, f, "num", cut)
                if best is None or cand[0] < best[0]:
                    best = cand
        else:
            cats = sorted(set(col.astype(str)))
            if len(cats) < 2:
                continue
            total_w = float(np.sum(wi))
            total_p = float(np.sum(np.where(pos, wi, 0.0)))
            for cat in cats:
                mask = col.astype(str) == cat
                wl = float(np.sum(wi[mask]))
                pl = float(np.sum(wi[mask & pos]))
                wr = total_w - wl
                pr = total_p - pl
                if wl <= 0.0 or wr <= 0.0:
                    continue
                imp = _loop_branch_impurity(pl, wl - pl) + _loop_branch_impurity(pr, wr - pr)
                cand = (imp, f, "cat", cat)
                if best is None or cand[0] < best[0]:
                    best = cand
    return best


@dataclass(eq=False)
class _LoopLeaf:
    idx: np.ndarray
    node: TreeNode
    created: int
    best: tuple | None = None


def _loop_train_tree(S_signed, weights, max_nodes: int) -> WeakHypothesis:
    w = np.asarray(weights, dtype=np.float64)
    active = np.nonzero(w > 0.0)[0]
    y = np.asarray(S_signed.labels, dtype=np.float64)

    def settle(idx: np.ndarray) -> float:
        wi = w[idx]
        w_tot = float(np.sum(wi))
        w_pos = float(np.sum(np.where(y[idx] > 0, wi, 0.0)))
        return _leaf_value(w_pos, w_tot, int(idx.size))

    root = TreeNode(value=settle(active))
    leaves = [_LoopLeaf(active, root, created=0)]
    n_internal = 0
    created = 1
    while n_internal < max_nodes:
        best_leaf = None
        best_gain = 0.0
        for leaf in sorted(leaves, key=lambda l: l.created):
            if leaf.best is None:
                leaf.best = _loop_best_split(S_signed, y, w, leaf.idx) or ()
            if leaf.best == ():
                continue
            wi = w[leaf.idx]
            w_tot = float(np.sum(wi))
            w_pos = float(np.sum(np.where(y[leaf.idx] > 0, wi, 0.0)))
            gain = _loop_branch_impurity(w_pos, w_tot - w_pos) - leaf.best[0]
            if gain > best_gain:
                best_leaf = leaf
                best_gain = gain
        if best_leaf is None:
            break
        _, f, kind, cut = best_leaf.best
        col = S_signed.columns[f][best_leaf.idx]
        if kind == "num":
            mask = col.astype(np.float64) <= cut
        else:
            mask = col.astype(str) == cut
        li = best_leaf.idx[mask]
        ri = best_leaf.idx[~mask]
        node = best_leaf.node
        node.feature = f
        node.threshold = cut if kind == "num" else None
        node.category = cut if kind == "cat" else None
        node.left = TreeNode(value=settle(li))
        node.right = TreeNode(value=settle(ri))
        node.value = 0.0
        leaves.remove(best_leaf)
        leaves.append(_LoopLeaf(li, node.left, created))
        leaves.append(_LoopLeaf(ri, node.right, created + 1))
        created += 2
        n_internal += 1
    return WeakHypothesis(root, n_internal, len(S_signed.columns))


N_REFERENCE_CASES = 320


def _reference_case(seed: int):
    """A small random (dataset, weights) pair built to provoke exact ties.

    Integer weights make every branch sum exact, so equal impurities across
    thresholds and features are common; a duplicated column forces
    cross-feature ties.  Columns may be constant, categorical columns may
    carry a single category, and labels may be all one class.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 40))
    columns, types = [], []
    for _ in range(int(rng.integers(1, 5))):
        style = rng.choice(["coarse", "integer", "constant", "fine", "cat", "cat1", "catrare"])
        if style == "coarse":
            col = np.round(rng.normal(size=m), 1)
        elif style == "integer":
            col = rng.integers(0, 4, size=m).astype(np.float64)
        elif style == "constant":
            col = np.full(m, 1.5)
        elif style == "fine":
            col = rng.normal(size=m)
        elif style == "cat":
            col = rng.choice(["b", "a", "c", "aa"], size=m)
        elif style == "cat1":
            col = np.full(m, "only")
        else:
            col = np.where(rng.random(m) < 0.1, "r", rng.choice(["p", "q"], size=m))
        columns.append(col)
        types.append("categorical" if style.startswith("cat") else "numeric")
    if rng.random() < 0.3:
        j = int(rng.integers(len(columns)))
        columns.append(columns[j].copy())
        types.append(types[j])
    label_style = rng.choice(["mixed", "pos", "neg"], p=[0.8, 0.1, 0.1])
    if label_style == "mixed":
        y = rng.choice([-1.0, 1.0], size=m)
    else:
        y = np.full(m, 1.0 if label_style == "pos" else -1.0)
    if rng.random() < 0.6:
        w = rng.integers(0, 4, size=m).astype(np.float64)
    else:
        w = rng.uniform(0.0, 2.0, size=m) * (rng.random(m) < 0.9)
    w[int(rng.integers(m))] = 1.0  # at least one example carries weight
    S = dataset_from_columns(columns, y, types=tuple(types))
    return S, w


def _tie_counts(S, y, w, idx, best) -> tuple[int, bool]:
    """How many features reach the best impurity, and whether the winning
    numeric column reaches it at a second cut (seen by mirroring the column:
    the loop then finds the last tied cut first)."""

    def alone(col, kind):
        return _loop_best_split(dataset_from_columns([col], S.labels, types=(kind,)), y, w, idx)

    per_feature = [alone(col, kind) for col, kind in zip(S.columns, S.feature_types)]
    n_features = sum(c is not None and c[0] == best[0] for c in per_feature)
    if best[2] != "num":
        return n_features, False
    mirrored = alone(-S.columns[best[1]], "numeric")
    return n_features, bool(mirrored[0] == best[0] and -mirrored[3] != best[3])


class TestLoopReference:
    """The vectorized split search must equal the loop it replaced, bit for bit."""

    def test_best_split_matches_loop(self):
        n_cross_ties = n_threshold_ties = 0
        for seed in range(N_REFERENCE_CASES):
            S, w = _reference_case(seed)
            y = S.labels
            rng = np.random.default_rng(10_000 + seed)
            active = np.nonzero(w > 0.0)[0]
            half = np.sort(rng.choice(active, size=max(1, active.size // 2), replace=False))
            for idx in (active, half):
                want = _loop_best_split(S, y, w, idx)
                assert _split(S, y, w, idx) == want, f"case {seed}"
                if want is not None:
                    n_features, threshold_tie = _tie_counts(S, y, w, idx, want)
                    n_cross_ties += n_features > 1
                    n_threshold_ties += threshold_tie
        # The cases do exercise both tie-breaks.
        assert n_cross_ties >= 20
        assert n_threshold_ties >= 20

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows themselves
    def test_best_split_matches_loop_when_sums_overflow(self):
        # Weights of 1e308 and inf overflow the branch sums and products to
        # inf and NaN; the vectorized search must still pick the loop's split.
        for seed in range(40):
            S, w = _reference_case(seed)
            rng = np.random.default_rng(20_000 + seed)
            w[rng.random(S.m) < 0.3] = rng.choice([1e308, np.inf])
            idx = np.nonzero(w > 0.0)[0]
            got = _split(S, S.labels, w, idx)
            want = _loop_best_split(S, S.labels, w, idx)
            assert (got is None) == (want is None), f"case {seed}"
            if want is not None:
                assert got[1:] == want[1:], f"case {seed}"
                np.testing.assert_array_equal(got[0], want[0])

    def test_best_split_matches_loop_with_many_large_categories(self):
        # 24 categories of 70-470 examples each: the per-category sums run
        # numpy's pairwise recursion (above 128 elements) in most slices.
        rng = np.random.default_rng(30_000)
        m = 6000
        p = rng.uniform(0.2, 2.0, size=24)
        code = rng.choice(24, size=m, p=p / p.sum())
        y = np.where(rng.random(m) < rng.uniform(0.1, 0.9, size=24)[code], 1.0, -1.0)
        S = dataset_from_columns(
            [np.char.add("c", code.astype(str)), rng.choice(["u", "v", "w"], size=m),
             rng.normal(size=m)],
            y,
            types=("categorical", "categorical", "numeric"),
        )
        w = rng.uniform(0.0, 2.0, size=m) * (rng.random(m) < 0.95)
        active = np.nonzero(w > 0.0)[0]
        for k in range(8):
            size = active.size - k * active.size // 10
            idx = np.sort(rng.choice(active, size=size, replace=False))
            want = _loop_best_split(S, S.labels, w, idx)
            assert want[2] == "cat"
            assert _split(S, S.labels, w, idx) == want, f"subset {k}"

    def test_trees_match_loop(self):
        for seed in range(N_REFERENCE_CASES):
            S, w = _reference_case(seed)
            for max_nodes in (1, 6):
                got = train_tree(S, w, max_nodes)
                want = _loop_train_tree(S, w, max_nodes)
                assert got.node_count == want.node_count, f"case {seed}"
                assert got.root == want.root, f"case {seed}"

    def test_deep_trees_match_loop(self):
        # 20-node trees on a few hundred examples: leaves deep in the tree
        # search orders partitioned through several splits.  Coarse and
        # integer columns tie many values, a duplicated column ties whole
        # features, integer weights tie branch sums, and a fifth to a
        # quarter of the examples carry zero weight.
        for seed in range(4):
            rng = np.random.default_rng(40_000 + seed)
            m = int(rng.integers(300, 601))
            coarse = np.round(rng.normal(size=m), 1)
            columns = [
                coarse,
                rng.choice(["b", "a", "c", "aa", "d"], size=m),
                rng.integers(0, 6, size=m).astype(np.float64),
                rng.normal(size=m),
                np.where(rng.random(m) < 0.05, "r", rng.choice(["p", "q"], size=m)),
                coarse.copy(),
            ]
            types = ("numeric", "categorical", "numeric", "numeric", "categorical", "numeric")
            score = coarse + 0.5 * (columns[1] == "a") + rng.normal(scale=0.7, size=m)
            S = dataset_from_columns(columns, np.where(score > 0, 1.0, -1.0), types=types)
            if seed % 2:
                w = rng.integers(0, 4, size=m).astype(np.float64)
            else:
                w = rng.uniform(0.0, 2.0, size=m) * (rng.random(m) < 0.8)
            got = train_tree(S, w, 20)
            want = _loop_train_tree(S, w, 20)
            assert want.node_count == 20, f"case {seed}"
            assert got.node_count == want.node_count, f"case {seed}"
            assert got.root == want.root, f"case {seed}"


class TestCandidatePremises:
    """The rules the vectorized search rests on, each on the case that tests
    it, against the loop: a candidate splits only while its right side keeps
    weight, which is a prefix of a numeric column's thresholds; a category
    present in a leaf has a positive weight sum; and a column with one
    category present has no candidate, even when its sums overflow."""

    def test_tiny_trailing_weights_truncate_the_numeric_prefix(self):
        # Past the heavy examples, wr = total - wl rounds to 0.0: the
        # thresholds after them are one-sided, and a column whose every
        # threshold is has no candidate.  Reversed, the tiny weights lead
        # and every threshold splits.
        S = dataset_from_numeric(np.arange(8.0)[:, None], np.array([1, -1, 1, -1, 1, 1, -1, 1.0]))
        idx = np.arange(8)
        heavy = np.array([1.0, 1.0, 1.0, 1.0, 1e-20, 1e-20, 1e-20, 1e-20])
        lone = np.array([1.0] + [1e-20] * 7)
        for w, n_split in ((heavy, 3), (lone, 0), (heavy[::-1].copy(), 7)):
            cum = np.cumsum(w)
            assert np.count_nonzero(cum[-1] - cum[:-1] > 0.0) == n_split
            want = _loop_best_split(S, S.labels, w, idx)
            assert _split(S, S.labels, w, idx) == want
            assert (want is None) == (n_split == 0)
            if n_split == 3:
                assert want[3] < 3.0  # a threshold of the prefix

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows themselves
    def test_overflowed_right_side_stays_in_the_prefix(self):
        # The sums overflow past the second example: the clean cut at 1.5
        # reads wr = inf - inf = NaN, which is not <= 0.0, so it stays a
        # candidate, as in the loop, and wins with impurity 0.
        S = dataset_from_numeric(np.arange(3.0)[:, None], np.array([-1.0, -1.0, 1.0]))
        w = np.array([1e308, 1e308, 1.0])
        want = _loop_best_split(S, S.labels, w, np.arange(3))
        assert want == (0.0, 0, "num", 1.5)
        assert _split(S, S.labels, w, np.arange(3)) == want

    def test_tiny_trailing_weights_in_a_batch(self):
        # The same truncation in each child of a split searched together,
        # on a coarse column whose ties leave fewer thresholds than examples.
        rng = np.random.default_rng(29_000)
        for case in range(40):
            m = 30
            x = np.round(rng.normal(size=m), 1)
            y = rng.choice([-1.0, 1.0], size=m)
            w = np.where(rng.random(m) < 0.5, 1e-20, rng.uniform(0.5, 2.0, size=m))
            S = dataset_from_numeric(np.column_stack((x, -x)), y)
            parts = _two_parts(rng, np.arange(m))
            want = [_loop_best_split(S, y, w, idx) for idx in parts]
            assert _splits(S, y, w, parts) == want, f"case {case}"

    def test_category_with_all_but_negligible_weight(self):
        # "a" holds all the weight but 1e-20: its right side rounds to 0.0,
        # so it is no candidate although it would tie "b", which comes after.
        S = dataset_from_columns([np.array(["a", "a", "b", "a"])], np.array([1.0, -1.0, 1.0, 1.0]),
                                 types=("categorical",))
        w = np.array([1.0, 1.0, 1e-20, 1.0])
        idx = np.arange(4)
        want = _loop_best_split(S, S.labels, w, idx)
        assert want[1:] == (0, "cat", "b")
        assert _split(S, S.labels, w, idx) == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows themselves
    def test_one_category_present_in_the_leaf(self):
        # Column 0 holds "a" and "b" in the dataset, but the leaves hold
        # only "a".  Weights of 1e308 overflow its sum, so wr = inf - inf is
        # NaN, which the wr <= 0.0 rule keeps; only the count of categories
        # present refuses it.  Without overflow the loop agrees too.
        col = np.array(["a", "a", "a", "a", "b", "a", "a", "a"])
        other = np.array(["p", "q", "p", "q", "p", "p", "q", "q"])
        S = dataset_from_columns([col, other], np.ones(8), types=("categorical", "categorical"))
        for weight in (1.0, 1e308):
            w = np.full(8, weight)
            leaves = [np.array([0, 1, 2, 3]), np.array([5, 6, 7])]
            want = [_loop_best_split(S, S.labels, w, idx) for idx in leaves]
            assert [c[1] for c in want] == [1, 1]
            got = _splits(S, S.labels, w, leaves)
            for g, c in zip(got, want):
                _assert_same_split(g, c, f"weight {weight}")
            for idx, c in zip(leaves, want):
                _assert_same_split(_split(S, S.labels, w, idx), c, f"weight {weight}")


def _two_parts(rng, idx: np.ndarray) -> list:
    """idx (two or more examples) cut in two by a seeded mask, each part
    ascending and nonempty."""
    left = rng.random(idx.size) < 0.5
    left[0], left[-1] = True, False
    return [idx[left], idx[~left]]


def _assert_same_split(got, want, where):
    # Impurities compare as arrays, so a NaN equals a NaN.
    assert (got is None) == (want is None), where
    if want is not None:
        assert got[1:] == want[1:], where
        np.testing.assert_array_equal(got[0], want[0], err_msg=where)


class TestSiblingBatch:
    """Searching a split's two children in one call must equal the loop on
    each child alone, bit for bit."""

    def test_batch_matches_loop_on_each_part(self):
        n_batches = 0
        for seed in range(N_REFERENCE_CASES):
            S, w = _reference_case(seed)
            active = np.nonzero(w > 0.0)[0]
            if active.size < 2:
                continue
            parts = _two_parts(np.random.default_rng(50_000 + seed), active)
            want = [_loop_best_split(S, S.labels, w, idx) for idx in parts]
            assert _splits(S, S.labels, w, parts) == want, f"case {seed}"
            # cut, from the whole order through the root, builds the same
            # orders as sorting each part.
            cols = S._index
            for got, idx in zip(cols.cut(cols.cut(cols.order, [active])[0], parts), parts):
                np.testing.assert_array_equal(got, _leaf_orders(S, idx))
            n_batches += 1
        assert n_batches >= 300

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows themselves
    def test_batch_matches_loop_when_sums_overflow(self):
        for seed in range(40):
            S, w = _reference_case(seed)
            rng = np.random.default_rng(20_000 + seed)
            w[rng.random(S.m) < 0.3] = rng.choice([1e308, np.inf])
            active = np.nonzero(w > 0.0)[0]
            if active.size < 2:
                continue
            parts = _two_parts(rng, active)
            for got, idx in zip(_splits(S, S.labels, w, parts), parts):
                _assert_same_split(got, _loop_best_split(S, S.labels, w, idx), f"case {seed}")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_candidate_infinite_picks_the_first(self):
        # Each category of c holds a positive and a negative example of
        # weight 1e308, so every candidate's impurity overflows to +inf.  The
        # first code, column "only"'s one category, is no candidate; the
        # masked argmin lands on it, and the pick must fall back to the first
        # candidate, ("c", "a"), as the loop's strict-< scan keeps it.  The
        # second part has one category of c only: no candidate at all.
        S = dataset_from_columns(
            [np.full(6, "only"), np.array(["a", "a", "b", "b", "a", "a"])],
            np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]),
            types=("categorical", "categorical"),
        )
        w = np.full(6, 1e308)
        parts = [np.arange(4), np.arange(4, 6)]
        want = [_loop_best_split(S, S.labels, w, idx) for idx in parts]
        assert want == [(np.inf, 1, "cat", "a"), None]
        assert _splits(S, S.labels, w, parts) == want

    def test_batch_matches_loop_with_many_large_categories(self):
        rng = np.random.default_rng(30_001)
        m = 6000
        p = rng.uniform(0.2, 2.0, size=24)
        code = rng.choice(24, size=m, p=p / p.sum())
        y = np.where(rng.random(m) < rng.uniform(0.1, 0.9, size=24)[code], 1.0, -1.0)
        S = dataset_from_columns(
            [np.char.add("c", code.astype(str)), rng.choice(["u", "v", "w"], size=m),
             rng.normal(size=m)],
            y,
            types=("categorical", "categorical", "numeric"),
        )
        w = rng.uniform(0.0, 2.0, size=m) * (rng.random(m) < 0.95)
        active = np.nonzero(w > 0.0)[0]
        for k in range(4):
            size = active.size - k * active.size // 5
            parts = _two_parts(rng, np.sort(rng.choice(active, size=size, replace=False)))
            want = [_loop_best_split(S, S.labels, w, idx) for idx in parts]
            assert [split[2] for split in want] == ["cat", "cat"]
            assert _splits(S, S.labels, w, parts) == want, f"subset {k}"

    def test_last_split_children_are_never_searched(self, monkeypatch):
        # The root is searched alone, then each split's two children
        # together, except the last split's: max_nodes splits, max_nodes calls.
        batches = []
        search = trees._best_split

        def counted(cols, w, wp, parts, w_tot, w_pos):
            batches.append(len(parts))
            return search(cols, w, wp, parts, w_tot, w_pos)

        monkeypatch.setattr(trees, "_best_split", counted)
        rng = np.random.default_rng(60_000)
        X = rng.normal(size=(300, 3))
        y = np.where(X[:, 0] + rng.normal(scale=0.8, size=300) > 0, 1.0, -1.0)
        h = train_tree(dataset_from_numeric(X, y), rng.uniform(0.5, 1.5, size=300), 12)
        assert h.node_count == 12
        assert batches == [1] + [2] * 11


class TestColumnsEncoding:
    """One stable string sort per categorical column gives the codes,
    labels, first codes and orders of the np.unique encoding it replaced."""

    @staticmethod
    def _check(S):
        cat = [f for f, kind in enumerate(S.feature_types) if kind != "numeric"]
        codes, labels, first_code = [], [], [0]
        for f in cat:
            uniq, inverse = np.unique(S.columns[f].astype(str), return_inverse=True)
            codes.append(inverse + first_code[-1])
            labels.extend(uniq)
            first_code.append(len(labels))
        cols = S._index
        np.testing.assert_array_equal(cols.codes, np.array(codes, dtype=np.intp).reshape(len(cat), S.m))
        assert cols.labels == labels
        assert all(type(got) is type(want) for got, want in zip(cols.labels, labels))
        np.testing.assert_array_equal(cols.first_code, first_code)
        n_num = len(S.columns) - len(cat)
        for r, row in enumerate(codes):
            np.testing.assert_array_equal(cols.order[n_num + r], np.argsort(row, kind="stable"))
        return cols

    def test_matches_unique_encoding_on_reference_cases(self):
        n_categorical = 0
        for seed in range(N_REFERENCE_CASES):
            S, _ = _reference_case(seed)
            n_categorical += self._check(S).codes.shape[0] > 0
        assert n_categorical >= 100

    def test_single_category_and_integer_labels(self):
        # An integer column typed categorical is encoded by its strings, and
        # "10" sorts before "9".
        S = Dataset(
            (np.full(6, "only"), np.array([10, 9, 2, 10, 9, 100]), np.arange(6.0)),
            np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]),
            ("one", "ints", "x"),
            ("categorical", "categorical", "numeric"),
        )
        cols = self._check(S)
        assert cols.labels == ["only", "10", "100", "2", "9"]
        assert cols.codes.tolist() == [[0] * 6, [1, 4, 3, 1, 4, 2]]


def _rows(S, idx: np.ndarray) -> Dataset:
    """The rows idx of S as a dataset of their own, its index built from
    its own columns."""
    return Dataset(tuple(col[idx] for col in S.columns), S.labels[idx], S.feature_names,
                   S.feature_types)


def _decoded(index) -> tuple:
    """An index's values, orders and each categorical row's labels: all it
    says about its examples, free of how its codes are numbered."""
    labels = np.array(index.labels, dtype=object)
    return [v.tolist() for v in index.values], index.order.tolist(), labels[index.codes].tolist()


def _index_subsets(rng, S) -> list:
    """(kind, subset of S, its rows) for subsets taken in every way: with
    increasing indices, some of them missing a category; through a
    relabelled subset; and with permuted and with repeated indices."""
    inc = np.sort(rng.choice(S.m, size=int(rng.integers(1, S.m + 1)), replace=False))
    keep = np.ones(S.m, dtype=bool)
    for col, kind in zip(S.columns, S.feature_types):
        if kind == "categorical":
            keep &= col != col[int(rng.integers(S.m))]
    lacking = np.flatnonzero(keep) if keep.any() else inc
    inner = np.sort(rng.choice(inc.size, size=max(1, inc.size // 2), replace=False))
    chained = S.subset(inc).with_labels(-S.labels[inc]).subset(inner)
    perm, rep = rng.permutation(inc), rng.choice(S.m, size=S.m)
    return [
        ("increasing", S.subset(inc), _rows(S, inc)),
        ("lacking", S.subset(lacking), _rows(S, lacking)),
        ("chained", chained, _rows(chained, np.arange(chained.m))),
        ("permuted", S.subset(perm), _rows(S, perm)),
        ("repeated", S.subset(rep), _rows(S, rep)),
    ]


class TestColumnIndex:
    """A subset's column index, filtered from its parent's or built from its
    own columns, says what an index built from those rows says, and trees
    and predictions read it as they would read that one."""

    def test_subset_index_matches_index_built_from_its_rows(self):
        n_derived = n_lacking = 0
        for seed in range(N_REFERENCE_CASES):
            S, _ = _reference_case(seed)
            rng = np.random.default_rng(70_000 + seed)
            for kind, sub, rows in _index_subsets(rng, S):
                assert _decoded(sub._index) == _decoded(rows._index), f"case {seed}, {kind}"
                if kind in ("increasing", "lacking", "chained"):
                    # Filtered from S's index: its codes and labels are S's.
                    assert sub._index.labels is S._index.labels, f"case {seed}, {kind}"
                    n_derived += 1
                    n_lacking += len(sub._index.labels) > len(rows._index.labels)
        assert n_derived == 3 * N_REFERENCE_CASES
        assert n_lacking >= 200

    def test_subset_trees_match_trees_on_their_rows(self):
        n_cat_trees = 0
        for seed in range(N_REFERENCE_CASES):
            S, w = _reference_case(seed)
            rng = np.random.default_rng(80_000 + seed)
            for kind, sub, rows in _index_subsets(rng, S):
                w_sub = rng.integers(0, 4, size=sub.m).astype(np.float64)
                w_sub[0] = 1.0
                for max_nodes in (1, 6):
                    got = train_tree(sub, w_sub, max_nodes)
                    want = train_tree(rows, w_sub, max_nodes)
                    assert got.node_count == want.node_count, f"case {seed}, {kind}"
                    assert got.root == want.root, f"case {seed}, {kind}"
                    n_cat_trees += any(n.category is not None for n, _ in got.walk())
        assert n_cat_trees >= 400

    def test_predictions_match_row_by_row(self):
        # Trees trained on a subset lacking a category predict S, which
        # has it; trees trained on S predict rows lacking one of its
        # categories, a test whose category the index does not know.
        n_unknown = 0
        for seed in range(N_REFERENCE_CASES):
            S, w = _reference_case(seed)
            rng = np.random.default_rng(90_000 + seed)
            _, lacking, rows = _index_subsets(rng, S)[1]
            pairs = [(train_tree(S, w, 6), rows),
                     (train_tree(lacking, np.ones(lacking.m), 6), S)]
            for h, data in pairs:
                want = [h.predict(data.row(i)) for i in range(data.m)]
                assert h.predict_dataset(data).tolist() == want, f"case {seed}"
                n_unknown += any(
                    n.category is not None and n.category not in data.columns[n.feature]
                    for n, _ in h.walk()
                )
        assert n_unknown >= 40

    def test_prediction_leaves_orders_unbuilt(self):
        # Prediction reads values and codes only; the orders are sorted
        # when a tree is trained, and give the tree they give unpredicted.
        n_numeric = 0
        for seed in range(N_REFERENCE_CASES):
            S, w = _reference_case(seed)
            h = train_tree(S, w, 6)
            fresh = _rows(S, np.arange(S.m))
            assert h.predict_dataset(fresh).tolist() == h.predict_dataset(S).tolist(), f"case {seed}"
            assert "order" not in vars(fresh._index), f"case {seed}"
            got = train_tree(fresh, w, 6)
            assert "order" in vars(fresh._index), f"case {seed}"
            assert got.node_count == h.node_count and got.root == h.root, f"case {seed}"
            n_numeric += "numeric" in S.feature_types
        assert n_numeric >= 200

    def test_category_test_on_numeric_feature_is_refused(self):
        h = WeakHypothesis(
            TreeNode(feature=0, category="a", left=TreeNode(value=1.0), right=TreeNode(value=-1.0)),
            node_count=1,
            n_features=1,
        )
        with pytest.raises(ValueError, match="a category test on feature 0, which is numeric"):
            h.predict_dataset(_stump_data())
