"""Decision-tree weak hypotheses.

Trees are grown greedily on sign-corrected labels with absolute-value
weights, splitting to minimize the weighted Matushita impurity
sum_branch W_b * 2*sqrt(p_b*(1-p_b)).  Leaves carry smoothed confidences that
are finite and nonzero by construction, and nonzero_shift repairs the rare
exact zero so the booster can always divide by a prediction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import _ColumnIndex
from .errors import ConfigError

__all__ = [
    "TreeNode",
    "WeakHypothesis",
    "train_tree",
    "max_confidence",
    "nonzero_shift",
]

SHIFT_GAMMA, SHIFT_EPS_FRAC = 0.1, 0.5  # nonzero_shift's assumed edge, share of it to spend


@dataclass
class TreeNode:
    """One tree node; leaves hold a confidence, internal nodes hold a test.

    Numeric tests send x[feature] <= threshold left; categorical tests send
    x[feature] == category left.  Unseen categories therefore fall right.
    """

    value: float = 0.0
    feature: int = -1
    threshold: float | None = None
    category: str | None = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class WeakHypothesis:
    root: TreeNode
    node_count: int  # internal nodes
    n_features: int

    def predict(self, x) -> float:
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(x)}")
        node = self.root
        while not node.is_leaf:
            if node.threshold is not None:
                go_left = float(x[node.feature]) <= node.threshold
            else:
                go_left = str(x[node.feature]) == node.category
            node = node.left if go_left else node.right
        return node.value

    def predict_dataset(self, S) -> np.ndarray:
        """Vectorized prediction over a dataset: each test splits its examples'
        indices between its children, walked with an explicit stack, so any
        depth works.  Tests read S's column index: numeric values as they
        are, categories as integer codes.  S must have the tree's feature
        count, as predict's rows must."""
        if len(S.columns) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(S.columns)}")
        out = np.empty(S.m, dtype=np.float64)
        stack = [(self.root, np.arange(S.m))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = node.value
                continue
            numeric = S.feature_types[node.feature] == "numeric"
            if numeric != (node.threshold is not None):
                raise ValueError(
                    f"a {'category' if numeric else 'threshold'} test on feature "
                    f"{node.feature}, which is {S.feature_types[node.feature]}"
                )
            mask = S._index.goes_left(node.feature, node.threshold if numeric else node.category, idx)
            stack += [(node.right, idx[(~mask).nonzero()[0]]), (node.left, idx[mask.nonzero()[0]])]
        return out

    def walk(self):
        """(node, depth) for every node, parents first and left before right,
        the root at depth 0; an explicit stack, so any depth works."""
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if not node.is_leaf:
                stack += [(node.right, depth + 1), (node.left, depth + 1)]

    def iter_leaves(self):
        return (node for node, _ in self.walk() if node.is_leaf)

    def depth(self) -> int:
        """Internal nodes on the longest root-to-leaf path (0 for a lone leaf)."""
        return max(depth for _, depth in self.walk())

    def shifted(self, delta: float) -> "WeakHypothesis":
        """A copy with delta added to every leaf confidence."""
        root = TreeNode()
        stack = [(self.root, root)]
        while stack:
            node, new = stack.pop()
            if node.is_leaf:
                new.value = node.value + delta
            else:
                new.feature, new.threshold, new.category = node.feature, node.threshold, node.category
                new.left, new.right = TreeNode(), TreeNode()
                stack += [(node.left, new.left), (node.right, new.right)]
        return WeakHypothesis(root, self.node_count, self.n_features)


def _leaf_value(w_pos: float, w_tot: float, n_examples: int) -> float:
    # Smoothed confidence: kappa keeps pure leaves finite and nonzero.
    p = w_pos / w_tot
    kappa = 1.0 / (2.0 * n_examples + 2.0)
    return 0.5 * math.log((p + kappa) / (1.0 - p + kappa))


@dataclass(eq=False)  # identity equality: lists of leaves remove by object
class _Leaf:
    idx: np.ndarray  # positive-weight example indices at this leaf, ascending
    node: TreeNode
    w_tot: float  # the leaf's total weight
    w_pos: float  # and its positive examples' weight
    impurity: float  # of the leaf as it stands, unsplit
    # Per-row example orders (see _ColumnIndex.cut): the parent's, a superset,
    # until the leaf is searched; its own from then on.  A leaf that is
    # never searched never pays for cutting them down.
    orders: np.ndarray
    best: tuple | None = None  # (impurity, feature, kind, cut) for its best split
    gain: float = 0.0  # impurity - best[0] once searched; 0.0 when nothing splits it


def _branch_impurity(w_pos, w_neg):
    # W * 2*sqrt(p(1-p)) simplifies to 2*sqrt(w_pos*w_neg); cumulative sums
    # can leave a pure branch's complement a hair below zero.  Works on
    # scalars and on arrays of candidate branches alike; fmax, like Python's
    # max(0.0, x), maps the NaN of an overflowed product (0 * inf) to 0.
    return 2.0 * np.sqrt(np.fmax(0.0, w_pos * w_neg))


def _code_sums(codes: np.ndarray, wi: np.ndarray, n_codes: int):
    """(sums, counts): for each code below n_codes, wi summed and counted over
    the examples carrying it.

    codes must be sorted, with each code's weights in wi in the order the
    reference sums them (np.sum(wi[mask]) over the leaf in example order).
    np.add.reduce over a slice adds its elements pairwise to the identity
    0.0; np.add.reduceat starts a segment from its first element instead and
    adds the rest pairwise, which rounds differently.  So every code's slice
    gets a 0.0 in front, and one reduceat over the padded array returns each
    code's sum exactly as np.add.reduce on the bare slice does.
    """
    counts = np.bincount(codes, minlength=n_codes)
    padded = np.zeros(codes.size + n_codes)
    padded[np.arange(1, codes.size + 1) + codes] = wi
    return np.add.reduceat(padded, counts.cumsum() - counts + np.arange(n_codes)), counts


def _first_min(wl, pl, wr, pr):
    """(index, impurity) of the best candidate split, or None if none splits.

    The arrays hold each candidate's left/right total and positive weight, in
    scan order; the first minimum wins, as a strict-< scan would pick it.  A
    candidate splits when both sides carry weight.  wl is a running sum of
    positive weights, so it is positive and wr = total - wl nonincreasing:
    wr stays positive (or inf, then NaN, once the sums overflow) on a prefix
    and is <= 0 after it, so the candidates that split are that prefix, and
    all of them unless the last candidate's wr is <= 0.
    """
    n = wr.size
    if n and wr[-1] <= 0.0:
        n -= np.count_nonzero(wr <= 0.0)  # the one-sided suffix
    if n == 0:
        return None  # no candidate, or none that splits
    if n < wr.size:
        wl, pl, wr, pr = wl[:n], pl[:n], wr[:n], pr[:n]
    imp = _branch_impurity(pl, wl - pl) + _branch_impurity(pr, wr - pr)
    j = int(imp.argmin())
    return j, imp[j]


def _best_split(cols: _ColumnIndex, w, wp, parts: list, w_tot, w_pos) -> list:
    """Each leaf's best (impurity, feature, kind, cut) over its candidate
    splits, or None when no split separates its examples.

    One call searches a batch of leaves: the root alone, then the two
    children of the last split.  parts holds each leaf's orders, its
    examples once per row of cols.order: by value in numeric rows and by
    code in categorical rows, ties in example order (cols.cut builds them).
    A leaf's examples carry positive weight.  w is the example weights, wp
    the same with negative examples' weights zeroed, and w_tot and w_pos
    the leaves' total and positive weights.  kind is "num" (threshold
    midpoint) or "cat" (one-vs-rest category); ties resolve to the lowest
    feature index, then the lowest threshold / lexicographically first
    category, as a scan over the candidates in that order would pick.

    Each numeric column scores all its thresholds at once per leaf; because
    the leaf's weights are positive, the thresholds that split are a prefix
    of them (see _first_min).  All categorical columns of all the leaves
    score their categories together, from one _code_sums call that gives
    every (leaf, category) its total and positive weight; a category is
    present in a leaf when its total is positive.
    """
    n_num = len(cols.values)
    cands = [[] for _ in parts]  # per leaf: each numeric column's best, then the categorical best
    for found, orders in zip(cands, parts):
        for f, col, order in zip(cols.num_feature, cols.values, orders):
            sv = col[order]
            cum_w = w[order].cumsum()
            cum_p = wp[order].cumsum()
            k = (sv[1:] > sv[:-1]).nonzero()[0]  # split after sorted position k
            if k.size == sv.size - 1:  # no ties: k is every position but the last
                wl, pl = cum_w[:-1], cum_p[:-1]
            else:
                wl, pl = cum_w[k], cum_p[k]
            hit = _first_min(wl, pl, cum_w[-1] - wl, cum_p[-1] - pl)
            if hit is not None:
                i, imp = hit
                found.append((imp, f, "num", 0.5 * (sv[k[i]] + sv[k[i] + 1])))
    if cols.codes.size:
        # Every leaf's examples in code order, row after row, leaf after
        # leaf; leaf j's codes are offset by j * n_codes, so codes ascend
        # throughout, and within a code the examples keep example order.
        n_codes = len(cols.labels)
        rows = np.arange(cols.codes.shape[0])[:, None]
        ex = np.concatenate([orders[n_num:].ravel() for orders in parts])
        codes = np.concatenate([cols.codes[rows, orders[n_num:]].ravel() + j * n_codes
                                for j, orders in enumerate(parts)])
        # The positive examples' codes follow, offset by n, so one call sums
        # both, each (leaf, code) with its own 0.0 pad; an absent code sums to 0.0.
        n = len(parts) * n_codes
        wp_ex = wp[ex]
        on = (wp_ex > 0.0).nonzero()[0]  # as cut gathers, not a boolean mask
        sums, _ = _code_sums(np.concatenate((codes, codes[on] + n)),
                             np.concatenate((w[ex], wp_ex[on])), 2 * n)
        wl, pl = sums[:n].reshape(len(parts), n_codes), sums[n:].reshape(len(parts), n_codes)
        present = wl > 0.0
        wr = np.array(w_tot)[:, None] - wl
        pr = np.array(w_pos)[:, None] - pl
        # Candidates: the categories present, in columns where two or more
        # are, that leave weight on both sides.
        n_present = np.add.reduceat(present, cols.first_code[:-1], axis=1, dtype=np.intp)
        ok = present & (n_present >= 2)[:, cols.code_row] & ~(wr <= 0.0)
        imp = _branch_impurity(pl, wl - pl) + _branch_impurity(pr, wr - pr)
        # argmin picks the first minimum, or the first NaN, as _first_min
        # does; it lands on a non-candidate only when every candidate is +inf.
        pick = np.where(ok, imp, np.inf).argmin(axis=1)
        for found, ok_j, imp_j, i in zip(cands, ok, imp, pick.tolist()):
            if not ok_j[i]:
                if not ok_j.any():
                    continue
                i = int(np.argmax(ok_j))
            found.append((imp_j[i], cols.code_feature[i], "cat", cols.labels[i]))
    return [min(found, key=lambda c: (c[0], c[1]), default=None) for found in cands]


def train_tree(S_signed, weights, max_nodes: int, seed: int = 0) -> WeakHypothesis:
    """Grow a tree on (sign-corrected labels, |weights|), best-first.

    Growth repeatedly expands the leaf whose best split most decreases the
    weighted Matushita impurity, until max_nodes internal nodes exist, every
    leaf is pure, or no split decreases the impurity.  A split's two children
    are searched together, in one _best_split call, when the next leaf is
    chosen; the last split's children are never searched.  `seed` is
    accepted for interface stability; induction is deterministic.  Weights
    large enough for impurity products to overflow build the tree of their
    scaling by a power of two, which is the same tree; weights spanning too
    wide a range for that raise ConfigError.
    """
    del seed
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (S_signed.m,):
        raise ValueError("weights must match the dataset length")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if np.count_nonzero(w < 0.0):
        raise ValueError("weights must be nonnegative")
    active = (w > 0.0).nonzero()[0]
    if active.size == 0:
        raise ValueError("all-zero weight vector: nothing to train on")
    wp = np.where(np.asarray(S_signed.labels, dtype=np.float64) > 0, w, 0.0)
    # A branch impurity multiplies two weight totals, so totals are kept
    # below 2**500: larger weights are scaled by a power of two, which is
    # exact while each positive weight stays a normal float and so builds
    # the tree these weights give on unbounded floats.
    largest = float(w.max())
    top = math.frexp(largest)[1] + w.size.bit_length()  # every weight total < 2**top
    if top > 500:
        scale, smallest = math.ldexp(1.0, 500 - top), float(w[active].min())
        if smallest * scale < sys.float_info.min:
            raise ConfigError(
                f"tree weights from {smallest!r} to {largest!r} span too wide a range: "
                "no power-of-two scale keeps their products finite and every weight normal"
            )
        w, wp = w * scale, wp * scale
    cols = S_signed._index

    def make_leaf(idx: np.ndarray, orders: np.ndarray) -> _Leaf:
        w_tot = float(np.add.reduce(w[idx]))  # ndarray.sum's own reduction, without its wrapper
        w_pos = float(np.add.reduce(wp[idx]))
        node = TreeNode(value=_leaf_value(w_pos, w_tot, idx.size))
        # _branch_impurity on floats: sqrt is correctly rounded, and max maps
        # the NaN of an overflowed product to 0.0 as fmax does.
        impurity = 2.0 * math.sqrt(max(0.0, w_pos * (w_tot - w_pos)))
        return _Leaf(idx, node, w_tot, w_pos, impurity, orders)

    leaves = [make_leaf(active, cols.order)]
    root = leaves[0].node
    n_internal = 0
    while n_internal < max_nodes:
        # Search the unsearched leaves (the root, or the last split's two
        # children, which share their parent's orders) and expand the leaf
        # whose best split decreases the impurity the most.  leaves stays in
        # creation order, so the earliest leaf wins ties.
        fresh = [leaf for leaf in leaves if leaf.best is None]
        if fresh:
            parts = cols.cut(fresh[0].orders, [leaf.idx for leaf in fresh])
            found = _best_split(cols, w, wp, parts, [leaf.w_tot for leaf in fresh],
                                [leaf.w_pos for leaf in fresh])
            for leaf, orders, best in zip(fresh, parts, found):
                leaf.orders, leaf.best = orders, best or ()
                leaf.gain = float(leaf.impurity - best[0]) if best else 0.0
        best_leaf = None
        best_gain = 0.0
        for leaf in leaves:
            if leaf.gain > best_gain:  # a NaN gain never wins
                best_leaf = leaf
                best_gain = leaf.gain
        if best_leaf is None:
            break
        _, f, kind, cut = best_leaf.best
        mask = cols.goes_left(f, cut, best_leaf.idx)  # gathered by position, as cut does
        left = make_leaf(best_leaf.idx[mask.nonzero()[0]], best_leaf.orders)
        right = make_leaf(best_leaf.idx[(~mask).nonzero()[0]], best_leaf.orders)
        node = best_leaf.node
        node.feature = f
        node.threshold = cut if kind == "num" else None
        node.category = cut if kind == "cat" else None
        node.left = left.node
        node.right = right.node
        node.value = 0.0
        leaves.remove(best_leaf)
        leaves += [left, right]
        n_internal += 1
    return WeakHypothesis(root, n_internal, len(S_signed.columns))


def max_confidence(h: WeakHypothesis, S) -> float:
    """M = max_i |h(x_i)| over the training set."""
    return float(np.max(np.abs(h.predict_dataset(S))))


def nonzero_shift(h: WeakHypothesis, S) -> WeakHypothesis:
    """Shift every leaf by a small constant if any leaf is exactly zero.

    S is predicted only to size the shift, SHIFT_EPS_FRAC*SHIFT_GAMMA*M/(1+SHIFT_GAMMA):
    it costs at most a factor (1 - SHIFT_EPS_FRAC) of a true weak learner's edge
    SHIFT_GAMMA, and its sign keeps every leaf off zero.
    """
    leaf_vals = [leaf.value for leaf in h.iter_leaves()]
    if all(v != 0.0 for v in leaf_vals):
        return h
    M = max_confidence(h, S) or max(abs(v) for v in leaf_vals) or 1.0
    delta = SHIFT_EPS_FRAC * SHIFT_GAMMA * M / (1.0 + SHIFT_GAMMA)
    for _ in range(100):
        for signed in (delta, -delta):
            if all(v + signed != 0.0 for v in leaf_vals):
                return h.shifted(signed)
        delta *= 1.0 + 1e-9
    raise RuntimeError("could not find a zero-avoiding shift")
