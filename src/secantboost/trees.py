"""Decision-tree weak hypotheses.

Trees are grown greedily on sign-corrected labels with absolute-value
weights, splitting to minimize the weighted Matushita impurity
sum_branch W_b * 2*sqrt(p_b*(1-p_b)).  Leaves carry smoothed confidences that
are finite and nonzero by construction, and nonzero_shift repairs the rare
exact zero so the booster can always divide by a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
        """Vectorized prediction over a dataset via recursive masking."""
        out = np.empty(S.m, dtype=np.float64)
        self._fill(self.root, S, np.arange(S.m), out)
        return out

    def _fill(self, node: TreeNode, S, idx: np.ndarray, out: np.ndarray) -> None:
        if node.is_leaf:
            out[idx] = node.value
            return
        col = S.columns[node.feature][idx]
        if node.threshold is not None:
            mask = col.astype(np.float64) <= node.threshold
        else:
            mask = col.astype(str) == node.category
        self._fill(node.left, S, idx[mask], out)
        self._fill(node.right, S, idx[~mask], out)

    def iter_leaves(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend((node.right, node.left))

    def shifted(self, delta: float) -> "WeakHypothesis":
        """A copy with delta added to every leaf confidence."""

        def copy(node: TreeNode) -> TreeNode:
            if node.is_leaf:
                return TreeNode(value=node.value + delta)
            return TreeNode(
                feature=node.feature,
                threshold=node.threshold,
                category=node.category,
                left=copy(node.left),
                right=copy(node.right),
            )

        return WeakHypothesis(copy(self.root), self.node_count, self.n_features)


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
    # Per-row example orders (see _Columns.restrict): the parent's, a
    # superset, until the leaf is searched; its own from then on.  A leaf
    # that is never searched never pays for cutting them down.
    orders: np.ndarray
    best: tuple | None = None  # (impurity, feature, kind, cut) for its best split


def _branch_impurity(w_pos, w_neg):
    # W * 2*sqrt(p(1-p)) simplifies to 2*sqrt(w_pos*w_neg); cumulative sums
    # can leave a pure branch's complement a hair below zero.  Works on
    # scalars and on arrays of candidate branches alike; fmax, like Python's
    # max(0.0, x), maps the NaN of an overflowed product (0 * inf) to 0.
    return 2.0 * np.sqrt(np.fmax(0.0, w_pos * w_neg))


class _Columns:
    """A dataset's features, encoded once per tree for split search.

    Numeric columns are float64 values.  Categorical columns become rows of
    integer codes, sorted by category label within a column and numbered on
    across columns in feature order, so each (column, category) pair has its
    own code and code order is scan order.  order holds one stable order of
    all examples per feature row, numeric rows (by value) first, then
    categorical rows (by code); ties keep example order.  A leaf's examples
    are these orders restricted to its members (see restrict), so split
    search never sorts again.
    """

    def __init__(self, S):
        self.kinds = S.feature_types
        num = [f for f, kind in enumerate(self.kinds) if kind == "numeric"]
        cat = [f for f, kind in enumerate(self.kinds) if kind != "numeric"]
        self.row = {f: r for rows in (num, cat) for r, f in enumerate(rows)}
        self.num_feature = num
        self.values = [np.asarray(S.columns[f], dtype=np.float64) for f in num]
        codes, self.labels, first_code = [], [], [0]
        for f in cat:
            labels, inverse = np.unique(S.columns[f].astype(str), return_inverse=True)
            codes.append(inverse + first_code[-1])
            self.labels.extend(labels)
            first_code.append(len(self.labels))
        self.codes = np.array(codes, dtype=np.intp)
        self.codes.shape = (len(cat), S.m)
        self.first_code = np.array(first_code, dtype=np.intp)
        n_labels = np.diff(first_code)
        self.code_feature = [f for f, n in zip(cat, n_labels) for _ in range(n)]
        self.code_row = np.repeat(np.arange(len(cat)), n_labels)  # each code's row of codes
        self.order = np.empty((len(self.kinds), S.m), dtype=np.intp)
        for r, col in enumerate(self.values + list(self.codes)):
            self.order[r] = np.argsort(col, kind="stable")

    def restrict(self, orders: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """orders with each row cut down to the examples of idx, stably.

        orders holds a superset of idx in every row (order itself, or a
        parent leaf's orders).  A stable filter of a stable sort is the stable
        sort of the subset, so each row of the result lists idx's examples by
        value or code with ties in example order, as sorting them would.
        """
        if idx.size == orders.shape[1]:
            return orders  # no example to drop
        member = np.zeros(self.order.shape[1], dtype=bool)
        member[idx] = True
        return orders[member[orders]].reshape(orders.shape[0], idx.size)

    def goes_left(self, f: int, cut, idx: np.ndarray) -> np.ndarray:
        """Which examples of idx a split on feature f at cut sends left."""
        r = self.row[f]
        if self.kinds[f] == "numeric":
            return self.values[r][idx] <= cut
        first, end = self.first_code[r], self.first_code[r + 1]
        return self.codes[r, idx] == first + self.labels[first:end].index(cut)


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
    return np.add.reduceat(padded, np.cumsum(counts) - counts + np.arange(n_codes)), counts


def _first_min(wl, pl, wr, pr):
    """(index, impurity) of the best candidate split, or None if none splits.

    The arrays hold each candidate's left/right total and positive weight, in
    scan order; the first minimum wins, as a strict-< scan would pick it.
    """
    ok = np.flatnonzero(~((wl <= 0.0) | (wr <= 0.0)))
    if ok.size == 0:
        return None
    wl, pl, wr, pr = wl[ok], pl[ok], wr[ok], pr[ok]
    imp = _branch_impurity(pl, wl - pl) + _branch_impurity(pr, wr - pr)
    j = int(np.argmin(imp))
    return int(ok[j]), imp[j]


def _best_split(cols: _Columns, y, w, orders: np.ndarray, w_tot: float, w_pos: float):
    """Best (impurity, feature, kind, cut) over all candidate splits at a leaf.

    kind is "num" (threshold midpoint) or "cat" (one-vs-rest category); ties
    resolve to the lowest feature index, then the lowest threshold /
    lexicographically first category.  Each numeric column scores all its
    thresholds at once, and all categorical columns score their categories
    together, exactly as a scan over the candidates in that order would.
    orders lists the leaf's examples once per row of cols.order: by value in
    numeric rows and by code in categorical rows, ties in example order
    (cols.restrict builds it).  w_tot and w_pos are the leaf's total and
    positive weight.  Returns None when no split separates the examples.
    """
    n_num = len(cols.values)
    cands = []  # each numeric column's best, then the best categorical split
    for f, col, order in zip(cols.num_feature, cols.values, orders):
        sv = col[order]
        sw = w[order]
        cum_w = np.cumsum(sw)
        cum_p = np.cumsum(np.where(y[order] > 0, sw, 0.0))
        k = np.nonzero(sv[1:] > sv[:-1])[0]  # split after sorted position k
        wl = cum_w[k]
        pl = cum_p[k]
        hit = _first_min(wl, pl, cum_w[-1] - wl, cum_p[-1] - pl)
        if hit is not None:
            i, imp = hit
            cands.append((imp, f, "num", 0.5 * (sv[k[i]] + sv[k[i] + 1])))
    if cols.codes.size:
        # Every categorical row's examples in code order, row after row: codes
        # ascend throughout, and within a code the examples keep example order.
        ex = orders[n_num:]
        codes = cols.codes[np.arange(len(ex))[:, None], ex].ravel()
        ex = ex.ravel()
        n_codes = len(cols.labels)
        on = y[ex] > 0
        wl, counts = _code_sums(codes, w[ex], n_codes)
        pl, _ = _code_sums(codes[on], w[ex[on]], n_codes)
        present = counts > 0
        # Candidates: the categories present, in columns where two or more are.
        n_present = np.add.reduceat(present, cols.first_code[:-1], dtype=np.intp)
        at = np.flatnonzero(present & (n_present >= 2)[cols.code_row])
        wl, pl = wl[at], pl[at]
        hit = _first_min(wl, pl, w_tot - wl, w_pos - pl)
        if hit is not None:
            i, imp = hit
            cands.append((imp, cols.code_feature[at[i]], "cat", cols.labels[at[i]]))
    return min(cands, key=lambda c: (c[0], c[1]), default=None)


def train_tree(S_signed, weights, max_nodes: int, seed: int = 0) -> WeakHypothesis:
    """Grow a tree on (sign-corrected labels, |weights|), best-first.

    Growth repeatedly expands the leaf whose best split most decreases the
    weighted Matushita impurity, until max_nodes internal nodes exist, every
    leaf is pure, or no split decreases the impurity.  `seed` is accepted for
    interface stability; induction is deterministic.
    """
    del seed
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (S_signed.m,):
        raise ValueError("weights must match the dataset length")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    active = np.nonzero(w > 0.0)[0]
    if active.size == 0:
        raise ValueError("all-zero weight vector: nothing to train on")
    y = np.asarray(S_signed.labels, dtype=np.float64)
    cols = _Columns(S_signed)

    def make_leaf(idx: np.ndarray, orders: np.ndarray) -> _Leaf:
        wi = w[idx]
        w_tot = float(np.sum(wi))
        w_pos = float(np.sum(np.where(y[idx] > 0, wi, 0.0)))
        node = TreeNode(value=_leaf_value(w_pos, w_tot, int(idx.size)))
        return _Leaf(idx, node, w_tot, w_pos, _branch_impurity(w_pos, w_tot - w_pos), orders)

    leaves = [make_leaf(active, cols.order)]
    root = leaves[0].node
    n_internal = 0
    while n_internal < max_nodes:
        # Refresh candidate splits lazily and expand the leaf whose best
        # split decreases the impurity the most.  leaves stays in creation
        # order, so the earliest leaf wins ties.
        best_leaf = None
        best_gain = 0.0
        for leaf in leaves:
            if leaf.best is None:
                leaf.orders = cols.restrict(leaf.orders, leaf.idx)
                leaf.best = _best_split(cols, y, w, leaf.orders, leaf.w_tot, leaf.w_pos) or ()
            if leaf.best == ():
                continue
            gain = leaf.impurity - leaf.best[0]
            if gain > best_gain:
                best_leaf = leaf
                best_gain = gain
        if best_leaf is None:
            break
        _, f, kind, cut = best_leaf.best
        mask = cols.goes_left(f, cut, best_leaf.idx)
        left = make_leaf(best_leaf.idx[mask], best_leaf.orders)
        right = make_leaf(best_leaf.idx[~mask], best_leaf.orders)
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
