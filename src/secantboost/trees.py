"""Decision-tree weak hypotheses.

Trees are grown greedily on sign-corrected labels with absolute-value
weights, splitting to minimize the weighted Matushita impurity
sum_branch W_b * 2*sqrt(p_b*(1-p_b)).  Leaves carry smoothed confidences that
are finite and nonzero by construction, and nonzero_shift repairs the rare
exact zero so the booster can always divide by a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "TreeNode",
    "WeakHypothesis",
    "train_tree",
    "max_confidence",
    "nonzero_shift",
]


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
    idx: np.ndarray  # positive-weight example indices at this leaf
    node: TreeNode
    created: int
    best: tuple | None = None  # (impurity, feature, kind, cut) for its best split


def _branch_impurity(w_pos: float, w_neg: float) -> float:
    # W * 2*sqrt(p(1-p)) simplifies to 2*sqrt(w_pos*w_neg); cumulative sums
    # can leave a pure branch's complement a hair below zero.
    return 2.0 * math.sqrt(max(0.0, w_pos * w_neg))


def _best_split(S, y, w, idx: np.ndarray):
    """Best (impurity, feature, kind, cut) over all candidate splits at idx.

    kind is "num" (threshold midpoint) or "cat" (one-vs-rest category); ties
    resolve to the lowest feature index, then the lowest threshold /
    lexicographically first category.  Returns None when no split separates
    the examples.
    """
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
                imp = _branch_impurity(pl, wl - pl) + _branch_impurity(pr, wr - pr)
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
                imp = _branch_impurity(pl, wl - pl) + _branch_impurity(pr, wr - pr)
                cand = (imp, f, "cat", cat)
                if best is None or cand[0] < best[0]:
                    best = cand
    return best


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
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    active = np.nonzero(w > 0.0)[0]
    if active.size == 0:
        raise ValueError("all-zero weight vector: nothing to train on")
    y = np.asarray(S_signed.labels, dtype=np.float64)

    def settle(idx: np.ndarray) -> float:
        wi = w[idx]
        w_tot = float(np.sum(wi))
        w_pos = float(np.sum(np.where(y[idx] > 0, wi, 0.0)))
        return _leaf_value(w_pos, w_tot, int(idx.size))

    root = TreeNode(value=settle(active))
    leaves = [_Leaf(active, root, created=0)]
    n_internal = 0
    created = 1
    while n_internal < max_nodes:
        # Refresh candidate splits lazily and expand the leaf whose best
        # split decreases the impurity the most (first/earliest wins ties).
        best_leaf = None
        best_gain = 0.0
        for leaf in sorted(leaves, key=lambda l: l.created):
            if leaf.best is None:
                leaf.best = _best_split(S_signed, y, w, leaf.idx) or ()
            if leaf.best == ():
                continue
            wi = w[leaf.idx]
            w_tot = float(np.sum(wi))
            w_pos = float(np.sum(np.where(y[leaf.idx] > 0, wi, 0.0)))
            gain = _branch_impurity(w_pos, w_tot - w_pos) - leaf.best[0]
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
        leaves.append(_Leaf(li, node.left, created))
        leaves.append(_Leaf(ri, node.right, created + 1))
        created += 2
        n_internal += 1
    return WeakHypothesis(root, n_internal, len(S_signed.columns))


def max_confidence(h: WeakHypothesis, S) -> float:
    """M = max_i |h(x_i)| over the training set."""
    return float(np.max(np.abs(h.predict_dataset(S))))


def nonzero_shift(
    h: WeakHypothesis, S, gamma_est: float = 0.1, eps_frac: float = 0.5
) -> WeakHypothesis:
    """Shift every leaf by a small constant if any prediction is exactly zero.

    The shift magnitude eps_frac*gamma_est*M/(1+gamma_est) degrades the edge
    by at most a factor (1 - eps_frac) for a true weak learner of edge
    gamma_est; its sign is chosen so no leaf lands back on zero.
    """
    if not gamma_est > 0.0:
        raise ValueError(f"gamma_est must be positive, got {gamma_est}")
    if not 0.0 < eps_frac < 1.0:
        raise ValueError(f"eps_frac must lie in (0, 1), got {eps_frac}")
    values = h.predict_dataset(S)
    leaf_vals = [leaf.value for leaf in h.iter_leaves()]
    if np.all(np.abs(values) > 0.0) and all(v != 0.0 for v in leaf_vals):
        return h
    M = float(np.max(np.abs(values)))
    if M == 0.0:
        M = max((abs(v) for v in leaf_vals), default=0.0) or 1.0
    delta = eps_frac * gamma_est * M / (1.0 + gamma_est)
    for _ in range(100):
        for signed in (delta, -delta):
            if all(v + signed != 0.0 for v in leaf_vals):
                return h.shifted(signed)
        delta *= 1.0 + 1e-9
    raise RuntimeError("could not find a zero-avoiding shift")
