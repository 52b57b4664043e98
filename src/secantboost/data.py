"""Dataset ingestion and deterministic fold planning.

Datasets are immutable column stores: numeric columns as float64 arrays,
categorical columns as string arrays, labels always in {-1.0, +1.0}.  CSV
loading infers per-column types (all-or-nothing), rejects missing values, and
accepts labels in {-1,+1} or {0,1}.

Each dataset carries a private column index for tree induction and
prediction: its features encoded once per dataset, the first time a tree or
a prediction asks for it, and its numeric features sorted the first time a
tree or a subset needs their order; prediction never sorts.  A subset taken
with strictly increasing indices (what np.nonzero gives for boosting rounds
and CV folds) filters its parent's index stably instead of sorting again,
and a relabelled copy shares its parent's.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "Dataset",
    "FoldPlan",
    "load_csv",
    "stratified_folds",
    "dataset_from_numeric",
    "dataset_from_columns",
]


class _ColumnIndex:
    """A dataset's features, encoded and sorted for split search and prediction.

    Numeric columns are float64 values.  Categorical columns become rows of
    integer codes, sorted by category label within a column and numbered on
    across columns in feature order, so each (column, category) pair has its
    own code and code order is scan order.  order holds one stable order of
    all examples per feature row, numeric rows (by value) first, then
    categorical rows (by code); ties keep example order.  One stable sort of
    a categorical column's labels gives both its order row and its codes:
    each run of equal labels in sorted order is one code, and the run's
    first label is that code's label.  A tree leaf's examples are these
    orders restricted to its members (see cut), so split search never sorts.
    Prediction reads only values and codes, so the numeric rows of order are
    sorted on first use, by train_tree or take.
    """

    def __init__(self, S):
        self.kinds = S.feature_types
        num = [f for f, kind in enumerate(self.kinds) if kind == "numeric"]
        cat = [f for f, kind in enumerate(self.kinds) if kind != "numeric"]
        self.row = {f: r for rows in (num, cat) for r, f in enumerate(rows)}
        self.num_feature = num
        self.values = [np.asarray(S.columns[f], dtype=np.float64) for f in num]
        self._cat_order = np.empty((len(cat), S.m), dtype=np.intp)
        self.codes = np.empty((len(cat), S.m), dtype=np.intp)
        self.labels, first_code = [], [0]
        for r, f in enumerate(cat):
            col = S.columns[f].astype(str)
            order = np.argsort(col, kind="stable")
            self._cat_order[r] = order
            sv = col[order]
            head = np.concatenate(([True], sv[1:] != sv[:-1]))
            self.codes[r, order] = np.cumsum(head) - 1 + first_code[-1]
            self.labels.extend(sv[head])
            first_code.append(len(self.labels))
        self.first_code = np.array(first_code, dtype=np.intp)
        n_labels = np.diff(first_code)
        self.code_feature = [f for f, n in zip(cat, n_labels) for _ in range(n)]
        self.code_row = np.repeat(np.arange(len(cat)), n_labels)  # each code's row of codes
        self.code_of = {key: c for c, key in enumerate(zip(self.code_feature, self.labels))}

    @cached_property
    def order(self) -> np.ndarray:
        """The numeric rows' stable sorts on top of the categorical rows'."""
        order = np.empty((len(self.kinds), self.codes.shape[1]), dtype=np.intp)
        for r, col in enumerate(self.values):
            order[r] = np.argsort(col, kind="stable")
        order[len(self.values):] = self._cat_order
        return order

    def take(self, idx: np.ndarray, S) -> "_ColumnIndex":
        """The index of S, the examples idx (strictly increasing) of this
        index's dataset.

        A stable filter of a stable sort is the stable sort of the subset:
        each order row keeps this one's examples that are in idx, renumbered
        to their place in it.  Codes keep this index's numbering, so a
        category the subset lacks keeps its code and labels no example.
        """
        sub = copy.copy(self)
        sub.values = [np.asarray(S.columns[f], dtype=np.float64) for f in self.num_feature]
        order = self.order  # sorted here on first use
        if idx.size < order.shape[1]:  # else idx is every example: share order and codes
            place = np.full(order.shape[1], -1, dtype=np.intp)
            place[idx] = np.arange(idx.size)
            kept = place[order]
            order = kept[kept >= 0].reshape(order.shape[0], idx.size)
            sub.codes = self.codes[:, idx]
        sub.order = order
        return sub

    def cut(self, orders: np.ndarray, parts: list) -> list:
        """orders cut down to each part's examples, stably: one array per part.

        orders holds every part's examples in every row (order itself, or
        the orders of the leaf the parts split).  A stable filter of a stable
        sort is the stable sort of the subset, so each row of a part's array
        lists its examples by value or code with ties in example order, as
        sorting them would.
        """
        if len(parts) == 1 and parts[0].size == orders.shape[1]:
            return [orders]  # no example to drop
        side = np.zeros(self.order.shape[1], dtype=np.int8)  # 0: in no part
        for j, idx in enumerate(parts, 1):
            side[idx] = j
        # Positions from nonzero, then one gather: a boolean mask index costs
        # about twice as much on a few thousand mixed entries.
        side, flat = side[orders].ravel(), orders.ravel()
        return [flat[(side == j).nonzero()[0]].reshape(orders.shape[0], idx.size)
                for j, idx in enumerate(parts, 1)]

    def goes_left(self, f: int, cut, idx: np.ndarray) -> np.ndarray:
        """Which examples of idx a test on feature f sends left: value <= cut
        on a numeric feature, label == cut on a categorical one (no example,
        for a label the dataset lacks)."""
        r = self.row[f]
        if self.kinds[f] == "numeric":
            return self.values[r][idx] <= cut
        return self.codes[r][idx] == self.code_of.get((f, cut), -1)


@dataclass(frozen=True)
class Dataset:
    columns: tuple
    labels: np.ndarray
    feature_names: tuple
    feature_types: tuple  # "numeric" | "categorical" per column

    @property
    def m(self) -> int:
        return int(self.labels.shape[0])

    @cached_property
    def _index(self) -> _ColumnIndex:
        """The column index, built from the columns on first use unless
        subset or with_labels gave this dataset its parent's."""
        return _ColumnIndex(self)

    def row(self, i: int) -> tuple:
        return tuple(col[i] for col in self.columns)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        sub = Dataset(
            columns=tuple(col[indices] for col in self.columns),
            labels=self.labels[indices],
            feature_names=self.feature_names,
            feature_types=self.feature_types,
        )
        # Nonnegative, strictly increasing indices keep this dataset's example
        # order, so its index filters down to the subset's; other indices
        # leave the subset to build its own.  The test is np.diff(indices,
        # prepend=-1) > 0 everywhere, without np.diff's wrapper.
        if (indices.dtype.kind in "iu" and indices.ndim == 1 and (
                not indices.size
                or indices[0] >= 0 and not np.count_nonzero(indices[1:] <= indices[:-1]))):
            object.__setattr__(sub, "_index", self._index.take(indices, sub))
        return sub

    def with_labels(self, labels) -> "Dataset":
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != self.labels.shape:
            raise ValueError("label vector length mismatch")
        relabelled = replace(self, labels=labels)
        object.__setattr__(relabelled, "_index", self._index)  # labels play no part in it
        return relabelled


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray  # fold index per example
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def _pm_one_labels(y) -> np.ndarray:
    """y as float64, or ValueError naming the first label outside {-1, +1}."""
    y = np.asarray(y, dtype=np.float64)
    bad = np.flatnonzero((y != 1.0) & (y != -1.0))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"label {i} is {float(y.flat[i])!r}; labels must be -1 or +1")
    return y


def dataset_from_numeric(X, y) -> Dataset:
    """Convenience constructor from a 2-d array of finite numbers and ±1 labels."""
    X = np.asarray(X, dtype=np.float64)
    y = _pm_one_labels(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (m, d) with matching label length")
    if X.shape[0] == 0:
        raise ValueError("a dataset needs at least one example, got 0 rows")
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0].tolist()
        raise ValueError(f"feature X[{i}, {j}] is {float(X[i, j])!r}; features must be finite")
    cols = tuple(np.ascontiguousarray(X[:, j]) for j in range(X.shape[1]))
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    return Dataset(cols, y, names, ("numeric",) * X.shape[1])


def dataset_from_columns(columns, labels, names=None, types=None) -> Dataset:
    """Convenience constructor from explicit columns (numeric or string) and ±1 labels.

    Every column holds one value per label, and names and types, when
    given, one entry per column; each type is "numeric" or "categorical".
    A numeric column must hold finite numbers; ValueError names the first
    cell that does not.
    """
    columns = list(columns)
    labels = _pm_one_labels(labels)
    if labels.size == 0:
        raise ValueError("a dataset needs at least one example, got 0 labels")
    for what, given in (("names", names), ("types", types)):
        if given is not None and len(given) != len(columns):
            raise ValueError(f"{len(given)} {what} for {len(columns)} columns")
    if types is not None and (bad := sorted(set(types) - {"numeric", "categorical"})):
        raise ValueError(f"feature types must be 'numeric' or 'categorical', got {bad}")
    cols = []
    kinds = []
    for j, col in enumerate(columns):
        arr = np.asarray(col)
        if arr.shape != labels.shape:
            raise ValueError(f"feature column {j} has shape {arr.shape}, the labels {labels.shape}")
        if types is not None:
            kind = types[j]
        else:
            kind = "numeric" if arr.dtype.kind in "fiu" else "categorical"
        arr = arr.astype(np.float64) if kind == "numeric" else arr.astype(str)
        if kind == "numeric" and not np.isfinite(arr).all():
            i = int(np.argmin(np.isfinite(arr)))
            raise ValueError(
                f"feature column {j}, row {i} is {float(arr[i])!r}; features must be finite"
            )
        cols.append(arr)
        kinds.append(kind)
    if names is None:
        names = tuple(f"f{j}" for j in range(len(cols)))
    return Dataset(tuple(cols), labels, tuple(names), tuple(kinds))


def _numbers(cells) -> np.ndarray | None:
    """cells as float64 if every one parses as a finite number, else None."""
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def load_csv(path, label_column="label", force_categorical: Sequence[str] = ()) -> Dataset:
    """Read a header-ed CSV into a Dataset.

    label_column may be a header name or an integer index.  A feature column
    is numeric iff every value parses as a finite number; names or indices in
    force_categorical stay categorical (DataError if one matches no column).
    Missing values (empty cells) and short rows are rejected, naming the
    first offending line of the file.
    """
    rows, lines = [], []  # the non-blank rows and the file line each ends on
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                for row in reader:
                    if row:
                        rows.append(row)
                        lines.append(reader.line_num)
            except csv.Error as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if len(rows) < 2:
        raise DataError(f"{path}: need a header and at least one data row")
    header = [name.strip() for name in rows[0]]
    width = len(header)
    if isinstance(label_column, int) or (
        isinstance(label_column, str) and label_column.lstrip("-").isdigit()
    ):
        label_idx = int(label_column)
        if not -width <= label_idx < width:
            raise DataError(f"label column index {label_idx} out of range")
        label_idx %= width
    else:
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
    forced = {str(name) for name in force_categorical}

    # The first bad row in file order is reported: the rows before the first
    # one of the wrong width are checked for empty cells first (zip would
    # silently cut a short row).  A column's raw cells are parsed first:
    # float strips a subset of what str.strip does (not U+001C-U+001F), so
    # raw cells that all parse hold no empty cell and give the values of
    # their stripped cells.  Other columns are stripped, and parsed again
    # when no cell is empty.
    n_ok = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    values, cells = [], []  # per column: its floats or None, and its cells
    for j, col in enumerate(zip(*rows[1:n_ok])):
        text = j != label_idx and (header[j] in forced or str(j) in forced)
        parsed = None if text else _numbers(col)
        if parsed is None:
            col = list(map(str.strip, col))
            if not text and "" not in col:
                parsed = _numbers(col)
        values.append(parsed)
        cells.append(col)
    empty = min(((col.index(""), j) for j, col in enumerate(cells)
                 if values[j] is None and "" in col), default=None)
    if empty is not None:
        i, j = empty
        raise DataError(f"{path}:{lines[i + 1]}: missing value in column {header[j]!r}")
    if n_ok < len(rows):
        raise DataError(f"{path}:{lines[n_ok]}: expected {width} cells, got {len(rows[n_ok])}")

    label_values = values[label_idx]
    if label_values is None:
        raise DataError(f"{path}: labels must be numeric (-1/+1 or 0/1)")
    distinct = set(label_values.tolist())
    if distinct <= {-1.0, 1.0}:
        labels = label_values
    elif distinct <= {0.0, 1.0}:
        labels = np.where(label_values > 0, 1.0, -1.0)
    else:
        raise DataError(f"{path}: label values {sorted(distinct)} not in {{-1,+1}} or {{0,1}}")

    columns = []
    names = []
    kinds = []
    if unknown := sorted(forced - set(header) - {str(j) for j in range(width)}):
        raise DataError(f"categorical columns {unknown} not in header {header}")
    for j in range(width):
        if j == label_idx:
            continue
        if values[j] is not None:
            columns.append(values[j])
            kinds.append("numeric")
        else:
            columns.append(np.asarray(cells[j], dtype=str))
            kinds.append("categorical")
        names.append(header[j])
    return Dataset(tuple(columns), labels, tuple(names), tuple(kinds))


def stratified_folds(S: Dataset, k: int, seed: int) -> FoldPlan:
    """Deal each class round-robin into k folds after a seeded shuffle."""
    if k < 2:
        raise DataError(f"need k >= 2 folds, got {k}")
    rng = np.random.default_rng(seed)
    assignments = np.full(S.m, -1, dtype=np.int64)
    for cls in (-1.0, 1.0):
        idx = np.nonzero(S.labels == cls)[0]
        if idx.size == 0:
            continue
        if idx.size < k:
            raise DataError(f"class {cls:+.0f} has {idx.size} examples, fewer than k={k}")
        perm = rng.permutation(idx)
        assignments[perm] = np.arange(perm.size) % k
    return FoldPlan(k=k, assignments=assignments, seed=seed)
