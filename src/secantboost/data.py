"""Dataset ingestion and deterministic fold planning.

Datasets are immutable column stores: numeric columns as float64 arrays,
categorical columns as string arrays, labels always in {-1.0, +1.0}.  CSV
loading infers per-column types (all-or-nothing), rejects missing values, and
accepts labels in {-1,+1} or {0,1}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class Dataset:
    columns: tuple
    labels: np.ndarray
    feature_names: tuple
    feature_types: tuple  # "numeric" | "categorical" per column

    @property
    def m(self) -> int:
        return int(self.labels.shape[0])

    def row(self, i: int) -> tuple:
        return tuple(col[i] for col in self.columns)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(
            columns=tuple(col[indices] for col in self.columns),
            labels=self.labels[indices],
            feature_names=self.feature_names,
            feature_types=self.feature_types,
        )

    def with_labels(self, labels) -> "Dataset":
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != self.labels.shape:
            raise ValueError("label vector length mismatch")
        return replace(self, labels=labels)


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray  # fold index per example
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def dataset_from_numeric(X, y) -> Dataset:
    """Convenience constructor from a 2-d numeric array and ±1 labels."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (m, d) with matching label length")
    cols = tuple(np.ascontiguousarray(X[:, j]) for j in range(X.shape[1]))
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    return Dataset(cols, y, names, ("numeric",) * X.shape[1])


def dataset_from_columns(columns, labels, names=None, types=None) -> Dataset:
    """Convenience constructor from explicit columns (numeric or string)."""
    cols = []
    kinds = []
    for j, col in enumerate(columns):
        arr = np.asarray(col)
        if types is not None:
            kind = types[j]
        else:
            kind = "numeric" if arr.dtype.kind in "fiu" else "categorical"
        arr = arr.astype(np.float64) if kind == "numeric" else arr.astype(str)
        cols.append(arr)
        kinds.append(kind)
    labels = np.asarray(labels, dtype=np.float64)
    if names is None:
        names = tuple(f"f{j}" for j in range(len(cols)))
    return Dataset(tuple(cols), labels, tuple(names), tuple(kinds))


def _numbers(cells) -> list[float] | None:
    """cells as floats if every one parses as a finite number, else None."""
    try:
        values = list(map(float, cells))
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


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

    # The first bad row in file order is reported: the rows before the first
    # one of the wrong width are checked for empty cells first (zip would
    # silently cut a short row).
    n_ok = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    raw_cols = [list(map(str.strip, col)) for col in zip(*rows[1:n_ok])]
    empty = min(((col.index(""), j) for j, col in enumerate(raw_cols) if "" in col), default=None)
    if empty is not None:
        i, j = empty
        raise DataError(f"{path}:{lines[i + 1]}: missing value in column {header[j]!r}")
    if n_ok < len(rows):
        raise DataError(f"{path}:{lines[n_ok]}: expected {width} cells, got {len(rows[n_ok])}")

    label_values = _numbers(raw_cols[label_idx])
    if label_values is None:
        raise DataError(f"{path}: labels must be numeric (-1/+1 or 0/1)")
    distinct = set(label_values)
    if distinct <= {-1.0, 1.0}:
        labels = np.asarray(label_values, dtype=np.float64)
    elif distinct <= {0.0, 1.0}:
        labels = np.where(np.asarray(label_values) > 0, 1.0, -1.0)
    else:
        raise DataError(f"{path}: label values {sorted(distinct)} not in {{-1,+1}} or {{0,1}}")

    columns = []
    names = []
    kinds = []
    forced = {str(name) for name in force_categorical}
    if unknown := sorted(forced - set(header) - {str(j) for j in range(width)}):
        raise DataError(f"categorical columns {unknown} not in header {header}")
    for j in range(width):
        if j == label_idx:
            continue
        parsed = None if header[j] in forced or str(j) in forced else _numbers(raw_cols[j])
        if parsed is not None:
            columns.append(np.asarray(parsed, dtype=np.float64))
            kinds.append("numeric")
        else:
            columns.append(np.asarray(raw_cols[j], dtype=str))
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
