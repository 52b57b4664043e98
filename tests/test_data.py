"""Tests for CSV ingestion and fold planning."""

from __future__ import annotations

import numpy as np
import pytest

from secantboost import (
    DataError,
    dataset_from_columns,
    dataset_from_numeric,
    load_csv,
    stratified_folds,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_numeric_and_categorical_inference(self, tmp_path):
        path = _write(
            tmp_path,
            "a,b,label\n1.5,x,1\n2.5,y,-1\n3.5,x,1\n",
        )
        S = load_csv(path)
        assert S.feature_names == ("a", "b")
        assert S.feature_types == ("numeric", "categorical")
        np.testing.assert_array_equal(S.columns[0], [1.5, 2.5, 3.5])
        np.testing.assert_array_equal(S.columns[1], ["x", "y", "x"])
        np.testing.assert_array_equal(S.labels, [1.0, -1.0, 1.0])

    def test_zero_one_labels_map_to_signs(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,0\n2,1\n3,0\n")
        S = load_csv(path)
        np.testing.assert_array_equal(S.labels, [-1.0, 1.0, -1.0])

    def test_sign_labels_pass_through(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,-1\n2,1\n")
        S = load_csv(path)
        np.testing.assert_array_equal(S.labels, [-1.0, 1.0])

    def test_other_label_values_rejected(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,2\n2,1\n")
        with pytest.raises(DataError, match="label values"):
            load_csv(path)

    def test_non_numeric_labels_rejected(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,yes\n2,no\n")
        with pytest.raises(DataError, match="numeric"):
            load_csv(path)

    def test_label_column_by_name(self, tmp_path):
        path = _write(tmp_path, "y,a\n1,9\n-1,8\n")
        S = load_csv(path, label_column="y")
        assert S.feature_names == ("a",)
        np.testing.assert_array_equal(S.labels, [1.0, -1.0])

    def test_label_column_by_index(self, tmp_path):
        path = _write(tmp_path, "y,a\n1,9\n-1,8\n")
        S = load_csv(path, label_column=0)
        assert S.feature_names == ("a",)
        # Negative indices count from the right, as in sequence indexing.
        S2 = load_csv(path, label_column="-2")
        assert S2.feature_names == S.feature_names

    def test_unknown_label_column(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,1\n2,-1\n")
        with pytest.raises(DataError, match="not in header"):
            load_csv(path, label_column="target")
        with pytest.raises(DataError, match="out of range"):
            load_csv(path, label_column=5)

    def test_missing_value_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,,1\n2,3,-1\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("a,label\n1,1\n\n2,-1\n,1\n", ":5: missing value in column 'a'"),
            ("a,label\n\n\n1,1\n2\n", ":5: expected 2 cells, got 1"),
            ('a,label\n"x\ny",1\n,1\n', ":4: missing value in column 'a'"),
        ],
        ids=["after_blank_line", "after_two_blank_lines", "after_quoted_newline"],
    )
    def test_error_names_the_file_line(self, tmp_path, text, where):
        path = _write(tmp_path, text)
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == path + where

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        # An empty cell above a short row is reported first, and on one row a
        # short row is reported before its empty cell.
        path = _write(tmp_path, "a,b,label\n1,2,1\n3,,1\n4,1\n")
        with pytest.raises(DataError, match=r":3: missing value in column 'b'"):
            load_csv(path)
        path = _write(tmp_path, "a,b,label\n1,2,1\n,1\n3,,1\n")
        with pytest.raises(DataError, match=r":3: expected 3 cells, got 2"):
            load_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,2,1\n2,-1\n")
        with pytest.raises(DataError, match="expected 3 cells"):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = _write(tmp_path, "a,label\n")
        with pytest.raises(DataError, match="at least one data row"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "absent.csv"))

    def test_force_categorical(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,1\n2,-1\n")
        S = load_csv(path, force_categorical=("a",))
        assert S.feature_types == ("categorical",)
        np.testing.assert_array_equal(S.columns[0], ["1", "2"])

    def test_force_categorical_by_index(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,3,1\n2,4,-1\n")
        S = load_csv(path, force_categorical=("1",))
        assert S.feature_types == ("numeric", "categorical")

    @pytest.mark.parametrize("name", ["nosuch", "3", "-1"])
    def test_force_categorical_unknown_column_rejected(self, tmp_path, name):
        path = _write(tmp_path, "a,b,label\n1,3,1\n2,4,-1\n")
        with pytest.raises(DataError, match=rf"categorical columns \['{name}'\] not in header"):
            load_csv(path, force_categorical=(name,))

    def test_mixed_column_becomes_categorical(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,1\nx,-1\n")
        S = load_csv(path)
        assert S.feature_types == ("categorical",)

    def test_nonfinite_numbers_are_not_numeric(self, tmp_path):
        # "inf" parses as float but is not finite, so the column falls back
        # to categorical rather than smuggling infinities into float64 data.
        path = _write(tmp_path, "a,label\n1,1\ninf,-1\n")
        S = load_csv(path)
        assert S.feature_types == ("categorical",)


class TestDataset:
    def test_row_and_subset(self):
        S = dataset_from_columns(
            [np.array([1.0, 2.0, 3.0]), np.array(["a", "b", "c"])],
            np.array([1.0, -1.0, 1.0]),
        )
        assert S.row(1) == (2.0, "b")
        sub = S.subset([2, 0])
        assert sub.m == 2
        assert sub.row(0) == (3.0, "c")
        np.testing.assert_array_equal(sub.labels, [1.0, 1.0])

    def test_with_labels_checks_length(self):
        S = dataset_from_numeric(np.zeros((3, 1)), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="length mismatch"):
            S.with_labels(np.ones(2))

    def test_from_columns_type_inference(self):
        S = dataset_from_columns(
            [np.array([1, 2]), np.array(["u", "v"])], np.array([1.0, -1.0])
        )
        assert S.feature_types == ("numeric", "categorical")
        assert S.feature_names == ("f0", "f1")

    @pytest.mark.parametrize("label", [0.0, 2.0, np.nan, -0.5])
    def test_first_label_outside_signs_is_named(self, label):
        # A 0 label would keep its example at margin 0 for the whole run.
        y = np.array([1.0, -1.0, label, label])
        with pytest.raises(ValueError, match=f"label 2 is {label!r}"):
            dataset_from_numeric(np.zeros((4, 1)), y)
        with pytest.raises(ValueError, match=f"label 2 is {label!r}"):
            dataset_from_columns([np.array(["a", "b", "c", "d"])], y)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        X = np.zeros((3, 2))
        X[1, 1] = X[2, 0] = value
        with pytest.raises(ValueError, match=rf"feature X\[1, 1\] is {value!r}"):
            dataset_from_numeric(X, np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_cell_rejected(self, value):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        columns = [np.array(["a", "b", "c", "d"]), np.array([0.5, 1.0, value, value])]
        with pytest.raises(ValueError, match=rf"feature column 1, row 2 is {value!r}"):
            dataset_from_columns(columns, y)
        # A column declared numeric is converted, then checked.
        strings = [np.array(["1", "2", str(value), "3"])]
        with pytest.raises(ValueError, match=rf"feature column 0, row 2 is {value!r}"):
            dataset_from_columns(strings, y, types=("numeric",))


class TestStratifiedFolds:
    def test_class_balance_within_one(self):
        """Round-robin dealing keeps each class's per-fold counts within one
        of each other, for every class and every fold."""
        rng = np.random.default_rng(0)
        y = rng.choice([-1.0, 1.0], size=103, p=[0.7, 0.3])
        S = dataset_from_numeric(np.zeros((103, 1)), y)
        plan = stratified_folds(S, k=5, seed=11)
        for cls in (-1.0, 1.0):
            counts = [
                int(np.sum(y[plan.test_indices(f)] == cls)) for f in range(5)
            ]
            assert max(counts) - min(counts) <= 1

    def test_partition_is_exact(self):
        S = dataset_from_numeric(np.zeros((20, 1)), np.array([1.0, -1.0] * 10))
        plan = stratified_folds(S, k=4, seed=3)
        seen = np.concatenate([plan.test_indices(f) for f in range(4)])
        assert sorted(seen) == list(range(20))
        for f in range(4):
            train = set(plan.train_indices(f))
            test = set(plan.test_indices(f))
            assert train.isdisjoint(test)
            assert train | test == set(range(20))

    def test_deterministic_per_seed(self):
        S = dataset_from_numeric(np.zeros((30, 1)), np.array([1.0, -1.0] * 15))
        a = stratified_folds(S, k=3, seed=7)
        b = stratified_folds(S, k=3, seed=7)
        c = stratified_folds(S, k=3, seed=8)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_validation(self):
        S = dataset_from_numeric(np.zeros((10, 1)), np.array([1.0, -1.0] * 5))
        with pytest.raises(DataError, match="k >= 2"):
            stratified_folds(S, k=1, seed=0)
        tiny = dataset_from_numeric(
            np.zeros((4, 1)), np.array([1.0, 1.0, 1.0, -1.0])
        )
        with pytest.raises(DataError, match="fewer than k"):
            stratified_folds(tiny, k=3, seed=0)
