import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misscomp import indicators
from misscomp.indicators import (
    CATEGORICAL,
    NUMERIC,
    ColumnNotFoundError,
    Dataset,
    EmptyIndicatorError,
    build_indicators,
    cooccurrence,
    tabulate_patterns,
)

from conftest import dataset_from_arrays


class TestDataset:
    def test_basic_shape(self, small_dataset):
        assert small_dataset.n == 8
        assert small_dataset.p == 4
        assert small_dataset.kind("y1") == NUMERIC
        assert small_dataset.kind("label") == CATEGORICAL

    def test_missing_mask_numeric_and_categorical(self, small_dataset):
        assert small_dataset.missing_mask("y1").tolist() == [
            False, True, False, True, False, False, False, True,
        ]
        assert small_dataset.missing_mask("label").tolist() == [
            False, False, True, False, False, True, False, False,
        ]

    def test_unknown_column_raises(self, small_dataset):
        with pytest.raises(ColumnNotFoundError):
            small_dataset.column("nope")

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                column_names=["a", "b"],
                columns=[np.array([1.0, 2.0]), np.array([1.0])],
                kinds=[NUMERIC, NUMERIC],
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                column_names=["a", "a"],
                columns=[np.array([1.0]), np.array([2.0])],
                kinds=[NUMERIC, NUMERIC],
            )


class TestBuildIndicators:
    def test_ones_mark_missing(self, small_dataset):
        ind = build_indicators(small_dataset)
        assert ind.column_names == ["y1_miss", "y2_miss", "label_miss"]
        assert ind.values[:, 0].tolist() == [0, 1, 0, 1, 0, 0, 0, 1]
        assert ind.values[:, 1].tolist() == [1, 0, 0, 0, 1, 0, 0, 0]

    def test_complete_column_dropped_with_reason(self, small_dataset):
        ind = build_indicators(small_dataset)
        dropped = dict(ind.dropped_columns)
        assert "z" in dropped
        assert "observed" in dropped["z"]

    def test_fully_missing_column_dropped(self):
        data = dataset_from_arrays(
            {"a": [None, None, None], "b": [1.0, None, 3.0]}
        )
        ind = build_indicators(data)
        assert ind.column_names == ["b_miss"]
        assert dict(ind.dropped_columns)["a"] == "all cells missing"

    def test_no_usable_column_raises(self):
        data = dataset_from_arrays({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        with pytest.raises(EmptyIndicatorError):
            build_indicators(data)

    def test_column_subset_selection(self, small_dataset):
        ind = build_indicators(small_dataset, selected_columns=["y1", "y2"])
        assert ind.column_names == ["y1_miss", "y2_miss"]

    def test_subset_unknown_name_raises(self, small_dataset):
        with pytest.raises(ColumnNotFoundError):
            build_indicators(small_dataset, selected_columns=["y1", "ghost"])

    def test_marginals(self, small_dataset):
        ind = build_indicators(small_dataset)
        np.testing.assert_allclose(ind.marginals, [3 / 8, 2 / 8, 2 / 8])

    def test_fully_missing_rows(self):
        data = dataset_from_arrays(
            {"a": [None, 1.0, None], "b": [None, 2.0, 3.0]}
        )
        ind = build_indicators(data)
        assert ind.fully_missing_rows.tolist() == [True, False, False]


class TestPatternTable:
    def test_counts_and_order(self, small_dataset):
        ind = build_indicators(small_dataset)
        table = tabulate_patterns(ind)
        assert sum(r.count for r in table.rows) == 8
        counts = [r.count for r in table.rows]
        assert counts == sorted(counts, reverse=True)
        assert [r.rank for r in table.rows] == list(range(1, len(table.rows) + 1))

    def test_ties_break_lexicographically(self):
        data = dataset_from_arrays(
            {"a": [None, 1.0, None, 1.0], "b": [1.0, None, 1.0, None]}
        )
        ind = build_indicators(data)
        table = tabulate_patterns(ind)
        assert [r.pattern for r in table.rows] == ["01", "10"]
        assert [r.count for r in table.rows] == [2, 2]

    def test_percents_sum_to_one(self, small_dataset):
        ind = build_indicators(small_dataset)
        table = tabulate_patterns(ind)
        total = sum(r.percent for r in table.rows)
        assert total == pytest.approx(1.0)

    def test_max_possible_patterns(self, small_dataset):
        ind = build_indicators(small_dataset)
        table = tabulate_patterns(ind)
        assert table.max_possible == 2 ** ind.values.shape[1] - 1

    def test_drop_fully_missing_rows(self):
        data = dataset_from_arrays(
            {"a": [None, 1.0, None, 4.0], "b": [None, 2.0, 3.0, None]}
        )
        ind = build_indicators(data)
        kept = tabulate_patterns(ind, drop_fully_missing=True)
        assert kept.n_fully_missing == 1
        assert kept.fully_missing_dropped
        assert sum(r.count for r in kept.rows) == 3
        # percent base shrinks with the dropped row
        assert kept.percent_base == 3

    def test_n_missing_vars(self):
        data = dataset_from_arrays(
            {"a": [None, 1.0, 2.0], "b": [None, None, 3.0]}
        )
        ind = build_indicators(data)
        table = tabulate_patterns(ind)
        by_pattern = {r.pattern: r.n_missing_vars for r in table.rows}
        assert by_pattern["11"] == 2
        assert by_pattern["01"] == 1
        assert by_pattern["00"] == 0


class TestCooccurrence:
    def test_matches_integer_product(self, rng):
        values = (rng.random((700, 9)) < 0.3).astype(np.uint8)
        ints = values.astype(np.int64)
        counts = cooccurrence(values)
        assert counts.dtype == np.float64
        np.testing.assert_array_equal(counts, ints.T @ ints)
        np.testing.assert_array_equal(np.diag(counts), values.sum(axis=0))

    @pytest.mark.parametrize("cap", ["SCRATCH_ENTRIES", "_FLOAT32_EXACT_ROWS"])
    def test_row_chunks_add_up_exactly(self, rng, monkeypatch, cap):
        values = (rng.random((503, 7)) < 0.4).astype(np.uint8)
        ints = values.astype(np.int64)
        monkeypatch.setattr(indicators, cap, 40)
        np.testing.assert_array_equal(cooccurrence(values), ints.T @ ints)

    def test_stack_gives_one_matrix_each(self, rng, monkeypatch):
        stack = (rng.random((4, 120, 5)) < 0.5).astype(np.uint8)
        monkeypatch.setattr(indicators, "SCRATCH_ENTRIES", 64)
        counts = cooccurrence(stack)
        assert counts.shape == (4, 5, 5)
        for x, c in zip(stack.astype(np.int64), counts):
            np.testing.assert_array_equal(c, x.T @ x)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pattern_counts_partition_rows(n, k, seed):
    # every row lands in exactly one pattern; marginals stay interior
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=(n, k))
    # force mixed columns so nothing is dropped
    values[0, :] = 0
    values[1, :] = 1
    cols = [np.where(values[:, j] == 1, np.nan, 1.0) for j in range(k)]
    data = Dataset(
        column_names=[f"v{j}" for j in range(k)],
        columns=cols,
        kinds=[NUMERIC] * k,
    )
    ind = build_indicators(data)
    np.testing.assert_array_equal(ind.values, values)
    table = tabulate_patterns(ind)
    assert sum(r.count for r in table.rows) == n
    assert table.n_observed_patterns <= min(n, table.max_possible + 1)
    assert all(0.0 < m < 1.0 for m in ind.marginals)
