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
    IndicatorMatrix,
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

    def test_categorical_codes_and_levels(self, small_dataset):
        codes, levels = small_dataset.codes("label")
        assert codes.dtype == np.int8
        assert codes.tolist() == [0, 1, -1, 0, 1, -1, 0, 1]
        assert levels == ["a", "b"]
        assert small_dataset.column("label").tolist() == ["a", "b", None, "a", "b", None, "a", "b"]

    def test_code_width_grows_with_level_count(self):
        for n_levels, dtype in [(128, np.int8), (129, np.int16)]:
            data = dataset_from_arrays({"g": [f"v{i:03d}" for i in range(n_levels)]})
            assert data.codes("g")[0].dtype == dtype

    def test_numeric_codes_follow_string_order(self):
        values = [2.0, 10.0, None, 2.0, -0.0, 0.0]
        data = dataset_from_arrays({"x": values})
        codes, levels = data.codes("x")
        # the names and order of sorted({str(v)}) over the present values
        assert levels == sorted({str(v) for v in data.column("x")[~data.missing_mask("x")]})
        assert levels == ["-0.0", "0.0", "10.0", "2.0"]
        assert [None if c < 0 else levels[c] for c in codes] == ["2.0", "10.0", None, "2.0", "-0.0", "0.0"]

    def test_take_keeps_levels(self, small_dataset):
        sub = small_dataset.take(np.array([0, 2, 4]))
        assert sub.n == 3
        assert sub.codes("label")[1] == ["a", "b"]
        assert sub.column("label").tolist() == ["a", None, "b"]
        assert sub.column("y1").tolist() == [1.0, 3.0, 5.0]

    def test_unknown_column_raises(self, small_dataset):
        with pytest.raises(ColumnNotFoundError):
            small_dataset.column("nope")

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                column_names=["a", "b"],
                columns=[np.array([1.0, 2.0]), np.array([1.0])],
                levels=[None, None],
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                column_names=["a", "a"],
                columns=[np.array([1.0]), np.array([2.0])],
                levels=[None, None],
            )

    @pytest.mark.parametrize(
        "column, levels, match",
        [
            (np.array(["a", None], dtype=object), None, "column 'g' has no levels but dtype object"),
            (np.array([0, 1], dtype=np.int8), None, "column 'g' has no levels but dtype int8"),
            (np.array([0.0, 1.0]), ["a", "b"], "column 'g' has levels but dtype float64"),
        ],
    )
    def test_column_form_must_match_levels(self, column, levels, match):
        # an object column given without levels would otherwise read as numeric
        with pytest.raises(ValueError, match=f"^{match}$"):
            Dataset(column_names=["x", "g"], columns=[np.array([1.0, 2.0]), column], levels=[None, levels])

    def test_levels_must_align_with_columns(self):
        with pytest.raises(ValueError, match="must align"):
            Dataset(column_names=["a"], columns=[np.array([1.0])], levels=[])

    def test_kind_follows_levels_through_take(self, small_dataset):
        sub = small_dataset.take(np.array([True, False] * 4))
        for data in (small_dataset, sub):
            assert [data.kind(name) for name in data.column_names] == [
                NUMERIC if lv is None else CATEGORICAL for lv in data.levels
            ]
        assert sub.levels == small_dataset.levels
        assert (sub.kind("y1"), sub.kind("label")) == (NUMERIC, CATEGORICAL)


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


class TestIndicatorMatrix:
    @pytest.mark.parametrize(
        "values, match",
        [
            (np.array([0, 1, 1, 0]), "two-dimensional"),
            (np.array([[0, 1], [2, 0], [1, 1]]), "0 or 1"),
            (np.array([[0, 1], [0.5, 0], [1, 1]]), "0 or 1"),
            (np.array([[0, 1], [0, 0], [0, 1]]), "marginal"),
            (np.array([[1, 1], [1, 0], [1, 1]], dtype=bool), "marginal"),
        ],
    )
    def test_invalid_values_rejected(self, values, match):
        names = [f"v{j}" for j in range(values.shape[-1])]
        with pytest.raises(ValueError, match=match):
            IndicatorMatrix(values, names, names)


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

    def test_fortran_ordered_values_tabulate_as_their_c_copy(self, rng):
        # more than 8 columns, so each row packs into a multi-byte key
        values = (rng.random((60, 11)) < 0.4).astype(np.uint8)
        names = [f"v{j}" for j in range(11)]
        fortran = IndicatorMatrix(np.asfortranarray(values), names, names)
        assert tabulate_patterns(fortran) == tabulate_patterns(IndicatorMatrix(values, names, names))

    def test_no_indicator_columns_rejected(self):
        with pytest.raises(EmptyIndicatorError):
            tabulate_patterns(IndicatorMatrix(np.zeros((4, 0), dtype=np.uint8), [], []))

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

    @pytest.mark.parametrize("cap", ["SCRATCH_ENTRIES"])
    def test_row_chunks_add_up_exactly(self, rng, monkeypatch, cap):
        values = (rng.random((503, 7)) < 0.4).astype(np.uint8)
        ints = values.astype(np.int64)
        monkeypatch.setattr(indicators, cap, 40)
        np.testing.assert_array_equal(cooccurrence(values), ints.T @ ints)


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
        levels=[None] * k,
    )
    ind = build_indicators(data)
    np.testing.assert_array_equal(ind.values, values)
    table = tabulate_patterns(ind)
    assert sum(r.count for r in table.rows) == n
    assert table.n_observed_patterns <= min(n, table.max_possible + 1)
    assert all(0.0 < m < 1.0 for m in ind.marginals)
