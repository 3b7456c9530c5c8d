import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from misscomp import mechanism
from misscomp.indicators import Dataset
from misscomp.mechanism import (
    CHI_SQUARE,
    WELCH_T,
    LogisticFit,
    fit_logistic,
    numeric_values,
    roc_auc,
    screen,
    strata_levels,
    stratified_rerun,
)

from conftest import dataset_from_arrays, reference_screen, take


def pairwise_auc(scores, labels):
    """Oracle: count concordant pairs, half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def greedy_rank_columns(x):
    """Oracle: keep a column when matrix_rank grows with it, left to right."""
    kept, rank = [], 0
    for j in range(x.shape[1]):
        r = np.linalg.matrix_rank(x[:, kept + [j]])
        if r > rank:
            kept.append(j)
            rank = r
    return kept


class TestScreen:
    def test_welch_matches_scipy(self, rng):
        x = np.r_[rng.normal(0, 1, 40), rng.normal(0.8, 2, 60)]
        flag = np.r_[np.zeros(40, dtype=int), np.ones(60, dtype=int)]
        data = dataset_from_arrays({"x": list(x)})
        res = screen(data, flag, ["x"])[0]
        ref = scipy.stats.ttest_ind(x[flag == 1], x[flag == 0], equal_var=False)
        assert res.test == WELCH_T
        assert res.testable
        assert abs(res.statistic) == pytest.approx(abs(ref.statistic), rel=1e-12)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_chi_square_matches_scipy(self, rng):
        levels = rng.choice(["a", "b", "c"], size=200)
        flag = rng.integers(0, 2, size=200)
        flag[:3] = [0, 1, 0]  # both classes present
        data = dataset_from_arrays({"g": list(levels)})
        res = screen(data, flag, ["g"])[0]
        table = np.array(
            [[(np.array(levels)[flag == r] == lv).sum() for lv in ("a", "b", "c")] for r in (0, 1)]
        )
        ref = scipy.stats.chi2_contingency(table, correction=False)
        assert res.test == CHI_SQUARE
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert res.df == ref.dof
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_chi_square_many_levels_matches_scipy(self, rng):
        # codes past 63, where twice the code overflows int8
        names = [f"L{i:03d}" for i in range(100)]
        levels = rng.choice(names, size=5000)
        flag = rng.integers(0, 2, size=len(levels))
        res = screen(dataset_from_arrays({"g": list(levels)}), flag, ["g"])[0]
        table = np.array([[(levels[flag == r] == lv).sum() for lv in names] for r in (0, 1)])
        ref = scipy.stats.chi2_contingency(table, correction=False)
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert res.df == ref.dof == 99
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_missing_cells_drop_pairwise(self):
        data = dataset_from_arrays({"x": [1.0, None, 3.0, 4.0, None, 6.0]})
        flag = np.array([0, 0, 0, 1, 1, 1])
        res = screen(data, flag, ["x"])[0]
        assert res.n_group0 == 2
        assert res.n_group1 == 2
        assert res.n_excluded == 2

    def test_single_observation_not_testable(self):
        data = dataset_from_arrays({"x": [1.0, None, None, 4.0, 5.0, 6.0]})
        flag = np.array([0, 0, 0, 1, 1, 1])
        res = screen(data, flag, ["x"])[0]
        assert not res.testable
        assert np.isnan(res.p_value)
        assert res.reason

    def test_empty_categorical_levels_dropped(self):
        # level "c" never co-occurs with flag 1 rows only; table keeps both rows
        data = dataset_from_arrays({"g": ["a", "a", "b", "b", "a", "b"]})
        flag = np.array([0, 0, 0, 1, 1, 1])
        res = screen(data, flag, ["g"])[0]
        assert res.testable
        assert res.df == 1.0

    def test_constant_numeric_zero_statistic(self):
        data = dataset_from_arrays({"x": [2.0, 2.0, 2.0, 2.0]})
        flag = np.array([0, 0, 1, 1])
        res = screen(data, flag, ["x"])[0]
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_single_observed_level_not_testable(self):
        data = dataset_from_arrays({"g": ["a", "a", "a", "a", None, None]})
        flag = np.array([0, 0, 1, 1, 1, 0])
        res = screen(data, flag, ["g"])[0]
        assert res.test == CHI_SQUARE
        assert not res.testable
        assert res.reason == "contingency table has a single populated row or column"
        assert np.isnan([res.statistic, res.df, res.p_value]).all()
        assert (res.n_group0, res.n_group1, res.n_excluded) == (2, 2, 2)

    def test_fractional_flag_rejected(self):
        # a cast before the check would truncate this to a 3/3 split
        data = dataset_from_arrays({"a": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]})
        with pytest.raises(ValueError, match="binary"):
            screen(data, np.array([0.2, 0.7, 0.9, 1, 1, 1.5]), ["a"])

    def test_bad_flag_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            screen(small_dataset, np.array([0, 1]), ["y1"])
        with pytest.raises(ValueError):
            screen(small_dataset, np.full(8, 2), ["y1"])

    def test_rows_screen_as_the_taken_rows(self, rng):
        n = 60
        x = rng.normal(size=n)
        x[rng.random(n) < 0.2] = np.nan
        g = [str(v) if rng.random() > 0.1 else None for v in rng.choice(["a", "b", "c"], size=n)]
        data = dataset_from_arrays({"x": list(x), "g": g})
        keep = rng.random(n) < 0.7
        flag = (rng.random(keep.sum()) < 0.4).astype(int)
        want = screen(take(data, keep), flag, ["x", "g"])
        # a mask and its indices alike, the same results field for field
        assert repr(screen(data, flag, ["x", "g"], keep)) == repr(want)
        assert repr(screen(data, flag, ["x", "g"], np.flatnonzero(keep))) == repr(want)
        with pytest.raises(ValueError, match="align"):
            screen(data, flag, ["x"], np.flatnonzero(keep)[1:])

    def test_mask_of_the_wrong_length_rejected(self):
        data = dataset_from_arrays({"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]})
        mask = np.array([True, True, True, True, False])
        with pytest.raises(ValueError, match="row mask has 5 entries for 6 dataset rows"):
            screen(data, np.array([0, 0, 1, 1]), ["x"], mask)


def screen_case(rng, n):
    """A dataset of every kind of screened column: numeric with NaN cells,
    a constant numeric column, categorical codes with -1 cells and a rare
    level, int8 codes up to 127 (the largest int8) and 0/1 indicators
    viewed as int8 codes, strided as the pipeline views them."""
    x = rng.normal(size=n)
    x[rng.random(n) < 0.2] = np.nan
    const = np.full(n, 3.0)
    const[rng.random(n) < 0.1] = np.nan
    cat = rng.choice([-1, 0, 1, 2, 3], size=n, p=[0.1, 0.45, 0.3, 0.12, 0.03]).astype(np.int8)
    wide = rng.integers(-1, 128, size=n).astype(np.int8)
    wide[:2] = [0, 127]
    ind = (rng.random((n, 3)) < [0.05, 0.3, 0.6]).astype(np.uint8)
    names = ["x", "const", "cat", "wide", "m1", "m2", "m3"]
    columns = [x, const, cat, wide] + [ind[:, j].view(np.int8) for j in range(3)]
    levels = [None, None, list("abcd"), [f"L{i:03d}" for i in range(128)]] + [["0", "1"]] * 3
    return Dataset(names, columns, levels)


class TestScreenOracle:
    """``screen`` reads each group through its row indices; the mask-based
    ``reference_screen`` copies every column's observed cells. The results
    must agree field for field, to the last bit."""

    def test_equals_the_mask_reference(self, rng):
        seen = set()
        for _ in range(40):
            n = int(rng.integers(8, 120))
            data = screen_case(rng, n)
            keep = rng.random(n) < 0.7
            keep[:2] = True
            no_m1 = np.flatnonzero(data.columns[4] == 0)  # indicator m1 constant over these
            selections = {
                "all": None,
                "mask": keep,
                "ascending": np.flatnonzero(keep),
                "unsorted": rng.permutation(np.flatnonzero(keep)),
                "repeated": rng.integers(0, n, size=n + 5),
                "m1 constant": no_m1,
            }
            for how, rows in selections.items():
                m = n if rows is None else int(np.count_nonzero(rows)) if rows.dtype == bool else len(rows)
                flag = (rng.random(m) < 0.4).astype(int)
                got = screen(data, flag, data.column_names, rows)
                assert repr(got) == repr(reference_screen(data, flag, data.column_names, rows)), how
                by_name = {r.variable: r for r in got}
                if by_name["const"].testable:
                    assert (by_name["const"].statistic, by_name["const"].p_value) == (0.0, 1.0)
                    seen.add("constant numeric")
                if how == "m1 constant" and by_name["m1"].n_group0 >= 2 and by_name["m1"].n_group1 >= 2:
                    assert np.isnan(by_name["m1"].statistic)
                    assert by_name["m1"].reason == "contingency table has a single populated row or column"
                    seen.add("constant indicator")
                index = np.arange(n) if rows is None else np.arange(n)[rows]
                rare = data.columns[2][index] == 3
                if rare.any() and len(set(flag[rare])) == 1 and by_name["cat"].testable:
                    seen.add("level in one group")
                if (data.columns[3][index] == 127).any() and by_name["wide"].testable:
                    seen.add("code 127")
        assert seen == {"constant numeric", "constant indicator", "level in one group", "code 127"}


class TestRocAuc:
    def test_four_point_example(self):
        assert roc_auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])) == 0.75

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 40))
            scores = rng.normal(size=n).round(1)  # force ties
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    def test_perfect_and_reversed(self):
        s = np.array([1.0, 2.0, 3.0, 4.0])
        assert roc_auc(s, np.array([0, 0, 1, 1])) == 1.0
        assert roc_auc(s, np.array([1, 1, 0, 0])) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([1.0, 2.0]), np.array([1, 1]))


class TestRocAucCounts:
    def test_fractional_labels_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            roc_auc(np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5, 0.2, 1, 1]))

    def test_weighted_equals_expanded_rows(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 12))
            scores = rng.normal(size=m).round(1)  # force ties
            labels = rng.integers(0, 2, size=m)
            labels[0], labels[1] = 0, 1
            counts = rng.integers(0, 30, size=m)
            counts[:2] += 1
            expanded = roc_auc(np.repeat(scores, counts), np.repeat(labels, counts))
            assert roc_auc(scores, labels, counts) == expanded

    def test_bad_weights_rejected(self):
        s, y = np.array([0.1, 0.2, 0.3]), np.array([0, 1, 1])
        for bad in ([1, 2], [1, -1, 2], [1, 0.5, 2], [1, np.nan, 2]):
            with pytest.raises(ValueError):
                roc_auc(s, y, np.array(bad, dtype=float))


def expand(y, x, counts):
    """The rows a frequency-weighted table stands for."""
    return np.repeat(y, counts), np.repeat(x, counts, axis=0)


def assert_same_fit(weighted, rows):
    np.testing.assert_allclose(weighted.coefficients, rows.coefficients, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(weighted.standard_errors, rows.standard_errors, rtol=1e-9)
    assert weighted.log_likelihood == pytest.approx(rows.log_likelihood, rel=1e-12)
    assert weighted.null_log_likelihood == rows.null_log_likelihood
    assert weighted.lr_df == rows.lr_df
    assert (weighted.auc, weighted.sensitivity, weighted.specificity, weighted.correct_pct) == (
        rows.auc, rows.sensitivity, rows.specificity, rows.correct_pct
    )
    assert (weighted.separated, weighted.converged, weighted.n) == (rows.separated, rows.converged, rows.n)


class TestWeightedFit:
    CELL_Y = np.array([1, 0, 1, 0])
    CELL_X = np.array([[1.0], [1.0], [0.0], [0.0]])

    def test_two_by_two_tables_match_expanded_rows(self, rng):
        for _ in range(40):
            counts = rng.integers(1, 400, size=4)
            weighted = fit_logistic(self.CELL_Y, self.CELL_X, ["x"], weights=counts)
            assert_same_fit(weighted, fit_logistic(*expand(self.CELL_Y, self.CELL_X, counts), ["x"]))
            a, b, c, d = counts
            assert weighted.coefficients[1] == pytest.approx(np.log(a * d / (b * c)), abs=1e-8)

    def test_grouped_numeric_predictors_match_expanded_rows(self, rng):
        x = np.column_stack([np.repeat([-1.5, 0.0, 0.5, 2.0, 3.7], 2), np.tile([0.0, 1.0], 5)])
        x = np.vstack([x, x])
        y = np.r_[np.zeros(10, dtype=int), np.ones(10, dtype=int)]
        for _ in range(10):
            counts = rng.integers(1, 60, size=len(y))
            weighted = fit_logistic(y, x, ["u", "v"], weights=counts)
            assert_same_fit(weighted, fit_logistic(*expand(y, x, counts), ["u", "v"]))

    def test_zero_count_rows_drop_out_before_validation(self):
        counts = np.array([20, 15, 10, 35, 0])
        y = np.r_[self.CELL_Y, 1]
        x = np.vstack([self.CELL_X, [[np.nan]]])
        fit = fit_logistic(y, x, ["x"], weights=counts)
        assert fit.n == 80
        assert_same_fit(fit, fit_logistic(self.CELL_Y, self.CELL_X, ["x"], weights=counts[:4]))

    def test_constant_column_of_the_present_rows_aliased(self):
        # the x = 1 cells are empty, so x is zero on every counted row
        fit = fit_logistic(self.CELL_Y, self.CELL_X, ["x"], weights=np.array([0, 0, 7, 9]))
        assert fit.aliased == ["x"]
        assert fit.parameter_names == ["intercept"]

    def test_bad_weights_rejected(self):
        for bad in ([1, 2, 3], [1, 2, 3, -4], [1, 2, 3, 4.5], [1, 2, np.inf, 4]):
            with pytest.raises(ValueError):
                fit_logistic(self.CELL_Y, self.CELL_X, ["x"], weights=np.array(bad, dtype=float))


def first_separating_iterate(y, x):
    """Oracle: plain Newton steps from zero, stopped at the first iterate
    that puts every row strictly on its own side of one half."""
    design = np.column_stack([np.ones(len(y)), x])
    beta = np.zeros(design.shape[1])
    for it in range(1, 101):
        mu = 1.0 / (1.0 + np.exp(-design @ beta))
        if ((mu > 0.5) == (y == 1)).all() and (mu != 0.5).all():
            return it, beta
        w = mu * (1.0 - mu)
        beta = beta + np.linalg.solve(design.T @ (design * w[:, None]), design.T @ (y - mu))
    raise AssertionError("no separating iterate")


class TestSeparationCertificate:
    def test_complete_separation_stops_at_first_separating_iterate(self, rng):
        n = 200
        x = rng.normal(size=(n, 3))
        y = (x @ np.array([1.0, -2.0, 0.5]) > 0.3).astype(float)
        fit = fit_logistic(y, x)
        it, beta = first_separating_iterate(y, x)
        assert fit.iterations == it
        np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-9, atol=1e-12)
        assert fit.separated and not fit.converged
        assert fit.standard_errors is None
        assert fit.log_likelihood == 0.0
        assert fit.lr_chi2 == -2.0 * fit.null_log_likelihood
        assert fit.pseudo_r2 == 1.0
        assert (fit.auc, fit.sensitivity, fit.specificity, fit.correct_pct) == (1.0, 1.0, 1.0, 1.0)

    def test_diagonal_table_certified(self):
        fit = fit_logistic(TestWeightedFit.CELL_Y, TestWeightedFit.CELL_X, ["x"], weights=[12, 0, 0, 30])
        assert fit.separated and not fit.converged
        assert fit.log_likelihood == 0.0
        assert fit.n == 42

    def test_one_empty_cell_not_certified_but_separated(self):
        # quasi-complete: the x = 0 cells hold both classes at one fitted
        # probability, so no iterate classifies every row
        counts = np.array([25, 0, 10, 30])
        fit = fit_logistic(TestWeightedFit.CELL_Y, TestWeightedFit.CELL_X, ["x"], weights=counts)
        assert fit.separated
        assert not fit.converged
        assert fit.standard_errors is None
        assert fit.log_likelihood < 0.0
        assert fit.log_likelihood == pytest.approx(10 * np.log(10 / 40) + 30 * np.log(30 / 40), abs=1e-6)
        rows = fit_logistic(*expand(TestWeightedFit.CELL_Y, TestWeightedFit.CELL_X, counts), ["x"])
        assert rows.separated and rows.log_likelihood < 0.0


def assert_identical_fit(a, b):
    """Every field of two fits equal, arrays and floats bit for bit."""
    for f in fields(LogisticFit):
        u, v = getattr(a, f.name), getattr(b, f.name)
        if u is None or v is None:
            assert u is v, f.name
        elif isinstance(u, (np.ndarray, float)):
            assert np.array_equal(u, v, equal_nan=True), f.name
        else:
            assert u == v, f.name


def assert_certified_at(fit, y, x, start, weights=None):
    """Oracle: the fields of a fit certified at ``start``, worked out from
    the float64 design [1, x] of the rows that count: the kept columns by
    greedy ``matrix_rank``, ``start`` on them as the coefficients (checked
    to split the classes), the null log-likelihood in closed form and the
    LR p-value from ``scipy.stats.chi2``."""
    y = np.asarray(y, dtype=np.float64)
    w = np.ones(len(y)) if weights is None else np.asarray(weights, dtype=np.float64)
    counted = w > 0
    design = np.column_stack([np.ones(len(y)), np.asarray(x, dtype=np.float64)])[counted]
    y, w = y[counted], w[counted]
    kept = greedy_rank_columns(design)
    np.testing.assert_array_equal(design[:, kept] @ start[kept] > 0, y == 1)
    n, n1 = w.sum(), w[y == 1].sum()
    ll0 = n1 * np.log(n1 / n) + (n - n1) * np.log((n - n1) / n)
    names = ["intercept"] + [f"x{j}" for j in range(1, design.shape[1])]
    assert fit.parameter_names == [names[j] for j in kept]
    assert fit.aliased == [name for j, name in enumerate(names) if j not in kept]
    np.testing.assert_array_equal(fit.coefficients, start[kept])
    assert fit.standard_errors is None
    assert fit.log_likelihood == 0.0 and fit.pseudo_r2 == 1.0
    assert fit.null_log_likelihood == pytest.approx(ll0, rel=1e-12)
    assert fit.lr_chi2 == pytest.approx(-2.0 * ll0, rel=1e-12)
    assert fit.lr_df == len(kept) - 1
    p_value = scipy.stats.chi2.sf(-2.0 * ll0, len(kept) - 1)
    assert fit.lr_p_value == pytest.approx(p_value, rel=1e-9, abs=1e-300)
    assert (fit.auc, fit.sensitivity, fit.specificity, fit.correct_pct) == (1.0, 1.0, 1.0, 1.0)
    assert fit.separated and not fit.converged
    assert (fit.iterations, fit.n) == (1, n)


class TestStart:
    W = np.array([1.0, -2.0, 0.5])

    def separated(self, rng, n=200):
        x = rng.normal(size=(n, 3))
        return (x @ self.W > 0.3).astype(float), x

    def test_certifying_start_stops_at_iteration_one(self, rng):
        y, x = self.separated(rng)
        start = np.r_[-0.3, self.W]
        fit = fit_logistic(y, x, start=start)
        assert fit.iterations == 1
        np.testing.assert_array_equal(fit.coefficients, start)
        assert fit.separated and not fit.converged
        assert fit.standard_errors is None
        assert fit.log_likelihood == 0.0
        assert (fit.auc, fit.sensitivity, fit.specificity) == (1.0, 1.0, 1.0)
        # the same holds at any positive scale of the direction
        assert fit_logistic(y, x, start=1e-3 * start).iterations == 1

    def test_start_that_does_not_certify_changes_nothing(self, rng):
        y, x = self.separated(rng)
        plain = fit_logistic(y, x)
        assert plain.iterations > 1
        for start in (-np.r_[-0.3, self.W], np.zeros(4), np.r_[0.0, self.W], np.full(4, np.nan)):
            assert_identical_fit(fit_logistic(y, x, start=start), plain)

    def test_start_on_an_unseparated_fit_changes_nothing(self, rng):
        x = rng.normal(size=(300, 2))
        y = (rng.random(300) < 1.0 / (1.0 + np.exp(-(0.3 + x[:, 0])))).astype(float)
        plain = fit_logistic(y, x)
        assert plain.converged and plain.standard_errors is not None
        assert_identical_fit(fit_logistic(y, x, start=np.r_[0.3, 1.0, 0.0]), plain)

    def test_start_on_an_all_zero_column_certifies_without_it(self, rng):
        # the fit drops the all-zero column, whose entry adds nothing to
        # the linear predictor, so the rest of the start still separates
        y, x = self.separated(rng)
        design = np.column_stack([x, np.zeros(len(y))])
        start = np.r_[-0.3, self.W, 5.0]
        fit = fit_logistic(y, design, start=start)
        assert fit.aliased == ["x4"] and fit.iterations == 1
        np.testing.assert_array_equal(fit.coefficients, start[:4])
        assert fit.separated and fit.log_likelihood == 0.0

    def test_start_whose_aliased_column_carries_the_split_changes_nothing(self, rng):
        # x4 duplicates x1 and holds x1's slope; dropping it leaves a start
        # that no longer separates, so IRLS starts from zero
        y, x = self.separated(rng)
        design = np.column_stack([x, x[:, :1]])
        start = np.r_[-0.3, 0.0, -2.0, 0.5, 1.0]
        # on the full design the start does separate the rows
        np.testing.assert_array_equal(start[0] + design @ start[1:] > 0, y == 1)
        plain = fit_logistic(y, design)
        assert plain.aliased == ["x4"] and plain.iterations > 1
        assert_identical_fit(fit_logistic(y, design, start=start), plain)

    def test_weighted_rows_of_count_zero_drop_before_the_check(self):
        # the (x = 1, y = 0) cell refutes the start unless it counts zero
        y, x = TestWeightedFit.CELL_Y, TestWeightedFit.CELL_X
        plain = fit_logistic(y, x, ["x"], weights=[12, 4, 5, 30])
        assert_identical_fit(fit_logistic(y, x, ["x"], weights=[12, 4, 5, 30], start=[-1.0, 2.0]), plain)
        fit = fit_logistic(y, x, ["x"], weights=[12, 0, 0, 30], start=[-1.0, 2.0])
        assert fit.iterations == 1 and fit.n == 42
        np.testing.assert_array_equal(fit.coefficients, [-1.0, 2.0])

    def test_start_of_the_wrong_length_rejected(self, rng):
        y, x = self.separated(rng)
        with pytest.raises(ValueError, match="start"):
            fit_logistic(y, x, start=self.W)


class TestPredictorDtypes:
    """0/1 predictors fit the same in any real dtype: the fit casts its own
    float64 design from them."""

    W = np.array([2.0, -1.0, 1.5, 0.5])

    def indicators(self, rng, n=400):
        x = rng.random((n, len(self.W))) < 0.4
        y = (rng.random(n) < 0.2 + 0.5 * x[:, 0]).astype(int)
        return y, x

    @pytest.mark.parametrize("dtype", [np.uint8, bool])
    def test_unweighted_fit_equals_the_float64_fit(self, rng, dtype):
        y, x = self.indicators(rng)
        plain = fit_logistic(y, x.astype(np.float64))
        assert plain.converged and plain.standard_errors is not None
        assert_identical_fit(fit_logistic(y, x.astype(dtype)), plain)

    @pytest.mark.parametrize("dtype", [np.uint8, bool])
    def test_weighted_fit_equals_the_float64_fit(self, rng, dtype):
        y, x = self.indicators(rng)
        counts = rng.integers(0, 30, size=len(y))
        plain = fit_logistic(y, x.astype(np.float64), weights=counts)
        assert plain.converged and plain.n == counts.sum()
        assert_identical_fit(fit_logistic(y, x.astype(dtype), weights=counts), plain)

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.float64])
    def test_certifying_start_equals_the_float64_fit(self, rng, dtype):
        # no subset sum of W is 0.75, so the start splits every row strictly
        x = rng.random((400, len(self.W))) < 0.4
        y = (x @ self.W > 0.75).astype(int)
        start = np.r_[-0.75, self.W]
        assert_certified_at(fit_logistic(y, x.astype(dtype), start=start), y, x, start)

    def test_stratum_fits_equal_the_float64_fits(self, rng):
        y, x = self.indicators(rng)
        g = rng.choice(["a", "b"], size=len(y))
        data = dataset_from_arrays({"g": list(g)})
        names = [f"m{j + 1}" for j in range(x.shape[1])]
        want = stratified_rerun(data, y, "g", [], x.astype(np.float64), names)
        got = stratified_rerun(data, y, "g", [], x.astype(np.uint8), names)
        assert [r.stratum for r in got] == ["a", "b"]
        for a, b in zip(got, want):
            assert_identical_fit(a.fit, b.fit)

    def test_uint8_fit_traces_no_float_copy_of_x(self, rng):
        # the design is the fit's one n x (k+1) float64 array; casting x to
        # float64 first would add 8·n·k bytes, 7.6 MiB here
        n, k = 50000, 20
        x = (rng.random((n, k)) < 0.3).astype(np.uint8)
        y = (rng.random(n) < 0.2 + 0.4 * x[:, 0]).astype(int)

        def peak(predictors):
            tracemalloc.start()
            try:
                fit_logistic(y, predictors)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        wide = x.astype(np.float64)
        assert peak(x) <= peak(wide) + 2**20

    @pytest.mark.parametrize(
        "x",
        [np.array([["1"], ["0"], ["1"], ["0"]]), np.array([[1.0], [0.0], [1.0], [0.0]], dtype=object)],
        ids=["str", "object"],
    )
    def test_non_numeric_predictors_rejected(self, x):
        with pytest.raises(ValueError, match="predictors must be real numbers"):
            fit_logistic(np.array([1, 0, 0, 1]), x)


class TestCertifiedFromCounts:
    """A fit whose start certifies reads x in float64 row chunks and builds
    no design, whatever the dtype of x and with or without weights; each
    fit is checked against the oracle worked out from the design."""

    W = np.array([2.0, -1.0, 1.5, 0.5])

    def separated(self, rng, n=400):
        # no subset sum of W is 0.75, so the start splits every row strictly
        x = (rng.random((n, len(self.W))) < 0.4).astype(np.uint8)
        return (x @ self.W > 0.75).astype(int), x

    @pytest.mark.parametrize("extra", ["all_zero", "duplicated"])
    def test_aliased_column_as_on_the_design_path(self, rng, extra):
        y, x = self.separated(rng)
        column = np.zeros(len(y), dtype=np.uint8) if extra == "all_zero" else x[:, 0]
        x = np.column_stack([x, column])
        start = np.r_[-0.75, self.W, 0.0 if extra == "duplicated" else 5.0]
        for dtype in (np.uint8, bool, np.float64):
            fit = fit_logistic(y, x.astype(dtype), start=start)
            assert fit.aliased == ["x5"]
            assert_certified_at(fit, y, x, start)

    def test_weighted_fit_certifies_on_the_rows_that_count(self, rng):
        y, x = self.separated(rng)
        counts = rng.integers(0, 5, size=len(y))
        # a row that refutes the start counts zero
        y, x, counts = np.r_[y, 1 - y[:1]], np.vstack([x, x[:1]]), np.r_[counts, 0]
        start = np.r_[-0.75, self.W]
        for dtype in (np.uint8, bool, np.float64):
            fit = fit_logistic(y, x.astype(dtype), weights=counts, start=start)
            assert_certified_at(fit, y, x, start, counts)

    def test_start_that_does_not_certify_changes_nothing(self, rng):
        y, x = self.separated(rng)
        x = np.column_stack([x, x[:, 0]])
        plain = fit_logistic(y, x)
        assert plain.aliased == ["x5"] and plain.iterations > 1
        # x1's slope moved onto its duplicate, which is dropped; a reversed
        # start; a zero start
        for start in (np.r_[-0.75, 0.0, self.W[1:], self.W[0]], -np.r_[-0.75, self.W, 0.0], np.zeros(6)):
            assert_identical_fit(fit_logistic(y, x, start=start), plain)

    @staticmethod
    def certified_peak(rng, dtype):
        n, k = 200000, 30
        x = (rng.random((n, k)) < rng.uniform(0.05, 0.6, size=k)).astype(dtype)
        w = rng.normal(size=k)
        s = x @ w
        y = (s > np.median(s)).astype(int)
        start = np.r_[-(s[y == 0].max() + s[y == 1].min()) / 2.0, w]
        tracemalloc.start()
        try:
            fit = fit_logistic(y, x, start=start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.iterations == 1 and fit.separated
        return n, peak

    def test_certified_fit_traces_a_few_bytes_per_row(self, rng):
        # a design would be n x 31 float64, 248 B per row; the fit holds a
        # few vectors of n and one float64 chunk at a time
        n, peak = self.certified_peak(rng, np.uint8)
        assert peak < 32 * n + 2**21

    def test_certified_float_fit_traces_a_few_bytes_per_row(self, rng):
        # float64 x too: its finiteness check and chunks copy no n x k array
        n, peak = self.certified_peak(rng, np.float64)
        assert peak < 32 * n + 2**21


class TestFitLogistic:
    def test_grouped_slope_is_log_odds_ratio(self):
        # single binary predictor: slope = ln(ad/bc), intercept = ln(c/d)
        a, b, c, d = 40.0, 15.0, 10.0, 35.0  # (x=1,y=1), (x=1,y=0), (x=0,y=1), (x=0,y=0)
        x = np.r_[np.ones(int(a + b)), np.zeros(int(c + d))]
        y = np.r_[np.ones(int(a)), np.zeros(int(b)), np.ones(int(c)), np.zeros(int(d))]
        fit = fit_logistic(y, x[:, None], ["x"])
        assert fit.converged and not fit.separated
        assert fit.coefficients[1] == pytest.approx(np.log(a * d / (b * c)), abs=1e-8)
        assert fit.coefficients[0] == pytest.approx(np.log(c / d), abs=1e-8)

    def test_standard_errors_closed_form(self):
        # grouped 2x2: Var(slope) = 1/a + 1/b + 1/c + 1/d
        a, b, c, d = 30.0, 20.0, 25.0, 25.0
        x = np.r_[np.ones(int(a + b)), np.zeros(int(c + d))]
        y = np.r_[np.ones(int(a)), np.zeros(int(b)), np.ones(int(c)), np.zeros(int(d))]
        fit = fit_logistic(y, x[:, None], ["x"])
        expect = np.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
        assert fit.standard_errors[1] == pytest.approx(expect, rel=1e-6)

    def test_score_equations_hold_at_optimum(self, rng):
        n = 300
        x = rng.normal(size=(n, 2))
        p = 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * x[:, 0] - 0.5 * x[:, 1])))
        y = (rng.random(n) < p).astype(float)
        fit = fit_logistic(y, x, ["x1", "x2"])
        design = np.column_stack([np.ones(n), x])
        mu = 1.0 / (1.0 + np.exp(-design @ fit.coefficients))
        score = design.T @ (y - mu)
        np.testing.assert_allclose(score, 0.0, atol=1e-7)

    def test_null_log_likelihood_closed_form(self, rng):
        n = 200
        y = (rng.random(n) < 0.3).astype(float)
        x = rng.normal(size=(n, 1))
        fit = fit_logistic(y, x)
        pbar = y.mean()
        expect = n * (pbar * np.log(pbar) + (1 - pbar) * np.log(1 - pbar))
        assert fit.null_log_likelihood == pytest.approx(expect, rel=1e-12)

    def test_lr_test_and_pseudo_r2(self, rng):
        n = 400
        x = rng.normal(size=(n, 1))
        p = 1.0 / (1.0 + np.exp(-(0.2 + 1.2 * x[:, 0])))
        y = (rng.random(n) < p).astype(float)
        fit = fit_logistic(y, x)
        assert fit.lr_chi2 == pytest.approx(
            2.0 * (fit.log_likelihood - fit.null_log_likelihood), abs=1e-10
        )
        assert fit.lr_df == 1
        assert fit.pseudo_r2 == pytest.approx(
            1.0 - fit.log_likelihood / fit.null_log_likelihood, abs=1e-12
        )
        assert 0.0 < fit.pseudo_r2 < 1.0

    def test_complete_separation_detected(self):
        x = np.r_[np.linspace(-3, -0.5, 30), np.linspace(0.5, 3, 30)]
        y = np.r_[np.zeros(30), np.ones(30)]
        fit = fit_logistic(y, x[:, None], ["x"])
        assert fit.separated
        assert fit.standard_errors is None
        assert fit.log_likelihood == pytest.approx(0.0, abs=1e-5)
        assert fit.pseudo_r2 == pytest.approx(1.0, abs=1e-6)
        assert fit.correct_pct == 1.0
        assert fit.sensitivity == 1.0
        assert fit.specificity == 1.0

    def test_binary_separation_all_indicators(self):
        # y determined exactly by x reproduces saturated classification
        x = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        y = x.copy()
        fit = fit_logistic(y, x[:, None], ["x"])
        assert fit.separated
        assert fit.auc == 1.0
        assert fit.correct_pct == 1.0

    def test_aliased_columns_dropped(self, rng):
        n = 150
        x1 = rng.normal(size=n)
        x2 = 2.0 * x1  # aliased with x1
        x3 = rng.normal(size=n)
        p = 1.0 / (1.0 + np.exp(-(0.5 * x1 + 0.3 * x3)))
        y = (rng.random(n) < p).astype(float)
        fit = fit_logistic(y, np.column_stack([x1, x2, x3]), ["x1", "x2", "x3"])
        assert fit.aliased == ["x2"]
        assert fit.parameter_names == ["intercept", "x1", "x3"]
        assert len(fit.coefficients) == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_pass_matches_greedy_matrix_rank(self, seed):
        # an intercept, 0/1 and continuous columns, a constant column
        # aliased with the intercept, a zero column, a duplicate and a
        # column equal to the sum of two earlier ones
        rng = np.random.default_rng(seed)
        n = 200
        ones = np.ones(n)
        a = (rng.random(n) < 0.3).astype(float)
        b = (rng.random(n) < 0.6).astype(float)
        c = rng.normal(size=n) * 1e3
        cols = [ones, a, 3.0 * ones, b, np.zeros(n), a + b, c, b.copy(), rng.normal(size=n)]
        order = np.r_[0, 1 + rng.permutation(len(cols) - 1)]
        x = np.column_stack([cols[j] for j in order])
        # the pass adds the intercept column itself
        kept = mechanism._independent_columns(x[:, 1:])
        assert kept == greedy_rank_columns(x)
        assert len(kept) == 5

    def test_rank_pass_keeps_full_rank_indicator_design(self, rng):
        x = np.column_stack([np.ones(500), (rng.random((500, 30)) < 0.2).astype(float)])
        assert mechanism._independent_columns(x[:, 1:]) == greedy_rank_columns(x) == list(range(31))

    def test_classification_at_half(self, rng):
        n = 500
        x = rng.normal(size=(n, 1))
        p = 1.0 / (1.0 + np.exp(-(2.0 * x[:, 0])))
        y = (rng.random(n) < p).astype(float)
        fit = fit_logistic(y, x)
        design = np.column_stack([np.ones(n), x])
        mu = 1.0 / (1.0 + np.exp(-design @ fit.coefficients))
        pred = mu > 0.5
        n1, n0 = int(y.sum()), int((1 - y).sum())
        sens = (pred & (y == 1)).sum() / n1
        spec = (~pred & (y == 0)).sum() / n0
        assert fit.sensitivity == pytest.approx(sens, abs=1e-12)
        assert fit.specificity == pytest.approx(spec, abs=1e-12)
        assert fit.correct_pct == pytest.approx(
            (sens * n1 + spec * n0) / n, abs=1e-12
        )

    def test_single_class_outcome_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic(np.ones(10), np.random.default_rng(0).normal(size=(10, 1)))


class TestStratifiedRerun:
    def test_levels_and_single_class_flag(self):
        data = dataset_from_arrays(
            {
                "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
                "g": ["a", "a", "a", "a", "b", "b", "b", "b"],
            }
        )
        flag = np.array([1, 0, 1, 0, 1, 1, 1, 1])
        design = np.array([[1.0], [0.0], [1.0], [0.0], [1.0], [1.0], [1.0], [1.0]])
        results = stratified_rerun(data, flag, "g", ["x"], design, ["m1"])
        by_level = {r.stratum: r for r in results}
        assert set(by_level) == {"a", "b"}
        assert by_level["a"].testable
        assert not by_level["b"].testable  # flag constant inside b
        assert by_level["b"].reason

    def test_missing_stratum_rows_excluded(self):
        data = dataset_from_arrays(
            {
                "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
                "g": ["a", None, "a", "a", "b", "b", "b"],
            }
        )
        flag = np.array([1, 0, 0, 1, 0, 1, 0])
        results = stratified_rerun(data, flag, "g", ["x"], np.empty((7, 0)), [])
        assert {r.stratum: r.n for r in results} == {"a": 3, "b": 3}

    def test_fits_take_the_stratum_rows_of_the_design(self, rng):
        n = 240
        g = rng.choice(["a", "b", "c"], size=n)
        g[:3] = ["a", "b", "c"]
        design = (rng.random((n, 3)) < 0.4).astype(np.float64)
        flag = (rng.random(n) < 0.2 + 0.5 * design[:, 0]).astype(int)
        names = ["m1", "m2", "m3"]
        data = dataset_from_arrays({"g": list(g)})
        results = stratified_rerun(data, flag, "g", [], design, names)
        assert [r.stratum for r in results] == ["a", "b", "c"]
        for res in results:
            rows = g == res.stratum
            expect = fit_logistic(flag[rows], design[rows], names)
            assert res.testable and res.fit is not None
            fit = res.fit
            np.testing.assert_array_equal(fit.coefficients, expect.coefficients)
            np.testing.assert_array_equal(fit.standard_errors, expect.standard_errors)
            assert (fit.log_likelihood, fit.auc, fit.n) == (
                expect.log_likelihood, expect.auc, expect.n
            )
        # no names, no fit, whatever the design holds
        for res in stratified_rerun(data, flag, "g", [], design, []):
            assert res.testable and res.fit is None

    def test_start_goes_to_every_stratum_fit(self, rng):
        n = 240
        g = rng.choice(["a", "b", "c"], size=n)
        g[:3] = ["a", "b", "c"]
        design = rng.normal(size=(n, 3))
        start = np.r_[-0.2, 1.0, 0.5, -1.0]
        flag = (start[0] + design @ start[1:] > 0).astype(int)
        names = ["m1", "m2", "m3"]
        results = stratified_rerun(dataset_from_arrays({"g": list(g)}), flag, "g", [], design, names, start)
        assert len(results) == 3
        for res in results:
            rows = g == res.stratum
            assert res.fit.iterations == 1
            np.testing.assert_array_equal(res.fit.coefficients, start)
            assert_identical_fit(res.fit, fit_logistic(flag[rows], design[rows], names, start=start))

    def test_rows_rerun_as_the_taken_rows(self, rng):
        n = 240
        g = [v if rng.random() > 0.05 else None for v in rng.choice(["a", "b", "c"], size=n)]
        x = rng.normal(size=n)
        design = (rng.random((n, 2)) < 0.4).astype(np.float64)
        data = dataset_from_arrays({"x": list(x), "g": g})
        keep = rng.random(n) < 0.8
        flag = (rng.random(keep.sum()) < 0.2 + 0.5 * design[keep, 0]).astype(int)
        want = stratified_rerun(take(data, keep), flag, "g", ["x"], design[keep], ["m1", "m2"])
        got = stratified_rerun(data, flag, "g", ["x"], design[keep], ["m1", "m2"], rows=keep)
        assert [(r.stratum, r.testable, r.n, repr(r.screens)) for r in got] == [
            (r.stratum, r.testable, r.n, repr(r.screens)) for r in want
        ]
        for a, b in zip(got, want):
            assert_identical_fit(a.fit, b.fit)
        with pytest.raises(ValueError, match="align"):
            stratified_rerun(data, flag, "g", ["x"], design[keep], ["m1", "m2"])

    def test_strata_levels_reject_a_mask_of_the_wrong_length(self):
        data = dataset_from_arrays({"g": list("aabbab")})
        with pytest.raises(ValueError, match="row mask has 5 entries for 6 dataset rows"):
            strata_levels(data, "g", np.array([True, True, True, True, False]))

    def test_mask_of_the_wrong_length_rejected(self):
        data = dataset_from_arrays({"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "g": list("aabbab")})
        mask = np.array([True, True, True, True, False])
        with pytest.raises(ValueError, match="row mask has 5 entries for 6 dataset rows"):
            stratified_rerun(data, np.array([0, 1, 0, 1]), "g", ["x"], np.empty((4, 0)), [], rows=mask)

    def test_fractional_flag_rejected(self):
        data = dataset_from_arrays({"x": [1.0, 2.0, 3.0, 4.0], "g": ["a", "a", "b", "b"]})
        with pytest.raises(ValueError, match="binary"):
            stratified_rerun(data, np.array([0.5, 1.0, 0.0, 1.5]), "g", ["x"], np.empty((4, 0)), [])

    def test_unknown_stratum_column(self, small_dataset):
        with pytest.raises(KeyError):
            stratified_rerun(small_dataset, np.zeros(8, dtype=int), "ghost", [], np.empty((8, 0)), [])


class TestNumericValues:
    def test_numeric_passthrough(self, small_dataset):
        out = numeric_values(small_dataset, "z")
        np.testing.assert_allclose(out, small_dataset.column("z"))

    def test_non_binary_categorical_rejected(self):
        data = dataset_from_arrays({"g": ["a", "b", "a"]})
        with pytest.raises(ValueError):
            numeric_values(data, "g")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_auc_complement_symmetry(seed):
    # flipping labels mirrors the area around one half
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 30))
    scores = rng.normal(size=n).round(1)
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[1] = 0, 1
    a = roc_auc(scores, labels)
    b = roc_auc(scores, 1 - labels)
    assert a + b == pytest.approx(1.0, abs=1e-12)
