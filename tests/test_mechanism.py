import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from misscomp import mechanism
from misscomp.mechanism import (
    CHI_SQUARE,
    WELCH_T,
    fit_logistic,
    numeric_values,
    roc_auc,
    screen,
    stratified_rerun,
)

from conftest import dataset_from_arrays


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
        kept = mechanism._independent_columns(x)
        assert kept == greedy_rank_columns(x)
        assert len(kept) == 5

    def test_rank_pass_keeps_full_rank_indicator_design(self, rng):
        x = np.column_stack([np.ones(500), (rng.random((500, 30)) < 0.2).astype(float)])
        assert mechanism._independent_columns(x) == greedy_rank_columns(x) == list(range(31))

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
