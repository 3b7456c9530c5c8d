"""Writer behavior: formatting, column layouts, and byte-stable output."""

from __future__ import annotations

import csv
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from misscomp import correlation, extraction, reports
from misscomp.extraction import ComponentScores, EigenSolution
from misscomp.indicators import (
    IndicatorMatrix,
    PatternRow,
    PatternTable,
    build_indicators,
    tabulate_patterns,
)
from misscomp.mechanism import LogisticFit, ScreenResult
from misscomp.retention import (
    CRITERIA,
    EKC,
    KAISER,
    PARALLEL,
    PROFILE_LIKELIHOOD,
    RetentionDecision,
    decide,
)
from misscomp.simulation import SimCondition, run_grid

from conftest import dataset_from_arrays


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def pattern_table(small_dataset):
    return tabulate_patterns(build_indicators(small_dataset))


class TestFmt:
    def test_none_is_empty(self):
        assert reports._fmt(None) == ""

    def test_nan_is_empty(self):
        assert reports._fmt(float("nan")) == ""

    def test_fixed_decimals(self):
        assert reports._fmt(1.0) == "1.000000"
        assert reports._fmt(0.123456789) == "0.123457"
        assert reports._fmt(2.5, 2) == "2.50"

    def test_negative_zero_padding(self):
        assert reports._fmt(-0.5, 3) == "-0.500"


class TestPatternsWriters:
    def test_csv_layout(self, tmp_path, pattern_table):
        path = tmp_path / "patterns.csv"
        reports.write_patterns_csv(path, pattern_table)
        rows = read_csv(path)
        assert rows[0] == ["rank", "pattern", "n_missing_vars", "count", "percent"]
        assert len(rows) == 1 + len(pattern_table.rows)
        for raw, row in zip(rows[1:], pattern_table.rows):
            assert raw[0] == str(row.rank)
            assert raw[1] == row.pattern
            assert raw[3] == str(row.count)
            assert raw[4] == f"{row.percent:.6f}"

    def test_md_header_and_percent_scale(self, tmp_path, pattern_table):
        path = tmp_path / "patterns.md"
        reports.write_patterns_md(path, pattern_table)
        text = path.read_text()
        assert f"{pattern_table.n_observed_patterns} observed" in text
        assert f"of {pattern_table.max_possible} possible" in text
        # md shows percent of rows, csv/json keep the raw fraction
        top = pattern_table.rows[0]
        assert f"| {100 * top.percent:.1f}% |" in text
        assert f"`{top.pattern}`" in text

    def test_json_round_trip(self, tmp_path, pattern_table):
        path = tmp_path / "patterns.json"
        reports.write_patterns_json(path, pattern_table)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == reports.SCHEMA_VERSION
        assert payload["k"] == pattern_table.k
        assert payload["n"] == pattern_table.n
        assert payload["max_possible"] == pattern_table.max_possible
        assert len(payload["rows"]) == len(pattern_table.rows)
        for got, row in zip(payload["rows"], pattern_table.rows):
            assert got["pattern"] == row.pattern
            assert got["count"] == row.count
            assert got["percent"] == pytest.approx(row.percent)

    def test_repeat_write_is_byte_identical(self, tmp_path, pattern_table):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        reports.write_patterns_json(a, pattern_table)
        reports.write_patterns_json(b, pattern_table)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("dropped", [False, True])
    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [PatternRow("0101", 3, 1e-05, 1)],
            [PatternRow("0011", 5, 0.5, 1), PatternRow("1111", 4, 1.0, 2), PatternRow("0001", 1, 1 / 3, 3)],
        ],
        ids=["0_rows", "1_row", "3_rows"],
    )
    def test_json_is_what_json_dump_writes(self, tmp_path, rows, dropped):
        table = PatternTable(rows, 4, 10, 2, 8 if dropped else 10, dropped)
        payload = {
            "schema_version": reports.SCHEMA_VERSION,
            "k": table.k,
            "n": table.n,
            "n_fully_missing": table.n_fully_missing,
            "percent_base": table.percent_base,
            "fully_missing_dropped": table.fully_missing_dropped,
            "max_possible": table.max_possible,
            "rows": [
                {"rank": r.rank, "pattern": r.pattern, "n_missing_vars": r.n_missing_vars,
                 "count": r.count, "percent": r.percent}
                for r in rows
            ],
        }
        path = tmp_path / "patterns.json"
        reports.write_patterns_json(path, table)
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_json_streams_to_the_file(self, tmp_path):
        # 12000 patterns over 20 indicators; the document as one string (and
        # the list of pieces it is joined from) would take over 10 MB, and a
        # dict per row for json.dump over 2 MB
        k, n_patterns = 20, 12000
        n = n_patterns * (n_patterns + 1) // 2
        rows = [
            PatternRow(format(i, f"0{k}b"), n_patterns - i, (n_patterns - i) / n, i + 1)
            for i in range(n_patterns)
        ]
        table = PatternTable(rows, k, n, 0, n, False)
        path = tmp_path / "patterns.json"
        tracemalloc.start()
        try:
            reports.write_patterns_json(path, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dict of every row alone would hold them all; each row is
        # written as it is formatted
        assert peak < 2**18
        payload = json.loads(path.read_text())
        assert len(payload["rows"]) == n_patterns
        assert payload["rows"][-1]["pattern"] == rows[-1].pattern
        assert path.read_text().endswith("}\n")

    def test_md_streams_to_the_file(self, tmp_path):
        # the JSON test's table; a list of its Markdown lines, or the one
        # string they are joined into, would hold every row
        k, n_patterns = 20, 12000
        n = n_patterns * (n_patterns + 1) // 2
        rows = [
            PatternRow(format(i, f"0{k}b"), n_patterns - i, (n_patterns - i) / n, i + 1)
            for i in range(n_patterns)
        ]
        table = PatternTable(rows, k, n, 0, n, False)
        path = tmp_path / "patterns.md"
        tracemalloc.start()
        try:
            reports.write_patterns_md(path, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18
        lines = path.read_text().splitlines()
        assert len(lines) == 4 + n_patterns
        assert lines[2] == "| rank | pattern | missing vars | count | percent |"
        assert lines[3] == "| ---: | :--- | ---: | ---: | ---: |"
        last = rows[-1]
        assert lines[-1] == f"| {last.rank} | `{last.pattern}` | {last.n_missing_vars} | 1 | 0.0% |"


class TestLoadingsWriters:
    names = ["y1_miss", "y2_miss", "y3_miss"]
    loadings = np.array([[0.71, -0.2], [0.551, 0.549], [-0.551, 0.550]])

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "loadings.csv"
        reports.write_loadings_csv(path, self.names, self.loadings)
        rows = read_csv(path)
        assert rows[0] == ["indicator", "component_1", "component_2"]
        assert rows[1] == ["y1_miss", "0.710", "-0.200"]
        assert rows[3][1] == "-0.551"

    def test_md_bolds_strictly_above_threshold(self, tmp_path):
        path = tmp_path / "loadings.md"
        reports.write_loadings_md(path, self.names, self.loadings)
        text = path.read_text()
        assert "**0.710**" in text
        assert "**0.551**" in text
        assert "**-0.551**" in text
        # exactly at the threshold stays plain
        assert "**0.550**" not in text
        assert "| 0.550 |" in text
        assert "**0.549**" not in text


class TestRetentionWriters:
    @pytest.fixture
    def decisions(self):
        ev = np.array([2.0, 1.1, 0.5, 0.4])
        return {
            KAISER: RetentionDecision(KAISER, 2, diagnostics=np.ones(4)),
            EKC: RetentionDecision(EKC, 2, diagnostics=np.array([1.2, 1.0, 1.0, 1.0])),
            PARALLEL: RetentionDecision(PARALLEL, 1, diagnostics=np.array([1.3, 1.2, 1.1, 1.05])),
            PROFILE_LIKELIHOOD: RetentionDecision(
                PROFILE_LIKELIHOOD, 1, diagnostics=np.array([-3.0, -4.0, -5.0])
            ),
        }, ev

    def test_retention_csv(self, tmp_path, decisions):
        dec, _ = decisions
        path = tmp_path / "retention.csv"
        reports.write_retention_csv(path, dec, PARALLEL)
        rows = read_csv(path)
        assert rows[0] == ["criterion", "k_retained", "converged", "decisive"]
        assert len(rows) == 5
        by_crit = {r[0]: r for r in rows[1:]}
        assert set(by_crit) == set(CRITERIA)
        assert by_crit[PARALLEL][3] == "True"
        assert by_crit[KAISER][3] == "False"
        assert by_crit[KAISER][1] == "2"

    def test_curves_csv(self, tmp_path, decisions):
        dec, ev = decisions
        path = tmp_path / "curves.csv"
        reports.write_retention_curves_csv(path, dec, ev)
        rows = read_csv(path)
        assert rows[0] == ["criterion", "position", "observed_eigenvalue", "reference_value"]
        kaiser_rows = [r for r in rows[1:] if r[0] == "kaiser"]
        assert len(kaiser_rows) == 4
        assert all(r[3] == "1.000000" for r in kaiser_rows)
        assert kaiser_rows[0][2] == "2.000000"
        pl_rows = [r for r in rows[1:] if r[0] == "profile_likelihood"]
        # one row per candidate split, aligned with the spectrum positions
        assert [r[1] for r in pl_rows] == ["1", "2", "3"]
        assert pl_rows[0][3] == "-3.000000"

    def test_curves_csv_of_decide_has_every_series_in_order(self, tmp_path, rng):
        values = (rng.random((300, 6)) < 0.3).astype(np.uint8)
        ind = IndicatorMatrix(values, [f"v{j}_miss" for j in range(6)], [f"v{j}" for j in range(6)])
        ev = extraction.spectrum(correlation.correlate(ind, correlation.PEARSON), extraction.PCA)
        path = tmp_path / "curves.csv"
        reports.write_retention_curves_csv(path, decide(ind, ev, seed=5, reps=20), ev)
        rows = read_csv(path)[1:]
        # k rows for each full-length reference, k - 1 for the split positions
        expect = [(c, j) for c in CRITERIA for j in range(1, 7 if c != PROFILE_LIKELIHOOD else 6)]
        assert [(r[0], int(r[1])) for r in rows] == expect
        assert [r[2] for r in rows[:6]] == [f"{v:.6f}" for v in ev]
        assert all(r[3] == "1.000000" for r in rows[:6])


def make_screen(variable="age", testable=True):
    return ScreenResult(
        variable=variable,
        test="welch_t",
        statistic=2.5 if testable else float("nan"),
        df=10.0 if testable else float("nan"),
        p_value=0.03 if testable else float("nan"),
        testable=testable,
        reason="" if testable else "fewer than 2 observations in a group",
        n_group0=6,
        n_group1=6,
        n_excluded=1,
    )


def make_fit(separated=False):
    return LogisticFit(
        parameter_names=["intercept", "y1_miss"],
        coefficients=np.array([-0.5, 1.25]),
        standard_errors=None if separated else np.array([0.2, 0.4]),
        log_likelihood=-40.0,
        null_log_likelihood=-45.0,
        lr_chi2=10.0,
        lr_df=1,
        lr_p_value=0.0016,
        pseudo_r2=0.111,
        auc=0.75,
        sensitivity=0.8,
        specificity=0.7,
        correct_pct=0.75,
        separated=separated,
        converged=not separated,
        iterations=6,
        aliased=[],
        n=100,
    )


class TestScreensCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "screens.csv"
        rows_in = [
            ("component_1", "", make_screen("age")),
            ("component_1", "site=a", make_screen("sex", testable=False)),
        ]
        reports.write_screens_csv(path, rows_in)
        rows = read_csv(path)
        assert rows[0][:4] == ["component", "stratum", "variable", "test"]
        assert len(rows) == 3
        assert rows[1][0] == "component_1"
        assert rows[1][2] == "age"
        assert rows[1][4] == "2.500000"
        assert rows[2][1] == "site=a"
        # untestable screens have blank statistic columns, not "nan"
        assert rows[2][4] == ""
        assert rows[2][-2] == "False"
        assert rows[2][-1] == "fewer than 2 observations in a group"


class TestLogisticCsv:
    def test_one_row_per_parameter(self, tmp_path):
        path = tmp_path / "logistic.csv"
        reports.write_logistic_csv(path, [("component_1", "", "multiple", make_fit())])
        rows = read_csv(path)
        assert len(rows) == 3
        assert rows[1][3] == "intercept"
        assert rows[2][3] == "y1_miss"
        assert rows[2][4] == "1.250000"
        assert rows[2][5] == "0.400000"
        i = rows[0].index("sensitivity_pct")
        assert rows[1][i] == "80.00"

    def test_separated_fit_has_blank_standard_errors(self, tmp_path):
        path = tmp_path / "logistic.csv"
        reports.write_logistic_csv(path, [("component_1", "", "simple:y1_miss", make_fit(True))])
        rows = read_csv(path)
        i_se = rows[0].index("std_error")
        i_sep = rows[0].index("separated")
        assert rows[1][i_se] == ""
        assert rows[2][i_se] == ""
        assert rows[1][i_sep] == "True"


class TestScoresCsv:
    def test_layout(self, tmp_path):
        scores = ComponentScores(
            scores=np.array([[0.5, -1.0], [np.nan, 0.0], [1.5, 2.0]]),
            dichotomized=np.array([[1, 0], [0, 0], [1, 1]], dtype=np.uint8),
            orientation=np.array([1, -1]),
            fully_missing=np.array([False, True, False]),
            slopes=np.ones((4, 2)),
            intercepts=np.zeros(2),
        )
        path = tmp_path / "scores.csv"
        reports.write_scores_csv(path, scores)
        rows = read_csv(path)
        assert rows[0] == [
            "row",
            "score_1",
            "dichotomized_1",
            "score_2",
            "dichotomized_2",
            "fully_missing",
        ]
        assert rows[1] == ["1", "0.500000", "1", "-1.000000", "0", "False"]
        assert rows[2][1] == ""  # NaN score renders blank
        assert rows[2][-1] == "True"
        assert len(rows) == 4

    @staticmethod
    def random_scores(n, q=2, seed=5):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(n, q))
        s[rng.random((n, q)) < 0.05] = np.nan
        s[:2] = [[-0.0, 6e-7], [-4e-7, 123456.5]]
        return ComponentScores(
            scores=s,
            dichotomized=(s > 0.0).view(np.uint8),
            orientation=np.ones(q),
            fully_missing=rng.random(n) < 0.1,
            slopes=np.ones((4, q)),
            intercepts=np.zeros(q),
        )

    def test_matches_a_row_by_row_writer(self, tmp_path):
        # several row blocks and a ragged last one
        scores = self.random_scores(5000)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "score_1", "dichotomized_1", "score_2", "dichotomized_2", "fully_missing"])
            for i in range(5000):
                row = [i + 1]
                for j in range(2):
                    row += [reports._fmt(scores.scores[i, j]), int(scores.dichotomized[i, j])]
                w.writerow(row + [bool(scores.fully_missing[i])])
        path = tmp_path / "scores.csv"
        reports.write_scores_csv(path, scores)
        assert path.read_bytes() == want.read_bytes()
        assert read_csv(path)[1][1:4] == ["-0.000000", "0", "0.000001"]

    def test_traced_peak_does_not_grow_with_n(self, tmp_path):
        def peak(n):
            scores = self.random_scores(n)
            tracemalloc.start()
            try:
                reports.write_scores_csv(tmp_path / "scores.csv", scores)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # whole-column lists would add about 100 B per row
        small, large = peak(10000), peak(80000)
        assert large < small + 2**16


@pytest.fixture(scope="module")
def report():
    cond = SimCondition(1, 5, 200, 0.25, "pearson", "pca")
    return run_grid([cond], reps=4, seed=11, workers=1)


class TestGridWriters:
    def test_grid_csv(self, tmp_path, report):
        path = tmp_path / "grid.csv"
        reports.write_grid_csv(path, report)
        rows = read_csv(path)
        assert rows[0][:4] == ["n_components", "items_per_component", "n", "p_miss"]
        assert len(rows) == 2
        assert rows[1][0] == "1"
        assert rows[1][3] == "0.25"
        assert rows[1][6] == "4"

    def test_aggregate_csv(self, tmp_path, report):
        path = tmp_path / "aggregate.csv"
        reports.write_aggregate_csv(path, report)
        rows = read_csv(path)
        assert rows[0] == ["criterion", "mean_proportion_correct", "n_cells", "n_success_cells"]
        assert [r[0] for r in rows[1:]] == list(CRITERIA)
        assert all(r[2] == "1" for r in rows[1:])

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("grid", "d2412c0fc1e3e24883265e4dc84a47887f94f61514087e4b1c361b345917936c"),
            ("aggregate", "811fada475890ed6a1234d7544f9b50649b78969e5c8f2e777bb0ce9caded152"),
        ],
    )
    def test_bytes_are_pinned(self, tmp_path, report, name, digest):
        # recorded before the writers shared one CSV helper
        path = tmp_path / f"{name}.csv"
        getattr(reports, f"write_{name}_csv")(path, report)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_grid_csv_byte_identical_across_writes(self, tmp_path, report):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        reports.write_grid_csv(a, report)
        reports.write_grid_csv(b, report)
        assert a.read_bytes() == b.read_bytes()


class TestManifest:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "manifest.json"
        reports.write_manifest(path, {"zeta": 1, "alpha": {"b": 2, "a": 1}})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"alpha"') < text.index('"zeta"')
        assert json.loads(text) == {"zeta": 1, "alpha": {"b": 2, "a": 1}}


class TestSolutionSummary:
    def test_pca_keys(self):
        sol = EigenSolution(
            eigenvalues=np.array([2.0, 1.0]),
            loadings=np.eye(2),
            eigenvectors=np.eye(2),
            method="pca",
        )
        out = reports.solution_summary(sol)
        assert out == {
            "method": "pca",
            "converged": True,
            "iterations": 0,
            "eigenvalues": [2.0, 1.0],
        }

    def test_paf_adds_communalities(self):
        sol = EigenSolution(
            eigenvalues=np.array([1.5, 0.2]),
            loadings=np.eye(2),
            eigenvectors=np.eye(2),
            method="paf",
            converged=False,
            iterations=1000,
            communalities=np.array([0.49, 0.36]),
            heywood=True,
        )
        out = reports.solution_summary(sol)
        assert out["heywood"] is True
        assert out["smc_fallback"] is False
        assert out["communalities"] == [0.49, 0.36]
        assert out["converged"] is False


def test_dataset_helper_still_builds(small_dataset):
    # guard for the shared fixture the writer tests lean on
    assert small_dataset.n == 8
    _ = dataset_from_arrays({"a": [1.0, None]})
